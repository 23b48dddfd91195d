#!/usr/bin/env bash
# Does the benchmark measure? Three parts (run one with `selftest.sh a|b|c`,
# all three with no argument; about 75 minutes in all):
#
#   a  A/A. Two full sets of the timed pass on the same build (5 runs per
#      workload and set, because one process in five or so lands wholly in
#      a slow or a fast mode of the host, and setup_s is one sample a run:
#      medians of 3 put an unchanged build outside a bound about one time
#      in twelve): every end-to-end median of the
#      second set must sit within its own bound of the first. A shift
#      inside the bound but outside the design's tighter one (5/8/5/5/10 %,
#      what a quiet host should hold) is printed as "unresolved at the
#      design bound": a regression of that size on that workload cannot be
#      told from noise here. Two traced passes: every [C] count and
#      model.* value must be *identical*.
#   b  Sensitivity. A known difference is planted through a public config
#      switch and must be resolved by the rule of choosing-metrics §8
#      (>= 9 of 10 alternating pairs won, medians further apart than the
#      parent's inter-quartile distance): single_read90 with every recorder
#      on (ObsOptions::full, about 1.6x the cost for the same simulated
#      run), sharded_zipf_elastic with rebalancing frozen (1.5-1.9x). The
#      same two switches are no-ops on single_checked_t10, which must NOT
#      resolve. Smaller planted differences were tried on single_read90 and
#      correctly came out unresolved: monitor off (about 1 %) went 6-4, the
#      heap queue (7 %) went 8-2 - one process in five lands in another
#      mode of the host, and the rule wants nine pairs of ten.
#   c  Report only: single_read90 at twice the simulated duration, and the
#      ratio of the two wall_ns_per_commit (1.0 = cost per commit does not
#      depend on run length).
#
# Every run has the benchmark's own length (run_seconds of BENCHMARK.json).
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
# Workload and end-to-end metric names, from the one place they are written down.
mapfile -t WORKLOADS <<<"$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' "$ROOT/BENCHMARK.json")"
mapfile -t E2E <<<"$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", .*"bound".*/\1/p' "$ROOT/BENCHMARK.json")"
# Per-layer metrics that are exact-repeat counts or simulated-clock values.
EXACT='^(sim\.(attempts|retries)_|probe\.violations|faults\.(injected|dropped)|reconfig\.|trace\.(events|bytes)_|obs\.events_|shard\.queue_depth|placement\.(epochs|migrations|migration_failures|final_load_ratio)$|txn\.(abort|accesses|lock_|compensations|retries)|model\.)'
part="${1:-all}"
# The bounds the design note fixed, in the order of BENCHMARK.json's end_to_end.
DESIGN_BOUNDS=(0.05 0.08 0.05 0.05 0.10)
pairs=10 # alternating pairs in part b: the rule wants nine of ten
runs=5   # runs per workload and set in part a
failures=0

run() { # arguments for run.sh -> the JSON result line
    "$HERE/run.sh" "$@" | tail -n 1
}

value_of() { # metric line
    sed -n 's/.*"'"$1"'": {"value": \([0-9.eE+-]*\).*/\1/p' <<<"$2"
}

bound_of() { # metric
    sed -n 's/.*"name": "'"$1"'", .*"bound": \([0-9.]*\)}.*/\1/p' "$ROOT/BENCHMARK.json"
}

# Quartiles as Python's statistics.quantiles(xs, n=4); prints "q1 q2 q3".
quartiles() {
    tr ' ' '\n' <<<"$*" | sort -g | awk '
        { v[NR] = $1 }
        END {
            n = NR; m = n + 1
            for (i = 1; i <= 3; i++) {
                j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
                d = i * m - j * 4
                printf "%.6f ", (v[j] * (4 - d) + v[j + 1] * d) / 4
            }
        }'
}

median() {
    tr ' ' '\n' <<<"$*" | sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

part_a() {
    echo "== a: A/A, two sets of the timed pass, $runs runs (seeds 23..) per workload and set =="
    declare -A vals
    for set in 1 2; do
        for w in "${WORKLOADS[@]}"; do
            for r in $(seq 1 "$runs"); do
                line="$(run --workload "$w" --seed $((22 + r)) --trace 0)"
                for m in "${E2E[@]}"; do
                    vals[$set.$w.$m]+=" $(value_of "$m" "$line")"
                done
            done
        done
    done
    for w in "${WORKLOADS[@]}"; do
        for i in "${!E2E[@]}"; do
            m="${E2E[$i]}"
            a="$(median ${vals[1.$w.$m]})" v="$(median ${vals[2.$w.$m]})" b="$(bound_of "$m")"
            verdict="$(awk -v a="$a" -v v="$v" -v b="$b" -v d="${DESIGN_BOUNDS[$i]}" 'BEGIN {
                r = (v - a) / a; s = (r < 0) ? -r : r
                print ((s > b) ? "OUTSIDE" : (s > d) ? "ok,_unresolved_at_the_design_bound_" d : "ok"), r }')"
            printf '%-24s %-24s %14.4f %14.4f  rel %+.4f  bound %s  %s\n' \
                "$w" "$m" "$a" "$v" "${verdict#* }" "$b" "$(tr '_' ' ' <<<"${verdict% *}")"
            [ "${verdict% *}" != OUTSIDE ] || failures=$((failures + 1))
        done
    done
    echo "== a: two traced passes, counts and model values must be identical =="
    for w in "${WORKLOADS[@]}"; do
        one="$(run --workload "$w" --seed 23 --trace 1)"
        two="$(run --workload "$w" --seed 23 --trace 1)"
        names="$(tr ',' '\n' <<<"$one" | sed -n 's/.*"\([a-z_0-9]*\.[a-z_0-9]*\)": {"value".*/\1/p' | grep -E "$EXACT")"
        differ=0
        for m in $names; do
            if [ "$(value_of "$m" "$one")" != "$(value_of "$m" "$two")" ]; then
                echo "$w $m: $(value_of "$m" "$one") vs $(value_of "$m" "$two")"
                differ=$((differ + 1))
            fi
        done
        echo "$w: $(wc -w <<<"$names") exact-repeat values compared, $differ differ"
        failures=$((failures + differ))
    done
}

# compare workload variant expect(resolved|unresolved)
compare() {
    local w="$1" variant="$2" expect="$3" parent=() change=() wins_p=0 wins_c=0
    for i in $(seq 1 "$pairs"); do
        # Alternate which side runs first.
        if [ $((i % 2)) = 1 ]; then order="none $variant"; else order="$variant none"; fi
        for side in $order; do
            line="$(run --workload "$w" --seed $((40 + i)) --trace 0 --variant "$side")"
            v="$(value_of wall_ns_per_commit "$line")"
            if [ "$side" = none ]; then parent+=("$v"); else change+=("$v"); fi
        done
        last=$((i - 1))
        case "$(awk -v p="${parent[$last]}" -v c="${change[$last]}" 'BEGIN { print (c < p) ? "c" : (p < c) ? "p" : "t" }')" in
            c) wins_c=$((wins_c + 1)) ;;
            p) wins_p=$((wins_p + 1)) ;;
        esac
    done
    read -r p1 p2 p3 <<<"$(quartiles "${parent[@]}")"
    read -r c1 c2 c3 <<<"$(quartiles "${change[@]}")"
    verdict="$(awk -v wc="$wins_c" -v wp="$wins_p" -v n="$pairs" -v p1="$p1" -v p2="$p2" -v p3="$p3" -v c2="$c2" 'BEGIN {
        w = (wc > wp) ? wc : wp; gap = c2 - p2; if (gap < 0) gap = -gap
        print ((w >= 0.9 * n && gap > p3 - p1) ? "resolved" : "unresolved") }')"
    printf '%-22s %-12s parent %.2f [%.2f, %.2f]  change %.2f [%.2f, %.2f]  pairs won: change %d, parent %d of %d  -> %s (expected %s)\n' \
        "$w" "$variant" "$p2" "$p1" "$p3" "$c2" "$c1" "$c3" "$wins_c" "$wins_p" "$pairs" "$verdict" "$expect"
    [ "$verdict" = "$expect" ] || failures=$((failures + 1))
}

part_b() {
    echo "== b: sensitivity, wall_ns_per_commit over $pairs alternating pairs =="
    compare single_read90 obs_full resolved
    compare sharded_zipf_elastic frozen resolved
    compare single_checked_t10 obs_full unresolved
    compare single_checked_t10 frozen unresolved
}

part_c() {
    echo "== c (report only): single_read90 at 2x simulated duration =="
    one="$(value_of wall_ns_per_commit "$(run --workload single_read90 --seed 23 --trace 0)")"
    two="$(value_of wall_ns_per_commit "$(run --workload single_read90 --seed 23 --trace 0 --sim-scale 2)")"
    awk -v a="$one" -v b="$two" 'BEGIN { printf "wall_ns_per_commit  300 sim-s %.2f ns   600 sim-s %.2f ns   ratio %.4f\n", a, b, b / a }'
}

case "$part" in
    a) part_a ;;
    b) part_b ;;
    c) part_c ;;
    all) part_a; part_b; part_c ;;
    *) echo "usage: selftest.sh [a|b|c]" >&2; exit 2 ;;
esac
if [ "$failures" -gt 0 ]; then
    echo "selftest: $failures check(s) failed"
    exit 1
fi
echo "selftest: passed"
