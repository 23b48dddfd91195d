#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N]
#       Build in release, run the five workloads (timed pass), check every
#       output against the paper oracles, print every end-to-end metric by
#       name with its unit, then make the separate traced pass that yields
#       the per-layer numbers. Default seed 23.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload, as the acceptance driver calls it: the
#       last line of standard output is the JSON result. --trace 0 is the
#       timed pass (end-to-end metrics), --trace 1 the traced pass
#       (per-layer metrics; spans go to benchmark/out/spans_<W>.jsonl).
#       selftest.sh adds --variant none|obs_full|frozen and
#       --sim-scale K, which reach the timed pass only.
#
# Everything this script or the binaries write lands under benchmark/out
# or the cargo target directory; nothing is left running.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
# The workload names, from the one place they are written down. A command
# substitution, which bash waits for; `< <(sed ...)` left sed unreaped when
# the script exited early.
mapfile -t WORKLOADS <<<"$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' "$ROOT/BENCHMARK.json")"

die() {
    echo "run.sh: $*" >&2
    exit 2
}

workload="" seed=23 seconds="" trace="" extra=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || die "$1 needs a value"
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --variant | --sim-scale) extra+=("$1" "$2") ;;
        *) die "unknown argument $1 (see the header of this file)" ;;
    esac
    shift 2
done
if [ -z "$workload" ] && { [ -n "$seconds" ] || [ -n "$trace" ]; }; then
    die "--seconds and --trace need --workload; without it the full pass runs"
fi

# SimConfig::new reads QC_EVENT_QUEUE; every config here sets its queue
# explicitly, and the caller's shell must not matter anyway.
unset QC_EVENT_QUEUE

# Build settings move every number without any code changing, so the
# benchmark's [profile.release] must be the root workspace's, line for line.
profile_block() {
    awk '/^\[profile\.release\]/ { on = 1; next }
         /^\[/ { on = 0 }
         on && !/^[[:space:]]*(#|$)/ { gsub(/[[:space:]]/, ""); print }' "$1" | sort
}
[ -f "$ROOT/Cargo.toml" ] || die "no Cargo.toml above $HERE: run from a checkout of the repository"
root_profile="$(profile_block "$ROOT/Cargo.toml")"
[ -n "$root_profile" ] || die "the root Cargo.toml has no [profile.release] block"
if [ "$root_profile" != "$(profile_block "$HERE/Cargo.toml")" ]; then
    die "benchmark/Cargo.toml's [profile.release] differs from the root Cargo.toml's; copy it over"
fi

# Release only; the binaries themselves refuse to run with debug assertions.
target="${CARGO_TARGET_DIR:-$HERE/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$HERE/Cargo.toml" --bins >&2 || die "the release build failed"
bin="$target/release"
mkdir -p "$HERE/out"

echo "host       nproc $(nproc)  cpu $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)"
echo "toolchain  $(rustc -V)  profile.release { $(echo $root_profile) }"
echo "commit     $(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo "unknown (not a git checkout)")"

wall_of() { # the wall_ns_per_commit value of a result line
    sed -n 's/.*"wall_ns_per_commit": {"value": \([0-9.eE+-]*\).*/\1/p' <<<"$1"
}

# --seconds is passed on only when given: the binaries default to the
# run_seconds of BENCHMARK.json.
secs=()
[ -z "$seconds" ] || secs=(--seconds "$seconds")

timed() { # workload [more arguments] -> prints the run, last line the JSON result
    "$bin/qcbench" --workload "$1" --seed "$seed" --trace 0 "${@:2}"
}

traced() { # workload timed-wall-ns
    "$bin/qcbench-trace" --workload "$1" --seed "$seed" --trace 1 \
        --out-dir "$HERE/out" --timed-wall-ns "$2" ${secs[@]+"${secs[@]}"}
}

if [ -n "$workload" ]; then
    case "${trace:-0}" in
        0) timed "$workload" ${secs[@]+"${secs[@]}"} ${extra[@]+"${extra[@]}"} ;;
        1)
            # The traced pass reports its own overhead against the untraced
            # binary, so it needs that binary's figure: a short timed pass.
            reference="$(timed "$workload" --seconds 2 | tail -n 1)"
            wall="$(wall_of "$reference")"
            [ -n "$wall" ] || die "the reference timed pass printed no wall_ns_per_commit"
            traced "$workload" "$wall"
            ;;
        *) die "--trace must be 0 or 1" ;;
    esac
    exit 0
fi

# The full pass: all five timed, then all five traced.
declare -A wall
for w in "${WORKLOADS[@]}"; do
    echo
    out="$(timed "$w")"
    echo "$out"
    wall[$w]="$(wall_of "$(tail -n 1 <<<"$out")")"
done
for w in "${WORKLOADS[@]}"; do
    echo
    traced "$w" "${wall[$w]}"
done
