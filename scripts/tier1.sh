#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every change.
# Usage: scripts/tier1.sh  (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

# Fixed property-test budget so the gate's cost and coverage are
# reproducible (the vendored proptest reads this; default is 256).
export PROPTEST_CASES="${PROPTEST_CASES:-256}"

# What `git status` shows before the gate runs; it must show the same after.
TREE_BEFORE="$(git status --porcelain)"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (PROPTEST_CASES=$PROPTEST_CASES)"
# Every suite of every crate, once (`default-members` in the root manifest
# is the whole workspace): the simulator's determinism / fault /
# observability / reconfiguration / placement / causal / nested-transaction
# suites, the Theorem 10 oracle suites (scheduler::differential,
# oracle_alloc) and the protocol core's own property test all run here, at
# the property-test budget above. Only the legs below that say "1024
# cases" run a suite again, at four times that budget.
cargo test -q

echo "==> no wall clock under crates/bench/src"
# An experiment's output is a function of its flags and seed; host time is
# benchmark/'s to measure.
if grep -rnE 'Instant|SystemTime' crates/bench/src; then
  echo "tier1: an experiment reads the host clock" >&2
  exit 1
fi

# The experiment legs run the built qc-exp from scratch working
# directories: it writes results/ relative to where it runs, so the
# committed results/ (recorded at full scale) is never touched.
BIN="${CARGO_TARGET_DIR:-$PWD/target}/release"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# leg NAME [--threads] ARGS...: run `qc-exp NAME ARGS` twice, each from its
# own empty directory — on 1 and on 2 worker threads when the second word
# is --threads — and require byte-identical stdout and written files. The
# first run's directory stays at $SCRATCH/NAME.a.
leg() {
  local name="$1" t1="" t2=""
  shift
  if [ "${1:-}" = "--threads" ]; then
    shift
    t1="--threads 1" t2="--threads 2"
  fi
  mkdir "$SCRATCH/$name.a" "$SCRATCH/$name.b"
  # shellcheck disable=SC2086  # $t1 / $t2 are zero or two words
  (cd "$SCRATCH/$name.a" && "$BIN/qc-exp" "$name" "$@" $t1 > stdout.txt)
  # shellcheck disable=SC2086
  (cd "$SCRATCH/$name.b" && "$BIN/qc-exp" "$name" "$@" $t2 > stdout.txt)
  diff -r "$SCRATCH/$name.a" "$SCRATCH/$name.b"
}

# expect_status N CMD...: CMD must exit with status N (its output discarded).
expect_status() {
  local want="$1" status=0
  shift
  "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "tier1: '$*' exited $status, expected $want" >&2
    exit 1
  fi
}

echo "==> qc-exp refuses malformed flags (status 2, never a panic)"
expect_status 2 "$BIN/qc-exp" no_such_experiment
expect_status 2 "$BIN/qc-exp" cost --seed 5
expect_status 2 "$BIN/qc-exp" shard_scaling --secs abc
expect_status 2 "$BIN/qc-exp" obs --smoke --snapshot-every -1
expect_status 2 "$BIN/qc-exp" txn --seed

echo "==> nested-transaction smoke (qc-exp txn: digests, conformance, Theorem 11)"
# The experiment asserts 1/2/4-thread digest identity, per-item Theorem 10
# conformance, and commit-order serializability of the committed
# projection; --smoke keeps the scale and sweep sections cheap.
leg txn --threads --smoke

echo "==> critical-path smoke (qc-exp critpath --smoke) + qc-trace queries"
# The experiment asserts recording invisibility, thread/queue invariance
# of the causal digest, and exact reconciliation at scale; qc-trace then
# re-parses both the golden causal JSONL and the freshly exported
# slowest-transaction JSONL, re-verifying every span tree offline.
leg critpath --threads --smoke
GOLDEN=crates/sim/tests/golden/txn_banking_causal_seed17.jsonl
SLOWEST="$SCRATCH/critpath.a/results/critpath_slowest.jsonl"
"$BIN/qc-trace" "$GOLDEN" check
"$BIN/qc-trace" "$SLOWEST" check > /dev/null
"$BIN/qc-trace" "$GOLDEN" top 3 > /dev/null
"$BIN/qc-trace" "$SLOWEST" profile > /dev/null
"$BIN/qc-trace" "$SLOWEST" aborts > /dev/null
# Malformed input is an error (status 1), never a panic (status 101): a
# child index and a doomed-span index past the one-span list, and a K
# that is not a number.
TREE='"at_us":10,"shard":0,"event":"span_tree","client":0,"epoch":0,"start_us":0,"end_us":10'
ROOT='"parent":null,"kind":"seq","start_us":0,"end_us":10'
printf '%s\n' "{$TREE,\"outcome\":\"committed\",\"cause\":null,\"doomed\":null,\"spans\":[{$ROOT,\"outcome\":\"ok\",\"children\":[7]}]}" \
  > "$SCRATCH/bad_child.jsonl"
printf '%s\n' "{$TREE,\"outcome\":\"aborted\",\"cause\":\"lock_timeout\",\"doomed\":9,\"spans\":[{$ROOT,\"outcome\":\"aborted\"}]}" \
  > "$SCRATCH/bad_doomed.jsonl"
expect_status 1 "$BIN/qc-trace" "$SCRATCH/bad_child.jsonl" check
expect_status 1 "$BIN/qc-trace" "$SCRATCH/bad_doomed.jsonl" check
expect_status 1 "$BIN/qc-trace" "$GOLDEN" top abc

echo "==> elastic rebalancing smoke (qc-exp rebalance --smoke)"
# The experiment asserts 1/2/4-thread x calendar/heap digest identity of
# the elastic run, per-item conformance including migrated items, and
# that the elastic arm at least halves the collapsed arm's load ratio;
# --smoke keeps the item count and sweep cheap.
leg rebalance --threads --smoke

echo "==> reconfiguration smoke (qc-exp faults, dynamic column non-degenerate)"
# The experiment itself asserts every dynamic ROWA cell reconfigured and
# beat its static twin; --secs keeps the smoke cheap.
leg faults --secs 2

echo "==> shard scaling smoke (qc-exp shard_scaling: determinism + per-item conformance)"
leg shard_scaling --threads --secs 2

echo "==> throughput smoke (qc-exp throughput: Q3a grid, Q3b Theorem 11 runs)"
leg throughput --threads --secs 2

echo "==> observability smoke (qc-exp obs --smoke)"
# Asserts the snapshot exporter fires on every simulated boundary, the
# observed run's metrics digest equals the unobserved one, and the
# 1/2/4-thread sharded histogram merge is bit-identical.
leg obs --smoke

echo "==> every experiment at default flags reproduces the committed results/"
# Each experiment's stdout is results/exp_<name>.txt (fig_trees.txt for
# trees); together with the files they write, the directory must equal
# results/ byte for byte. results/perf/ holds benchmark records, and the
# ignored traces/ and obs/ hold --trace-dir / --obs-dir dumps.
mkdir -p "$SCRATCH/all/results"
for name in ablation aborts availability cost critpath crossover exhaustive failover \
  faults granularity invariants obs rebalance reconfig shard_scaling theorem10 \
  theorem11 throughput trees txn; do
  file="exp_$name.txt"
  [ "$name" = trees ] && file=fig_trees.txt
  (cd "$SCRATCH/all" && "$BIN/qc-exp" "$name" > "results/$file")
done
diff -r -x perf -x traces -x obs results "$SCRATCH/all/results"

echo "==> event-queue suites (queue_props at 1024 cases, work bound)"
# The calendar queue against the heap oracle on arbitrary scripts and on the
# shapes the three drivers produce, pop for pop; and the deterministic bound
# on the calendar's own work (geometry changes, buckets skipped, elements
# moved) over those shapes — run a second time here, at four times the
# budget. The determinism, shard_determinism and golden
# suites above assert their pinned values under both queues in-process.
PROPTEST_CASES=1024 cargo test -q -p qc-sim --test queue_props

echo "==> metric suites (metrics_props at 1024 cases)"
# Exact percentiles selected through the histogram against sorting a copy
# of the samples — duplicates, wide and multi-pass buckets, shard merges —
# and the merge's split invariance, commutativity and associativity.
PROPTEST_CASES=1024 cargo test -q -p qc-sim --test metrics_props

echo "==> causal suites (causal_props at 1024 cases)"
# Exact reconciliation and thread invariance of the recorded span trees
# under arbitrary program trees x faults x quorums, and for the flat
# drivers phase spans and traces as two folds of one segment chain per
# operation: a change to what an operation records, or to when its chain
# is written and cleared, is checked here at four times the budget.
PROPTEST_CASES=1024 cargo test -q -p qc-sim --test causal_props

echo "==> configuration fuzz (the three validates at 1024 cases)"
# Every field of SimConfig, MultiConfig and TxnConfig drawn from the edges
# of its type, with fault-plan text from the plan-parse fuzz: validate
# always returns, and a configuration it accepts that is small enough to
# build runs 20 simulated milliseconds without a panic.
PROPTEST_CASES=1024 cargo test -q -p qc-sim --test fault_props any_config

echo "==> system A differentials (scheduler and object vs ordered tables, 1024 cases)"
# The serial scheduler against the paper's literal six sets and the
# read/write object against a BTreeSet of created accesses, step for step,
# over names whose child indices are sparse, huge and out of order — what
# the name tree under both must get right, at four times the budget.
PROPTEST_CASES=1024 cargo test -q -p nested-txn --lib differential

echo "==> benchmark crate builds and runs (benchmark/ is outside the workspace)"
# benchmark/ has its own manifest, so a signature change to anything it
# calls (LockTable::rescan, WorkloadKind::program, run_txn_committed, ...)
# is invisible to the workspace build above. The three short runs are the
# smoke: each re-checks its oracles (lemma violations 0, report digest equal
# under the heap queue and the other thread count; the nested one also the
# Theorem 11 commit-order replay; the checked one `check_trace` inside every
# rep, its committed count equal to the report's) and exits non-zero if one
# fails.
cargo build --release --offline --manifest-path benchmark/Cargo.toml --bins
benchmark/run.sh --workload sharded_zipf_elastic --seed 23 --seconds 3 --trace 0 > /dev/null
benchmark/run.sh --workload txn_banking_t11 --seed 23 --seconds 3 --trace 0 > /dev/null
benchmark/run.sh --workload single_checked_t10 --seed 23 --seconds 3 --trace 0 > /dev/null

echo "==> perf records are well-formed (scripts/perf_record.py --check)"
# Every results/perf/PR-*.json carries the five workloads x five end-to-end
# metrics of BENCHMARK.json, a host block, the parent commit and its raw runs.
python3 scripts/perf_record.py --check results/perf/PR-*.json

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
# The observability crate is in the workspace, but pin it explicitly so a
# future workspace exclusion cannot silently drop it from the gate.
cargo clippy -p qc-obs --all-targets -- -D warnings

echo "==> the gate left the tree as it found it"
if [ "$(git status --porcelain)" != "$TREE_BEFORE" ]; then
  git status --porcelain
  echo "tier1: the gate changed tracked or unignored files" >&2
  exit 1
fi

echo "tier1: OK"
