#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every change.
# Usage: scripts/tier1.sh  (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

# Fixed property-test budget so the gate's cost and coverage are
# reproducible (the vendored proptest reads this; default is 256).
export PROPTEST_CASES="${PROPTEST_CASES:-256}"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (PROPTEST_CASES=$PROPTEST_CASES)"
# Every suite of every crate, once: the simulator's determinism / fault /
# observability / reconfiguration / placement / causal / nested-transaction
# suites, the Theorem 10 oracle suites (scheduler::differential,
# oracle_alloc) and the protocol core's own property test all run here, at
# the property-test budget above. Nothing below repeats them.
cargo test -q --workspace

echo "==> nested-transaction smoke (exp_txn: digests, conformance, Theorem 11)"
# The binary asserts 1/2/4-thread digest identity, per-item Theorem 10
# conformance, and commit-order serializability of the committed
# projection; --smoke keeps the scale and sweep sections cheap.
cargo run --release -p qc-bench --bin exp_txn -- --smoke > /dev/null

echo "==> critical-path smoke (exp_critpath --smoke) + qc-trace queries"
# The binary asserts recording invisibility, thread/queue invariance of
# the causal digest, and exact reconciliation at scale; qc-trace then
# re-parses both the golden causal JSONL and the freshly exported
# slowest-transaction JSONL, re-verifying every span tree offline.
cargo run --release -p qc-bench --bin exp_critpath -- --smoke > /dev/null
cargo run --release -p qc-bench --bin qc-trace -- \
  crates/sim/tests/golden/txn_banking_causal_seed17.jsonl check
cargo run --release -p qc-bench --bin qc-trace -- \
  results/critpath_slowest.jsonl check > /dev/null
cargo run --release -p qc-bench --bin qc-trace -- \
  crates/sim/tests/golden/txn_banking_causal_seed17.jsonl top 3 > /dev/null
cargo run --release -p qc-bench --bin qc-trace -- \
  results/critpath_slowest.jsonl profile > /dev/null
cargo run --release -p qc-bench --bin qc-trace -- \
  results/critpath_slowest.jsonl aborts > /dev/null

echo "==> elastic rebalancing smoke (exp_rebalance --smoke)"
# The binary asserts 1/2/4-thread x calendar/heap digest identity of the
# elastic run, per-item conformance including migrated items, and that
# the elastic arm at least halves the collapsed arm's load ratio; --smoke
# keeps the item count and sweep cheap.
cargo run --release -p qc-bench --bin exp_rebalance -- --smoke > /dev/null

echo "==> reconfiguration smoke (exp_faults, dynamic column non-degenerate)"
# The binary itself asserts every dynamic ROWA cell reconfigured and beat
# its static twin; --secs keeps the smoke cheap.
cargo run --release -p qc-bench --bin exp_faults -- --secs 2 > /dev/null

echo "==> shard scaling smoke (exp_shard_scaling: determinism + per-item conformance)"
cargo run --release -p qc-bench --bin exp_shard_scaling -- --secs 2 --threads 2 > /dev/null

echo "==> event-queue suites (queue_props at 1024 cases, work bound)"
# The calendar queue against the heap oracle on arbitrary scripts and on the
# shapes the three drivers produce, pop for pop; and the deterministic bound
# on the calendar's own work (geometry changes, buckets skipped, elements
# moved) over those shapes — the one suite run twice, the second time at
# four times the budget. The determinism, shard_determinism and golden
# suites above assert their pinned values under both queues in-process.
PROPTEST_CASES=1024 cargo test -q -p qc-sim --test queue_props

echo "==> benchmark crate builds and runs (benchmark/ is outside the workspace)"
# benchmark/ has its own manifest, so a signature change to anything it
# calls (LockTable::rescan, WorkloadKind::program, run_txn_committed, ...)
# is invisible to the workspace build above. The two short runs are the
# smoke: each re-checks its oracles (lemma violations 0, report digest equal
# under the heap queue and the other thread count; the nested one also the
# Theorem 11 commit-order replay) and exits non-zero if one fails.
cargo build --release --offline --manifest-path benchmark/Cargo.toml --bins
benchmark/run.sh --workload sharded_zipf_elastic --seed 23 --seconds 3 --trace 0 > /dev/null
benchmark/run.sh --workload txn_banking_t11 --seed 23 --seconds 3 --trace 0 > /dev/null

echo "==> perf-regression gate (exp_throughput -> bench_summary --check)"
# Regenerate the hot-path throughput snapshot, fold it into a scratch
# copy of the trajectory under a synthetic commit, and fail if the
# geometric mean of ops/wall-s regressed more than 15% against the most
# recent recorded commit. The scratch copy keeps the gate from editing
# the committed trajectory history.
cargo run --release -p qc-bench --bin exp_throughput -- --secs 5 > /dev/null
GATE_DIR="$(mktemp -d)"
cp results/BENCH_*.json "$GATE_DIR"/
cargo run --release -p qc-bench --bin bench_summary -- \
  --results "$GATE_DIR" --commit worktree > /dev/null
cargo run --release -p qc-bench --bin bench_summary -- \
  --results "$GATE_DIR" --check
rm -rf "$GATE_DIR"

echo "==> observability smoke (exp_obs --smoke)"
# Asserts the snapshot exporter fires on every simulated boundary and the
# 1/2/4-thread sharded histogram merge is bit-identical. After the perf
# gate: it reads the hot-path snapshot exp_throughput just wrote as its
# null-sink baseline.
cargo run --release -p qc-bench --bin exp_obs -- --smoke > /dev/null

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
# The observability crate is in the workspace, but pin it explicitly so a
# future workspace exclusion cannot silently drop it from the gate.
cargo clippy -p qc-obs --all-targets -- -D warnings

echo "tier1: OK"
