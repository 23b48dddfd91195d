//! Pins the hot-path allocation contract: the steady-state committed-op
//! path of the simulator allocates nothing per operation.
//!
//! Per-op state is interned in the `OpSlab`, the phase response buffer is
//! reused, the DM stores live in the pre-sized SoA arena, and violation
//! descriptions are formatted lazily — so the only allocation that scales
//! with operation count at all is the amortized doubling of the
//! `latencies_us` sample vectors (part of the pinned metrics digest, so
//! it cannot be removed). That is logarithmic: a run with tens of
//! thousands more operations may perform at most a handful more
//! allocations.
//!
//! The first test compares total allocator calls between a short and a
//! long run and bounds the delta by a small constant, unobserved and with
//! phase spans on. A causal profile allocates each finished op's trace and
//! nothing more; its test bounds the calls per additional committed op.
//!
//! The second pins the report read's: exact p50 and p99 of both classes
//! allocate the same bytes after a short and a long run — they select
//! through the histogram instead of sorting a copy of the samples.
//!
//! The third pins the migration path's contract: a barrier that moves
//! `k` items between shards allocates O(k) bytes, however many items the
//! touched shards own — every per-item column lives in stable slots, so
//! nothing but the moved items' state is copied.
//!
//! The fourth pins the nested-transaction driver's: a started transaction
//! costs the allocator its generated `ProgramTree` and nothing more — the
//! flattened program, the per-node runtime table and lock grants live in
//! buffers each client and domain reuses, and a committed transaction's
//! accesses go into the commit log's shared segments.
//!
//! The counting allocator is global, so the tests take [`SERIAL`] rather
//! than pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nested_txn::{BankingGen, WorkloadKind};
use qc_sim::{
    run_sharded_elastic, run_txn_committed, CausalOptions, ElasticPolicy, FaultPlan, Metrics,
    MultiConfig, ObsOptions, ObsRecorder, PlacementPolicy, QueueKind, ReconfigPolicy,
    SeedPlacement, SimConfig, SimTime, Simulation, TxnConfig, Workload,
};
use quorum::Majority;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made *inside* `Simulation::run` (construction excluded:
/// the slab, arena, and fault tables are deliberately allocated up front),
/// and the ops it committed.
fn drive_counted(secs: u64, obs: ObsOptions) -> (u64, Metrics) {
    let mut config = SimConfig::new(Arc::new(Majority::new(5)));
    config.duration = SimTime::from_secs(secs);
    config.queue = QueueKind::Calendar;
    let sim = Simulation::with_observer(config, ObsRecorder::new(obs));
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let metrics = sim.run();
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    (after - before, metrics)
}

/// Allocator calls and committed ops of a 2 s and a 12 s run under `obs`,
/// after a warm-up run that pays one-time lazy init (TLS, rand tables, …)
/// and every reused buffer's growth to its working size.
fn short_and_long(obs: ObsOptions) -> [(u64, u64); 2] {
    drive_counted(1, obs);
    let [short, long] = [2, 12].map(|secs| {
        let (allocs, m) = drive_counted(secs, obs);
        (allocs, m.reads.successes + m.writes.successes)
    });
    assert!(
        long.1 > short.1 + 10_000,
        "workload too small to be meaningful: {} vs {} ops",
        short.1,
        long.1
    );
    [short, long]
}

/// Unobserved, and with phase spans on: spans are a fold of each
/// coordinator's reused segment chain, so they add nothing per op.
#[test]
fn committed_op_path_allocates_sublinearly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spans = ObsOptions {
        spans: true,
        ..ObsOptions::disabled()
    };
    for obs in [ObsOptions::disabled(), spans] {
        let [(short_allocs, short_ops), (long_allocs, long_ops)] = short_and_long(obs);
        // ~6× the operations may cost only the latency-vector doublings
        // and stray bucket growth — a constant, nowhere near linear in ops.
        let delta = long_allocs.saturating_sub(short_allocs);
        assert!(
            delta <= 64,
            "hot path allocates per-op under {obs:?}: {delta} extra allocator calls for \
             {} extra committed ops (short run {short_allocs}, long run {long_allocs})",
            long_ops - short_ops
        );
    }
}

/// The causal profile costs each finished op its trace: the span list, the
/// root span's segment list and the critical-path walk that folds it into
/// the profile, plus a second walk in a debug build, where `record`
/// verifies the trace. The segment chain the trace is built from is
/// reused; a chain taken out of `Clients` at every finish costs one more
/// call per op. Measured per additional committed op in the debug test
/// build: 4.001 with the reused chain, 5.001 with a taken one.
#[test]
fn a_causal_profile_allocates_only_the_trace_per_op() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let causal = ObsOptions {
        causal: CausalOptions::profile(),
        ..ObsOptions::disabled()
    };
    let [(short_allocs, short_ops), (long_allocs, long_ops)] = short_and_long(causal);
    let per_op = (long_allocs - short_allocs) as f64 / (long_ops - short_ops) as f64;
    let bound = if cfg!(debug_assertions) { 4.5 } else { 3.5 };
    assert!(
        per_op <= bound,
        "{per_op:.3} allocator calls per additional committed op under the causal profile \
         (short run {short_allocs} calls / {short_ops} ops, long run {long_allocs} / {long_ops})"
    );
}

/// Bytes allocated by a report read: p50 and p99 of both classes.
fn report_read_bytes(m: &Metrics) -> u64 {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let read = [&m.reads, &m.writes].map(|s| (s.percentile_ms(50.0), s.percentile_ms(99.0)));
    let after = ALLOC_BYTES.load(Ordering::Relaxed);
    std::hint::black_box(read);
    after - before
}

#[test]
fn the_report_read_allocates_independently_of_run_length() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_, short_m) = drive_counted(2, ObsOptions::disabled());
    let (_, long_m) = drive_counted(12, ObsOptions::disabled());
    let (short, long) = (report_read_bytes(&short_m), report_read_bytes(&long_m));
    // Six times the samples: sorting a copy per percentile allocates
    // ≈ 330 KiB more after the long run.
    assert!(
        long.abs_diff(short) <= 64 * 1024,
        "the report read allocates {short} bytes after 2 s and {long} after 12 s \
         ({} and {} samples)",
        short_m.reads.successes + short_m.writes.successes,
        long_m.reads.successes + long_m.writes.successes
    );
}

/// Items per shard in the migration test: large enough that rewriting a
/// single 8-byte per-item column of one shard (80 KB) already exceeds
/// what a whole 64-move barrier may allocate.
const LOCAL: usize = 10_000;
const SHARDS: usize = 4;

/// Bytes allocated by one elastic run whose only scripted barrier (at
/// 100 ms) moves the first `k` items of shard 0 to shard 1.
fn elastic_run_bytes(k: usize) -> u64 {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    c.items = LOCAL * SHARDS;
    c.shards = SHARDS;
    c.workload = Workload::Routed {
        interarrival: SimTime(200),
    };
    c.duration = SimTime::from_millis(300);
    c.queue = QueueKind::Calendar;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        seed: SeedPlacement::RoundRobin,
        max_moves_per_epoch: 0,
        ..ElasticPolicy::new()
    });
    // The barrier exists in both runs: a move to the current owner is a
    // no-op that still parks the shards.
    let at = SimTime::from_millis(100);
    c.faults = FaultPlan::new().migrate_at(at, 0, 0);
    for i in 0..k {
        c.faults = c.faults.migrate_at(at, (i + 1) * SHARDS, 1);
    }
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let (report, placement) = run_sharded_elastic(&c, 1);
    let after = ALLOC_BYTES.load(Ordering::Relaxed);
    assert_eq!(placement.migrations, k as u64);
    assert_eq!(report.metrics.lemma_violations, 0);
    after - before
}

#[test]
fn a_migration_barrier_allocates_in_proportion_to_its_moves() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    elastic_run_bytes(0);
    let still = elastic_run_bytes(0);
    for k in [8usize, 64] {
        let moved = elastic_run_bytes(k);
        // Each move carries its DM block, its `ItemState`, a plan entry
        // per shard view and the planner's bookkeeping: well under 2 KiB.
        // The flat allowance covers the latency vectors doubling at
        // different instants once the moved items commit elsewhere.
        let budget = 2_048 * k as u64 + 32_768;
        let delta = moved.saturating_sub(still);
        assert!(
            delta <= budget,
            "{k} moves between shards of {LOCAL} items allocated {delta} extra bytes \
             (budget {budget}): the barrier is copying state that did not move"
        );
    }
}

/// Allocator calls of one whole banking run on the calling thread, and the
/// transactions it started.
fn txn_run_counted(secs: u64) -> (u64, u64) {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.duration = SimTime::from_secs(secs);
    c.seed = 17;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let (report, commits) = run_txn_committed(&c, 1);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(report.stats.lemma_violations, 0);
    assert_eq!(commits.len() as u64, report.stats.txns_committed);
    (after - before, report.stats.txns_started)
}

#[test]
fn a_started_transaction_allocates_only_its_tree() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    txn_run_counted(1);
    let (short_allocs, short_txns) = txn_run_counted(2);
    let (long_allocs, long_txns) = txn_run_counted(6);
    assert!(
        long_txns > short_txns + 1_000,
        "workload too small to be meaningful: {short_txns} vs {long_txns} transactions"
    );
    // Setup and every buffer's growth to its working size cancel in the
    // difference. A banking tree is 1–3 vectors (1.67 on average) and the
    // commit log opens a segment per thousand-odd transactions, so this
    // reads ≈ 1.74; a log with a vector per committed transaction reads
    // ≈ 2.7, and a flatten that allocates per node, or a grant list per
    // rescan, 10 or more.
    let per_txn = (long_allocs - short_allocs) as f64 / (long_txns - short_txns) as f64;
    assert!(
        per_txn <= 2.0,
        "{per_txn:.2} allocator calls per additional started transaction \
         (short run {short_allocs} calls / {short_txns} txns, long run {long_allocs} / {long_txns})"
    );
}
