//! Property wall for the causal flight recorder: under *any* generated
//! combination of nested program shape (or flat operation), fault plan,
//! quorum system, and parallelism, every recorded span tree must
//!
//! * be causally consistent (parents bracket children, sequential
//!   children tile, leaf segments chain gap-free — `TxnTrace::verify`),
//! * carry a critical path that reconciles *exactly* with the
//!   transaction's end-to-end latency, and
//! * fold into a profile whose merge is split-invariant: observing all
//!   traces in one profile equals merging profiles built from any split,
//!   which is what pins the 1/2/4-thread digests equal.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

use std::sync::Arc;

use nested_txn::{BankingGen, InventoryGen, RandomTreeGen, WorkloadKind};
use proptest::prelude::*;
use qc_sim::{
    run_sharded_with, run_txn_causal, CausalOptions, CritProfile, FaultPlan, MultiConfig,
    ObsOptions, ObsRecorder, ObsReport, ReconfigPolicy, RetryPolicy, ShardReport, SimTime,
    TxnConfig,
};
use quorum::{Majority, QuorumSpec, Rowa};

const SITES: usize = 3;
const DURATION_MS: u64 = 150;

fn workload(kind: u8, size: u8) -> WorkloadKind {
    match kind % 3 {
        0 => WorkloadKind::Banking(BankingGen::new(2 + u32::from(size % 3))),
        1 => WorkloadKind::Inventory(InventoryGen::new(2 + u32::from(size % 2))),
        _ => WorkloadKind::Random(RandomTreeGen::new(2 + u32::from(size % 3))),
    }
}

fn config(seed: u64, kind: u8, size: u8, domains: usize, cpd: usize, rowa: bool) -> TxnConfig {
    let quorum: Arc<dyn QuorumSpec + Send + Sync> = if rowa {
        Arc::new(Rowa::new(SITES))
    } else {
        Arc::new(Majority::new(SITES))
    };
    let mut c = TxnConfig::new(quorum, workload(kind, size));
    c.domains = domains;
    c.clients_per_domain = cpd;
    c.items = c.workload.slots() as usize * domains;
    c.duration = SimTime::from_millis(DURATION_MS);
    c.seed = seed;
    // A short crash window plus tight retries keeps the abort and
    // backoff edges exercised without drowning the run.
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(40), 0)
        .recover_at(SimTime::from_millis(80), 0);
    c.retry = RetryPolicy::retries(2, SimTime::from_millis(3));
    c.causal = CausalOptions::full();
    c
}

proptest! {
    /// Causal consistency and exact latency reconciliation for every
    /// recorded trace, under arbitrary programs and parallelism.
    #[test]
    fn critical_paths_reconcile_exactly(
        seed in 0u64..1_000_000,
        kind in 0u8..3,
        size in 0u8..6,
        domains in 1usize..3,
        cpd in 1usize..3,
        rowa_raw in 0u8..2,
    ) {
        let c = config(seed, kind, size, domains, cpd, rowa_raw == 1);
        let (report, causal) = run_txn_causal(&c, 1);
        let p = causal.profile();
        prop_assert_eq!(
            p.txns(),
            report.stats.txns_committed + report.stats.txns_aborted,
            "one trace per finished transaction"
        );
        prop_assert_eq!(p.reconciled(), p.txns(), "profile saw a non-reconciling path");
        for t in causal.all() {
            prop_assert_eq!(t.verify(), Ok(()), "inconsistent trace: {}", t.to_json_line());
            prop_assert_eq!(t.critical_path().total_us, t.latency_us());
        }
    }

    /// Profile merge is split-invariant: folding the trace stream at any
    /// cut point and merging equals one pass over the whole stream — the
    /// algebra that makes the merged digest independent of how many
    /// threads (domains per thread) produced the pieces.
    #[test]
    fn profile_merge_is_split_invariant(
        seed in 0u64..1_000_000,
        kind in 0u8..3,
        size in 0u8..6,
        cut_frac in 0.0f64..1.0,
    ) {
        let c = config(seed, kind, size, 2, 2, false);
        let (_, causal) = run_txn_causal(&c, 1);
        let traces = causal.all();
        prop_assume!(!traces.is_empty());

        let mut whole = CritProfile::new();
        for t in traces {
            whole.observe(t);
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((traces.len() as f64) * cut_frac) as usize;
        let (left, right) = traces.split_at(cut.min(traces.len()));
        let mut a = CritProfile::new();
        for t in left {
            a.observe(t);
        }
        let mut b = CritProfile::new();
        for t in right {
            b.observe(t);
        }
        a.merge(&b);
        prop_assert_eq!(a.digest(), whole.digest(), "merge is not split-invariant");
        prop_assert_eq!(a.to_json(), whole.to_json());
    }

    /// The full causal report digest is thread-count-invariant for every
    /// generated case (domains merge in index order regardless of which
    /// OS thread ran them).
    #[test]
    fn causal_digest_is_thread_invariant(
        seed in 0u64..1_000_000,
        kind in 0u8..3,
        size in 0u8..6,
        domains in 1usize..4,
        cpd in 1usize..3,
    ) {
        let c = config(seed, kind, size, domains, cpd, false);
        let (_, one) = run_txn_causal(&c, 1);
        for threads in [2usize, 4] {
            let (_, multi) = run_txn_causal(&c, threads);
            prop_assert_eq!(one.digest(), multi.digest(), "diverged at {} threads", threads);
        }
    }

    /// The flat drivers' phase spans and causal traces are two folds of
    /// one segment chain per operation. Under arbitrary crash, recovery,
    /// forced-abort and drop weather, with reactive reconfiguration (so
    /// stale-generation retries too): the spans sum to the committed
    /// latency, every trace verifies and reconciles, one trace per
    /// finished op, and the whole report is thread-count-invariant.
    #[test]
    fn flat_spans_and_traces_reconcile_exactly(
        seed in 0u64..1_000_000,
        weather in prop::collection::vec((0u8..4, 0u64..DURATION_MS, 0usize..8), 0..8),
        rowa_raw in 0u8..2,
        attempts in 1u32..4,
    ) {
        let c = flat_config(seed, &weather, rowa_raw == 1, attempts);
        let (r, obs) = flat_observed(&c, 1);
        let m = &r.metrics;
        let e2e = m.reads.latency_hist().sum() + m.writes.latency_hist().sum();
        prop_assert_eq!(obs.spans.total_us(), e2e, "phase spans drifted from latency");
        let p = obs.causal.profile();
        let finished: u64 = [&m.reads, &m.writes]
            .iter()
            .map(|s| s.successes + s.timeouts + s.unavailable + s.aborted)
            .sum();
        prop_assert_eq!(p.txns(), finished, "one trace per finished op");
        prop_assert_eq!(p.reconciled(), p.txns(), "profile saw a non-reconciling path");
        for t in obs.causal.all() {
            prop_assert_eq!(t.verify(), Ok(()), "inconsistent trace: {}", t.to_json_line());
        }
        prop_assert_eq!(flat_observed(&c, 2).1.digest(), obs.digest(), "diverged at 2 threads");
    }
}

/// Run `c` on `threads` threads with spans and every causal trace
/// recorded.
fn flat_observed(c: &MultiConfig, threads: usize) -> (ShardReport, ObsReport) {
    let mut rec = ObsRecorder::new(ObsOptions {
        spans: true,
        causal: CausalOptions::full(),
        ..ObsOptions::disabled()
    });
    let (report, _) = run_sharded_with(c, threads, &mut rec);
    (report, rec.into_report())
}

/// A sharded flat run (2 shards × 2 clients over 4 items) under
/// `weather`: `(kind, at_ms, index)` crashes, recoveries, forced aborts
/// and 30 ms drop windows.
fn flat_config(seed: u64, weather: &[(u8, u64, usize)], rowa: bool, attempts: u32) -> MultiConfig {
    let quorum: Arc<dyn QuorumSpec + Send + Sync> = if rowa {
        Arc::new(Rowa::new(SITES))
    } else {
        Arc::new(Majority::new(SITES))
    };
    let mut c = MultiConfig::new(quorum);
    c.items = 4;
    c.shards = 2;
    c.clients_per_shard = 2;
    c.read_fraction = 0.5;
    c.duration = SimTime::from_millis(DURATION_MS);
    c.seed = seed;
    for &(kind, at_ms, idx) in weather {
        let at = SimTime::from_millis(at_ms);
        c.faults = match kind {
            0 => c.faults.crash_at(at, idx % SITES),
            1 => c.faults.recover_at(at, idx % SITES),
            2 => c.faults.abort_at(at, idx % 4),
            _ => c
                .faults
                .drop_window(at, SimTime::from_millis(30), 100 * (idx as u32 + 2)),
        };
    }
    c.retry = RetryPolicy::retries(attempts, SimTime::from_millis(2));
    c.reconfig = ReconfigPolicy::reactive();
    c
}
