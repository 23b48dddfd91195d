//! Property-based tests for the sharded multi-item simulator: under *any*
//! generated fault plan (crashes, recoveries, forced aborts, drop windows,
//! delay windows) and any zipfian skew, every item's access sequence
//! independently satisfies the paper's per-item correctness argument —
//! Lemmas 7/8 hold at every committed point (runtime monitors green) and
//! the per-item schedule replays cleanly through the Theorem 10
//! conformance check. The report digest is also pinned equal between a
//! 1-thread and a 2-thread execution of every generated case.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

use std::sync::Arc;

use proptest::prelude::*;
use qc_sim::{
    check_trace, run_sharded, run_sharded_with, ContactPolicy, FaultPlan, ItemDist, MultiConfig,
    RetryPolicy, ScheduleTrace, ShardReport, SimTime, Traces,
};
use quorum::Majority;

/// Raw material for one generated fault event:
/// `(kind, at_ms, index, duration_ms, strength)`.
type RawEvent = (u8, u64, usize, u64, u32);

const SITES: usize = 3;
const DURATION_MS: u64 = 800;

fn build_plan(events: &[RawEvent], clients: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(kind, at_ms, idx, dur_ms, strength) in events {
        let at = SimTime::from_millis(at_ms);
        let dur = SimTime::from_millis(dur_ms);
        plan = match kind {
            0 => plan.crash_at(at, idx % SITES),
            1 => plan.recover_at(at, idx % SITES),
            2 => plan.abort_at(at, idx % clients),
            3 => plan.drop_window(at, dur, strength.min(600)),
            _ => plan.delay_window(at, dur, SimTime::from_millis(u64::from(strength) % 4)),
        };
    }
    plan
}

fn events_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    prop::collection::vec(
        (
            0u8..5,
            0u64..DURATION_MS,
            0usize..16,
            (1u64..300, 0u32..=600),
        ),
        0..8,
    )
    .prop_map(|evs| {
        evs.into_iter()
            .map(|(k, at, idx, (dur, strength))| (k, at, idx, dur, strength))
            .collect()
    })
}

fn config(
    events: &[RawEvent],
    seed: u64,
    items: usize,
    shards: usize,
    theta_centi: u32,
) -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(SITES)));
    c.contact = ContactPolicy::MinimalQuorum;
    c.items = items;
    c.shards = shards;
    c.clients_per_shard = 2;
    c.read_fraction = 0.5;
    c.dist = if theta_centi == 0 {
        ItemDist::Uniform
    } else {
        ItemDist::Zipfian {
            theta: f64::from(theta_centi) / 100.0,
        }
    };
    c.duration = SimTime::from_millis(DURATION_MS);
    c.seed = seed;
    c.faults = build_plan(events, c.clients());
    c.retry = RetryPolicy::retries(2, SimTime::from_millis(3));
    c
}

proptest! {
    /// Safety + thread-count invariance under arbitrary plans and skews.
    #[test]
    fn sharded_runs_are_safe_and_thread_invariant(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        items in 2usize..10,
        shards_raw in 1usize..4,
        theta_centi in 0u32..120,
    ) {
        let shards = shards_raw.min(items);
        let c = config(&events, seed, items, shards, theta_centi);
        let r = run_sharded(&c, 1);
        prop_assert_eq!(
            r.metrics.lemma_violations, 0,
            "violations: {:?}", r.metrics.violations
        );
        for (label, s) in [("reads", &r.metrics.reads), ("writes", &r.metrics.writes)] {
            prop_assert_eq!(
                s.attempts,
                s.successes + s.timeouts + s.unavailable + s.aborted,
                "{} not fully classified: {:?}",
                label,
                (s.attempts, s.successes, s.timeouts, s.unavailable, s.aborted)
            );
        }
        prop_assert_eq!(
            r.metrics.forced_aborts,
            r.metrics.reads.aborted + r.metrics.writes.aborted
        );
        // Commits are attributed to items exactly once.
        prop_assert_eq!(
            r.item_commits.iter().sum::<u64>(),
            r.metrics.reads.successes + r.metrics.writes.successes
        );
        let r2 = run_sharded(&c, 2);
        prop_assert_eq!(r.digest(), r2.digest(), "thread count changed the result");
    }

    /// Every item's schedule conforms to the serial system under any plan.
    #[test]
    fn per_item_schedules_conform(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        theta_centi in 0u32..120,
    ) {
        let c = config(&events, seed, 6, 3, theta_centi);
        let (report, traces) = run_sharded_traces(&c, 2);
        prop_assert_eq!(
            report.metrics.lemma_violations, 0,
            "violations: {:?}", report.metrics.violations
        );
        for (g, trace) in traces.iter().enumerate() {
            let conf = check_trace(trace, &*c.quorum).map_err(|d| {
                TestCaseError::fail(format!("item {g} diverged: {d}"))
            })?;
            prop_assert_eq!(conf.committed as u64, report.item_commits[g], "item {}", g);
            prop_assert_eq!(conf.max_vn, report.item_vns[g], "item {}", g);
        }
    }
}

/// The report and one schedule trace per item.
fn run_sharded_traces(c: &MultiConfig, threads: usize) -> (ShardReport, Vec<ScheduleTrace>) {
    let mut traces = Traces::new(&*c.quorum, c.seed, c.items);
    let (report, _) = run_sharded_with(c, threads, &mut traces);
    (report, traces.into_traces())
}
