//! Property wall for the nested-transaction workload harness: under *any*
//! generated combination of program shape (banking / inventory / random
//! trees with doomed subtrees), fault plan (crashes, recoveries, forced
//! aborts, drop and delay windows), quorum system (Majority / ROWA, static
//! or dynamic), and thread count (1–3), every run must
//!
//! * keep the Lemma 7/8 runtime monitors green (zero violations),
//! * produce a committed projection that replays serially in commit order
//!   (Theorem 11, sibling aborts included), and
//! * replay every per-item schedule through the Theorem 10 conformance
//!   check on traced runs,
//!
//! with the report digest pinned equal across thread counts for every
//! generated case.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

use std::sync::Arc;

use nested_txn::{BankingGen, InventoryGen, RandomTreeGen, WorkloadKind};
use proptest::prelude::*;
use qc_sim::{
    check_commit_order_serializable, check_trace, run_txn, run_txn_committed, run_txn_with,
    FaultPlan, ReconfigPolicy, ReconfigTarget, RetryPolicy, ScheduleTrace, SimTime, Traces,
    TxnConfig, TxnReport,
};
use quorum::{Majority, QuorumSpec, Rowa};

/// Raw material for one generated fault event:
/// `(kind, at_ms, index, duration_ms, strength)`.
type RawEvent = (u8, u64, usize, u64, u32);

const SITES: usize = 3;
const DURATION_MS: u64 = 400;

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
            (1u64..200, 0u32..=600),
        ),
        0..8,
    )
    .prop_map(|evs| {
        evs.into_iter()
            .map(|(k, at, idx, (dur, strength))| (k, at, idx, dur, strength))
            .collect()
    })
}

fn workload(kind: u8, size: u8) -> WorkloadKind {
    match kind % 3 {
        0 => WorkloadKind::Banking(BankingGen::new(2 + u32::from(size % 3))),
        1 => WorkloadKind::Inventory(InventoryGen::new(2 + u32::from(size % 2))),
        _ => WorkloadKind::Random(RandomTreeGen::new(2 + u32::from(size % 3))),
    }
}

#[allow(clippy::too_many_arguments)]
fn config(
    events: &[RawEvent],
    seed: u64,
    kind: u8,
    size: u8,
    domains: usize,
    cpd: usize,
    rowa: bool,
) -> TxnConfig {
    let quorum: Arc<dyn QuorumSpec + Send + Sync> = if rowa {
        Arc::new(Rowa::new(SITES))
    } else {
        Arc::new(Majority::new(SITES))
    };
    let mut c = TxnConfig::new(quorum, workload(kind, size));
    c.domains = domains;
    c.clients_per_domain = cpd;
    // Every domain owns exactly the slots the workload addresses.
    c.items = c.workload.slots() as usize * domains;
    c.duration = SimTime::from_millis(DURATION_MS);
    c.seed = seed;
    c.faults = build_plan(events, c.clients());
    c.retry = RetryPolicy::retries(2, SimTime::from_millis(3));
    c
}

proptest! {
    /// Safety (lemma monitors + Theorem 11) and thread-count invariance
    /// under arbitrary programs, plans, and quorum systems.
    #[test]
    fn txn_runs_are_safe_serializable_and_thread_invariant(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        kind in 0u8..3,
        size in 0u8..6,
        domains in 1usize..4,
        cpd in 1usize..4,
        rowa_raw in 0u8..2,
        threads in 1usize..4,
    ) {
        let rowa = rowa_raw == 1;
        let c = config(&events, seed, kind, size, domains, cpd, rowa);
        let (report, commits) = run_txn_committed(&c, 1);
        prop_assert_eq!(
            report.stats.lemma_violations, 0,
            "violations: {:?}", report.stats.violations
        );
        prop_assert_eq!(commits.len() as u64, report.stats.txns_committed);
        check_commit_order_serializable(&|_| 0, &commits).map_err(|e| {
            TestCaseError::fail(format!("Theorem 11 replay failed: {e}"))
        })?;
        // Every started transaction is classified exactly once once the
        // in-flight tail at cutoff is set aside.
        prop_assert!(
            report.stats.txns_committed + report.stats.txns_aborted
                <= report.stats.txns_started
        );
        prop_assert!(report.stats.forced_aborts + report.stats.lock_timeouts
            <= report.stats.txns_aborted + report.stats.subtree_aborts);
        let r2 = run_txn(&c, threads);
        prop_assert_eq!(report.digest(), r2.digest(), "thread count changed the result");
    }

    /// Every item's schedule conforms to the serial single-copy object
    /// (Theorem 10), and tracing is observational — under static quorums
    /// and under dynamic ones (scripted, idle or with one `reconfig@` to
    /// the live sites), where every access also reads the configuration
    /// and so needs a configuration read quorum even under ROWA.
    #[test]
    fn per_item_txn_schedules_conform(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        kind in 0u8..3,
        size in 0u8..6,
        rowa_raw in 0u8..2,
        policy in 0u8..3,
        reconfig_ms in 0u64..DURATION_MS,
    ) {
        let rowa = rowa_raw == 1;
        let mut c = config(&events, seed, kind, size, 2, 2, rowa);
        if policy > 0 {
            c.reconfig = ReconfigPolicy::scripted_only();
        }
        if policy > 1 {
            let at = SimTime::from_millis(reconfig_ms);
            c.faults = c.faults.reconfig_at(at, ReconfigTarget::Live);
        }
        let plain = run_txn(&c, 1);
        let (report, traces) = run_txn_traces(&c, 2);
        prop_assert_eq!(plain.digest(), report.digest(), "tracing perturbed the run");
        prop_assert_eq!(
            report.stats.lemma_violations, 0,
            "violations: {:?}", report.stats.violations
        );
        // The checker also counts each item's committed reconfigure TMs,
        // which the report's per-item tally leaves out.
        let mut reconfig_tms = 0;
        for (g, trace) in traces.iter().enumerate() {
            let conf = check_trace(trace, &*c.quorum).map_err(|d| {
                TestCaseError::fail(format!("item {g} diverged: {d}"))
            })?;
            prop_assert!(conf.committed as u64 >= report.item_commits[g], "item {}", g);
            reconfig_tms += conf.committed as u64 - report.item_commits[g];
            prop_assert_eq!(conf.max_vn, report.item_vns[g], "item {}", g);
        }
        prop_assert_eq!(reconfig_tms, report.stats.reconfigurations);
    }
}

/// The report and one schedule trace per item.
fn run_txn_traces(c: &TxnConfig, threads: usize) -> (TxnReport, Vec<ScheduleTrace>) {
    let mut traces = Traces::new(&*c.quorum, c.seed, c.items);
    let report = run_txn_with(c, threads, &mut traces);
    (report, traces.into_traces())
}
