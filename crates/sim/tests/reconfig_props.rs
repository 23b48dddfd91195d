//! Property-based tests for dynamic quorums: under *any* generated fault
//! plan with scripted reconfigurations interleaved (plus the reactive
//! trigger), the simulator stays inside the paper's §4 contract:
//!
//! * the runtime lemma monitors stay green (Lemmas 7/8 over the current
//!   membership) and every attempt is classified exactly once;
//! * no operation commits against a superseded generation and generation
//!   numbers are monotone — asserted by replaying the recorded schedule
//!   through the generation-aware three-layer conformance checker, which
//!   rejects any stale commit with [`DivergenceKind::StaleGeneration`]
//!   and any install lacking an old-configuration write quorum;
//! * every stale rejection the metrics count appears in the schedule as
//!   an `ABORT(stale)`, and every reconfigure TM in the schedule is one
//!   the metrics counted.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

use std::sync::Arc;

use proptest::prelude::*;
use qc_sim::{
    check_trace, run_sharded_with, run_traced, AbortReason, FaultPlan, Metrics, MultiConfig,
    ReconfigPolicy, ReconfigTarget, RetryPolicy, ScheduleTrace, ShardReport, SimConfig, SimTime,
    TmKind, TraceAction, Traces,
};
use quorum::{Majority, QuorumSpec, ReplicaSet, Rowa};

/// Raw material for one generated fault event:
/// `(kind, at_ms, index, duration_ms, strength)`. Kinds 5 and 6 are
/// reconfigurations (to the live set / to an explicit member set drawn
/// from `index`'s low bits).
type RawEvent = (u8, u64, usize, u64, u32);

const CLIENTS: usize = 3;
const DURATION_MS: u64 = 1_500;

fn build_plan(events: &[RawEvent], sites: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(kind, at_ms, idx, dur_ms, strength) in events {
        let at = SimTime::from_millis(at_ms);
        let dur = SimTime::from_millis(dur_ms);
        plan = match kind {
            0 => plan.crash_at(at, idx % sites),
            1 => plan.recover_at(at, idx % sites),
            2 => plan.abort_at(at, idx % CLIENTS),
            3 => plan.drop_window(at, dur, strength.min(600)),
            4 => plan.delay_window(at, dur, SimTime::from_millis(u64::from(strength) % 4)),
            5 => plan.reconfig_at(at, ReconfigTarget::Live),
            _ => {
                // A non-empty member subset of 0..sites from the index's
                // low bits.
                let mask = (idx as u64 % (1 << sites)).max(1);
                let members: ReplicaSet = (0..sites).filter(|s| mask & (1 << s) != 0).collect();
                plan.reconfig_at(at, ReconfigTarget::Members(members))
            }
        };
    }
    plan
}

fn events_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    prop::collection::vec(
        (
            0u8..7,
            0u64..DURATION_MS,
            0usize..16,
            (1u64..400, 0u32..=600),
        ),
        0..12,
    )
    .prop_map(|evs| {
        evs.into_iter()
            .map(|(k, at, idx, (dur, strength))| (k, at, idx, dur, strength))
            .collect()
    })
}

fn config(
    quorum: Arc<dyn QuorumSpec + Send + Sync>,
    plan: FaultPlan,
    seed: u64,
    reactive: bool,
) -> SimConfig {
    let mut c = SimConfig::new(quorum);
    c.clients = CLIENTS;
    c.read_fraction = 0.5;
    c.duration = SimTime::from_millis(DURATION_MS);
    c.seed = seed;
    c.faults = plan;
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(3));
    c.record_history = true;
    c.reconfig = if reactive {
        ReconfigPolicy::reactive()
    } else {
        ReconfigPolicy::scripted_only()
    };
    c
}

/// The metrics side of the contract: monitors green, every attempt
/// classified exactly once, the committed history a single versioned
/// register.
fn assert_safe(m: &Metrics) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        m.lemma_violations,
        0,
        "lemma violations: {:?}",
        m.violations
    );
    for (label, s) in [("reads", &m.reads), ("writes", &m.writes)] {
        prop_assert_eq!(
            s.attempts,
            s.successes + s.timeouts + s.unavailable + s.aborted,
            "{} not fully classified: {:?}",
            label,
            (
                s.attempts,
                s.successes,
                s.timeouts,
                s.unavailable,
                s.aborted
            )
        );
    }
    let mut vn = 0u64;
    for rec in &m.history {
        if rec.read {
            prop_assert_eq!(rec.vn, vn, "read saw version {} at version {}", rec.vn, vn);
        } else {
            prop_assert_eq!(rec.vn, vn + 1, "write skipped from {} to {}", vn, rec.vn);
            vn = rec.vn;
        }
    }
    Ok(())
}

/// The schedule side: conformance (which enforces generation monotonicity
/// and rejects commits at superseded generations), stale-abort accounting,
/// and reconfigure-TM accounting.
fn assert_trace_conforms(
    m: &Metrics,
    trace: &ScheduleTrace,
    quorum: &dyn QuorumSpec,
) -> Result<(), TestCaseError> {
    let report = check_trace(trace, quorum)
        .map_err(|d| TestCaseError::fail(format!("trace diverged: {d}")))?;
    let stale_aborts = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.action,
                TraceAction::Abort {
                    reason: AbortReason::Stale,
                    ..
                }
            )
        })
        .count() as u64;
    prop_assert_eq!(stale_aborts, m.stale_rejections, "stale-abort accounting");
    let reconfig_tms = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.action,
                TraceAction::Create {
                    kind: TmKind::Reconfig
                }
            )
        })
        .count() as u64;
    prop_assert_eq!(
        reconfig_tms,
        m.reconfigurations,
        "reconfigure-TM accounting"
    );
    prop_assert_eq!(
        report.committed as u64,
        m.reads.successes + m.writes.successes + m.reconfigurations,
        "committed TMs tally with the metrics"
    );
    Ok(())
}

proptest! {
    /// Majority quorums stay safe and conformant under any plan with
    /// interleaved reconfigurations.
    #[test]
    fn majority_3_dynamic_is_safe_and_conformant(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        reactive in 0u8..2,
    ) {
        let quorum = Arc::new(Majority::new(3));
        let plan = build_plan(&events, 3);
        let (m, trace) = run_traced(config(quorum.clone(), plan, seed, reactive == 1));
        assert_safe(&m)?;
        assert_trace_conforms(&m, &trace, &*quorum)?;
    }

    /// ROWA — the family whose write availability dynamic quorums exist to
    /// rescue — under the same adversary.
    #[test]
    fn rowa_3_dynamic_is_safe_and_conformant(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        reactive in 0u8..2,
    ) {
        let quorum = Arc::new(Rowa::new(3));
        let plan = build_plan(&events, 3);
        let (m, trace) = run_traced(config(quorum.clone(), plan, seed, reactive == 1));
        assert_safe(&m)?;
        assert_trace_conforms(&m, &trace, &*quorum)?;
    }

    /// The sharded simulator under reconfiguring plans: per-item
    /// generation monotonicity via per-item conformance, and merged
    /// metrics classified exactly once.
    #[test]
    fn sharded_dynamic_items_conform(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        threads in 1usize..4,
    ) {
        let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
        c.items = 4;
        c.shards = 2;
        c.clients_per_shard = 2;
        c.duration = SimTime::from_millis(DURATION_MS);
        c.seed = seed;
        c.read_fraction = 0.5;
        c.reconfig = ReconfigPolicy::reactive();
        // Client aborts index the sharded run's 4 global clients.
        c.faults = build_plan(&events, 3);
        c.retry = RetryPolicy::retries(2, SimTime::from_millis(3));
        let (report, traces) = run_sharded_traces(&c, threads);
        prop_assert_eq!(
            report.metrics.lemma_violations,
            0,
            "violations: {:?}",
            report.metrics.violations
        );
        let mut stale = 0u64;
        let mut reconfigs = 0u64;
        for (g, trace) in traces.iter().enumerate() {
            check_trace(trace, &*c.quorum)
                .map_err(|d| TestCaseError::fail(format!("item {g} diverged: {d}")))?;
            stale += trace.events.iter().filter(|e| matches!(
                e.action,
                TraceAction::Abort { reason: AbortReason::Stale, .. }
            )).count() as u64;
            reconfigs += trace.events.iter().filter(|e| matches!(
                e.action,
                TraceAction::Create { kind: TmKind::Reconfig }
            )).count() as u64;
        }
        prop_assert_eq!(stale, report.metrics.stale_rejections);
        prop_assert_eq!(reconfigs, report.metrics.reconfigurations);
    }
}

/// The report and one schedule trace per item.
fn run_sharded_traces(c: &MultiConfig, threads: usize) -> (ShardReport, Vec<ScheduleTrace>) {
    let mut traces = Traces::new(&*c.quorum, c.seed, c.items);
    let (report, _) = run_sharded_with(c, threads, &mut traces);
    (report, traces.into_traces())
}
