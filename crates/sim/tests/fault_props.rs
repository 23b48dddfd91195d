//! Property-based tests: under *any* generated fault plan (crashes,
//! recoveries, forced aborts, drop windows, delay windows — everything in
//! the paper's failure model; corruption is excluded because it is the
//! deliberate out-of-model negative control), every operation either
//! commits with the runtime lemma monitors green or is reported as a
//! timeout / quorum-unavailable / aborted failure. Never a silent wrong
//! value.
//!
//! The configurations include the paper's Figure 1 example: item *x* on 3
//! replicas under majority quorums and item *y* on 2 replicas under
//! read-one/write-all.
//!
//! Outside input is fuzzed for no-panic too: plan text through
//! `FaultPlan::parse`, and every field of the three configurations through
//! their `validate`s and a short run of what they accept.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

use std::sync::Arc;

use proptest::prelude::*;
use qc_sim::{
    run, run_sharded, run_txn, ContactPolicy, FaultPlan, Metrics, MultiConfig, PlacementPolicy,
    RetryPolicy, SimConfig, SimTime, TxnConfig, MAX_EPOCH_BARRIERS, MAX_ITEMS,
};
use quorum::{Majority, QuorumSpec, Rowa};

mod fields;
use fields::{buildable, event_text, Fields};

/// Raw material for one generated fault event:
/// `(kind, at_ms, index, duration_ms, strength)`.
type RawEvent = (u8, u64, usize, u64, u32);

const CLIENTS: usize = 3;
const DURATION_MS: u64 = 1_500;

/// Instantiate raw generated events against a concrete site count (the
/// Figure-1 items have different replication degrees, so the same raw
/// material must adapt).
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
            (1u64..400, 0u32..=600),
        ),
        0..10,
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
    policy: ContactPolicy,
    attempts: u32,
) -> SimConfig {
    let mut c = SimConfig::new(quorum);
    c.contact = policy;
    c.clients = CLIENTS;
    c.read_fraction = 0.5;
    c.duration = SimTime::from_millis(DURATION_MS);
    c.seed = seed;
    c.faults = plan;
    c.retry = RetryPolicy::retries(attempts, SimTime::from_millis(3));
    c.record_history = true;
    c
}

/// The safety contract: monitors green, every attempt accounted for as
/// exactly one of success/timeout/unavailable/abort, and the committed
/// history reads like a single versioned register — reads return the
/// current version, writes advance it by one.
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
    prop_assert_eq!(m.forced_aborts, m.reads.aborted + m.writes.aborted);
    let mut vn = 0u64;
    let mut value = 0u64;
    for rec in &m.history {
        if rec.read {
            prop_assert_eq!(rec.vn, vn, "read saw version {} at version {}", rec.vn, vn);
            prop_assert_eq!(rec.value, value, "read returned a wrong value");
        } else {
            prop_assert_eq!(rec.vn, vn + 1, "write skipped from {} to {}", vn, rec.vn);
            vn = rec.vn;
            value = rec.value;
        }
    }
    Ok(())
}

proptest! {
    /// Figure 1, item x: 3 replicas under majority quorums.
    #[test]
    fn majority_3_is_safe_under_any_plan(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        policy_bit in 0u8..2,
        attempts in 1u32..4,
    ) {
        let policy = if policy_bit == 0 {
            ContactPolicy::AllLive
        } else {
            ContactPolicy::MinimalQuorum
        };
        let plan = build_plan(&events, 3);
        let m = run(config(Arc::new(Majority::new(3)), plan, seed, policy, attempts));
        assert_safe(&m)?;
    }

    /// Figure 1, item y: 2 replicas under read-one/write-all.
    #[test]
    fn rowa_2_is_safe_under_any_plan(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        policy_bit in 0u8..2,
        attempts in 1u32..4,
    ) {
        let policy = if policy_bit == 0 {
            ContactPolicy::AllLive
        } else {
            ContactPolicy::MinimalQuorum
        };
        let plan = build_plan(&events, 2);
        let m = run(config(Arc::new(Rowa::new(2)), plan, seed, policy, attempts));
        assert_safe(&m)?;
    }

    /// Stochastic failures layered on top of a plan keep the same contract.
    #[test]
    fn plans_compose_with_stochastic_failures(
        events in events_strategy(),
        seed in 0u64..1_000_000,
        mttf_ms in 200u64..2_000,
    ) {
        let mut c = config(
            Arc::new(Majority::new(3)),
            build_plan(&events, 3),
            seed,
            ContactPolicy::AllLive,
            2,
        );
        c.mttf = Some(SimTime::from_millis(mttf_ms));
        c.mttr = SimTime::from_millis(300);
        let m = run(c);
        assert_safe(&m)?;
    }

    /// Fault plans round-trip through their text form, and the same
    /// (config, seed, plan) triple is bit-reproducible even when the plan
    /// took the parse path.
    #[test]
    fn parsed_plans_reproduce_runs(events in events_strategy(), seed in 0u64..1_000_000) {
        let plan = build_plan(&events, 3);
        let text = plan.to_string();
        let reparsed = FaultPlan::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}")))?;
        prop_assert_eq!(&plan, &reparsed);
        let a = run(config(Arc::new(Majority::new(3)), plan, seed, ContactPolicy::AllLive, 2));
        let b = run(config(Arc::new(Majority::new(3)), reparsed, seed, ContactPolicy::AllLive, 2));
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Plan text from outside is an `Ok` plan or an `Err`, never a panic,
    /// and every plan that parses prints to text that parses back to it.
    #[test]
    fn any_plan_text_parses_or_errs_and_round_trips(
        events in prop::collection::vec(event_text(), 0..4),
        joiner in 0usize..3,
    ) {
        let text = events.join(["; ", ";", " ;\n"][joiner]);
        if let Ok(plan) = FaultPlan::parse(&text) {
            let printed = plan.to_string();
            prop_assert_eq!(FaultPlan::parse(&printed), Ok(plan), "{:?} printed as {:?}", text, printed);
        }
    }
}

const RUN: SimTime = SimTime(20_000);

proptest! {
    /// Every field of the three configurations — a nested configuration's
    /// program generator included — from the edges of its type and a plan from the plan-text fuzz above: `validate` always returns,
    /// and a configuration it accepts that is small enough to build runs
    /// 20 simulated milliseconds without a panic. The run is shorter than
    /// the drawn duration, so what the drawn duration costs an elastic run
    /// (one barrier per epoch) is checked on the accepted configuration.
    #[test]
    fn any_config_validates_or_errs_and_ok_configs_run(
        picks in prop::collection::vec(0usize..60, 120),
        events in prop::collection::vec(event_text(), 0..3),
    ) {
        let faults = FaultPlan::parse(&events.join(";")).unwrap_or_else(|_| FaultPlan::new());
        let mut fields = Fields(picks.iter());
        let sim = fields.sim(faults.clone());
        if sim.validate().is_ok() && buildable(&[sim.clients]) {
            run(SimConfig { duration: RUN, ..sim });
        }
        let multi = fields.multi(faults.clone());
        let counts = [multi.items, multi.shards, multi.clients_per_shard];
        if multi.validate().is_ok() {
            prop_assert!(multi.items <= MAX_ITEMS, "{} items accepted", multi.items);
        }
        if let (Ok(()), PlacementPolicy::Elastic(pol)) = (multi.validate(), &multi.placement) {
            let barriers = multi.duration.0 / pol.epoch.0;
            prop_assert!(barriers <= MAX_EPOCH_BARRIERS, "{} barriers accepted", barriers);
        }
        if multi.validate().is_ok() && buildable(&counts) {
            let _ = run_sharded(&MultiConfig { duration: RUN, ..multi }, 1);
        }
        let txn = fields.txn(faults);
        if txn.validate().is_ok() && buildable(&[txn.items, txn.domains, txn.clients_per_domain]) {
            let _ = run_txn(&TxnConfig { duration: RUN, ..txn }, 1);
        }
    }
}
