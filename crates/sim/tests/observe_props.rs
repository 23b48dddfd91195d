//! Recording is pure observation, as one property over observers.
//!
//! Configurations of all three drivers are drawn from the configuration
//! fuzz's generators (`fields`), plus routed elastic runs that migrate
//! items between shards. Each runs unobserved (`()`), under each shipped
//! observer alone, and under all four composed — as a 4-tuple at 2 threads
//! and as nested pairs in reverse order at 1 thread, so every observer sits
//! behind another in one of the two. Then:
//!
//! - the report digest is the same under every observer;
//! - each observer records the same alone and composed;
//! - each observer records the same at 1 and at 2 threads.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

use std::fmt::Write as _;
use std::sync::Arc;

use proptest::prelude::*;
use qc_obs::{Fnv1a, FNV_PRIME};
use qc_sim::{
    check_trace, run_sharded_with, run_txn_with, run_with, trace_to_json, CausalOptions,
    CausalRecorder, CommitLog, ElasticPolicy, FaultPlan, MultiConfig, ObsOptions, ObsRecorder,
    Observe, PlacementPolicy, ReconfigPolicy, ScheduleTrace, SeedPlacement, SimConfig, SimTime,
    Traces, TxnConfig, Workload,
};
use quorum::{Majority, QuorumSpec};

mod fields;
use fields::{buildable, event_text, Fields};

/// A drawn configuration runs this long.
const RUN: SimTime = SimTime(20_000);

/// A driver, run under any observer; the digest of its report.
trait Driver {
    fn go<O: Observe>(&self, threads: usize, obs: &mut O) -> u64;
    fn quorum(&self) -> &dyn QuorumSpec;
    fn seed_items(&self) -> (u64, usize);
}

impl Driver for SimConfig {
    fn go<O: Observe>(&self, _threads: usize, obs: &mut O) -> u64 {
        run_with(self.clone(), obs).digest()
    }

    fn quorum(&self) -> &dyn QuorumSpec {
        &*self.quorum
    }

    fn seed_items(&self) -> (u64, usize) {
        (self.seed, 1)
    }
}

impl Driver for MultiConfig {
    fn go<O: Observe>(&self, threads: usize, obs: &mut O) -> u64 {
        let (report, placement) = run_sharded_with(self, threads, obs);
        report.digest() ^ placement.digest().rotate_left(1)
    }

    fn quorum(&self) -> &dyn QuorumSpec {
        &*self.quorum
    }

    fn seed_items(&self) -> (u64, usize) {
        (self.seed, self.items)
    }
}

impl Driver for TxnConfig {
    fn go<O: Observe>(&self, threads: usize, obs: &mut O) -> u64 {
        run_txn_with(self, threads, obs).digest()
    }

    fn quorum(&self) -> &dyn QuorumSpec {
        &*self.quorum
    }

    fn seed_items(&self) -> (u64, usize) {
        (self.seed, self.items)
    }
}

/// The four shipped observers.
type All = (Traces, ObsRecorder, CausalRecorder, CommitLog);

fn fresh(d: &impl Driver) -> All {
    let (seed, items) = d.seed_items();
    let mut obs = ObsOptions::full();
    obs.causal = CausalOptions::full();
    obs.snapshot_every_us = Some(5_000);
    let causal = CausalRecorder::new(CausalOptions::full());
    (
        Traces::new(d.quorum(), seed, items),
        ObsRecorder::new(obs),
        causal,
        CommitLog::new(),
    )
}

/// What each observer recorded, as digests: the FNV of every trace's JSON,
/// the `ObsReport` and `CausalReport` digests, and the FNV of the commit
/// log's rendering; and the traces.
fn recorded((traces, obs, causal, log): All) -> ([u64; 4], Vec<ScheduleTrace>) {
    let traces = traces.into_traces();
    let mut h = Fnv1a::new(FNV_PRIME);
    for t in &traces {
        h.update(trace_to_json(t).as_bytes());
    }
    let mut l = Fnv1a::new(FNV_PRIME);
    write!(l, "{log:?}").expect("hashing cannot fail");
    let digests = [
        h.finish(),
        obs.into_report().digest(),
        causal.into_report().digest(),
    ];
    ([digests[0], digests[1], digests[2], l.finish()], traces)
}

/// The property, at `threads` for the 4-tuple; the traces recorded alone.
fn observe_purely(d: &impl Driver, threads: usize) -> Result<Vec<ScheduleTrace>, TestCaseError> {
    let plain = d.go(1, &mut ());
    let (mut t, mut o, mut c, mut l) = fresh(d);
    for digest in [
        d.go(1, &mut t),
        d.go(1, &mut o),
        d.go(1, &mut c),
        d.go(1, &mut l),
    ] {
        prop_assert_eq!(digest, plain, "an observer changed the run");
    }
    let (alone, traces) = recorded((t, o, c, l));
    let mut tuple = fresh(d);
    prop_assert_eq!(
        d.go(threads, &mut tuple),
        plain,
        "the tuple changed the run"
    );
    prop_assert_eq!(
        recorded(tuple).0,
        alone,
        "composed at {} threads vs alone at 1",
        threads
    );
    let (t, o, c, l) = fresh(d);
    let mut pairs = ((l, c), (o, t));
    prop_assert_eq!(d.go(1, &mut pairs), plain, "the pairs changed the run");
    let ((l, c), (o, t)) = pairs;
    prop_assert_eq!(
        recorded((t, o, c, l)).0,
        alone,
        "composed in reverse vs alone"
    );
    Ok(traces)
}

/// A routed elastic run over 12 items on 3 shards whose scripted
/// `migrate@` events move items between shards.
fn migrating(seed: u64, moves: &[(u64, usize, usize)]) -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    c.items = 12;
    c.shards = 3;
    c.read_fraction = 0.5;
    c.workload = Workload::Routed {
        interarrival: SimTime(300),
    };
    c.duration = SimTime::from_millis(60);
    c.seed = seed;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        seed: SeedPlacement::RoundRobin,
        epoch: SimTime::from_millis(20),
        ..ElasticPolicy::new()
    });
    let mut plan = FaultPlan::new().crash_at(SimTime::from_millis(25), seed as usize % 3);
    for &(at_ms, item, to) in moves {
        plan = plan.migrate_at(SimTime::from_millis(at_ms), item % 12, to % 3);
    }
    c.faults = plan;
    c
}

proptest! {
    /// Drawn configurations of the three drivers: what the fuzz accepts
    /// and can build runs 20 simulated milliseconds under every arm.
    #[test]
    fn observers_record_the_same_run_alone_composed_and_threaded(
        picks in prop::collection::vec(0usize..60, 120),
        events in prop::collection::vec(event_text(), 0..3),
    ) {
        let faults = FaultPlan::parse(&events.join(";")).unwrap_or_else(|_| FaultPlan::new());
        let mut fields = Fields(picks.iter());
        let sim = SimConfig { duration: RUN, ..fields.sim(faults.clone()) };
        if sim.validate().is_ok() && buildable(&[sim.clients]) {
            observe_purely(&sim, 1)?;
        }
        let mut multi = MultiConfig { duration: RUN, ..fields.multi(faults.clone()) };
        if let PlacementPolicy::Elastic(pol) = &mut multi.placement {
            // Keep the barrier count of a 20 ms run small.
            pol.epoch = pol.epoch.max(SimTime(500));
        }
        let counts = [multi.items, multi.shards, multi.clients_per_shard];
        if multi.validate().is_ok() && buildable(&counts) {
            observe_purely(&multi, 2)?;
        }
        let txn = TxnConfig { duration: RUN, ..fields.txn(faults) };
        if txn.validate().is_ok() && buildable(&[txn.items, txn.domains, txn.clients_per_domain]) {
            observe_purely(&txn, 2)?;
        }
    }

    /// Migrations hand each item's trace from shard to shard: the spliced
    /// traces are the same under every arm and pass the Theorem 10 checker.
    #[test]
    fn traces_follow_migrating_items(
        seed in 0u64..1_000_000,
        moves in prop::collection::vec((1u64..60, 0usize..12, 0usize..3), 1..8),
    ) {
        let c = migrating(seed, &moves);
        for (g, t) in observe_purely(&c, 2)?.iter().enumerate() {
            let verdict = check_trace(t, &*c.quorum);
            prop_assert!(verdict.is_ok(), "item {}: {:?}", g, verdict);
        }
    }
}
