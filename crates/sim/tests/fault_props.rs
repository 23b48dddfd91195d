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

use nested_txn::{BankingGen, InventoryGen, RandomTreeGen, WorkloadKind};
use proptest::prelude::*;
use qc_sim::{
    run, run_sharded, run_txn, ContactPolicy, ElasticPolicy, FaultPlan, ItemDist, LatencyModel,
    Metrics, MultiConfig, PlacementPolicy, ReconfigPolicy, RetryPolicy, SeedPlacement, SimConfig,
    SimTime, TxnConfig, Workload, MAX_EPOCH_BARRIERS,
};
use quorum::{Majority, QuorumSpec, Rowa};

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

/// Event shapes, `#` standing for a word: every verb of the plan grammar
/// with its arity, and a few shapes the grammar does not know.
const SHAPES: &[&str] = &[
    "crash@#:#",
    "recover@#:#",
    "abort@#:#",
    "corrupt@#:#,#,#",
    "drop@#:#,#",
    "delay@#:#,#",
    "reconfig@#:live",
    "reconfig@#:#+#",
    "migrate@#:#->#",
    "burn@#:#",
    "crash@#:#,#",
    "drop@#",
    "#",
];

/// Words for the `#`s: in range, at and past the edges of what the grammar
/// accepts, and not numbers at all.
const WORDS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "42",
    "1000",
    "1.5",
    "0.001",
    " 7 ",
    "+7",
    "2.0005",
    "18446744073709551",
    "18446744073709551615",
    "18446744073709551616",
    "live",
    "",
];

/// Noise spliced into an event (a third of the time): the grammar's
/// punctuation out of place, whitespace, or characters it never uses.
const NOISE: &[&str] = &[
    " ", "\t", "@", ":", ";", ",", "+", "-", ">", ".", "x", "é", "\u{0}",
];

/// One event of the plan grammar, often well formed: a shape with its
/// `#`s filled from [`WORDS`] and, a third of the time, a noise token
/// spliced in anywhere.
fn event_text() -> impl Strategy<Value = String> {
    (
        0..SHAPES.len(),
        prop::collection::vec(0..WORDS.len(), 4),
        0usize..64,
        0..NOISE.len() * 3,
    )
        .prop_map(|(shape, words, at, noise)| {
            let mut words = words.into_iter().map(|i| WORDS[i]);
            let mut text: String = SHAPES[shape]
                .split_inclusive('#')
                .map(|part| match part.strip_suffix('#') {
                    Some(head) => format!("{head}{}", words.next().unwrap_or("")),
                    None => part.to_string(),
                })
                .collect();
            // Every shape and word is ASCII, so any position is a char boundary.
            text.insert_str(at % (text.len() + 1), NOISE.get(noise).copied().unwrap_or(""));
            text
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
    prop_assert_eq!(m.lemma_violations, 0, "lemma violations: {:?}", m.violations);
    for (label, s) in [("reads", &m.reads), ("writes", &m.writes)] {
        prop_assert_eq!(
            s.attempts,
            s.successes + s.timeouts + s.unavailable + s.aborted,
            "{} not fully classified: {:?}",
            label,
            (s.attempts, s.successes, s.timeouts, s.unavailable, s.aborted)
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

/// One configuration field after another, each drawn by the next pick:
/// a number from {0, 1, small, MAX/2, MAX} of its type, or one of a few
/// variants.
struct Fields<'a>(std::slice::Iter<'a, usize>);

impl Fields<'_> {
    fn pick(&mut self) -> usize {
        self.0.next().copied().expect("enough picks for every field")
    }

    /// Which of {0, 1, small, MAX/2, MAX}: each edge one pick in twelve,
    /// so that a fair share of whole configurations is runnable.
    fn edge(&mut self) -> usize {
        match self.pick() % 12 {
            0 => 0,
            1 => 1,
            2 => 3,
            3 => 4,
            _ => 2,
        }
    }

    fn u64(&mut self, small: u64) -> u64 {
        [0, 1, small, u64::MAX / 2, u64::MAX][self.edge()]
    }

    fn usize(&mut self, small: usize) -> usize {
        [0, 1, small, usize::MAX / 2, usize::MAX][self.edge()]
    }

    fn u32(&mut self, small: u32) -> u32 {
        [0, 1, small, u32::MAX / 2, u32::MAX][self.edge()]
    }

    fn time(&mut self, small_us: u64) -> SimTime {
        SimTime(self.u64(small_us))
    }

    /// A read fraction, or a probability parameter that is none.
    fn fraction(&mut self) -> f64 {
        [0.0, 0.5, 1.0, f64::NAN, -1.0, 2.0][self.pick() % 6]
    }

    /// A latency model; a uniform one's bounds are drawn apart, so a range
    /// may be empty (`lo > hi`), always zero, or reach past every knob.
    fn latency(&mut self) -> LatencyModel {
        match self.pick() % 4 {
            0 => LatencyModel::lan(),
            1 => LatencyModel::wan(),
            2 => LatencyModel::Uniform {
                lo: self.time(200),
                hi: self.time(600),
            },
            _ => LatencyModel::Fixed(self.time(300)),
        }
    }

    fn retry(&mut self) -> RetryPolicy {
        RetryPolicy {
            attempts: self.u32(3),
            backoff: self.time(1_000),
            multiplier: self.u32(2),
            max_backoff: self.time(10_000),
        }
    }

    fn reconfig(&mut self) -> ReconfigPolicy {
        let base = match self.pick() % 3 {
            0 => ReconfigPolicy::off(),
            1 => ReconfigPolicy::scripted_only(),
            _ => ReconfigPolicy::reactive(),
        };
        ReconfigPolicy {
            poll: self.time(5_000),
            cooldown: self.time(5_000),
            min_members: self.usize(2),
            max_reconfigs: self.u32(4),
            ..base
        }
    }

    fn quorum(&mut self) -> Arc<dyn QuorumSpec + Send + Sync> {
        match self.pick() % 3 {
            0 => Arc::new(Majority::new(3)),
            1 => Arc::new(Majority::new(5)),
            _ => Arc::new(Rowa::new(2)),
        }
    }

    fn sim(&mut self, faults: FaultPlan) -> SimConfig {
        let mut c = SimConfig::new(self.quorum());
        c.latency = self.latency();
        c.contact = [ContactPolicy::AllLive, ContactPolicy::MinimalQuorum][self.pick() % 2];
        c.clients = self.usize(3);
        c.read_fraction = self.fraction();
        c.think_time = self.time(500);
        c.timeout = self.time(5_000);
        c.mttf = self.pick().is_multiple_of(2).then(|| self.time(10_000));
        c.mttr = self.time(5_000);
        c.duration = self.time(20_000);
        c.seed = self.u64(7);
        c.retry = self.retry();
        c.reconfig = self.reconfig();
        c.faults = faults;
        c
    }

    fn multi(&mut self, faults: FaultPlan) -> MultiConfig {
        let mut c = MultiConfig::new(self.quorum());
        c.latency = self.latency();
        c.items = self.usize(6);
        c.shards = self.usize(2);
        c.clients_per_shard = self.usize(2);
        c.read_fraction = self.fraction();
        c.dist = match self.pick() % 2 {
            0 => ItemDist::Uniform,
            _ => ItemDist::Zipfian { theta: self.fraction() },
        };
        let pace = self.time(500);
        c.workload = match self.pick() % 3 {
            0 => Workload::Closed { think: pace },
            1 => Workload::Open { interarrival: pace },
            _ => Workload::Routed { interarrival: pace },
        };
        c.timeout = self.time(5_000);
        // Long, so an elastic epoch can be tiny against it; the run is RUN.
        c.duration = self.time(300_000_000);
        c.seed = self.u64(7);
        c.retry = self.retry();
        c.reconfig = self.reconfig();
        c.placement = match self.pick() % 3 {
            0 => PlacementPolicy::Static,
            1 => PlacementPolicy::Seeded(SeedPlacement::Range),
            _ => {
                // A 1 µs epoch against the drawn 300 s is 3·10⁸ barriers.
                let small_epoch = [1, 5_000][self.pick() % 2];
                PlacementPolicy::Elastic(ElasticPolicy {
                    epoch: self.time(small_epoch),
                    max_moves_per_epoch: self.usize(2),
                    hot_ratio: 1.0 + self.fraction(),
                    min_epoch_commits: self.u64(1),
                    ..ElasticPolicy::new()
                })
            }
        };
        c.faults = faults;
        c
    }

    fn txn(&mut self, faults: FaultPlan) -> TxnConfig {
        let size = self.u32(4);
        let workload = match self.pick() % 3 {
            0 => WorkloadKind::Banking(BankingGen { accounts: size, ..BankingGen::new(4) }),
            1 => WorkloadKind::Inventory(InventoryGen { products: size, ..InventoryGen::new(4) }),
            _ => WorkloadKind::Random(RandomTreeGen { slots: size, ..RandomTreeGen::new(4) }),
        };
        let mut c = TxnConfig::new(self.quorum(), workload);
        c.latency = self.latency();
        c.items = self.usize(8);
        c.domains = self.usize(2);
        c.clients_per_domain = self.usize(2);
        c.think = self.time(500);
        c.timeout = self.time(5_000);
        c.lock_timeout = self.time(10_000);
        c.duration = self.time(20_000);
        c.seed = self.u64(7);
        c.retry = self.retry();
        c.reconfig = self.reconfig();
        c.faults = faults;
        c
    }
}

/// Whether a configuration's sizes are small enough to build: every count
/// of items, shards, domains and clients at most 64.
fn buildable(counts: &[usize]) -> bool {
    counts.iter().all(|&n| n <= 64)
}

const RUN: SimTime = SimTime(20_000);

proptest! {
    /// Every field of the three configurations from the edges of its type
    /// and a plan from the plan-text fuzz above: `validate` always returns,
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
