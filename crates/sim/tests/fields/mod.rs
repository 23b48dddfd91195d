//! Generators shared by the property suites: plan text from the fault-plan
//! grammar (often well formed, sometimes not) and every field of the three
//! driver configurations from the edges of its type.

use std::sync::Arc;

use nested_txn::{BankingGen, InventoryGen, RandomTreeGen, WorkloadKind};
use proptest::prelude::*;
use qc_sim::{
    ContactPolicy, ElasticPolicy, FaultPlan, ItemDist, LatencyModel, MultiConfig, PlacementPolicy,
    ReconfigPolicy, RetryPolicy, SeedPlacement, SimConfig, SimTime, TxnConfig, Workload, MAX_ITEMS,
};
use quorum::{Majority, QuorumSpec, Rowa};

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
pub fn event_text() -> impl Strategy<Value = String> {
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
            text.insert_str(
                at % (text.len() + 1),
                NOISE.get(noise).copied().unwrap_or(""),
            );
            text
        })
}

/// One configuration field after another, each drawn by the next pick:
/// a number from {0, 1, small, MAX/2, MAX} of its type, or one of a few
/// variants.
pub struct Fields<'a>(pub std::slice::Iter<'a, usize>);

impl Fields<'_> {
    fn pick(&mut self) -> usize {
        self.0
            .next()
            .copied()
            .expect("enough picks for every field")
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

    /// A sharded keyspace: as a count, or on either side of
    /// [`MAX_ITEMS`].
    fn items(&mut self) -> usize {
        match self.pick() % 12 {
            0 | 1 => self.usize(6),
            2 => MAX_ITEMS,
            3 => MAX_ITEMS + 1,
            _ => 6,
        }
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

    pub fn sim(&mut self, faults: FaultPlan) -> SimConfig {
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

    pub fn multi(&mut self, faults: FaultPlan) -> MultiConfig {
        let mut c = MultiConfig::new(self.quorum());
        c.latency = self.latency();
        c.items = self.items();
        c.shards = self.usize(2);
        c.clients_per_shard = self.usize(2);
        c.read_fraction = self.fraction();
        c.dist = match self.pick() % 2 {
            0 => ItemDist::Uniform,
            _ => ItemDist::Zipfian {
                theta: self.fraction(),
            },
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

    pub fn txn(&mut self, faults: FaultPlan) -> TxnConfig {
        let size = self.u32(4);
        let workload = match self.pick() % 3 {
            0 => WorkloadKind::Banking(BankingGen {
                accounts: size,
                doomed_permille: self.u32(125),
            }),
            1 => WorkloadKind::Inventory(InventoryGen {
                products: size,
                check_permille: self.u32(600),
                doomed_permille: self.u32(100),
            }),
            _ => WorkloadKind::Random(RandomTreeGen {
                slots: size,
                max_depth: self.u32(4),
                max_fanout: self.u32(3),
                write_permille: self.u32(400),
                read_only_permille: self.u32(200),
                doom_permille: self.u32(100),
                parallel_permille: self.u32(500),
            }),
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
pub fn buildable(counts: &[usize]) -> bool {
    counts.iter().all(|&n| n <= 64)
}
