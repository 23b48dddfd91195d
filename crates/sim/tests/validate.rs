//! One check list under three `validate`s: every configuration mistake the
//! protocol core rejects is an `Err` naming it — in the same words from
//! `SimConfig`, `MultiConfig` and `TxnConfig` — and never a panic inside a
//! run.

use std::sync::Arc;

use nested_txn::{BankingGen, InventoryGen, RandomTreeGen, WorkloadKind};
use qc_sim::{
    run, run_sharded, run_txn, ElasticPolicy, FaultPlan, ItemDist, LatencyModel, MultiConfig,
    PlacementPolicy, ReconfigPolicy, ReconfigTarget, SimConfig, SimTime, Simulation, TxnConfig,
    MAX_EPOCH_BARRIERS, MAX_ITEMS,
};
use quorum::{Majority, QuorumSpec, Weighted};

/// One runnable configuration of each driver, broken the same way.
struct Three {
    sim: SimConfig,
    multi: MultiConfig,
    txn: TxnConfig,
}

impl Three {
    fn new() -> Self {
        let quorum = || Arc::new(Majority::new(3));
        Three {
            sim: SimConfig::new(quorum()),
            multi: MultiConfig::new(quorum()),
            txn: TxnConfig::new(quorum(), WorkloadKind::Banking(BankingGen::new(4))),
        }
    }

    fn quorum(&mut self, quorum: Arc<dyn QuorumSpec + Send + Sync>) {
        (self.sim.quorum, self.multi.quorum, self.txn.quorum) =
            (quorum.clone(), quorum.clone(), quorum);
    }

    fn faults(&mut self, plan: FaultPlan) {
        (self.sim.faults, self.multi.faults, self.txn.faults) = (plan.clone(), plan.clone(), plan);
    }

    fn reconfig(&mut self, policy: ReconfigPolicy) {
        (self.sim.reconfig, self.multi.reconfig, self.txn.reconfig) = (policy, policy, policy);
    }

    /// The flat drivers only: a nested program fixes its own read share.
    fn read_fraction(&mut self, f: f64) {
        (self.sim.read_fraction, self.multi.read_fraction) = (f, f);
    }

    fn verdicts(&self) -> [(&'static str, Result<(), String>); 3] {
        [
            ("SimConfig", self.sim.validate()),
            ("MultiConfig", self.multi.validate()),
            ("TxnConfig", self.txn.validate()),
        ]
    }
}

#[test]
fn the_three_configs_reject_the_same_mistakes_in_the_same_words() {
    const AT: SimTime = SimTime(1_000);
    const MAX: SimTime = SimTime(u64::MAX);
    // The mistake, how to make it, what the error must say, and how many of
    // the three configurations can make it.
    type Row = (&'static str, fn(&mut Three), &'static str, usize);
    let table: [Row; 14] = [
        (
            "dynamic quorums over a system with no resizable family",
            |t| {
                t.quorum(Arc::new(Weighted::new(vec![2, 1, 1], 3, 2)));
                t.reconfig(ReconfigPolicy::scripted_only());
            },
            "ROWA or majority",
            3,
        ),
        (
            "a scripted reconfig@ with the policy off",
            |t| t.faults(FaultPlan::new().reconfig_at(AT, ReconfigTarget::Live)),
            "reconfig events",
            3,
        ),
        (
            "a migrate@ with nowhere to migrate",
            |t| t.faults(FaultPlan::new().migrate_at(AT, 0, 0)),
            "migrate events",
            3,
        ),
        (
            "a crash@ of a site that does not exist",
            |t| t.faults(FaultPlan::new().crash_at(AT, 3)),
            "references site 3",
            3,
        ),
        (
            "an abort@ of a client that does not exist",
            |t| t.faults(FaultPlan::new().abort_at(AT, 1_000)),
            "references client 1000",
            3,
        ),
        (
            "a reconfig@ to no members at all",
            |t| {
                t.reconfig(ReconfigPolicy::scripted_only());
                let nobody = ReconfigTarget::Members(std::iter::empty::<usize>().collect());
                t.faults(FaultPlan::new().reconfig_at(AT, nobody));
            },
            "empty member set",
            3,
        ),
        (
            "a delay@ whose extra overflows the phase's round-trip sum",
            |t| t.faults(FaultPlan::parse("delay@0:1000,18446744073709551").unwrap()),
            "the most a window may add",
            3,
        ),
        (
            "a drop@ whose end is past the last instant",
            |t| t.faults(FaultPlan::parse("drop@1:18446744073709551,5").unwrap()),
            "ends past the last simulated instant",
            3,
        ),
        (
            "a timeout past the longest span a knob may hold",
            |t| (t.sim.timeout, t.multi.timeout, t.txn.timeout) = (MAX, MAX, MAX),
            "timeout must be at most",
            3,
        ),
        (
            "a latency that is always zero",
            |t| {
                let zero = LatencyModel::Fixed(SimTime::ZERO);
                (t.sim.latency, t.multi.latency, t.txn.latency) = (zero, zero, zero);
            },
            "latency must be able to exceed zero",
            3,
        ),
        (
            "a reactive trigger that polls at one instant",
            |t| {
                t.reconfig(ReconfigPolicy {
                    poll: SimTime::ZERO,
                    ..ReconfigPolicy::reactive()
                });
            },
            "reconfig.poll must be in",
            2,
        ),
        (
            "a read fraction above one",
            |t| t.read_fraction(1.5),
            "read_fraction",
            2,
        ),
        (
            "a negative read fraction",
            |t| t.read_fraction(-0.25),
            "read_fraction",
            2,
        ),
        (
            "a NaN read fraction",
            |t| t.read_fraction(f64::NAN),
            "read_fraction",
            2,
        ),
    ];
    for (config, verdict) in Three::new().verdicts() {
        assert_eq!(verdict, Ok(()), "{config}: the default must be runnable");
    }
    for (what, breakage, says, makers) in table {
        let mut three = Three::new();
        breakage(&mut three);
        let mut wording: Option<String> = None;
        for (config, verdict) in three.verdicts().into_iter().take(makers) {
            let err = verdict.expect_err(&format!("{config} accepted {what}"));
            assert!(
                err.contains(says),
                "{config} on {what}: {err:?} does not say {says:?}"
            );
            // The client count differs between the configs, and with it the
            // tail of an out-of-range message; everything else is verbatim.
            let head = err
                .split(", but there are")
                .next()
                .unwrap_or(&err)
                .to_string();
            assert_eq!(
                *wording.get_or_insert(head.clone()),
                head,
                "{config} on {what}"
            );
        }
    }
}

/// The hole the flat drivers shared: a read fraction that is not a
/// probability passed `MultiConfig::validate` and panicked in `gen_bool`
/// inside a `par_map` worker, and `SimConfig` had no `validate` at all.
/// `Simulation::new` keeps its documented panic, with `validate`'s message.
#[test]
#[should_panic(expected = "read_fraction must be in [0, 1], got 1.5")]
fn simulation_new_panics_with_the_validate_message() {
    let mut c = SimConfig::new(Arc::new(Majority::new(3)));
    c.read_fraction = 1.5;
    let _ = Simulation::new(c);
}

/// The other side of the two window rows above: the widest windows that
/// validate run under overflow checks (this is a debug build) on all three
/// drivers. Before the rows existed the two plans there passed every
/// `validate`, then overflowed `at + duration` in `drop_permille_at` and
/// the round-trip sum in the phase — a panic here, a wrapped clock and no
/// commits in release.
#[test]
fn the_widest_windows_that_validate_run_without_overflow() {
    let second = SimTime::from_secs(1);
    let widest = FaultPlan::new()
        .delay_window(SimTime::ZERO, second, SimTime(u64::MAX / 8))
        .drop_window(second, SimTime(u64::MAX - second.0), 5);
    let wider = widest
        .clone()
        .delay_window(second, second, SimTime(u64::MAX / 8 + 1));
    let mut three = Three::new();
    three.faults(wider);
    for (config, verdict) in three.verdicts() {
        assert!(
            verdict.is_err(),
            "{config} accepted an extra delay one past the bound"
        );
    }
    three.faults(widest);
    for (config, verdict) in three.verdicts() {
        assert_eq!(verdict, Ok(()), "{config}");
    }
    let duration = SimTime::from_secs(2);
    (three.sim.duration, three.multi.duration, three.txn.duration) = (duration, duration, duration);
    // The delay window outlasts every timeout, so nothing commits inside it.
    let flat = run(three.sim);
    assert!(flat.reads.successes + flat.writes.successes > 0);
    assert!(flat.reads.timeouts + flat.writes.timeouts > 0);
    let sharded = run_sharded(&three.multi, 2).metrics;
    assert!(sharded.reads.successes + sharded.writes.successes > 0);
    assert!(run_txn(&three.txn, 2).stats.txns_committed > 0);
}

/// `MultiConfig::clients()` and `TxnConfig::clients()` multiply without a
/// check, and both `validate`s called them: a client count past `usize`
/// panicked in a debug build and wrapped in a release one.
#[test]
fn a_client_count_past_usize_is_an_error() {
    let half = 1usize << (usize::BITS / 2);
    let mut three = Three::new();
    (
        three.multi.items,
        three.multi.shards,
        three.multi.clients_per_shard,
    ) = (half, half, half);
    (
        three.txn.items,
        three.txn.domains,
        three.txn.clients_per_domain,
    ) = (4 * half, half, half);
    for (config, verdict) in three.verdicts().into_iter().skip(1) {
        let err = verdict.expect_err(&format!("{config} accepted {half} x {half} clients"));
        assert!(err.contains("clients overflows usize"), "{config}: {err:?}");
    }
}

/// A zipfian skew that is not a finite non-negative number gave item
/// weights `gen_range` panics on at the first operation.
#[test]
fn a_zipfian_theta_that_is_not_a_skew_is_an_error() {
    for theta in [f64::NAN, f64::INFINITY, -1.0] {
        let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
        c.dist = ItemDist::Zipfian { theta };
        let err = c.validate().expect_err(&format!("theta {theta} accepted"));
        assert!(err.contains("zipfian theta"), "{err:?}");
    }
}

/// An elastic run builds one barrier per epoch of its duration up front and
/// runs a parallel round at each: a 1 µs epoch over 300 s was 3·10⁸ of
/// them, and `validate` checked only that the epoch was positive.
#[test]
fn an_elastic_epoch_tiny_against_the_duration_is_an_error() {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        epoch: SimTime(1),
        ..ElasticPolicy::new()
    });
    c.duration = SimTime::from_secs(300);
    let err = c.validate().expect_err("3e8 epoch barriers accepted");
    assert!(err.contains("duration") && err.contains("epoch"), "{err:?}");
    c.duration = SimTime(MAX_EPOCH_BARRIERS);
    assert_eq!(c.validate(), Ok(()), "the bound itself is runnable");
    c.duration = SimTime(MAX_EPOCH_BARRIERS + 1);
    assert!(c.validate().is_err());
}

/// A keyspace of `1 << 40` or `usize::MAX` items passed
/// `MultiConfig::validate`, though each shard numbers its item slots in
/// `u32`s: a slot past `u32::MAX` would have been truncated.
#[test]
fn a_keyspace_past_max_items_is_an_error() {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    for items in [MAX_ITEMS + 1, 1 << 40, usize::MAX] {
        c.items = items;
        let err = c.validate().expect_err(&format!("{items} items accepted"));
        assert!(
            err.contains(&format!("items must be at most {MAX_ITEMS}")),
            "{err:?}"
        );
    }
    c.items = MAX_ITEMS;
    assert_eq!(c.validate(), Ok(()), "the bound itself validates");
    // One shard holding every item and its elastic spares still numbers
    // its slots below the `u32::MAX` marker of an item it does not own.
    assert!(MAX_ITEMS + MAX_ITEMS / 16 + 16 < u32::MAX as usize);
}

/// A program generator's fields passed `TxnConfig::validate` unbounded: a
/// random tree with `max_fanout` 70 000 validated, then exhausted memory
/// generating its first program, and a permille above 1000 meant "always".
#[test]
fn a_program_generator_field_out_of_range_is_an_error() {
    let random = RandomTreeGen::new(4);
    let bad = [
        (
            WorkloadKind::Random(RandomTreeGen {
                max_fanout: 70_000,
                ..random
            }),
            "max_fanout",
        ),
        (
            WorkloadKind::Random(RandomTreeGen {
                write_permille: 1001,
                ..random
            }),
            "write_permille",
        ),
        (
            WorkloadKind::Inventory(InventoryGen {
                check_permille: u32::MAX,
                ..InventoryGen::new(4)
            }),
            "check_permille",
        ),
        (
            WorkloadKind::Banking(BankingGen {
                doomed_permille: 1001,
                ..BankingGen::new(4)
            }),
            "doomed_permille",
        ),
    ];
    for (workload, field) in bad {
        let mut three = Three::new();
        three.txn.workload = workload;
        let err = three
            .txn
            .validate()
            .expect_err(&format!("{workload:?} accepted"));
        assert!(err.contains(field), "{err:?} does not name {field}");
    }
    let mut three = Three::new();
    let widest = RandomTreeGen {
        max_fanout: RandomTreeGen::MAX_FANOUT,
        ..random
    };
    three.txn.workload = WorkloadKind::Random(widest);
    assert_eq!(three.txn.validate(), Ok(()), "the bound itself is accepted");
}
