//! Pins what the sharded driver does for items no arrival ever reaches.
//!
//! Under the routed workload most of a large zipfian keyspace sees no
//! operation, yet such an item is still reached four other ways: a
//! scripted `reconfig@` fans out over every owned item, the reactive poll
//! moves every item whose membership is wrong, a scripted `migrate@` may
//! name it (and bring it back), and the `corrupt@` negative control
//! scribbles on item 0 whether or not item 0 ever arrives. Each scenario
//! below is a small sparse routed run built so that most items have no
//! arrival; it pins the report digest, the placement digest and an FNV
//! over every item's Theorem 10 verdict, at one and two threads under
//! both event queues, and checks that cold items were in fact reached.

use std::fmt::Write as _;
use std::sync::Arc;

use qc_sim::{
    check_trace, run_sharded_with, ElasticPolicy, FaultPlan, ItemDist, MultiConfig,
    PlacementPolicy, PlacementReport, QueueKind, ReconfigPolicy, ReconfigTarget, ScheduleTrace,
    SeedPlacement, ShardReport, SimTime, Traces, Workload,
};
use quorum::{Majority, ReplicaSet, Rowa};

/// 128 uniform items over 4 shards with one routed arrival per 10 ms in
/// aggregate: each item's period is 1.28 s, so in a 500 ms run about
/// three items in five never arrive.
fn sparse(quorum: MultiConfig) -> MultiConfig {
    let mut c = quorum;
    c.items = 128;
    c.shards = 4;
    c.read_fraction = 0.5;
    c.dist = ItemDist::Uniform;
    c.workload = Workload::Routed {
        interarrival: SimTime::from_millis(10),
    };
    c.duration = SimTime::from_millis(500);
    c
}

/// A scripted `reconfig@` to four members fans out over every owned item.
fn fanout() -> MultiConfig {
    let mut c = sparse(MultiConfig::new(Arc::new(Majority::new(5))));
    c.seed = 3;
    c.reconfig = ReconfigPolicy::scripted_only();
    let shrunk: ReplicaSet = [0usize, 1, 2, 3].into_iter().collect();
    c.faults =
        FaultPlan::new().reconfig_at(SimTime::from_millis(200), ReconfigTarget::Members(shrunk));
    c
}

/// ROWA writes fail while site 4 is down, so the reactive poll shrinks
/// every item to the live sites, then grows them back after the recovery.
/// Twice the keyspace at twice the rate keeps the sparsity and gives each
/// shard, whose failure signal is its own, writes to fail in the window.
fn reactive() -> MultiConfig {
    let mut c = sparse(MultiConfig::new(Arc::new(Rowa::new(5))));
    c.items = 256;
    c.workload = Workload::Routed {
        interarrival: SimTime::from_millis(5),
    };
    c.seed = 5;
    c.reconfig = ReconfigPolicy::reactive();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(100), 4)
        .recover_at(SimTime::from_millis(250), 4);
    c
}

/// The cold item the migration scenario moves: owned by shard 1 under
/// round-robin seeding, and without an arrival at seed 9.
const COLD: usize = 5;
/// An item of the same shard that does arrive at seed 9.
const HOT: usize = 9;

/// A scripted move of a never-arriving item to another shard and back,
/// beside a move of a hot item from the same shard, with rebalancing off.
fn migrate() -> MultiConfig {
    let mut c = sparse(MultiConfig::new(Arc::new(Majority::new(3))));
    c.seed = 9;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        seed: SeedPlacement::RoundRobin,
        max_moves_per_epoch: 0,
        ..ElasticPolicy::new()
    });
    c.faults = FaultPlan::new()
        .migrate_at(SimTime::from_millis(150), COLD, 3)
        .migrate_at(SimTime::from_millis(150), HOT, 2)
        .migrate_at(SimTime::from_millis(320), COLD, 1);
    c
}

/// `corrupt@` under static placement in a run too short for item 0's
/// stream to arrive: the monitor must still see the scribble.
fn corrupt() -> MultiConfig {
    let mut c = sparse(MultiConfig::new(Arc::new(Majority::new(3))));
    c.seed = 4;
    c.duration = SimTime::from_millis(150);
    c.faults = FaultPlan::new().corrupt_at(SimTime::from_millis(60), 1, 999, 123);
    c
}

/// The report, the placement report, and one trace per item.
fn traced(c: &MultiConfig, threads: usize) -> (ShardReport, PlacementReport, Vec<ScheduleTrace>) {
    let mut traces = Traces::new(&*c.quorum, c.seed, c.items);
    let (report, placement) = run_sharded_with(c, threads, &mut traces);
    (report, placement, traces.into_traces())
}

/// FNV-1a over every item's `check_trace` verdict, in item order.
fn verdicts(c: &MultiConfig, traces: &[ScheduleTrace]) -> u64 {
    let mut text = String::new();
    for (g, t) in traces.iter().enumerate() {
        writeln!(text, "{g} {:?}", check_trace(t, &*c.quorum)).unwrap();
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Items with no committed operation whose trace nevertheless commits a
/// reconfigure TM: the cold items the scenario reached.
fn reached_cold(c: &MultiConfig, report: &ShardReport, traces: &[ScheduleTrace]) -> usize {
    traces
        .iter()
        .enumerate()
        .filter(|&(g, t)| {
            report.item_commits[g] == 0
                && check_trace(t, &*c.quorum).is_ok_and(|conf| conf.committed > 0)
        })
        .count()
}

/// Run `config` at 1 and 2 threads under both queues; every run must
/// reproduce the three pinned digests. Returns the reference run.
fn assert_pinned(
    label: &str,
    config: &MultiConfig,
    pins: (u64, u64, u64),
) -> (ShardReport, PlacementReport, Vec<ScheduleTrace>) {
    let mut reference = None;
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        for threads in [1, 2] {
            let mut c = config.clone();
            c.queue = queue;
            let (report, placement, traces) = traced(&c, threads);
            let got = (report.digest(), placement.digest(), verdicts(&c, &traces));
            assert_eq!(
                got, pins,
                "{label}: (report, placement, verdicts) at {threads} threads under {queue:?}"
            );
            reference.get_or_insert((report, placement, traces));
        }
    }
    reference.expect("four runs")
}

#[test]
fn a_reconfig_fanout_reaches_every_cold_item() {
    let c = fanout();
    let (report, _, traces) = assert_pinned(
        "fanout",
        &c,
        (
            13676649385461571728,
            10700543694973874382,
            6535085764704008770,
        ),
    );
    assert_eq!(report.metrics.reconfigurations, c.items as u64);
    assert_eq!(report.metrics.lemma_violations, 0);
    let cold = report.item_commits.iter().filter(|&&n| n == 0).count();
    assert!(cold > c.items / 2, "only {cold} cold items");
    assert_eq!(reached_cold(&c, &report, &traces), cold);
}

#[test]
fn the_reactive_poll_reconfigures_cold_items() {
    let c = reactive();
    let (report, _, traces) = assert_pinned(
        "reactive",
        &c,
        (
            13599141956410698699,
            8604048409891391526,
            4966461502808953612,
        ),
    );
    assert_eq!(report.metrics.lemma_violations, 0);
    let cold = report.item_commits.iter().filter(|&&n| n == 0).count();
    assert!(cold > c.items / 2, "only {cold} cold items");
    assert!(
        report.metrics.reconfigurations > c.items as u64,
        "{} reconfigurations: the poll did not shrink every item and grow some back",
        report.metrics.reconfigurations
    );
    assert_eq!(reached_cold(&c, &report, &traces), cold);
}

#[test]
fn a_cold_item_migrates_out_and_back() {
    let c = migrate();
    let (report, placement, traces) = assert_pinned(
        "migrate",
        &c,
        (
            6052060767788408553,
            18115177338714807353,
            15535599742535339308,
        ),
    );
    assert_eq!(report.metrics.lemma_violations, 0);
    assert_eq!(placement.migrations, 3, "{placement:?}");
    assert_eq!(placement.migration_failures, 0);
    assert_eq!(
        report.item_commits[COLD], 0,
        "item {COLD} must never arrive"
    );
    let conf = check_trace(&traces[COLD], &*c.quorum).expect("the cold item conforms");
    assert_eq!(conf.committed, 2, "two migration fences");
    assert!(report.item_commits[HOT] > 0);
}

#[test]
fn corrupting_an_item_that_never_arrives_is_detected() {
    let c = corrupt();
    let (report, _, _) = assert_pinned(
        "corrupt",
        &c,
        (
            5935547930637791330,
            10700543694973874382,
            17693043586153671349,
        ),
    );
    assert_eq!(report.item_commits[0], 0, "item 0 must never arrive");
    assert!(report.item_commits.iter().any(|&n| n > 0));
    assert!(
        report
            .metrics
            .violations
            .iter()
            .any(|v| v.contains("corrupt injection")),
        "{:?}",
        report.metrics.violations
    );
}
