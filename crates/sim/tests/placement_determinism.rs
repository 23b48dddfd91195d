//! Determinism and conformance for the elastic control plane: a zipfian
//! routed workload over a range-seeded placement, with the epoch
//! rebalancer migrating hot items mid-run, must produce bit-identical
//! `ShardReport` and `PlacementReport` digests across worker-thread
//! counts and across the calendar/heap event-queue implementations — and
//! every per-item schedule (including items that changed owner, whose
//! histories span two shards' event loops) must replay through the
//! generation-aware Theorem 10 conformance checker.

use std::sync::Arc;

use qc_sim::{
    check_trace, run_sharded_elastic, run_sharded_with, ContactPolicy, ElasticPolicy, EventLogMode,
    FaultPlan, ItemDist, MultiConfig, ObsOptions, ObsRecorder, PlacementPolicy, PlacementReport,
    QueueKind, ReconfigPolicy, ReconfigTarget, ScheduleTrace, SeedPlacement, ShardReport, SimTime,
    Traces, Workload,
};
use quorum::{Majority, ReplicaSet};

fn elastic_config() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
    c.duration = SimTime::from_secs(2);
    c.seed = 11;
    c.items = 64;
    c.shards = 8;
    c.read_fraction = 0.5;
    c.dist = ItemDist::Zipfian { theta: 0.99 };
    c.workload = Workload::Routed {
        interarrival: SimTime(150),
    };
    c.reconfig = ReconfigPolicy::scripted_only();
    // Range seeding packs the zipf head onto shard 0 — the worst case the
    // rebalancer exists to fix.
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        min_epoch_commits: 32,
        ..ElasticPolicy::new()
    });
    c
}

#[test]
fn elastic_digests_survive_threads_and_queues() {
    let c = elastic_config();
    let (reference, placement) = run_sharded_elastic(&c, 1);
    assert_eq!(
        reference.metrics.lemma_violations, 0,
        "violations: {:?}",
        reference.metrics.violations
    );
    // The run must actually exercise migration, or this test pins nothing.
    assert!(placement.migrations > 0, "{placement:?}");
    assert!(placement.epochs.len() > 2);
    let mut heap = c.clone();
    heap.queue = QueueKind::Heap;
    for threads in [2, 4] {
        let (r, p) = run_sharded_elastic(&c, threads);
        assert_eq!(r.digest(), reference.digest(), "threads = {threads}");
        assert_eq!(
            p.digest(),
            placement.digest(),
            "placement, threads = {threads}"
        );
        let (r, p) = run_sharded_elastic(&heap, threads);
        assert_eq!(r.digest(), reference.digest(), "heap, threads = {threads}");
        assert_eq!(
            p.digest(),
            placement.digest(),
            "placement heap, threads = {threads}"
        );
    }
}

#[test]
fn migrated_schedules_replay_through_theorem_10() {
    let c = elastic_config();
    let (report, traces, placement) = run_elastic_traces(&c, 2);
    assert!(placement.migrations > 0, "{placement:?}");
    // Tracing must not perturb the simulation.
    let (plain, plain_placement) = run_sharded_elastic(&c, 2);
    assert_eq!(report.digest(), plain.digest());
    assert_eq!(placement.digest(), plain_placement.digest());
    assert_eq!(traces.len(), c.items);
    let mut migration_bumps = 0u64;
    for (g, trace) in traces.iter().enumerate() {
        match check_trace(trace, &*c.quorum) {
            Ok(conf) => {
                // `committed` counts reconfig TMs alongside data ops; the
                // surplus over the item's data commits is exactly its
                // migration generation bumps (nothing else reconfigures
                // in this config).
                assert!(conf.committed as u64 >= report.item_commits[g], "item {g}");
                migration_bumps += conf.committed as u64 - report.item_commits[g];
            }
            Err(d) => panic!("item {g} diverged: {d}"),
        }
    }
    // Every migration is one same-members generation bump, each visible
    // to (and accepted by) the generation-aware checker.
    assert_eq!(migration_bumps, placement.migrations);
}

/// A scaled-down copy of the benchmark's `sharded_zipf_elastic` config:
/// routed zipf 0.99 over 8 range-seeded shards under the default
/// [`ElasticPolicy`], with enough tail items that the planner keeps
/// moving them for the whole run.
fn pinned_routed() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
    c.contact = ContactPolicy::MinimalQuorum;
    c.items = 16_384;
    c.shards = 8;
    c.dist = ItemDist::Zipfian { theta: 0.99 };
    c.workload = Workload::Routed {
        interarrival: SimTime(50),
    };
    c.duration = SimTime::from_secs(2);
    c.seed = 23;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy::new());
    c.queue = QueueKind::Calendar;
    c
}

/// A client-paced closed-loop elastic run with the event log on: scripted
/// moves (several per barrier, a bounce, a no-op), then a scripted
/// `reconfig@` that fans out over every shard's post-migration keyspace
/// (its per-item events land in the log in walk order), then more moves.
fn pinned_closed() -> MultiConfig {
    let shrunk: ReplicaSet = [0usize, 1, 2, 3].into_iter().collect();
    let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
    c.items = 48;
    c.shards = 4;
    c.clients_per_shard = 3;
    c.read_fraction = 0.5;
    c.dist = ItemDist::Zipfian { theta: 0.99 };
    c.duration = SimTime::from_secs(2);
    c.seed = 29;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        min_epoch_commits: 16,
        ..ElasticPolicy::new()
    });
    c.faults = FaultPlan::new()
        .migrate_at(SimTime::from_millis(300), 5, 3)
        .migrate_at(SimTime::from_millis(300), 40, 0)
        .migrate_at(SimTime::from_millis(300), 6, 2)
        .migrate_at(SimTime::from_millis(600), 5, 0)
        .migrate_at(SimTime::from_millis(600), 0, 1)
        .migrate_at(SimTime::from_millis(600), 1, 1)
        .migrate_at(SimTime::from_millis(900), 20, 0)
        .reconfig_at(SimTime::from_millis(1_100), ReconfigTarget::Members(shrunk))
        .migrate_at(SimTime::from_millis(1_400), 5, 2)
        .migrate_at(SimTime::from_millis(1_400), 47, 0);
    c.queue = QueueKind::Calendar;
    c
}

// Recorded on commit b66abaa (the per-barrier compaction layout), before
// the migration path was touched. Unlike the thread/queue identities
// above, these pin the elastic path *across code versions*: a change to
// the migration machinery either reproduces them or explains, digest by
// digest, what observable behaviour moved.
const PINNED_ROUTED_SHARD: u64 = 0xc2e3_6d14_3b2a_1e36;
const PINNED_ROUTED_PLACEMENT: u64 = 0x64b1_1d5c_bd4b_e671;
const PINNED_CLOSED_SHARD: u64 = 0xe691_0321_f848_44db;
const PINNED_CLOSED_PLACEMENT: u64 = 0xe47b_a912_82e7_6360;
const PINNED_CLOSED_OBS: u64 = 0xf737_ef19_5ad8_fe7c;

#[test]
fn routed_elastic_digests_are_pinned_across_code_versions() {
    let (report, placement) = run_sharded_elastic(&pinned_routed(), 2);
    assert_eq!(report.metrics.lemma_violations, 0);
    assert_eq!(placement.migrations, 448, "the pin must exercise migration");
    assert_eq!(placement.migration_failures, 0);
    assert_eq!(
        (report.digest(), placement.digest()),
        (PINNED_ROUTED_SHARD, PINNED_ROUTED_PLACEMENT),
        "got ({:#018x}, {:#018x})",
        report.digest(),
        placement.digest()
    );
}

#[test]
fn closed_loop_elastic_digests_are_pinned_across_code_versions() {
    let mut rec = ObsRecorder::new(ObsOptions {
        events: EventLogMode::Full,
        ..ObsOptions::disabled()
    });
    let (report, placement) = run_sharded_with(&pinned_closed(), 2, &mut rec);
    let obs = rec.into_report();
    assert_eq!(report.metrics.lemma_violations, 0);
    assert_eq!(placement.migrations, 9);
    // One reconfigure op per item on top of the nine migration fences.
    assert_eq!(report.metrics.reconfigurations, 48 + 9);
    assert_eq!(
        (report.digest(), placement.digest(), obs.digest()),
        (
            PINNED_CLOSED_SHARD,
            PINNED_CLOSED_PLACEMENT,
            PINNED_CLOSED_OBS
        ),
        "got ({:#018x}, {:#018x}, {:#018x})",
        report.digest(),
        placement.digest(),
        obs.digest()
    );
}

/// Four uniform routed items over two shards, one arrival per item every
/// 200 ms, rebalancing off: only scripted moves fire.
fn bounce_base() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    c.items = 4;
    c.shards = 2;
    c.read_fraction = 0.5;
    c.seed = 1;
    c.workload = Workload::Routed {
        interarrival: SimTime::from_millis(50),
    };
    c.duration = SimTime::from_secs(3);
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        seed: SeedPlacement::RoundRobin,
        max_moves_per_epoch: 0,
        ..ElasticPolicy::new()
    });
    c
}

/// Regression: an item that migrates away and back before its queued
/// arrival fires must not run its arrival stream twice. Before the fix
/// the arrival queued before the item left was revived when it returned,
/// next to the one rescheduled at import; both scheduled successors, so
/// from then on shard 0 carried 3 queued events against the baseline's 2
/// at every barrier and item 0 committed 29 ops against the baseline's
/// 15 — the routed workload's "rate follows the weight" contract broken
/// for every bounced item.
#[test]
fn a_bounced_item_keeps_a_single_arrival_stream() {
    let (base_report, base) = run_sharded_elastic(&bounce_base(), 1);
    // Away at 10 ms, back at 30 ms: both inside the first 200 ms period.
    let mut c = bounce_base();
    c.faults = FaultPlan::parse("migrate@10:0->1; migrate@30:0->0").unwrap();
    let (report, bounced) = run_sharded_elastic(&c, 1);
    assert_eq!(bounced.migrations, 2);
    assert_eq!(bounced.epochs.len(), base.epochs.len() + 2);
    // Same instants, same queues: the two scripted barriers aside, every
    // sample of the bounced run matches the baseline's at that instant.
    for b in &base.epochs {
        let e = bounced
            .epochs
            .iter()
            .find(|e| e.at == b.at)
            .expect("the bounced run keeps every epoch barrier");
        assert_eq!(e.queue_depths, b.queue_depths, "queue depths at {}", b.at);
    }
    // And the same operations: one per arrival, on every item.
    assert_eq!(report.item_commits, base_report.item_commits);
    assert_eq!(
        report.metrics.reads.attempts + report.metrics.writes.attempts,
        base_report.metrics.reads.attempts + base_report.metrics.writes.attempts
    );
    assert_eq!(report.metrics.lemma_violations, 0);
}

/// The report, one schedule trace per item, and the placement report.
fn run_elastic_traces(
    c: &MultiConfig,
    threads: usize,
) -> (ShardReport, Vec<ScheduleTrace>, PlacementReport) {
    let mut traces = Traces::new(&*c.quorum, c.seed, c.items);
    let (report, placement) = run_sharded_with(c, threads, &mut traces);
    (report, traces.into_traces(), placement)
}
