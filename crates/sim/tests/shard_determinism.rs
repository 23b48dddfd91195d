//! Cross-thread-count determinism for the sharded multi-item simulator:
//! the report digest (merged metrics + per-item tallies) must be
//! bit-identical whether the shards run on 1, 2, or 4 OS threads, healthy
//! or faulted, uniform or zipfian — the contract that makes parallel
//! sharded runs trustworthy evidence.
//!
//! Also checks the traced run: tracing is observational (digest unchanged)
//! and every per-item schedule passes the Theorem 10 conformance check.

use std::sync::Arc;

use qc_sim::{
    check_trace, run_sharded, run_sharded_with, ContactPolicy, FaultPlan, ItemDist, MultiConfig,
    QueueKind, ReconfigPolicy, ReconfigTarget, RetryPolicy, ScheduleTrace, ShardReport, SimTime,
    TmKind, TraceAction, Traces, Workload,
};
use quorum::{Majority, Rowa};

/// `config` under each event-queue implementation: every test below holds
/// under both, in-process.
fn both_queues(config: &MultiConfig) -> [MultiConfig; 2] {
    [QueueKind::Calendar, QueueKind::Heap].map(|queue| MultiConfig {
        queue,
        ..config.clone()
    })
}

fn healthy() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
    c.contact = ContactPolicy::MinimalQuorum;
    c.items = 8;
    c.shards = 4;
    c.clients_per_shard = 2;
    c.duration = SimTime::from_secs(2);
    c.seed = 7;
    c
}

fn faulted() -> MultiConfig {
    let mut c = healthy();
    // Global client ids: 8 clients across 4 shards.
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(300), 1)
        .crash_at(SimTime::from_millis(400), 3)
        .recover_at(SimTime::from_millis(900), 1)
        .recover_at(SimTime::from_millis(1100), 3)
        .abort_at(SimTime::from_millis(500), 0)
        .abort_at(SimTime::from_millis(600), 5)
        .drop_window(SimTime::from_millis(1200), SimTime::from_millis(200), 300)
        .delay_window(
            SimTime::from_millis(1500),
            SimTime::from_millis(200),
            SimTime::from_millis(2),
        );
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c
}

fn zipfian() -> MultiConfig {
    let mut c = healthy();
    c.items = 16;
    c.dist = ItemDist::Zipfian { theta: 0.99 };
    c
}

fn open_loop() -> MultiConfig {
    let mut c = faulted();
    c.workload = Workload::Open {
        interarrival: SimTime::from_millis(5),
    };
    c
}

/// Reactive dynamic quorums over ROWA: the member crash forces a shrink
/// on every item, the recovery grows back.
fn reconfiguring_rowa() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Rowa::new(5)));
    c.items = 8;
    c.shards = 4;
    c.clients_per_shard = 2;
    c.duration = SimTime::from_secs(2);
    c.seed = 19;
    c.read_fraction = 0.5;
    c.reconfig = ReconfigPolicy::reactive();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(400), 4)
        .recover_at(SimTime::from_millis(1400), 4)
        .abort_at(SimTime::from_millis(700), 3);
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c
}

/// Scripted reconfigurations over majority quorums, with a crash/drop
/// backdrop: every item switches membership twice mid-run.
fn reconfiguring_majority() -> MultiConfig {
    let mut c = healthy();
    c.seed = 23;
    c.read_fraction = 0.5;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(300), 1)
        .recover_at(SimTime::from_millis(1000), 1)
        .drop_window(SimTime::from_millis(500), SimTime::from_millis(200), 250)
        .reconfig_at(
            SimTime::from_millis(700),
            ReconfigTarget::Members([0usize, 2, 3, 4].into_iter().collect()),
        )
        .reconfig_at(SimTime::from_millis(1300), ReconfigTarget::Live);
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c
}

#[test]
fn reconfiguring_digests_are_identical_across_thread_counts_and_queues() {
    for (label, config) in [
        ("reactive-rowa", reconfiguring_rowa()),
        ("scripted-majority", reconfiguring_majority()),
    ] {
        let baseline = run_sharded(&config, 1);
        assert!(
            baseline.metrics.reconfigurations > 0,
            "{label}: no reconfigurations fired"
        );
        assert_eq!(
            baseline.metrics.lemma_violations, 0,
            "{label}: violations {:?}",
            baseline.metrics.violations
        );
        assert_thread_and_queue_invariant(label, &config, baseline.digest());
    }
}

/// The absolute value behind each invariance assertion in this file: a
/// change to the sharded driver that shifts a run identically under every
/// thread count and queue passes those and fails here. Re-pin only for a
/// change that means to alter what a seeded run commits.
#[test]
fn report_digests_are_pinned() {
    for (label, config, digest) in [
        ("healthy", healthy(), 300281730294534351u64),
        ("faulted", faulted(), 17681603743955203916),
        ("zipfian", zipfian(), 16864836856410238499),
        ("open-loop", open_loop(), 2537074023544342732),
        ("reactive-rowa", reconfiguring_rowa(), 13862502716857247866),
        (
            "scripted-majority",
            reconfiguring_majority(),
            6505620225027926744,
        ),
    ] {
        assert_thread_and_queue_invariant(label, &config, digest);
    }
}

fn assert_thread_and_queue_invariant(label: &str, config: &MultiConfig, digest: u64) {
    for c in both_queues(config) {
        for threads in [1, 2, 4] {
            assert_eq!(
                run_sharded(&c, threads).digest(),
                digest,
                "{label}: {:?} digest diverged at {threads} threads",
                c.queue
            );
        }
    }
}

#[test]
fn traced_reconfiguring_items_conform_generation_aware() {
    for (label, config) in [
        ("reactive-rowa", reconfiguring_rowa()),
        ("scripted-majority", reconfiguring_majority()),
    ]
    .into_iter()
    .flat_map(|(label, config)| both_queues(&config).map(|c| (label, c)))
    {
        let plain = run_sharded(&config, 2);
        let (traced, traces) = run_sharded_traces(&config, 2);
        assert_eq!(
            plain.digest(),
            traced.digest(),
            "{label}: tracing perturbed the run"
        );
        let mut reconfig_commits = 0u64;
        for (g, trace) in traces.iter().enumerate() {
            let report = check_trace(trace, &*config.quorum)
                .unwrap_or_else(|d| panic!("{label}: item {g} diverged: {d}"));
            let reconfigs = trace
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
            reconfig_commits += reconfigs;
            // Data commits tally with the report once the reconfigure TMs
            // (which the Theorem 10 projection erases) are set aside.
            assert_eq!(
                report.committed as u64,
                plain.item_commits[g] + reconfigs,
                "{label}: item {g} commits"
            );
        }
        assert_eq!(
            reconfig_commits, plain.metrics.reconfigurations,
            "{label}: per-item reconfigure TMs tally with the metrics"
        );
    }
}

#[test]
fn digests_are_identical_across_thread_counts_and_queues() {
    for (label, config) in [
        ("healthy", healthy()),
        ("faulted", faulted()),
        ("zipfian", zipfian()),
        ("open-loop", open_loop()),
    ] {
        let baseline = run_sharded(&config, 1);
        assert_eq!(
            baseline.metrics.lemma_violations, 0,
            "{label}: violations {:?}",
            baseline.metrics.violations
        );
        assert_thread_and_queue_invariant(label, &config, baseline.digest());
    }
}

#[test]
fn reports_reproduce_run_to_run() {
    let a = run_sharded(&faulted(), 2);
    for config in both_queues(&faulted()) {
        let b = run_sharded(&config, 2);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.item_commits, b.item_commits);
        assert_eq!(a.item_vns, b.item_vns);
    }
}

#[test]
fn forced_aborts_land_in_the_owning_shard_only() {
    for config in both_queues(&faulted()) {
        let r = run_sharded(&config, 1);
        // Exactly the two AbortClient events fire, once each — not once
        // per shard.
        assert_eq!(r.metrics.forced_aborts, 2);
        assert_eq!(
            r.metrics.reads.aborted + r.metrics.writes.aborted,
            r.metrics.forced_aborts
        );
    }
}

#[test]
fn traced_run_is_observational_and_items_conform() {
    for config in both_queues(&faulted()) {
        let plain = run_sharded(&config, 2);
        let (traced, traces) = run_sharded_traces(&config, 2);
        assert_eq!(plain.digest(), traced.digest(), "tracing perturbed the run");
        assert_eq!(traces.len(), config.items);
        for (g, trace) in traces.iter().enumerate() {
            let report = check_trace(trace, &*config.quorum)
                .unwrap_or_else(|d| panic!("item {g} diverged from the serial system: {d}"));
            assert_eq!(
                report.committed as u64, plain.item_commits[g],
                "item {g}: trace commits vs report tally"
            );
            assert_eq!(
                report.max_vn, plain.item_vns[g],
                "item {g}: trace max vn vs final store vn"
            );
        }
    }
}

#[test]
fn zipfian_traces_cover_the_whole_keyspace() {
    for config in both_queues(&zipfian()) {
        let (report, traces) = run_sharded_traces(&config, 1);
        assert_eq!(report.metrics.lemma_violations, 0);
        // Every item conforms, hot head and cold tail alike.
        let mut total_commits = 0u64;
        for (g, trace) in traces.iter().enumerate() {
            check_trace(trace, &*config.quorum)
                .unwrap_or_else(|d| panic!("item {g} diverged: {d}"));
            total_commits += trace
                .events
                .iter()
                .filter(|e| matches!(e.action, TraceAction::Commit))
                .count() as u64;
        }
        assert_eq!(
            total_commits,
            report.metrics.reads.successes + report.metrics.writes.successes,
            "per-item traces partition the committed operations"
        );
    }
}

/// The report and one schedule trace per item.
fn run_sharded_traces(c: &MultiConfig, threads: usize) -> (ShardReport, Vec<ScheduleTrace>) {
    let mut traces = Traces::new(&*c.quorum, c.seed, c.items);
    let (report, _) = run_sharded_with(c, threads, &mut traces);
    (report, traces.into_traces())
}
