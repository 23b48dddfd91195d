//! Integration tests for the causal flight recorder (`qc_obs::causal`)
//! as wired into all three simulators:
//!
//! * causal recording is invisible — an observed run commits exactly the
//!   operations of an unobserved one (metrics/report digests equal);
//! * every recorded span tree's critical path reconciles *exactly* with
//!   the transaction's end-to-end latency (not within a tolerance);
//! * the merged causal report is bit-identical across OS thread counts
//!   *and* event-queue implementations (calendar vs heap oracle);
//! * stale-generation retries are attributed to the `stale_retry` edge,
//!   and reconfiguration/migration fences surface as phase markers.

use std::sync::Arc;

use nested_txn::{BankingGen, WorkloadKind};
use qc_sim::{
    run, run_observed, run_sharded, run_sharded_with, run_txn, run_txn_causal, CausalOptions,
    EdgeKind, ElasticPolicy, FaultPlan, ItemDist, LatencyModel, MultiConfig, ObsOptions,
    ObsRecorder, ObsReport, Phase, PlacementPolicy, PlacementReport, QueueKind, ReconfigPolicy,
    RetryPolicy, SeedPlacement, ShardReport, SimConfig, SimTime, TxnConfig, Workload,
};
use quorum::Majority;

fn single_base() -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.clients = 4;
    c.read_fraction = 0.6;
    c.latency = LatencyModel::lan();
    c.duration = SimTime::from_secs(2);
    c.seed = 42;
    c
}

fn single_faulted() -> SimConfig {
    let mut c = single_base();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(300), 0)
        .crash_at(SimTime::from_millis(320), 1)
        .crash_at(SimTime::from_millis(340), 2)
        .recover_at(SimTime::from_millis(900), 0)
        .recover_at(SimTime::from_millis(900), 1)
        .abort_at(SimTime::from_millis(500), 2)
        .drop_window(SimTime::from_millis(1200), SimTime::from_millis(200), 250);
    c.retry = RetryPolicy::retries(4, SimTime::from_millis(10));
    c
}

/// Every retained trace must verify and its critical path must tile the
/// whole end-to-end latency, and the profile must agree.
fn assert_reconciled(causal: &qc_sim::CausalReport) {
    let p = causal.profile();
    assert!(p.txns() > 0, "nothing recorded; reconciliation is vacuous");
    assert_eq!(
        p.reconciled(),
        p.txns(),
        "critical paths drifted from latency"
    );
    for t in causal.all() {
        t.verify().expect("recorded trace is causally consistent");
        assert_eq!(
            t.critical_path().total_us,
            t.latency_us(),
            "{}",
            t.to_json_line()
        );
    }
}

#[test]
fn causal_recording_is_invisible_single_sim() {
    for make in [single_base as fn() -> SimConfig, single_faulted] {
        let plain = run(make());
        let mut c = make();
        c.obs.causal = CausalOptions::full();
        let (observed, obs) = run_observed(c);
        assert_eq!(
            plain.digest(),
            observed.digest(),
            "causal recording perturbed the run"
        );
        assert_reconciled(&obs.causal);
    }
}

/// Aborted single-access ops (retry budget exhausted under faults) carry
/// abort-cause chains, and the cause tallies cover every abort.
#[test]
fn single_sim_abort_causes_are_recorded() {
    let mut c = single_faulted();
    c.obs.causal = CausalOptions::full();
    let (m, obs) = run_observed(c);
    let failures = m.reads.timeouts
        + m.reads.unavailable
        + m.reads.aborted
        + m.writes.timeouts
        + m.writes.unavailable
        + m.writes.aborted;
    assert!(failures > 0, "scenario must produce terminal aborts");
    let p = obs.causal.profile();
    let aborted: u64 = qc_sim::ABORT_CAUSES.iter().map(|&c| p.aborts(c)).sum();
    assert_eq!(aborted, failures, "every terminal abort needs a cause");
    let has_chain = obs
        .causal
        .all()
        .iter()
        .filter(|t| !t.committed)
        .all(|t| !t.abort_chain().is_empty());
    assert!(has_chain, "aborted traces must carry their abort chain");
}

/// A scripted shrink strands cached configurations; the burned attempts
/// must show up as `stale_retry` critical-path time, not `read_gather`.
#[test]
fn stale_retries_are_attributed_to_stale_retry_edge() {
    let mut c = SimConfig::new(Arc::new(Majority::new(3)));
    c.clients = 2;
    c.latency = LatencyModel::Fixed(SimTime(400));
    c.think_time = SimTime::from_millis(1);
    c.duration = SimTime::from_millis(30);
    c.seed = 17;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.faults = FaultPlan::parse("crash@5:2;reconfig@12:0+1;recover@20:2;reconfig@24:live")
        .expect("fault plan parses");
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    c.obs.spans = true;
    c.obs.causal = CausalOptions::full();
    let (m, obs) = run_observed(c);
    assert!(
        m.stale_rejections > 0,
        "the shrink must strand a stale cache"
    );
    assert_eq!(
        obs.spans.hist(Phase::ReconfigFence).count(),
        m.reconfigurations,
        "one fence marker per committed reconfiguration"
    );
    assert!(
        obs.causal.profile().edge(EdgeKind::StaleRetry).count() > 0,
        "stale rejections must surface as stale_retry edges"
    );
    assert_reconciled(&obs.causal);
}

fn sharded_config() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    c.items = 12;
    c.shards = 2;
    c.clients_per_shard = 2;
    c.read_fraction = 0.5;
    c.duration = SimTime::from_millis(80);
    c.seed = 23;
    c.dist = ItemDist::Zipfian { theta: 1.1 };
    c
}

/// Run `c` on `threads` threads recording what `opts` says.
fn observed(
    c: &MultiConfig,
    threads: usize,
    opts: ObsOptions,
) -> (ShardReport, PlacementReport, ObsReport) {
    let mut rec = ObsRecorder::new(opts);
    let (report, placement) = run_sharded_with(c, threads, &mut rec);
    (report, placement, rec.into_report())
}

#[test]
fn causal_recording_is_invisible_sharded() {
    let plain = run_sharded(&sharded_config(), 2);
    let mut opts = ObsOptions::disabled();
    opts.causal = CausalOptions::full();
    let (observed, _, obs) = observed(&sharded_config(), 2, opts);
    assert_eq!(
        plain.digest(),
        observed.digest(),
        "causal recording perturbed the run"
    );
    assert_reconciled(&obs.causal);
}

fn migrating_config() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    c.items = 6;
    c.shards = 2;
    c.read_fraction = 0.5;
    c.workload = Workload::Routed {
        interarrival: SimTime::from_millis(1),
    };
    c.duration = SimTime::from_millis(40);
    c.seed = 17;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        seed: SeedPlacement::RoundRobin,
        max_moves_per_epoch: 0,
        ..ElasticPolicy::new()
    });
    c.faults = FaultPlan::parse("migrate@10:0->1;migrate@20:2->0").expect("fault plan parses");
    c
}

/// Spans and every causal trace.
fn migrating_obs() -> ObsOptions {
    ObsOptions {
        spans: true,
        causal: CausalOptions::full(),
        ..ObsOptions::disabled()
    }
}

/// Migrations fence items between shards; the new owner's first op
/// stale-rejects (§4 currency check), which must surface as
/// `stale_retry` edges and `migration` phase markers — while the causal
/// digest stays bit-identical across 1/2/4 threads × calendar/heap.
#[test]
fn migrating_causal_digest_is_thread_and_queue_invariant() {
    let mut digests = Vec::new();
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        for threads in [1usize, 2, 4] {
            let mut c = migrating_config();
            c.queue = queue;
            let (report, placement, obs) = observed(&c, threads, migrating_obs());
            assert!(placement.migrations > 0, "{placement:?}");
            assert!(
                report.metrics.stale_rejections > 0,
                "the §4 fence must fire"
            );
            assert_eq!(
                obs.spans.hist(Phase::Migration).count(),
                placement.migrations,
                "one migration marker per exported item"
            );
            assert!(
                obs.causal.profile().edge(EdgeKind::StaleRetry).count() > 0,
                "migration fences must surface as stale_retry edges"
            );
            assert_reconciled(&obs.causal);
            digests.push((queue, threads, obs.causal.digest()));
        }
    }
    let first = digests[0].2;
    for (queue, threads, d) in digests {
        assert_eq!(
            d, first,
            "causal digest diverged at {queue:?} x {threads} threads"
        );
    }
}

fn txn_config() -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 2;
    c.duration = SimTime::from_millis(200);
    c.seed = 7;
    c
}

/// The nested-transaction recorder under both event-queue
/// implementations and 1/2/4 threads: same causal bits everywhere, and
/// the observed run's report digest matches the unobserved one.
#[test]
fn txn_causal_digest_is_thread_and_queue_invariant() {
    let plain = run_txn(&txn_config(), 1);
    let mut digests = Vec::new();
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        for threads in [1usize, 2, 4] {
            let mut c = txn_config();
            c.queue = queue;
            let (report, causal) = run_txn_causal(&c, threads);
            assert_eq!(report.digest(), plain.digest(), "{queue:?} x {threads}");
            let p = causal.profile();
            assert_eq!(p.reconciled(), p.txns());
            digests.push((queue, threads, causal.digest()));
        }
    }
    let first = digests[0].2;
    for (queue, threads, d) in digests {
        assert_eq!(
            d, first,
            "causal digest diverged at {queue:?} x {threads} threads"
        );
    }
}

/// The absolute pins behind the invisibility tests above, one per flat
/// driver: everything full observation records with every causal trace
/// retained (`CausalOptions::full()`) for a faulted run with retries,
/// terminal failures and a forced abort — the `ObsReport` digest and the
/// `CausalReport` digest on its own.
fn full_observation(obs: &mut qc_sim::ObsOptions) {
    *obs = qc_sim::ObsOptions::full();
    obs.causal = CausalOptions::full();
}

#[test]
fn faulted_single_item_full_observation_is_pinned() {
    let mut c = single_faulted();
    full_observation(&mut c.obs);
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        let (m, obs) = run_observed(SimConfig { queue, ..c.clone() });
        assert_eq!(m.digest(), run(single_faulted()).digest(), "{queue:?}");
        assert!(m.forced_aborts == 1 && m.reads.retries + m.writes.retries > 0);
        assert!(obs.causal.profile().edge(EdgeKind::RetryBackoff).count() > 0);
        let got = (obs.digest(), obs.causal.digest());
        let pinned = (0x05b1_16fb_6903_113a, 0x5d93_2223_f6af_5fdc);
        assert_eq!(
            got, pinned,
            "{queue:?}: got ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

fn sharded_faulted() -> MultiConfig {
    let mut c = sharded_config();
    c.duration = SimTime::from_millis(400);
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(60), 0)
        .crash_at(SimTime::from_millis(90), 1)
        .recover_at(SimTime::from_millis(200), 0)
        .recover_at(SimTime::from_millis(210), 1)
        .abort_at(SimTime::from_millis(120), 3)
        .drop_window(SimTime::from_millis(250), SimTime::from_millis(80), 300);
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    c
}

#[test]
fn faulted_sharded_full_observation_is_pinned() {
    let plain = run_sharded(&sharded_faulted(), 1);
    let c = sharded_faulted();
    let mut opts = ObsOptions::disabled();
    full_observation(&mut opts);
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        for threads in [1usize, 2, 4] {
            let (r, _, obs) = observed(&MultiConfig { queue, ..c.clone() }, threads, opts);
            let at = format!("{queue:?} at {threads} threads");
            assert_eq!(r.digest(), plain.digest(), "{at}");
            let m = &r.metrics;
            assert!(
                m.forced_aborts == 1 && m.reads.retries + m.writes.retries > 0,
                "{at}"
            );
            let got = (obs.digest(), obs.causal.digest());
            let pinned = (0xd9b5_8a5f_64ec_617c, 0x360a_6743_c22a_93fe);
            assert_eq!(got, pinned, "{at}: got ({:#018x}, {:#018x})", got.0, got.1);
        }
    }
}
