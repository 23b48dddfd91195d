//! Integration tests for the observability layer (`qc_obs`) as wired
//! into the flat drivers:
//!
//! * observation is invisible — an observed run commits exactly the
//!   operations of an unobserved one (metrics digests equal);
//! * per-phase spans reconcile *exactly* with end-to-end latency under
//!   LAN, WAN, and fault/retry workloads;
//! * the merged sharded `ObsReport` (spans, event log, snapshots) is
//!   bit-identical across OS thread counts;
//! * the snapshot exporter fires on every simulated boundary;
//! * fault firings and lemma violations surface as structured events,
//!   with the offending operation attached at commit-time detections.

use std::sync::Arc;

use qc_sim::{
    run, run_observed, run_sharded, run_sharded_with, CausalOptions, EventKind, FaultPlan,
    LatencyModel, Metrics, MultiConfig, ObsOptions, ObsRecorder, ObsReport, QueueKind,
    ReconfigPolicy, ReconfigTarget, RetryPolicy, ShardReport, SimConfig, SimTime, PHASES,
};
use quorum::{Majority, Rowa};

fn base(latency: LatencyModel) -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.clients = 4;
    c.read_fraction = 0.6;
    c.latency = latency;
    c.duration = SimTime::from_secs(3);
    c.seed = 42;
    c
}

fn faulted(latency: LatencyModel) -> SimConfig {
    let mut c = base(latency);
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(800), 0)
        .crash_at(SimTime::from_millis(820), 1)
        .crash_at(SimTime::from_millis(840), 2)
        .recover_at(SimTime::from_millis(1400), 0)
        .recover_at(SimTime::from_millis(1400), 1)
        .recover_at(SimTime::from_millis(1400), 2)
        .drop_window(SimTime::from_millis(1800), SimTime::from_millis(300), 250);
    c.retry = RetryPolicy::retries(6, SimTime::from_millis(10));
    c
}

/// The sum over phase histograms must equal the sum over end-to-end
/// success latencies — not within a tolerance, exactly (gather + install
/// + backoff partitions each committed op's latency by construction).
fn assert_exact_reconciliation(config: SimConfig) {
    let (m, obs) = run_observed(config);
    assert!(
        m.reads.successes + m.writes.successes > 0,
        "workload committed nothing; reconciliation would be vacuous"
    );
    let e2e = m.reads.latency_hist().sum() + m.writes.latency_hist().sum();
    assert_eq!(
        obs.spans.total_us(),
        e2e,
        "phase spans drifted from latency"
    );
}

#[test]
fn observation_is_invisible_single_sim() {
    for latency in [LatencyModel::lan(), LatencyModel::wan()] {
        let plain = run(base(latency));
        let mut c = base(latency);
        c.obs = ObsOptions::full();
        let (observed, obs) = run_observed(c);
        assert_eq!(plain.digest(), observed.digest());
        assert!(!obs.spans.is_empty());
    }
}

#[test]
fn spans_reconcile_exactly_lan() {
    let mut c = base(LatencyModel::lan());
    c.obs.spans = true;
    assert_exact_reconciliation(c);
}

#[test]
fn spans_reconcile_exactly_wan() {
    let mut c = base(LatencyModel::wan());
    c.obs.spans = true;
    assert_exact_reconciliation(c);
}

#[test]
fn spans_reconcile_exactly_under_faults_and_retries() {
    let mut c = faulted(LatencyModel::lan());
    c.obs = ObsOptions::full();
    let (m, obs) = run_observed(c);
    assert!(
        m.reads.retries + m.writes.retries > 0,
        "scenario must exercise the retry/backoff path"
    );
    let e2e = m.reads.latency_hist().sum() + m.writes.latency_hist().sum();
    assert_eq!(obs.spans.total_us(), e2e);
    assert!(
        obs.spans.hist(qc_sim::Phase::RetryBackoff).count() > 0,
        "retries should have produced backoff spans"
    );
}

fn sharded_config() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    c.items = 8;
    c.shards = 4;
    c.clients_per_shard = 2;
    c.read_fraction = 0.5;
    c.duration = SimTime::from_millis(900);
    c.seed = 7;
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(300), 0)
        .recover_at(SimTime::from_millis(500), 0);
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c
}

/// Everything, with snapshots every `every_us`.
fn full_every(every_us: u64) -> ObsOptions {
    ObsOptions {
        snapshot_every_us: Some(every_us),
        ..ObsOptions::full()
    }
}

/// Run `c` on `threads` threads recording what `opts` says.
fn observed(c: &MultiConfig, threads: usize, opts: ObsOptions) -> (ShardReport, ObsReport) {
    let mut rec = ObsRecorder::new(opts);
    let (report, _) = run_sharded_with(c, threads, &mut rec);
    (report, rec.into_report())
}

#[test]
fn sharded_obs_is_bit_identical_across_thread_counts() {
    let c = sharded_config();
    // The default snapshot period (1 s) is longer than this run.
    let opts = full_every(200_000);
    let (base, base_obs) = observed(&c, 1, opts);
    assert!(!base_obs.spans.is_empty());
    assert!(!base_obs.snapshots.is_empty());
    for threads in [2, 4] {
        let (r, obs) = observed(&c, threads, opts);
        assert_eq!(r.metrics.digest(), base.metrics.digest());
        assert_eq!(obs.digest(), base_obs.digest(), "{threads} threads");
        assert_eq!(obs.events_jsonl(), base_obs.events_jsonl());
        assert_eq!(obs.snapshots_json(), base_obs.snapshots_json());
    }
}

#[test]
fn sharded_observation_is_invisible() {
    let a = run_sharded(&sharded_config(), 2);
    let (b, b_obs) = observed(&sharded_config(), 2, full_every(200_000));
    assert_eq!(a.metrics.digest(), b.metrics.digest());
    assert!(observed(&sharded_config(), 2, ObsOptions::disabled())
        .1
        .is_empty());
    assert!(!b_obs.is_empty());
}

#[test]
fn snapshot_exporter_fires_on_every_boundary() {
    let mut c = base(LatencyModel::lan());
    c.duration = SimTime::from_secs(2);
    c.obs.snapshot_every_us = Some(250_000);
    let (_, obs) = run_observed(c);
    let ats: Vec<u64> = obs.snapshots.iter().map(|s| s.at_us).collect();
    let expected: Vec<u64> = (1..=8).map(|k| k * 250_000).collect();
    assert_eq!(ats, expected, "one snapshot per simulated boundary");
    // Ops-done is monotone along the run and ends near the final count.
    for w in obs.snapshots.windows(2) {
        assert!(w[0].ops_done <= w[1].ops_done);
    }
    assert!(obs.snapshots.last().expect("nonempty").ops_done > 0);
}

#[test]
fn fault_firings_become_events() {
    let mut c = faulted(LatencyModel::lan());
    c.obs = ObsOptions::full();
    let (m, obs) = run_observed(c);
    let faults: Vec<_> = obs
        .events
        .events()
        .filter(|e| matches!(e.kind, EventKind::Fault { .. }))
        .collect();
    assert_eq!(faults.len() as u64, m.injected_faults);
    let jsonl = obs.events_jsonl();
    assert!(jsonl.contains(r#""event":"fault""#));
    assert!(jsonl.contains("crash@"), "plan grammar in fault events");
}

#[test]
fn violations_become_events_with_offending_op() {
    let mut c = base(LatencyModel::lan());
    c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(1), 1, 9_999_999, 42);
    c.obs = ObsOptions::full();
    let (m, obs) = run_observed(c);
    assert!(m.lemma_violations > 0, "corruption must trip the monitor");
    let violations: Vec<_> = obs
        .events
        .events()
        .filter_map(|e| match &e.kind {
            EventKind::Violation { op, .. } => Some(op),
            _ => None,
        })
        .collect();
    assert_eq!(violations.len() as u64, m.lemma_violations);
    // The injection-time sweep has no op; any client that later commits a
    // read of the corrupted value is reported *with* the op attached.
    assert!(
        violations.iter().any(|op| op.is_some()),
        "no commit-time violation carried its operation"
    );
    let jsonl = obs.events_jsonl();
    assert!(jsonl.contains(r#""event":"violation""#));
    assert!(jsonl.contains(r#""op":{"#), "OpRef serialized");
}

/// The fault weather of the two pinned runs below: a member crash the
/// reactive trigger shrinks around and a recovery it grows back after
/// (`reconfig_fence` spans, `reconfig:` events, stale-generation retries),
/// a scripted `reconfig@`, a forced abort, and a drop window with retries
/// and terminal failures behind it.
fn reconfiguring_weather() -> FaultPlan {
    FaultPlan::new()
        .crash_at(SimTime::from_millis(300), 4)
        .recover_at(SimTime::from_millis(900), 4)
        .abort_at(SimTime::from_millis(500), 1)
        .drop_window(SimTime::from_millis(1100), SimTime::from_millis(200), 400)
        .reconfig_at(
            SimTime::from_millis(1500),
            ReconfigTarget::Members([0usize, 1, 2, 3].into_iter().collect()),
        )
}

/// One faulted, reactively reconfiguring single-item run under full
/// observation.
fn reconfiguring_single() -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Rowa::new(5)));
    c.read_fraction = 0.5;
    c.duration = SimTime::from_secs(2);
    c.seed = 29;
    c.faults = reconfiguring_weather();
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c.reconfig = ReconfigPolicy::reactive();
    c.obs = ObsOptions::full();
    c.obs.snapshot_every_us = Some(250_000);
    c
}

/// Its sharded twin, with a late `corrupt@` on top so the per-item
/// violation text (`item=… client=…`) is under the pin too.
fn reconfiguring_sharded() -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Rowa::new(5)));
    c.items = 8;
    c.shards = 4;
    c.clients_per_shard = 2;
    c.read_fraction = 0.5;
    c.duration = SimTime::from_secs(2);
    c.seed = 29;
    c.faults = reconfiguring_weather().corrupt_at(SimTime::from_millis(1950), 0, 999, 123);
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c.reconfig = ReconfigPolicy::reactive();
    c
}

/// The absolute pin behind the invisibility and invariance tests above:
/// everything `ObsOptions::full()` records (phase spans, the causal
/// profile, the event log with its fault, reconfiguration and snapshot
/// records) for one faulted, reactively reconfiguring single-item run.
#[test]
fn reconfiguring_single_item_obs_digest_is_pinned() {
    let c = reconfiguring_single();
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        let (m, obs) = run_observed(SimConfig { queue, ..c.clone() });
        assert!(
            m.reconfigurations >= 3,
            "reconfigurations {}",
            m.reconfigurations
        );
        assert!(m.stale_rejections > 0 && m.forced_aborts == 1);
        assert_eq!(m.lemma_violations, 0, "{:?}", m.violations);
        assert_eq!(obs.digest(), 630950429396481429, "{queue:?}");
    }
}

/// The sharded twin's pin.
#[test]
fn reconfiguring_sharded_obs_digest_is_pinned() {
    let c = reconfiguring_sharded();
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        for threads in [1, 2, 4] {
            let opts = full_every(250_000);
            let (r, obs) = observed(&MultiConfig { queue, ..c.clone() }, threads, opts);
            assert!(r.metrics.reconfigurations >= 3 * c.items as u64);
            assert!(r.metrics.stale_rejections > 0 && r.metrics.forced_aborts == 1);
            assert!(
                r.metrics
                    .violations
                    .iter()
                    .any(|v| v.contains("item=0 client=")),
                "no committed op met the corruption: {:?}",
                r.metrics.violations
            );
            assert_eq!(
                obs.digest(),
                17389884464033808329,
                "{queue:?}, {threads} threads"
            );
        }
    }
}

/// Phase spans and causal traces are two folds of one segment chain per
/// coordinator, written when either recorder is on. Each recorder must
/// record alone exactly what it records beside the other, and the spans
/// must still sum to the committed latency: a chain left behind by an op
/// that ends without committing (forced, failed, stale then failed) would
/// leak into the coordinator's next op — in every arm, or in one arm and
/// not another.
#[test]
fn spans_and_causal_record_the_same_alone_and_together() {
    let spans_only = ObsOptions {
        spans: true,
        ..ObsOptions::disabled()
    };
    let causal_only = ObsOptions {
        causal: CausalOptions::profile(),
        ..ObsOptions::disabled()
    };
    let e2e = |m: &Metrics| m.reads.latency_hist().sum() + m.writes.latency_hist().sum();
    let single = |obs| {
        let (m, report) = run_observed(SimConfig {
            obs,
            ..reconfiguring_single()
        });
        (e2e(&m), report)
    };
    let sharded = |obs| {
        let (r, obs) = observed(&reconfiguring_sharded(), 2, obs);
        (e2e(&r.metrics), obs)
    };
    for (driver, run) in [
        ("single", &single as &dyn Fn(ObsOptions) -> (u64, ObsReport)),
        ("sharded", &sharded),
    ] {
        let (_, full) = run(reconfiguring_single().obs);
        assert!(full.causal.profile().txns() > full.causal.profile().committed());
        let (latency, spans) = run(spans_only);
        assert_eq!(spans.spans.total_us(), latency, "{driver}");
        for phase in PHASES {
            let (alone, together) = (spans.spans.hist(phase), full.spans.hist(phase));
            assert_eq!(alone, together, "{driver}: {phase:?}");
        }
        assert_eq!(
            run(causal_only).1.causal.digest(),
            full.causal.digest(),
            "{driver}"
        );
    }
}
