//! Golden-trace snapshots: pinned-seed runs must regenerate byte-identical
//! JSON trace files.
//!
//! The snapshot files under `tests/golden/` are committed; this test
//! re-runs each scenario and compares the serialized trace against the
//! file.  To bless new snapshots after an intentional change to the trace
//! format or the simulator's event order, run
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qc-sim --test golden
//! ```
//!
//! and commit the rewritten files.

use std::path::PathBuf;
use std::sync::Arc;

use nested_txn::{BankingGen, WorkloadKind};
use qc_replication::conformance::{check_trace_tapped, project_trace};
use qc_sim::{
    check_trace, run_observed, run_sharded_with, run_traced, run_txn_causal, run_txn_with,
    trace_to_json, CausalOptions, ContactPolicy, DivergenceKind, ElasticPolicy, FaultPlan,
    LatencyModel, MultiConfig, ObsOptions, ObsRecorder, PlacementPolicy, PlacementReport,
    QueueKind, ReconfigPolicy, RetryPolicy, ScheduleTrace, SeedPlacement, ShardReport, SimConfig,
    SimTime, TmKind, TraceAction, Traces, TxnConfig, TxnReport, TxnTrace, Workload,
};
use quorum::{Majority, QuorumSpec};

/// Every snapshot is regenerated under both event-queue implementations,
/// in-process: one committed file, two runs that must both reproduce it.
const QUEUES: [QueueKind; 2] = [QueueKind::Calendar, QueueKind::Heap];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).join(name)
}

fn compare(name: &str, json: String) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &json).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        json, expected,
        "output for {name} drifted from its snapshot; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Compare a schedule trace against its snapshot, and pin the streamed
/// oracle on it: the operations `check_trace` steps serial system A with
/// are the collected projection `project_trace` returns, op for op, each
/// from the same trace event.
fn compare_trace(name: &str, trace: &ScheduleTrace, quorum: &dyn QuorumSpec) {
    compare(name, trace_to_json(trace));
    let mut stepped = Vec::new();
    let report = check_trace_tapped(trace, quorum, |op, src| stepped.push((op.clone(), src)))
        .unwrap_or_else(|d| panic!("{name} does not conform: {d}"));
    let (alpha, src) = project_trace(trace);
    assert_eq!(report.alpha_len, alpha.len(), "{name}");
    assert!(
        stepped
            .into_iter()
            .eq(alpha.into_vec().into_iter().zip(src)),
        "{name}: the replay stepped something other than the projection"
    );
}

fn check(name: &str, config: SimConfig) {
    for queue in QUEUES {
        let (_, trace) = run_traced(SimConfig {
            queue,
            ..config.clone()
        });
        compare_trace(name, &trace, &*config.quorum);
    }
}

fn small(seed: u64) -> SimConfig {
    let mut config = SimConfig::new(Arc::new(Majority::new(3)));
    config.clients = 2;
    config.read_fraction = 0.5;
    config.latency = LatencyModel::Fixed(SimTime(400));
    config.contact = ContactPolicy::AllLive;
    config.think_time = SimTime::from_millis(1);
    config.duration = SimTime::from_millis(25);
    config.mttf = None;
    config.seed = seed;
    config
}

/// A short healthy run: every event healthy, traces byte-stable.
#[test]
fn healthy_snapshot_is_stable() {
    check("healthy_majority3_seed7.json", small(7));
}

/// A short faulted run: a crash/recover window plus a forced abort and
/// retries, exercising faulted tags and ABORT reasons in the snapshot.
#[test]
fn faulted_snapshot_is_stable() {
    let mut config = small(11);
    config.faults =
        FaultPlan::parse("crash@5:0;recover@14:0;abort@8:1").expect("fault plan parses");
    config.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    check("faulted_majority3_seed11.json", config);
}

/// A crash-then-reconfigure run: a site crashes, a scripted shrink writes
/// the new configuration to a write quorum of the old members, stale
/// attempts abort and retry at the new generation, and a second scripted
/// reconfiguration grows back to the recovered live set. Pins the
/// READ-CFG/WRITE-CFG trace records and the ABORT(stale) encoding.
#[test]
fn reconfig_snapshot_is_stable() {
    let mut config = small(17);
    config.duration = SimTime::from_millis(30);
    config.reconfig = ReconfigPolicy::scripted_only();
    config.faults = FaultPlan::parse("crash@5:2;reconfig@12:0+1;recover@20:2;reconfig@24:live")
        .expect("fault plan parses");
    config.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    for queue in QUEUES {
        let (metrics, trace) = run_traced(SimConfig {
            queue,
            ..config.clone()
        });
        assert_eq!(
            metrics.reconfigurations, 2,
            "both scripted reconfigurations run"
        );
        assert!(
            metrics.stale_rejections > 0,
            "the shrink must strand a stale cache"
        );
        assert_eq!(metrics.lemma_violations, 0);
        compare_trace("reconfig_majority3_seed17.json", &trace, &*config.quorum);
    }
}

fn txn_banking() -> TxnConfig {
    let mut config = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    config.items = 4;
    config.domains = 1;
    config.clients_per_domain = 2;
    config.latency = LatencyModel::Fixed(SimTime(400));
    config.think = SimTime::from_millis(1);
    config.duration = SimTime::from_millis(60);
    config.seed = 17;
    config
}

/// A short nested-transaction banking run: the item-0 schedule — quorum
/// TM blocks issued by nested program leaves, plus compensating writes
/// from doomed subtrees — is byte-stable.
#[test]
fn txn_banking_snapshot_is_stable() {
    for queue in QUEUES {
        let config = TxnConfig {
            queue,
            ..txn_banking()
        };
        let (report, traces) = run_txn_traces(&config, 1);
        assert!(report.stats.txns_committed > 0, "{:?}", report.stats);
        assert_eq!(
            report.stats.lemma_violations, 0,
            "{:?}",
            report.stats.violations
        );
        compare_trace("txn_banking_seed17.json", &traces[0], &*config.quorum);
    }
}

/// The causal companion to `txn_banking_snapshot_is_stable`: the same
/// pinned-seed run's span trees, serialized as a `qc-events-v1` JSONL
/// stream, are byte-stable — pinning the flight-recorder wire format
/// alongside the schedule-trace format.
#[test]
fn txn_banking_causal_jsonl_is_stable() {
    for queue in QUEUES {
        let config = TxnConfig {
            queue,
            causal: CausalOptions::full(),
            ..txn_banking()
        };
        let (report, causal) = run_txn_causal(&config, 1);
        assert!(report.stats.txns_committed > 0, "{:?}", report.stats);
        let p = causal.profile();
        assert_eq!(p.reconciled(), p.txns(), "every critical path reconciles");
        compare("txn_banking_causal_seed17.jsonl", causal.to_jsonl());
    }
}

/// A causally mutated span tree must be rejected: swapping two adjacent
/// segments on a leaf span breaks the gap-free edge chain (the second
/// edge would begin before the first ended), and `verify` must say so.
/// The same mutation applied to the serialized JSONL line is caught
/// after a parse round-trip, so a doctored recording cannot pass as a
/// genuine one.
#[test]
fn reordered_causal_edge_is_rejected() {
    let mut config = txn_banking();
    config.causal = CausalOptions::full();
    let (_, causal) = run_txn_causal(&config, 1);
    let good = causal
        .all()
        .iter()
        .find(|t| {
            t.spans
                .iter()
                .any(|s| s.segs.len() >= 2 && s.segs[0].dur_us != s.segs[1].dur_us)
        })
        .expect("the banking run produces a span with distinct chained edges");
    good.verify()
        .expect("unmutated trace is causally consistent");

    let mut bad = good.clone();
    let span = bad
        .spans
        .iter_mut()
        .find(|s| s.segs.len() >= 2 && s.segs[0].dur_us != s.segs[1].dur_us)
        .expect("found above");
    span.segs.swap(0, 1);
    let err = bad.verify().expect_err("a reordered edge must not verify");
    assert!(
        err.contains("edge out of order"),
        "wrong rejection for a reordered edge: {err}"
    );

    // And through the wire format: parse-back of the mutated line is
    // rejected identically, so the JSONL stream carries the invariant.
    let reparsed = TxnTrace::parse_json_line(&bad.to_json_line())
        .expect("the mutated line still parses — rejection is semantic");
    assert!(
        reparsed.verify().is_err(),
        "a doctored JSONL recording must fail verification"
    );
    let roundtrip = TxnTrace::parse_json_line(&good.to_json_line()).expect("good line parses");
    assert_eq!(
        roundtrip.to_json_line(),
        good.to_json_line(),
        "round-trip is identity"
    );
}

/// A hand-mutated trace must be rejected: flipping one committed write's
/// version number makes the schedule diverge from the serial single-copy
/// object, and the checker must say so at the first divergent action —
/// the mutated event itself — not somewhere downstream.
#[test]
fn mutated_txn_trace_is_rejected_at_first_divergence() {
    let config = txn_banking();
    let (_, traces) = run_txn_traces(&config, 1);
    let good = &traces[0];
    check_trace(good, &*config.quorum).expect("unmutated trace conforms");

    let mutated_at = good
        .events
        .iter()
        .position(|e| matches!(e.action, TraceAction::WriteDm { .. }))
        .expect("the banking run writes item 0");
    let mut bad = good.clone();
    let mut events = bad.events.to_vec();
    let TraceAction::WriteDm { vn, .. } = &mut events[mutated_at].action else {
        unreachable!()
    };
    *vn += 7;
    bad.events = events.into();
    let d =
        check_trace(&bad, &*config.quorum).expect_err("a mutated version number must not replay");
    assert_eq!(
        d.event, mutated_at,
        "divergence reported at event {} instead of the mutated action: {d}",
        d.event
    );

    // Mutating a committed value is caught too (at the commit that
    // installs it, where the serial object's state diverges).
    let value_at = good
        .events
        .iter()
        .position(|e| matches!(e.action, TraceAction::RequestCommit { .. }))
        .expect("a committed TM block exists");
    let mut bad = good.clone();
    let mut events = bad.events.to_vec();
    let TraceAction::RequestCommit { value, .. } = &mut events[value_at].action else {
        unreachable!()
    };
    *value ^= 0xDEAD;
    bad.events = events.into();
    check_trace(&bad, &*config.quorum).expect_err("a mutated commit value must not replay");
}

fn migration_config() -> MultiConfig {
    let mut config = MultiConfig::new(Arc::new(Majority::new(3)));
    config.items = 4;
    config.shards = 2;
    config.read_fraction = 0.5;
    config.workload = Workload::Routed {
        interarrival: SimTime::from_millis(1),
    };
    config.duration = SimTime::from_millis(25);
    config.seed = 17;
    config.reconfig = ReconfigPolicy::scripted_only();
    // Rebalancing disabled: the one scripted move is the only migration.
    config.placement = PlacementPolicy::Elastic(ElasticPolicy {
        seed: SeedPlacement::RoundRobin,
        max_moves_per_epoch: 0,
        ..ElasticPolicy::new()
    });
    config.faults = FaultPlan::parse("migrate@10:0->1").expect("fault plan parses");
    config
}

/// A scripted hot-item migration: item 0 leaves its round-robin home for
/// shard 1 at 10 ms via a same-members generation bump; the new owner's
/// first attempt stale-rejects, adopts the bumped generation, and
/// retries. The migrated item's cross-shard schedule is byte-stable.
#[test]
fn migration_snapshot_is_stable() {
    for queue in QUEUES {
        let config = MultiConfig {
            queue,
            ..migration_config()
        };
        let (report, traces, placement) = run_elastic_traces(&config, 2);
        assert_eq!(placement.migrations, 1, "{placement:?}");
        assert_eq!(report.metrics.reconfigurations, 1);
        assert!(
            report.metrics.stale_rejections > 0,
            "the §4 fence must fire"
        );
        assert_eq!(
            report.metrics.lemma_violations, 0,
            "{:?}",
            report.metrics.violations
        );
        compare_trace(
            "migration_majority3_seed17.json",
            &traces[0],
            &*config.quorum,
        );
    }
}

/// A migration installed without a configuration write quorum must be
/// rejected: stripping the WRITE-CFG records from the migration's
/// reconfigure-TM leaves a generation bump no old-member quorum
/// witnessed, and the checker must flag it at the first divergent action
/// — the reconfigure's own REQUEST-COMMIT.
#[test]
fn migration_without_config_write_quorum_is_rejected() {
    let config = migration_config();
    let (_, traces, _) = run_elastic_traces(&config, 2);
    let good = &traces[0];
    check_trace(good, &*config.quorum).expect("unmutated trace conforms");

    let reconfig_tid = good
        .events
        .iter()
        .find(|e| {
            matches!(
                e.action,
                TraceAction::Create {
                    kind: TmKind::Reconfig
                }
            )
        })
        .expect("the migration runs a reconfigure-TM")
        .tid;
    let mut bad = good.clone();
    let mut events = bad.events.to_vec();
    events.retain(|e| !(e.tid == reconfig_tid && matches!(e.action, TraceAction::WriteCfg { .. })));
    bad.events = events.into();
    assert!(
        bad.events.len() < good.events.len(),
        "WRITE-CFG records were present"
    );
    let mutated_at = bad
        .events
        .iter()
        .position(|e| {
            e.tid == reconfig_tid && matches!(e.action, TraceAction::RequestCommit { .. })
        })
        .expect("the reconfigure-TM requests commit");
    let d = check_trace(&bad, &*config.quorum)
        .expect_err("an unwitnessed generation bump must not replay");
    assert!(
        matches!(d.kind, DivergenceKind::NoConfigWriteQuorum),
        "wrong divergence: {d}"
    );
    assert_eq!(
        d.event, mutated_at,
        "divergence reported at event {} instead of the first divergent action: {d}",
        d.event
    );
}

/// The `qc-events-v1` JSONL event-log format is pinned byte for byte: a
/// seeded faulted run (plan faults, a corrupt-injection violation, and
/// periodic snapshots) must regenerate its event log exactly.
#[test]
fn event_log_format_is_stable() {
    let mut config = small(13);
    config.duration = SimTime::from_millis(40);
    config.faults = FaultPlan::parse("crash@5:0;recover@14:0;abort@8:1;corrupt@20:1,999,77")
        .expect("fault plan parses");
    config.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    config.obs = ObsOptions::full();
    config.obs.snapshot_every_us = Some(10_000);
    for queue in QUEUES {
        let (metrics, obs) = run_observed(SimConfig {
            queue,
            ..config.clone()
        });
        assert!(
            metrics.lemma_violations > 0,
            "scenario must emit violations"
        );
        compare("events_majority3_seed13.jsonl", obs.events_jsonl());
    }
}

/// The nested driver's `qc-events-v1` event log: a faulted banking run over
/// two domains logs what the flat drivers log — planned faults as they
/// fire, reconfiguration fences per item and lemma violations (a corrupt
/// injection, the commits that meet it, the end-of-run sweep) — the same
/// at 1 and 2 threads under both queues. The nested loop emits no clock,
/// so the log holds no snapshots.
#[test]
fn txn_event_log_format_is_stable() {
    let mut config = txn_banking();
    config.items = 8;
    config.domains = 2;
    config.reconfig = ReconfigPolicy::scripted_only();
    config.faults = FaultPlan::parse(
        "crash@5:2;abort@8:1;drop@10:5,300;corrupt@20:1,999,77;reconfig@30:live;\
         recover@40:2;reconfig@45:live",
    )
    .expect("fault plan parses");
    config.retry = RetryPolicy::retries(3, SimTime::from_millis(2));
    for queue in QUEUES {
        for threads in [1, 2] {
            let config = TxnConfig {
                queue,
                ..config.clone()
            };
            let mut obs = ObsRecorder::new(ObsOptions::full());
            let report = run_txn_with(&config, threads, &mut obs);
            let stats = &report.stats;
            assert!(stats.lemma_violations > 0, "{stats:?}");
            assert!(stats.reconfigurations > 0, "{stats:?}");
            compare(
                "txn_events_majority3_seed17.jsonl",
                obs.into_report().events_jsonl(),
            );
        }
    }
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

/// The report and one schedule trace per item.
fn run_txn_traces(c: &TxnConfig, threads: usize) -> (TxnReport, Vec<ScheduleTrace>) {
    let mut traces = Traces::new(&*c.quorum, c.seed, c.items);
    let report = run_txn_with(c, threads, &mut traces);
    (report, traces.into_traces())
}
