//! Theorem 10 conformance: every simulated run, traced as an ordered
//! I/O-automaton schedule, must project (by erasing its replica-access
//! actions) onto a schedule the non-replicated serial system A accepts.
//!
//! The suite replays the pinned-seed scenarios of `determinism.rs` and
//! `faults.rs` through `qc_replication::check_trace`, asserts that tracing
//! never perturbs a run (traced and untraced metrics are byte-identical),
//! and hand-mutates recorded traces to prove the checker rejects
//! non-conforming schedules at the right divergence point.

use std::sync::Arc;

use qc_sim::{
    check_trace, run, run_traced, AbortReason, ConformanceReport, ContactPolicy, DivergenceKind,
    FaultPlan, LatencyModel, Metrics, QueueKind, ReconfigPolicy, ReconfigTarget, RetryPolicy,
    ScheduleTrace, SimConfig, SimTime, TmKind, TraceAction, TraceEvent,
};
use quorum::{Majority, ReplicaSet, Rowa};

/// Run traced, assert the trace conforms, and return everything.
fn assert_conforms(c: SimConfig) -> (Metrics, ScheduleTrace, ConformanceReport) {
    let q = Arc::clone(&c.quorum);
    let (m, t) = run_traced(c);
    match check_trace(&t, &*q) {
        Ok(report) => (m, t, report),
        Err(d) => panic!("trace failed Theorem 10 conformance: {d}"),
    }
}

/// Total aborted transactions a run's trace must contain: every failed
/// attempt (retried or final) plus every forced abort is a transaction
/// that was never created.
fn expected_aborts(m: &Metrics) -> usize {
    let total = m.reads.retries
        + m.writes.retries
        + m.reads.unavailable
        + m.writes.unavailable
        + m.reads.timeouts
        + m.writes.timeouts
        + m.forced_aborts;
    usize::try_from(total).expect("abort count fits usize")
}

// ---------------------------------------------------------------------------
// The pinned scenarios of determinism.rs.
// ---------------------------------------------------------------------------

fn healthy(policy: ContactPolicy) -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.contact = policy;
    c.duration = SimTime::from_secs(2);
    c.seed = 7;
    c
}

fn faulted(policy: ContactPolicy) -> SimConfig {
    let mut c = healthy(policy);
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(300), 1)
        .crash_at(SimTime::from_millis(400), 3)
        .recover_at(SimTime::from_millis(900), 1)
        .recover_at(SimTime::from_millis(1100), 3)
        .abort_at(SimTime::from_millis(500), 0)
        .abort_at(SimTime::from_millis(600), 2)
        .drop_window(SimTime::from_millis(1200), SimTime::from_millis(200), 300)
        .delay_window(
            SimTime::from_millis(1500),
            SimTime::from_millis(200),
            SimTime::from_millis(2),
        );
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c.record_history = true;
    c
}

#[test]
fn determinism_scenarios_conform() {
    for policy in [ContactPolicy::AllLive, ContactPolicy::MinimalQuorum] {
        let (m, t, report) = assert_conforms(healthy(policy));
        assert_eq!(
            u64::try_from(report.committed).expect("fits"),
            m.reads.successes + m.writes.successes
        );
        assert_eq!(report.aborted, expected_aborts(&m));
        assert_eq!(report.faulted_events, 0, "healthy run tagged faulted");
        assert_eq!(t.sites, 5);

        let (m, t, report) = assert_conforms(faulted(policy));
        assert_eq!(
            u64::try_from(report.committed).expect("fits"),
            m.reads.successes + m.writes.successes
        );
        assert_eq!(report.aborted, expected_aborts(&m));
        assert!(
            report.faulted_events > 0,
            "fault windows left no tagged events"
        );
        assert!(
            t.events.iter().any(|e| !e.faulted),
            "healthy periods missing"
        );
    }
}

/// Tracing is observational: a traced run commits exactly what the
/// untraced run commits, down to the full `Debug` rendering of the
/// metrics (the same contract the pinned digests enforce).
#[test]
fn tracing_does_not_perturb_the_run() {
    for policy in [ContactPolicy::AllLive, ContactPolicy::MinimalQuorum] {
        let plain = run(healthy(policy));
        let (traced, _) = run_traced(healthy(policy));
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));

        let plain = run(faulted(policy));
        let (traced, _) = run_traced(faulted(policy));
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    }
}

/// The checked single-item run the host-cost benchmark times (seed 23,
/// 20 simulated seconds, 8 closed-loop clients, 50 % reads, Majority(5),
/// minimal-quorum contact): every field of its conformance report is
/// pinned, so a change to how the oracle carries α or how system A keeps
/// its state cannot quietly check less.
#[test]
fn the_benchmarked_checked_run_reports_what_it_always_did() {
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.clients = 8;
    c.think_time = SimTime::ZERO;
    c.read_fraction = 0.5;
    c.contact = ContactPolicy::MinimalQuorum;
    c.duration = SimTime::from_secs(20);
    c.seed = 23;
    c.queue = QueueKind::Calendar;
    let (_, _, report) = assert_conforms(c);
    assert_eq!(
        report,
        ConformanceReport {
            events: 850_995,
            committed: 113_449,
            aborted: 0,
            erased: 510_648,
            alpha_len: 453_797,
            faulted_events: 0,
            max_vn: 56_767,
        }
    );
}

// ---------------------------------------------------------------------------
// The fault-injection scenarios of faults.rs.
// ---------------------------------------------------------------------------

fn base() -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Majority::new(3)));
    c.duration = SimTime::from_secs(4);
    c.read_fraction = 0.5;
    c
}

#[test]
fn total_outage_conforms() {
    let mut c = base();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(1), 0)
        .crash_at(SimTime::from_secs(1), 1)
        .crash_at(SimTime::from_secs(1), 2)
        .recover_at(SimTime::from_secs(2), 0)
        .recover_at(SimTime::from_secs(2), 1)
        .recover_at(SimTime::from_secs(2), 2);
    let (m, t, report) = assert_conforms(c);
    assert!(m.reads.unavailable + m.writes.unavailable > 100);
    assert!(report.aborted > 100, "outage aborts missing from the trace");
    // Unavailable fail-fast attempts happen while sites are down, so they
    // must carry the faulted tag.
    assert!(
        t.events
            .iter()
            .any(|e| e.faulted && matches!(e.action, TraceAction::Abort { .. })),
        "no faulted ABORT recorded during the outage"
    );
}

#[test]
fn retry_bridged_outage_conforms() {
    let mut c = base();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(1), 0)
        .crash_at(SimTime::from_secs(1), 1)
        .crash_at(SimTime::from_secs(1), 2)
        .recover_at(SimTime::from_millis(1400), 0)
        .recover_at(SimTime::from_millis(1400), 1)
        .recover_at(SimTime::from_millis(1400), 2);
    c.retry = RetryPolicy::retries(10, SimTime::from_millis(50));
    let (m, t, report) = assert_conforms(c);
    assert!(m.reads.retries + m.writes.retries > 0);
    assert_eq!(report.aborted, expected_aborts(&m));
    // A retry-bridged operation shows up as an aborted attempt followed by
    // a committed attempt of the same (client, op) with a higher attempt
    // number.
    assert!(
        t.events.iter().any(|e| e.tid.attempt > 1),
        "no retried attempt reached the trace"
    );
}

#[test]
fn rowa_write_quorum_loss_conforms() {
    let mut c = SimConfig::new(Arc::new(Rowa::new(3)));
    c.duration = SimTime::from_secs(3);
    c.read_fraction = 0.5;
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(1), 2)
        .recover_at(SimTime::from_secs(2), 2);
    let (m, _, report) = assert_conforms(c);
    assert!(m.writes.unavailable > 0);
    assert_eq!(report.aborted, expected_aborts(&m));
}

#[test]
fn drop_window_conforms() {
    let mut c = base();
    c.faults = FaultPlan::new().drop_window(SimTime::from_secs(1), SimTime::from_secs(2), 400);
    c.retry = RetryPolicy::retries(4, SimTime::from_millis(2));
    c.record_history = true;
    let (m, _, _) = assert_conforms(c);
    assert!(m.dropped_messages > 100);
}

#[test]
fn delay_window_conforms() {
    let mut c = base();
    c.faults = FaultPlan::new().delay_window(
        SimTime::ZERO,
        SimTime::from_secs(4),
        SimTime::from_millis(5),
    );
    let (_, t, _) = assert_conforms(c);
    // The delay window spans the whole run: every event is in a faulted
    // period.
    assert!(t.events.iter().all(|e| e.faulted));
}

#[test]
fn in_flight_crash_conforms() {
    let mut c = base();
    c.latency = LatencyModel::Fixed(SimTime::from_millis(20));
    c.timeout = SimTime::from_millis(100);
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(30), 0)
        .crash_at(SimTime::from_millis(30), 1)
        .crash_at(SimTime::from_millis(30), 2);
    c.duration = SimTime::from_secs(2);
    let (m, _, report) = assert_conforms(c);
    assert_eq!(m.reads.successes + m.writes.successes, 0);
    assert_eq!(report.committed, 0);
    assert_eq!(
        report.max_vn, 0,
        "nothing committed, so no version advanced"
    );
}

#[test]
fn zero_think_time_outage_conforms() {
    let mut c = base();
    c.think_time = SimTime::ZERO;
    c.duration = SimTime::from_secs(2);
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(500), 0)
        .crash_at(SimTime::from_millis(500), 1)
        .crash_at(SimTime::from_millis(500), 2)
        .recover_at(SimTime::from_millis(1500), 0)
        .recover_at(SimTime::from_millis(1500), 1)
        .recover_at(SimTime::from_millis(1500), 2);
    let (_, _, report) = assert_conforms(c);
    assert!(report.committed > 0 && report.aborted > 0);
}

#[test]
fn forced_aborts_conform_and_are_tagged() {
    let mut c = base();
    c.read_fraction = 0.0;
    c.faults = FaultPlan::new()
        .abort_at(SimTime::from_millis(100), 0)
        .abort_at(SimTime::from_millis(200), 1);
    let (m, t, report) = assert_conforms(c);
    assert_eq!(m.forced_aborts, 2);
    assert_eq!(report.aborted, 2);
    let forced: Vec<_> = t
        .events
        .iter()
        .filter(|e| matches!(e.action, TraceAction::Abort { .. }))
        .collect();
    assert_eq!(forced.len(), 2);
    assert!(
        forced.iter().all(|e| e.faulted),
        "forced aborts must be tagged faulted"
    );
}

#[test]
fn contact_policy_scenarios_conform() {
    for seed in [1u64, 7, 23, 101] {
        for policy in [ContactPolicy::AllLive, ContactPolicy::MinimalQuorum] {
            let mut c = base();
            c.seed = seed;
            c.contact = policy;
            c.latency = LatencyModel::Fixed(SimTime(400));
            c.faults = FaultPlan::new()
                .crash_at(SimTime::from_millis(700), 0)
                .recover_at(SimTime::from_millis(1900), 0)
                .abort_at(SimTime::from_millis(500), 1)
                .abort_at(SimTime::from_millis(2500), 3)
                .delay_window(
                    SimTime::from_millis(2200),
                    SimTime::from_millis(400),
                    SimTime::from_millis(1),
                );
            c.retry = RetryPolicy::retries(3, SimTime::from_millis(10));
            assert_conforms(c);
        }
    }
}

// ---------------------------------------------------------------------------
// Negative controls: corrupted runs and hand-mutated traces must fail
// with the right divergence.
// ---------------------------------------------------------------------------

/// A corrupt injection puts a replica store out of sync with the schedule
/// the protocol actually executed, so the next discovery that touches the
/// corrupted site records a READ-DM no faithful run could produce — and
/// conformance fails there, independent of the lemma monitor.
#[test]
fn corrupted_run_fails_conformance() {
    let mut c = base();
    c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(2), 1, 9_999_999, 42);
    let q = Arc::clone(&c.quorum);
    let (m, t) = run_traced(c);
    assert!(m.lemma_violations > 0, "monitor should fire too");
    let d = check_trace(&t, &*q).expect_err("corrupted run must not conform");
    assert!(
        matches!(d.kind, DivergenceKind::Malformed(_)),
        "unexpected divergence: {d}"
    );
    // The divergent action is the first READ-DM that observed the
    // corrupted store.
    let diverged = t.events.get(d.event).expect("an event").action;
    assert!(
        matches!(diverged, TraceAction::ReadDm { vn: 9_999_999, .. }),
        "diverged at {diverged} instead of the corrupt observation"
    );
}

/// Conformance checking is independent of the `monitor` flag: a corrupted
/// run fails replay even when the in-run lemma probe is disabled.
#[test]
fn conformance_does_not_need_the_monitor() {
    let mut c = base();
    c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(2), 1, 9_999_999, 42);
    c.monitor = false;
    let q = Arc::clone(&c.quorum);
    let (m, t) = run_traced(c);
    assert_eq!(m.lemma_violations, 0, "monitor is off");
    assert!(check_trace(&t, &*q).is_err(), "conformance must still fail");
}

/// With no clients there is no schedule: the trace is empty and vacuously
/// conformant. (Catching a corruption no transaction ever observed is the
/// store sweep's job, not the schedule checker's.)
#[test]
fn no_traffic_trace_is_vacuously_conformant() {
    let mut c = base();
    c.clients = 0;
    c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(1), 0, 7, 7);
    let q = Arc::clone(&c.quorum);
    let (m, t) = run_traced(c);
    assert!(m.lemma_violations > 0, "sweep should still fire");
    assert!(t.events.is_empty());
    let report = check_trace(&t, &*q).expect("empty schedule conforms");
    assert_eq!(report.committed, 0);
}

/// A short healthy run whose trace the mutation tests below operate on.
fn small_recorded_run() -> (ScheduleTrace, Arc<Majority>) {
    let q = Arc::new(Majority::new(3));
    let mut c = SimConfig::new(Arc::clone(&q) as Arc<_>);
    c.duration = SimTime::from_millis(200);
    c.read_fraction = 0.5;
    c.seed = 3;
    let (m, t) = run_traced(c);
    assert!(m.writes.successes > 0, "need at least one committed write");
    (t, q)
}

/// Index of the first write block's REQUEST-COMMIT and the indices of its
/// WRITE-DM installs.
fn first_write_block(events: &[TraceEvent]) -> (usize, Vec<usize>) {
    let mut installs = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.action {
            TraceAction::WriteDm { .. } => installs.push(i),
            TraceAction::RequestCommit { .. } if !installs.is_empty() => return (i, installs),
            _ => {}
        }
    }
    panic!("no committed write in the trace");
}

/// Satellite: a stale version number in a REQUEST-COMMIT — the write
/// claims a version other than the one it installed — is rejected exactly
/// at that action.
#[test]
fn mutated_stale_version_is_rejected() {
    let (mut t, q) = small_recorded_run();
    let mut events = t.events.to_vec();
    let (rc, _) = first_write_block(&events);
    let TraceAction::RequestCommit { vn, value } = events[rc].action else {
        panic!("expected REQUEST-COMMIT at {rc}");
    };
    events[rc].action = TraceAction::RequestCommit { vn: vn + 1, value };
    t.events = events.into();
    let d = check_trace(&t, &*q).expect_err("stale version must not conform");
    assert_eq!(
        d.event, rc,
        "diverged at {} instead of the mutated action",
        d.action
    );
    assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "got: {d}");
}

/// Satellite: a commit without a quorum install — the WRITE-DM actions
/// are erased from the write's block — is rejected at the REQUEST-COMMIT
/// with a missing-write-quorum divergence.
#[test]
fn mutated_commit_without_quorum_install_is_rejected() {
    let (mut t, q) = small_recorded_run();
    let mut events = t.events.to_vec();
    let (rc, installs) = first_write_block(&events);
    for &i in installs.iter().rev() {
        events.remove(i);
    }
    t.events = events.into();
    let rc = rc - installs.len();
    let d = check_trace(&t, &*q).expect_err("installing nowhere must not conform");
    assert_eq!(
        d.event, rc,
        "diverged at {} instead of the gutted commit",
        d.action
    );
    assert_eq!(d.kind, DivergenceKind::NoWriteQuorum, "got: {d}");
}

// ---------------------------------------------------------------------------
// Dynamic quorums: reconfiguring runs conform generation-aware, and
// hand-mutated reconfiguring traces fail at the right divergence.
// ---------------------------------------------------------------------------

/// Total aborted transactions in a *dynamic* run's trace: the static
/// tally plus one `ABORT(stale)` per stale-generation rejection.
fn expected_dynamic_aborts(m: &Metrics) -> usize {
    expected_aborts(m) + usize::try_from(m.stale_rejections).expect("fits")
}

/// The reconfiguring scenarios of determinism.rs, replayed through the
/// generation-aware checker: reconfigure TMs commit as transactions of
/// the schedule, stale rejections appear as aborts, and the Theorem 10
/// projection accepts every generation switch.
#[test]
fn reconfiguring_scenarios_conform() {
    let mut rowa = SimConfig::new(Arc::new(Rowa::new(5)));
    rowa.duration = SimTime::from_secs(2);
    rowa.seed = 21;
    rowa.read_fraction = 0.5;
    rowa.reconfig = ReconfigPolicy::reactive();
    rowa.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(300), 4)
        .recover_at(SimTime::from_millis(1200), 4)
        .reconfig_at(
            SimTime::from_millis(1600),
            ReconfigTarget::Members([0usize, 1, 2, 3].into_iter().collect()),
        );
    rowa.retry = RetryPolicy::retries(3, SimTime::from_millis(5));

    let mut majority = SimConfig::new(Arc::new(Majority::new(5)));
    majority.duration = SimTime::from_secs(2);
    majority.seed = 33;
    majority.read_fraction = 0.5;
    majority.reconfig = ReconfigPolicy::scripted_only();
    majority.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(250), 1)
        .recover_at(SimTime::from_millis(1000), 1)
        .reconfig_at(
            SimTime::from_millis(700),
            ReconfigTarget::Members([0usize, 2, 3, 4].into_iter().collect()),
        )
        .reconfig_at(SimTime::from_millis(1400), ReconfigTarget::Live);
    majority.retry = RetryPolicy::retries(3, SimTime::from_millis(5));

    for c in [rowa, majority] {
        let (m, t, report) = assert_conforms(c);
        assert!(m.reconfigurations > 0, "no reconfiguration fired");
        assert_eq!(
            u64::try_from(report.committed).expect("fits"),
            m.reads.successes + m.writes.successes + m.reconfigurations,
            "committed TMs = data commits + reconfigure TMs"
        );
        assert_eq!(report.aborted, expected_dynamic_aborts(&m));
        assert!(
            t.events.iter().any(|e| matches!(
                e.action,
                TraceAction::Abort {
                    reason: AbortReason::Stale,
                    ..
                }
            )) == (m.stale_rejections > 0),
            "stale rejections and ABORT(stale) events must agree"
        );
    }
}

/// A recorded reconfiguring run the mutation tests below operate on: one
/// scripted shrink in calm weather, so the trace has a single reconfigure
/// block followed by plenty of generation-1 data blocks.
fn recorded_reconfiguring_run() -> (ScheduleTrace, Arc<Majority>) {
    let q = Arc::new(Majority::new(5));
    let mut c = SimConfig::new(Arc::clone(&q) as Arc<_>);
    c.duration = SimTime::from_secs(1);
    // Writes only, so the first post-reconfigure block is a write block
    // for the stale-generation mutation to target.
    c.read_fraction = 0.0;
    c.seed = 5;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.faults = FaultPlan::new().reconfig_at(
        SimTime::from_millis(500),
        ReconfigTarget::Members([0usize, 1, 2, 3].into_iter().collect()),
    );
    let (m, t) = run_traced(c);
    assert_eq!(
        m.reconfigurations, 1,
        "exactly the scripted reconfiguration"
    );
    check_trace(&t, &*q).expect("the unmutated trace conforms");
    (t, q)
}

/// Event bounds of the reconfigure block: (CREATE index, COMMIT index).
fn reconfig_block(events: &[TraceEvent]) -> (usize, usize) {
    let create = events
        .iter()
        .position(|e| {
            matches!(
                e.action,
                TraceAction::Create {
                    kind: TmKind::Reconfig
                }
            )
        })
        .expect("a reconfigure CREATE");
    let tid = events[create].tid;
    let commit = events[create..]
        .iter()
        .position(|e| e.tid == tid && matches!(e.action, TraceAction::Commit))
        .expect("the reconfigure COMMIT")
        + create;
    (create, commit)
}

/// Satellite: a stale-generation write accepted by the run. The
/// configuration install is thinned to a bare config write quorum (still
/// conformant), leaving two holdout sites at generation 0; the first
/// post-reconfigure write block is then rewritten to have discovered only
/// those stale holdouts — a write the protocol must reject, and the
/// checker rejects its REQUEST-COMMIT as the first divergent action with
/// `StaleGeneration`.
#[test]
fn mutated_stale_generation_commit_is_rejected() {
    let (mut t, q) = recorded_reconfiguring_run();
    let mut events = t.events.to_vec();
    let (_, commit) = reconfig_block(&events);

    // Thin the WRITE-CFG installs to the first three (a config write
    // quorum of the five old members), leaving the rest at generation 0.
    let installs: Vec<usize> = events[..commit]
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.action, TraceAction::WriteCfg { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(installs.len() > 3, "need holdout sites beyond the quorum");
    let mut holdouts = ReplicaSet::EMPTY;
    for &i in installs[3..].iter().rev() {
        let TraceAction::WriteCfg { site, .. } = events[i].action else {
            unreachable!();
        };
        holdouts.insert(usize::from(site));
        events.remove(i);
    }
    let commit = commit - (installs.len() - 3);
    assert!(!holdouts.is_empty());

    // Find the first post-reconfigure write block and rewrite its
    // configuration reads to the stale holdouts.
    let create = events[commit..]
        .iter()
        .position(|e| {
            matches!(
                e.action,
                TraceAction::Create {
                    kind: TmKind::Write
                }
            )
        })
        .expect("a post-reconfigure write block")
        + commit;
    let tid = events[create].tid;
    let rc = events[create..]
        .iter()
        .position(|e| e.tid == tid && matches!(e.action, TraceAction::RequestCommit { .. }))
        .expect("the block's REQUEST-COMMIT")
        + create;
    // Drop the block's recorded generation-1 READ-CFGs...
    let cfg_reads: Vec<usize> = (create..rc)
        .filter(|&i| {
            events[i].tid == tid && matches!(events[i].action, TraceAction::ReadCfg { .. })
        })
        .collect();
    assert!(!cfg_reads.is_empty(), "dynamic blocks carry READ-CFG");
    for &i in cfg_reads.iter().rev() {
        events.remove(i);
    }
    let rc = rc - cfg_reads.len();
    // ...and replace them with faithful generation-0 reads at the
    // holdouts, as if discovery had only ever reached the stale minority.
    let template = events[create];
    for (k, site) in holdouts.iter().enumerate() {
        let mut ev = template;
        let site = u8::try_from(site).expect("a five-site run");
        ev.action = TraceAction::ReadCfg { site, gen: 0 };
        events.insert(create + 1 + k, ev);
    }
    let rc = rc + holdouts.len();
    t.events = events.into();

    let d = check_trace(&t, &*q).expect_err("a stale-generation commit must not conform");
    assert_eq!(
        d.event, rc,
        "diverged at {} instead of the stale commit",
        d.action
    );
    assert_eq!(d.kind, DivergenceKind::StaleGeneration, "got: {d}");
}

/// Satellite: a configuration installed without a write quorum of the
/// *old* configuration — every WRITE-CFG of the reconfigure block is
/// erased — is rejected at the reconfigure's REQUEST-COMMIT with
/// `NoConfigWriteQuorum`, exactly the Goldman–Lynch §4 obligation.
#[test]
fn mutated_install_without_old_config_quorum_is_rejected() {
    let (mut t, q) = recorded_reconfiguring_run();
    let mut events = t.events.to_vec();
    let (create, commit) = reconfig_block(&events);
    let tid = events[create].tid;
    let rc = events[create..]
        .iter()
        .position(|e| e.tid == tid && matches!(e.action, TraceAction::RequestCommit { .. }))
        .expect("the reconfigure REQUEST-COMMIT")
        + create;
    let installs: Vec<usize> = (create..commit)
        .filter(|&i| matches!(events[i].action, TraceAction::WriteCfg { .. }))
        .collect();
    assert!(!installs.is_empty());
    for &i in installs.iter().rev() {
        events.remove(i);
    }
    t.events = events.into();
    let rc = rc - installs.len();
    let d = check_trace(&t, &*q).expect_err("installing nowhere must not conform");
    assert_eq!(
        d.event, rc,
        "diverged at {} instead of the gutted install",
        d.action
    );
    assert_eq!(d.kind, DivergenceKind::NoConfigWriteQuorum, "got: {d}");
}

/// A READ-DM claiming a value the replica never held is caught at that
/// very observation.
#[test]
fn mutated_read_observation_is_rejected() {
    let (mut t, q) = small_recorded_run();
    let mut events = t.events.to_vec();
    let target = events
        .iter()
        .position(|e| matches!(e.action, TraceAction::ReadDm { .. }))
        .expect("some read observation");
    let TraceAction::ReadDm { site, vn, value } = events[target].action else {
        unreachable!();
    };
    events[target].action = TraceAction::ReadDm {
        site,
        vn,
        value: value + 1,
    };
    t.events = events.into();
    let d = check_trace(&t, &*q).expect_err("fabricated observation must not conform");
    assert_eq!(
        d.event, target,
        "diverged at {} instead of the mutation",
        d.action
    );
    assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "got: {d}");
}
