//! Scenario tests for the fault-injection subsystem: planned outages,
//! forced aborts, drop/delay windows, retry/backoff behaviour, and the
//! runtime lemma monitor's ability to actually catch a corrupted replica.

use std::sync::Arc;

use qc_sim::{run, ContactPolicy, FaultPlan, LatencyModel, RetryPolicy, SimConfig, SimTime};
use quorum::{Majority, Rowa};

fn base() -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Majority::new(3)));
    c.duration = SimTime::from_secs(4);
    c.read_fraction = 0.5;
    c
}

/// All three sites down for one second: every attempt in the window is
/// rejected fast as *unavailable* (no quorum can exist), and service
/// resumes cleanly after recovery.
#[test]
fn total_outage_is_classified_unavailable() {
    let mut c = base();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(1), 0)
        .crash_at(SimTime::from_secs(1), 1)
        .crash_at(SimTime::from_secs(1), 2)
        .recover_at(SimTime::from_secs(2), 0)
        .recover_at(SimTime::from_secs(2), 1)
        .recover_at(SimTime::from_secs(2), 2);
    let m = run(c);
    assert!(m.reads.unavailable + m.writes.unavailable > 100);
    assert!(m.reads.successes > 0 && m.writes.successes > 0);
    assert!(m.reads.availability() < 1.0);
    assert_eq!(m.site_failures, 3);
    assert_eq!(m.injected_faults, 6);
    assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
}

/// The same outage with a generous retry budget: operations in flight at
/// the outage back off across it and commit after recovery, so
/// availability strictly improves over the no-retry run.
#[test]
fn retries_bridge_an_outage() {
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_secs(1), 0)
        .crash_at(SimTime::from_secs(1), 1)
        .crash_at(SimTime::from_secs(1), 2)
        .recover_at(SimTime::from_millis(1400), 0)
        .recover_at(SimTime::from_millis(1400), 1)
        .recover_at(SimTime::from_millis(1400), 2);
    let mut without = base();
    without.faults = plan.clone();
    let m0 = run(without);

    let mut with = base();
    with.faults = plan;
    with.retry = RetryPolicy::retries(10, SimTime::from_millis(50));
    let m1 = run(with);

    assert!(m1.reads.retries + m1.writes.retries > 0);
    let avail0 = (m0.reads.successes + m0.writes.successes) as f64
        / (m0.reads.attempts + m0.writes.attempts) as f64;
    let avail1 = (m1.reads.successes + m1.writes.successes) as f64
        / (m1.reads.attempts + m1.writes.attempts) as f64;
    assert!(avail1 > avail0, "retry {avail1} vs no-retry {avail0}");
    assert_eq!(m1.lemma_violations, 0, "violations: {:?}", m1.violations);
}

/// A partial outage ROWA writes cannot survive but majority writes can:
/// the quorum-loss detector classifies ROWA writes as unavailable while
/// reads keep flowing.
#[test]
fn rowa_write_quorum_loss_is_detected() {
    let mut c = SimConfig::new(Arc::new(Rowa::new(3)));
    c.duration = SimTime::from_secs(3);
    c.read_fraction = 0.5;
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_secs(1), 2)
        .recover_at(SimTime::from_secs(2), 2);
    let m = run(c);
    assert!(m.writes.unavailable > 0, "no write marked unavailable");
    assert_eq!(m.reads.unavailable, 0, "reads need only one site");
    assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
}

/// The negative control: scribbling a bogus version into one replica store
/// must trip the runtime monitor (a higher version than `current-vn`
/// violates Lemma 7 the moment the probe next looks).
#[test]
fn corrupted_store_trips_the_monitor() {
    let mut c = base();
    c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(2), 1, 9_999_999, 42);
    let m = run(c);
    assert!(m.lemma_violations > 0, "monitor failed to fire");
    assert!(!m.violations.is_empty());
}

/// Corruption detection does not depend on a client happening to read the
/// bad replica: the end-of-run sweep checks the stores directly.
#[test]
fn corruption_is_caught_even_with_no_traffic() {
    let mut c = base();
    c.read_fraction = 1.0;
    c.clients = 0; // no operations at all
    c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(1), 0, 7, 7);
    let m = run(c);
    assert_eq!(m.reads.attempts + m.writes.attempts, 0);
    assert!(m.lemma_violations > 0, "end-of-run sweep failed to fire");
}

/// `monitor: false` disables the probe (for perf sweeps); the same corrupt
/// plan then goes unreported.
#[test]
fn monitor_flag_gates_the_probe() {
    let mut c = base();
    c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(2), 1, 9_999_999, 42);
    c.monitor = false;
    let m = run(c);
    assert_eq!(m.lemma_violations, 0);
    assert!(m.violations.is_empty());
}

/// A drop window loses messages (and may fail operations), but never
/// produces a wrong committed value.
#[test]
fn drop_window_loses_messages_not_correctness() {
    let mut c = base();
    c.faults = FaultPlan::new().drop_window(SimTime::from_secs(1), SimTime::from_secs(2), 400);
    c.retry = RetryPolicy::retries(4, SimTime::from_millis(2));
    c.record_history = true;
    let m = run(c);
    assert!(m.dropped_messages > 100, "dropped {}", m.dropped_messages);
    assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
    let mut vn = 0;
    for rec in &m.history {
        if rec.read {
            assert_eq!(rec.vn, vn, "read returned a stale version");
        } else {
            assert_eq!(rec.vn, vn + 1, "write skipped a version");
            vn = rec.vn;
        }
    }
}

/// A delay window inflates observed latency without changing outcomes.
#[test]
fn delay_window_inflates_latency() {
    let quiet = run(base());
    let mut c = base();
    c.faults = FaultPlan::new().delay_window(
        SimTime::ZERO,
        SimTime::from_secs(4),
        SimTime::from_millis(5),
    );
    let slow = run(c);
    assert!(
        slow.reads.mean_latency_ms() > quiet.reads.mean_latency_ms() + 5.0,
        "delayed {} vs quiet {}",
        slow.reads.mean_latency_ms(),
        quiet.reads.mean_latency_ms()
    );
    assert_eq!(slow.reads.availability(), 1.0);
    assert_eq!(slow.lemma_violations, 0);
}

/// The "site state sampled at operation start" regression test: with slow
/// fixed links, operations already in flight when every site crashes must
/// NOT commit off responses from dead sites. (The pre-fault simulator got
/// this wrong; see the module docs of `qc_sim`'s simulator.)
#[test]
fn in_flight_operations_observe_a_crash() {
    let mut c = base();
    // One-way latency 20 ms, so responses to ops started before the crash
    // at t = 30 ms would arrive (from already-dead sites) at ~40+ ms.
    c.latency = LatencyModel::Fixed(SimTime::from_millis(20));
    c.timeout = SimTime::from_millis(100);
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(30), 0)
        .crash_at(SimTime::from_millis(30), 1)
        .crash_at(SimTime::from_millis(30), 2);
    c.duration = SimTime::from_secs(2);
    let m = run(c);
    assert_eq!(
        m.reads.successes + m.writes.successes,
        0,
        "an operation committed off responses from crashed sites"
    );
    assert!(
        m.reads.timeouts + m.writes.timeouts > 0,
        "straddled ops should time out"
    );
    assert!(m.reads.unavailable + m.writes.unavailable > 0);
    assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
}

/// Zero think time plus a fail-fast (zero sim-time) unavailable attempt
/// must not livelock the event loop at one timestamp: the simulator clamps
/// a client's re-dispatch delay to 1 µs. Without the clamp this test never
/// returns.
#[test]
fn zero_think_time_outage_terminates() {
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
    let m = run(c);
    assert!(m.reads.unavailable + m.writes.unavailable > 0);
    assert!(m.reads.successes + m.writes.successes > 0);
    assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
}

/// Cross-policy equivalence: with deterministic (fixed) latency and a plan
/// confined to crash/recovery of site 0, forced aborts and delay windows,
/// `AllLive` and `MinimalQuorum` commit byte-identical operation histories
/// — the contact policy changes message cost, never outcomes. (Minimal
/// quorum selection shrinks away *low* site indices first, so site 0 is
/// never in a minimal quorum of a healthy majority-of-3 system and its
/// crash cannot fail a minimal-quorum attempt that an all-live attempt
/// survives. Drop windows, or crashing a site minimal quorums rely on,
/// break the equivalence — which is why this plan family is restricted.)
#[test]
fn contact_policies_commit_identical_histories() {
    for seed in [1u64, 7, 23, 101] {
        let mk = |policy: ContactPolicy| {
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
            c.record_history = true;
            c
        };
        let all = run(mk(ContactPolicy::AllLive));
        let min = run(mk(ContactPolicy::MinimalQuorum));
        assert!(!all.history.is_empty());
        assert_eq!(all.history, min.history, "seed {seed}");
        assert_eq!(all.lemma_violations, 0, "violations: {:?}", all.violations);
        assert_eq!(min.lemma_violations, 0, "violations: {:?}", min.violations);
        assert_eq!(all.forced_aborts, 2);
        // The policies still differ where they should: message cost.
        assert!(all.reads.messages > min.reads.messages);
    }
}
