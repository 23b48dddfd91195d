//! Deterministic regression tests: for fixed seeds, the simulator's
//! [`Metrics`] are pinned byte for byte (via a digest of the full `Debug`
//! rendering, which includes every latency sample) under both
//! [`ContactPolicy`] variants, with and without an injected fault plan.
//!
//! If an intentional simulator change shifts these values, re-pin them from
//! the assertion failure output — but first convince yourself the shift is
//! intended: these digests are the contract that seeds reproduce runs
//! exactly across refactors.

use std::sync::Arc;

use qc_sim::{
    run, ContactPolicy, FaultPlan, Metrics, QueueKind, ReconfigPolicy, ReconfigTarget, RetryPolicy,
    SimConfig, SimTime,
};
use quorum::{Majority, Rowa};

/// FNV-1a over the complete `Debug` rendering of the metrics, built as a
/// string: the reference `Metrics::digest` streams the same bytes into.
fn digest(m: &Metrics) -> u64 {
    let s = format!("{m:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The readable core of a run, pinned alongside the digest so failures
/// show *what* moved, not just that something did.
fn fingerprint(m: &Metrics) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        m.reads.attempts,
        m.reads.successes,
        m.reads.messages,
        m.writes.attempts,
        m.writes.successes,
        m.writes.messages,
        m.site_failures,
        m.lemma_violations,
    )
}

/// Run `config` once per event-queue implementation and hand each run to
/// `pinned`: every value asserted in this file holds under both, in-process.
/// The streamed `Metrics::digest` must equal the string-built reference on
/// every run pinned here.
fn for_each_queue(config: &SimConfig, pinned: impl Fn(Metrics)) {
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        let mut c = config.clone();
        c.queue = queue;
        let m = run(c);
        assert_eq!(m.digest(), digest(&m));
        pinned(m);
    }
}

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
fn identical_seeds_are_bit_identical() {
    for policy in [ContactPolicy::AllLive, ContactPolicy::MinimalQuorum] {
        let a = run(healthy(policy));
        let b = run(healthy(policy));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let fa = run(faulted(policy));
        let fb = run(faulted(policy));
        assert_eq!(format!("{fa:?}"), format!("{fb:?}"));
    }
}

#[test]
fn healthy_all_live_metrics_are_pinned() {
    for_each_queue(&healthy(ContactPolicy::AllLive), |m| {
        assert_eq!(fingerprint(&m), (3828, 3828, 38280, 424, 424, 8480, 0, 0));
        assert_eq!(digest(&m), 6227179515335722920);
    });
}

#[test]
fn healthy_minimal_quorum_metrics_are_pinned() {
    for_each_queue(&healthy(ContactPolicy::MinimalQuorum), |m| {
        assert_eq!(fingerprint(&m), (3552, 3552, 21312, 386, 386, 4632, 0, 0));
        assert_eq!(digest(&m), 15120862404983422755);
    });
}

#[test]
fn faulted_all_live_metrics_are_pinned() {
    for_each_queue(&faulted(ContactPolicy::AllLive), |m| {
        assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
        assert_eq!(m.forced_aborts, 2);
        assert_eq!(m.site_failures, 2);
        assert!(m.dropped_messages > 0);
        assert_eq!(fingerprint(&m), (3045, 3042, 25870, 340, 339, 5764, 2, 0));
        assert_eq!(digest(&m), 10745518364402560754);
    });
}

/// A reconfiguring ROWA run: a member crash forces the reactive trigger
/// to shrink, the recovery grows back, and a scripted reconfiguration is
/// interleaved — exercising stale rejections, generation adoption and the
/// no-message reconfigure op on top of the `faulted` weather.
fn reconfiguring_rowa(seed: u64) -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Rowa::new(5)));
    c.duration = SimTime::from_secs(2);
    c.seed = seed;
    c.read_fraction = 0.5;
    c.reconfig = ReconfigPolicy::reactive();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(300), 4)
        .recover_at(SimTime::from_millis(1200), 4)
        .reconfig_at(
            SimTime::from_millis(1600),
            ReconfigTarget::Members([0usize, 1, 2, 3].into_iter().collect()),
        );
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c
}

/// A reconfiguring majority run under heavier weather: crashes, a drop
/// window, and a scripted shrink while a member is down.
fn reconfiguring_majority(seed: u64) -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.duration = SimTime::from_secs(2);
    c.seed = seed;
    c.read_fraction = 0.5;
    c.reconfig = ReconfigPolicy::reactive();
    c.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(250), 1)
        .crash_at(SimTime::from_millis(400), 3)
        .recover_at(SimTime::from_millis(1000), 1)
        .drop_window(SimTime::from_millis(600), SimTime::from_millis(200), 250)
        .reconfig_at(
            SimTime::from_millis(1400),
            ReconfigTarget::Members([0usize, 1, 2, 4].into_iter().collect()),
        );
    c.retry = RetryPolicy::retries(3, SimTime::from_millis(5));
    c
}

#[test]
fn reconfiguring_rowa_metrics_are_pinned() {
    for_each_queue(&reconfiguring_rowa(21), |m| {
        assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
        assert!(
            m.reconfigurations >= 2,
            "reconfigurations {}",
            m.reconfigurations
        );
        assert!(m.stale_rejections > 0);
        assert_eq!(digest(&m), 14783729087712639457);
    });
}

#[test]
fn reconfiguring_majority_metrics_are_pinned() {
    for_each_queue(&reconfiguring_majority(33), |m| {
        assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
        assert!(
            m.reconfigurations >= 2,
            "reconfigurations {}",
            m.reconfigurations
        );
        assert_eq!(digest(&m), 9043374931432434805);
    });
}

#[test]
fn faulted_minimal_quorum_metrics_are_pinned() {
    for_each_queue(&faulted(ContactPolicy::MinimalQuorum), |m| {
        assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
        assert_eq!(m.forced_aborts, 2);
        assert_eq!(m.site_failures, 2);
        assert!(m.dropped_messages > 0);
        assert_eq!(fingerprint(&m), (2862, 2857, 17213, 317, 316, 3814, 2, 0));
        assert_eq!(digest(&m), 9239106001235178659);
    });
}
