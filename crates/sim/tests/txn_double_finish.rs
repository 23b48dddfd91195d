//! A whole-transaction abort must finish its transaction exactly once.
//!
//! `abort_txn` sweeps the dying transaction's touched items one at a time
//! and runs each item's newly granted waiters between sweeps. While the
//! client still counted as active, a grantee that finished could release an
//! item the dying transaction still *waited* on (not swept yet); the dead
//! transaction's leaf was granted the lock, ran, returned up its tree and
//! finished the transaction, and the outer `abort_txn` then finished it a
//! second time: the epoch bumped twice, two `TxnStart` events for one
//! client, one transaction counted under two outcomes.
//!
//! Both configurations below were found by differential testing and hit
//! that interleaving. Before the fix each trips an internal assertion in a
//! debug build (plain `cargo test`): the first `rescan_grant`'s
//! "a granted waiter is in `WaitLock`", the second `TxnTrace::verify`
//! inside the causal recorder (a span whose segments no longer tile it).
//! Either now also trips `finish_txn`'s epoch check in any build.

use std::sync::Arc;

use nested_txn::{RandomTreeGen, WorkloadKind};
use qc_sim::{
    check_commit_order_serializable, run_txn_causal, run_txn_committed, CausalOptions, FaultPlan,
    LatencyModel, QueueKind, ReconfigPolicy, SimTime, TxnConfig,
};
use quorum::{Rowa, Weighted};

#[test]
fn a_grantee_cannot_revive_a_waiter_of_the_transaction_being_aborted() {
    let mut c = TxnConfig::new(
        Arc::new(Rowa::new(3)),
        WorkloadKind::Random(RandomTreeGen::new(2)),
    );
    c.latency = LatencyModel::Fixed(SimTime(89));
    c.items = 9;
    c.domains = 3;
    c.clients_per_domain = 2;
    c.think = SimTime(900);
    c.timeout = SimTime::from_millis(7);
    c.lock_timeout = SimTime::from_millis(67);
    c.duration = SimTime::from_millis(302);
    c.seed = 15_083_619_250_430_854_525;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.queue = QueueKind::Heap;
    c.faults = FaultPlan::parse(
        "abort@31:2; delay@149:6,9; drop@159:51,639; reconfig@214:live; abort@246:1",
    )
    .expect("well-formed plan");
    let (report, commits) = run_txn_committed(&c, 1);
    let s = &report.stats;
    assert!(
        s.lock_timeouts > 0,
        "the scenario aborts on lock timeouts: {s:?}"
    );
    assert_eq!(s.lemma_violations, 0, "{:?}", s.violations);
    assert_eq!(commits.len() as u64, s.txns_committed);
    // Every started transaction ended at most once.
    assert!(s.txns_committed + s.txns_aborted <= s.txns_started, "{s:?}");
    check_commit_order_serializable(&|_| 0, &commits).expect("Theorem 11 replay");
}

#[test]
fn an_aborted_transactions_span_tree_still_tiles() {
    let mut c = TxnConfig::new(
        Arc::new(Weighted::new(vec![2, 1, 1, 1], 3, 3)),
        WorkloadKind::Random(RandomTreeGen::new(3)),
    );
    c.latency = LatencyModel::Fixed(SimTime(15));
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 3;
    c.think = SimTime(900);
    c.timeout = SimTime::from_millis(4);
    c.lock_timeout = SimTime::from_millis(37);
    c.duration = SimTime::from_millis(213);
    c.seed = 8_106_214_707_281_409_379;
    c.causal = CausalOptions::full();
    c.faults = FaultPlan::parse(
        "crash@8:0; recover@42:0; drop@133:36,586; crash@140:0; crash@195:2; recover@295:2",
    )
    .expect("well-formed plan");
    let (report, causal) = run_txn_causal(&c, 1);
    let s = &report.stats;
    assert!(
        s.lock_timeouts > 0,
        "the scenario aborts on lock timeouts: {s:?}"
    );
    assert_eq!(s.lemma_violations, 0, "{:?}", s.violations);
    assert!(s.txns_committed + s.txns_aborted <= s.txns_started, "{s:?}");
    // One span tree per ended transaction, each tiling exactly.
    let p = causal.profile();
    assert_eq!(p.txns(), s.txns_committed + s.txns_aborted);
    assert_eq!(p.reconciled(), p.txns());
    for t in causal.all() {
        t.verify().expect("every retained span tree verifies");
    }
}
