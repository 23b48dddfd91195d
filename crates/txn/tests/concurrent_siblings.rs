//! The assumption that broke when the simulator gained nested programs:
//! one client may now hold *several* in-flight children at once (parallel
//! program nodes), and a whole-transaction abort can straddle them.
//!
//! Two facts are pinned here, because the nested-workload harness in
//! `qc-sim` depends on both:
//!
//! 1. The paper's *serial* scheduler cannot express concurrent siblings —
//!    its CREATE/ABORT preconditions (`siblings(T) ∩ created ⊆ returned`)
//!    reject the second sibling while the first is unreturned. This is by
//!    construction, not a bug; it is why the simulator tracks per-node
//!    runtime state (status/epoch per program node) instead of funnelling
//!    nested programs through `SerialScheduler` or the one-op-per-client
//!    `OpSlab`.
//! 2. Well-formedness (the paper's §2.2 WF conditions) is *per
//!    transaction* and therefore perfectly happy with concurrent siblings
//!    and with an abort that straddles a still-running sibling — the
//!    exact schedule shape the simulator's epoch-bump cancellation
//!    produces.

use ioa::Component;
use nested_txn::{SerialScheduler, SystemWfMonitor, Tid, TxnOp, Value};

fn t(path: &[u32]) -> Tid {
    Tid::from_path(path)
}

fn create(path: &[u32]) -> TxnOp {
    TxnOp::Create {
        tid: t(path),
        access: None,
        param: None,
    }
}

/// The straddling-abort schedule: two siblings requested, the first
/// created and still running when the second is aborted, then the first
/// created sibling keeps going. One client, multiple in-flight children.
fn straddling_schedule() -> Vec<TxnOp> {
    vec![
        create(&[]),
        TxnOp::request_create(t(&[0])),
        TxnOp::request_create(t(&[1])),
        create(&[0]),
        // T0.0 is created and unreturned; aborting its sibling T0.1 now is
        // the straddle.
        TxnOp::Abort { tid: t(&[1]) },
        TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Int(1),
        },
        TxnOp::Commit {
            tid: t(&[0]),
            value: Value::Int(1),
        },
    ]
}

#[test]
fn wf_monitor_accepts_the_straddling_abort() {
    let mut wf = SystemWfMonitor::new();
    for op in straddling_schedule() {
        wf.observe_op(&op)
            .unwrap_or_else(|e| panic!("WF rejected {op:?}: {e}"));
    }
}

#[test]
fn wf_monitor_accepts_concurrent_siblings() {
    // Both siblings created before either returns — legal under WF, the
    // shape every parallel program node produces.
    let mut wf = SystemWfMonitor::new();
    for op in [
        create(&[]),
        TxnOp::request_create(t(&[0])),
        TxnOp::request_create(t(&[1])),
        create(&[0]),
        create(&[1]),
        TxnOp::RequestCommit {
            tid: t(&[1]),
            value: Value::Int(2),
        },
        TxnOp::Commit {
            tid: t(&[1]),
            value: Value::Int(2),
        },
        TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Int(1),
        },
        TxnOp::Commit {
            tid: t(&[0]),
            value: Value::Int(1),
        },
    ] {
        wf.observe_op(&op)
            .unwrap_or_else(|e| panic!("WF rejected {op:?}: {e}"));
    }
}

#[test]
fn serial_scheduler_rejects_concurrent_siblings_by_construction() {
    let mut s = SerialScheduler::new();
    s.apply(&create(&[])).unwrap();
    s.apply(&TxnOp::request_create(t(&[0]))).unwrap();
    s.apply(&TxnOp::request_create(t(&[1]))).unwrap();
    s.apply(&create(&[0])).unwrap();
    // The second sibling can be neither created nor aborted while the
    // first is in flight: the serial scheduler serialises siblings, so a
    // straddling abort is inexpressible here and the simulator must keep
    // its own per-node state to model it.
    assert!(s.apply(&create(&[1])).is_err());
    assert!(s.apply(&TxnOp::Abort { tid: t(&[1]) }).is_err());
    // Once the first sibling returns, the abort goes through.
    s.apply(&TxnOp::RequestCommit {
        tid: t(&[0]),
        value: Value::Int(1),
    })
    .unwrap();
    s.apply(&TxnOp::Commit {
        tid: t(&[0]),
        value: Value::Int(1),
    })
    .unwrap();
    s.apply(&TxnOp::Abort { tid: t(&[1]) }).unwrap();
}
