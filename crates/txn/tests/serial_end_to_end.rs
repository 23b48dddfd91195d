//! End-to-end tests of the *bare* serial system (scheduler + transaction
//! nodes + read/write objects, no replication): depth-first serial
//! execution, abort semantics, and well-formedness under random schedules.

use ioa::{Executor, System, WeightedPolicy};
use nested_txn::{
    AccessSpec, ChildRequest, ObjectId, Outcome, ReadWriteObject, ScriptProgram, ScriptStep,
    SerialScheduler, SystemWfMonitor, Tid, TransactionNode, TxnOp, Value,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A root that requests `n` top-level transactions at once and never
/// commits.
fn root_node(n: u32) -> TransactionNode {
    let reqs = (0..n)
        .map(|index| ChildRequest {
            index,
            access: None,
            param: None,
        })
        .collect();
    TransactionNode::new(Tid::root(), ScriptProgram::new(vec![ScriptStep::Run(reqs)]))
}

/// A user transaction that writes `value` to the object, reads it back,
/// and commits with nil.
fn write_then_read(tid: Tid, object: ObjectId, value: i64) -> TransactionNode {
    TransactionNode::new(
        tid,
        ScriptProgram::new(vec![
            ScriptStep::Run(vec![ChildRequest {
                index: 0,
                access: Some(AccessSpec::write(object, Value::Int(value))),
                param: None,
            }]),
            ScriptStep::Run(vec![ChildRequest {
                index: 1,
                access: Some(AccessSpec::read(object)),
                param: None,
            }]),
            ScriptStep::Commit(Value::Nil),
        ]),
    )
}

fn system_two_writers() -> System<TxnOp> {
    let mut sys = System::new();
    sys.push(Box::new(SerialScheduler::new()));
    sys.push(Box::new(ReadWriteObject::new(
        ObjectId(0),
        "x",
        Value::Int(0),
    )));
    sys.push(Box::new(root_node(2)));
    sys.push(Box::new(write_then_read(
        Tid::root().child(0),
        ObjectId(0),
        10,
    )));
    sys.push(Box::new(write_then_read(
        Tid::root().child(1),
        ObjectId(0),
        20,
    )));
    sys
}

#[test]
fn serial_execution_is_depth_first() {
    // Without aborts, the run is quiescent and each user sees exactly its
    // own write (siblings never interleave under the serial scheduler).
    for seed in 0..20 {
        let mut sys = system_two_writers();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let exec = Executor::new()
            .policy(WeightedPolicy::new(|op: &TxnOp| match op {
                TxnOp::Abort { .. } => 0,
                _ => 100,
            }))
            .monitor(SystemWfMonitor::new())
            .run(&mut sys, &mut rng)
            .unwrap();
        assert!(exec.is_quiescent(), "seed {seed}");
        let sched = exec.schedule();
        // Users' op ranges must not interleave: between CREATE(U) and
        // COMMIT(U), no op of the other user's subtree occurs.
        for u in [Tid::root().child(0), Tid::root().child(1)] {
            let created = sched
                .iter()
                .position(|op| matches!(op, TxnOp::Create { tid, .. } if tid == &u))
                .unwrap();
            let committed = sched
                .iter()
                .position(|op| matches!(op, TxnOp::Commit { tid, .. } if tid == &u))
                .unwrap();
            let other = if u == Tid::root().child(0) {
                Tid::root().child(1)
            } else {
                Tid::root().child(0)
            };
            for (i, op) in sched.iter().enumerate() {
                if i > created && i < committed {
                    // Requests *for* the other sibling are root ops and may
                    // appear; ops *of* the other's subtree may not.
                    let in_other_subtree = other.is_proper_ancestor_of(op.tid())
                        || (op.tid() == &other
                            && matches!(op, TxnOp::Create { .. } | TxnOp::RequestCommit { .. }));
                    assert!(
                        !in_other_subtree,
                        "seed {seed}: {op} inside {u}'s serial window"
                    );
                }
            }
            // Each user's read returned its own write.
            let node_name = format!("txn({u})");
            let node: &TransactionNode = sys.component_as(&node_name).unwrap();
            let read_result = node.returns().get(&u.child(1)).unwrap();
            let expected = if u == Tid::root().child(0) { 10 } else { 20 };
            assert_eq!(read_result, &Outcome::Committed(Value::Int(expected)));
        }
    }
}

#[test]
fn final_object_state_is_last_writer() {
    let mut sys = system_two_writers();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let exec = Executor::new()
        .policy(WeightedPolicy::new(|op: &TxnOp| match op {
            TxnOp::Abort { .. } => 0,
            _ => 100,
        }))
        .run(&mut sys, &mut rng)
        .unwrap();
    // Whichever user committed last determines x.
    let sched = exec.schedule();
    let last_commit = sched
        .iter()
        .filter_map(|op| match op {
            TxnOp::Commit { tid, .. } if tid.depth() == 1 => Some(tid.clone()),
            _ => None,
        })
        .next_back()
        .unwrap();
    let expected = if last_commit == Tid::root().child(0) {
        10
    } else {
        20
    };
    let x: &ReadWriteObject = sys.component_as("x").unwrap();
    assert_eq!(x.data(), &Value::Int(expected));
}

#[test]
fn aborts_keep_schedules_well_formed_and_replayable() {
    for seed in 0..30 {
        let mut sys = system_two_writers();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let exec = Executor::new()
            .policy(WeightedPolicy::new(|op: &TxnOp| match op {
                TxnOp::Abort { .. } => 25,
                _ => 100,
            }))
            .monitor(SystemWfMonitor::new())
            .run(&mut sys, &mut rng)
            .unwrap();
        // Any schedule of the serial system replays on a fresh copy.
        let mut fresh = system_two_writers();
        fresh.replay(exec.schedule()).unwrap();
    }
}

#[test]
fn aborted_user_leaves_object_untouched() {
    // Abort user 0 before creation; user 1 must still run and win.
    let mut sys = system_two_writers();
    sys.reset();
    let u0 = Tid::root().child(0);
    // Drive manually: create root, request both, abort u0.
    let boot = [
        TxnOp::Create {
            tid: Tid::root(),
            access: None,
            param: None,
        },
        TxnOp::request_create(u0.clone()),
        TxnOp::request_create(Tid::root().child(1)),
        TxnOp::Abort { tid: u0 },
    ];
    for op in &boot {
        sys.step(op).unwrap();
    }
    // Finish the rest randomly without further aborts.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let exec = Executor::new()
        .resume()
        .policy(WeightedPolicy::new(|op: &TxnOp| match op {
            TxnOp::Abort { .. } => 0,
            _ => 100,
        }))
        .run(&mut sys, &mut rng)
        .unwrap();
    assert!(exec.is_quiescent());
    let x: &ReadWriteObject = sys.component_as("x").unwrap();
    assert_eq!(x.data(), &Value::Int(20), "only user 1 wrote");
    // The root saw ABORT(u0) and COMMIT(u1).
    let root: &TransactionNode = sys.component_as("txn(T0)").unwrap();
    assert_eq!(
        root.returns().get(&Tid::root().child(0)),
        Some(&Outcome::Aborted)
    );
    assert!(matches!(
        root.returns().get(&Tid::root().child(1)),
        Some(Outcome::Committed(_))
    ));
}
