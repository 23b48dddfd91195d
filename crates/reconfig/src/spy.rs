//! Spy automata (paper §4).
//!
//! Reconfigure-TMs must be children of user transactions (for the right
//! atomicity), yet their invocations and returns must not be "controlled,
//! or even seen" by the user programs. The paper solves this modelling
//! problem by associating a *spy automaton* with each user transaction:
//! "the spy wakes up with the associated transaction and
//! nondeterministically invokes reconfigure-TMs until the associated
//! transaction requests to commit."
//!
//! Operationally, the spy and the user's [`TransactionNode`] partition the
//! user transaction's child names: the node owns indices below
//! [`SPY_CHILD_BASE`], the spy owns those at and above it (see
//! [`TransactionNode::with_child_limit`]). Their composition is the user
//! transaction's automaton.
//!
//! The performance simulators (`qc-sim`) carry a deterministic stand-in
//! for this nondeterminism: `ReconfigPolicy`'s reactive trigger polls a
//! failure signal and issues reconfigure ops mid-run, playing the spy's
//! role under the same old-quorum-only install rule (see DESIGN.md §5.6).
//!
//! [`TransactionNode`]: nested_txn::TransactionNode
//! [`TransactionNode::with_child_limit`]: nested_txn::TransactionNode::with_child_limit

use std::any::Any;
use std::collections::BTreeSet;

use ioa::{Component, OpClass};
use nested_txn::{Tid, TxnOp, Value};
use quorum::Configuration;

/// First child index reserved for spy-invoked reconfigure-TMs.
pub const SPY_CHILD_BASE: u32 = 1 << 20;

/// A spy automaton for one user transaction.
#[derive(Clone, Debug)]
pub struct Spy {
    user: Tid,
    label: String,
    /// Candidate target configurations the spy may reconfigure to
    /// (paired with the item they configure, encoded in the param).
    candidates: Vec<Configuration<nested_txn::ObjectId>>,
    max_reconfigs: u32,
    user_awake: bool,
    user_committed: bool,
    used: u32,
    outstanding: BTreeSet<Tid>,
}

impl Spy {
    /// A spy for `user` that may invoke up to `max_reconfigs`
    /// reconfigure-TMs, choosing targets from `candidates`.
    pub fn new(
        user: Tid,
        candidates: Vec<Configuration<nested_txn::ObjectId>>,
        max_reconfigs: u32,
    ) -> Self {
        let label = format!("spy({user})");
        Spy {
            user,
            label,
            candidates,
            max_reconfigs,
            user_awake: false,
            user_committed: false,
            used: 0,
            outstanding: BTreeSet::new(),
        }
    }

    /// The user transaction this spy shadows.
    pub fn user(&self) -> &Tid {
        &self.user
    }

    /// How many reconfigure-TMs this spy has invoked.
    pub fn invoked(&self) -> u32 {
        self.used
    }

    fn is_spy_child(&self, tid: &Tid) -> bool {
        tid.is_child_of(&self.user) && tid.last_index().is_some_and(|i| i >= SPY_CHILD_BASE)
    }
}

impl Component<TxnOp> for Spy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            // The spy wakes with the user and stops at its REQUEST-COMMIT;
            // both of those are inputs to the spy (the latter is an output
            // of the user's node).
            TxnOp::Create { tid, .. } if tid == &self.user => OpClass::Input,
            TxnOp::RequestCommit { tid, .. } if tid == &self.user => OpClass::Input,
            TxnOp::Commit { tid, .. } | TxnOp::Abort { tid } if self.is_spy_child(tid) => {
                OpClass::Input
            }
            TxnOp::RequestCreate { tid, .. } if self.is_spy_child(tid) => OpClass::Output,
            _ => OpClass::NotMine,
        }
    }

    fn reset(&mut self) {
        self.user_awake = false;
        self.user_committed = false;
        self.used = 0;
        self.outstanding.clear();
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        if !self.user_awake || self.user_committed || self.used >= self.max_reconfigs {
            return Vec::new();
        }
        let child = self.user.child(SPY_CHILD_BASE + self.used);
        self.candidates
            .iter()
            .map(|c| TxnOp::RequestCreate {
                tid: child.clone(),
                access: None,
                param: Some(Value::Config(Box::new(c.clone()))),
            })
            .collect()
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Create { tid, .. } if tid == &self.user => {
                self.user_awake = true;
                Ok(())
            }
            TxnOp::RequestCommit { tid, .. } if tid == &self.user => {
                self.user_committed = true;
                Ok(())
            }
            TxnOp::RequestCreate { tid, .. } if self.is_spy_child(tid) => {
                if tid.last_index() != Some(SPY_CHILD_BASE + self.used) {
                    return Err(format!("{}: out-of-order spy request", self.label));
                }
                self.outstanding.insert(tid.clone());
                self.used += 1;
                Ok(())
            }
            TxnOp::Commit { tid, .. } | TxnOp::Abort { tid } if self.is_spy_child(tid) => {
                self.outstanding.remove(tid);
                Ok(())
            }
            other => Err(format!("{}: unexpected operation {other}", self.label)),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_boxed(&self) -> Box<dyn Component<TxnOp>> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_txn::ObjectId;

    fn cfg() -> Configuration<ObjectId> {
        quorum::generators::majority(&[ObjectId(0), ObjectId(1), ObjectId(2)])
    }

    #[test]
    fn spy_sleeps_until_user_created() {
        let user = Tid::root().child(0);
        let spy = Spy::new(user.clone(), vec![cfg()], 2);
        assert!(spy.enabled_outputs().is_empty());
    }

    #[test]
    fn spy_offers_reconfigs_while_user_active() {
        let user = Tid::root().child(0);
        let mut spy = Spy::new(user.clone(), vec![cfg()], 2);
        spy.apply(&TxnOp::Create {
            tid: user.clone(),
            access: None,
            param: None,
        })
        .unwrap();
        let outs = spy.enabled_outputs();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].tid(), &user.child(SPY_CHILD_BASE));
        assert!(matches!(outs[0].param(), Some(Value::Config(_))));
        spy.apply(&outs[0]).unwrap();
        // Second slot offered next.
        let outs = spy.enabled_outputs();
        assert_eq!(outs[0].tid(), &user.child(SPY_CHILD_BASE + 1));
        spy.apply(&outs[0]).unwrap();
        // Budget exhausted.
        assert!(spy.enabled_outputs().is_empty());
        assert_eq!(spy.invoked(), 2);
    }

    #[test]
    fn spy_stops_at_user_commit() {
        let user = Tid::root().child(0);
        let mut spy = Spy::new(user.clone(), vec![cfg()], 5);
        spy.apply(&TxnOp::Create {
            tid: user.clone(),
            access: None,
            param: None,
        })
        .unwrap();
        spy.apply(&TxnOp::RequestCommit {
            tid: user.clone(),
            value: Value::Nil,
        })
        .unwrap();
        assert!(spy.enabled_outputs().is_empty());
    }

    #[test]
    fn spy_ops_disjoint_from_user_node() {
        use nested_txn::{LeafProgram, TransactionNode};
        let user = Tid::root().child(0);
        let node = TransactionNode::new(user.clone(), LeafProgram::new(Value::Nil))
            .with_child_limit(SPY_CHILD_BASE);
        let spy = Spy::new(user.clone(), vec![cfg()], 1);
        let spy_req = TxnOp::request_create(user.child(SPY_CHILD_BASE));
        let node_req = TxnOp::request_create(user.child(0));
        assert_eq!(node.classify(&spy_req), OpClass::NotMine);
        assert_eq!(spy.classify(&spy_req), OpClass::Output);
        assert_eq!(node.classify(&node_req), OpClass::Output);
        assert_eq!(spy.classify(&node_req), OpClass::NotMine);
    }
}
