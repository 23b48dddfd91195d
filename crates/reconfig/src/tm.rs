//! Transaction managers for the reconfigurable algorithm.
//!
//! With the access work delegated to [`Coordinator`](crate::Coordinator)
//! subtransactions, the TMs themselves are thin: they spawn a coordinator,
//! retry (with a fresh coordinator name) if it aborts, and translate its
//! result into the TM's own return value. Read- and write-TMs are children
//! of user transactions as in §3; reconfigure-TMs are *also* children of
//! user transactions, but are invoked by the [`Spy`](crate::Spy) rather
//! than by the user program.

use std::any::Any;

use ioa::{Component, OpClass};
use nested_txn::{Tid, TxnOp, Value};

use crate::coordinator::CoordKind;

/// A TM that delegates to coordinator subtransactions (read-, write-, or
/// reconfigure-flavoured according to `kind`).
///
/// The TM owns `retry_slots` pre-named coordinator children; if a
/// coordinator is aborted by the scheduler before being created, the TM
/// requests the next slot. (A coordinator that *runs* always eventually
/// commits or the run ends; created transactions never abort in the serial
/// model.)
#[derive(Clone, Debug)]
pub struct CoordinatorTm {
    tid: Tid,
    kind: CoordKind,
    label: String,
    retry_slots: u32,
    awake: bool,
    committed: bool,
    param: Option<Value>,
    next_slot: u32,
    outstanding: Option<Tid>,
    result: Option<Value>,
}

impl CoordinatorTm {
    /// A TM named `tid` of the given kind with `retry_slots` coordinator
    /// slots.
    pub fn new(tid: Tid, kind: CoordKind, retry_slots: u32) -> Self {
        let label = format!(
            "{}-tm({tid})",
            match kind {
                CoordKind::Read => "rc-read",
                CoordKind::Write => "rc-write",
                CoordKind::Reconfigure => "reconfigure",
            }
        );
        CoordinatorTm {
            tid,
            kind,
            label,
            retry_slots,
            awake: false,
            committed: false,
            param: None,
            next_slot: 0,
            outstanding: None,
            result: None,
        }
    }

    /// The TM's transaction name.
    pub fn tid(&self) -> &Tid {
        &self.tid
    }

    /// The TM's kind.
    pub fn kind(&self) -> CoordKind {
        self.kind
    }

    fn return_value(&self) -> Option<Value> {
        let result = self.result.as_ref()?;
        match self.kind {
            // A read-TM returns the *value* component of the discovery.
            CoordKind::Read => result.as_rc_versioned().map(|(_, v, _, _)| v.clone()),
            CoordKind::Write | CoordKind::Reconfigure => Some(Value::Nil),
        }
    }
}

impl Component<TxnOp> for CoordinatorTm {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::Create { tid, .. } if tid == &self.tid => OpClass::Input,
            TxnOp::Commit { tid, .. } | TxnOp::Abort { tid } if tid.is_child_of(&self.tid) => {
                OpClass::Input
            }
            TxnOp::RequestCreate { tid, .. } if tid.is_child_of(&self.tid) => OpClass::Output,
            TxnOp::RequestCommit { tid, .. } if tid == &self.tid => OpClass::Output,
            _ => OpClass::NotMine,
        }
    }

    fn reset(&mut self) {
        self.awake = false;
        self.committed = false;
        self.param = None;
        self.next_slot = 0;
        self.outstanding = None;
        self.result = None;
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        if !self.awake || self.committed {
            return Vec::new();
        }
        if let Some(v) = self.return_value() {
            return vec![TxnOp::RequestCommit {
                tid: self.tid.clone(),
                value: v,
            }];
        }
        if self.outstanding.is_none() && self.next_slot < self.retry_slots {
            return vec![TxnOp::RequestCreate {
                tid: self.tid.child(self.next_slot),
                access: None,
                param: self.param.clone(),
            }];
        }
        Vec::new()
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Create { tid, param, .. } if tid == &self.tid => {
                self.awake = true;
                self.param = param.clone();
                Ok(())
            }
            TxnOp::RequestCreate { tid, .. } if tid.is_child_of(&self.tid) => {
                if self.outstanding.is_some() {
                    return Err(format!("{}: coordinator already outstanding", self.label));
                }
                self.outstanding = Some(tid.clone());
                self.next_slot += 1;
                Ok(())
            }
            TxnOp::Commit { tid, value } if tid.is_child_of(&self.tid) => {
                if self.outstanding.as_ref() != Some(tid) {
                    return Err(format!("{}: return for unknown coordinator", self.label));
                }
                self.outstanding = None;
                self.result = Some(value.clone());
                Ok(())
            }
            TxnOp::Abort { tid } if tid.is_child_of(&self.tid) => {
                if self.outstanding.as_ref() != Some(tid) {
                    return Err(format!("{}: abort for unknown coordinator", self.label));
                }
                self.outstanding = None; // retry with the next slot
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } if tid == &self.tid => {
                if !self.awake || self.committed {
                    return Err(format!("{}: commit while not awake", self.label));
                }
                let expected = self
                    .return_value()
                    .ok_or_else(|| format!("{}: no coordinator result yet", self.label))?;
                if *value != expected {
                    return Err(format!("{}: wrong return value", self.label));
                }
                self.committed = true;
                self.awake = false;
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

    fn t(path: &[u32]) -> Tid {
        Tid::from_path(path)
    }

    #[test]
    fn read_tm_extracts_value_from_discovery() {
        let tm_tid = t(&[0, 0]);
        let mut tm = CoordinatorTm::new(tm_tid.clone(), CoordKind::Read, 3);
        tm.apply(&TxnOp::Create {
            tid: tm_tid.clone(),
            access: None,
            param: None,
        })
        .unwrap();
        let outs = tm.enabled_outputs();
        assert_eq!(outs.len(), 1);
        tm.apply(&outs[0]).unwrap();
        // The coordinator commits with the full tuple.
        let tuple = Value::rc_versioned(
            3,
            Value::Int(42),
            1,
            quorum::generators::rowa(&[nested_txn::ObjectId(0)]),
        );
        tm.apply(&TxnOp::Commit {
            tid: outs[0].tid().clone(),
            value: tuple,
        })
        .unwrap();
        let outs = tm.enabled_outputs();
        assert_eq!(
            outs,
            vec![TxnOp::RequestCommit {
                tid: tm_tid,
                value: Value::Int(42),
            }]
        );
    }

    #[test]
    fn retries_aborted_coordinator_in_next_slot() {
        let tm_tid = t(&[0, 0]);
        let mut tm = CoordinatorTm::new(tm_tid.clone(), CoordKind::Write, 2);
        tm.apply(&TxnOp::Create {
            tid: tm_tid.clone(),
            access: None,
            param: Some(Value::Int(1)),
        })
        .unwrap();
        let first = tm.enabled_outputs()[0].clone();
        assert_eq!(first.tid(), &tm_tid.child(0));
        assert_eq!(first.param(), Some(&Value::Int(1)));
        tm.apply(&first).unwrap();
        assert!(tm.enabled_outputs().is_empty());
        tm.apply(&TxnOp::Abort {
            tid: tm_tid.child(0),
        })
        .unwrap();
        let second = tm.enabled_outputs()[0].clone();
        assert_eq!(second.tid(), &tm_tid.child(1));
        tm.apply(&second).unwrap();
        tm.apply(&TxnOp::Abort {
            tid: tm_tid.child(1),
        })
        .unwrap();
        // Slots exhausted: the TM is stuck (run ends incomplete).
        assert!(tm.enabled_outputs().is_empty());
    }

    #[test]
    fn write_tm_returns_nil() {
        let tm_tid = t(&[0, 0]);
        let mut tm = CoordinatorTm::new(tm_tid.clone(), CoordKind::Write, 1);
        tm.apply(&TxnOp::Create {
            tid: tm_tid.clone(),
            access: None,
            param: Some(Value::Int(5)),
        })
        .unwrap();
        let req = tm.enabled_outputs()[0].clone();
        tm.apply(&req).unwrap();
        tm.apply(&TxnOp::Commit {
            tid: req.tid().clone(),
            value: Value::Nil,
        })
        .unwrap();
        let outs = tm.enabled_outputs();
        assert_eq!(
            outs,
            vec![TxnOp::RequestCommit {
                tid: tm_tid,
                value: Value::Nil,
            }]
        );
    }
}
