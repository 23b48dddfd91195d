//! A concurrent (non-serial) scheduler.
//!
//! The paper's Theorem 11 assumes some system **C** with the same type as
//! **B** whose schedules are serially correct with respect to **B** for
//! non-orphan transactions — produced by combining the replication
//! algorithm with a concurrency-control algorithm at the copy level. This
//! module provides the scheduler side of such a system: it is the serial
//! scheduler *minus* the two serializing preconditions —
//!
//! * siblings may run concurrently (`CREATE` drops the
//!   siblings-returned condition), and
//! * running transactions may be aborted (`ABORT` drops the not-yet-created
//!   condition), modelling recovery: a deadlock victim's effects are undone
//!   by the resilient objects, so the abort again "looks like `T` was never
//!   created" to every non-orphan.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use ioa::{Component, OpClass};
use nested_txn::{AccessSpec, Tid, TxnOp, Value};

/// The concurrent scheduler (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ConcurrentScheduler {
    create_requested: BTreeMap<Tid, (Option<AccessSpec>, Option<Value>)>,
    created: BTreeSet<Tid>,
    commit_requested: BTreeMap<Tid, Value>,
    committed: BTreeMap<Tid, Value>,
    aborted: BTreeSet<Tid>,
    returned: BTreeSet<Tid>,
}

impl ConcurrentScheduler {
    /// A scheduler in its start state.
    pub fn new() -> Self {
        let mut s = ConcurrentScheduler::default();
        s.create_requested.insert(Tid::root(), (None, None));
        s
    }

    /// The set of aborted transactions.
    pub fn aborted(&self) -> &BTreeSet<Tid> {
        &self.aborted
    }

    /// The set of returned transactions.
    pub fn returned(&self) -> &BTreeSet<Tid> {
        &self.returned
    }

    /// Committed transactions and their values.
    pub fn committed(&self) -> &BTreeMap<Tid, Value> {
        &self.committed
    }

    /// Whether `tid` has an aborted ancestor (the paper's orphan notion).
    pub fn is_orphan(&self, tid: &Tid) -> bool {
        self.aborted.iter().any(|a| a.is_ancestor_of(tid))
    }

    fn create_enabled(&self, t: &Tid) -> bool {
        self.create_requested.contains_key(t)
            && !self.created.contains(t)
            && !self.aborted.contains(t)
    }

    fn commit_enabled(&self, t: &Tid) -> bool {
        !t.is_root()
            && self.commit_requested.contains_key(t)
            && !self.returned.contains(t)
            && self
                .create_requested
                .keys()
                .filter(|c| c.is_child_of(t))
                .all(|c| self.returned.contains(c))
    }

    fn abort_enabled(&self, t: &Tid) -> bool {
        !t.is_root() && self.create_requested.contains_key(t) && !self.returned.contains(t)
    }
}

impl Component<TxnOp> for ConcurrentScheduler {
    fn name(&self) -> String {
        "concurrent-scheduler".into()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::RequestCreate { .. } | TxnOp::RequestCommit { .. } => OpClass::Input,
            TxnOp::Create { .. } | TxnOp::Commit { .. } | TxnOp::Abort { .. } => OpClass::Output,
        }
    }

    fn reset(&mut self) {
        *self = ConcurrentScheduler::new();
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        let mut out = Vec::new();
        for (t, (access, param)) in &self.create_requested {
            if self.create_enabled(t) {
                out.push(TxnOp::Create {
                    tid: t.clone(),
                    access: access.clone(),
                    param: param.clone(),
                });
            }
            if self.abort_enabled(t) {
                out.push(TxnOp::Abort { tid: t.clone() });
            }
        }
        for (t, v) in &self.commit_requested {
            if self.commit_enabled(t) {
                out.push(TxnOp::Commit {
                    tid: t.clone(),
                    value: v.clone(),
                });
            }
        }
        out
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::RequestCreate { tid, access, param } => {
                self.create_requested
                    .entry(tid.clone())
                    .or_insert_with(|| (access.clone(), param.clone()));
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } => {
                self.commit_requested
                    .entry(tid.clone())
                    .or_insert_with(|| value.clone());
                Ok(())
            }
            TxnOp::Create { tid, .. } => {
                if !self.create_enabled(tid) {
                    return Err(format!("CREATE({tid}) precondition fails"));
                }
                self.created.insert(tid.clone());
                Ok(())
            }
            TxnOp::Commit { tid, value } => {
                if !self.commit_enabled(tid) {
                    return Err(format!("COMMIT({tid}) precondition fails"));
                }
                if self.commit_requested.get(tid) != Some(value) {
                    return Err(format!("COMMIT({tid}) value differs from request"));
                }
                self.committed.insert(tid.clone(), value.clone());
                self.returned.insert(tid.clone());
                Ok(())
            }
            TxnOp::Abort { tid } => {
                if !self.abort_enabled(tid) {
                    return Err(format!("ABORT({tid}) precondition fails"));
                }
                self.aborted.insert(tid.clone());
                self.returned.insert(tid.clone());
                Ok(())
            }
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

    fn create(path: &[u32]) -> TxnOp {
        TxnOp::Create {
            tid: t(path),
            access: None,
            param: None,
        }
    }

    #[test]
    fn siblings_run_concurrently() {
        let mut s = ConcurrentScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&TxnOp::request_create(t(&[0]))).unwrap();
        s.apply(&TxnOp::request_create(t(&[1]))).unwrap();
        s.apply(&create(&[0])).unwrap();
        // Unlike the serial scheduler, T0.1 is creatable while T0.0 runs.
        assert!(s.enabled_outputs().contains(&create(&[1])));
    }

    #[test]
    fn created_transactions_can_abort() {
        let mut s = ConcurrentScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&TxnOp::request_create(t(&[0]))).unwrap();
        s.apply(&create(&[0])).unwrap();
        assert!(s.enabled_outputs().contains(&TxnOp::Abort { tid: t(&[0]) }));
        s.apply(&TxnOp::Abort { tid: t(&[0]) }).unwrap();
        assert!(s.is_orphan(&t(&[0, 5])));
        // But not twice, and never after return.
        assert!(s.apply(&TxnOp::Abort { tid: t(&[0]) }).is_err());
    }

    #[test]
    fn root_never_aborts() {
        let s = ConcurrentScheduler::new();
        assert!(!s
            .enabled_outputs()
            .contains(&TxnOp::Abort { tid: Tid::root() }));
    }

    #[test]
    fn commit_still_waits_for_children() {
        let mut s = ConcurrentScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&TxnOp::request_create(t(&[0]))).unwrap();
        s.apply(&create(&[0])).unwrap();
        s.apply(&TxnOp::request_create(t(&[0, 0]))).unwrap();
        s.apply(&TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Nil,
        })
        .unwrap();
        assert!(!s
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::Commit { tid, .. } if tid == &t(&[0]))));
        s.apply(&TxnOp::Abort { tid: t(&[0, 0]) }).unwrap();
        assert!(s
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::Commit { tid, .. } if tid == &t(&[0]))));
    }
}
