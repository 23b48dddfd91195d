//! Moss-style read/write locking with lock inheritance — the copy-level
//! concurrency-control algorithm the paper names as satisfying Theorem 11's
//! hypothesis (via Moss \[19\] and Fekete–Lynch–Merritt–Weihl \[9\]).
//!
//! A [`LockingObject`] is a *resilient* object: besides the `CREATE` /
//! `REQUEST-COMMIT` operations of its accesses, it receives `COMMIT` and
//! `ABORT` information for *every* transaction, which drives lock
//! inheritance and recovery:
//!
//! * an access `T` may acquire a **read lock** when every write-lock
//!   holder is an ancestor of `T`;
//! * an access `T` may acquire a **write lock** when every lock holder
//!   (read or write) is an ancestor of `T`;
//! * when a transaction commits, its locks and versions are inherited by
//!   its parent;
//! * when a transaction aborts, the locks and versions held by it and its
//!   descendants are discarded, restoring the previous version.
//!
//! Versions form a stack whose owners lie on one ancestor chain (a
//! consequence of the write rule), so an abort always removes a suffix.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use ioa::{Component, OpClass};
use nested_txn::{AccessKind, ObjectId, Tid, TxnOp, Value};

/// Locking granularity: how much of the nested structure the lock rules
/// see.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LockGranularity {
    /// Moss's nested rules: ancestors' locks do not conflict, read locks
    /// are shared. Maximum concurrency within the serializability the
    /// theory requires.
    #[default]
    Nested,
    /// A flat baseline: the object is exclusively owned by one *top-level*
    /// transaction at a time (any access whose top-level ancestor differs
    /// from every current holder's is blocked). Trivially serializable and
    /// strictly less concurrent — the ablation counterpart for
    /// experiment A2.
    TopLevelExclusive,
}

/// A resilient read/write object with Moss locking (see module docs).
#[derive(Clone, Debug)]
pub struct LockingObject {
    id: ObjectId,
    label: String,
    init: Value,
    /// Version stack; the base entry is owned by the root (= committed).
    versions: Vec<(Tid, Value)>,
    read_holders: BTreeSet<Tid>,
    write_holders: BTreeSet<Tid>,
    /// Accesses created but not yet granted + responded.
    pending: BTreeMap<Tid, (AccessKind, Value)>,
    /// Accesses created here (for classification).
    created: BTreeSet<Tid>,
    /// Aborted transactions seen so far: accesses descending from any of
    /// these are orphans and are never granted locks (they could otherwise
    /// acquire locks that no live transaction would ever release).
    aborted: Vec<Tid>,
    /// Count of grant attempts blocked by conflicts (for reporting).
    conflicts: u64,
    granularity: LockGranularity,
}

impl LockingObject {
    /// A locking object with the given initial (committed) value and
    /// Moss's nested locking rules.
    pub fn new(id: ObjectId, label: impl Into<String>, init: Value) -> Self {
        Self::with_granularity(id, label, init, LockGranularity::Nested)
    }

    /// A locking object with an explicit [`LockGranularity`].
    pub fn with_granularity(
        id: ObjectId,
        label: impl Into<String>,
        init: Value,
        granularity: LockGranularity,
    ) -> Self {
        LockingObject {
            id,
            label: label.into(),
            versions: vec![(Tid::root(), init.clone())],
            init,
            read_holders: BTreeSet::new(),
            write_holders: BTreeSet::new(),
            pending: BTreeMap::new(),
            created: BTreeSet::new(),
            aborted: Vec::new(),
            conflicts: 0,
            granularity,
        }
    }

    /// This object's identifier.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The currently visible (top) version's value.
    pub fn current_value(&self) -> &Value {
        &self.versions.last().expect("base version always present").1
    }

    /// Number of lock-conflict observations so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    fn read_grantable(&self, t: &Tid) -> bool {
        self.write_holders.iter().all(|w| w.is_ancestor_of(t))
    }

    fn write_grantable(&self, t: &Tid) -> bool {
        self.read_holders
            .iter()
            .chain(self.write_holders.iter())
            .all(|h| h.is_ancestor_of(t))
    }

    fn is_orphan(&self, t: &Tid) -> bool {
        self.aborted.iter().any(|a| a.is_ancestor_of(t))
    }

    /// Top-level ancestor (first path component) for the flat baseline.
    fn same_top(a: &Tid, b: &Tid) -> bool {
        a.path().first() == b.path().first()
    }

    fn grantable(&self, t: &Tid, kind: AccessKind) -> bool {
        if self.is_orphan(t) {
            return false;
        }
        let nested_ok = match kind {
            AccessKind::Read => self.read_grantable(t),
            AccessKind::Write => self.write_grantable(t),
        };
        match self.granularity {
            LockGranularity::Nested => nested_ok,
            // The flat baseline adds top-level exclusion *on top of* the
            // nested rules (which still arbitrate siblings within one
            // top-level transaction, keeping the version chain sound).
            LockGranularity::TopLevelExclusive => {
                nested_ok
                    && self
                        .read_holders
                        .iter()
                        .chain(self.write_holders.iter())
                        .all(|h| Self::same_top(h, t))
            }
        }
    }
}

impl Component<TxnOp> for LockingObject {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::Create { .. } => {
                if op.access().is_some_and(|s| s.object == self.id) {
                    OpClass::Input
                } else {
                    OpClass::NotMine
                }
            }
            TxnOp::RequestCommit { tid, .. } if self.created.contains(tid) => OpClass::Output,
            // Resilient objects receive commit/abort information for every
            // transaction (the paper's separation of concurrency control
            // from replication lives exactly here).
            TxnOp::Commit { .. } | TxnOp::Abort { .. } => OpClass::Input,
            _ => OpClass::NotMine,
        }
    }

    fn reset(&mut self) {
        self.versions = vec![(Tid::root(), self.init.clone())];
        self.read_holders.clear();
        self.write_holders.clear();
        self.pending.clear();
        self.created.clear();
        self.aborted.clear();
        self.conflicts = 0;
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        self.pending
            .iter()
            .filter(|(t, (kind, _))| self.grantable(t, *kind))
            .map(|(t, (kind, _))| TxnOp::RequestCommit {
                tid: t.clone(),
                value: match kind {
                    AccessKind::Read => self.current_value().clone(),
                    AccessKind::Write => Value::Nil,
                },
            })
            .collect()
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Create { tid, .. } => {
                let spec = op
                    .access()
                    .filter(|s| s.object == self.id)
                    .ok_or_else(|| format!("{}: CREATE for foreign access {tid}", self.label))?;
                if self.created.contains(tid) {
                    return Err(format!("{}: repeated CREATE({tid})", self.label));
                }
                if !self.grantable(tid, spec.kind) {
                    self.conflicts += 1;
                }
                self.created.insert(tid.clone());
                self.pending
                    .insert(tid.clone(), (spec.kind, spec.data.clone()));
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } => {
                let (kind, data) = self.pending.get(tid).cloned().ok_or_else(|| {
                    format!("{}: REQUEST-COMMIT for non-pending {tid}", self.label)
                })?;
                if !self.grantable(tid, kind) {
                    return Err(format!("{}: lock not grantable to {tid}", self.label));
                }
                match kind {
                    AccessKind::Read => {
                        if value != self.current_value() {
                            return Err(format!(
                                "{}: read {tid} returns {value}, current is {}",
                                self.label,
                                self.current_value()
                            ));
                        }
                        self.read_holders.insert(tid.clone());
                    }
                    AccessKind::Write => {
                        if !value.is_nil() {
                            return Err(format!("{}: write must return nil", self.label));
                        }
                        self.write_holders.insert(tid.clone());
                        self.versions.push((tid.clone(), data));
                    }
                }
                self.pending.remove(tid);
                Ok(())
            }
            TxnOp::Commit { tid, .. } => {
                // Inheritance: locks and versions pass to the parent.
                let Some(parent) = tid.parent() else {
                    return Ok(()); // root never commits, but be permissive
                };
                if self.read_holders.remove(tid) {
                    self.read_holders.insert(parent.clone());
                }
                if self.write_holders.remove(tid) {
                    self.write_holders.insert(parent.clone());
                }
                for (owner, _) in &mut self.versions {
                    if owner == tid {
                        *owner = parent.clone();
                    }
                }
                // A root-owned holder is an ancestor of everything: drop it
                // (equivalent to releasing the lock).
                self.read_holders.remove(&Tid::root());
                self.write_holders.remove(&Tid::root());
                Ok(())
            }
            TxnOp::Abort { tid } => {
                // Recovery: discard everything owned by the aborted subtree.
                self.aborted.push(tid.clone());
                self.read_holders.retain(|h| !tid.is_ancestor_of(h));
                self.write_holders.retain(|h| !tid.is_ancestor_of(h));
                self.versions.retain(|(o, _)| !tid.is_ancestor_of(o));
                self.pending.retain(|t, _| !tid.is_ancestor_of(t));
                debug_assert!(!self.versions.is_empty(), "base version survives aborts");
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
    use nested_txn::AccessSpec;

    fn t(path: &[u32]) -> Tid {
        Tid::from_path(path)
    }

    fn obj() -> LockingObject {
        LockingObject::new(ObjectId(0), "x", Value::Int(0))
    }

    fn create_access(o: &mut LockingObject, path: &[u32], kind: AccessKind, data: Value) {
        o.apply(&TxnOp::Create {
            tid: t(path),
            access: Some(AccessSpec {
                object: ObjectId(0),
                kind,
                data,
            }),
            param: None,
        })
        .unwrap();
    }

    fn granted(o: &LockingObject, path: &[u32]) -> bool {
        o.enabled_outputs().iter().any(|op| op.tid() == &t(path))
    }

    #[test]
    fn concurrent_readers_allowed() {
        let mut o = obj();
        create_access(&mut o, &[0, 0, 0], AccessKind::Read, Value::Nil);
        create_access(&mut o, &[1, 0, 0], AccessKind::Read, Value::Nil);
        assert!(granted(&o, &[0, 0, 0]));
        assert!(granted(&o, &[1, 0, 0]));
    }

    #[test]
    fn writer_blocks_foreign_reader_until_toplevel_commit() {
        let mut o = obj();
        // T0.0.0.0 writes.
        create_access(&mut o, &[0, 0, 0], AccessKind::Write, Value::Int(7));
        let w = o.enabled_outputs()[0].clone();
        o.apply(&w).unwrap();
        // T0.1.0.0 wants to read: blocked (writer not an ancestor).
        create_access(&mut o, &[1, 0, 0], AccessKind::Read, Value::Nil);
        assert!(!granted(&o, &[1, 0, 0]));
        // Writer's chain commits: access → TM → user → (root).
        o.apply(&TxnOp::Commit {
            tid: t(&[0, 0, 0]),
            value: Value::Nil,
        })
        .unwrap();
        assert!(!granted(&o, &[1, 0, 0]));
        o.apply(&TxnOp::Commit {
            tid: t(&[0, 0]),
            value: Value::Nil,
        })
        .unwrap();
        assert!(!granted(&o, &[1, 0, 0]));
        o.apply(&TxnOp::Commit {
            tid: t(&[0]),
            value: Value::Nil,
        })
        .unwrap();
        // Top-level committed: lock at root = released; reader sees 7.
        assert!(granted(&o, &[1, 0, 0]));
        let r = o.enabled_outputs()[0].clone();
        assert!(matches!(
            &r,
            TxnOp::RequestCommit { value, .. } if value == &Value::Int(7)
        ));
    }

    #[test]
    fn descendant_reads_ancestors_uncommitted_write() {
        let mut o = obj();
        // The TM T0.0.0 writes via one access, then reads via another.
        create_access(&mut o, &[0, 0, 0, 0], AccessKind::Write, Value::Int(5));
        let w = o.enabled_outputs()[0].clone();
        o.apply(&w).unwrap();
        o.apply(&TxnOp::Commit {
            tid: t(&[0, 0, 0, 0]),
            value: Value::Nil,
        })
        .unwrap();
        // Sibling access under the same TM: write lock now held by the TM
        // (an ancestor), so the read is granted and sees 5.
        create_access(&mut o, &[0, 0, 0, 1], AccessKind::Read, Value::Nil);
        assert!(granted(&o, &[0, 0, 0, 1]));
        let r = o.enabled_outputs()[0].clone();
        assert!(matches!(
            &r,
            TxnOp::RequestCommit { value, .. } if value == &Value::Int(5)
        ));
    }

    #[test]
    fn abort_rolls_back_versions_and_locks() {
        let mut o = obj();
        create_access(&mut o, &[0, 0, 0], AccessKind::Write, Value::Int(9));
        let w = o.enabled_outputs()[0].clone();
        o.apply(&w).unwrap();
        assert_eq!(o.current_value(), &Value::Int(9));
        // The whole user T0.0 aborts.
        o.apply(&TxnOp::Abort { tid: t(&[0]) }).unwrap();
        assert_eq!(o.current_value(), &Value::Int(0));
        // Foreign reader now proceeds.
        create_access(&mut o, &[1, 0, 0], AccessKind::Read, Value::Nil);
        assert!(granted(&o, &[1, 0, 0]));
    }

    #[test]
    fn read_locks_block_foreign_writers() {
        let mut o = obj();
        create_access(&mut o, &[0, 0, 0], AccessKind::Read, Value::Nil);
        let r = o.enabled_outputs()[0].clone();
        o.apply(&r).unwrap();
        create_access(&mut o, &[1, 0, 0], AccessKind::Write, Value::Int(1));
        assert!(!granted(&o, &[1, 0, 0]));
        // Reader aborts (e.g. deadlock victim): writer unblocked.
        o.apply(&TxnOp::Abort { tid: t(&[0, 0, 0]) }).unwrap();
        assert!(granted(&o, &[1, 0, 0]));
    }

    #[test]
    fn conflict_counter_increments() {
        let mut o = obj();
        create_access(&mut o, &[0, 0, 0], AccessKind::Write, Value::Int(1));
        let w = o.enabled_outputs()[0].clone();
        o.apply(&w).unwrap();
        assert_eq!(o.conflicts(), 0);
        create_access(&mut o, &[1, 0, 0], AccessKind::Write, Value::Int(2));
        assert_eq!(o.conflicts(), 1);
    }
}
