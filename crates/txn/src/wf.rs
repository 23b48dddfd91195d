//! Well-formedness of transaction and basic-object schedules (paper §2.2).
//!
//! Well-formedness is defined *per primitive*: a sequence of operations of a
//! system is well-formed iff its projection at every transaction and every
//! basic object is well-formed. The paper proves that all serial schedules
//! are well-formed; [`SystemWfMonitor`] re-checks this at runtime as an
//! executable corollary, and the standalone trackers are used by components
//! and tests.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use ioa::{Monitor, Schedule, System};

use crate::op::TxnOp;
use crate::tid::Tid;
use crate::value::ObjectId;

/// A well-formedness violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WfError {
    /// The primitive (transaction or object) whose projection is ill-formed.
    pub primitive: String,
    /// Description of the violated clause.
    pub reason: String,
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ill-formed at {}: {}", self.primitive, self.reason)
    }
}

impl Error for WfError {}

/// Incremental checker for the well-formedness of one *transaction*'s
/// operation subsequence (the recursive definition in §2.2).
///
/// The tracked transaction `T` sees: `CREATE(T)`, `COMMIT(T',v)` /
/// `ABORT(T')` for children `T'`, `REQUEST-CREATE(T')` for children, and
/// `REQUEST-COMMIT(T,v)`.
#[derive(Clone, Debug, Default)]
pub struct TxnWfTracker {
    created: bool,
    requested: BTreeSet<Tid>,
    returned: BTreeSet<Tid>,
    commit_requested: bool,
}

impl TxnWfTracker {
    /// A tracker in the initial (empty-schedule) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe the next operation of `T`'s subsequence, where `tid` is `T`.
    ///
    /// # Errors
    ///
    /// [`WfError`] naming the violated clause.
    pub fn observe(&mut self, tid: &Tid, op: &TxnOp) -> Result<(), WfError> {
        let fail = |reason: String| {
            Err(WfError {
                primitive: tid.to_string(),
                reason,
            })
        };
        match op {
            TxnOp::Create { tid: t, .. } => {
                debug_assert_eq!(t, tid);
                if self.created {
                    return fail("repeated CREATE".into());
                }
                self.created = true;
            }
            TxnOp::Commit { tid: child, .. } | TxnOp::Abort { tid: child } => {
                debug_assert_eq!(child.parent().as_ref(), Some(tid));
                if !self.requested.contains(child) {
                    return fail(format!("return for unrequested child {child}"));
                }
                if self.returned.contains(child) {
                    return fail(format!("repeated return for child {child}"));
                }
                self.returned.insert(child.clone());
            }
            TxnOp::RequestCreate { tid: child, .. } => {
                debug_assert_eq!(child.parent().as_ref(), Some(tid));
                if self.requested.contains(child) {
                    return fail(format!("repeated REQUEST-CREATE for {child}"));
                }
                if self.commit_requested {
                    return fail("REQUEST-CREATE after REQUEST-COMMIT".into());
                }
                if !self.created {
                    return fail("REQUEST-CREATE before CREATE".into());
                }
                self.requested.insert(child.clone());
            }
            TxnOp::RequestCommit { tid: t, .. } => {
                debug_assert_eq!(t, tid);
                if self.commit_requested {
                    return fail("repeated REQUEST-COMMIT".into());
                }
                if !self.created {
                    return fail("REQUEST-COMMIT before CREATE".into());
                }
                self.commit_requested = true;
            }
        }
        Ok(())
    }
}

/// Incremental checker for the well-formedness of one *basic object*'s
/// operation subsequence: alternating `CREATE` / `REQUEST-COMMIT` pairs for
/// the same access, starting with a `CREATE`, each access created at most
/// once.
#[derive(Clone, Debug, Default)]
pub struct ObjectWfTracker {
    created: BTreeSet<Tid>,
    pending: Option<Tid>,
}

impl ObjectWfTracker {
    /// A tracker in the initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently pending access, if any.
    pub fn pending(&self) -> Option<&Tid> {
        self.pending.as_ref()
    }

    /// Observe the next operation of the object's subsequence.
    ///
    /// # Errors
    ///
    /// [`WfError`] naming the violated clause.
    pub fn observe(&mut self, object: ObjectId, op: &TxnOp) -> Result<(), WfError> {
        let fail = |reason: String| {
            Err(WfError {
                primitive: object.to_string(),
                reason,
            })
        };
        match op {
            TxnOp::Create { tid, .. } => {
                if self.created.contains(tid) {
                    return fail(format!("repeated CREATE for access {tid}"));
                }
                if let Some(p) = &self.pending {
                    return fail(format!("CREATE({tid}) while access {p} pending"));
                }
                self.created.insert(tid.clone());
                self.pending = Some(tid.clone());
            }
            TxnOp::RequestCommit { tid, .. } => {
                if !self.created.contains(tid) {
                    return fail(format!("REQUEST-COMMIT for uncreated access {tid}"));
                }
                if self.pending.as_ref() != Some(tid) {
                    return fail(format!("REQUEST-COMMIT({tid}) while not pending"));
                }
                self.pending = None;
            }
            other => {
                return fail(format!("operation {other} is not an object operation"));
            }
        }
        Ok(())
    }
}

/// Checks a whole sequence against the transaction well-formedness rules
/// for the single transaction `tid` (the sequence must be `σ|T`).
///
/// # Errors
///
/// The first violation found.
pub fn check_transaction_wf(tid: &Tid, seq: &[TxnOp]) -> Result<(), WfError> {
    let mut t = TxnWfTracker::new();
    for op in seq {
        t.observe(tid, op)?;
    }
    Ok(())
}

/// Checks a whole sequence against the basic-object well-formedness rules
/// (the sequence must be `σ|X`).
///
/// # Errors
///
/// The first violation found.
pub fn check_object_wf(object: ObjectId, seq: &[TxnOp]) -> Result<(), WfError> {
    let mut t = ObjectWfTracker::new();
    for op in seq {
        t.observe(object, op)?;
    }
    Ok(())
}

/// An [`ioa::Monitor`] asserting that the running system's schedule stays
/// well-formed at every primitive — the executable form of the paper's
/// lemma that all serial schedules are well-formed.
///
/// The monitor learns which transaction names are accesses (and to which
/// object) from the `access` payloads of `REQUEST-CREATE`/`CREATE`
/// operations, or from a pre-registered map for systems whose objects
/// resolve accesses by registry.
#[derive(Debug, Default)]
pub struct SystemWfMonitor {
    txns: BTreeMap<Tid, TxnWfTracker>,
    objects: BTreeMap<ObjectId, ObjectWfTracker>,
    access_obj: BTreeMap<Tid, ObjectId>,
    transactions_only: bool,
}

impl SystemWfMonitor {
    /// A monitor with no pre-registered accesses.
    pub fn new() -> Self {
        Self::default()
    }

    /// A monitor that checks transaction projections only.
    ///
    /// Concurrent (non-serial) systems use *resilient* objects that hold
    /// several pending accesses at once — deliberately outside the
    /// basic-object well-formedness discipline — so object projections are
    /// not checked there.
    pub fn transactions_only() -> Self {
        SystemWfMonitor {
            transactions_only: true,
            ..Self::default()
        }
    }

    /// Pre-register `tid` as an access to `object` (for registry-resolved
    /// systems such as the non-replicated system **A**, whose access
    /// operations carry no [`AccessSpec`](crate::AccessSpec)).
    pub fn register_access(&mut self, tid: Tid, object: ObjectId) {
        self.access_obj.insert(tid, object);
    }

    /// Observe the next operation of the system schedule directly (the
    /// standalone form of the [`Monitor`] hookup, for callers that have a
    /// plain operation sequence rather than an executing [`System`]).
    ///
    /// # Errors
    ///
    /// The violated well-formedness clause.
    pub fn observe_op(&mut self, op: &TxnOp) -> Result<(), WfError> {
        self.observe(op)
    }

    fn observe(&mut self, op: &TxnOp) -> Result<(), WfError> {
        // Learn access names from specs.
        if let (tid, Some(spec)) = (op.tid(), op.access()) {
            self.access_obj.entry(tid.clone()).or_insert(spec.object);
        }
        let tid = op.tid().clone();
        let is_access = self.access_obj.contains_key(&tid);
        match op {
            TxnOp::RequestCreate { .. } => {
                // Operation of parent(T).
                let parent = tid.parent().expect("REQUEST-CREATE of root");
                self.txns
                    .entry(parent.clone())
                    .or_default()
                    .observe(&parent, op)?;
            }
            TxnOp::Create { .. } => {
                if is_access {
                    if !self.transactions_only {
                        let obj = self.access_obj[&tid];
                        self.objects.entry(obj).or_default().observe(obj, op)?;
                    }
                } else {
                    self.txns
                        .entry(tid.clone())
                        .or_default()
                        .observe(&tid, op)?;
                }
            }
            TxnOp::RequestCommit { .. } => {
                if is_access {
                    if !self.transactions_only {
                        let obj = self.access_obj[&tid];
                        self.objects.entry(obj).or_default().observe(obj, op)?;
                    }
                } else {
                    self.txns
                        .entry(tid.clone())
                        .or_default()
                        .observe(&tid, op)?;
                }
            }
            TxnOp::Commit { .. } | TxnOp::Abort { .. } => {
                // Return operations belong to parent(T).
                let parent = tid.parent().expect("return operation for root");
                self.txns
                    .entry(parent.clone())
                    .or_default()
                    .observe(&parent, op)?;
            }
        }
        Ok(())
    }
}

impl Monitor<TxnOp> for SystemWfMonitor {
    fn name(&self) -> String {
        "well-formedness".into()
    }

    fn check(
        &mut self,
        _system: &System<TxnOp>,
        so_far: &Schedule<TxnOp>,
        step: usize,
    ) -> Result<(), String> {
        let op = &so_far[step];
        self.observe(op).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::AccessSpec;
    use crate::value::Value;

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

    fn rc(path: &[u32]) -> TxnOp {
        TxnOp::RequestCommit {
            tid: t(path),
            value: Value::Nil,
        }
    }

    #[test]
    fn empty_schedule_is_well_formed() {
        assert!(check_transaction_wf(&t(&[1]), &[]).is_ok());
        assert!(check_object_wf(ObjectId(0), &[]).is_ok());
    }

    #[test]
    fn typical_transaction_lifecycle() {
        let me = t(&[1]);
        let seq = vec![
            create(&[1]),
            TxnOp::request_create(t(&[1, 0])),
            TxnOp::Commit {
                tid: t(&[1, 0]),
                value: Value::Nil,
            },
            rc(&[1]),
        ];
        assert!(check_transaction_wf(&me, &seq).is_ok());
    }

    #[test]
    fn repeated_create_rejected() {
        let me = t(&[1]);
        let err = check_transaction_wf(&me, &[create(&[1]), create(&[1])]).unwrap_err();
        assert!(err.reason.contains("repeated CREATE"));
    }

    #[test]
    fn return_without_request_rejected() {
        let me = t(&[1]);
        let seq = vec![create(&[1]), TxnOp::Abort { tid: t(&[1, 0]) }];
        let err = check_transaction_wf(&me, &seq).unwrap_err();
        assert!(err.reason.contains("unrequested"));
    }

    #[test]
    fn conflicting_returns_rejected() {
        let me = t(&[1]);
        let seq = vec![
            create(&[1]),
            TxnOp::request_create(t(&[1, 0])),
            TxnOp::Commit {
                tid: t(&[1, 0]),
                value: Value::Nil,
            },
            TxnOp::Abort { tid: t(&[1, 0]) },
        ];
        let err = check_transaction_wf(&me, &seq).unwrap_err();
        assert!(err.reason.contains("repeated return"));
    }

    #[test]
    fn output_before_create_rejected() {
        let me = t(&[1]);
        let err = check_transaction_wf(&me, &[TxnOp::request_create(t(&[1, 0]))]).unwrap_err();
        assert!(err.reason.contains("before CREATE"));
        let err2 = check_transaction_wf(&me, &[rc(&[1])]).unwrap_err();
        assert!(err2.reason.contains("before CREATE"));
    }

    #[test]
    fn request_create_after_commit_rejected() {
        let me = t(&[1]);
        let seq = vec![create(&[1]), rc(&[1]), TxnOp::request_create(t(&[1, 0]))];
        let err = check_transaction_wf(&me, &seq).unwrap_err();
        assert!(err.reason.contains("after REQUEST-COMMIT"));
    }

    #[test]
    fn duplicate_child_request_rejected() {
        let me = t(&[1]);
        let seq = vec![
            create(&[1]),
            TxnOp::request_create(t(&[1, 0])),
            TxnOp::request_create(t(&[1, 0])),
        ];
        let err = check_transaction_wf(&me, &seq).unwrap_err();
        assert!(err.reason.contains("repeated REQUEST-CREATE"));
    }

    #[test]
    fn object_alternation_enforced() {
        let o = ObjectId(0);
        let a1 = TxnOp::Create {
            tid: t(&[1, 0]),
            access: Some(AccessSpec::read(o)),
            param: None,
        };
        let a2 = TxnOp::Create {
            tid: t(&[1, 1]),
            access: Some(AccessSpec::read(o)),
            param: None,
        };
        // CREATE while another access pending.
        let err = check_object_wf(o, &[a1.clone(), a2.clone()]).unwrap_err();
        assert!(err.reason.contains("pending"));
        // Proper alternation is fine.
        let ok = vec![a1, rc(&[1, 0]), a2, rc(&[1, 1])];
        assert!(check_object_wf(o, &ok).is_ok());
    }

    #[test]
    fn object_rejects_uncreated_commit_and_duplicates() {
        let o = ObjectId(0);
        let err = check_object_wf(o, &[rc(&[1, 0])]).unwrap_err();
        assert!(err.reason.contains("uncreated"));

        let a1 = TxnOp::Create {
            tid: t(&[1, 0]),
            access: Some(AccessSpec::read(o)),
            param: None,
        };
        let err2 = check_object_wf(o, &[a1.clone(), rc(&[1, 0]), a1]).unwrap_err();
        assert!(err2.reason.contains("repeated CREATE"));
    }

    #[test]
    fn monitor_routes_ops_to_primitives() {
        let mut m = SystemWfMonitor::new();
        // Root created, requests child 1; child created; child commits.
        let script = vec![
            TxnOp::Create {
                tid: Tid::root(),
                access: None,
                param: None,
            },
            TxnOp::request_create(t(&[1])),
            create(&[1]),
            rc(&[1]),
            TxnOp::Commit {
                tid: t(&[1]),
                value: Value::Nil,
            },
        ];
        for op in &script {
            m.observe(op).unwrap();
        }
    }

    #[test]
    fn monitor_detects_cross_primitive_violation() {
        let mut m = SystemWfMonitor::new();
        m.observe(&TxnOp::Create {
            tid: Tid::root(),
            access: None,
            param: None,
        })
        .unwrap();
        m.observe(&TxnOp::request_create(t(&[1]))).unwrap();
        // COMMIT for T0.2, never requested.
        let err = m
            .observe(&TxnOp::Commit {
                tid: t(&[2]),
                value: Value::Nil,
            })
            .unwrap_err();
        assert!(err.reason.contains("unrequested"));
    }

    #[test]
    fn monitor_uses_registered_accesses() {
        let mut m = SystemWfMonitor::new();
        m.register_access(t(&[1, 0]), ObjectId(9));
        m.observe(&TxnOp::Create {
            tid: t(&[1, 0]),
            access: None, // no spec: registry decides this is an object op
            param: None,
        })
        .unwrap();
        // The object tracker (not a transaction tracker) saw it: a second
        // CREATE for the same access must be a *repeated CREATE* object
        // violation.
        let err = m
            .observe(&TxnOp::Create {
                tid: t(&[1, 0]),
                access: None,
                param: None,
            })
            .unwrap_err();
        assert_eq!(err.primitive, "O9");
    }
}
