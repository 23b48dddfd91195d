//! The serial scheduler automaton (paper §2.2, fully specified).

use std::any::Any;
use std::collections::BTreeMap;

use ioa::{Component, OpClass};

use crate::op::{AccessSpec, TxnOp};
use crate::tid::Tid;
use crate::value::Value;

/// The serial scheduler: the fully-specified automaton that controls
/// communication between transactions and basic objects, and thereby defines
/// the allowable (serial) orders in which they may take steps.
///
/// The paper's state is six sets — `create-requested`, `created`,
/// `commit-requested`, `committed`, `aborted`, `returned` — with
/// `create-requested = {T0}` initially and the rest empty. They are kept
/// here as one ordered table from transaction name to a node:
///
/// | paper | node field |
/// |---|---|
/// | `T ∈ create-requested` | `REQUESTED` status bit (and the ferried `payload`) |
/// | `T ∈ created` | `CREATED` bit |
/// | `(T,v) ∈ commit-requested` | `commit_value = Some(v)` |
/// | `(T,v) ∈ committed` | `COMMITTED` bit (`v` is `commit_value`: `COMMIT` checks it) |
/// | `T ∈ aborted` | `ABORTED` bit |
/// | `T ∈ returned` | `COMMITTED` or `ABORTED` |
/// | `siblings(T) ∩ created ⊆ returned` | `parent(T)`'s `active_children == 0` |
/// | `children(T) ∩ create-requested ⊆ returned` | `T`'s `pending_children == 0` |
///
/// The two counters are the quantified preconditions maintained
/// incrementally (a scan per step makes long flat schedules quadratic):
/// `active_children` counts the children that are created and not
/// returned, `pending_children` those that are create-requested and not
/// returned. A step reaches its parent's node through the path prefix
/// ([`Tid`] borrows as `[u32]`), so no name is built to find it.
///
/// *Counter-only parents.* `REQUEST-CREATE(T)` for a `T` whose parent has
/// no node yet (only an ill-formed environment asks for one) makes the
/// parent a node with no status bit, just to hold the counter. Such a node
/// is in none of the paper's sets: it enables nothing and
/// [`enabled_outputs`](Component::enabled_outputs) skips it.
///
/// Output preconditions (transcribed):
///
/// * `CREATE(T)`: `T ∈ create-requested − (created ∪ aborted)` and
///   `siblings(T) ∩ created ⊆ returned` — siblings run one at a time, in a
///   depth-first traversal of the transaction tree.
/// * `COMMIT(T,v)`: `(T,v) ∈ commit-requested`, `T ∉ returned`, and
///   `children(T) ∩ create-requested ⊆ returned` — a transaction cannot
///   commit until all its requested children have returned.
/// * `ABORT(T)`: `T ∈ create-requested − (created ∪ aborted)` and
///   `siblings(T) ∩ created ⊆ returned` — the scheduler may spontaneously
///   abort any requested-but-not-yet-created transaction; the semantics of
///   `ABORT(T)` are that `T` was never created.
///
/// The root `T0` "may neither commit nor abort" (it models the external
/// world), so the scheduler never emits `COMMIT`/`ABORT` for it.
///
/// Because siblings run one at a time, this automaton cannot express the
/// concurrent-sibling schedules that parallel program nodes produce in
/// the simulator's nested-transaction harness (multiple in-flight
/// children per client, aborts straddling a running sibling) — those are
/// legal under the per-transaction well-formedness conditions but not
/// under the serial scheduler's sibling rule. `tests/concurrent_siblings.rs`
/// pins both facts; the harness keeps its own per-node state instead.
///
/// The scheduler also ferries the access/parameter payloads from
/// `REQUEST-CREATE(T)` to `CREATE(T)` — those payloads are part of the
/// transaction *name* in the paper's encoding (see
/// [`AccessSpec`](crate::AccessSpec)).
#[derive(Debug, Clone)]
pub struct SerialScheduler {
    nodes: BTreeMap<Tid, Node>,
}

const REQUESTED: u8 = 1;
const CREATED: u8 = 1 << 1;
const COMMITTED: u8 = 1 << 2;
const ABORTED: u8 = 1 << 3;

/// Everything the scheduler knows about one transaction name.
#[derive(Debug, Clone, Default)]
struct Node {
    /// `REQUESTED | CREATED | COMMITTED | ABORTED`.
    status: u8,
    /// `(access, param)` of the `REQUEST-CREATE`, handed on by `CREATE`.
    payload: (Option<AccessSpec>, Option<Value>),
    /// The `v` of `(T, v) ∈ commit-requested`.
    commit_value: Option<Value>,
    /// Children that are created and not returned.
    active_children: u32,
    /// Children that are create-requested and not returned.
    pending_children: u32,
}

impl Node {
    fn returned(&self) -> bool {
        self.status & (COMMITTED | ABORTED) != 0
    }

    /// `T ∈ create-requested − (created ∪ aborted)`.
    fn awaits_create(&self) -> bool {
        self.status & (REQUESTED | CREATED | ABORTED) == REQUESTED
    }

    /// `(T,v) ∈ commit-requested`, `T ∉ returned` and every requested
    /// child returned (the caller excludes the root).
    fn may_commit(&self) -> bool {
        self.commit_value.is_some() && !self.returned() && self.pending_children == 0
    }
}

fn parent_path(path: &[u32]) -> Option<&[u32]> {
    path.split_last().map(|(_, parent)| parent)
}

impl Default for SerialScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SerialScheduler {
    /// A scheduler in its start state (`create-requested = {T0}`).
    pub fn new() -> Self {
        let root = Node {
            status: REQUESTED,
            ..Node::default()
        };
        SerialScheduler {
            nodes: BTreeMap::from([(Tid::root(), root)]),
        }
    }

    /// Whether `tid` is an *orphan*: some ancestor has aborted. (Used for
    /// the non-orphan hypothesis of the paper's Theorem 11.)
    pub fn is_orphan(&self, tid: &Tid) -> bool {
        (0..=tid.depth()).any(|d| {
            self.nodes
                .get(&tid.path()[..d])
                .is_some_and(|n| n.status & ABORTED != 0)
        })
    }

    /// `siblings(T) ∩ created ⊆ returned`. Only consulted for a `T` that
    /// is not itself created, so the parent's counter counts exactly the
    /// created, unreturned siblings.
    fn siblings_quiet(&self, path: &[u32]) -> bool {
        parent_path(path)
            .and_then(|p| self.nodes.get(p))
            .is_none_or(|p| p.active_children == 0)
    }

    /// The node of a `T ∈ create-requested − (created ∪ aborted)` whose
    /// siblings are quiet: the shared precondition of `CREATE(T)` and
    /// `ABORT(T)`.
    fn awaiting_create_mut(&mut self, path: &[u32]) -> Option<&mut Node> {
        let quiet = self.siblings_quiet(path);
        self.nodes
            .get_mut(path)
            .filter(|n| quiet && n.awaits_create())
    }

    /// The parent's node of a child that is created or create-requested
    /// (its `REQUEST-CREATE` made that node); `None` for the root.
    fn parent_of_known_child(&mut self, child: &[u32]) -> Option<&mut Node> {
        let parent = self.nodes.get_mut(parent_path(child)?);
        debug_assert!(parent.is_some(), "REQUEST-CREATE makes the parent's node");
        parent
    }

    /// The transaction at `path`, whose status was `before`, has just
    /// returned: unless it had returned already, it stops being an active
    /// (created) and a pending (create-requested) child.
    fn child_returned(&mut self, path: &[u32], before: u8) {
        if before & (COMMITTED | ABORTED) != 0 || before & (CREATED | REQUESTED) == 0 {
            return;
        }
        if let Some(parent) = self.parent_of_known_child(path) {
            if before & CREATED != 0 {
                parent.active_children -= 1;
            }
            if before & REQUESTED != 0 {
                parent.pending_children -= 1;
            }
        }
    }
}

impl Component<TxnOp> for SerialScheduler {
    fn name(&self) -> String {
        "serial-scheduler".into()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::RequestCreate { .. } | TxnOp::RequestCommit { .. } => OpClass::Input,
            TxnOp::Create { .. } | TxnOp::Commit { .. } | TxnOp::Abort { .. } => OpClass::Output,
        }
    }

    fn reset(&mut self) {
        *self = SerialScheduler::new();
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        let mut out = Vec::new();
        for (t, node) in &self.nodes {
            if node.awaits_create() && self.siblings_quiet(t.path()) {
                let (access, param) = node.payload.clone();
                out.push(TxnOp::Create {
                    tid: t.clone(),
                    access,
                    param,
                });
                if !t.is_root() {
                    out.push(TxnOp::Abort { tid: t.clone() });
                }
            }
        }
        for (t, node) in &self.nodes {
            if !t.is_root() && node.may_commit() {
                out.push(TxnOp::Commit {
                    tid: t.clone(),
                    value: node.commit_value.clone().expect("may_commit checked it"),
                });
            }
        }
        out
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::RequestCreate { tid, access, param } => {
                // Postcondition: create-requested ∪= {T}. (Set union: a
                // repeat — which only an ill-formed parent would issue — is
                // idempotent.)
                let node = self.nodes.entry(tid.clone()).or_default();
                if node.status & REQUESTED != 0 {
                    return Ok(());
                }
                node.status |= REQUESTED;
                node.payload = (access.clone(), param.clone());
                if node.returned() {
                    return Ok(());
                }
                if let Some(p) = parent_path(tid.path()) {
                    match self.nodes.get_mut(p) {
                        Some(parent) => parent.pending_children += 1,
                        None => {
                            let counter_only = Node {
                                pending_children: 1,
                                ..Node::default()
                            };
                            self.nodes.insert(Tid::from_path(p), counter_only);
                        }
                    }
                }
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } => {
                let node = self.nodes.entry(tid.clone()).or_default();
                node.commit_value.get_or_insert_with(|| value.clone());
                Ok(())
            }
            TxnOp::Create { tid, .. } => {
                let path = tid.path();
                let Some(node) = self.awaiting_create_mut(path) else {
                    return Err(format!("CREATE({tid}) precondition fails"));
                };
                node.status |= CREATED;
                if !node.returned() {
                    if let Some(parent) = self.parent_of_known_child(path) {
                        parent.active_children += 1;
                    }
                }
                Ok(())
            }
            TxnOp::Commit { tid, value } => {
                let path = tid.path();
                let node = self.nodes.get_mut(path);
                let Some(node) = node.filter(|n| !path.is_empty() && n.may_commit()) else {
                    return Err(format!("COMMIT({tid}) precondition fails"));
                };
                if node.commit_value.as_ref() != Some(value) {
                    return Err(format!("COMMIT({tid}) value differs from request"));
                }
                let before = node.status;
                node.status |= COMMITTED;
                self.child_returned(path, before);
                Ok(())
            }
            TxnOp::Abort { tid } => {
                let path = tid.path();
                let node = self.awaiting_create_mut(path);
                let Some(node) = node.filter(|_| !path.is_empty()) else {
                    return Err(format!("ABORT({tid}) precondition fails"));
                };
                let before = node.status;
                node.status |= ABORTED;
                self.child_returned(path, before);
                Ok(())
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
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

    fn req(path: &[u32]) -> TxnOp {
        TxnOp::request_create(t(path))
    }

    fn create(path: &[u32]) -> TxnOp {
        TxnOp::Create {
            tid: t(path),
            access: None,
            param: None,
        }
    }

    #[test]
    fn initially_only_root_creation_enabled() {
        let s = SerialScheduler::new();
        let outs = s.enabled_outputs();
        assert_eq!(outs, vec![create(&[])]);
    }

    #[test]
    fn root_is_never_aborted_or_committed() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&TxnOp::RequestCommit {
            tid: Tid::root(),
            value: Value::Nil,
        })
        .unwrap();
        assert!(s.enabled_outputs().is_empty());
    }

    #[test]
    fn siblings_run_one_at_a_time() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        s.apply(&req(&[1])).unwrap();
        // Both children creatable...
        let outs = s.enabled_outputs();
        assert!(outs.contains(&create(&[0])));
        assert!(outs.contains(&create(&[1])));
        // ...but once T0.0 is created, T0.1 must wait.
        s.apply(&create(&[0])).unwrap();
        let outs = s.enabled_outputs();
        assert!(!outs.contains(&create(&[1])));
        // T0.1 may still be aborted? No: ABORT shares the sibling condition.
        assert!(!outs.contains(&TxnOp::Abort { tid: t(&[1]) }));
        // After T0.0 commits, T0.1 becomes creatable again.
        s.apply(&TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Nil,
        })
        .unwrap();
        s.apply(&TxnOp::Commit {
            tid: t(&[0]),
            value: Value::Nil,
        })
        .unwrap();
        assert!(s.enabled_outputs().contains(&create(&[1])));
    }

    #[test]
    fn commit_waits_for_children() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        s.apply(&create(&[0])).unwrap();
        s.apply(&req(&[0, 0])).unwrap();
        s.apply(&TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Int(1),
        })
        .unwrap();
        // Child T0.0.0 requested but not returned: COMMIT(T0.0) disabled.
        assert!(!s
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::Commit { tid, .. } if tid == &t(&[0]))));
        // Abort the child (never created): now the commit can go.
        s.apply(&TxnOp::Abort { tid: t(&[0, 0]) }).unwrap();
        assert!(s
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::Commit { tid, .. } if tid == &t(&[0]))));
    }

    #[test]
    fn abort_only_before_creation() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        let abort = TxnOp::Abort { tid: t(&[0]) };
        assert!(s.enabled_outputs().contains(&abort));
        s.apply(&create(&[0])).unwrap();
        assert!(!s.enabled_outputs().contains(&abort));
        assert!(s
            .apply(&TxnOp::Abort { tid: t(&[0]) })
            .is_err());
    }

    #[test]
    fn create_requires_request() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        assert!(s.apply(&create(&[5])).is_err());
    }

    #[test]
    fn no_repeat_create() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        assert!(s.apply(&create(&[])).is_err());
    }

    #[test]
    fn commit_value_must_match_request() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        s.apply(&create(&[0])).unwrap();
        s.apply(&TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Int(1),
        })
        .unwrap();
        assert!(s
            .apply(&TxnOp::Commit {
                tid: t(&[0]),
                value: Value::Int(2),
            })
            .is_err());
        assert!(s
            .apply(&TxnOp::Commit {
                tid: t(&[0]),
                value: Value::Int(1),
            })
            .is_ok());
        // No double return.
        assert!(s
            .apply(&TxnOp::Commit {
                tid: t(&[0]),
                value: Value::Int(1),
            })
            .is_err());
    }

    #[test]
    fn orphan_detection() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        s.apply(&TxnOp::Abort { tid: t(&[0]) }).unwrap();
        assert!(s.is_orphan(&t(&[0])));
        assert!(s.is_orphan(&t(&[0, 3])));
        assert!(!s.is_orphan(&t(&[1])));
    }

    #[test]
    fn payloads_ferried_from_request_to_create() {
        use crate::op::AccessSpec;
        use crate::value::ObjectId;
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        let spec = AccessSpec::read(ObjectId(7));
        s.apply(&TxnOp::RequestCreate {
            tid: t(&[0]),
            access: Some(spec.clone()),
            param: Some(Value::Int(9)),
        })
        .unwrap();
        let outs = s.enabled_outputs();
        assert!(outs.contains(&TxnOp::Create {
            tid: t(&[0]),
            access: Some(spec),
            param: Some(Value::Int(9)),
        }));
    }

    /// The incremental counters must agree with brute-force evaluation of
    /// the paper's set-quantified preconditions after every step of a
    /// nested schedule (creation, nesting, commits, and aborts).
    #[test]
    fn counter_predicates_match_the_quantified_preconditions() {
        let in_set = |s: &SerialScheduler, x: &Tid, bits: u8| {
            s.nodes.get(x).is_some_and(|n| n.status & bits != 0)
        };
        // `siblings(x) ∩ created ⊆ returned`
        let brute_quiet = |s: &SerialScheduler, x: &Tid| {
            s.nodes
                .iter()
                .filter(|(c, n)| n.status & CREATED != 0 && c.is_sibling_of(x))
                .all(|(_, n)| n.returned())
        };
        // `children(x) ∩ create-requested ⊆ returned`
        let brute_children = |s: &SerialScheduler, x: &Tid| {
            s.nodes
                .iter()
                .filter(|(c, n)| n.status & REQUESTED != 0 && c.is_child_of(x))
                .all(|(_, n)| n.returned())
        };
        let rc = |path: &[u32], v: Value| TxnOp::RequestCommit {
            tid: t(path),
            value: v,
        };
        let commit = |path: &[u32], v: Value| TxnOp::Commit {
            tid: t(path),
            value: v,
        };
        let script = vec![
            create(&[]),
            req(&[0]),
            req(&[1]),
            req(&[2]),
            create(&[0]),
            req(&[0, 0]),
            req(&[0, 1]),
            create(&[0, 0]),
            rc(&[0, 0], Value::Int(1)),
            commit(&[0, 0], Value::Int(1)),
            TxnOp::Abort { tid: t(&[0, 1]) },
            rc(&[0], Value::Nil),
            commit(&[0], Value::Nil),
            create(&[1]),
            rc(&[1], Value::Int(2)),
            commit(&[1], Value::Int(2)),
            TxnOp::Abort { tid: t(&[2]) },
        ];
        let probes = [
            t(&[]),
            t(&[0]),
            t(&[1]),
            t(&[2]),
            t(&[3]),
            t(&[0, 0]),
            t(&[0, 1]),
        ];
        let mut s = SerialScheduler::new();
        for op in script {
            s.apply(&op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
            for p in &probes {
                // `siblings_quiet` is only consulted for a `p` that is not
                // itself created-and-unreturned (see `awaiting_create_mut`);
                // an active `p` counts itself in the parent's counter.
                if !in_set(&s, p, CREATED) || in_set(&s, p, COMMITTED | ABORTED) {
                    assert_eq!(
                        s.siblings_quiet(p.path()),
                        brute_quiet(&s, p),
                        "siblings_quiet({p}) diverged after {op:?}"
                    );
                }
                assert_eq!(
                    s.nodes.get(p).is_none_or(|n| n.pending_children == 0),
                    brute_children(&s, p),
                    "pending_children({p}) diverged after {op:?}"
                );
            }
        }
        assert!(in_set(&s, &t(&[0]), COMMITTED));
        assert!(in_set(&s, &t(&[2]), ABORTED));
    }

    #[test]
    fn a_parent_that_only_holds_a_counter_enables_nothing() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        // T0.5 was never requested; its child is.
        s.apply(&req(&[5, 1])).unwrap();
        assert_eq!(
            s.enabled_outputs(),
            vec![create(&[5, 1]), TxnOp::Abort { tid: t(&[5, 1]) }]
        );
        assert!(s.apply(&create(&[5])).is_err());
        assert!(s.apply(&TxnOp::Abort { tid: t(&[5]) }).is_err());
        // Requesting the parent afterwards keeps the child it already holds.
        s.apply(&req(&[5])).unwrap();
        s.apply(&create(&[5])).unwrap();
        s.apply(&TxnOp::RequestCommit {
            tid: t(&[5]),
            value: Value::Nil,
        })
        .unwrap();
        let commit = TxnOp::Commit {
            tid: t(&[5]),
            value: Value::Nil,
        };
        assert!(!s.enabled_outputs().contains(&commit));
        s.apply(&TxnOp::Abort { tid: t(&[5, 1]) }).unwrap();
        assert!(s.enabled_outputs().contains(&commit));
    }
}

/// The node-table scheduler against the paper's literal six sets.
#[cfg(test)]
mod differential {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;
    use crate::value::ObjectId;

    /// The serial scheduler exactly as §2.2 writes it: six sets, and the
    /// two quantified preconditions evaluated by scanning them. Quadratic
    /// on long flat schedules, which is why it is only the reference.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct SixSetScheduler {
        create_requested: BTreeMap<Tid, (Option<AccessSpec>, Option<Value>)>,
        created: BTreeSet<Tid>,
        commit_requested: BTreeMap<Tid, Value>,
        committed: BTreeMap<Tid, Value>,
        aborted: BTreeSet<Tid>,
        returned: BTreeSet<Tid>,
    }

    impl SixSetScheduler {
        fn new() -> Self {
            let mut s = SixSetScheduler::default();
            s.create_requested.insert(Tid::root(), (None, None));
            s
        }

        fn create_enabled(&self, t: &Tid) -> bool {
            self.create_requested.contains_key(t)
                && !self.created.contains(t)
                && !self.aborted.contains(t)
                && self
                    .created
                    .iter()
                    .filter(|c| c.is_sibling_of(t))
                    .all(|c| self.returned.contains(c))
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

        fn enabled_outputs(&self) -> Vec<TxnOp> {
            let mut out = Vec::new();
            for (t, (access, param)) in &self.create_requested {
                if self.create_enabled(t) {
                    out.push(TxnOp::Create {
                        tid: t.clone(),
                        access: access.clone(),
                        param: param.clone(),
                    });
                    if !t.is_root() {
                        out.push(TxnOp::Abort { tid: t.clone() });
                    }
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
                }
                TxnOp::RequestCommit { tid, value } => {
                    self.commit_requested
                        .entry(tid.clone())
                        .or_insert_with(|| value.clone());
                }
                TxnOp::Create { tid, .. } => {
                    if !self.create_enabled(tid) {
                        return Err(format!("CREATE({tid}) precondition fails"));
                    }
                    self.created.insert(tid.clone());
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
                }
                TxnOp::Abort { tid } => {
                    if tid.is_root() || !self.create_enabled(tid) {
                        return Err(format!("ABORT({tid}) precondition fails"));
                    }
                    self.aborted.insert(tid.clone());
                    self.returned.insert(tid.clone());
                }
            }
            Ok(())
        }
    }

    /// The paper's sets, read back out of the node table.
    fn six_sets_of(s: &SerialScheduler) -> SixSetScheduler {
        let mut r = SixSetScheduler::default();
        for (t, n) in &s.nodes {
            if n.status & REQUESTED != 0 {
                r.create_requested.insert(t.clone(), n.payload.clone());
            }
            if n.status & CREATED != 0 {
                r.created.insert(t.clone());
            }
            if let Some(v) = &n.commit_value {
                r.commit_requested.insert(t.clone(), v.clone());
                if n.status & COMMITTED != 0 {
                    r.committed.insert(t.clone(), v.clone());
                }
            }
            if n.status & ABORTED != 0 {
                r.aborted.insert(t.clone());
            }
            if n.returned() {
                r.returned.insert(t.clone());
            }
        }
        r
    }

    /// One generated step: `pick` chooses between an enabled output of the
    /// scheduler (so runs make progress down the tree) and an arbitrary,
    /// usually ill-formed, operation built from the other three fields.
    type Step = (u8, u8, Vec<u32>, u8);

    fn arbitrary_op(kind: u8, path: &[u32], v: u8) -> TxnOp {
        let tid = Tid::from_path(path);
        let value = if v == 0 {
            Value::Nil
        } else {
            Value::Int(i64::from(v))
        };
        match kind {
            0 => TxnOp::request_create(tid),
            1 => TxnOp::RequestCreate {
                tid,
                access: Some(AccessSpec::write(ObjectId(0), value.clone())),
                param: Some(value),
            },
            2 => TxnOp::RequestCommit { tid, value },
            3 => TxnOp::Create {
                tid,
                access: None,
                param: None,
            },
            4 => TxnOp::Commit { tid, value },
            _ => TxnOp::Abort { tid },
        }
    }

    proptest! {
        /// Names come from a tree of fan-out 3 and depth ≤ 3, so repeats —
        /// a second `REQUEST-CREATE`, `REQUEST-COMMIT` of a name nobody
        /// requested, `ABORT` after `CREATE`, `COMMIT` before `CREATE`,
        /// children of a parent that was never requested — are common.
        #[test]
        fn node_table_agrees_with_the_six_sets(
            steps in prop::collection::vec(
                (0u8..8, 0u8..6, prop::collection::vec(0u32..3, 0..4), 0u8..3),
                1..80,
            ),
        ) {
            let steps: Vec<Step> = steps;
            let mut fast = SerialScheduler::new();
            let mut slow = SixSetScheduler::new();
            for (pick, kind, path, v) in steps {
                let enabled = fast.enabled_outputs();
                let op = if pick < 5 && !enabled.is_empty() {
                    enabled[(usize::from(kind) * 3 + usize::from(v)) % enabled.len()].clone()
                } else {
                    arbitrary_op(kind, &path, v)
                };
                prop_assert_eq!(fast.apply(&op), slow.apply(&op), "apply({:?})", &op);
                prop_assert_eq!(fast.enabled_outputs(), slow.enabled_outputs(), "after {:?}", &op);
                prop_assert_eq!(&six_sets_of(&fast), &slow, "state after {:?}", &op);

                let copy = fast.clone_boxed();
                prop_assert_eq!(copy.enabled_outputs(), slow.enabled_outputs());
            }
            // A copy taken mid-run is independent of, and resets like, the
            // original.
            let mut copy = fast.clone_boxed();
            copy.reset();
            prop_assert_eq!(copy.enabled_outputs(), SixSetScheduler::new().enabled_outputs());
            prop_assert_eq!(fast.enabled_outputs(), slow.enabled_outputs());
            fast.reset();
            prop_assert_eq!(&six_sets_of(&fast), &SixSetScheduler::new());
        }
    }
}
