//! The serial scheduler automaton (paper §2.2, fully specified).

use std::any::Any;

use ioa::{Component, OpClass};

use crate::name_tree::{At, NameTree};
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
/// here on the transaction name tree, one node per name:
///
/// | paper | node field |
/// |---|---|
/// | `T ∈ create-requested` | `REQUESTED` status bit (and the ferried `payload`) |
/// | `T ∈ created` | `CREATED` bit |
/// | `(T,v) ∈ commit-requested` | `commit_value = Some(v)` |
/// | `(T,v) ∈ committed` | `COMMITTED` bit (`v` is `commit_value`: `COMMIT` checks it) |
/// | `T ∈ aborted` | `ABORTED` bit |
/// | `T ∈ returned` | `COMMITTED` or `ABORTED` |
/// | `siblings(T) ∩ created ⊆ returned` | `parent(T)`'s `RUNNING_CHILD` bit clear |
/// | `children(T) ∩ create-requested ⊆ returned` | `T`'s `pending_children == 0` |
///
/// The last two rows are the quantified preconditions maintained
/// incrementally (a scan per step makes long flat schedules quadratic):
/// `RUNNING_CHILD` says some child is created and not returned — at most
/// one is, since `CREATE` needs the siblings quiet — and
/// `pending_children` counts the children that are create-requested and
/// not returned. A step finds its node by walking the name's path down
/// the tree ([`Tid`] lends it as `[u32]`), which passes through the
/// parent's node: a couple of array reads for the flat `T0.k` names of a
/// long serial schedule, and no name is built or compared.
///
/// *Retired names.* [`retire`](SerialScheduler::retire) drops a returned
/// name's node for a caller that will never name it again; every
/// operation naming it afterwards is refused. It is outside the paper's
/// automaton, and only the Theorem 10 checker calls it.
///
/// *Unnamed ancestors.* Entering a name gives every ancestor a node, with
/// no status bit until an operation names it: `REQUEST-CREATE(T)` under a
/// parent nobody requested (only an ill-formed environment asks for one)
/// counts on such a node. It is in none of the paper's sets: it enables
/// nothing and [`enabled_outputs`](Component::enabled_outputs) skips it.
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
    nodes: NameTree<Node>,
}

const REQUESTED: u8 = 1;
const CREATED: u8 = 1 << 1;
const COMMITTED: u8 = 1 << 2;
const ABORTED: u8 = 1 << 3;
/// Some child is created and not returned.
const RUNNING_CHILD: u8 = 1 << 4;

/// Everything the scheduler knows about one transaction name.
#[derive(Debug, Clone, Default)]
struct Node {
    /// `(access, param)` of the `REQUEST-CREATE`, handed on by `CREATE`.
    payload: (Option<AccessSpec>, Option<Value>),
    /// The `v` of `(T, v) ∈ commit-requested`.
    commit_value: Option<Value>,
    /// Children that are create-requested and not returned.
    pending_children: u32,
    /// `REQUESTED | CREATED | COMMITTED | ABORTED | RUNNING_CHILD`.
    status: u8,
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

/// `siblings(T) ∩ created ⊆ returned`, read off `parent(T)`'s node (`None`
/// for the root, which has no siblings). Only consulted for a `T` that is
/// not itself created, so the parent's bit speaks of the siblings alone.
fn siblings_quiet(parent: Option<&Node>) -> bool {
    parent.is_none_or(|p| p.status & RUNNING_CHILD == 0)
}

impl Default for SerialScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SerialScheduler {
    /// A scheduler in its start state (`create-requested = {T0}`).
    pub fn new() -> Self {
        let mut nodes: NameTree<Node> = NameTree::new();
        nodes[0].status = REQUESTED;
        SerialScheduler { nodes }
    }

    /// Whether `tid` is an *orphan*: some ancestor has aborted. (Used for
    /// the non-orphan hypothesis of the paper's Theorem 11.)
    pub fn is_orphan(&self, tid: &Tid) -> bool {
        self.nodes
            .along(tid.path())
            .any(|n| n.status & ABORTED != 0)
    }

    /// Where a `T ∈ create-requested − (created ∪ aborted)` whose siblings
    /// are quiet lives: the shared precondition of `CREATE(T)` and
    /// `ABORT(T)`.
    fn awaiting_create(&self, path: &[u32]) -> Option<At> {
        self.nodes.locate(path).filter(|&at| {
            self.nodes[at.slot].awaits_create()
                && siblings_quiet(at.parent.map(|parent| &self.nodes[parent]))
        })
    }

    /// Where `tid` lives, made if it was never entered; the refusal of
    /// `what` if the name is retired.
    fn entry(&mut self, tid: &Tid, what: &str) -> Result<At, String> {
        self.nodes
            .entry(tid.path())
            .ok_or_else(|| format!("{what}({tid}) names a retired transaction"))
    }

    /// Forget `tid`, which has returned, never had a descendant named (by
    /// a `REQUEST-CREATE` or `REQUEST-COMMIT`), and is the lowest-numbered
    /// child of its parent that is not yet retired. Every later operation that
    /// names `tid` or a descendant is refused, and
    /// [`enabled_outputs`](Component::enabled_outputs) never lists it;
    /// its node is reused.
    ///
    /// This is not a step of the automaton: it is for a caller that knows
    /// no later operation names `tid` — the Theorem 10 checker, whose α
    /// names its accesses `T0.0, T0.1, …` in order, each once. On such a
    /// schedule every output and every refusal is what the paper's six
    /// sets give. [`is_orphan`](SerialScheduler::is_orphan) knows nothing
    /// of a retired name.
    ///
    /// # Errors
    ///
    /// Why `tid` cannot be retired, with nothing changed.
    pub fn retire(&mut self, tid: &Tid) -> Result<(), String> {
        if !self.nodes.get(tid.path()).is_some_and(Node::returned) {
            return Err(format!("cannot retire {tid}: it has not returned"));
        }
        self.nodes
            .retire(tid.path())
            .map_err(|why| format!("cannot retire {tid}: {why}"))
    }

    /// The transaction at `at`, whose status was `before`, has just
    /// returned: unless it had returned already, it stops being the
    /// running (created) and a pending (create-requested) child.
    fn child_returned(&mut self, at: At, before: u8) {
        let Some(parent) = at.parent.filter(|_| before & (COMMITTED | ABORTED) == 0) else {
            return;
        };
        let parent = &mut self.nodes[parent];
        if before & CREATED != 0 {
            parent.status &= !RUNNING_CHILD;
        }
        if before & REQUESTED != 0 {
            parent.pending_children -= 1;
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
        // Every enabled `CREATE` / `ABORT` in name order, then every
        // enabled `COMMIT` in name order.
        let mut out = Vec::new();
        let mut commits = Vec::new();
        self.nodes.walk(|path, parent, node| {
            if node.awaits_create() && siblings_quiet(parent) {
                let tid = Tid::from_path(path);
                let (access, param) = node.payload.clone();
                out.push(TxnOp::Create {
                    tid: tid.clone(),
                    access,
                    param,
                });
                if !tid.is_root() {
                    out.push(TxnOp::Abort { tid });
                }
            }
            if parent.is_some() && node.may_commit() {
                commits.push(TxnOp::Commit {
                    tid: Tid::from_path(path),
                    value: node.commit_value.clone().expect("may_commit checked it"),
                });
            }
        });
        out.append(&mut commits);
        out
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::RequestCreate { tid, access, param } => {
                // Postcondition: create-requested ∪= {T}. (Set union: a
                // repeat — which only an ill-formed parent would issue — is
                // idempotent.)
                let at = self.entry(tid, "REQUEST-CREATE")?;
                let node = &mut self.nodes[at.slot];
                if node.status & REQUESTED != 0 {
                    return Ok(());
                }
                node.status |= REQUESTED;
                node.payload = (access.clone(), param.clone());
                if !node.returned() {
                    if let Some(parent) = at.parent {
                        self.nodes[parent].pending_children += 1;
                    }
                }
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } => {
                let at = self.entry(tid, "REQUEST-COMMIT")?;
                let node = &mut self.nodes[at.slot];
                node.commit_value.get_or_insert_with(|| value.clone());
                Ok(())
            }
            TxnOp::Create { tid, .. } => {
                let Some(at) = self.awaiting_create(tid.path()) else {
                    return Err(format!("CREATE({tid}) precondition fails"));
                };
                let node = &mut self.nodes[at.slot];
                node.status |= CREATED;
                if !node.returned() {
                    if let Some(parent) = at.parent {
                        self.nodes[parent].status |= RUNNING_CHILD;
                    }
                }
                Ok(())
            }
            TxnOp::Commit { tid, value } => {
                let at = self.nodes.locate(tid.path());
                let Some(at) =
                    at.filter(|at| at.parent.is_some() && self.nodes[at.slot].may_commit())
                else {
                    return Err(format!("COMMIT({tid}) precondition fails"));
                };
                let node = &mut self.nodes[at.slot];
                if node.commit_value.as_ref() != Some(value) {
                    return Err(format!("COMMIT({tid}) value differs from request"));
                }
                let before = node.status;
                node.status |= COMMITTED;
                self.child_returned(at, before);
                Ok(())
            }
            TxnOp::Abort { tid } => {
                let at = self.awaiting_create(tid.path());
                let Some(at) = at.filter(|at| at.parent.is_some()) else {
                    return Err(format!("ABORT({tid}) precondition fails"));
                };
                let node = &mut self.nodes[at.slot];
                let before = node.status;
                node.status |= ABORTED;
                self.child_returned(at, before);
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
        assert!(s.apply(&TxnOp::Abort { tid: t(&[0]) }).is_err());
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

    /// The incremental bit and counter must agree with brute-force
    /// evaluation of the paper's set-quantified preconditions after every
    /// step of a nested schedule (creation, nesting, commits, and aborts).
    #[test]
    fn counter_predicates_match_the_quantified_preconditions() {
        let names = |s: &SerialScheduler| {
            let mut all: Vec<(Tid, Node)> = Vec::new();
            s.nodes
                .walk(|path, _, n| all.push((Tid::from_path(path), n.clone())));
            all
        };
        let in_set = |s: &SerialScheduler, x: &Tid, bits: u8| {
            s.nodes.get(x.path()).is_some_and(|n| n.status & bits != 0)
        };
        // `siblings(x) ∩ created ⊆ returned`
        let brute_quiet = |s: &SerialScheduler, x: &Tid| {
            names(s)
                .iter()
                .filter(|(c, n)| n.status & CREATED != 0 && c.is_sibling_of(x))
                .all(|(_, n)| n.returned())
        };
        // `children(x) ∩ create-requested ⊆ returned`
        let brute_children = |s: &SerialScheduler, x: &Tid| {
            names(s)
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
                // itself created-and-unreturned (see `awaiting_create`); a
                // running `p` is its parent's running child.
                let parent = p.path().split_last().and_then(|(_, up)| s.nodes.get(up));
                if !in_set(&s, p, CREATED) || in_set(&s, p, COMMITTED | ABORTED) {
                    assert_eq!(
                        siblings_quiet(parent),
                        brute_quiet(&s, p),
                        "siblings_quiet({p}) diverged after {op:?}"
                    );
                }
                assert_eq!(
                    s.nodes
                        .get(p.path())
                        .is_none_or(|n| n.pending_children == 0),
                    brute_children(&s, p),
                    "pending_children({p}) diverged after {op:?}"
                );
            }
        }
        assert!(in_set(&s, &t(&[0]), COMMITTED));
        assert!(in_set(&s, &t(&[2]), ABORTED));
    }

    fn rc(path: &[u32]) -> TxnOp {
        TxnOp::RequestCommit {
            tid: t(path),
            value: Value::Nil,
        }
    }

    fn commit(path: &[u32]) -> TxnOp {
        TxnOp::Commit {
            tid: t(path),
            value: Value::Nil,
        }
    }

    /// T0 created, its children `0..n` requested.
    fn with_children(n: u32) -> SerialScheduler {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        for k in 0..n {
            s.apply(&req(&[k])).unwrap();
        }
        s
    }

    #[test]
    fn retire_refuses_the_root_a_name_not_returned_and_one_out_of_order() {
        let mut s = with_children(3);
        s.apply(&create(&[0])).unwrap();
        let before = format!("{s:?}");
        assert!(s.retire(&Tid::root()).is_err(), "the root never returns");
        assert!(s.retire(&t(&[0])).is_err(), "created, not returned");
        assert!(s.retire(&t(&[1])).is_err(), "requested, not returned");
        assert!(s.retire(&t(&[7])).is_err(), "never named");
        assert_eq!(format!("{s:?}"), before, "a refusal changes nothing");
        s.apply(&rc(&[0])).unwrap();
        s.apply(&commit(&[0])).unwrap();
        s.apply(&TxnOp::Abort { tid: t(&[2]) }).unwrap();
        let before = format!("{s:?}");
        let out_of_order = s.retire(&t(&[2])).unwrap_err();
        assert!(out_of_order.contains("a lower child"), "{out_of_order}");
        assert_eq!(format!("{s:?}"), before);
        s.retire(&t(&[0])).unwrap();
        assert!(s.retire(&t(&[0])).is_err(), "already retired");
        assert!(s.retire(&t(&[2])).is_err(), "T0.1 is still live below it");
        s.apply(&TxnOp::Abort { tid: t(&[1]) }).unwrap();
        s.retire(&t(&[1])).unwrap();
        s.retire(&t(&[2])).unwrap();
    }

    #[test]
    fn retire_refuses_a_name_whose_descendant_was_named() {
        let mut s = with_children(1);
        s.apply(&create(&[0])).unwrap();
        s.apply(&req(&[0, 0])).unwrap();
        s.apply(&TxnOp::Abort { tid: t(&[0, 0]) }).unwrap();
        s.apply(&rc(&[0])).unwrap();
        s.apply(&commit(&[0])).unwrap();
        let before = format!("{s:?}");
        let why = s.retire(&t(&[0])).unwrap_err();
        assert!(why.contains("entered children"), "{why}");
        assert_eq!(format!("{s:?}"), before);
        // Retiring the child first does not make the parent retirable.
        s.retire(&t(&[0, 0])).unwrap();
        assert!(s.retire(&t(&[0])).is_err());
    }

    #[test]
    fn every_operation_naming_a_retired_name_is_refused_and_none_is_enabled() {
        let mut s = with_children(2);
        s.apply(&create(&[0])).unwrap();
        s.apply(&rc(&[0])).unwrap();
        s.apply(&commit(&[0])).unwrap();
        s.retire(&t(&[0])).unwrap();
        let before = format!("{s:?}");
        for op in [
            req(&[0]),
            rc(&[0]),
            create(&[0]),
            commit(&[0]),
            TxnOp::Abort { tid: t(&[0]) },
            req(&[0, 4]),
            rc(&[0, 4]),
        ] {
            assert!(s.apply(&op).is_err(), "{op:?} names a retired transaction");
            assert_eq!(format!("{s:?}"), before, "{op:?} changed the state");
        }
        let names: Vec<Tid> = s
            .enabled_outputs()
            .iter()
            .map(|op| op.tid().clone())
            .collect();
        assert_eq!(
            names,
            [t(&[1]), t(&[1])],
            "CREATE and ABORT of T0.1, nothing of T0.0"
        );
        // The next child still runs as it would have.
        s.apply(&create(&[1])).unwrap();
        s.apply(&rc(&[1])).unwrap();
        assert_eq!(s.enabled_outputs(), [commit(&[1])]);
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

/// The name-tree scheduler against the paper's literal six sets.
#[cfg(test)]
mod differential {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;
    use crate::name_tree::testing::{wide_path, INDICES};
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

    /// The paper's sets, read back out of the name tree.
    fn six_sets_of(s: &SerialScheduler) -> SixSetScheduler {
        let mut r = SixSetScheduler::default();
        s.nodes.walk(|path, _, n| {
            let t = Tid::from_path(path);
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
        });
        r
    }

    // One generated step is `(pick, kind, path, v)`: `pick` chooses between
    // an enabled output of the scheduler (so runs make progress down the
    // tree) and an arbitrary, usually ill-formed, operation built from the
    // other three fields.

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
        /// Names come from a tree of depth ≤ 4 over the child indices
        /// `{0, 1, 2, 7, 1 000 000, u32::MAX}`, in any order of arrival
        /// (`T0.4294967295` before `T0.0`, a grandchild before its parent),
        /// the small indices drawn most often, so repeats — a second
        /// `REQUEST-CREATE`, `REQUEST-COMMIT` of a name nobody requested,
        /// `ABORT` after `CREATE`, `COMMIT` before `CREATE`, children of a
        /// parent that was never requested — are common. Outputs are
        /// compared in the order produced: name order, whatever the order
        /// of arrival.
        #[test]
        fn node_table_agrees_with_the_six_sets(
            steps in prop::collection::vec(
                (0u8..8, 0u8..6, prop::collection::vec(0usize..INDICES.len(), 0..5), 0u8..3),
                1..80,
            ),
        ) {
            let mut fast = SerialScheduler::new();
            let mut slow = SixSetScheduler::new();
            for (pick, kind, path, v) in steps {
                let path = wide_path(&path);
                let enabled = fast.enabled_outputs();
                let op = if pick < 5 && !enabled.is_empty() {
                    enabled[(usize::from(kind) * 3 + usize::from(v)) % enabled.len()].clone()
                } else {
                    arbitrary_op(kind, &path, v)
                };
                prop_assert_eq!(fast.apply(&op), slow.apply(&op), "apply({:?})", &op);
                prop_assert_eq!(fast.enabled_outputs(), slow.enabled_outputs(), "after {:?}", &op);
                prop_assert_eq!(&six_sets_of(&fast), &slow, "state after {:?}", &op);
                // The generated name, whether or not the step used it.
                let orphan = (0..=path.len())
                    .any(|d| slow.aborted.contains(&Tid::from_path(&path[..d])));
                prop_assert_eq!(fast.is_orphan(&Tid::from_path(&path)), orphan, "{:?}", &path);

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
