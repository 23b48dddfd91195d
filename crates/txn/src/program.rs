//! Non-access transaction automata driven by programs.
//!
//! The paper deliberately leaves transaction automata "largely unspecified"
//! — they are arbitrary automata subject only to preserving well-formedness.
//! [`TransactionNode`] realises that: it wraps a [`TransactionProgram`]
//! (which decides *what* to do) in an automaton shell that enforces the
//! well-formedness obligations (no outputs before `CREATE` or after
//! `REQUEST-COMMIT`, no duplicate child requests, …).

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use ioa::{Component, OpClass};

use crate::op::{AccessSpec, TxnOp};
use crate::tid::Tid;
use crate::value::Value;

/// The fate of a child transaction as reported to its parent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `COMMIT(T', v)` — the child committed with value `v`.
    Committed(Value),
    /// `ABORT(T')` — the child was aborted (semantically, never ran).
    Aborted,
}

impl Outcome {
    /// The committed value, if committed.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Outcome::Committed(v) => Some(v),
            Outcome::Aborted => None,
        }
    }
}

/// A request for the creation of one child.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildRequest {
    /// The child's index under this transaction.
    pub index: u32,
    /// Access attributes if the child is an access.
    pub access: Option<AccessSpec>,
    /// Creation parameter if the child's automaton is value-parameterised.
    pub param: Option<Value>,
}

/// The effects a program may produce in response to an input.
#[derive(Debug, Default)]
pub struct Effects {
    requests: Vec<ChildRequest>,
    commit: Option<Value>,
}

impl Effects {
    /// Request creation of an access child.
    pub fn request_access(&mut self, index: u32, spec: AccessSpec) {
        self.requests.push(ChildRequest {
            index,
            access: Some(spec),
            param: None,
        });
    }

    /// Announce completion with the given result value.
    pub fn request_commit(&mut self, value: Value) {
        self.commit = Some(value);
    }
}

/// The decision logic of a non-access transaction.
///
/// Programs are notified when the transaction is created and when each child
/// returns; they respond by requesting children and, eventually, requesting
/// to commit. Programs must be resettable so the enclosing system can be
/// returned to its start state.
pub trait TransactionProgram: fmt::Debug {
    /// Called on `CREATE(T)`.
    fn on_create(&mut self, eff: &mut Effects);

    /// Called on `COMMIT(T',v)` or `ABORT(T')` for a child `T'`.
    fn on_return(&mut self, child: &Tid, outcome: &Outcome, eff: &mut Effects);

    /// Return to the initial state.
    fn reset(&mut self);

    /// A boxed deep copy of this program in its current state, so the
    /// enclosing [`TransactionNode`] can be snapshotted by the explorer.
    fn clone_boxed(&self) -> Box<dyn TransactionProgram>;
}

/// An I/O automaton for a non-access transaction, combining a program with
/// well-formedness bookkeeping.
#[derive(Debug)]
pub struct TransactionNode {
    tid: Tid,
    label: String,
    program: Box<dyn TransactionProgram>,
    created: bool,
    requested: BTreeSet<Tid>,
    commit_performed: bool,
    pending_requests: VecDeque<TxnOp>,
    pending_commit: Option<Value>,
    returns: BTreeMap<Tid, Outcome>,
    child_limit: u32,
    halted: bool,
}

impl Clone for TransactionNode {
    fn clone(&self) -> Self {
        TransactionNode {
            tid: self.tid.clone(),
            label: self.label.clone(),
            program: self.program.clone_boxed(),
            created: self.created,
            requested: self.requested.clone(),
            commit_performed: self.commit_performed,
            pending_requests: self.pending_requests.clone(),
            pending_commit: self.pending_commit.clone(),
            returns: self.returns.clone(),
            child_limit: self.child_limit,
            halted: self.halted,
        }
    }
}

impl TransactionNode {
    /// A node for transaction `tid` driven by `program`.
    pub fn new(tid: Tid, program: impl TransactionProgram + 'static) -> Self {
        let label = format!("txn({tid})");
        TransactionNode {
            tid,
            label,
            program: Box::new(program),
            created: false,
            requested: BTreeSet::new(),
            commit_performed: false,
            pending_requests: VecDeque::new(),
            pending_commit: None,
            returns: BTreeMap::new(),
            child_limit: u32::MAX,
            halted: false,
        }
    }

    /// Restrict this node's operation signature to children with index
    /// `< limit`.
    ///
    /// Child names at and above the limit are *not* operations of this
    /// automaton; they can be claimed by a companion automaton — the
    /// reconfiguration *spy* of paper §4, which invokes reconfigure-TMs as
    /// children of the user transaction "spontaneously and transparently",
    /// without the user program seeing their invocations or returns.
    pub fn with_child_limit(mut self, limit: u32) -> Self {
        self.child_limit = limit;
        self
    }

    fn owns_child(&self, child: &Tid) -> bool {
        child.is_child_of(&self.tid) && child.last_index().is_some_and(|i| i < self.child_limit)
    }

    /// The transaction this node animates.
    pub fn tid(&self) -> &Tid {
        &self.tid
    }

    /// The fates of returned children, in name order.
    pub fn returns(&self) -> &BTreeMap<Tid, Outcome> {
        &self.returns
    }

    /// Whether this node has performed its `REQUEST-COMMIT`.
    pub fn has_committed_requested(&self) -> bool {
        self.commit_performed
    }

    fn absorb(&mut self, eff: Effects) {
        for r in eff.requests {
            let child = self.tid.child(r.index);
            if self.requested.contains(&child) {
                continue; // program bug; preserve well-formedness by dropping
            }
            self.pending_requests.push_back(TxnOp::RequestCreate {
                tid: child,
                access: r.access,
                param: r.param,
            });
        }
        if let Some(v) = eff.commit {
            self.pending_commit.get_or_insert(v);
        }
    }
}

impl Component<TxnOp> for TransactionNode {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::Create { tid, .. } if tid == &self.tid => OpClass::Input,
            // Own-abort information: in concurrent systems the scheduler
            // may abort a running transaction; the automaton halts (an
            // orphan-management courtesy — serial systems never send this
            // to a created transaction).
            TxnOp::Abort { tid } if tid == &self.tid => OpClass::Input,
            TxnOp::Commit { tid, .. } | TxnOp::Abort { tid } if self.owns_child(tid) => {
                OpClass::Input
            }
            TxnOp::RequestCreate { tid, .. } if self.owns_child(tid) => OpClass::Output,
            TxnOp::RequestCommit { tid, .. } if tid == &self.tid => OpClass::Output,
            _ => OpClass::NotMine,
        }
    }

    fn reset(&mut self) {
        self.program.reset();
        self.created = false;
        self.requested.clear();
        self.commit_performed = false;
        self.pending_requests.clear();
        self.pending_commit = None;
        self.returns.clear();
        self.halted = false;
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        if !self.created || self.commit_performed || self.halted {
            return Vec::new();
        }
        let mut out: Vec<TxnOp> = self.pending_requests.iter().cloned().collect();
        // Offer the commit only once all requests have been issued, so a
        // program that computes its result from child values never commits
        // out from under its own pending requests.
        if out.is_empty() {
            if let Some(v) = &self.pending_commit {
                out.push(TxnOp::RequestCommit {
                    tid: self.tid.clone(),
                    value: v.clone(),
                });
            }
        }
        out
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Abort { tid } if tid == &self.tid => {
                self.halted = true;
                Ok(())
            }
            TxnOp::Create { tid, .. } if tid == &self.tid => {
                self.created = true;
                let mut eff = Effects::default();
                self.program.on_create(&mut eff);
                self.absorb(eff);
                Ok(())
            }
            TxnOp::Commit { tid, value } if tid.is_child_of(&self.tid) => {
                let outcome = Outcome::Committed(value.clone());
                self.returns.insert(tid.clone(), outcome.clone());
                let mut eff = Effects::default();
                self.program.on_return(tid, &outcome, &mut eff);
                self.absorb(eff);
                Ok(())
            }
            TxnOp::Abort { tid } if tid.is_child_of(&self.tid) => {
                self.returns.insert(tid.clone(), Outcome::Aborted);
                let mut eff = Effects::default();
                self.program.on_return(tid, &Outcome::Aborted, &mut eff);
                self.absorb(eff);
                Ok(())
            }
            TxnOp::RequestCreate { tid, .. } if tid.is_child_of(&self.tid) => {
                let pos = self
                    .pending_requests
                    .iter()
                    .position(|p| p.tid() == tid)
                    .ok_or_else(|| format!("{}: REQUEST-CREATE({tid}) not pending", self.label))?;
                self.pending_requests.remove(pos);
                self.requested.insert(tid.clone());
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } if tid == &self.tid => {
                if self.commit_performed {
                    return Err(format!("{}: repeated REQUEST-COMMIT", self.label));
                }
                if self.pending_commit.as_ref() != Some(value) {
                    return Err(format!("{}: REQUEST-COMMIT value not pending", self.label));
                }
                self.commit_performed = true;
                self.pending_commit = None;
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

/// One step of a [`ScriptProgram`].
#[derive(Clone, Debug)]
pub enum ScriptStep {
    /// Request these children (possibly several), then wait for all of them
    /// to return before moving on.
    Run(Vec<ChildRequest>),
    /// Request to commit with this value.
    Commit(Value),
}

/// A program that walks a fixed script: batches of child requests, each
/// awaited to completion, optionally ending in a commit.
///
/// The root transaction `T0` (the external environment) is modelled as a
/// `ScriptProgram` with no `Commit` step, since `T0` may neither commit nor
/// abort.
#[derive(Clone, Debug)]
pub struct ScriptProgram {
    steps: Vec<ScriptStep>,
    pos: usize,
    outstanding: usize,
}

impl ScriptProgram {
    /// A program executing `steps` in order.
    pub fn new(steps: Vec<ScriptStep>) -> Self {
        ScriptProgram {
            steps,
            pos: 0,
            outstanding: 0,
        }
    }

    /// Convenience: request each listed child in its own awaited batch,
    /// then commit with `value`.
    pub fn sequential(children: Vec<ChildRequest>, value: Value) -> Self {
        let mut steps: Vec<ScriptStep> = children
            .into_iter()
            .map(|c| ScriptStep::Run(vec![c]))
            .collect();
        steps.push(ScriptStep::Commit(value));
        Self::new(steps)
    }

    fn advance(&mut self, eff: &mut Effects) {
        while self.pos < self.steps.len() && self.outstanding == 0 {
            match &self.steps[self.pos] {
                ScriptStep::Run(reqs) => {
                    for r in reqs {
                        eff.requests.push(r.clone());
                    }
                    self.outstanding = reqs.len();
                    self.pos += 1;
                    if self.outstanding > 0 {
                        break;
                    }
                }
                ScriptStep::Commit(v) => {
                    eff.request_commit(v.clone());
                    self.pos += 1;
                }
            }
        }
    }
}

impl TransactionProgram for ScriptProgram {
    fn on_create(&mut self, eff: &mut Effects) {
        self.advance(eff);
    }

    fn on_return(&mut self, _child: &Tid, _outcome: &Outcome, eff: &mut Effects) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.advance(eff);
    }

    fn reset(&mut self) {
        self.pos = 0;
        self.outstanding = 0;
    }

    fn clone_boxed(&self) -> Box<dyn TransactionProgram> {
        Box::new(self.clone())
    }
}

/// A program that immediately commits with a fixed value and spawns nothing.
#[derive(Clone, Debug)]
pub struct LeafProgram {
    value: Value,
}

impl LeafProgram {
    /// Commit immediately with `value`.
    pub fn new(value: Value) -> Self {
        LeafProgram { value }
    }
}

impl TransactionProgram for LeafProgram {
    fn on_create(&mut self, eff: &mut Effects) {
        eff.request_commit(self.value.clone());
    }

    fn on_return(&mut self, _child: &Tid, _outcome: &Outcome, _eff: &mut Effects) {}

    fn reset(&mut self) {}

    fn clone_boxed(&self) -> Box<dyn TransactionProgram> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(path: &[u32]) -> Tid {
        Tid::from_path(path)
    }

    fn create(node: &Tid) -> TxnOp {
        TxnOp::Create {
            tid: node.clone(),
            access: None,
            param: None,
        }
    }

    #[test]
    fn leaf_program_commits_immediately() {
        let mut n = TransactionNode::new(t(&[1]), LeafProgram::new(Value::Int(5)));
        assert!(n.enabled_outputs().is_empty()); // not created yet
        n.apply(&create(&t(&[1]))).unwrap();
        let outs = n.enabled_outputs();
        assert_eq!(
            outs,
            vec![TxnOp::RequestCommit {
                tid: t(&[1]),
                value: Value::Int(5),
            }]
        );
        n.apply(&outs[0]).unwrap();
        assert!(n.enabled_outputs().is_empty());
        assert!(n.has_committed_requested());
    }

    #[test]
    fn script_runs_batches_in_order() {
        let prog = ScriptProgram::new(vec![
            ScriptStep::Run(vec![ChildRequest {
                index: 0,
                access: None,
                param: None,
            }]),
            ScriptStep::Run(vec![ChildRequest {
                index: 1,
                access: None,
                param: None,
            }]),
            ScriptStep::Commit(Value::Nil),
        ]);
        let mut n = TransactionNode::new(t(&[1]), prog);
        n.apply(&create(&t(&[1]))).unwrap();
        // First batch pending.
        let outs = n.enabled_outputs();
        assert_eq!(outs, vec![TxnOp::request_create(t(&[1, 0]))]);
        n.apply(&outs[0]).unwrap();
        // Nothing until the child returns.
        assert!(n.enabled_outputs().is_empty());
        n.apply(&TxnOp::Commit {
            tid: t(&[1, 0]),
            value: Value::Int(9),
        })
        .unwrap();
        let outs = n.enabled_outputs();
        assert_eq!(outs, vec![TxnOp::request_create(t(&[1, 1]))]);
        n.apply(&outs[0]).unwrap();
        n.apply(&TxnOp::Abort { tid: t(&[1, 1]) }).unwrap();
        // Aborted child still unblocks the script (abort tolerance).
        let outs = n.enabled_outputs();
        assert_eq!(
            outs,
            vec![TxnOp::RequestCommit {
                tid: t(&[1]),
                value: Value::Nil,
            }]
        );
        assert_eq!(n.returns().len(), 2);
    }

    #[test]
    fn no_outputs_before_create_or_after_commit() {
        let mut n = TransactionNode::new(
            t(&[2]),
            ScriptProgram::sequential(Vec::new(), Value::Int(1)),
        );
        assert!(n.enabled_outputs().is_empty());
        n.apply(&create(&t(&[2]))).unwrap();
        let outs = n.enabled_outputs();
        n.apply(&outs[0]).unwrap();
        assert!(n.enabled_outputs().is_empty());
    }

    #[test]
    fn classify_covers_own_ops_only() {
        let n = TransactionNode::new(t(&[1]), LeafProgram::new(Value::Nil));
        assert_eq!(n.classify(&create(&t(&[1]))), OpClass::Input);
        assert_eq!(n.classify(&create(&t(&[2]))), OpClass::NotMine);
        assert_eq!(
            n.classify(&TxnOp::request_create(t(&[1, 0]))),
            OpClass::Output
        );
        assert_eq!(
            n.classify(&TxnOp::Commit {
                tid: t(&[1, 0]),
                value: Value::Nil
            }),
            OpClass::Input
        );
        // Grandchild returns are not ours.
        assert_eq!(
            n.classify(&TxnOp::Commit {
                tid: t(&[1, 0, 0]),
                value: Value::Nil
            }),
            OpClass::NotMine
        );
    }

    #[test]
    fn reset_restores_everything() {
        let mut n = TransactionNode::new(t(&[1]), LeafProgram::new(Value::Int(3)));
        n.apply(&create(&t(&[1]))).unwrap();
        let outs = n.enabled_outputs();
        n.apply(&outs[0]).unwrap();
        n.reset();
        assert!(!n.has_committed_requested());
        assert!(n.enabled_outputs().is_empty());
        n.apply(&create(&t(&[1]))).unwrap();
        assert_eq!(n.enabled_outputs().len(), 1);
    }

    #[test]
    fn parallel_batch_waits_for_all() {
        let prog = ScriptProgram::new(vec![
            ScriptStep::Run(vec![
                ChildRequest {
                    index: 0,
                    access: None,
                    param: None,
                },
                ChildRequest {
                    index: 1,
                    access: None,
                    param: None,
                },
            ]),
            ScriptStep::Commit(Value::Nil),
        ]);
        let mut n = TransactionNode::new(t(&[1]), prog);
        n.apply(&create(&t(&[1]))).unwrap();
        let outs = n.enabled_outputs();
        assert_eq!(outs.len(), 2);
        for o in &outs {
            n.apply(o).unwrap();
        }
        n.apply(&TxnOp::Commit {
            tid: t(&[1, 0]),
            value: Value::Nil,
        })
        .unwrap();
        assert!(n.enabled_outputs().is_empty());
        n.apply(&TxnOp::Commit {
            tid: t(&[1, 1]),
            value: Value::Nil,
        })
        .unwrap();
        assert_eq!(n.enabled_outputs().len(), 1);
    }
}
