//! Transaction managers: the Quorum Consensus algorithm itself (paper §3.1).
//!
//! A *read-TM* performs a logical read of item `x` by invoking read accesses
//! to data managers until it has heard from some read-quorum, then returns
//! the value with the highest version number seen. A *write-TM* first reads
//! a read-quorum to discover the current version number, then writes
//! `(vn + 1, value(T))` to DMs until some write-quorum has committed, then
//! returns `nil`.
//!
//! The automata transcribe the paper's pre/postconditions. The paper's TMs
//! are highly nondeterministic — "the read-TM simply invokes any number of
//! accesses to any of the DMs until it happens to notice that COMMIT
//! operations have been received from some read-quorum". [`TmStrategy`]
//! selects how much of that nondeterminism to expose to the executor; every
//! strategy only ever performs operations satisfying the paper's
//! preconditions, so (as the paper notes) correctness is unaffected.

use std::any::Any;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

use ioa::{Component, OpClass};
use nested_txn::{AccessKind, AccessSpec, ObjectId, Tid, TxnOp, Value};
use quorum::Configuration;

use crate::item::ItemId;

/// How a TM chooses which accesses to offer to the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TmStrategy {
    /// Offer an access to every data manager not currently outstanding or
    /// already committed, retrying aborted ones, and stop offering new
    /// accesses once the needed quorum is covered. Terminating and fully
    /// within the paper's preconditions.
    #[default]
    Eager,
    /// Like `Eager`, but keep offering redundant accesses (up to the given
    /// total) even after the quorum is covered — exercising the paper's
    /// full nondeterminism. Used by the randomized checkers for execution
    /// diversity.
    Chaotic {
        /// Upper bound on accesses invoked per phase.
        max_accesses: u32,
    },
    /// Contact exactly one minimal quorum per phase ("one would want the
    /// read-TM to invoke accesses with some particular read-quorum in
    /// mind", §3.1) — the efficient implementation the paper sketches.
    /// Aborted members are retried; the target never widens.
    Targeted,
}

/// Per-DM bookkeeping for an access phase (read or write).
#[derive(Clone, Debug, Default)]
struct Phase {
    /// DMs from which a COMMIT has been recorded into the quorum set.
    done: BTreeSet<ObjectId>,
    /// DMs with an access requested but not yet returned.
    outstanding: BTreeSet<ObjectId>,
    /// Number of accesses invoked in this phase.
    invoked: u32,
}

/// Common machinery shared by read- and write-TMs.
#[derive(Clone, Debug)]
struct TmBase {
    tid: Tid,
    item: ItemId,
    label: String,
    config: Configuration<ObjectId>,
    dms: Vec<ObjectId>,
    strategy: TmStrategy,
    awake: bool,
    committed: bool,
    next_child: u32,
    /// Access-name bookkeeping: child tid → (target DM, kind).
    children: BTreeMap<Tid, (ObjectId, AccessKind)>,
}

impl TmBase {
    fn new(
        tid: Tid,
        item: ItemId,
        kind: &str,
        config: Configuration<ObjectId>,
        dms: Vec<ObjectId>,
        strategy: TmStrategy,
    ) -> Self {
        let label = format!("{kind}-tm({item},{tid})");
        TmBase {
            tid,
            item,
            label,
            config,
            dms,
            strategy,
            awake: false,
            committed: false,
            next_child: 0,
            children: BTreeMap::new(),
        }
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::Create { tid, .. } if tid == &self.tid => OpClass::Input,
            // Own-abort information (concurrent systems only): halt.
            TxnOp::Abort { tid } if tid == &self.tid => OpClass::Input,
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
        self.next_child = 0;
        self.children.clear();
    }

    /// Candidate `REQUEST-CREATE`s for this phase: one per eligible DM, all
    /// sharing the next child index (the executor performs at most one).
    fn access_candidates(
        &self,
        phase: &Phase,
        kind: AccessKind,
        data: impl Fn() -> Value,
        quorum_covered: bool,
    ) -> Vec<TxnOp> {
        if !self.awake || self.committed {
            return Vec::new();
        }
        let allow_more = match self.strategy {
            TmStrategy::Eager | TmStrategy::Targeted => !quorum_covered,
            TmStrategy::Chaotic { max_accesses } => phase.invoked < max_accesses,
        };
        if !allow_more {
            return Vec::new();
        }
        // Targeted: restrict candidates to one chosen minimal quorum.
        let target: Option<std::collections::BTreeSet<ObjectId>> =
            if self.strategy == TmStrategy::Targeted {
                let all: std::collections::BTreeSet<ObjectId> = self.dms.iter().copied().collect();
                match kind {
                    AccessKind::Read => self.config.find_read_quorum(&all).cloned(),
                    AccessKind::Write => self.config.find_write_quorum(&all).cloned(),
                }
            } else {
                None
            };
        let child = self.tid.child(self.next_child);
        self.dms
            .iter()
            .filter(|dm| target.as_ref().is_none_or(|t| t.contains(dm)))
            .filter(|dm| !phase.done.contains(dm) && !phase.outstanding.contains(dm))
            .map(|dm| {
                let spec = match kind {
                    AccessKind::Read => AccessSpec::read(*dm),
                    AccessKind::Write => AccessSpec::write(*dm, data()),
                };
                TxnOp::RequestCreate {
                    tid: child.clone(),
                    access: Some(spec),
                    param: None,
                }
            })
            .collect()
    }

    /// Record a performed `REQUEST-CREATE` for an access child.
    fn note_request(
        &mut self,
        tid: &Tid,
        spec: &AccessSpec,
        phase: &mut Phase,
    ) -> Result<(), String> {
        if self.children.contains_key(tid) {
            return Err(format!("{}: repeated REQUEST-CREATE({tid})", self.label));
        }
        if !self.awake || self.committed {
            return Err(format!("{}: REQUEST-CREATE while not active", self.label));
        }
        self.children.insert(tid.clone(), (spec.object, spec.kind));
        phase.outstanding.insert(spec.object);
        phase.invoked += 1;
        if tid.last_index() == Some(self.next_child) {
            self.next_child += 1;
        }
        Ok(())
    }

    /// Look up the DM and kind of a returned child.
    fn child_target(&self, tid: &Tid) -> Result<(ObjectId, AccessKind), String> {
        self.children
            .get(tid)
            .copied()
            .ok_or_else(|| format!("{}: return for unknown child {tid}", self.label))
    }
}

/// A read-TM for logical item `x` (paper §3.1).
///
/// State components (besides bookkeeping): `awake`, `data ∈ D_x`
/// (initially `(0, i_x)`), and `read ⊆ dm(x)`. It may `REQUEST-COMMIT(T,v)`
/// exactly when `awake`, some read-quorum is contained in `read`, and
/// `v = data.value`.
#[derive(Clone, Debug)]
pub struct ReadTm {
    base: TmBase,
    init: Value,
    /// `data`: highest (version-number, value) seen.
    data_vn: u64,
    data_value: Value,
    /// `read`: DMs whose read accesses have committed to this TM.
    read: BTreeSet<ObjectId>,
    phase: Phase,
}

impl ReadTm {
    /// A read-TM named `tid` for `item`, over the given DM objects and
    /// configuration (a legal configuration of `dm(x)`).
    pub fn new(
        tid: Tid,
        item: ItemId,
        init: Value,
        dms: Vec<ObjectId>,
        config: Configuration<ObjectId>,
        strategy: TmStrategy,
    ) -> Self {
        ReadTm {
            base: TmBase::new(tid, item, "read", config, dms, strategy),
            data_vn: 0,
            data_value: init.clone(),
            init,
            read: BTreeSet::new(),
            phase: Phase::default(),
        }
    }

    /// The transaction name of this TM.
    pub fn tid(&self) -> &Tid {
        &self.base.tid
    }

    /// The item this TM reads.
    pub fn item(&self) -> ItemId {
        self.base.item
    }

    /// The set `read` of DMs heard from.
    pub fn read_set(&self) -> &BTreeSet<ObjectId> {
        &self.read
    }

    /// The current `(version-number, value)` in `data`.
    pub fn data(&self) -> (u64, &Value) {
        (self.data_vn, &self.data_value)
    }

    fn quorum_covered(&self) -> bool {
        self.base.config.covers_read_quorum(&self.read)
    }
}

impl Component<TxnOp> for ReadTm {
    fn name(&self) -> String {
        self.base.label.clone()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        self.base.classify(op)
    }

    fn reset(&mut self) {
        self.base.reset();
        self.data_vn = 0;
        self.data_value = self.init.clone();
        self.read.clear();
        self.phase = Phase::default();
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        let mut out = self.base.access_candidates(
            &self.phase,
            AccessKind::Read,
            Value::default,
            self.quorum_covered(),
        );
        // REQUEST-COMMIT(T, v): awake ∧ ∃q ∈ config.r: q ⊆ read ∧ v = data.value.
        if self.base.awake && !self.base.committed && self.quorum_covered() {
            out.push(TxnOp::RequestCommit {
                tid: self.base.tid.clone(),
                value: self.data_value.clone(),
            });
        }
        out
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Abort { tid } if tid == &self.base.tid => {
                self.base.awake = false;
                self.base.committed = true; // halt: no further outputs
                Ok(())
            }
            TxnOp::Create { tid, .. } if tid == &self.base.tid => {
                self.base.awake = true;
                Ok(())
            }
            TxnOp::RequestCreate { tid, access, .. } if tid.is_child_of(&self.base.tid) => {
                let spec = access
                    .as_ref()
                    .ok_or_else(|| format!("{}: access child without spec", self.base.label))?;
                if spec.kind != AccessKind::Read {
                    return Err(format!("{}: read-TM may only read", self.base.label));
                }
                // Split borrows: note_request needs base and phase.
                let phase = &mut self.phase;
                self.base.note_request(tid, spec, phase)
            }
            TxnOp::Commit { tid, value } if tid.is_child_of(&self.base.tid) => {
                let (dm, kind) = self.base.child_target(tid)?;
                debug_assert_eq!(kind, AccessKind::Read);
                self.phase.outstanding.remove(&dm);
                self.phase.done.insert(dm);
                // Postconditions: read ∪= {O(T')}; keep the highest-vn pair.
                self.read.insert(dm);
                if let Some((vn, v)) = value.as_versioned() {
                    if vn > self.data_vn {
                        self.data_vn = vn;
                        self.data_value = v.clone();
                    }
                } else {
                    return Err(format!(
                        "{}: read access returned non-versioned {value}",
                        self.base.label
                    ));
                }
                Ok(())
            }
            TxnOp::Abort { tid } if tid.is_child_of(&self.base.tid) => {
                // Paper: no postconditions. (Bookkeeping only: the DM may be
                // retried with a fresh access name.)
                let (dm, _) = self.base.child_target(tid)?;
                self.phase.outstanding.remove(&dm);
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } if tid == &self.base.tid => {
                if !self.base.awake || self.base.committed {
                    return Err(format!(
                        "{}: REQUEST-COMMIT while not awake",
                        self.base.label
                    ));
                }
                if !self.quorum_covered() {
                    return Err(format!("{}: no read-quorum covered", self.base.label));
                }
                if *value != self.data_value {
                    return Err(format!("{}: wrong return value", self.base.label));
                }
                self.base.committed = true;
                self.base.awake = false;
                Ok(())
            }
            other => Err(format!("{}: unexpected operation {other}", self.base.label)),
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

/// A write-TM for logical item `x` (paper §3.1).
///
/// First reads a read-quorum to learn the current version number (ignoring
/// read results once writing has begun, so it never sees its own writes),
/// then writes `(vn + 1, value(T))` until a write-quorum has committed, then
/// returns `nil`. The associated `value(T)` arrives as the `param` of its
/// `CREATE` (the paper's "transactions with different parameters are
/// different transactions" convention).
#[derive(Clone, Debug)]
pub struct WriteTm {
    base: TmBase,
    /// `value(T)`, fixed at creation.
    value: Option<Value>,
    /// `data.version-number` (the value component is unused by the paper's
    /// write-TM).
    data_vn: u64,
    read: BTreeSet<ObjectId>,
    written: BTreeSet<ObjectId>,
    read_phase: Phase,
    write_phase: Phase,
    /// Whether any write access has been requested (`write-requested ≠ {}`).
    writing: bool,
}

impl WriteTm {
    /// A write-TM named `tid` for `item`.
    pub fn new(
        tid: Tid,
        item: ItemId,
        dms: Vec<ObjectId>,
        config: Configuration<ObjectId>,
        strategy: TmStrategy,
    ) -> Self {
        WriteTm {
            base: TmBase::new(tid, item, "write", config, dms, strategy),
            value: None,
            data_vn: 0,
            read: BTreeSet::new(),
            written: BTreeSet::new(),
            read_phase: Phase::default(),
            write_phase: Phase::default(),
            writing: false,
        }
    }

    /// The transaction name of this TM.
    pub fn tid(&self) -> &Tid {
        &self.base.tid
    }

    /// The item this TM writes.
    pub fn item(&self) -> ItemId {
        self.base.item
    }

    /// The value this TM writes (`value(T)`), once created.
    pub fn value(&self) -> Option<&Value> {
        self.value.as_ref()
    }

    fn read_covered(&self) -> bool {
        self.base.config.covers_read_quorum(&self.read)
    }

    fn write_covered(&self) -> bool {
        self.base.config.covers_write_quorum(&self.written)
    }

    fn write_data(&self) -> Value {
        Value::versioned(self.data_vn + 1, self.value.clone().unwrap_or(Value::Nil))
    }
}

impl Component<TxnOp> for WriteTm {
    fn name(&self) -> String {
        self.base.label.clone()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        self.base.classify(op)
    }

    fn reset(&mut self) {
        self.base.reset();
        self.value = None;
        self.data_vn = 0;
        self.read.clear();
        self.written.clear();
        self.read_phase = Phase::default();
        self.write_phase = Phase::default();
        self.writing = false;
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        let mut out = Vec::new();
        // Read phase: discover the version number. (Refinement: stop
        // offering reads once writing has begun — late read COMMITs would
        // be ignored anyway.)
        if !self.writing {
            out.extend(self.base.access_candidates(
                &self.read_phase,
                AccessKind::Read,
                Value::default,
                self.read_covered(),
            ));
        }
        // Write phase: requires a covered read-quorum (precondition
        // `q ∈ config.r ∧ q ⊆ read`).
        if self.read_covered() {
            let data = self.write_data();
            out.extend(self.base.access_candidates(
                &self.write_phase,
                AccessKind::Write,
                || data.clone(),
                self.write_covered(),
            ));
        }
        // REQUEST-COMMIT(T, nil): some write-quorum ⊆ written.
        if self.base.awake && !self.base.committed && self.write_covered() {
            out.push(TxnOp::RequestCommit {
                tid: self.base.tid.clone(),
                value: Value::Nil,
            });
        }
        out
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Abort { tid } if tid == &self.base.tid => {
                self.base.awake = false;
                self.base.committed = true; // halt: no further outputs
                Ok(())
            }
            TxnOp::Create { tid, param, .. } if tid == &self.base.tid => {
                self.base.awake = true;
                self.value = Some(param.clone().unwrap_or(Value::Nil));
                Ok(())
            }
            TxnOp::RequestCreate { tid, access, .. } if tid.is_child_of(&self.base.tid) => {
                let spec = access
                    .as_ref()
                    .ok_or_else(|| format!("{}: access child without spec", self.base.label))?;
                match spec.kind {
                    AccessKind::Read => {
                        let phase = &mut self.read_phase;
                        self.base.note_request(tid, spec, phase)
                    }
                    AccessKind::Write => {
                        // Preconditions: read-quorum covered; data is
                        // (data.vn + 1, value(T)).
                        if !self.read_covered() {
                            return Err(format!(
                                "{}: write access before read-quorum",
                                self.base.label
                            ));
                        }
                        if spec.data != self.write_data() {
                            return Err(format!(
                                "{}: write access with wrong data",
                                self.base.label
                            ));
                        }
                        self.writing = true;
                        let phase = &mut self.write_phase;
                        self.base.note_request(tid, spec, phase)
                    }
                }
            }
            TxnOp::Commit { tid, value } if tid.is_child_of(&self.base.tid) => {
                let (dm, kind) = self.base.child_target(tid)?;
                match kind {
                    AccessKind::Read => {
                        self.read_phase.outstanding.remove(&dm);
                        self.read_phase.done.insert(dm);
                        // Postconditions (guarded): only if no write access
                        // has been requested — otherwise the TM might see
                        // its own writes and re-increment.
                        if !self.writing {
                            self.read.insert(dm);
                            if let Some((vn, _)) = value.as_versioned() {
                                if vn > self.data_vn {
                                    self.data_vn = vn;
                                }
                            } else {
                                return Err(format!(
                                    "{}: read access returned non-versioned {value}",
                                    self.base.label
                                ));
                            }
                        }
                        Ok(())
                    }
                    AccessKind::Write => {
                        self.write_phase.outstanding.remove(&dm);
                        self.write_phase.done.insert(dm);
                        // Postcondition: written ∪= {O(T')}.
                        self.written.insert(dm);
                        Ok(())
                    }
                }
            }
            TxnOp::Abort { tid } if tid.is_child_of(&self.base.tid) => {
                let (dm, kind) = self.base.child_target(tid)?;
                match kind {
                    AccessKind::Read => self.read_phase.outstanding.remove(&dm),
                    AccessKind::Write => self.write_phase.outstanding.remove(&dm),
                };
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } if tid == &self.base.tid => {
                if !self.base.awake || self.base.committed {
                    return Err(format!(
                        "{}: REQUEST-COMMIT while not awake",
                        self.base.label
                    ));
                }
                if !value.is_nil() {
                    return Err(format!("{}: write-TM must return nil", self.base.label));
                }
                if !self.write_covered() {
                    return Err(format!("{}: no write-quorum covered", self.base.label));
                }
                self.base.committed = true;
                self.base.awake = false;
                Ok(())
            }
            other => Err(format!("{}: unexpected operation {other}", self.base.label)),
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

    fn ids(n: u32) -> Vec<ObjectId> {
        (0..n).map(ObjectId).collect()
    }

    fn majority_cfg(dms: &[ObjectId]) -> Configuration<ObjectId> {
        quorum::generators::majority(dms)
    }

    fn create(tid: &Tid, param: Option<Value>) -> TxnOp {
        TxnOp::Create {
            tid: tid.clone(),
            access: None,
            param,
        }
    }

    fn commit(tid: Tid, value: Value) -> TxnOp {
        TxnOp::Commit { tid, value }
    }

    #[test]
    fn read_tm_happy_path_majority() {
        let dms = ids(3);
        let tm_tid = Tid::root().child(0).child(0);
        let mut tm = ReadTm::new(
            tm_tid.clone(),
            ItemId(0),
            Value::Int(0),
            dms.clone(),
            majority_cfg(&dms),
            TmStrategy::Eager,
        );
        assert!(tm.enabled_outputs().is_empty());
        tm.apply(&create(&tm_tid, None)).unwrap();
        // Offers one read candidate per DM.
        let outs = tm.enabled_outputs();
        assert_eq!(outs.len(), 3);
        // Request accesses to DM0 and DM1.
        let to_dm = |outs: &[TxnOp], dm: ObjectId| {
            outs.iter()
                .find(|o| o.access().map(|s| s.object) == Some(dm))
                .unwrap()
                .clone()
        };
        let r0 = to_dm(&outs, ObjectId(0));
        tm.apply(&r0).unwrap();
        let outs = tm.enabled_outputs();
        let r1 = to_dm(&outs, ObjectId(1));
        tm.apply(&r1).unwrap();
        // Their commits arrive: DM0 has (2, 7), DM1 has (1, 5).
        tm.apply(&commit(
            r0.tid().clone(),
            Value::versioned(2, Value::Int(7)),
        ))
        .unwrap();
        // One DM is not a majority of 3.
        assert!(!tm
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::RequestCommit { .. })));
        tm.apply(&commit(
            r1.tid().clone(),
            Value::versioned(1, Value::Int(5)),
        ))
        .unwrap();
        // Quorum covered: returns value with the highest version number.
        let outs = tm.enabled_outputs();
        assert_eq!(
            outs,
            vec![TxnOp::RequestCommit {
                tid: tm_tid.clone(),
                value: Value::Int(7),
            }]
        );
        tm.apply(&outs[0]).unwrap();
        assert!(tm.enabled_outputs().is_empty());
    }

    #[test]
    fn read_tm_retries_aborted_access() {
        let dms = ids(2);
        // Config: both DMs required for a read quorum.
        let all: std::collections::BTreeSet<ObjectId> = dms.iter().copied().collect();
        let cfg = Configuration::new(vec![all.clone()], vec![all]);
        let tm_tid = Tid::root().child(0).child(0);
        let mut tm = ReadTm::new(
            tm_tid.clone(),
            ItemId(0),
            Value::Nil,
            dms,
            cfg,
            TmStrategy::Eager,
        );
        tm.apply(&create(&tm_tid, None)).unwrap();
        let outs = tm.enabled_outputs();
        let r0 = outs
            .iter()
            .find(|o| o.access().map(|s| s.object) == Some(ObjectId(0)))
            .unwrap()
            .clone();
        tm.apply(&r0).unwrap();
        // The access aborts; the DM becomes eligible again with a new name.
        tm.apply(&TxnOp::Abort {
            tid: r0.tid().clone(),
        })
        .unwrap();
        let outs = tm.enabled_outputs();
        let retry = outs
            .iter()
            .find(|o| o.access().map(|s| s.object) == Some(ObjectId(0)))
            .expect("aborted DM offered again");
        assert_ne!(retry.tid(), r0.tid(), "retry uses a fresh access name");
    }

    #[test]
    fn write_tm_two_phases() {
        let dms = ids(3);
        let tm_tid = Tid::root().child(0).child(1);
        let mut tm = WriteTm::new(
            tm_tid.clone(),
            ItemId(0),
            dms.clone(),
            majority_cfg(&dms),
            TmStrategy::Eager,
        );
        tm.apply(&create(&tm_tid, Some(Value::Int(42)))).unwrap();
        assert_eq!(tm.value(), Some(&Value::Int(42)));
        // Phase 1: only read candidates.
        let outs = tm.enabled_outputs();
        assert!(outs
            .iter()
            .all(|o| o.access().map(|s| s.kind) == Some(AccessKind::Read)));
        // Hear from a majority with vn 4 and 2.
        let mut reqs = Vec::new();
        for dm in [ObjectId(0), ObjectId(1)] {
            let outs = tm.enabled_outputs();
            let r = outs
                .iter()
                .find(|o| o.access().map(|s| s.object) == Some(dm))
                .unwrap()
                .clone();
            tm.apply(&r).unwrap();
            reqs.push(r);
        }
        tm.apply(&commit(
            reqs[0].tid().clone(),
            Value::versioned(4, Value::Int(0)),
        ))
        .unwrap();
        tm.apply(&commit(
            reqs[1].tid().clone(),
            Value::versioned(2, Value::Int(0)),
        ))
        .unwrap();
        // Phase 2: write candidates with (5, 42).
        let outs = tm.enabled_outputs();
        let w = outs
            .iter()
            .find(|o| o.access().map(|s| s.kind) == Some(AccessKind::Write))
            .expect("write phase begins");
        assert_eq!(
            w.access().unwrap().data,
            Value::versioned(5, Value::Int(42))
        );
        // Write to two DMs (a write quorum).
        let mut writes = Vec::new();
        for dm in [ObjectId(1), ObjectId(2)] {
            let outs = tm.enabled_outputs();
            let w = outs
                .iter()
                .find(|o| o.access().map(|s| (s.object, s.kind)) == Some((dm, AccessKind::Write)))
                .unwrap()
                .clone();
            tm.apply(&w).unwrap();
            writes.push(w);
        }
        // No REQUEST-COMMIT until write commits arrive.
        assert!(!tm
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::RequestCommit { .. })));
        for w in &writes {
            tm.apply(&commit(w.tid().clone(), Value::Nil)).unwrap();
        }
        let outs = tm.enabled_outputs();
        assert_eq!(
            outs,
            vec![TxnOp::RequestCommit {
                tid: tm_tid,
                value: Value::Nil,
            }]
        );
    }

    #[test]
    fn write_tm_ignores_late_reads_once_writing() {
        let dms = ids(3);
        let tm_tid = Tid::root().child(0).child(1);
        let mut tm = WriteTm::new(
            tm_tid.clone(),
            ItemId(0),
            dms.clone(),
            majority_cfg(&dms),
            TmStrategy::Eager,
        );
        tm.apply(&create(&tm_tid, Some(Value::Int(1)))).unwrap();
        // Request reads to all three DMs.
        let mut reqs = BTreeMap::new();
        for dm in ids(3) {
            let outs = tm.enabled_outputs();
            let r = outs
                .iter()
                .find(|o| o.access().map(|s| s.object) == Some(dm))
                .unwrap()
                .clone();
            tm.apply(&r).unwrap();
            reqs.insert(dm, r);
        }
        // Two commits arrive (vn 3): quorum covered.
        tm.apply(&commit(
            reqs[&ObjectId(0)].tid().clone(),
            Value::versioned(3, Value::Int(0)),
        ))
        .unwrap();
        tm.apply(&commit(
            reqs[&ObjectId(1)].tid().clone(),
            Value::versioned(3, Value::Int(0)),
        ))
        .unwrap();
        // Start writing to DM0: data is (4, 1).
        let outs = tm.enabled_outputs();
        let w = outs
            .iter()
            .find(|o| o.access().map(|s| s.kind) == Some(AccessKind::Write))
            .unwrap()
            .clone();
        tm.apply(&w).unwrap();
        // Now the stale read from DM2 returns our own write (vn 4): the
        // guarded postcondition must NOT bump the version number.
        tm.apply(&commit(
            reqs[&ObjectId(2)].tid().clone(),
            Value::versioned(4, Value::Int(1)),
        ))
        .unwrap();
        assert_eq!(tm.data_vn, 3, "own write must not be re-observed");
        // Subsequent write candidates still carry (4, 1).
        let outs = tm.enabled_outputs();
        let w2 = outs
            .iter()
            .find(|o| o.access().map(|s| s.kind) == Some(AccessKind::Write))
            .unwrap();
        assert_eq!(
            w2.access().unwrap().data,
            Value::versioned(4, Value::Int(1))
        );
    }

    #[test]
    fn write_tm_rejects_premature_write() {
        let dms = ids(3);
        let tm_tid = Tid::root().child(0).child(1);
        let mut tm = WriteTm::new(
            tm_tid.clone(),
            ItemId(0),
            dms.clone(),
            majority_cfg(&dms),
            TmStrategy::Eager,
        );
        tm.apply(&create(&tm_tid, Some(Value::Int(1)))).unwrap();
        let w = TxnOp::RequestCreate {
            tid: tm_tid.child(0),
            access: Some(AccessSpec::write(
                ObjectId(0),
                Value::versioned(1, Value::Int(1)),
            )),
            param: None,
        };
        assert!(tm.apply(&w).unwrap_err().contains("before read-quorum"));
    }

    #[test]
    fn rowa_read_commits_after_one_dm() {
        let dms = ids(3);
        let cfg = quorum::generators::rowa(&dms);
        let tm_tid = Tid::root().child(0).child(0);
        let mut tm = ReadTm::new(
            tm_tid.clone(),
            ItemId(0),
            Value::Int(0),
            dms,
            cfg,
            TmStrategy::Eager,
        );
        tm.apply(&create(&tm_tid, None)).unwrap();
        let outs = tm.enabled_outputs();
        let r = outs[0].clone();
        tm.apply(&r).unwrap();
        tm.apply(&commit(r.tid().clone(), Value::versioned(0, Value::Int(0))))
            .unwrap();
        assert!(tm
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::RequestCommit { .. })));
        // Eager strategy stops offering further reads once covered.
        assert_eq!(tm.enabled_outputs().len(), 1);
    }

    #[test]
    fn chaotic_strategy_keeps_reading() {
        let dms = ids(3);
        let cfg = quorum::generators::rowa(&dms);
        let tm_tid = Tid::root().child(0).child(0);
        let mut tm = ReadTm::new(
            tm_tid.clone(),
            ItemId(0),
            Value::Int(0),
            dms,
            cfg,
            TmStrategy::Chaotic { max_accesses: 5 },
        );
        tm.apply(&create(&tm_tid, None)).unwrap();
        let outs = tm.enabled_outputs();
        let r = outs[0].clone();
        tm.apply(&r).unwrap();
        tm.apply(&commit(r.tid().clone(), Value::versioned(0, Value::Int(0))))
            .unwrap();
        // Covered, but chaotic still offers more reads (to other DMs).
        let outs = tm.enabled_outputs();
        assert!(outs.len() > 1);
    }
}
