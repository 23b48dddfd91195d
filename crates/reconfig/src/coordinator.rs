//! Read, write, and reconfigure coordinators (paper §4).
//!
//! "To simplify our reasoning, we separate the read, write, and reconfigure
//! tasks of the TMs into modules called coordinators. This is done most
//! naturally by introducing another level of nesting." A coordinator is a
//! subtransaction of its TM; it performs the actual accesses to the
//! reconfigurable DMs:
//!
//! * every coordinator first performs Gifford's *discovery* read phase:
//!   read DMs, keeping the `(v, t)` of the highest version number seen, the
//!   `(c, g)` of the highest generation number seen, and the set `d` of DMs
//!   read, until `c` has a read-quorum contained in `d`;
//! * a **read** coordinator then returns the discovered tuple;
//! * a **write** coordinator writes `(t+1, v')` to a write-quorum of `c`,
//!   then returns `nil`;
//! * a **reconfigure** coordinator writes `(v, t)` to a write-quorum of the
//!   *new* configuration `c'`, then writes `(c', g+1)` to a write-quorum of
//!   the *old* configuration `c` — only an old write-quorum, the
//!   Goldman–Lynch improvement over Gifford — then returns `nil`.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use ioa::{Component, OpClass};
use nested_txn::{AccessKind, AccessSpec, ObjectId, Tid, TxnOp, Value};
use quorum::Configuration;

use crate::dm::{config_write_data, value_write_data};

/// The task a coordinator performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordKind {
    /// Logical read: discover and return `(vn, value, gen, config)`.
    Read,
    /// Logical write: install `(t+1, value(T))`.
    Write,
    /// Reconfiguration: install a new configuration.
    Reconfigure,
}

/// What a child access of the coordinator does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChildKind {
    Read,
    DataWrite,
    ConfigWrite,
}

/// A coordinator automaton (see module docs).
#[derive(Clone, Debug)]
pub struct Coordinator {
    tid: Tid,
    kind: CoordKind,
    label: String,
    dms: Vec<ObjectId>,
    init_value: Value,
    init_config: Configuration<ObjectId>,

    awake: bool,
    committed: bool,
    /// Write coordinators: the value to install. Reconfigure coordinators:
    /// the target configuration.
    param: Option<Value>,

    // Discovery state.
    vn: u64,
    value: Value,
    gen: u64,
    config: Configuration<ObjectId>,
    d: BTreeSet<ObjectId>,
    /// Once a write has been requested, late read returns are ignored (the
    /// §3.1 self-reading guard, inherited here).
    frozen: bool,

    read_outstanding: BTreeSet<ObjectId>,
    data_written: BTreeSet<ObjectId>,
    data_outstanding: BTreeSet<ObjectId>,
    config_written: BTreeSet<ObjectId>,
    config_outstanding: BTreeSet<ObjectId>,

    next_child: u32,
    children: BTreeMap<Tid, (ObjectId, ChildKind)>,
}

impl Coordinator {
    /// A coordinator named `tid` over the given DMs, with the system's
    /// initial value/configuration as its discovery baseline (all replicas
    /// initially agree on these).
    pub fn new(
        tid: Tid,
        kind: CoordKind,
        dms: Vec<ObjectId>,
        init_value: Value,
        init_config: Configuration<ObjectId>,
    ) -> Self {
        let label = format!(
            "{}-coord({tid})",
            match kind {
                CoordKind::Read => "read",
                CoordKind::Write => "write",
                CoordKind::Reconfigure => "reconfig",
            }
        );
        Coordinator {
            tid,
            kind,
            label,
            dms,
            awake: false,
            committed: false,
            param: None,
            vn: 0,
            value: init_value.clone(),
            init_value,
            gen: 0,
            config: init_config.clone(),
            init_config,
            d: BTreeSet::new(),
            frozen: false,
            read_outstanding: BTreeSet::new(),
            data_written: BTreeSet::new(),
            data_outstanding: BTreeSet::new(),
            config_written: BTreeSet::new(),
            config_outstanding: BTreeSet::new(),
            next_child: 0,
            children: BTreeMap::new(),
        }
    }

    /// The discovered `(vn, value, gen, config)` tuple.
    fn discovered(&self) -> Value {
        Value::rc_versioned(self.vn, self.value.clone(), self.gen, self.config.clone())
    }

    fn read_covered(&self) -> bool {
        self.config.covers_read_quorum(&self.d)
    }

    /// The target configuration of a reconfigure coordinator.
    fn target_config(&self) -> Option<&Configuration<ObjectId>> {
        match &self.param {
            Some(Value::Config(c)) => Some(c),
            _ => None,
        }
    }

    /// `(payload, completion-config)` of the data-write phase, if the
    /// coordinator performs one.
    fn data_phase(&self) -> Option<(Value, &Configuration<ObjectId>)> {
        match self.kind {
            CoordKind::Read => None,
            CoordKind::Write => Some((
                value_write_data(self.vn + 1, self.param.clone().unwrap_or(Value::Nil)),
                &self.config,
            )),
            CoordKind::Reconfigure => {
                let target = self.target_config()?;
                Some((value_write_data(self.vn, self.value.clone()), target))
            }
        }
    }

    fn data_covered(&self) -> bool {
        match self.data_phase() {
            Some((_, cfg)) => cfg.covers_write_quorum(&self.data_written),
            None => true,
        }
    }

    /// The config-write phase (reconfigure only): payload and the *old*
    /// configuration whose write-quorum must be covered.
    fn config_phase(&self) -> Option<(Value, &Configuration<ObjectId>)> {
        match self.kind {
            CoordKind::Reconfigure => {
                let target = self.target_config()?;
                Some((
                    config_write_data(self.gen + 1, target.clone()),
                    &self.config,
                ))
            }
            _ => None,
        }
    }

    fn config_covered(&self) -> bool {
        match self.config_phase() {
            Some((_, cfg)) => cfg.covers_write_quorum(&self.config_written),
            None => true,
        }
    }

    fn commit_value(&self) -> Value {
        match self.kind {
            CoordKind::Read => self.discovered(),
            CoordKind::Write | CoordKind::Reconfigure => Value::Nil,
        }
    }

    fn can_commit(&self) -> bool {
        self.awake
            && !self.committed
            && self.read_covered()
            && self.data_covered()
            && self.config_covered()
    }

    /// Access candidates for one phase: one per eligible DM, sharing the
    /// next child index.
    fn candidates(
        &self,
        targets: &[ObjectId],
        outstanding: &BTreeSet<ObjectId>,
        done: &BTreeSet<ObjectId>,
        kind: AccessKind,
        data: &Value,
    ) -> Vec<TxnOp> {
        let child = self.tid.child(self.next_child);
        targets
            .iter()
            .filter(|o| !outstanding.contains(o) && !done.contains(o))
            .map(|o| TxnOp::RequestCreate {
                tid: child.clone(),
                access: Some(AccessSpec {
                    object: *o,
                    kind,
                    data: data.clone(),
                }),
                param: None,
            })
            .collect()
    }
}

impl Component<TxnOp> for Coordinator {
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
        self.vn = 0;
        self.value = self.init_value.clone();
        self.gen = 0;
        self.config = self.init_config.clone();
        self.d.clear();
        self.frozen = false;
        self.read_outstanding.clear();
        self.data_written.clear();
        self.data_outstanding.clear();
        self.config_written.clear();
        self.config_outstanding.clear();
        self.next_child = 0;
        self.children.clear();
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        if !self.awake || self.committed {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Discovery reads, until covered (and not frozen by writing).
        if !self.frozen && !self.read_covered() {
            out.extend(self.candidates(
                &self.dms,
                &self.read_outstanding,
                &self.d,
                AccessKind::Read,
                &Value::Nil,
            ));
        }
        if self.read_covered() {
            // Data-write phase.
            if let Some((payload, target)) = self.data_phase() {
                if !target.covers_write_quorum(&self.data_written) {
                    let universe: Vec<ObjectId> = target.universe().into_iter().collect();
                    out.extend(self.candidates(
                        &universe,
                        &self.data_outstanding,
                        &self.data_written,
                        AccessKind::Write,
                        &payload,
                    ));
                }
            }
            // Config-write phase (after data writes are in place).
            if self.data_covered() {
                if let Some((payload, old)) = self.config_phase() {
                    if !old.covers_write_quorum(&self.config_written) {
                        let universe: Vec<ObjectId> = old.universe().into_iter().collect();
                        out.extend(self.candidates(
                            &universe,
                            &self.config_outstanding,
                            &self.config_written,
                            AccessKind::Write,
                            &payload,
                        ));
                    }
                }
            }
        }
        if self.can_commit() {
            out.push(TxnOp::RequestCommit {
                tid: self.tid.clone(),
                value: self.commit_value(),
            });
        }
        out
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Create { tid, param, .. } if tid == &self.tid => {
                self.awake = true;
                self.param = param.clone();
                Ok(())
            }
            TxnOp::RequestCreate { tid, access, .. } if tid.is_child_of(&self.tid) => {
                let spec = access
                    .as_ref()
                    .ok_or_else(|| format!("{}: child without access spec", self.label))?;
                if self.children.contains_key(tid) {
                    return Err(format!("{}: repeated REQUEST-CREATE({tid})", self.label));
                }
                let kind = match spec.kind {
                    AccessKind::Read => {
                        self.read_outstanding.insert(spec.object);
                        ChildKind::Read
                    }
                    AccessKind::Write => {
                        if !self.read_covered() {
                            return Err(format!("{}: write before read-quorum", self.label));
                        }
                        self.frozen = true;
                        // Distinguish data from config writes by payload.
                        if crate::dm::parse_config_write(&spec.data).is_some() {
                            self.config_outstanding.insert(spec.object);
                            ChildKind::ConfigWrite
                        } else {
                            self.data_outstanding.insert(spec.object);
                            ChildKind::DataWrite
                        }
                    }
                };
                self.children.insert(tid.clone(), (spec.object, kind));
                if tid.last_index() == Some(self.next_child) {
                    self.next_child += 1;
                }
                Ok(())
            }
            TxnOp::Commit { tid, value } if tid.is_child_of(&self.tid) => {
                let (o, kind) = *self
                    .children
                    .get(tid)
                    .ok_or_else(|| format!("{}: return for unknown child {tid}", self.label))?;
                match kind {
                    ChildKind::Read => {
                        self.read_outstanding.remove(&o);
                        if !self.frozen {
                            let (vn, v, gen, c) = value.as_rc_versioned().ok_or_else(|| {
                                format!("{}: read returned non-tuple {value}", self.label)
                            })?;
                            self.d.insert(o);
                            // Ties keep the earlier value: equal version
                            // numbers carry equal values (Lemma 8(1b)).
                            if vn > self.vn {
                                self.vn = vn;
                                self.value = v.clone();
                            }
                            if gen > self.gen {
                                self.gen = gen;
                                self.config = c.clone();
                            }
                        }
                    }
                    ChildKind::DataWrite => {
                        self.data_outstanding.remove(&o);
                        self.data_written.insert(o);
                    }
                    ChildKind::ConfigWrite => {
                        self.config_outstanding.remove(&o);
                        self.config_written.insert(o);
                    }
                }
                Ok(())
            }
            TxnOp::Abort { tid } if tid.is_child_of(&self.tid) => {
                let (o, kind) = *self
                    .children
                    .get(tid)
                    .ok_or_else(|| format!("{}: abort for unknown child {tid}", self.label))?;
                match kind {
                    ChildKind::Read => self.read_outstanding.remove(&o),
                    ChildKind::DataWrite => self.data_outstanding.remove(&o),
                    ChildKind::ConfigWrite => self.config_outstanding.remove(&o),
                };
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } if tid == &self.tid => {
                if !self.can_commit() {
                    return Err(format!("{}: commit preconditions fail", self.label));
                }
                if *value != self.commit_value() {
                    return Err(format!("{}: wrong commit value", self.label));
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
    use crate::dm::{parse_config_write, parse_value_write};

    fn t(path: &[u32]) -> Tid {
        Tid::from_path(path)
    }

    fn oid(i: u32) -> ObjectId {
        ObjectId(i)
    }

    fn majority3() -> Configuration<ObjectId> {
        quorum::generators::majority(&[oid(0), oid(1), oid(2)])
    }

    fn rowa3() -> Configuration<ObjectId> {
        quorum::generators::rowa(&[oid(0), oid(1), oid(2)])
    }

    fn create(tid: &Tid, param: Option<Value>) -> TxnOp {
        TxnOp::Create {
            tid: tid.clone(),
            access: None,
            param,
        }
    }

    /// Drive the coordinator's discovery phase: request reads to `dms` and
    /// deliver the given tuples.
    fn discover(c: &mut Coordinator, replies: &[(ObjectId, Value)]) {
        for (dm, tuple) in replies {
            let outs = c.enabled_outputs();
            let req = outs
                .iter()
                .find(|o| o.access().map(|s| s.object) == Some(*dm))
                .unwrap_or_else(|| panic!("no read candidate for {dm}"))
                .clone();
            c.apply(&req).unwrap();
            c.apply(&TxnOp::Commit {
                tid: req.tid().clone(),
                value: tuple.clone(),
            })
            .unwrap();
        }
    }

    fn tuple(vn: u64, v: i64, gen: u64, cfg: Configuration<ObjectId>) -> Value {
        Value::rc_versioned(vn, Value::Int(v), gen, cfg)
    }

    #[test]
    fn read_coordinator_discovers_and_returns_tuple() {
        let tid = t(&[0, 0, 0]);
        let mut c = Coordinator::new(
            tid.clone(),
            CoordKind::Read,
            vec![oid(0), oid(1), oid(2)],
            Value::Int(0),
            majority3(),
        );
        c.apply(&create(&tid, None)).unwrap();
        discover(
            &mut c,
            &[
                (oid(0), tuple(2, 7, 0, majority3())),
                (oid(1), tuple(1, 5, 0, majority3())),
            ],
        );
        let outs = c.enabled_outputs();
        let rc = outs
            .iter()
            .find(|o| matches!(o, TxnOp::RequestCommit { .. }))
            .expect("read quorum covered");
        let TxnOp::RequestCommit { value, .. } = rc else {
            unreachable!()
        };
        let (vn, v, gen, _) = value.as_rc_versioned().unwrap();
        assert_eq!((vn, gen), (2, 0));
        assert_eq!(v, &Value::Int(7));
        c.apply(rc).unwrap();
        assert!(c.enabled_outputs().is_empty());
    }

    #[test]
    fn discovery_follows_higher_generation_config() {
        // DM 1 reports a newer configuration (gen 1 = rowa): the quorum
        // test must switch to the new configuration's read-quorums.
        let tid = t(&[0, 0, 0]);
        let mut c = Coordinator::new(
            tid.clone(),
            CoordKind::Read,
            vec![oid(0), oid(1), oid(2)],
            Value::Int(0),
            majority3(),
        );
        c.apply(&create(&tid, None)).unwrap();
        discover(&mut c, &[(oid(1), tuple(0, 0, 1, rowa3()))]);
        // Under rowa, one DM is already a read quorum.
        assert!(c
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::RequestCommit { .. })));
    }

    #[test]
    fn write_coordinator_increments_version() {
        let tid = t(&[0, 0, 0]);
        let mut c = Coordinator::new(
            tid.clone(),
            CoordKind::Write,
            vec![oid(0), oid(1), oid(2)],
            Value::Int(0),
            majority3(),
        );
        c.apply(&create(&tid, Some(Value::Int(9)))).unwrap();
        discover(
            &mut c,
            &[
                (oid(0), tuple(4, 1, 0, majority3())),
                (oid(1), tuple(3, 0, 0, majority3())),
            ],
        );
        // Write candidates carry (t+1, value(T)) = (5, 9).
        let outs = c.enabled_outputs();
        let w = outs
            .iter()
            .find(|o| o.access().map(|s| s.kind) == Some(AccessKind::Write))
            .expect("write phase");
        let (vn, v) = parse_value_write(&w.access().unwrap().data).unwrap();
        assert_eq!(vn, 5);
        assert_eq!(v, &Value::Int(9));
    }

    #[test]
    fn reconfigure_coordinator_three_phases() {
        let tid = t(&[0, 1048576, 0]);
        let target = rowa3();
        let mut c = Coordinator::new(
            tid.clone(),
            CoordKind::Reconfigure,
            vec![oid(0), oid(1), oid(2)],
            Value::Int(0),
            majority3(),
        );
        c.apply(&create(&tid, Some(Value::Config(Box::new(target.clone())))))
            .unwrap();
        discover(
            &mut c,
            &[
                (oid(0), tuple(2, 7, 0, majority3())),
                (oid(1), tuple(2, 7, 0, majority3())),
            ],
        );
        // Phase 2: value writes (v, t) — SAME version number — to the
        // target configuration's write quorum (rowa: all three DMs).
        let outs = c.enabled_outputs();
        let w = outs
            .iter()
            .find(|o| o.access().map(|s| s.kind) == Some(AccessKind::Write))
            .expect("data phase");
        let (vn, v) = parse_value_write(&w.access().unwrap().data).unwrap();
        assert_eq!(vn, 2, "reconfiguration must not bump the version");
        assert_eq!(v, &Value::Int(7));
        // Complete data writes to all three DMs (rowa write-quorum).
        for dm in [oid(0), oid(1), oid(2)] {
            let outs = c.enabled_outputs();
            let w = outs
                .iter()
                .find(|o| {
                    o.access().map(|s| (s.object, s.kind)) == Some((dm, AccessKind::Write))
                        && parse_value_write(&o.access().unwrap().data).is_some()
                })
                .unwrap()
                .clone();
            c.apply(&w).unwrap();
            c.apply(&TxnOp::Commit {
                tid: w.tid().clone(),
                value: Value::Nil,
            })
            .unwrap();
        }
        // Phase 3: config writes (c', g+1) to the OLD configuration's
        // write-quorum (majority: two DMs suffice).
        let outs = c.enabled_outputs();
        let cw = outs
            .iter()
            .find(|o| {
                o.access()
                    .map(|s| parse_config_write(&s.data).is_some())
                    .unwrap_or(false)
            })
            .expect("config phase");
        let (gen, cfg) = parse_config_write(&cw.access().unwrap().data).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(cfg, &target);
        // No commit until a write-quorum of the old config holds it.
        assert!(!c
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::RequestCommit { .. })));
        for dm in [oid(0), oid(1)] {
            let outs = c.enabled_outputs();
            let w = outs
                .iter()
                .find(|o| {
                    o.access().map(|s| s.object) == Some(dm)
                        && o.access()
                            .map(|s| parse_config_write(&s.data).is_some())
                            .unwrap_or(false)
                })
                .unwrap()
                .clone();
            c.apply(&w).unwrap();
            c.apply(&TxnOp::Commit {
                tid: w.tid().clone(),
                value: Value::Nil,
            })
            .unwrap();
        }
        let outs = c.enabled_outputs();
        assert!(
            outs.iter()
                .any(|o| matches!(o, TxnOp::RequestCommit { value, .. } if value.is_nil())),
            "reconfiguration complete"
        );
    }

    #[test]
    fn late_reads_ignored_after_writing_begins() {
        let tid = t(&[0, 0, 0]);
        let mut c = Coordinator::new(
            tid.clone(),
            CoordKind::Write,
            vec![oid(0), oid(1), oid(2)],
            Value::Int(0),
            majority3(),
        );
        c.apply(&create(&tid, Some(Value::Int(1)))).unwrap();
        // Request reads from all three.
        let mut reqs = Vec::new();
        for dm in [oid(0), oid(1), oid(2)] {
            let outs = c.enabled_outputs();
            let r = outs
                .iter()
                .find(|o| o.access().map(|s| s.object) == Some(dm))
                .unwrap()
                .clone();
            c.apply(&r).unwrap();
            reqs.push(r);
        }
        // Two commits cover the quorum.
        for r in &reqs[..2] {
            c.apply(&TxnOp::Commit {
                tid: r.tid().clone(),
                value: tuple(3, 0, 0, majority3()),
            })
            .unwrap();
        }
        // Begin writing.
        let outs = c.enabled_outputs();
        let w = outs
            .iter()
            .find(|o| o.access().map(|s| s.kind) == Some(AccessKind::Write))
            .unwrap()
            .clone();
        c.apply(&w).unwrap();
        // Stale read returns our own write (vn 4): must be ignored.
        c.apply(&TxnOp::Commit {
            tid: reqs[2].tid().clone(),
            value: tuple(4, 1, 0, majority3()),
        })
        .unwrap();
        let outs = c.enabled_outputs();
        let w2 = outs
            .iter()
            .find(|o| o.access().map(|s| s.kind) == Some(AccessKind::Write))
            .unwrap();
        let (vn, _) = parse_value_write(&w2.access().unwrap().data).unwrap();
        assert_eq!(vn, 4, "frozen at discovery's t+1, not re-incremented");
    }

    #[test]
    fn aborted_access_is_retried() {
        let tid = t(&[0, 0, 0]);
        let mut c = Coordinator::new(
            tid.clone(),
            CoordKind::Read,
            vec![oid(0), oid(1)],
            Value::Int(0),
            quorum::generators::majority(&[oid(0), oid(1)]),
        );
        c.apply(&create(&tid, None)).unwrap();
        let outs = c.enabled_outputs();
        let r = outs
            .iter()
            .find(|o| o.access().map(|s| s.object) == Some(oid(0)))
            .unwrap()
            .clone();
        c.apply(&r).unwrap();
        c.apply(&TxnOp::Abort {
            tid: r.tid().clone(),
        })
        .unwrap();
        let outs = c.enabled_outputs();
        let retry = outs
            .iter()
            .find(|o| o.access().map(|s| s.object) == Some(oid(0)))
            .expect("retry offered");
        assert_ne!(retry.tid(), r.tid());
    }
}
