//! The paper's sequence functions and lemma invariants, executable.
//!
//! `access(x, β)`, `logical-state(x, β)` and `current-vn(x, β)` (paper
//! §3.1) are implemented directly over schedules; [`LemmaMonitor`] checks
//! Lemma 7 and Lemma 8 incrementally after every step of a running
//! replicated system **B**.
//!
//! The lemma *statements* themselves — "the maximum version number among
//! the DMs equals `current-vn`" (Lemma 7), "some write-quorum holds the
//! current version, every holder of the current version holds the logical
//! state, and read-TMs return the logical state" (Lemma 8) — are factored
//! into the runtime-agnostic [`LemmaChecker`], shared between
//! [`LemmaMonitor`] (the I/O-automaton executor) and the discrete-event
//! simulator's protocol core (`qc_sim`), so both runtimes assert the
//! same predicates against their own replica states.

use std::collections::BTreeMap;
use std::fmt;

use ioa::{Monitor, Schedule, System};
use nested_txn::{AccessKind, ObjectId, ReadWriteObject, Tid, TxnOp, Value};
use quorum::ReplicaSet;

use crate::item::ItemId;
use crate::spec::{Layout, TmRole};

/// A violation of Lemma 7 or Lemma 8, detected by a [`LemmaChecker`].
///
/// Values are rendered to strings at detection time so the violation type
/// stays independent of the checker's value type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LemmaViolation {
    /// Lemma 7: the maximum version number among the replicas differs from
    /// `current-vn`.
    Lemma7 {
        /// Maximum version number found across replica states.
        max_replica_vn: u64,
        /// `current-vn` implied by the committed writes.
        current_vn: u64,
    },
    /// Lemma 8(1a): no write-quorum's replicas all hold `current-vn`.
    Lemma8a {
        /// The current version number no write-quorum covers.
        current_vn: u64,
    },
    /// Lemma 8(1b): a replica at `current-vn` holds a value other than the
    /// logical state.
    Lemma8b {
        /// Index of the offending replica.
        replica: usize,
        /// The version number it holds (equal to `current-vn`).
        vn: u64,
        /// The value it holds, rendered with `Debug`.
        value: String,
        /// The logical state, rendered with `Debug`.
        logical: String,
    },
    /// Lemma 8(2): a committed read returned a value other than the
    /// logical state.
    Lemma8Read {
        /// The value the read returned, rendered with `Debug`.
        value: String,
        /// The logical state, rendered with `Debug`.
        logical: String,
    },
    /// A committed write's version number did not advance `current-vn` by
    /// exactly one — its read-quorum discovery missed the latest version.
    WriteVn {
        /// The version number the write committed.
        committed_vn: u64,
        /// `current-vn` at the time of the commit.
        current_vn: u64,
    },
}

impl fmt::Display for LemmaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LemmaViolation::Lemma7 {
                max_replica_vn,
                current_vn,
            } => write!(
                f,
                "Lemma 7 violated: max replica vn {max_replica_vn} ≠ current-vn {current_vn}"
            ),
            LemmaViolation::Lemma8a { current_vn } => write!(
                f,
                "Lemma 8(1a) violated: no write-quorum holds vn {current_vn}"
            ),
            LemmaViolation::Lemma8b {
                replica,
                vn,
                value,
                logical,
            } => write!(
                f,
                "Lemma 8(1b) violated: replica {replica} holds ({vn}, {value}) but \
                 logical-state is {logical}"
            ),
            LemmaViolation::Lemma8Read { value, logical } => write!(
                f,
                "Lemma 8(2) violated: read returned {value}, logical-state is {logical}"
            ),
            LemmaViolation::WriteVn {
                committed_vn,
                current_vn,
            } => write!(
                f,
                "write committed vn {committed_vn} but current-vn is {current_vn} \
                 (read-quorum discovery missed the latest version)"
            ),
        }
    }
}

/// Runtime-agnostic incremental checker for Lemma 7 and Lemma 8 over one
/// logical item's versioned replica states.
///
/// The checker tracks the two quantities the lemmas are stated against —
/// `current-vn(x, β)` and `logical-state(x, β)` — as committed writes are
/// fed to [`commit_write`](Self::commit_write), and asserts the lemma
/// predicates against whatever replica states the hosting runtime can
/// observe. [`LemmaMonitor`] instantiates it per step over the I/O-automaton
/// system's DM components; the simulator's protocol core (`qc_sim`)
/// instantiates it over the simulated per-site stores. Generic over the
/// value type so both `Value`-based and plain-integer runtimes share the
/// exact predicate code.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LemmaChecker<V> {
    current_vn: u64,
    logical: V,
}

impl<V: Clone + PartialEq + fmt::Debug> LemmaChecker<V> {
    /// A checker in the initial state: `current-vn = 0`, logical state
    /// `initial` (the paper's `i_x`).
    pub fn new(initial: V) -> Self {
        LemmaChecker {
            current_vn: 0,
            logical: initial,
        }
    }

    /// A checker at an arbitrary known state (used by [`LemmaMonitor`],
    /// which tracks `current-vn` and `logical-state` itself).
    fn from_state(current_vn: u64, logical: V) -> Self {
        LemmaChecker {
            current_vn,
            logical,
        }
    }

    /// `current-vn(x, β)` for the committed history fed so far.
    pub fn current_vn(&self) -> u64 {
        self.current_vn
    }

    /// `logical-state(x, β)` for the committed history fed so far.
    pub fn logical_state(&self) -> &V {
        &self.logical
    }

    /// Digest a committed logical write that installed `vn` with `value`.
    ///
    /// # Errors
    ///
    /// A committed write must have discovered the latest version at its
    /// read-quorum, so its `vn` must be exactly `current-vn + 1`; anything
    /// else is reported as [`LemmaViolation::WriteVn`] (and the checker
    /// state is left unchanged).
    pub fn commit_write(&mut self, vn: u64, value: V) -> Result<(), LemmaViolation> {
        if vn != self.current_vn + 1 {
            return Err(LemmaViolation::WriteVn {
                committed_vn: vn,
                current_vn: self.current_vn,
            });
        }
        self.current_vn = vn;
        self.logical = value;
        Ok(())
    }

    /// Digest a committed logical read that returned `value` — Lemma 8(2).
    ///
    /// # Errors
    ///
    /// [`LemmaViolation::Lemma8Read`] when `value` differs from the logical
    /// state.
    pub fn check_read(&self, value: &V) -> Result<(), LemmaViolation> {
        if *value != self.logical {
            return Err(LemmaViolation::Lemma8Read {
                value: format!("{value:?}"),
                logical: format!("{:?}", self.logical),
            });
        }
        Ok(())
    }

    /// Assert Lemma 7 — and, when `even_point` is true (the paper's
    /// "access(x, β) has even length": no access in progress), Lemma 8(1a)
    /// and 8(1b) — against the observed replica states.
    ///
    /// `states` yields `(replica index, version number, value)` for every
    /// replica of the item; `is_write_quorum` answers whether a set of
    /// replica indices covers a write-quorum.
    ///
    /// # Errors
    ///
    /// The first violated lemma, as a [`LemmaViolation`].
    pub fn check_states<'a, I, Q>(
        &self,
        states: I,
        even_point: bool,
        is_write_quorum: Q,
    ) -> Result<(), LemmaViolation>
    where
        V: 'a,
        I: IntoIterator<Item = (usize, u64, &'a V)>,
        Q: FnOnce(ReplicaSet) -> bool,
    {
        // One allocation-free pass: this runs after every committed
        // operation of a simulation, so it must not materialize the state
        // iterator. Everything the three lemma clauses need folds into
        // three accumulators, then the clauses are evaluated in the
        // original order (Lemma 7, 8(1a), 8(1b) — first offender in
        // iteration order), so the reported violation is unchanged.
        let mut max_replica_vn = 0u64;
        let mut holders = ReplicaSet::new();
        let mut mismatch: Option<(usize, u64, &V)> = None;
        for (r, vn, v) in states {
            max_replica_vn = max_replica_vn.max(vn);
            if vn == self.current_vn {
                holders.insert(r);
                if mismatch.is_none() && *v != self.logical {
                    mismatch = Some((r, vn, v));
                }
            }
        }
        // Lemma 7.
        if max_replica_vn != self.current_vn {
            return Err(LemmaViolation::Lemma7 {
                max_replica_vn,
                current_vn: self.current_vn,
            });
        }
        if even_point {
            // Lemma 8(1a).
            if !is_write_quorum(holders) {
                return Err(LemmaViolation::Lemma8a {
                    current_vn: self.current_vn,
                });
            }
            // Lemma 8(1b).
            if let Some((r, vn, v)) = mismatch {
                return Err(LemmaViolation::Lemma8b {
                    replica: r,
                    vn,
                    value: format!("{v:?}"),
                    logical: format!("{:?}", self.logical),
                });
            }
        }
        Ok(())
    }
}

/// `access(x, β)`: the subsequence of `β` containing the `CREATE` and
/// `REQUEST-COMMIT` operations for the members of `tm(x)`.
pub fn access_sequence<'a>(
    layout: &Layout,
    item: ItemId,
    beta: &'a Schedule<TxnOp>,
) -> Vec<&'a TxnOp> {
    beta.iter()
        .filter(|op| {
            matches!(op, TxnOp::Create { .. } | TxnOp::RequestCommit { .. })
                && layout
                    .tm_roles
                    .get(op.tid())
                    .is_some_and(|r| r.item() == item)
        })
        .collect()
}

/// `logical-state(x, β)`: `value(T)` of the last write-TM with a
/// `REQUEST-COMMIT` in `access(x, β)`, or `i_x` if there is none.
pub fn logical_state(layout: &Layout, item: ItemId, beta: &Schedule<TxnOp>) -> Value {
    let mut values: BTreeMap<Tid, Value> = BTreeMap::new();
    let mut state = layout.items[&item].item.init.clone();
    for op in beta.iter() {
        match op {
            TxnOp::Create { tid, param, .. } => {
                if matches!(layout.tm_roles.get(tid), Some(TmRole::Write(i)) if *i == item) {
                    values.insert(tid.clone(), param.clone().unwrap_or(Value::Nil));
                }
            }
            TxnOp::RequestCommit { tid, .. } => {
                if matches!(layout.tm_roles.get(tid), Some(TmRole::Write(i)) if *i == item) {
                    state = values.get(tid).cloned().unwrap_or(Value::Nil);
                }
            }
            _ => {}
        }
    }
    state
}

/// `current-vn(x, β)`: the maximum, over DMs for `x`, of the version number
/// of the last write access to that DM with a `REQUEST-COMMIT` in `β`; `0`
/// if there is none.
pub fn current_vn(layout: &Layout, item: ItemId, beta: &Schedule<TxnOp>) -> u64 {
    let il = &layout.items[&item];
    let mut spec_of: BTreeMap<Tid, (ObjectId, u64)> = BTreeMap::new();
    let mut last: BTreeMap<ObjectId, u64> = BTreeMap::new();
    for op in beta.iter() {
        match op {
            TxnOp::RequestCreate {
                tid,
                access: Some(spec),
                ..
            } if spec.kind == AccessKind::Write && il.dm_objects.contains(&spec.object) => {
                if let Some((vn, _)) = spec.data.as_versioned() {
                    spec_of.insert(tid.clone(), (spec.object, vn));
                }
            }
            TxnOp::RequestCommit { tid, .. } => {
                if let Some((o, vn)) = spec_of.get(tid) {
                    last.insert(*o, *vn);
                }
            }
            _ => {}
        }
    }
    last.values().copied().max().unwrap_or(0)
}

/// Per-item incremental tracking used by [`LemmaMonitor`].
#[derive(Clone, Debug)]
struct ItemTrack {
    open_tms: i64,
    logical_state: Value,
    dm_last_write_vn: BTreeMap<ObjectId, u64>,
}

/// An [`ioa::Monitor`] asserting, after every step of a running system
/// **B**:
///
/// * **Lemma 7**: the highest version number among the states of the DMs in
///   `dm(x)` equals `current-vn(x, β)`;
/// * **Lemma 8(1a)** (when `access(x, β)` is of even length): some
///   write-quorum's DMs all hold `current-vn(x, β)`;
/// * **Lemma 8(1b)** (even length): every DM holding `current-vn(x, β)`
///   holds `logical-state(x, β)` as its value;
/// * **Lemma 8(2)**: a read-TM's `REQUEST-COMMIT(T, v)` has
///   `v = logical-state(x, β)`.
#[derive(Debug)]
pub struct LemmaMonitor {
    layout: Layout,
    tm_values: BTreeMap<Tid, Value>,
    access_specs: BTreeMap<Tid, (ItemId, ObjectId, u64)>,
    items: BTreeMap<ItemId, ItemTrack>,
}

impl LemmaMonitor {
    /// A monitor for the given layout, in the initial (empty-schedule)
    /// state.
    pub fn new(layout: &Layout) -> Self {
        let items = layout
            .items
            .iter()
            .map(|(id, il)| {
                (
                    *id,
                    ItemTrack {
                        open_tms: 0,
                        logical_state: il.item.init.clone(),
                        dm_last_write_vn: BTreeMap::new(),
                    },
                )
            })
            .collect();
        LemmaMonitor {
            layout: layout.clone(),
            tm_values: BTreeMap::new(),
            access_specs: BTreeMap::new(),
            items,
        }
    }

    fn item_of_dm(&self, o: ObjectId) -> Option<ItemId> {
        self.layout
            .items
            .iter()
            .find(|(_, il)| il.dm_objects.contains(&o))
            .map(|(id, _)| *id)
    }

    /// Digest one operation; returns the read-TM commit to verify for
    /// Lemma 8(2), if the operation was one.
    fn digest(&mut self, op: &TxnOp) -> Option<(ItemId, Value)> {
        match op {
            TxnOp::RequestCreate {
                tid,
                access: Some(spec),
                ..
            } if spec.kind == AccessKind::Write => {
                if let Some(item) = self.item_of_dm(spec.object) {
                    if let Some((vn, _)) = spec.data.as_versioned() {
                        self.access_specs
                            .insert(tid.clone(), (item, spec.object, vn));
                    }
                }
                None
            }
            TxnOp::Create { tid, param, .. } => {
                if let Some(role) = self.layout.tm_roles.get(tid) {
                    let track = self.items.get_mut(&role.item()).expect("item tracked");
                    track.open_tms += 1;
                    if matches!(role, TmRole::Write(_)) {
                        self.tm_values
                            .insert(tid.clone(), param.clone().unwrap_or(Value::Nil));
                    }
                }
                None
            }
            TxnOp::RequestCommit { tid, value } => {
                if let Some(role) = self.layout.tm_roles.get(tid).cloned() {
                    let item = role.item();
                    let track = self.items.get_mut(&item).expect("item tracked");
                    track.open_tms -= 1;
                    match role {
                        TmRole::Write(_) => {
                            track.logical_state =
                                self.tm_values.get(tid).cloned().unwrap_or(Value::Nil);
                            None
                        }
                        TmRole::Read(_) => Some((item, value.clone())),
                    }
                } else if let Some((item, o, vn)) = self.access_specs.get(tid).copied() {
                    self.items
                        .get_mut(&item)
                        .expect("item tracked")
                        .dm_last_write_vn
                        .insert(o, vn);
                    None
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn check_item(
        &self,
        system: &System<TxnOp>,
        item: ItemId,
        read_commit: Option<&Value>,
    ) -> Result<(), String> {
        let il = &self.layout.items[&item];
        let track = &self.items[&item];
        // Gather DM states.
        let mut states: Vec<(ObjectId, u64, Value)> = Vec::new();
        for (r, name) in il.dm_names.iter().enumerate() {
            let dm: &ReadWriteObject = system
                .component_as(name)
                .ok_or_else(|| format!("missing DM component {name}"))?;
            let (vn, v) = dm
                .data()
                .as_versioned()
                .ok_or_else(|| format!("{name} holds non-versioned data"))?;
            states.push((il.dm_objects[r], vn, v.clone()));
        }
        let current = track.dm_last_write_vn.values().copied().max().unwrap_or(0);
        // Lemmas 7, 8(1a), 8(1b): shared predicate code with the simulator's
        // lemma monitor, via LemmaChecker. Replica indices map to DM
        // objects positionally; 8(1a)/8(1b) apply only when access(x, β) has
        // even length (no TM in progress).
        let checker = LemmaChecker::from_state(current, track.logical_state.clone());
        checker
            .check_states(
                states
                    .iter()
                    .map(|(_, vn, v)| (*vn, v))
                    .enumerate()
                    .map(|(r, (vn, v))| (r, vn, v)),
                track.open_tms == 0,
                |holders: quorum::ReplicaSet| {
                    let objs: std::collections::BTreeSet<ObjectId> =
                        holders.iter().map(|r| il.dm_objects[r]).collect();
                    il.config.covers_write_quorum(&objs)
                },
            )
            .map_err(|e| format!("{item}: {e}"))?;
        // Lemma 8 (2).
        if let Some(v) = read_commit {
            checker.check_read(v).map_err(|e| format!("{item}: {e}"))?;
        }
        Ok(())
    }
}

impl Monitor<TxnOp> for LemmaMonitor {
    fn name(&self) -> String {
        "lemma-7-and-8".into()
    }

    fn check(
        &mut self,
        system: &System<TxnOp>,
        so_far: &Schedule<TxnOp>,
        step: usize,
    ) -> Result<(), String> {
        let op = &so_far[step];
        let read_commit = self.digest(op);
        let items: Vec<ItemId> = self.items.keys().copied().collect();
        for item in items {
            let rc = match &read_commit {
                Some((i, v)) if *i == item => Some(v),
                _ => None,
            };
            self.check_item(system, item, rc)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{build_system_b, ConfigChoice, ItemSpec, SystemSpec, UserSpec, UserStep};
    use crate::tm::TmStrategy;
    use nested_txn::AccessSpec;

    fn spec() -> SystemSpec {
        SystemSpec {
            items: vec![ItemSpec {
                name: "x".into(),
                init: Value::Int(10),
                replicas: 3,
                config: ConfigChoice::Majority,
            }],
            plain: vec![],
            users: vec![UserSpec::new(vec![
                UserStep::Write(0, Value::Int(1)),
                UserStep::Read(0),
            ])],
            strategy: TmStrategy::Eager,
        }
    }

    fn maj3(holders: quorum::ReplicaSet) -> bool {
        holders.len() >= 2
    }

    #[test]
    fn lemma_checker_green_on_faithful_history() {
        let mut c = LemmaChecker::new(0u64);
        assert_eq!(c.current_vn(), 0);
        // All replicas at the initial version satisfy everything.
        let states = [(0usize, 0u64, 0u64), (1, 0, 0), (2, 0, 0)];
        c.check_states(states.iter().map(|&(r, vn, ref v)| (r, vn, v)), true, maj3)
            .unwrap();
        // Install vn 1 = 7 at a majority {0, 2}.
        c.commit_write(1, 7).unwrap();
        let states = [(0usize, 1u64, 7u64), (1, 0, 0), (2, 1, 7)];
        c.check_states(states.iter().map(|&(r, vn, ref v)| (r, vn, v)), true, maj3)
            .unwrap();
        c.check_read(&7).unwrap();
        assert_eq!(*c.logical_state(), 7);
    }

    #[test]
    fn lemma_checker_fires_on_corrupted_replica() {
        let mut c = LemmaChecker::new(0u64);
        c.commit_write(1, 7).unwrap();
        // A replica scribbled with a version beyond current-vn → Lemma 7.
        let states = [(0usize, 1u64, 7u64), (1, 9, 3), (2, 1, 7)];
        let err = c
            .check_states(states.iter().map(|&(r, vn, ref v)| (r, vn, v)), true, maj3)
            .unwrap_err();
        assert!(matches!(
            err,
            LemmaViolation::Lemma7 {
                max_replica_vn: 9,
                current_vn: 1
            }
        ));
        // A replica at current-vn with the wrong value → Lemma 8(1b).
        let states = [(0usize, 1u64, 7u64), (1, 1, 3), (2, 1, 7)];
        let err = c
            .check_states(states.iter().map(|&(r, vn, ref v)| (r, vn, v)), true, maj3)
            .unwrap_err();
        assert!(matches!(err, LemmaViolation::Lemma8b { replica: 1, .. }));
        // Too few replicas at current-vn → Lemma 8(1a).
        let states = [(0usize, 1u64, 7u64), (1, 0, 0), (2, 0, 0)];
        let err = c
            .check_states(states.iter().map(|&(r, vn, ref v)| (r, vn, v)), true, maj3)
            .unwrap_err();
        assert!(matches!(err, LemmaViolation::Lemma8a { current_vn: 1 }));
        // ... but 8(1a)/8(1b) are not asserted at odd points.
        c.check_states(states.iter().map(|&(r, vn, ref v)| (r, vn, v)), false, maj3)
            .unwrap();
        // A read returning anything but the logical state → Lemma 8(2).
        let err = c.check_read(&3).unwrap_err();
        assert!(matches!(err, LemmaViolation::Lemma8Read { .. }));
    }

    #[test]
    fn lemma_checker_rejects_stale_write_vn() {
        let mut c = LemmaChecker::new(0u64);
        c.commit_write(1, 7).unwrap();
        // A second write at the same vn means its discovery missed vn 1.
        let err = c.commit_write(1, 8).unwrap_err();
        assert!(matches!(
            err,
            LemmaViolation::WriteVn {
                committed_vn: 1,
                current_vn: 1
            }
        ));
        // State unchanged by the rejected write.
        assert_eq!(c.current_vn(), 1);
        assert_eq!(*c.logical_state(), 7);
        assert!(format!("{err}").contains("missed the latest version"));
    }

    #[test]
    fn sequence_functions_on_empty_schedule() {
        let b = build_system_b(&spec());
        let empty = Schedule::new();
        assert_eq!(access_sequence(&b.layout, ItemId(0), &empty).len(), 0);
        assert_eq!(logical_state(&b.layout, ItemId(0), &empty), Value::Int(10));
        assert_eq!(current_vn(&b.layout, ItemId(0), &empty), 0);
    }

    #[test]
    fn logical_state_follows_write_tm_commits() {
        let b = build_system_b(&spec());
        let tm = Tid::root().child(0).child(0); // the write TM
        let sched: Schedule<TxnOp> = vec![
            TxnOp::Create {
                tid: tm.clone(),
                access: None,
                param: Some(Value::Int(1)),
            },
            TxnOp::RequestCommit {
                tid: tm.clone(),
                value: Value::Nil,
            },
        ]
        .into();
        assert_eq!(logical_state(&b.layout, ItemId(0), &sched), Value::Int(1));
        // Before the REQUEST-COMMIT, the initial value stands.
        assert_eq!(
            logical_state(&b.layout, ItemId(0), &sched.prefix(1)),
            Value::Int(10)
        );
    }

    #[test]
    fn current_vn_tracks_last_write_per_dm() {
        let b = build_system_b(&spec());
        let il = &b.layout.items[&ItemId(0)];
        let tm = Tid::root().child(0).child(0);
        let a0 = tm.child(0);
        let sched: Schedule<TxnOp> = vec![
            TxnOp::RequestCreate {
                tid: a0.clone(),
                access: Some(AccessSpec::write(
                    il.dm_objects[0],
                    Value::versioned(5, Value::Int(1)),
                )),
                param: None,
            },
            TxnOp::RequestCommit {
                tid: a0.clone(),
                value: Value::Nil,
            },
        ]
        .into();
        assert_eq!(current_vn(&b.layout, ItemId(0), &sched), 5);
        // The write access must REQUEST-COMMIT for its vn to count.
        assert_eq!(current_vn(&b.layout, ItemId(0), &sched.prefix(1)), 0);
    }

    #[test]
    fn access_sequence_filters_tm_ops_only() {
        let b = build_system_b(&spec());
        let tm = Tid::root().child(0).child(0);
        let user = Tid::root().child(0);
        let sched: Schedule<TxnOp> = vec![
            TxnOp::Create {
                tid: user,
                access: None,
                param: None,
            },
            TxnOp::Create {
                tid: tm.clone(),
                access: None,
                param: Some(Value::Int(1)),
            },
            TxnOp::RequestCommit {
                tid: tm,
                value: Value::Nil,
            },
        ]
        .into();
        assert_eq!(access_sequence(&b.layout, ItemId(0), &sched).len(), 2);
    }
}
