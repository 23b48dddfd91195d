//! Basic objects: read/write objects (paper §2.3).

use std::any::Any;

use ioa::{Component, OpClass};

use crate::name_tree::NameTree;
use crate::op::{AccessKind, TxnOp};
use crate::tid::Tid;
use crate::value::{ObjectId, Value};

/// How an object learns the attributes of an access with a given name.
///
/// The paper makes `kind(T)` and `data(T)` attributes of the access *name*.
/// In the replicated system **B**, transaction managers mint access names on
/// the fly and our operations carry the attributes inline
/// ([`AccessSpec`](crate::AccessSpec)); in the non-replicated system **A**
/// the accesses are the (statically known) transaction-manager names, so the
/// object is built with a registry mapping each name to its attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisteredAccess {
    /// Read or write.
    pub kind: AccessKind,
    /// The data for writes. `None` means "take the `param` payload of the
    /// `CREATE` operation", for value-parameterised accesses.
    pub data: Option<Value>,
}

/// A read-write object: the fully-specified basic object of §2.3.
///
/// State: `active` (the current access, initially `nil`) and `data` (a
/// domain element, initially the object's initial value).
///
/// * `CREATE(T)` (input) sets `active := T`.
/// * `REQUEST-COMMIT(T,v)` with `kind(T) = read` requires `active = T` and
///   `v = data`; it sets `active := nil`.
/// * `REQUEST-COMMIT(T,v)` with `kind(T) = write` requires `active = T` and
///   `v = nil`; it sets `data := data(T)` and `active := nil`.
///
/// [`retire`](ReadWriteObject::retire) drops a returned access from the
/// created set for a caller that will never name it again (only the
/// Theorem 10 checker does); it is not a step of the automaton.
///
/// The same automaton serves as a data manager (over the versioned domain
/// `N × V`) in system **B** and as the single logical object `O(x)` in
/// system **A**; only the domain and the access-resolution mode differ.
#[derive(Clone, Debug)]
pub struct ReadWriteObject {
    id: ObjectId,
    label: String,
    init: Value,
    data: Value,
    active: Option<(Tid, AccessKind, Value)>,
    /// Whether each name is an access created here, on the name tree.
    created: NameTree<bool>,
    /// The registered accesses, on the name tree.
    registry: NameTree<Option<RegisteredAccess>>,
}

impl ReadWriteObject {
    /// An object whose accesses carry their attributes inline (system
    /// **B** style).
    pub fn new(id: ObjectId, label: impl Into<String>, init: Value) -> Self {
        Self::with_registry(id, label, init, [])
    }

    /// An object with a pre-registered access map (system **A** style).
    pub fn with_registry(
        id: ObjectId,
        label: impl Into<String>,
        init: Value,
        registry: impl IntoIterator<Item = (Tid, RegisteredAccess)>,
    ) -> Self {
        let mut by_name = NameTree::new();
        for (tid, access) in registry {
            let at = by_name
                .entry(tid.path())
                .expect("a new tree retires nothing");
            by_name[at.slot] = Some(access);
        }
        ReadWriteObject {
            id,
            label: label.into(),
            data: init.clone(),
            init,
            active: None,
            created: NameTree::new(),
            registry: by_name,
        }
    }

    /// This object's identifier.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The current data component of the state.
    pub fn data(&self) -> &Value {
        &self.data
    }

    /// The currently active access, if any.
    pub fn active(&self) -> Option<&Tid> {
        self.active.as_ref().map(|(t, _, _)| t)
    }

    /// Forget `tid`, an access created here that has returned (it is not
    /// the active one), had no descendant created here, and is the
    /// lowest-numbered child of its parent that was created here and is
    /// not yet retired. Every later operation that names `tid` or a
    /// descendant is refused, and
    /// [`accesses_created`](ReadWriteObject::accesses_created) no longer
    /// lists it.
    ///
    /// This is not a step of the automaton: it is for a caller that knows
    /// no later operation names `tid` — the Theorem 10 checker, whose α
    /// names its accesses `T0.0, T0.1, …` in order, each once. On such a
    /// schedule every output and every refusal is what §2.3 gives.
    ///
    /// # Errors
    ///
    /// Why `tid` cannot be retired, with nothing changed.
    pub fn retire(&mut self, tid: &Tid) -> Result<(), String> {
        let refuse = |why: &str| format!("{}: cannot retire {tid}: {why}", self.label);
        if self.created.get(tid.path()) != Some(&true) {
            return Err(refuse("it is not an access created here"));
        }
        if self.active() == Some(tid) {
            return Err(refuse("it is the active access"));
        }
        self.created.retire(tid.path()).map_err(refuse)
    }

    /// All accesses created at this object so far and not retired, in
    /// name order.
    pub fn accesses_created(&self) -> Vec<Tid> {
        let mut names = Vec::new();
        self.created.walk(|path, _, &created| {
            if created {
                names.push(Tid::from_path(path));
            }
        });
        names
    }

    /// `kind(T)` and `data(T)` as registered for the access named `tid`.
    fn registered(&self, tid: &Tid) -> Option<&RegisteredAccess> {
        self.registry.get(tid.path())?.as_ref()
    }

    /// `kind(T)` and `data(T)` of the access a `CREATE` wakes, if it is an
    /// access to this object: from its inline spec when it carries one (the
    /// spec takes precedence), otherwise from the registry.
    fn resolve<'a>(&'a self, op: &'a TxnOp) -> Option<(AccessKind, &'a Value)> {
        static NIL: Value = Value::Nil;
        if let Some(spec) = op.access() {
            return (spec.object == self.id).then_some((spec.kind, &spec.data));
        }
        self.registered(op.tid()).map(|reg| {
            let data = reg.data.as_ref().or(op.param()).unwrap_or(&NIL);
            (reg.kind, data)
        })
    }
}

impl Component<TxnOp> for ReadWriteObject {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::Create { .. } => {
                if self.resolve(op).is_some() {
                    OpClass::Input
                } else {
                    OpClass::NotMine
                }
            }
            TxnOp::RequestCommit { tid, .. } => {
                // Our access iff we created it (its CREATE necessarily
                // precedes in any well-formed schedule), or it is
                // registered to us. The active access is a created one
                // and the usual asker, so it is checked first.
                if self.active() == Some(tid)
                    || self.created.get(tid.path()) == Some(&true)
                    || self.registered(tid).is_some()
                {
                    OpClass::Output
                } else {
                    OpClass::NotMine
                }
            }
            _ => OpClass::NotMine,
        }
    }

    fn reset(&mut self) {
        self.data = self.init.clone();
        self.active = None;
        self.created = NameTree::new();
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        match &self.active {
            Some((tid, AccessKind::Read, _)) => vec![TxnOp::RequestCommit {
                tid: tid.clone(),
                value: self.data.clone(),
            }],
            Some((tid, AccessKind::Write, _)) => vec![TxnOp::RequestCommit {
                tid: tid.clone(),
                value: Value::Nil,
            }],
            None => Vec::new(),
        }
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Create { tid, .. } => {
                let (kind, data) = self
                    .resolve(op)
                    .map(|(kind, data)| (kind, data.clone()))
                    .ok_or_else(|| format!("{}: CREATE for foreign access {tid}", self.label))?;
                let at = self.created.entry(tid.path()).ok_or_else(|| {
                    format!("{}: CREATE({tid}) names a retired access", self.label)
                })?;
                // Postcondition: active := T.
                self.created[at.slot] = true;
                self.active = Some((tid.clone(), kind, data));
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } => {
                let Some((active, kind, _)) = &self.active else {
                    return Err(format!(
                        "{}: REQUEST-COMMIT({tid}) with no active access",
                        self.label
                    ));
                };
                if active != tid {
                    return Err(format!(
                        "{}: REQUEST-COMMIT({tid}) but active is {active}",
                        self.label
                    ));
                }
                match *kind {
                    AccessKind::Read => {
                        if *value != self.data {
                            return Err(format!(
                                "{}: read access {tid} returns {value}, data is {}",
                                self.label, self.data
                            ));
                        }
                    }
                    AccessKind::Write => {
                        if !value.is_nil() {
                            return Err(format!(
                                "{}: write access {tid} must return nil",
                                self.label
                            ));
                        }
                    }
                }
                // Postcondition: active := nil, and data := data(T) for a
                // write.
                if let Some((_, AccessKind::Write, wdata)) = self.active.take() {
                    self.data = wdata;
                }
                Ok(())
            }
            other => Err(format!("{}: not an object operation: {other}", self.label)),
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
    use std::collections::BTreeMap;

    use super::*;
    use crate::op::AccessSpec;

    fn t(path: &[u32]) -> Tid {
        Tid::from_path(path)
    }

    fn obj() -> ReadWriteObject {
        ReadWriteObject::new(ObjectId(0), "x", Value::Int(0))
    }

    fn create_read(o: &ObjectId, path: &[u32]) -> TxnOp {
        TxnOp::Create {
            tid: t(path),
            access: Some(AccessSpec::read(*o)),
            param: None,
        }
    }

    fn create_write(o: &ObjectId, path: &[u32], v: Value) -> TxnOp {
        TxnOp::Create {
            tid: t(path),
            access: Some(AccessSpec::write(*o, v)),
            param: None,
        }
    }

    #[test]
    fn read_returns_current_data() {
        let mut x = obj();
        x.apply(&create_read(&ObjectId(0), &[1, 0])).unwrap();
        let outs = x.enabled_outputs();
        assert_eq!(
            outs,
            vec![TxnOp::RequestCommit {
                tid: t(&[1, 0]),
                value: Value::Int(0),
            }]
        );
        x.apply(&outs[0]).unwrap();
        assert!(x.enabled_outputs().is_empty());
        assert!(x.active().is_none());
    }

    #[test]
    fn write_installs_data_and_returns_nil() {
        let mut x = obj();
        x.apply(&create_write(&ObjectId(0), &[1, 0], Value::Int(42)))
            .unwrap();
        let outs = x.enabled_outputs();
        assert_eq!(
            outs,
            vec![TxnOp::RequestCommit {
                tid: t(&[1, 0]),
                value: Value::Nil,
            }]
        );
        x.apply(&outs[0]).unwrap();
        assert_eq!(x.data(), &Value::Int(42));
    }

    #[test]
    fn wrong_read_value_refused() {
        let mut x = obj();
        x.apply(&create_read(&ObjectId(0), &[1, 0])).unwrap();
        let err = x
            .apply(&TxnOp::RequestCommit {
                tid: t(&[1, 0]),
                value: Value::Int(99),
            })
            .unwrap_err();
        assert!(err.contains("returns"));
    }

    #[test]
    fn foreign_access_not_mine() {
        let x = obj();
        let op = create_read(&ObjectId(5), &[1, 0]);
        assert_eq!(x.classify(&op), OpClass::NotMine);
        assert_eq!(
            x.classify(&TxnOp::RequestCommit {
                tid: t(&[9]),
                value: Value::Nil
            }),
            OpClass::NotMine
        );
    }

    #[test]
    fn commit_without_active_refused() {
        let mut x = obj();
        let err = x
            .apply(&TxnOp::RequestCommit {
                tid: t(&[1, 0]),
                value: Value::Int(0),
            })
            .unwrap_err();
        assert!(err.contains("no active access"));
    }

    #[test]
    fn registry_resolution_with_param() {
        let mut reg = BTreeMap::new();
        reg.insert(
            t(&[1]),
            RegisteredAccess {
                kind: AccessKind::Write,
                data: None, // take data from the CREATE's param
            },
        );
        reg.insert(
            t(&[2]),
            RegisteredAccess {
                kind: AccessKind::Read,
                data: None,
            },
        );
        let mut x = ReadWriteObject::with_registry(ObjectId(0), "x", Value::Int(0), reg);
        // Write via param.
        x.apply(&TxnOp::Create {
            tid: t(&[1]),
            access: None,
            param: Some(Value::Int(7)),
        })
        .unwrap();
        x.apply(&TxnOp::RequestCommit {
            tid: t(&[1]),
            value: Value::Nil,
        })
        .unwrap();
        assert_eq!(x.data(), &Value::Int(7));
        // Read sees it.
        x.apply(&TxnOp::Create {
            tid: t(&[2]),
            access: None,
            param: None,
        })
        .unwrap();
        assert_eq!(
            x.enabled_outputs(),
            vec![TxnOp::RequestCommit {
                tid: t(&[2]),
                value: Value::Int(7),
            }]
        );
    }

    /// `CREATE` then `REQUEST-COMMIT` of a read access at `path`.
    fn read_and_return(x: &mut ReadWriteObject, path: &[u32]) {
        x.apply(&create_read(&ObjectId(0), path)).unwrap();
        let answer = x.enabled_outputs().remove(0);
        x.apply(&answer).unwrap();
    }

    #[test]
    fn retire_refuses_the_active_an_uncreated_a_parent_and_an_out_of_order_access() {
        let mut x = obj();
        read_and_return(&mut x, &[0]);
        read_and_return(&mut x, &[1, 0]);
        read_and_return(&mut x, &[1]);
        x.apply(&create_read(&ObjectId(0), &[2])).unwrap();
        let before = format!("{x:?}");
        assert!(x.retire(&t(&[2])).is_err(), "the active access");
        assert!(x.retire(&t(&[5])).is_err(), "never created here");
        assert!(x.retire(&t(&[1])).is_err(), "a lower access is live");
        assert!(x.retire(&Tid::root()).is_err());
        assert_eq!(format!("{x:?}"), before, "a refusal changes nothing");
        x.retire(&t(&[0])).unwrap();
        let why = x.retire(&t(&[1])).unwrap_err();
        assert!(why.contains("entered children"), "{why}");
        assert_eq!(x.accesses_created(), [t(&[1]), t(&[1, 0]), t(&[2])]);
    }

    #[test]
    fn an_operation_naming_a_retired_access_is_refused() {
        let mut x = obj();
        read_and_return(&mut x, &[0]);
        x.retire(&t(&[0])).unwrap();
        assert!(x.accesses_created().is_empty());
        let before = format!("{x:?}");
        for op in [
            create_read(&ObjectId(0), &[0]),
            create_write(&ObjectId(0), &[0, 1], Value::Int(3)),
            TxnOp::RequestCommit {
                tid: t(&[0]),
                value: Value::Int(0),
            },
        ] {
            assert!(x.apply(&op).is_err(), "{op:?}");
            assert_eq!(format!("{x:?}"), before, "{op:?} changed the state");
        }
        let probe = TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Nil,
        };
        assert_eq!(x.classify(&probe), OpClass::NotMine);
        // A name never created here that sorts below the next access is
        // skipped by the watermark: T0.1 aborted elsewhere, T0.2 retires.
        read_and_return(&mut x, &[2]);
        x.retire(&t(&[2])).unwrap();
        assert!(x.apply(&create_read(&ObjectId(0), &[1])).is_err());
        read_and_return(&mut x, &[3]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut x = obj();
        x.apply(&create_write(&ObjectId(0), &[1, 0], Value::Int(5)))
            .unwrap();
        x.apply(&TxnOp::RequestCommit {
            tid: t(&[1, 0]),
            value: Value::Nil,
        })
        .unwrap();
        x.reset();
        assert_eq!(x.data(), &Value::Int(0));
        assert!(x.active().is_none());
        assert!(x.accesses_created().is_empty());
    }
}

/// The name-tree object against one that keeps `created` and the registry
/// as ordered tables keyed by name, as §2.3 writes them.
#[cfg(test)]
mod differential {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;
    use crate::name_tree::testing::{wide_path, INDICES};
    use crate::op::AccessSpec;

    const ME: ObjectId = ObjectId(0);

    /// §2.3's read-write object over a `BTreeSet<Tid>` of created accesses
    /// and a `BTreeMap` registry.
    #[derive(Clone, Debug, Default)]
    struct SetObject {
        data: Value,
        active: Option<(Tid, AccessKind, Value)>,
        created: BTreeSet<Tid>,
        registry: BTreeMap<Tid, RegisteredAccess>,
    }

    impl SetObject {
        fn resolve(&self, op: &TxnOp) -> Option<(AccessKind, Value)> {
            if let Some(spec) = op.access() {
                return (spec.object == ME).then(|| (spec.kind, spec.data.clone()));
            }
            let reg = self.registry.get(op.tid())?;
            let data = reg.data.clone().or(op.param().cloned()).unwrap_or_default();
            Some((reg.kind, data))
        }

        fn classify(&self, op: &TxnOp) -> OpClass {
            let mine = match op {
                TxnOp::Create { .. } => {
                    return self
                        .resolve(op)
                        .map_or(OpClass::NotMine, |_| OpClass::Input)
                }
                TxnOp::RequestCommit { tid, .. } => {
                    self.active.as_ref().is_some_and(|(t, ..)| t == tid)
                        || self.created.contains(tid)
                        || self.registry.contains_key(tid)
                }
                _ => false,
            };
            if mine {
                OpClass::Output
            } else {
                OpClass::NotMine
            }
        }

        fn apply(&mut self, op: &TxnOp) -> Result<(), ()> {
            match op {
                TxnOp::Create { tid, .. } => {
                    let (kind, data) = self.resolve(op).ok_or(())?;
                    self.active = Some((tid.clone(), kind, data));
                    self.created.insert(tid.clone());
                    Ok(())
                }
                TxnOp::RequestCommit { tid, value } => {
                    let (_, kind, wdata) =
                        self.active.clone().filter(|(t, ..)| t == tid).ok_or(())?;
                    match kind {
                        AccessKind::Read if *value == self.data => {}
                        AccessKind::Write if value.is_nil() => self.data = wdata,
                        _ => return Err(()),
                    }
                    self.active = None;
                    Ok(())
                }
                _ => Err(()),
            }
        }
    }

    fn name(picks: &[usize]) -> Tid {
        Tid::from_path(&wide_path(picks))
    }

    fn arbitrary_op(kind: u8, tid: Tid, v: u8) -> TxnOp {
        let value = match v {
            0 => Value::Nil,
            v => Value::Int(i64::from(v)),
        };
        let create = |access: Option<AccessSpec>, param: Option<Value>| TxnOp::Create {
            tid: tid.clone(),
            access,
            param,
        };
        match kind {
            0 => create(Some(AccessSpec::read(ME)), None),
            1 => create(Some(AccessSpec::write(ME, value)), None),
            2 => create(Some(AccessSpec::read(ObjectId(5))), None),
            3 => create(None, (v != 0).then_some(value)),
            4 | 5 => TxnOp::RequestCommit { tid, value },
            6 => TxnOp::request_create(tid),
            _ => TxnOp::Abort { tid },
        }
    }

    proptest! {
        /// Accesses named from a tree of depth ≤ 4 over the child indices
        /// `{0, 1, 2, 7, 1 000 000, u32::MAX}`, created in any order, with
        /// inline attributes, registered ones, or neither; half the steps
        /// let the active access answer.
        #[test]
        fn name_tree_object_agrees_with_the_ordered_tables(
            registered in prop::collection::vec(
                (prop::collection::vec(0usize..INDICES.len(), 0..5), 0u8..4),
                0..6,
            ),
            steps in prop::collection::vec(
                (0u8..4, 0u8..8, prop::collection::vec(0usize..INDICES.len(), 0..5), 0u8..3),
                1..60,
            ),
        ) {
            let registry: BTreeMap<Tid, RegisteredAccess> = registered
                .iter()
                .map(|(path, how)| {
                    let kind = if how % 2 == 0 { AccessKind::Read } else { AccessKind::Write };
                    let data = (*how == 3).then_some(Value::Int(40));
                    (name(path), RegisteredAccess { kind, data })
                })
                .collect();
            let mut fast =
                ReadWriteObject::with_registry(ME, "x", Value::Int(0), registry.clone());
            let mut slow = SetObject { data: Value::Int(0), registry, ..SetObject::default() };
            for (pick, kind, path, v) in steps {
                let enabled = fast.enabled_outputs();
                let op = match enabled.first() {
                    Some(answer) if pick < 2 => answer.clone(),
                    _ => arbitrary_op(kind, name(&path), v),
                };
                prop_assert_eq!(fast.classify(&op), slow.classify(&op), "classify({:?})", &op);
                prop_assert_eq!(fast.apply(&op).is_ok(), slow.apply(&op).is_ok(), "apply({:?})", &op);
                prop_assert_eq!(fast.data(), &slow.data, "after {:?}", &op);
                prop_assert_eq!(fast.active(), slow.active.as_ref().map(|(t, ..)| t));
                let created: Vec<Tid> = slow.created.iter().cloned().collect();
                prop_assert_eq!(fast.accesses_created(), created, "after {:?}", &op);
                // The generated name, whether or not the step used it.
                let probe = TxnOp::RequestCommit { tid: name(&path), value: Value::Nil };
                prop_assert_eq!(fast.classify(&probe), slow.classify(&probe), "{:?}", &probe);
            }
            // A copy is independent of the original, and a reset forgets the
            // created accesses but not the registry.
            let copy = fast.clone_boxed();
            fast.reset();
            prop_assert!(fast.accesses_created().is_empty());
            prop_assert_eq!(copy.enabled_outputs().len(), usize::from(slow.active.is_some()));
            for tid in slow.registry.keys() {
                let probe = TxnOp::RequestCommit { tid: tid.clone(), value: Value::Nil };
                prop_assert_eq!(fast.classify(&probe), OpClass::Output);
            }
        }
    }
}
