//! Reconfigurable data managers (paper §4).
//!
//! "In addition to a value and a version number, each replica of x contains
//! a configuration and a generation number." A reconfigurable DM accepts
//! three sorts of accesses:
//!
//! * **read** — returns the full `(vn, value, gen, config)` tuple;
//! * **value-write** — installs a new `(vn, value)`, leaving the
//!   configuration state untouched;
//! * **config-write** — installs a new `(gen, config)`, leaving the data
//!   state untouched.
//!
//! The two write sorts are distinguished by the shape of the access's
//! `data` payload (see [`value_write_data`] and [`config_write_data`]);
//! both are `Write`-kind accesses in the transaction model.

use std::any::Any;
use std::collections::BTreeSet;

use ioa::{Component, OpClass};
use nested_txn::{AccessKind, ObjectId, Tid, TxnOp, Value};
use quorum::Configuration;

/// Encode the payload of a value-write access: `(vn, value)`.
pub fn value_write_data(vn: u64, value: Value) -> Value {
    Value::versioned(vn, value)
}

/// Encode the payload of a config-write access: `(gen, config)`.
pub fn config_write_data(gen: u64, config: Configuration<ObjectId>) -> Value {
    Value::Seq(vec![
        Value::Int(gen as i64),
        Value::Config(Box::new(config)),
    ])
}

/// Decode a value-write payload.
pub fn parse_value_write(data: &Value) -> Option<(u64, &Value)> {
    data.as_versioned()
}

/// Decode a config-write payload.
pub fn parse_config_write(data: &Value) -> Option<(u64, &Configuration<ObjectId>)> {
    match data {
        Value::Seq(items) => match items.as_slice() {
            [Value::Int(gen), Value::Config(c)] if *gen >= 0 => Some((*gen as u64, c)),
            _ => None,
        },
        _ => None,
    }
}

/// The kind of write a pending access will perform.
#[derive(Clone, Debug, PartialEq, Eq)]
enum PendingWrite {
    Value(u64, Value),
    Config(u64, Configuration<ObjectId>),
}

/// A reconfigurable data manager: a basic object over the domain
/// `(N × V) × (N × configurations)`, with partial-update write accesses.
#[derive(Clone, Debug)]
pub struct RcDm {
    id: ObjectId,
    label: String,
    init_value: Value,
    init_config: Configuration<ObjectId>,
    vn: u64,
    value: Value,
    gen: u64,
    config: Configuration<ObjectId>,
    active: Option<(Tid, Option<PendingWrite>)>,
    created: BTreeSet<Tid>,
}

impl RcDm {
    /// A DM with the given initial value and configuration (version number
    /// and generation number start at 0, matching every other replica).
    pub fn new(
        id: ObjectId,
        label: impl Into<String>,
        init_value: Value,
        init_config: Configuration<ObjectId>,
    ) -> Self {
        RcDm {
            id,
            label: label.into(),
            vn: 0,
            value: init_value.clone(),
            gen: 0,
            config: init_config.clone(),
            init_value,
            init_config,
            active: None,
            created: BTreeSet::new(),
        }
    }

    /// This DM's object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The current `(vn, value, gen, config)` state.
    pub fn state(&self) -> (u64, &Value, u64, &Configuration<ObjectId>) {
        (self.vn, &self.value, self.gen, &self.config)
    }

    fn read_return(&self) -> Value {
        Value::rc_versioned(self.vn, self.value.clone(), self.gen, self.config.clone())
    }
}

impl Component<TxnOp> for RcDm {
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
            _ => OpClass::NotMine,
        }
    }

    fn reset(&mut self) {
        self.vn = 0;
        self.value = self.init_value.clone();
        self.gen = 0;
        self.config = self.init_config.clone();
        self.active = None;
        self.created.clear();
    }

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        match &self.active {
            Some((tid, None)) => vec![TxnOp::RequestCommit {
                tid: tid.clone(),
                value: self.read_return(),
            }],
            Some((tid, Some(_))) => vec![TxnOp::RequestCommit {
                tid: tid.clone(),
                value: Value::Nil,
            }],
            None => Vec::new(),
        }
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::Create { tid, .. } => {
                let spec = op
                    .access()
                    .filter(|s| s.object == self.id)
                    .ok_or_else(|| format!("{}: CREATE for foreign access {tid}", self.label))?;
                let pending = match spec.kind {
                    AccessKind::Read => None,
                    AccessKind::Write => {
                        if let Some((vn, v)) = parse_value_write(&spec.data) {
                            Some(PendingWrite::Value(vn, v.clone()))
                        } else if let Some((gen, c)) = parse_config_write(&spec.data) {
                            Some(PendingWrite::Config(gen, c.clone()))
                        } else {
                            return Err(format!(
                                "{}: write access {tid} with unparseable data {}",
                                self.label, spec.data
                            ));
                        }
                    }
                };
                self.active = Some((tid.clone(), pending));
                self.created.insert(tid.clone());
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } => {
                let Some((active, pending)) = self.active.clone() else {
                    return Err(format!(
                        "{}: REQUEST-COMMIT({tid}) with no active access",
                        self.label
                    ));
                };
                if &active != tid {
                    return Err(format!(
                        "{}: REQUEST-COMMIT({tid}) but active is {active}",
                        self.label
                    ));
                }
                match pending {
                    None => {
                        if *value != self.read_return() {
                            return Err(format!("{}: wrong read return", self.label));
                        }
                    }
                    Some(PendingWrite::Value(vn, v)) => {
                        if !value.is_nil() {
                            return Err(format!("{}: write must return nil", self.label));
                        }
                        self.vn = vn;
                        self.value = v;
                    }
                    Some(PendingWrite::Config(gen, c)) => {
                        if !value.is_nil() {
                            return Err(format!("{}: write must return nil", self.label));
                        }
                        self.gen = gen;
                        self.config = c;
                    }
                }
                self.active = None;
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
    use super::*;
    use nested_txn::AccessSpec;

    fn cfg(ids: &[u32]) -> Configuration<ObjectId> {
        let universe: Vec<ObjectId> = ids.iter().map(|&i| ObjectId(i)).collect();
        quorum::generators::majority(&universe)
    }

    fn t(path: &[u32]) -> Tid {
        Tid::from_path(path)
    }

    fn dm() -> RcDm {
        RcDm::new(ObjectId(0), "rcdm", Value::Int(1), cfg(&[0, 1, 2]))
    }

    #[test]
    fn payload_roundtrip() {
        let d = value_write_data(4, Value::Int(9));
        assert_eq!(parse_value_write(&d), Some((4, &Value::Int(9))));
        assert!(parse_config_write(&d).is_none());

        let c = cfg(&[0, 1, 2]);
        let d2 = config_write_data(3, c.clone());
        assert_eq!(parse_config_write(&d2), Some((3, &c)));
        assert!(parse_value_write(&d2).is_none());
    }

    #[test]
    fn read_returns_full_tuple() {
        let mut x = dm();
        x.apply(&TxnOp::Create {
            tid: t(&[1, 0, 0]),
            access: Some(AccessSpec::read(ObjectId(0))),
            param: None,
        })
        .unwrap();
        let outs = x.enabled_outputs();
        let TxnOp::RequestCommit { value, .. } = &outs[0] else {
            panic!()
        };
        let (vn, v, gen, c) = value.as_rc_versioned().unwrap();
        assert_eq!((vn, gen), (0, 0));
        assert_eq!(v, &Value::Int(1));
        assert_eq!(c, &cfg(&[0, 1, 2]));
        x.apply(&outs[0]).unwrap();
    }

    #[test]
    fn value_write_leaves_config_alone() {
        let mut x = dm();
        x.apply(&TxnOp::Create {
            tid: t(&[1, 0, 0]),
            access: Some(AccessSpec::write(
                ObjectId(0),
                value_write_data(5, Value::Int(2)),
            )),
            param: None,
        })
        .unwrap();
        let outs = x.enabled_outputs();
        x.apply(&outs[0]).unwrap();
        let (vn, v, gen, _) = x.state();
        assert_eq!((vn, gen), (5, 0));
        assert_eq!(v, &Value::Int(2));
    }

    #[test]
    fn config_write_leaves_value_alone() {
        let mut x = dm();
        let newc = cfg(&[0, 1]);
        x.apply(&TxnOp::Create {
            tid: t(&[1, 0, 0]),
            access: Some(AccessSpec::write(
                ObjectId(0),
                config_write_data(1, newc.clone()),
            )),
            param: None,
        })
        .unwrap();
        let outs = x.enabled_outputs();
        x.apply(&outs[0]).unwrap();
        let (vn, v, gen, c) = x.state();
        assert_eq!((vn, gen), (0, 1));
        assert_eq!(v, &Value::Int(1));
        assert_eq!(c, &newc);
    }

    #[test]
    fn unparseable_write_rejected() {
        let mut x = dm();
        let err = x
            .apply(&TxnOp::Create {
                tid: t(&[1, 0, 0]),
                access: Some(AccessSpec::write(ObjectId(0), Value::Int(3))),
                param: None,
            })
            .unwrap_err();
        assert!(err.contains("unparseable"));
    }

    #[test]
    fn reset_restores_initials() {
        let mut x = dm();
        x.apply(&TxnOp::Create {
            tid: t(&[1, 0, 0]),
            access: Some(AccessSpec::write(
                ObjectId(0),
                value_write_data(5, Value::Int(2)),
            )),
            param: None,
        })
        .unwrap();
        let outs = x.enabled_outputs();
        x.apply(&outs[0]).unwrap();
        x.reset();
        let (vn, v, gen, _) = x.state();
        assert_eq!((vn, gen), (0, 0));
        assert_eq!(v, &Value::Int(1));
    }
}
