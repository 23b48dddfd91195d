//! Builders for the reconfigurable replicated system **B'** and its
//! non-replicated counterpart **A** (paper §4).

use std::collections::BTreeMap;

use ioa::System;
use nested_txn::{
    AccessKind, ChildRequest, ObjectId, ReadWriteObject, RegisteredAccess, ScriptProgram,
    ScriptStep, SerialScheduler, SystemWfMonitor, Tid, TransactionNode, TxnOp, Value,
};
use qc_replication::{ItemId, LogicalItem, TmRole, UserSpec, UserStep};
use quorum::Configuration;

use crate::coordinator::{CoordKind, Coordinator};
use crate::dm::RcDm;
use crate::spy::{Spy, SPY_CHILD_BASE};
use crate::tm::CoordinatorTm;

/// Number of coordinator retry slots per TM.
pub const COORD_RETRY_SLOTS: u32 = 4;

/// Specification of a reconfigurable logical item.
#[derive(Clone, Debug)]
pub struct RcItemSpec {
    /// Human-readable name.
    pub name: String,
    /// Initial value `i_x`.
    pub init: Value,
    /// Number of data managers.
    pub replicas: usize,
    /// Initial configuration (over replica indices `0..replicas`).
    pub initial_config: Configuration<usize>,
    /// Configurations the spies may reconfigure to.
    pub alt_configs: Vec<Configuration<usize>>,
}

/// Specification of a reconfigurable system: items, user transactions
/// (reusing the [`UserSpec`] vocabulary of `qc-replication`, minus plain
/// objects), and the spy budget.
#[derive(Clone, Debug)]
pub struct RcSystemSpec {
    /// The reconfigurable items.
    pub items: Vec<RcItemSpec>,
    /// Top-level user transactions. `UserStep::ReadPlain`/`WritePlain` are
    /// not supported here.
    pub users: Vec<UserSpec>,
    /// Maximum reconfigure-TMs each spy may invoke.
    pub max_reconfigs_per_user: u32,
}

/// Per-item layout of the reconfigurable system.
#[derive(Clone, Debug)]
pub struct RcItemLayout {
    /// The logical item.
    pub item: LogicalItem,
    /// DM object ids by replica index.
    pub dm_objects: Vec<ObjectId>,
    /// DM component names, aligned with `dm_objects`.
    pub dm_names: Vec<String>,
    /// The initial configuration over DM object ids.
    pub init_config: Configuration<ObjectId>,
    /// Alternative configurations over DM object ids.
    pub alt_configs: Vec<Configuration<ObjectId>>,
    /// The id of `O(x)` in system A.
    pub a_object: ObjectId,
}

/// Layout of a built reconfigurable system.
#[derive(Clone, Debug, Default)]
pub struct RcLayout {
    /// Per-item layouts.
    pub items: BTreeMap<ItemId, RcItemLayout>,
    /// Read-/write-TM names and roles (as in the fixed-configuration case).
    pub tm_roles: BTreeMap<Tid, TmRole>,
    /// Reconfigure-TM names (spy children).
    pub rc_tms: Vec<Tid>,
    /// All user transaction names, excluding the root.
    pub user_tids: Vec<Tid>,
}

impl RcLayout {
    /// Whether an operation belongs to the replication machinery that the
    /// Theorem 10 analogue erases: anything in the subtree of a
    /// reconfigure-TM (including the TM itself), and anything strictly
    /// below a read-/write-TM (coordinators and accesses).
    pub fn is_erased_op(&self, op: &TxnOp) -> bool {
        let tid = op.tid();
        // Spy children are recognisable by index, at any depth.
        let mut t = Some(tid.clone());
        while let Some(cur) = t {
            if cur.last_index().is_some_and(|i| i >= SPY_CHILD_BASE)
                && cur.parent().is_some_and(|p| self.user_tids.contains(&p))
            {
                return true;
            }
            if self.tm_roles.contains_key(&cur) && &cur != tid {
                return true; // proper descendant of a read/write TM
            }
            t = cur.parent();
        }
        false
    }
}

/// A built reconfigurable system.
pub struct BuiltRcSystem {
    /// The composed automaton.
    pub system: System<TxnOp>,
    /// The realisation map.
    pub layout: RcLayout,
}

impl std::fmt::Debug for BuiltRcSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltRcSystem")
            .field("components", &self.system.len())
            .finish_non_exhaustive()
    }
}

struct RcWalk {
    layout: RcLayout,
    components: Vec<Box<dyn ioa::Component<TxnOp>>>,
    /// Build the replication machinery (TMs, coordinators, spies)?
    replicated: bool,
    max_reconfigs: u32,
}

impl RcWalk {
    fn all_alt_configs(&self) -> Vec<Configuration<ObjectId>> {
        self.layout
            .items
            .values()
            .flat_map(|il| il.alt_configs.iter().cloned())
            .collect()
    }

    fn add_tm_with_coordinators(&mut self, tm_tid: &Tid, kind: CoordKind, item: ItemId) {
        let il = self.layout.items[&item].clone();
        self.components.push(Box::new(CoordinatorTm::new(
            tm_tid.clone(),
            kind,
            COORD_RETRY_SLOTS,
        )));
        for slot in 0..COORD_RETRY_SLOTS {
            self.components.push(Box::new(Coordinator::new(
                tm_tid.child(slot),
                kind,
                il.dm_objects.clone(),
                il.item.init.clone(),
                il.init_config.clone(),
            )));
        }
    }

    fn visit(&mut self, tid: &Tid, user: &UserSpec) {
        let mut steps: Vec<ScriptStep> = Vec::new();
        for (k, step) in user.steps.iter().enumerate() {
            let index = k as u32;
            let child = tid.child(index);
            match step {
                UserStep::Read(i) => {
                    let item = ItemId(*i as u32);
                    self.layout
                        .tm_roles
                        .insert(child.clone(), TmRole::Read(item));
                    if self.replicated {
                        self.add_tm_with_coordinators(&child, CoordKind::Read, item);
                    }
                    steps.push(ScriptStep::Run(vec![ChildRequest {
                        index,
                        access: None,
                        param: None,
                    }]));
                }
                UserStep::Write(i, v) => {
                    let item = ItemId(*i as u32);
                    self.layout
                        .tm_roles
                        .insert(child.clone(), TmRole::Write(item));
                    if self.replicated {
                        self.add_tm_with_coordinators(&child, CoordKind::Write, item);
                    }
                    steps.push(ScriptStep::Run(vec![ChildRequest {
                        index,
                        access: None,
                        param: Some(v.clone()),
                    }]));
                }
                UserStep::Sub(sub) => {
                    self.layout.user_tids.push(child.clone());
                    self.visit(&child, sub);
                    steps.push(ScriptStep::Run(vec![ChildRequest {
                        index,
                        access: None,
                        param: None,
                    }]));
                }
                UserStep::ReadPlain(_) | UserStep::WritePlain(_, _) => {
                    unimplemented!("plain objects are not part of the reconfigurable system")
                }
            }
        }
        if let Some(v) = &user.commit {
            steps.push(ScriptStep::Commit(v.clone()));
        }
        self.components.push(Box::new(
            TransactionNode::new(tid.clone(), ScriptProgram::new(steps))
                .with_child_limit(SPY_CHILD_BASE),
        ));
        // Spy + its reconfigure-TMs, in the replicated system only.
        if self.replicated {
            let candidates = self.all_alt_configs();
            if !candidates.is_empty() && self.max_reconfigs > 0 {
                self.components.push(Box::new(Spy::new(
                    tid.clone(),
                    candidates,
                    self.max_reconfigs,
                )));
                for k in 0..self.max_reconfigs {
                    let rc_tid = tid.child(SPY_CHILD_BASE + k);
                    self.layout.rc_tms.push(rc_tid.clone());
                    self.components.push(Box::new(CoordinatorTm::new(
                        rc_tid.clone(),
                        CoordKind::Reconfigure,
                        COORD_RETRY_SLOTS,
                    )));
                    // Reconfiguration targets exactly one item (asserted by
                    // the builder); its coordinators work over that item's
                    // DMs.
                    let il = self
                        .layout
                        .items
                        .values()
                        .find(|il| !il.alt_configs.is_empty())
                        .expect("alt configs exist");
                    for slot in 0..COORD_RETRY_SLOTS {
                        self.components.push(Box::new(Coordinator::new(
                            rc_tid.child(slot),
                            CoordKind::Reconfigure,
                            il.dm_objects.clone(),
                            il.item.init.clone(),
                            il.init_config.clone(),
                        )));
                    }
                }
            }
        }
    }
}

fn allocate_rc_layout(spec: &RcSystemSpec) -> RcLayout {
    let mut layout = RcLayout::default();
    let mut next = 0u32;
    let mut items = Vec::new();
    for (i, ispec) in spec.items.iter().enumerate() {
        let id = ItemId(i as u32);
        let dm_objects: Vec<ObjectId> = (0..ispec.replicas)
            .map(|_| {
                let o = ObjectId(next);
                next += 1;
                o
            })
            .collect();
        let dm_names = (0..ispec.replicas)
            .map(|r| format!("rcdm({},{r})", ispec.name))
            .collect();
        let to_objs = |c: &Configuration<usize>| c.map(|&r| dm_objects[r]);
        items.push(RcItemLayout {
            item: LogicalItem::new(id, ispec.name.clone(), ispec.init.clone()),
            init_config: to_objs(&ispec.initial_config),
            alt_configs: ispec.alt_configs.iter().map(to_objs).collect(),
            dm_objects,
            dm_names,
            a_object: ObjectId(0),
        });
    }
    for il in &mut items {
        il.a_object = ObjectId(next);
        next += 1;
        layout.items.insert(il.item.id, il.clone());
    }
    layout
}

fn walk(spec: &RcSystemSpec, replicated: bool) -> (RcLayout, Vec<Box<dyn ioa::Component<TxnOp>>>) {
    let layout = allocate_rc_layout(spec);
    let mut w = RcWalk {
        layout,
        components: Vec::new(),
        replicated,
        max_reconfigs: spec.max_reconfigs_per_user,
    };
    let root = Tid::root();
    let mut root_reqs = Vec::new();
    for (k, user) in spec.users.iter().enumerate() {
        let child = root.child(k as u32);
        w.layout.user_tids.push(child.clone());
        w.visit(&child, user);
        root_reqs.push(ChildRequest {
            index: k as u32,
            access: None,
            param: None,
        });
    }
    w.components.push(Box::new(TransactionNode::new(
        root,
        ScriptProgram::new(vec![ScriptStep::Run(root_reqs)]),
    )));
    (w.layout, w.components)
}

/// Build the reconfigurable replicated serial system **B'**.
///
/// # Panics
///
/// Panics if more than one item carries alternative configurations:
/// reconfiguration is modelled for a single item per system (one spy slot
/// drives one item's reconfigure-TM machinery).
pub fn build_system_rc(spec: &RcSystemSpec) -> BuiltRcSystem {
    assert!(
        spec.items
            .iter()
            .filter(|i| !i.alt_configs.is_empty())
            .count()
            <= 1,
        "at most one item may be reconfigurable per system"
    );
    let (layout, components) = walk(spec, true);
    let mut system: System<TxnOp> = System::new();
    system.push(Box::new(SerialScheduler::new()));
    for il in layout.items.values() {
        for (r, oid) in il.dm_objects.iter().enumerate() {
            system.push(Box::new(RcDm::new(
                *oid,
                il.dm_names[r].clone(),
                il.item.init.clone(),
                il.init_config.clone(),
            )));
        }
    }
    for c in components {
        system.push(c);
    }
    BuiltRcSystem { system, layout }
}

/// Build the corresponding non-replicated system **A**: one read-write
/// object per item, accesses = the read-/write-TM names; reconfigure-TMs,
/// spies, coordinators, and DMs have no counterpart.
pub fn build_system_a_rc(spec: &RcSystemSpec, layout: &RcLayout) -> BuiltRcSystem {
    let (mut layout_a, components) = walk(spec, false);
    // Keep the B-side id allocation (identical by construction).
    layout_a.rc_tms = Vec::new();
    let mut system: System<TxnOp> = System::new();
    system.push(Box::new(SerialScheduler::new()));
    for il in layout.items.values() {
        let mut registry: BTreeMap<Tid, RegisteredAccess> = BTreeMap::new();
        for (tid, role) in &layout_a.tm_roles {
            if role.item() != il.item.id {
                continue;
            }
            let kind = match role {
                TmRole::Read(_) => AccessKind::Read,
                TmRole::Write(_) => AccessKind::Write,
            };
            registry.insert(tid.clone(), RegisteredAccess { kind, data: None });
        }
        system.push(Box::new(ReadWriteObject::with_registry(
            il.a_object,
            format!("O({})", il.item.name),
            il.item.init.clone(),
            registry,
        )));
    }
    for c in components {
        system.push(c);
    }
    BuiltRcSystem {
        system,
        layout: layout_a,
    }
}

/// A well-formedness monitor pre-registered with system A's accesses.
pub fn wf_monitor_for_a_rc(layout: &RcLayout) -> SystemWfMonitor {
    let mut m = SystemWfMonitor::new();
    for (tid, role) in &layout.tm_roles {
        let il = &layout.items[&role.item()];
        m.register_access(tid.clone(), il.a_object);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RcSystemSpec {
        let u: Vec<usize> = (0..3).collect();
        RcSystemSpec {
            items: vec![RcItemSpec {
                name: "x".into(),
                init: Value::Int(0),
                replicas: 3,
                initial_config: quorum::generators::majority(&u),
                alt_configs: vec![quorum::generators::rowa(&u)],
            }],
            users: vec![UserSpec::new(vec![
                UserStep::Write(0, Value::Int(5)),
                UserStep::Read(0),
            ])],
            max_reconfigs_per_user: 1,
        }
    }

    #[test]
    fn builds_both_systems() {
        let b = build_system_rc(&spec());
        // scheduler + 3 DMs + (2 TMs × (1 + 4 coords)) + user + spy +
        // (1 rcTM × (1 + 4 coords)) + root = 1+3+10+1+1+5+1 = 22.
        assert_eq!(b.system.len(), 22);
        let a = build_system_a_rc(&spec(), &b.layout);
        // scheduler + O(x) + user + root = 4.
        assert_eq!(a.system.len(), 4);
    }

    #[test]
    fn erasure_predicate() {
        let b = build_system_rc(&spec());
        let user = Tid::root().child(0);
        let tm = user.child(0);
        let coord = tm.child(0);
        let access = coord.child(0);
        let rc_tm = user.child(SPY_CHILD_BASE);
        assert!(!b.layout.is_erased_op(&TxnOp::request_create(user.clone())));
        assert!(!b.layout.is_erased_op(&TxnOp::request_create(tm.clone())));
        assert!(b.layout.is_erased_op(&TxnOp::request_create(coord)));
        assert!(b.layout.is_erased_op(&TxnOp::request_create(access)));
        assert!(b.layout.is_erased_op(&TxnOp::request_create(rc_tm.clone())));
        assert!(b
            .layout
            .is_erased_op(&TxnOp::request_create(rc_tm.child(0))));
    }
}
