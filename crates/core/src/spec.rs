//! Declarative system specifications and the builders for the replicated
//! serial system **B** (paper §3.1) and the corresponding non-replicated
//! serial system **A** (paper §3.2).

use std::collections::BTreeMap;

use ioa::System;
use nested_txn::{
    AccessKind, AccessSpec, ChildRequest, ObjectId, ReadWriteObject, RegisteredAccess,
    ScriptProgram, ScriptStep, SerialScheduler, SystemWfMonitor, Tid, TransactionNode, TxnOp,
    Value,
};
use quorum::Configuration;

use crate::item::{ItemId, LogicalItem};
use crate::tm::{ReadTm, TmStrategy, WriteTm};

/// Choice of quorum configuration for a replicated item, expressed over
/// replica indices `0..replicas`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigChoice {
    /// Read-one / write-all.
    Rowa,
    /// Read-majority / write-majority.
    Majority,
    /// Gifford weighted voting: per-replica votes and read/write
    /// thresholds (`read + write > total votes`).
    Weighted {
        /// Votes per replica (length must equal the replica count).
        votes: Vec<u32>,
        /// Read threshold.
        read: u32,
        /// Write threshold.
        write: u32,
    },
    /// An explicit configuration over replica indices.
    Explicit(Configuration<usize>),
}

impl ConfigChoice {
    fn instantiate(&self, replicas: usize) -> Configuration<usize> {
        let universe: Vec<usize> = (0..replicas).collect();
        match self {
            ConfigChoice::Rowa => quorum::generators::rowa(&universe),
            ConfigChoice::Majority => quorum::generators::majority(&universe),
            ConfigChoice::Weighted { votes, read, write } => {
                assert_eq!(votes.len(), replicas, "one vote count per replica");
                let named: Vec<(usize, u32)> =
                    votes.iter().enumerate().map(|(i, &v)| (i, v)).collect();
                quorum::generators::weighted(&named, *read, *write)
            }
            ConfigChoice::Explicit(c) => c.clone(),
        }
    }
}

/// Specification of one replicated logical data item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemSpec {
    /// Human-readable name (`x`, `y`, …).
    pub name: String,
    /// Initial value `i_x`.
    pub init: Value,
    /// Number of data managers (replicas).
    pub replicas: usize,
    /// Quorum configuration.
    pub config: ConfigChoice,
}

/// Specification of a non-replicated basic object, accessed directly by
/// user transactions (a "non-replica access" in the paper's Figure 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlainObjectSpec {
    /// Human-readable name.
    pub name: String,
    /// Initial value.
    pub init: Value,
}

/// One step of a user transaction's program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UserStep {
    /// Logical read of the `i`-th item (spawns a read-TM in **B**, a read
    /// access in **A**).
    Read(usize),
    /// Logical write of the `i`-th item with a value.
    Write(usize, Value),
    /// Direct read access to the `i`-th plain object.
    ReadPlain(usize),
    /// Direct write access to the `i`-th plain object.
    WritePlain(usize, Value),
    /// A nested sub-transaction.
    Sub(UserSpec),
}

/// Specification of a (possibly nested) user transaction: steps executed
/// sequentially, then a `REQUEST-COMMIT` with `commit` (if any — the root
/// never commits).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct UserSpec {
    /// Steps, executed one at a time, each awaited to completion.
    pub steps: Vec<UserStep>,
    /// Value to commit with after all steps, or `None` to never commit.
    pub commit: Option<Value>,
}

impl UserSpec {
    /// A user transaction performing `steps` then committing `nil`.
    pub fn new(steps: Vec<UserStep>) -> Self {
        UserSpec {
            steps,
            commit: Some(Value::Nil),
        }
    }
}

/// Specification of a whole system: items, plain objects, and top-level
/// user transactions (children of the root `T0`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SystemSpec {
    /// The replicated logical data items.
    pub items: Vec<ItemSpec>,
    /// Non-replicated objects.
    pub plain: Vec<PlainObjectSpec>,
    /// Top-level user transactions.
    pub users: Vec<UserSpec>,
    /// TM strategy (see [`TmStrategy`]).
    pub strategy: TmStrategy,
}

/// The role a transaction-manager name plays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TmRole {
    /// A read-TM for the item.
    Read(ItemId),
    /// A write-TM for the item.
    Write(ItemId),
}

impl TmRole {
    /// The item this TM manages.
    pub fn item(&self) -> ItemId {
        match self {
            TmRole::Read(i) | TmRole::Write(i) => *i,
        }
    }
}

/// Layout of one item's replicas.
#[derive(Clone, Debug)]
pub struct ItemLayout {
    /// The logical item.
    pub item: LogicalItem,
    /// Object ids of the data managers, indexed by replica number.
    pub dm_objects: Vec<ObjectId>,
    /// Component names of the data managers, aligned with `dm_objects`.
    pub dm_names: Vec<String>,
    /// The configuration over DM object ids.
    pub config: Configuration<ObjectId>,
    /// The object id of the single read-write object `O(x)` in system A.
    pub a_object: ObjectId,
}

/// Everything the checkers need to know about how a [`SystemSpec`] was
/// realised: object allocation, TM roles, and transaction names.
#[derive(Clone, Debug, Default)]
pub struct Layout {
    /// Per-item layout.
    pub items: BTreeMap<ItemId, ItemLayout>,
    /// Every TM name and its role (`tm(x)` for each `x`, as a single map).
    pub tm_roles: BTreeMap<Tid, TmRole>,
    /// Plain (non-replica) objects: `(id, component name)`.
    pub plain_objects: Vec<(ObjectId, String)>,
    /// All user transaction names (non-access, non-TM), excluding the root.
    pub user_tids: Vec<Tid>,
}

impl Layout {
    /// Whether `op` is an operation of a *replica access* — a child of a
    /// TM. These are exactly the operations erased by the Theorem 10
    /// construction.
    pub fn is_replica_access_op(&self, op: &TxnOp) -> bool {
        match op.tid().parent() {
            Some(p) => self.tm_roles.contains_key(&p),
            None => false,
        }
    }
}

/// Boxed component automata, as assembled by the builders.
pub type Components = Vec<Box<dyn ioa::Component<TxnOp>>>;

/// A built serial system together with its layout.
pub struct BuiltSystem {
    /// The composed I/O automaton.
    pub system: System<TxnOp>,
    /// The realisation map.
    pub layout: Layout,
}

impl std::fmt::Debug for BuiltSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltSystem")
            .field("components", &self.system.len())
            .finish_non_exhaustive()
    }
}

/// Walk context shared by both builders.
struct Walk<'a> {
    spec: &'a SystemSpec,
    layout: &'a Layout,
    /// For **B**: collected TM components. For **A**: None.
    tms: Option<Vec<Box<dyn ioa::Component<TxnOp>>>>,
    /// User transaction nodes (both systems).
    nodes: Vec<Box<dyn ioa::Component<TxnOp>>>,
    /// All user tids found (to fill the layout on the first walk).
    user_tids: Vec<Tid>,
    /// Accumulated TM roles (first walk only).
    tm_roles: BTreeMap<Tid, TmRole>,
    strategy: TmStrategy,
}

impl<'a> Walk<'a> {
    /// Build the node (and, in B-mode, TM components) for the user
    /// transaction `tid` with the given spec.
    fn visit(&mut self, tid: &Tid, user: &UserSpec) {
        let mut steps: Vec<ScriptStep> = Vec::new();
        for (k, step) in user.steps.iter().enumerate() {
            let index = k as u32;
            let child = tid.child(index);
            match step {
                UserStep::Read(i) => {
                    let il = &self.layout.items[&ItemId(*i as u32)];
                    self.tm_roles
                        .insert(child.clone(), TmRole::Read(il.item.id));
                    if let Some(tms) = &mut self.tms {
                        tms.push(Box::new(ReadTm::new(
                            child.clone(),
                            il.item.id,
                            il.item.init.clone(),
                            il.dm_objects.clone(),
                            il.config.clone(),
                            self.strategy,
                        )));
                    }
                    steps.push(ScriptStep::Run(vec![ChildRequest {
                        index,
                        access: None,
                        param: None,
                    }]));
                }
                UserStep::Write(i, v) => {
                    let il = &self.layout.items[&ItemId(*i as u32)];
                    self.tm_roles
                        .insert(child.clone(), TmRole::Write(il.item.id));
                    if let Some(tms) = &mut self.tms {
                        tms.push(Box::new(WriteTm::new(
                            child.clone(),
                            il.item.id,
                            il.dm_objects.clone(),
                            il.config.clone(),
                            self.strategy,
                        )));
                    }
                    steps.push(ScriptStep::Run(vec![ChildRequest {
                        index,
                        access: None,
                        param: Some(v.clone()),
                    }]));
                }
                UserStep::ReadPlain(p) => {
                    let (oid, _) = self.layout.plain_objects[*p];
                    steps.push(ScriptStep::Run(vec![ChildRequest {
                        index,
                        access: Some(AccessSpec::read(oid)),
                        param: None,
                    }]));
                }
                UserStep::WritePlain(p, v) => {
                    let (oid, _) = self.layout.plain_objects[*p];
                    steps.push(ScriptStep::Run(vec![ChildRequest {
                        index,
                        access: Some(AccessSpec::write(oid, v.clone())),
                        param: None,
                    }]));
                }
                UserStep::Sub(sub) => {
                    self.user_tids.push(child.clone());
                    self.visit(&child, sub);
                    steps.push(ScriptStep::Run(vec![ChildRequest {
                        index,
                        access: None,
                        param: None,
                    }]));
                }
            }
        }
        if let Some(v) = &user.commit {
            steps.push(ScriptStep::Commit(v.clone()));
        }
        self.nodes.push(Box::new(TransactionNode::new(
            tid.clone(),
            ScriptProgram::new(steps),
        )));
        let _ = self.spec; // context retained for future extensions
    }
}

/// Allocate object ids and per-item layouts for a spec.
///
/// Plain objects take ids `0..p`; DMs take the next `Σ replicas`; the
/// system-A objects `O(x)` take the ids after that. The id spaces are thus
/// globally disjoint, so a configuration over DM ids can never be confused
/// with one over A-objects.
fn allocate_layout(spec: &SystemSpec) -> Layout {
    let mut layout = Layout::default();
    let mut next = 0u32;
    for p in &spec.plain {
        layout
            .plain_objects
            .push((ObjectId(next), format!("obj({})", p.name)));
        next += 1;
    }
    let mut item_layouts = Vec::new();
    for (i, ispec) in spec.items.iter().enumerate() {
        let id = ItemId(i as u32);
        let dm_objects: Vec<ObjectId> = (0..ispec.replicas)
            .map(|_| {
                let o = ObjectId(next);
                next += 1;
                o
            })
            .collect();
        let dm_names: Vec<String> = (0..ispec.replicas)
            .map(|r| format!("dm({},{r})", ispec.name))
            .collect();
        let config = ispec
            .config
            .instantiate(ispec.replicas)
            .map(|&r| dm_objects[r]);
        assert!(config.is_usable(), "item {} config unusable", ispec.name);
        item_layouts.push(ItemLayout {
            item: LogicalItem::new(id, ispec.name.clone(), ispec.init.clone()),
            dm_objects,
            dm_names,
            config,
            a_object: ObjectId(0), // fixed up below
        });
    }
    for il in &mut item_layouts {
        il.a_object = ObjectId(next);
        next += 1;
        layout.items.insert(il.item.id, il.clone());
    }
    layout
}

/// Run the user-transaction walk, returning nodes (+ TMs in B-mode) and
/// completing the layout.
fn walk_users(
    spec: &SystemSpec,
    layout: &mut Layout,
    build_tms: bool,
) -> (Components, Option<Components>) {
    let root = Tid::root();
    let mut walk = Walk {
        spec,
        layout,
        tms: if build_tms { Some(Vec::new()) } else { None },
        nodes: Vec::new(),
        user_tids: Vec::new(),
        tm_roles: BTreeMap::new(),
        strategy: spec.strategy,
    };
    // The root requests all top-level users at once (the serial scheduler
    // chooses the order), and never commits.
    let root_spec = UserSpec {
        steps: spec.users.iter().cloned().map(UserStep::Sub).collect(),
        commit: None,
    };
    // Flatten: visit children of root directly so that indices line up.
    let mut steps = Vec::new();
    for (k, user) in spec.users.iter().enumerate() {
        let child = root.child(k as u32);
        walk.user_tids.push(child.clone());
        walk.visit(&child, user);
        steps.push(ChildRequest {
            index: k as u32,
            access: None,
            param: None,
        });
    }
    let _ = root_spec;
    walk.nodes.push(Box::new(TransactionNode::new(
        root.clone(),
        ScriptProgram::new(vec![ScriptStep::Run(steps)]),
    )));
    let Walk {
        nodes,
        tms,
        user_tids,
        tm_roles,
        ..
    } = walk;
    layout.user_tids = user_tids;
    layout.tm_roles = tm_roles;
    (nodes, tms)
}

/// The reusable parts of the replicated system: the layout, the user
/// transaction nodes (including the root), and the TM components.
///
/// `qc-cc` uses this to assemble a *concurrent* system **C** with the same
/// user transactions and TMs as **B** but a non-serial scheduler and
/// lock-based resilient objects at the copy level (Theorem 11).
pub fn build_replicated_parts(spec: &SystemSpec) -> (Layout, Components, Components) {
    let mut layout = allocate_layout(spec);
    let (nodes, tms) = walk_users(spec, &mut layout, true);
    (layout, nodes, tms.expect("replicated parts build TMs"))
}

/// Build the replicated serial system **B** for `spec`.
///
/// Components: the serial scheduler, the root node, user transaction nodes,
/// one read-/write-TM per logical operation, one DM per replica, and the
/// plain objects.
pub fn build_system_b(spec: &SystemSpec) -> BuiltSystem {
    let mut layout = allocate_layout(spec);
    let (nodes, tms) = walk_users(spec, &mut layout, true);
    let mut system: System<TxnOp> = System::new();
    system.push(Box::new(SerialScheduler::new()));
    for (oid, name) in &layout.plain_objects {
        let init = &spec.plain[oid.0 as usize].init;
        system.push(Box::new(ReadWriteObject::new(
            *oid,
            name.clone(),
            init.clone(),
        )));
    }
    for il in layout.items.values() {
        for (r, oid) in il.dm_objects.iter().enumerate() {
            // A DM for x is a read-write object over N × V_x with initial
            // data (0, i_x).
            system.push(Box::new(ReadWriteObject::new(
                *oid,
                il.dm_names[r].clone(),
                Value::versioned(0, il.item.init.clone()),
            )));
        }
    }
    for node in nodes {
        system.push(node);
    }
    for tm in tms.expect("B-mode builds TMs") {
        system.push(tm);
    }
    BuiltSystem { system, layout }
}

/// Build the corresponding non-replicated serial system **A** for `spec`
/// (paper §3.2): same user transactions, but each logical item is a single
/// read-write object `O(x)` whose accesses are the TM names.
///
/// The layout must come from [`build_system_b`] (or share its allocation)
/// so the two systems agree on names.
pub fn build_system_a(spec: &SystemSpec, layout: &Layout) -> BuiltSystem {
    let mut layout_a = layout.clone();
    let (nodes, _) = walk_users(spec, &mut layout_a, false);
    let mut system: System<TxnOp> = System::new();
    system.push(Box::new(SerialScheduler::new()));
    for (oid, name) in &layout_a.plain_objects {
        let init = &spec.plain[oid.0 as usize].init;
        system.push(Box::new(ReadWriteObject::new(
            *oid,
            name.clone(),
            init.clone(),
        )));
    }
    // One object O(x) per item, with the TMs registered as its accesses.
    for il in layout_a.items.values() {
        let mut registry: BTreeMap<Tid, RegisteredAccess> = BTreeMap::new();
        for (tid, role) in &layout_a.tm_roles {
            if role.item() != il.item.id {
                continue;
            }
            let kind = match role {
                TmRole::Read(_) => AccessKind::Read,
                TmRole::Write(_) => AccessKind::Write,
            };
            registry.insert(
                tid.clone(),
                RegisteredAccess {
                    kind,
                    // Write data = value(T): delivered as the CREATE param.
                    data: None,
                },
            );
        }
        system.push(Box::new(ReadWriteObject::with_registry(
            il.a_object,
            format!("O({})", il.item.name),
            il.item.init.clone(),
            registry,
        )));
    }
    for node in nodes {
        system.push(node);
    }
    BuiltSystem {
        system,
        layout: layout_a,
    }
}

/// The committed projection of a generated
/// [`ProgramTree`](nested_txn::ProgramTree) as a [`UserSpec`], mapping slot
/// `k` to the `k`-th logical item.
///
/// Doomed subtrees are *erased*: in the serial systems **A**/**B** a
/// sibling abort means the subtree was never created, so its committed
/// projection is empty — exactly what the simulator's abort-compensation
/// machinery must be equivalent to. Parallel batches are sequentialised
/// (the serial scheduler runs siblings one at a time regardless). Writes
/// carry the same position-derived values as
/// [`ProgramTree::root_script`](nested_txn::ProgramTree::root_script).
pub fn user_spec_from_program(tree: &nested_txn::ProgramTree) -> UserSpec {
    fn steps_of(node: &nested_txn::ProgramNode) -> Vec<UserStep> {
        node.children
            .iter()
            .filter(|c| !c.doomed)
            .map(|c| match c.access {
                Some((slot, false)) => UserStep::Read(slot as usize),
                Some((slot, true)) => {
                    UserStep::Write(slot as usize, Value::Int(i64::from(slot) + 1))
                }
                None => UserStep::Sub(UserSpec {
                    steps: steps_of(c),
                    commit: Some(Value::Nil),
                }),
            })
            .collect()
    }
    UserSpec {
        steps: steps_of(&tree.root),
        commit: Some(Value::Nil),
    }
}

/// A well-formedness monitor pre-registered with system A's accesses (whose
/// operations carry no inline [`AccessSpec`]).
pub fn wf_monitor_for_a(layout: &Layout) -> SystemWfMonitor {
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

    fn small_spec() -> SystemSpec {
        SystemSpec {
            items: vec![ItemSpec {
                name: "x".into(),
                init: Value::Int(0),
                replicas: 3,
                config: ConfigChoice::Majority,
            }],
            plain: vec![PlainObjectSpec {
                name: "p".into(),
                init: Value::Int(100),
            }],
            users: vec![
                UserSpec::new(vec![UserStep::Write(0, Value::Int(7)), UserStep::Read(0)]),
                UserSpec::new(vec![UserStep::Read(0), UserStep::ReadPlain(0)]),
            ],
            strategy: TmStrategy::Eager,
        }
    }

    #[test]
    fn layout_allocates_disjoint_ids() {
        let b = build_system_b(&small_spec());
        let il = &b.layout.items[&ItemId(0)];
        assert_eq!(b.layout.plain_objects[0].0, ObjectId(0));
        assert_eq!(il.dm_objects, vec![ObjectId(1), ObjectId(2), ObjectId(3)]);
        assert_eq!(il.a_object, ObjectId(4));
        assert!(il.config.is_usable());
    }

    #[test]
    fn tm_roles_cover_all_logical_steps() {
        let b = build_system_b(&small_spec());
        // Users 0 and 1 contribute 2 + 1 TM steps.
        assert_eq!(b.layout.tm_roles.len(), 3);
        let root = Tid::root();
        assert_eq!(
            b.layout.tm_roles[&root.child(0).child(0)],
            TmRole::Write(ItemId(0))
        );
        assert_eq!(
            b.layout.tm_roles[&root.child(0).child(1)],
            TmRole::Read(ItemId(0))
        );
        assert_eq!(
            b.layout.tm_roles[&root.child(1).child(0)],
            TmRole::Read(ItemId(0))
        );
    }

    #[test]
    fn component_counts() {
        let spec = small_spec();
        let b = build_system_b(&spec);
        // scheduler + 1 plain + 3 DMs + (2 users + root) + 3 TMs = 11.
        assert_eq!(b.system.len(), 11);
        let a = build_system_a(&spec, &b.layout);
        // scheduler + 1 plain + 1 O(x) + (2 users + root) = 6.
        assert_eq!(a.system.len(), 6);
    }

    #[test]
    fn nested_users_walk() {
        let spec = SystemSpec {
            items: vec![ItemSpec {
                name: "x".into(),
                init: Value::Nil,
                replicas: 2,
                config: ConfigChoice::Rowa,
            }],
            plain: vec![],
            users: vec![UserSpec::new(vec![UserStep::Sub(UserSpec::new(vec![
                UserStep::Write(0, Value::Int(1)),
            ]))])],
            strategy: TmStrategy::Eager,
        };
        let b = build_system_b(&spec);
        // TM lives under the sub-transaction: T0.0.0.0.
        let tm = Tid::root().child(0).child(0).child(0);
        assert!(b.layout.tm_roles.contains_key(&tm));
        assert_eq!(b.layout.user_tids.len(), 2); // user + sub
    }

    #[test]
    fn replica_access_classification() {
        let b = build_system_b(&small_spec());
        let tm = Tid::root().child(0).child(0);
        let access = tm.child(0);
        let op = TxnOp::request_create(access);
        assert!(b.layout.is_replica_access_op(&op));
        let op2 = TxnOp::request_create(tm);
        assert!(!b.layout.is_replica_access_op(&op2));
    }
}
