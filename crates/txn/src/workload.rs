//! Seeded nested-transaction workload generators.
//!
//! A [`ProgramTree`] is the *shape* of one top-level user transaction: a
//! tree of inner transactions over leaf accesses to abstract item *slots*.
//! Generators ([`BankingGen`], [`InventoryGen`], [`RandomTreeGen`]) are pure
//! functions from a seed to a tree, so every consumer — the serial
//! model-checking harnesses, the Theorem 11 concurrent harness, and the
//! discrete-event simulator — replays the identical workload from the same
//! seed.
//!
//! Slots are indices `0..slots()`; the consumer maps them to concrete
//! objects (the examples map slot `k` to logical item `k`; the simulator
//! draws a zipfian item per slot). `doomed` inner nodes model *sibling
//! aborts*: the subtree is deterministically aborted while its siblings
//! commit, exercising the paper's claim that `ABORT(T)` means `T` was never
//! created — whatever the subtree did must be invisible afterwards.

use crate::op::{AccessSpec, TxnOp};
use crate::program::{ChildRequest, ScriptProgram, ScriptStep};
use crate::tid::Tid;
use crate::value::{ObjectId, Value};
use crate::wf::{SystemWfMonitor, WfError};

/// One node of a program tree.
///
/// A node is either a leaf access (`access` is `Some`, `children` empty) or
/// an inner transaction (`access` is `None`, `children` non-empty).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramNode {
    /// `Some((slot, is_write))` for a leaf access.
    pub access: Option<(u32, bool)>,
    /// Inner node: request all children as one awaited batch (concurrent
    /// siblings) instead of one at a time.
    pub parallel: bool,
    /// Inner node: deterministically abort this subtree after it runs (a
    /// *sibling abort* — the parent continues as if the child returned).
    pub doomed: bool,
    /// Child transactions, in request order.
    pub children: Vec<ProgramNode>,
}

impl ProgramNode {
    /// A read access to `slot`.
    #[must_use]
    pub fn read(slot: u32) -> Self {
        ProgramNode {
            access: Some((slot, false)),
            parallel: false,
            doomed: false,
            children: Vec::new(),
        }
    }

    /// A write access to `slot`.
    #[must_use]
    pub fn write(slot: u32) -> Self {
        ProgramNode {
            access: Some((slot, true)),
            parallel: false,
            doomed: false,
            children: Vec::new(),
        }
    }

    /// An inner transaction running `children` one at a time.
    #[must_use]
    pub fn seq(children: Vec<ProgramNode>) -> Self {
        ProgramNode {
            access: None,
            parallel: false,
            doomed: false,
            children,
        }
    }

    /// An inner transaction running `children` as one awaited batch.
    #[must_use]
    pub fn par(children: Vec<ProgramNode>) -> Self {
        ProgramNode {
            access: None,
            parallel: true,
            doomed: false,
            children,
        }
    }

    /// Mark this subtree as doomed (deterministic sibling abort).
    #[must_use]
    pub fn doom(mut self) -> Self {
        self.doomed = true;
        self
    }

    fn is_leaf(&self) -> bool {
        self.access.is_some()
    }

    fn depth(&self) -> u32 {
        1 + self
            .children
            .iter()
            .map(ProgramNode::depth)
            .max()
            .unwrap_or(0)
    }

    fn count(&self, acc: &mut TreeStats, doomed_above: bool) {
        let doomed = doomed_above || self.doomed;
        if let Some((slot, write)) = self.access {
            acc.accesses += 1;
            if write {
                acc.writes += 1;
            }
            if doomed {
                acc.doomed_accesses += 1;
            }
            acc.max_slot = acc.max_slot.max(slot + 1);
        } else {
            acc.inner += 1;
            if self.doomed {
                acc.doomed_nodes += 1;
            }
        }
        for c in &self.children {
            c.count(acc, doomed);
        }
    }

    fn validate(&self, is_root: bool) -> Result<(), String> {
        if self.is_leaf() {
            if !self.children.is_empty() {
                return Err("leaf access with children".into());
            }
            if self.doomed {
                return Err("doomed leaf (doom belongs to inner nodes)".into());
            }
        } else if self.children.is_empty() {
            return Err("inner node without children".into());
        }
        if is_root && self.is_leaf() {
            return Err("top-level transaction must be an inner node".into());
        }
        for c in &self.children {
            c.validate(false)?;
        }
        Ok(())
    }
}

/// Aggregate shape statistics of a [`ProgramTree`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Leaf accesses.
    pub accesses: u32,
    /// Leaf write accesses.
    pub writes: u32,
    /// Leaf accesses under some doomed ancestor.
    pub doomed_accesses: u32,
    /// Inner (non-access) transactions, the root included.
    pub inner: u32,
    /// Inner nodes marked doomed.
    pub doomed_nodes: u32,
    /// One past the highest slot referenced.
    pub max_slot: u32,
}

/// The program of one top-level user transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramTree {
    /// The top-level transaction (always an inner node).
    pub root: ProgramNode,
}

impl ProgramTree {
    /// Structural sanity: leaves are accesses, inner nodes have children,
    /// the root is an inner node.
    ///
    /// # Errors
    ///
    /// A description of the malformation.
    pub fn validate(&self) -> Result<(), String> {
        self.root.validate(true)
    }

    /// Tree height in nodes (a root over one access has depth 2).
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.root.depth()
    }

    /// Shape statistics.
    #[must_use]
    pub fn stats(&self) -> TreeStats {
        let mut s = TreeStats::default();
        self.root.count(&mut s, false);
        s
    }

    /// The serial schedule of this program as top-level transaction
    /// `T0.top_index`, in the paper's five-action vocabulary.
    ///
    /// Children run depth-first; a doomed child is `REQUEST-CREATE`d and
    /// then `ABORT`ed by the scheduler (the paper's abort semantics: the
    /// subtree was never created), which is exactly the committed
    /// projection the simulator must be equivalent to. Reads request-commit
    /// with `nil`; writes with their (position-derived) data.
    #[must_use]
    pub fn serial_schedule(&self, top_index: u32) -> Vec<TxnOp> {
        let mut out = vec![TxnOp::Create {
            tid: Tid::root(),
            access: None,
            param: None,
        }];
        let top = Tid::root().child(top_index);
        out.push(TxnOp::request_create(top.clone()));
        emit_node(&self.root, &top, &mut out);
        out
    }

    /// Drive this program's serial schedule through a fresh
    /// [`SystemWfMonitor`]: every transaction and object projection must be
    /// well-formed.
    ///
    /// # Errors
    ///
    /// The first well-formedness violation.
    pub fn check_wf(&self, top_index: u32) -> Result<(), WfError> {
        let mut mon = SystemWfMonitor::new();
        for op in self.serial_schedule(top_index) {
            mon.observe_op(&op)?;
        }
        Ok(())
    }

    /// A [`ScriptProgram`] realising this tree's *root* step structure, for
    /// composition with [`TransactionNode`](crate::TransactionNode) under
    /// the serial scheduler. Inner children are indexed by position; the
    /// caller builds their nodes from [`ProgramNode::children`] the same
    /// way (see the examples).
    #[must_use]
    pub fn root_script(&self, slot_object: impl Fn(u32) -> ObjectId) -> ScriptProgram {
        node_script(&self.root, &slot_object)
    }
}

fn access_spec(slot: u32, write: bool, slot_object: &impl Fn(u32) -> ObjectId) -> AccessSpec {
    if write {
        AccessSpec::write(slot_object(slot), Value::Int(i64::from(slot) + 1))
    } else {
        AccessSpec::read(slot_object(slot))
    }
}

fn node_script(node: &ProgramNode, slot_object: &impl Fn(u32) -> ObjectId) -> ScriptProgram {
    let reqs: Vec<ChildRequest> = node
        .children
        .iter()
        .enumerate()
        .map(|(i, c)| ChildRequest {
            index: u32::try_from(i).expect("child index fits u32"),
            access: c
                .access
                .map(|(slot, write)| access_spec(slot, write, slot_object)),
            param: None,
        })
        .collect();
    let mut steps = Vec::new();
    if node.parallel {
        steps.push(ScriptStep::Run(reqs));
    } else {
        steps.extend(reqs.into_iter().map(|r| ScriptStep::Run(vec![r])));
    }
    steps.push(ScriptStep::Commit(Value::Nil));
    ScriptProgram::new(steps)
}

fn emit_node(node: &ProgramNode, tid: &Tid, out: &mut Vec<TxnOp>) {
    out.push(TxnOp::Create {
        tid: tid.clone(),
        access: None,
        param: None,
    });
    for (i, child) in node.children.iter().enumerate() {
        let ct = tid.child(u32::try_from(i).expect("child index fits u32"));
        if let Some((slot, write)) = child.access {
            let spec = access_spec(slot, write, &ObjectId);
            out.push(TxnOp::RequestCreate {
                tid: ct.clone(),
                access: Some(spec.clone()),
                param: None,
            });
            out.push(TxnOp::Create {
                tid: ct.clone(),
                access: Some(spec.clone()),
                param: None,
            });
            let v = if write { Value::Nil } else { Value::Int(0) };
            out.push(TxnOp::RequestCommit {
                tid: ct.clone(),
                value: v.clone(),
            });
            out.push(TxnOp::Commit { tid: ct, value: v });
        } else if child.doomed {
            // ABORT(T): the scheduler may abort any requested, not-yet-
            // created transaction — the serial meaning of a sibling abort.
            out.push(TxnOp::request_create(ct.clone()));
            out.push(TxnOp::Abort { tid: ct });
        } else {
            out.push(TxnOp::request_create(ct.clone()));
            emit_node(child, &ct, out);
        }
    }
    out.push(TxnOp::RequestCommit {
        tid: tid.clone(),
        value: Value::Nil,
    });
    out.push(TxnOp::Commit {
        tid: tid.clone(),
        value: Value::Nil,
    });
}

/// SplitMix64 — the repo's standard seed-expansion hash (see
/// `qc_sim::faults`), reproduced here so generators stay dependency-free
/// and their pinned outputs never drift.
#[must_use]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic stream over [`splitmix`].
struct Mix {
    state: u64,
}

impl Mix {
    fn new(seed: u64) -> Self {
        Mix {
            state: splitmix(seed ^ 0xC0FF_EE00_D15E_A5E5),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = splitmix(self.state);
        self.state
    }

    /// Uniform draw in `0..n` (n ≥ 1).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Bernoulli with probability `permille`/1000.
    fn chance(&mut self, permille: u32) -> bool {
        self.below(1000) < u64::from(permille)
    }
}

/// The banking workload of `examples/banking.rs` as a seeded generator:
/// deposits (read-modify-write one account), transfers (two nested
/// read-modify-write legs over distinct accounts, occasionally doomed on
/// the credit leg), and read-only audits over every account.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankingGen {
    /// Number of account slots.
    pub accounts: u32,
    /// Permille of transfers whose credit leg is doomed (a failed
    /// transfer: the debit must be undone by the abort machinery).
    pub doomed_permille: u32,
}

impl BankingGen {
    /// The example's shape: `accounts` accounts, 125‰ failed transfers.
    #[must_use]
    pub fn new(accounts: u32) -> Self {
        assert!(accounts >= 2, "banking needs at least two accounts");
        BankingGen {
            accounts,
            doomed_permille: 125,
        }
    }

    /// The program for `seed`.
    #[must_use]
    pub fn program(&self, seed: u64) -> ProgramTree {
        let mut mix = Mix::new(seed ^ 0xBA4C);
        let a = u32::try_from(mix.below(u64::from(self.accounts))).expect("slot");
        let root = match mix.below(3) {
            // Deposit: read-modify-write one account.
            0 => ProgramNode::seq(vec![ProgramNode::read(a), ProgramNode::write(a)]),
            // Transfer: debit and credit legs as concurrent nested
            // transactions over two distinct accounts.
            1 => {
                let b =
                    (a + 1 + u32::try_from(mix.below(u64::from(self.accounts - 1))).expect("slot"))
                        % self.accounts;
                let debit = ProgramNode::seq(vec![ProgramNode::read(a), ProgramNode::write(a)]);
                let mut credit =
                    ProgramNode::seq(vec![ProgramNode::read(b), ProgramNode::write(b)]);
                if mix.chance(self.doomed_permille) {
                    credit = credit.doom();
                }
                ProgramNode::par(vec![debit, credit])
            }
            // Audit: a read-only parallel sweep over every account.
            _ => ProgramNode::par((0..self.accounts).map(ProgramNode::read).collect()),
        };
        ProgramTree { root }
    }
}

/// The inventory workload of `examples/inventory.rs` as a seeded
/// generator: stock checks (read one product), restocks (read-modify-write
/// one product), and multi-product orders reserving two products in
/// concurrent nested legs, occasionally doomed on the second reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InventoryGen {
    /// Number of product slots.
    pub products: u32,
    /// Permille of stock checks among generated programs (the example's
    /// read-mostly catalogue traffic).
    pub check_permille: u32,
    /// Permille of orders whose second reservation is doomed.
    pub doomed_permille: u32,
}

impl InventoryGen {
    /// The example's shape: `products` products, 60% stock checks, 100‰
    /// doomed reservations.
    #[must_use]
    pub fn new(products: u32) -> Self {
        assert!(products >= 2, "inventory needs at least two products");
        InventoryGen {
            products,
            check_permille: 600,
            doomed_permille: 100,
        }
    }

    /// The program for `seed`.
    #[must_use]
    pub fn program(&self, seed: u64) -> ProgramTree {
        let mut mix = Mix::new(seed ^ 0x14E0);
        let p = u32::try_from(mix.below(u64::from(self.products))).expect("slot");
        let root = if mix.chance(self.check_permille) {
            // Stock check: read one product (plus a read-only price peek
            // at a neighbour, so even checks span two items).
            let q = (p + 1) % self.products;
            ProgramNode::seq(vec![ProgramNode::read(p), ProgramNode::read(q)])
        } else if mix.chance(500) {
            // Restock: read-modify-write one product.
            ProgramNode::seq(vec![ProgramNode::read(p), ProgramNode::write(p)])
        } else {
            // Order: reserve two distinct products in concurrent nested
            // legs; the second reservation occasionally fails.
            let q = (p + 1 + u32::try_from(mix.below(u64::from(self.products - 1))).expect("slot"))
                % self.products;
            let first = ProgramNode::seq(vec![ProgramNode::read(p), ProgramNode::write(p)]);
            let mut second = ProgramNode::seq(vec![ProgramNode::read(q), ProgramNode::write(q)]);
            if mix.chance(self.doomed_permille) {
                second = second.doom();
            }
            ProgramNode::par(vec![first, second])
        };
        ProgramTree { root }
    }
}

/// A seeded random program-tree generator: bounded depth and fan-out,
/// read-only subtrees, doomed subtrees, and a write fraction for leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomTreeGen {
    /// Number of item slots leaves draw from.
    pub slots: u32,
    /// Maximum tree height in nodes (≥ 2: a root over accesses).
    pub max_depth: u32,
    /// Maximum children per inner node (≥ 1).
    pub max_fanout: u32,
    /// Permille of leaves that are writes (outside read-only subtrees).
    pub write_permille: u32,
    /// Permille of inner nodes that start a read-only subtree.
    pub read_only_permille: u32,
    /// Permille of non-root inner nodes that are doomed.
    pub doom_permille: u32,
    /// Permille of inner nodes whose children run as one awaited batch.
    pub parallel_permille: u32,
}

impl RandomTreeGen {
    /// The largest `max_fanout` [`WorkloadKind::validate`] accepts. A tree
    /// is at most four levels deep whatever `max_depth` says (the leaf
    /// chance reaches 1000‰ at depth 4), so one program holds at most
    /// `max_fanout³` accesses: 2¹⁸ at this bound. A fanout of 70 000
    /// validated before the bound existed and exhausted memory generating
    /// its first program.
    pub const MAX_FANOUT: u32 = 64;

    /// A balanced default over `slots` item slots: depth ≤ 4, fan-out ≤ 3,
    /// 40% writes, 20% read-only subtrees, 10% doomed subtrees, 50%
    /// parallel batches.
    #[must_use]
    pub fn new(slots: u32) -> Self {
        assert!(slots >= 1, "need at least one slot");
        RandomTreeGen {
            slots,
            max_depth: 4,
            max_fanout: 3,
            write_permille: 400,
            read_only_permille: 200,
            doom_permille: 100,
            parallel_permille: 500,
        }
    }

    /// The program for `seed`.
    #[must_use]
    pub fn program(&self, seed: u64) -> ProgramTree {
        let mut mix = Mix::new(seed ^ 0x7EEE);
        let mut root = self.gen_node(&mut mix, 1, false, true);
        // The root must be an inner node with at least one access.
        if root.is_leaf() {
            root = ProgramNode::seq(vec![root]);
        }
        let tree = ProgramTree { root };
        debug_assert!(tree.validate().is_ok());
        tree
    }

    fn gen_leaf(&self, mix: &mut Mix, read_only: bool) -> ProgramNode {
        let slot = u32::try_from(mix.below(u64::from(self.slots))).expect("slot");
        if !read_only && mix.chance(self.write_permille) {
            ProgramNode::write(slot)
        } else {
            ProgramNode::read(slot)
        }
    }

    fn gen_node(&self, mix: &mut Mix, depth: u32, read_only: bool, is_root: bool) -> ProgramNode {
        // Leaves get likelier with depth; the last level is all leaves.
        let leaf_chance = if depth >= self.max_depth {
            1000
        } else {
            250 * depth
        };
        if !is_root && mix.chance(leaf_chance) {
            return self.gen_leaf(mix, read_only);
        }
        let read_only = read_only || mix.chance(self.read_only_permille);
        let fanout = 1 + mix.below(u64::from(self.max_fanout));
        let children = (0..fanout)
            .map(|_| self.gen_node(mix, depth + 1, read_only, false))
            .collect();
        let mut node = if mix.chance(self.parallel_permille) {
            ProgramNode::par(children)
        } else {
            ProgramNode::seq(children)
        };
        if !is_root && mix.chance(self.doom_permille) {
            node = node.doom();
        }
        node
    }
}

/// A config-friendly sum of the generators (the simulator's workload knob).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// [`BankingGen`].
    Banking(BankingGen),
    /// [`InventoryGen`].
    Inventory(InventoryGen),
    /// [`RandomTreeGen`].
    Random(RandomTreeGen),
}

impl WorkloadKind {
    /// The program for `seed`.
    #[must_use]
    pub fn program(&self, seed: u64) -> ProgramTree {
        match self {
            WorkloadKind::Banking(g) => g.program(seed),
            WorkloadKind::Inventory(g) => g.program(seed),
            WorkloadKind::Random(g) => g.program(seed),
        }
    }

    /// Check the generator's fields: the ones [`WorkloadKind::program`]
    /// divides by, a random tree's fanout against
    /// [`RandomTreeGen::MAX_FANOUT`], and every permille against 1000. The
    /// generators' fields are public, so a literal can bypass the `new`
    /// constructors' assertions and would otherwise panic mid-run on an
    /// empty draw range or exhaust memory generating a program.
    ///
    /// # Errors
    ///
    /// A description of the first parameter out of range, naming it.
    pub fn validate(&self) -> Result<(), String> {
        let permilles = match *self {
            WorkloadKind::Banking(g) => vec![("doomed_permille", g.doomed_permille)],
            WorkloadKind::Inventory(g) => vec![
                ("check_permille", g.check_permille),
                ("doomed_permille", g.doomed_permille),
            ],
            WorkloadKind::Random(g) => vec![
                ("write_permille", g.write_permille),
                ("read_only_permille", g.read_only_permille),
                ("doom_permille", g.doom_permille),
                ("parallel_permille", g.parallel_permille),
            ],
        };
        if let Some((name, p)) = permilles.into_iter().find(|&(_, p)| p > 1000) {
            return Err(format!("{name} must be at most 1000 (got {p})"));
        }
        match *self {
            WorkloadKind::Banking(g) if g.accounts < 2 => Err(format!(
                "banking needs at least two accounts (got {})",
                g.accounts
            )),
            WorkloadKind::Inventory(g) if g.products < 2 => Err(format!(
                "inventory needs at least two products (got {})",
                g.products
            )),
            WorkloadKind::Random(g) if g.slots == 0 => {
                Err("random trees need at least one slot".into())
            }
            WorkloadKind::Random(g) if g.max_fanout == 0 => {
                Err("random trees need max_fanout >= 1".into())
            }
            WorkloadKind::Random(g) if g.max_fanout > RandomTreeGen::MAX_FANOUT => Err(format!(
                "random trees need max_fanout <= {} (got {})",
                RandomTreeGen::MAX_FANOUT,
                g.max_fanout
            )),
            _ => Ok(()),
        }
    }

    /// Number of item slots programs draw from.
    #[must_use]
    pub fn slots(&self) -> u32 {
        match self {
            WorkloadKind::Banking(g) => g.accounts,
            WorkloadKind::Inventory(g) => g.products,
            WorkloadKind::Random(g) => g.slots,
        }
    }

    /// A short label for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Banking(_) => "banking",
            WorkloadKind::Inventory(_) => "inventory",
            WorkloadKind::Random(_) => "random",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banking_trees_are_well_formed() {
        let g = BankingGen::new(4);
        for seed in 0..200 {
            let t = g.program(seed);
            t.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            t.check_wf(0).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(t.stats().accesses >= 2, "seed {seed}");
        }
    }

    #[test]
    fn inventory_trees_are_well_formed() {
        let g = InventoryGen::new(6);
        for seed in 0..200 {
            let t = g.program(seed);
            t.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            t.check_wf(3).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn random_trees_are_well_formed_and_bounded() {
        let g = RandomTreeGen::new(8);
        for seed in 0..500 {
            let t = g.program(seed);
            t.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            t.check_wf(1).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(t.depth() <= g.max_depth + 1, "seed {seed}: {}", t.depth());
            let s = t.stats();
            assert!(s.accesses >= 1, "seed {seed}");
            assert!(s.max_slot <= g.slots, "seed {seed}");
        }
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let g = RandomTreeGen::new(8);
        for seed in [0, 1, 17, 0xDEAD_BEEF] {
            assert_eq!(g.program(seed), g.program(seed));
        }
        // …and the seed actually matters.
        assert_ne!(g.program(2), g.program(3));
    }

    #[test]
    fn doomed_subtrees_appear_and_are_counted() {
        let g = BankingGen::new(4);
        let doomed: u32 = (0..400).map(|s| g.program(s).stats().doomed_nodes).sum();
        assert!(doomed > 0, "no doomed transfer in 400 seeds");
        // Doomed accesses are only those under the doomed node.
        for seed in 0..400 {
            let s = g.program(seed).stats();
            assert!(s.doomed_accesses <= s.accesses);
        }
    }

    #[test]
    fn serial_schedule_models_sibling_abort_as_never_created() {
        // A doomed child contributes REQUEST-CREATE + ABORT and nothing
        // else to the serial schedule.
        let tree = ProgramTree {
            root: ProgramNode::seq(vec![
                ProgramNode::write(0),
                ProgramNode::seq(vec![ProgramNode::write(1)]).doom(),
            ]),
        };
        tree.check_wf(0).unwrap();
        let sched = tree.serial_schedule(0);
        let doomed = Tid::root().child(0).child(1);
        let of_doomed: Vec<_> = sched
            .iter()
            .filter(|op| doomed.is_ancestor_of(op.tid()))
            .collect();
        assert_eq!(of_doomed.len(), 2, "{of_doomed:?}");
        assert!(matches!(of_doomed[0], TxnOp::RequestCreate { .. }));
        assert!(matches!(of_doomed[1], TxnOp::Abort { .. }));
    }

    #[test]
    fn validate_rejects_each_empty_draw_range() {
        let random = RandomTreeGen::new(4);
        let bad = [
            WorkloadKind::Banking(BankingGen {
                accounts: 1,
                ..BankingGen::new(2)
            }),
            WorkloadKind::Inventory(InventoryGen {
                products: 1,
                ..InventoryGen::new(2)
            }),
            WorkloadKind::Random(RandomTreeGen {
                max_fanout: 0,
                ..random
            }),
            WorkloadKind::Random(RandomTreeGen { slots: 0, ..random }),
            WorkloadKind::Random(RandomTreeGen {
                max_fanout: RandomTreeGen::MAX_FANOUT + 1,
                ..random
            }),
            WorkloadKind::Random(RandomTreeGen {
                parallel_permille: 1001,
                ..random
            }),
            WorkloadKind::Banking(BankingGen {
                doomed_permille: 1001,
                ..BankingGen::new(2)
            }),
            WorkloadKind::Inventory(InventoryGen {
                check_permille: 1001,
                ..InventoryGen::new(2)
            }),
        ];
        for kind in bad {
            assert!(kind.validate().is_err(), "{kind:?}");
        }
        // The smallest legal parameters generate without panicking.
        let good = [
            WorkloadKind::Banking(BankingGen::new(2)),
            WorkloadKind::Inventory(InventoryGen::new(2)),
            WorkloadKind::Random(RandomTreeGen {
                slots: 1,
                max_fanout: 1,
                ..random
            }),
        ];
        let widest = RandomTreeGen {
            max_fanout: RandomTreeGen::MAX_FANOUT,
            ..random
        };
        assert_eq!(WorkloadKind::Random(widest).validate(), Ok(()));
        for kind in good {
            assert_eq!(kind.validate(), Ok(()), "{kind:?}");
            for seed in 0..200 {
                kind.program(seed)
                    .validate()
                    .unwrap_or_else(|e| panic!("{kind:?} {seed}: {e}"));
            }
        }
    }

    #[test]
    fn root_script_matches_tree_arity() {
        let g = InventoryGen::new(4);
        let tree = g.program(9);
        // The script exists and the conversion does not panic; end-to-end
        // execution is covered by the examples and the core spec tests.
        let _ = tree.root_script(ObjectId);
    }
}
