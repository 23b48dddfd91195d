//! A flat, item-keyed Moss lock table for the discrete-event simulator.
//!
//! [`LockingObject`](crate::LockingObject) realises Moss read/write locking
//! as one I/O automaton per object, driven by `TxnOp`s and holding cloned
//! [`Tid`](nested_txn::Tid)s — right for model checking, too slow and too
//! allocation-happy for the simulator's hot loop. [`LockTable`] is the same
//! algorithm re-hosted for the flat DM arena: locks are keyed by local item
//! index, transactions are named by copy-free [`PathTid`]s (a client/epoch
//! pair plus a packed tree path), and the grant/inherit/abort rules are the
//! Moss rules verbatim:
//!
//! * a **read** lock is grantable iff every *write* holder is an ancestor
//!   of the requestor;
//! * a **write** lock is grantable iff *every* holder (read or write) is an
//!   ancestor of the requestor;
//! * when a transaction **commits**, its locks and undo entries are
//!   inherited by its parent;
//! * when a subtree **aborts**, its locks are discarded and its writes are
//!   undone in reverse order (the version-stack suffix owned by the
//!   subtree), yielding the value the item must be restored to.
//!
//! Waiters queue FIFO per item and are granted in order on release, with
//! no barging past the queue *except* by requests that are compatible with
//! the current holders (ancestors' re-entry must not deadlock behind
//! strangers). An explicit *compensation latch* blocks all grants on an
//! item while an aborted subtree's restore-write is still in flight, so no
//! transaction ever observes an uncommitted (to-be-undone) value.

use std::collections::VecDeque;

/// Maximum tree-path depth a [`PathTid`] can name.
pub const MAX_PATH: usize = 12;

/// A copy-free transaction name for the lock table: `client` and `epoch`
/// identify one top-level transaction instance (epochs distinguish
/// successive transactions of the same client — names from different
/// epochs are never related); `path` is the position within that
/// transaction's tree, the top-level transaction itself being the empty
/// path.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathTid {
    client: u32,
    epoch: u32,
    len: u8,
    path: [u16; MAX_PATH],
}

impl std::fmt::Debug for PathTid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}e{}", self.client, self.epoch)?;
        for i in 0..self.len as usize {
            write!(f, ".{}", self.path[i])?;
        }
        Ok(())
    }
}

impl PathTid {
    /// The top-level transaction of `client`'s `epoch`-th program.
    #[must_use]
    pub fn top(client: u32, epoch: u32) -> Self {
        PathTid {
            client,
            epoch,
            len: 0,
            path: [0; MAX_PATH],
        }
    }

    /// The `index`-th child.
    ///
    /// # Panics
    ///
    /// If the path would exceed [`MAX_PATH`].
    #[must_use]
    pub fn child(&self, index: u16) -> Self {
        let mut c = *self;
        assert!((c.len as usize) < MAX_PATH, "PathTid deeper than MAX_PATH");
        c.path[c.len as usize] = index;
        c.len += 1;
        c
    }

    /// The parent, or `None` for the top-level transaction.
    #[must_use]
    pub fn parent(&self) -> Option<Self> {
        if self.len == 0 {
            return None;
        }
        let mut p = *self;
        p.len -= 1;
        p.path[p.len as usize] = 0;
        Some(p)
    }

    /// The owning client.
    #[must_use]
    pub fn client(&self) -> u32 {
        self.client
    }

    /// The owning epoch.
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The tree path from the top-level transaction to this one (empty for
    /// the top-level transaction itself) — child indices, outermost first.
    /// Lets an event loop map a granted waiter back to its program node.
    #[must_use]
    pub fn path(&self) -> &[u16] {
        &self.path[..self.len as usize]
    }

    /// Whether `self` is an ancestor of `other` (every transaction is an
    /// ancestor of itself). Names from different clients or epochs are
    /// unrelated.
    #[must_use]
    pub fn is_ancestor_of(&self, other: &Self) -> bool {
        self.client == other.client
            && self.epoch == other.epoch
            && self.len <= other.len
            && self.path[..self.len as usize] == other.path[..self.len as usize]
    }
}

/// Read or write lock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared with other readers and with ancestors.
    Read,
    /// Exclusive except against ancestors.
    Write,
}

/// The outcome of [`LockTable::acquire`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Acquire {
    /// The lock was granted immediately.
    Granted,
    /// The request was queued; the ticket names it for
    /// [`LockTable::is_waiting`] and timeout handling.
    Queued(u64),
}

#[derive(Clone, Debug)]
struct Waiter {
    tid: PathTid,
    mode: LockMode,
    ticket: u64,
}

#[derive(Clone, Debug, Default)]
struct ItemLocks {
    read_holders: Vec<PathTid>,
    write_holders: Vec<PathTid>,
    /// Version/undo stack: `(owner, previous value)` per performed write,
    /// oldest first. Entries climb the tree with lock inheritance and the
    /// suffix owned by an aborted subtree is popped to find the restore
    /// value.
    undo: Vec<(PathTid, u64)>,
    waiters: VecDeque<Waiter>,
    /// While set, an aborted subtree's compensating restore-write is in
    /// flight and nothing may be granted on this item.
    comp_pending: bool,
}

impl ItemLocks {
    fn grantable(&self, tid: &PathTid, mode: LockMode) -> bool {
        if self.comp_pending {
            return false;
        }
        let writes_ok = self.write_holders.iter().all(|h| h.is_ancestor_of(tid));
        match mode {
            LockMode::Read => writes_ok,
            LockMode::Write => writes_ok && self.read_holders.iter().all(|h| h.is_ancestor_of(tid)),
        }
    }

    fn add_holder(&mut self, tid: PathTid, mode: LockMode) {
        let list = match mode {
            LockMode::Read => &mut self.read_holders,
            LockMode::Write => &mut self.write_holders,
        };
        if !list.contains(&tid) {
            list.push(tid);
        }
    }
}

/// A Moss lock table over `items` local item slots. All operations are
/// deterministic: holder lists and wait queues are scanned in insertion
/// order.
#[derive(Clone, Debug)]
pub struct LockTable {
    items: Vec<ItemLocks>,
    next_ticket: u64,
    conflicts: u64,
}

impl LockTable {
    /// An empty table over `items` slots.
    #[must_use]
    pub fn new(items: usize) -> Self {
        LockTable {
            items: vec![ItemLocks::default(); items],
            next_ticket: 0,
            conflicts: 0,
        }
    }

    /// Number of lock requests that had to queue.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Request `mode` on `item` for `tid`: granted immediately if
    /// compatible with the current holders, queued FIFO otherwise.
    pub fn acquire(&mut self, item: usize, tid: PathTid, mode: LockMode) -> Acquire {
        let it = &mut self.items[item];
        if it.grantable(&tid, mode) {
            it.add_holder(tid, mode);
            return Acquire::Granted;
        }
        self.conflicts += 1;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        it.waiters.push_back(Waiter { tid, mode, ticket });
        Acquire::Queued(ticket)
    }

    /// Whether the queued request `ticket` is still waiting on `item`.
    #[must_use]
    pub fn is_waiting(&self, item: usize, ticket: u64) -> bool {
        self.items[item].waiters.iter().any(|w| w.ticket == ticket)
    }

    /// The first holder a `mode` request by `tid` on `item` conflicts
    /// with — the proximate cause a causal tracer should charge a queued
    /// wait to. `None` when nothing conflicts (the request would be
    /// granted, or it queues only behind the compensation latch — check
    /// [`LockTable::comp_pending`]). Holder lists are scanned in
    /// insertion order, writers first, so the answer is deterministic.
    #[must_use]
    pub fn blocking_holder(&self, item: usize, tid: &PathTid, mode: LockMode) -> Option<PathTid> {
        let it = &self.items[item];
        let writes = it.write_holders.iter().find(|h| !h.is_ancestor_of(tid));
        match mode {
            LockMode::Read => writes.copied(),
            LockMode::Write => writes
                .or_else(|| it.read_holders.iter().find(|h| !h.is_ancestor_of(tid)))
                .copied(),
        }
    }

    /// Record a performed write by `tid` on `item`: `prev` is the logical
    /// value the item held before the write (the undo value). The caller
    /// must already hold the write lock.
    pub fn note_write(&mut self, item: usize, tid: PathTid, prev: u64) {
        debug_assert!(
            self.items[item].write_holders.contains(&tid),
            "note_write without the write lock"
        );
        self.items[item].undo.push((tid, prev));
    }

    /// `tid` committed: its holders and undo entries on `item` are
    /// inherited by its parent (Moss lock inheritance). No-op if `tid`
    /// holds nothing on `item`.
    ///
    /// # Panics
    ///
    /// If `tid` is a top-level transaction (use
    /// [`LockTable::release_top`]).
    pub fn inherit(&mut self, item: usize, tid: &PathTid) {
        let parent = tid.parent().expect("inherit called on a top-level tid");
        let it = &mut self.items[item];
        for list in [&mut it.read_holders, &mut it.write_holders] {
            if list.iter().any(|h| h == tid) {
                list.retain(|h| h != tid);
                if !list.contains(&parent) {
                    list.push(parent);
                }
            }
        }
        for (owner, _) in &mut it.undo {
            if owner == tid {
                *owner = parent;
            }
        }
    }

    /// The top-level transaction of `(client, epoch)` committed: drop all
    /// its holders and undo entries on `item` (the writes are permanent).
    /// Returns whether anything was released (the caller should then
    /// [`LockTable::rescan`] the item).
    pub fn release_top(&mut self, item: usize, client: u32, epoch: u32) -> bool {
        let it = &mut self.items[item];
        let before = it.read_holders.len() + it.write_holders.len();
        let mine = |h: &PathTid| h.client == client && h.epoch == epoch;
        it.read_holders.retain(|h| !mine(h));
        it.write_holders.retain(|h| !mine(h));
        it.undo.retain(|(owner, _)| !mine(owner));
        before != it.read_holders.len() + it.write_holders.len()
    }

    /// The subtree rooted at `prefix` aborted: discard its holders and
    /// queued waiters on `item`, pop the undo-stack suffix it owns, and
    /// return the value the item must be restored to (`None` when the
    /// subtree performed no write on `item`).
    ///
    /// When a restore value is returned the item's *compensation latch* is
    /// set: nothing is granted until [`LockTable::compensation_done`].
    pub fn abort_subtree(&mut self, item: usize, prefix: &PathTid) -> Option<u64> {
        let it = &mut self.items[item];
        it.read_holders.retain(|h| !prefix.is_ancestor_of(h));
        it.write_holders.retain(|h| !prefix.is_ancestor_of(h));
        it.waiters.retain(|w| !prefix.is_ancestor_of(&w.tid));
        let mut restore = None;
        while let Some((owner, prev)) = it.undo.last() {
            if prefix.is_ancestor_of(owner) {
                restore = Some(*prev);
                it.undo.pop();
            } else {
                break;
            }
        }
        debug_assert!(
            it.undo.iter().all(|(o, _)| !prefix.is_ancestor_of(o)),
            "aborted subtree's undo entries were not a stack suffix"
        );
        if restore.is_some() {
            it.comp_pending = true;
        }
        restore
    }

    /// The compensating restore-write for `item` committed: lift the latch.
    pub fn compensation_done(&mut self, item: usize) {
        debug_assert!(self.items[item].comp_pending);
        self.items[item].comp_pending = false;
    }

    /// Whether `item` is latched behind an in-flight compensation.
    #[must_use]
    pub fn comp_pending(&self, item: usize) -> bool {
        self.items[item].comp_pending
    }

    /// Grant the front waiter of `item` if it is compatible with the
    /// current holders, returning `(tid, mode, ticket)`; `None` when the
    /// queue is empty or its front must keep waiting. Waiters are granted
    /// strictly from the front — the first one that is not grantable ends
    /// the batch (no starvation of writers by later readers). Allocation
    /// free, so an event loop can drain a batch into a buffer it reuses.
    pub fn grant_next(&mut self, item: usize) -> Option<(PathTid, LockMode, u64)> {
        let it = &mut self.items[item];
        let front = it.waiters.front()?;
        if !it.grantable(&front.tid, front.mode) {
            return None;
        }
        let w = it.waiters.pop_front().expect("front exists");
        it.add_holder(w.tid, w.mode);
        Some((w.tid, w.mode, w.ticket))
    }

    /// Grant queued waiters on `item` in FIFO order — every
    /// [`LockTable::grant_next`] until the first `None`, collected.
    pub fn rescan(&mut self, item: usize) -> Vec<(PathTid, LockMode, u64)> {
        std::iter::from_fn(|| self.grant_next(item)).collect()
    }

    /// Test/diagnostic view: `(read holders, write holders, undo depth,
    /// queued waiters)` for `item`.
    #[must_use]
    pub fn snapshot(&self, item: usize) -> (usize, usize, usize, usize) {
        let it = &self.items[item];
        (
            it.read_holders.len(),
            it.write_holders.len(),
            it.undo.len(),
            it.waiters.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top(c: u32) -> PathTid {
        PathTid::top(c, 0)
    }

    #[test]
    fn path_tid_ancestry() {
        let t = top(3);
        let a = t.child(0);
        let b = a.child(2);
        assert!(t.is_ancestor_of(&t));
        assert!(t.is_ancestor_of(&b));
        assert!(a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&t.child(1)));
        assert_eq!(b.parent(), Some(a));
        assert_eq!(t.parent(), None);
        // Different clients and different epochs are unrelated.
        assert!(!top(4).is_ancestor_of(&b));
        assert!(!PathTid::top(3, 1).is_ancestor_of(&b));
    }

    #[test]
    fn reads_share_writes_exclude() {
        let mut lt = LockTable::new(1);
        assert_eq!(
            lt.acquire(0, top(0).child(0), LockMode::Read),
            Acquire::Granted
        );
        assert_eq!(
            lt.acquire(0, top(1).child(0), LockMode::Read),
            Acquire::Granted
        );
        // A stranger's write waits behind both readers.
        assert!(matches!(
            lt.acquire(0, top(2).child(0), LockMode::Write),
            Acquire::Queued(_)
        ));
        assert_eq!(lt.conflicts(), 1);
    }

    #[test]
    fn ancestors_do_not_block_descendants() {
        let mut lt = LockTable::new(1);
        let t = top(0);
        let leaf1 = t.child(0);
        // Leaf writes, commits: lock inherited by the top-level.
        assert_eq!(lt.acquire(0, leaf1, LockMode::Write), Acquire::Granted);
        lt.note_write(0, leaf1, 7);
        lt.inherit(0, &leaf1);
        // A sibling leaf of the same transaction can read and write (the
        // holder is now its ancestor)…
        let leaf2 = t.child(1);
        assert_eq!(lt.acquire(0, leaf2, LockMode::Read), Acquire::Granted);
        assert_eq!(lt.acquire(0, leaf2, LockMode::Write), Acquire::Granted);
        // …while a stranger still waits.
        assert!(matches!(
            lt.acquire(0, top(1).child(0), LockMode::Read),
            Acquire::Queued(_)
        ));
    }

    #[test]
    fn release_top_unblocks_fifo_in_order() {
        let mut lt = LockTable::new(1);
        let w = top(0).child(0);
        assert_eq!(lt.acquire(0, w, LockMode::Write), Acquire::Granted);
        let r1 = top(1).child(0);
        let r2 = top(2).child(0);
        let w3 = top(3).child(0);
        let Acquire::Queued(t1) = lt.acquire(0, r1, LockMode::Read) else {
            panic!("r1 should queue")
        };
        let Acquire::Queued(_t2) = lt.acquire(0, r2, LockMode::Read) else {
            panic!("r2 should queue")
        };
        let Acquire::Queued(t3) = lt.acquire(0, w3, LockMode::Write) else {
            panic!("w3 should queue")
        };
        assert!(lt.is_waiting(0, t1));
        lt.inherit(0, &w);
        assert!(lt.release_top(0, 0, 0));
        // Both readers granted; the writer stays queued behind them.
        let granted = lt.rescan(0);
        assert_eq!(granted.len(), 2);
        assert_eq!(granted[0].0, r1);
        assert_eq!(granted[1].0, r2);
        assert!(lt.is_waiting(0, t3));
        // Readers release → writer granted.
        assert!(lt.release_top(0, 1, 0));
        assert!(lt.release_top(0, 2, 0));
        let granted = lt.rescan(0);
        assert_eq!(granted, vec![(w3, LockMode::Write, t3)]);
    }

    #[test]
    fn grant_next_and_rescan_hand_back_the_same_batches() {
        // One writer holds; behind it queue two readers, a writer that the
        // readers will block, and a third reader behind that writer.
        let mut one = LockTable::new(1);
        let w0 = top(0).child(0);
        assert_eq!(one.acquire(0, w0, LockMode::Write), Acquire::Granted);
        let queued = [
            (top(1).child(0), LockMode::Read),
            (top(2).child(0), LockMode::Read),
            (top(3).child(0), LockMode::Write),
            (top(4).child(0), LockMode::Read),
        ];
        for (tid, mode) in queued {
            assert!(matches!(one.acquire(0, tid, mode), Acquire::Queued(_)));
        }
        let mut all = one.clone();
        let drain = |lt: &mut LockTable| {
            let mut batch = Vec::new();
            while let Some(g) = lt.grant_next(0) {
                batch.push(g);
            }
            batch
        };
        // Nothing is grantable while the writer holds.
        assert_eq!(drain(&mut one), vec![]);
        assert_eq!(all.rescan(0), vec![]);
        // The writer releases: both readers are granted, and the batch is
        // cut short by the writer — the reader behind it must not barge.
        for lt in [&mut one, &mut all] {
            lt.inherit(0, &w0);
            assert!(lt.release_top(0, 0, 0));
        }
        let batch = drain(&mut one);
        assert_eq!(batch, all.rescan(0));
        assert_eq!(
            batch.iter().map(|g| (g.0, g.1)).collect::<Vec<_>>(),
            queued[..2].to_vec()
        );
        assert_eq!(one.snapshot(0), all.snapshot(0));
        assert_eq!(one.snapshot(0), (2, 0, 0, 2));
        // The readers release: the writer alone, then (after it) the reader.
        for (client, want) in [(1, 0), (2, 1), (3, 1)] {
            for lt in [&mut one, &mut all] {
                assert!(lt.release_top(0, client, 0));
            }
            let batch = drain(&mut one);
            assert_eq!(batch, all.rescan(0));
            assert_eq!(batch.len(), want, "after client {client} released");
        }
        assert_eq!(one.snapshot(0), (1, 0, 0, 0));
        assert_eq!(one.snapshot(0), all.snapshot(0));
    }

    #[test]
    fn abort_pops_undo_suffix_and_latches() {
        let mut lt = LockTable::new(1);
        let t = top(0);
        let doomed = t.child(1);
        let leaf_a = t.child(0); // committed branch
        let leaf_b = doomed.child(0); // doomed branch
                                      // Branch A writes 10 over 0, commits up to the top.
        assert_eq!(lt.acquire(0, leaf_a, LockMode::Write), Acquire::Granted);
        lt.note_write(0, leaf_a, 0);
        lt.inherit(0, &leaf_a);
        // Doomed branch writes 20 over 10, commits up to the doomed node.
        assert_eq!(lt.acquire(0, leaf_b, LockMode::Write), Acquire::Granted);
        lt.note_write(0, leaf_b, 10);
        lt.inherit(0, &leaf_b);
        // Abort the doomed subtree: restore to 10, the committed branch's
        // value; the top-level's own entry survives.
        assert_eq!(lt.abort_subtree(0, &doomed), Some(10));
        assert!(lt.comp_pending(0));
        // Nothing grants while the compensation is in flight — not even
        // the same transaction.
        assert!(matches!(
            lt.acquire(0, t.child(2), LockMode::Read),
            Acquire::Queued(_)
        ));
        lt.compensation_done(0);
        let granted = lt.rescan(0);
        assert_eq!(granted.len(), 1);
        // The committed branch's undo entry is still owned by the top.
        assert_eq!(lt.snapshot(0).2, 1);
    }

    #[test]
    fn blocking_holder_names_the_proximate_conflict() {
        let mut lt = LockTable::new(1);
        let r = top(1).child(0);
        let w = top(2).child(0);
        assert_eq!(lt.acquire(0, r, LockMode::Read), Acquire::Granted);
        // A stranger's write conflicts with the reader.
        assert_eq!(lt.blocking_holder(0, &w, LockMode::Write), Some(r));
        // A stranger's read is compatible with the reader.
        assert_eq!(
            lt.blocking_holder(0, &top(3).child(0), LockMode::Read),
            None
        );
        // An ancestor's holder never blocks its descendant.
        assert_eq!(
            lt.blocking_holder(0, &top(1).child(0).child(2), LockMode::Write),
            None
        );
        // Behind a compensation latch there is no conflicting holder.
        let t = top(4);
        let leaf = t.child(0);
        assert!(lt.release_top(0, 1, 0));
        assert_eq!(lt.acquire(0, leaf, LockMode::Write), Acquire::Granted);
        lt.note_write(0, leaf, 7);
        lt.inherit(0, &leaf);
        assert_eq!(lt.abort_subtree(0, &t), Some(7));
        assert!(lt.comp_pending(0));
        assert_eq!(
            lt.blocking_holder(0, &top(5).child(0), LockMode::Write),
            None
        );
    }

    #[test]
    fn abort_without_writes_restores_nothing() {
        let mut lt = LockTable::new(2);
        let t = top(0);
        let leaf = t.child(0).child(0);
        assert_eq!(lt.acquire(1, leaf, LockMode::Read), Acquire::Granted);
        assert_eq!(lt.abort_subtree(1, &t.child(0)), None);
        assert!(!lt.comp_pending(1));
        assert_eq!(lt.snapshot(1), (0, 0, 0, 0));
    }

    #[test]
    fn abort_discards_queued_waiters_of_the_subtree() {
        let mut lt = LockTable::new(1);
        let stranger = top(9).child(0);
        assert_eq!(lt.acquire(0, stranger, LockMode::Write), Acquire::Granted);
        let t = top(0);
        let leaf = t.child(0).child(3);
        let Acquire::Queued(ticket) = lt.acquire(0, leaf, LockMode::Read) else {
            panic!("should queue")
        };
        lt.abort_subtree(0, &t);
        assert!(!lt.is_waiting(0, ticket));
    }

    #[test]
    fn write_blocked_by_sibling_branch_until_inherited_high_enough() {
        // The suffix property's engine: a sibling branch cannot write
        // while the other branch's holder is not its ancestor.
        let mut lt = LockTable::new(1);
        let t = top(0);
        let d = t.child(0); // subtree that wrote and committed to d
        let leaf_b = d.child(0);
        assert_eq!(lt.acquire(0, leaf_b, LockMode::Write), Acquire::Granted);
        lt.note_write(0, leaf_b, 0);
        lt.inherit(0, &leaf_b); // holder: d
        let other = t.child(1); // sibling branch
        assert!(matches!(
            lt.acquire(0, other, LockMode::Write),
            Acquire::Queued(_)
        ));
        // d commits up to t: now t is the holder, an ancestor of `other`.
        lt.inherit(0, &d);
        let granted = lt.rescan(0);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0, other);
    }
}
