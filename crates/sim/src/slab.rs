//! Per-operation state, interned in a slab reused across operations.
//!
//! The flat drivers (`sim.rs`, `shard.rs`) track at most one logical
//! operation in flight per client, possibly across several retry
//! attempts; the slab is part of their shared ledger
//! (`protocol::Clients`). It owns one [`PendingOp`] slot per client for
//! the lifetime of the run: beginning an operation writes the slot, an
//! attempt copies it out, a retry writes it back. Nothing on the
//! committed-op path allocates — the steady-state allocation profile of a
//! run is flat in the number of operations, which the debug-mode
//! counting-allocator test (`tests/alloc_steady.rs`) pins.
//!
//! The one-op-per-client assumption does NOT hold for the
//! nested-transaction harness (`txn_workload.rs`): a parallel program
//! node puts several children of one client in flight at once, and a
//! whole-transaction abort can straddle them. That harness therefore
//! keeps per-program-node runtime state (status, attempt number, epoch
//! guards) instead of using this slab — see `tests/concurrent_siblings.rs`
//! in `nested-txn` for the pinned rationale. What an attempt does is
//! shared all the same: each leaf access runs the same attempt step
//! (`protocol::Cluster::step`) as a flat operation's attempt — forced
//! abort, retry rule and segment classification — and only the
//! accounting on its verdict is the harness's own.
//!
//! The slab also maintains the in-flight population as a counter, so the
//! periodic observability snapshots read it in O(1) instead of scanning
//! the client array per snapshot boundary.
//!
//! A slot holds only what the protocol needs to run the next attempt.
//! Where the op's time went is not in it: that is the coordinator's
//! segment chain in `protocol::Clients`, written only when spans or
//! causal recording are on.

use crate::time::SimTime;

// Every attempt copies the op out of the slab and a retry copies it back.
const _: () = assert!(std::mem::size_of::<PendingOp>() <= 48);

/// A logical operation in flight for one client (possibly across retries):
/// its identity, attempt count and message cost, nothing about its timing.
///
/// The single-item driver pins `item` to 0.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingOp {
    /// Item slot (always 0 in the single-item driver).
    pub item: usize,
    /// Whether this is a logical read (else a write).
    pub read: bool,
    /// The value a write installs (unique per operation).
    pub value: u64,
    /// Client-local operation number (coordinate for drop coins).
    pub op_index: u64,
    /// 1-based attempt number.
    pub attempt: u32,
    /// When the operation (attempt 1) started.
    pub started: SimTime,
    /// Messages accumulated by earlier failed attempts.
    pub messages: u64,
}

impl PendingOp {
    /// A fresh attempt-1 operation starting now.
    pub fn begin(item: usize, read: bool, value: u64, op_index: u64, started: SimTime) -> Self {
        PendingOp {
            item,
            read,
            value,
            op_index,
            attempt: 1,
            started,
            messages: 0,
        }
    }
}

/// One pre-sized [`PendingOp`] slot per client, allocated once at
/// simulation construction and reused for every operation of the run.
#[derive(Clone, Debug)]
pub(crate) struct OpSlab {
    slots: Vec<PendingOp>,
    live: Vec<bool>,
    in_flight: usize,
}

impl OpSlab {
    /// A slab with one (empty) slot per client.
    pub fn new(clients: usize) -> Self {
        OpSlab {
            slots: vec![PendingOp::begin(0, false, 0, 0, SimTime::ZERO); clients],
            live: vec![false; clients],
            in_flight: 0,
        }
    }

    /// Install `op` as `client`'s in-flight operation (fresh or retried).
    pub fn put(&mut self, client: usize, op: PendingOp) {
        if !self.live[client] {
            self.live[client] = true;
            self.in_flight += 1;
        }
        self.slots[client] = op;
    }

    /// Copy out and clear `client`'s in-flight operation, if any.
    pub fn take(&mut self, client: usize) -> Option<PendingOp> {
        if self.live[client] {
            self.live[client] = false;
            self.in_flight -= 1;
            Some(self.slots[client])
        } else {
            None
        }
    }

    /// Whether `client` has an operation in flight.
    pub fn is_live(&self, client: usize) -> bool {
        self.live[client]
    }

    /// Borrow `client`'s in-flight operation, if any (migration scans).
    pub fn get(&self, client: usize) -> Option<&PendingOp> {
        self.live[client].then(|| &self.slots[client])
    }

    /// Append one dead slot — the routed migration import path, where
    /// slots are keyed by the shard's stable item slots and an import
    /// that finds no free slot grows the table by one.
    pub fn push_empty(&mut self) {
        self.slots
            .push(PendingOp::begin(0, false, 0, 0, SimTime::ZERO));
        self.live.push(false);
    }

    /// Number of clients with an operation in flight (O(1); feeds the
    /// periodic snapshots).
    pub fn in_flight(&self) -> u64 {
        self.in_flight as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_lifecycle_tracks_in_flight() {
        let mut slab = OpSlab::new(2);
        assert_eq!(slab.in_flight(), 0);
        assert!(slab.take(0).is_none());

        slab.put(0, PendingOp::begin(3, true, 9, 1, SimTime(5)));
        assert!(slab.is_live(0));
        assert!(!slab.is_live(1));
        assert_eq!(slab.in_flight(), 1);

        let op = slab.take(0).expect("live slot");
        assert_eq!((op.item, op.read, op.value, op.op_index), (3, true, 9, 1));
        assert_eq!(op.attempt, 1);
        assert_eq!(slab.in_flight(), 0);
        assert!(slab.take(0).is_none());

        // A retry writes the (mutated) op back without touching the count
        // twice.
        let mut op2 = op;
        op2.attempt += 1;
        slab.put(0, op2);
        slab.put(0, op2);
        assert_eq!(slab.in_flight(), 1);
        assert_eq!(slab.take(0).unwrap().attempt, 2);
    }

    #[test]
    fn appended_slots_start_dead_and_leave_the_rest_alone() {
        let mut slab = OpSlab::new(2);
        slab.put(1, PendingOp::begin(1, true, 7, 0, SimTime::ZERO));
        slab.push_empty();
        assert_eq!(slab.in_flight(), 1);
        assert!(!slab.is_live(2));
        assert_eq!(slab.get(1).unwrap().value, 7);
        slab.put(2, PendingOp::begin(2, false, 9, 0, SimTime::ZERO));
        assert_eq!(slab.take(2).unwrap().value, 9);
    }
}
