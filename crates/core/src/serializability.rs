//! Whole-run Theorem 11 serializability check for simulated nested
//! workloads.
//!
//! Theorem 11's conclusion, operationally: the committed top-level
//! transactions of a run, taken *in commit order*, must read and write the
//! logical items exactly as they would in a serial single-copy execution —
//! "the effect is just like an execution on a single copy database". The
//! simulator records, for every committed top-level transaction, the
//! committed projection of its access tree (aborted subtrees erased) as a
//! flat operation list in completion order; this module replays those
//! lists against a single-copy store.
//!
//! A read must observe either the last value committed by an earlier
//! transaction or an earlier write of its own transaction — under strict
//! two-phase copy-level locking with abort-compensation those are the only
//! values any committed read can have seen. A serial replay never rolls a
//! transaction back, so both cases are one lookup: every write goes
//! straight into the store by key, and a read expects whatever the store
//! holds. The cost is one `BTreeMap` lookup or insert per committed access
//! and no allocation beyond the store's own nodes (one per distinct item).
//! The replay returns the final single-copy state, which callers can
//! cross-check against the replicated store's final logical values.

use std::collections::BTreeMap;

/// One committed access of a committed top-level transaction, in
/// completion order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// The logical item (the caller's index space — global or per-domain).
    pub item: u32,
    /// Write (`true`) or read (`false`).
    pub write: bool,
    /// The value written, or the value the read observed.
    pub value: u64,
}

/// The committed projection of one top-level transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommittedTxn {
    /// The submitting client (diagnostics only).
    pub client: u32,
    /// Committed accesses in completion order, aborted subtrees erased.
    pub ops: Vec<AccessRecord>,
}

/// A committed read that no serial single-copy execution explains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SerializabilityError {
    /// Index of the offending transaction in commit order.
    pub txn: usize,
    /// The submitting client.
    pub client: u32,
    /// Index of the offending access within the transaction.
    pub op: usize,
    /// The item read.
    pub item: u32,
    /// The value the read observed.
    pub observed: u64,
    /// The value a serial execution would have produced.
    pub expected: u64,
}

impl std::fmt::Display for SerializabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "txn #{} (client {}) op #{}: read of item {} observed {} but the \
             serial single-copy replay holds {}",
            self.txn, self.client, self.op, self.item, self.observed, self.expected
        )
    }
}

impl std::error::Error for SerializabilityError {}

/// Replay `txns` (in commit order) against a single-copy store initialised
/// by `initial`, returning the final store.
///
/// # Errors
///
/// The first committed read whose observed value matches neither the store
/// nor an earlier write of its own transaction.
pub fn check_commit_order_serializable(
    initial: &dyn Fn(u32) -> u64,
    txns: &[CommittedTxn],
) -> Result<BTreeMap<u32, u64>, SerializabilityError> {
    let mut store: BTreeMap<u32, u64> = BTreeMap::new();
    for (ti, txn) in txns.iter().enumerate() {
        for (oi, op) in txn.ops.iter().enumerate() {
            if op.write {
                store.insert(op.item, op.value);
            } else {
                let expected = store
                    .get(&op.item)
                    .copied()
                    .unwrap_or_else(|| initial(op.item));
                if expected != op.value {
                    return Err(SerializabilityError {
                        txn: ti,
                        client: txn.client,
                        op: oi,
                        item: op.item,
                        observed: op.value,
                        expected,
                    });
                }
            }
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The replay in its literal form: a transaction's writes collect in an
    /// overlay that shadows the store and folds into it at commit.
    /// `BTreeMap::append` rebuilds the whole store per transaction, which is
    /// why this is only the differential reference.
    fn overlay_replay(
        initial: &dyn Fn(u32) -> u64,
        txns: &[CommittedTxn],
    ) -> Result<BTreeMap<u32, u64>, SerializabilityError> {
        let mut store: BTreeMap<u32, u64> = BTreeMap::new();
        for (ti, txn) in txns.iter().enumerate() {
            let mut overlay: BTreeMap<u32, u64> = BTreeMap::new();
            for (oi, op) in txn.ops.iter().enumerate() {
                if op.write {
                    overlay.insert(op.item, op.value);
                } else {
                    let expected = overlay
                        .get(&op.item)
                        .or_else(|| store.get(&op.item))
                        .copied()
                        .unwrap_or_else(|| initial(op.item));
                    if expected != op.value {
                        return Err(SerializabilityError {
                            txn: ti,
                            client: txn.client,
                            op: oi,
                            item: op.item,
                            observed: op.value,
                            expected,
                        });
                    }
                }
            }
            store.append(&mut overlay);
        }
        Ok(store)
    }

    /// A generated access: `(item, kind — 0 is a write, value, wrong — 0
    /// plants a read of a value the serial execution does not hold)`.
    type GenOp = (u32, u8, u64, u8);

    proptest! {
        /// Random commit lists over ≤ 8 items whose reads observe what a
        /// serial execution holds — so own-write reads, repeated writes to
        /// one item and never-written items are all common — except where
        /// `wrong` plants a read of some other value. Both replays must
        /// return the same final store, or the same error field for field.
        #[test]
        fn direct_replay_agrees_with_the_overlay_reference(
            txns in prop::collection::vec(
                (0u32..6, prop::collection::vec((0u32..8, 0u8..3, 0u64..5, 0u8..40), 0..10)),
                0..24,
            ),
        ) {
            let txns: Vec<(u32, Vec<GenOp>)> = txns;
            let initial = |item: u32| u64::from(item) * 100;
            let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
            let mut planted = false;
            let commits: Vec<CommittedTxn> = txns
                .into_iter()
                .map(|(client, ops)| CommittedTxn {
                    client,
                    ops: ops
                        .into_iter()
                        .map(|(item, kind, value, wrong)| {
                            let write = kind == 0;
                            let value = if write {
                                truth.insert(item, value);
                                value
                            } else {
                                let held = truth.get(&item).copied();
                                let held = held.unwrap_or_else(|| initial(item));
                                if wrong == 0 {
                                    planted = true;
                                    held + 1 + value
                                } else {
                                    held
                                }
                            };
                            AccessRecord { item, write, value }
                        })
                        .collect(),
                })
                .collect();
            let got = check_commit_order_serializable(&initial, &commits);
            prop_assert_eq!(&got, &overlay_replay(&initial, &commits));
            prop_assert_eq!(got.is_err(), planted);
            if let Ok(store) = got {
                prop_assert_eq!(store, truth);
            }
        }
    }

    fn r(item: u32, value: u64) -> AccessRecord {
        AccessRecord {
            item,
            write: false,
            value,
        }
    }

    fn w(item: u32, value: u64) -> AccessRecord {
        AccessRecord {
            item,
            write: true,
            value,
        }
    }

    fn txn(client: u32, ops: Vec<AccessRecord>) -> CommittedTxn {
        CommittedTxn { client, ops }
    }

    #[test]
    fn serial_chain_replays() {
        let txns = vec![
            txn(0, vec![r(0, 0), w(0, 5)]),
            txn(1, vec![r(0, 5), w(1, 7), r(1, 7)]),
            txn(2, vec![r(1, 7), r(0, 5)]),
        ];
        let store = check_commit_order_serializable(&|_| 0, &txns).unwrap();
        assert_eq!(store.get(&0), Some(&5));
        assert_eq!(store.get(&1), Some(&7));
    }

    #[test]
    fn own_writes_shadow_the_store() {
        let txns = vec![txn(0, vec![w(3, 9), r(3, 9), w(3, 11), r(3, 11)])];
        check_commit_order_serializable(&|_| 1, &txns).unwrap();
    }

    #[test]
    fn unexplained_read_is_rejected_with_position() {
        let txns = vec![
            txn(0, vec![w(0, 5)]),
            txn(4, vec![r(0, 6)]), // 6 was never written
        ];
        let err = check_commit_order_serializable(&|_| 0, &txns).unwrap_err();
        assert_eq!((err.txn, err.client, err.op), (1, 4, 0));
        assert_eq!((err.observed, err.expected), (6, 5));
    }

    #[test]
    fn commit_order_matters() {
        // Swapping two dependent transactions must break the replay.
        let a = txn(0, vec![w(0, 5)]);
        let b = txn(1, vec![r(0, 5)]);
        check_commit_order_serializable(&|_| 0, &[a.clone(), b.clone()]).unwrap();
        assert!(check_commit_order_serializable(&|_| 0, &[b, a]).is_err());
    }

    #[test]
    fn erased_aborted_subtree_is_consistent_with_compensation() {
        // A doomed subtree wrote 99 and was compensated back to 5; the
        // committed projection never mentions 99 and later reads see 5.
        let txns = vec![
            txn(0, vec![w(0, 5)]),
            txn(1, vec![r(0, 5) /* doomed write of 99 erased */, r(0, 5)]),
        ];
        check_commit_order_serializable(&|_| 0, &txns).unwrap();
    }
}
