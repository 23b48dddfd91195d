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
//!
//! The replay's input is a [`CommitLog`], which is usually the largest
//! thing a checked nested run holds, so it is packed into columns: a
//! transaction costs 8 bytes (client and access count, each `u32`) and an
//! access 12⅛ (item `u32`, value `u64`, one bit of a write bitset). The
//! columns live in fixed-capacity segments, so the log grows without
//! copying and its spare capacity is at most one segment per fork.

use std::collections::BTreeMap;
use std::fmt;

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

/// Accesses a segment reserves room for when it opens.
const SEGMENT_ACCESSES: usize = 4096;

/// A run of whole transactions, as columns: per transaction its client
/// and access count, per access its item, value and write bit.
#[derive(Clone, Default)]
struct Segment {
    clients: Vec<u32>,
    counts: Vec<u32>,
    items: Vec<u32>,
    values: Vec<u64>,
    /// Bit `i % 64` of word `i / 64` is set when access `i` is a write.
    writes: Vec<u64>,
}

impl Segment {
    /// A segment with room for `accesses` accesses.
    fn with_capacity(accesses: usize) -> Self {
        Segment {
            items: Vec::with_capacity(accesses),
            values: Vec::with_capacity(accesses),
            writes: Vec::with_capacity(accesses.div_ceil(64)),
            ..Segment::default()
        }
    }

    /// Whether access `i` is a write.
    fn write(&self, i: usize) -> bool {
        self.writes[i / 64] >> (i % 64) & 1 == 1
    }

    /// Give back the spare capacity of a segment that takes no more
    /// transactions.
    fn seal(&mut self) {
        self.clients.shrink_to_fit();
        self.counts.shrink_to_fit();
        self.items.shrink_to_fit();
        self.values.shrink_to_fit();
        self.writes.shrink_to_fit();
    }

    /// The transactions in order, each as `(client, first access, count)`.
    fn txns(&self) -> impl Iterator<Item = (u32, usize, usize)> + '_ {
        let mut at = 0;
        self.clients
            .iter()
            .zip(&self.counts)
            .map(move |(&client, &count)| {
                let first = at;
                at += count as usize;
                (client, first, count as usize)
            })
    }

    fn access(&self, i: usize) -> AccessRecord {
        AccessRecord {
            item: self.items[i],
            write: self.write(i),
            value: self.values[i],
        }
    }
}

/// The committed top-level transactions of a run in commit order, packed:
/// the input of [`check_commit_order_serializable`].
///
/// A sequence of segments, each a set of columns holding whole
/// transactions (see the module docs for the bytes per transaction and
/// per access). [`push`](Self::push) appends a transaction and opens a new
/// segment when the last one has no room for it;
/// [`append`](Self::append) moves another log's segments in behind this
/// one's without copying them. A nested run records one log per domain
/// and appends them in domain order.
///
/// Readers see [`CommittedTxn`] values: [`iter`](Self::iter) decodes them
/// by value. Equality and `Debug` are over that decoded sequence. A log is
/// edited by way of a `Vec`: [`to_vec`](Self::to_vec), then
/// `From<Vec<CommittedTxn>>`.
#[derive(Clone)]
pub struct CommitLog {
    segments: Vec<Segment>,
    txns: usize,
    accesses: usize,
    /// Accesses a new segment reserves room for.
    segment_accesses: usize,
}

impl Default for CommitLog {
    fn default() -> Self {
        CommitLog {
            segments: Vec::new(),
            txns: 0,
            accesses: 0,
            segment_accesses: SEGMENT_ACCESSES,
        }
    }
}

impl CommitLog {
    /// No transactions.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.txns
    }

    /// Whether there are no transactions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.txns == 0
    }

    /// Number of accesses, over every transaction.
    #[must_use]
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Append the transaction `client` committed with `ops`, in
    /// completion order. A new segment opens when the last one has no room
    /// for as many accesses as `ops` may yield (the upper bound of its size
    /// hint, else the lower).
    ///
    /// # Panics
    ///
    /// If a transaction has 2³² accesses or more.
    pub fn push(&mut self, client: u32, ops: impl IntoIterator<Item = AccessRecord>) {
        let ops = ops.into_iter();
        let (least, bound) = ops.size_hint();
        let most = bound.unwrap_or(least);
        let fits = |s: &Segment| most <= s.items.capacity() - s.items.len();
        if !self.segments.last().is_some_and(fits) {
            if let Some(last) = self.segments.last_mut() {
                last.seal();
            }
            let room = self.segment_accesses.max(most);
            self.segments.push(Segment::with_capacity(room));
        }
        let seg = self.segments.last_mut().expect("a segment is open");
        let first = seg.items.len();
        for op in ops {
            let i = seg.items.len();
            if i.is_multiple_of(64) {
                seg.writes.push(0);
            }
            seg.writes[i / 64] |= u64::from(op.write) << (i % 64);
            seg.items.push(op.item);
            seg.values.push(op.value);
        }
        let count = seg.items.len() - first;
        seg.clients.push(client);
        seg.counts
            .push(u32::try_from(count).expect("fewer than 2^32 accesses"));
        self.txns += 1;
        self.accesses += count;
    }

    /// Move `other`'s transactions in behind this log's, sealing its last
    /// segment: its segments are moved, not copied.
    pub fn append(&mut self, mut other: CommitLog) {
        if let Some(last) = other.segments.last_mut() {
            last.seal();
        }
        self.segments.append(&mut other.segments);
        self.txns += other.txns;
        self.accesses += other.accesses;
    }

    /// The transactions in commit order, by value.
    pub fn iter(&self) -> impl Iterator<Item = CommittedTxn> + '_ {
        self.segments.iter().flat_map(|seg| {
            seg.txns().map(move |(client, first, count)| CommittedTxn {
                client,
                ops: (first..first + count).map(|i| seg.access(i)).collect(),
            })
        })
    }

    /// The transactions, unpacked.
    #[must_use]
    pub fn to_vec(&self) -> Vec<CommittedTxn> {
        self.iter().collect()
    }
}

impl Extend<CommittedTxn> for CommitLog {
    fn extend<I: IntoIterator<Item = CommittedTxn>>(&mut self, txns: I) {
        for txn in txns {
            self.push(txn.client, txn.ops);
        }
    }
}

impl From<Vec<CommittedTxn>> for CommitLog {
    fn from(txns: Vec<CommittedTxn>) -> Self {
        let mut log = CommitLog::new();
        log.extend(txns);
        log
    }
}

impl PartialEq for CommitLog {
    fn eq(&self, other: &Self) -> bool {
        self.txns == other.txns && self.iter().eq(other.iter())
    }
}

impl Eq for CommitLog {}

impl fmt::Debug for CommitLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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

impl fmt::Display for SerializabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "txn #{} (client {}) op #{}: read of item {} observed {} but the \
             serial single-copy replay holds {}",
            self.txn, self.client, self.op, self.item, self.observed, self.expected
        )
    }
}

impl std::error::Error for SerializabilityError {}

/// Replay `log` (in commit order) against a single-copy store initialised
/// by `initial`, returning the final store.
///
/// # Errors
///
/// The first committed read whose observed value matches neither the store
/// nor an earlier write of its own transaction; its `txn` is the
/// transaction's index in the whole log.
pub fn check_commit_order_serializable(
    initial: &dyn Fn(u32) -> u64,
    log: &CommitLog,
) -> Result<BTreeMap<u32, u64>, SerializabilityError> {
    let mut store: BTreeMap<u32, u64> = BTreeMap::new();
    let mut ti = 0;
    for seg in &log.segments {
        for (client, first, count) in seg.txns() {
            for oi in 0..count {
                let AccessRecord { item, write, value } = seg.access(first + oi);
                if write {
                    store.insert(item, value);
                    continue;
                }
                let expected = store.get(&item).copied().unwrap_or_else(|| initial(item));
                if expected != value {
                    return Err(SerializabilityError {
                        txn: ti,
                        client,
                        op: oi,
                        item,
                        observed: value,
                        expected,
                    });
                }
            }
            ti += 1;
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    impl CommitLog {
        /// An empty log whose segments open with room for `accesses`.
        fn with_segment_accesses(accesses: usize) -> Self {
            CommitLog {
                segment_accesses: accesses,
                ..CommitLog::default()
            }
        }
    }

    /// The replay over an unpacked slice: the reference the packed walk
    /// must agree with.
    fn slice_replay(
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

    /// Commit lists whose reads observe what a serial execution over
    /// `initial` holds, except where `wrong` plants a read of some other
    /// value; whether one was planted; and the serial execution's store.
    fn serial_commits(
        txns: Vec<(u32, Vec<GenOp>)>,
        initial: &dyn Fn(u32) -> u64,
    ) -> (Vec<CommittedTxn>, bool, BTreeMap<u32, u64>) {
        let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
        let mut planted = false;
        let commits = txns
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
        (commits, planted, truth)
    }

    /// `commits` cut before each index of `cuts` (taken modulo the length,
    /// repeats and zero-length forks allowed), each fork pushed into its
    /// own log with `segment`-access segments, appended in order.
    fn forked(commits: &[CommittedTxn], cuts: &[usize], segment: usize) -> CommitLog {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (commits.len() + 1)).collect();
        cuts.push(commits.len());
        cuts.sort_unstable();
        let mut log = CommitLog::with_segment_accesses(segment);
        let mut from = 0;
        for to in cuts {
            let mut fork = CommitLog::with_segment_accesses(segment);
            for txn in &commits[from..to] {
                fork.push(txn.client, txn.ops.iter().copied());
            }
            log.append(fork);
            from = to;
        }
        log
    }

    proptest! {
        /// Random commit lists over ≤ 8 items whose reads observe what a
        /// serial execution holds — so own-write reads, repeated writes to
        /// one item and never-written items are all common — except where
        /// `wrong` plants a read of some other value. The packed replay and
        /// both references must return the same final store, or the same
        /// error field for field.
        #[test]
        fn direct_replay_agrees_with_the_overlay_reference(
            txns in prop::collection::vec(
                (0u32..6, prop::collection::vec((0u32..8, 0u8..3, 0u64..5, 0u8..40), 0..10)),
                0..24,
            ),
        ) {
            let initial = |item: u32| u64::from(item) * 100;
            let (commits, planted, truth) = serial_commits(txns, &initial);
            let got = check_commit_order_serializable(&initial, &commits.clone().into());
            prop_assert_eq!(&got, &slice_replay(&initial, &commits));
            prop_assert_eq!(&got, &overlay_replay(&initial, &commits));
            prop_assert_eq!(got.is_err(), planted);
            if let Ok(store) = got {
                prop_assert_eq!(store, truth);
            }
        }

        /// Arbitrary commit lists — zero-access transactions, items and
        /// values from the whole range of their types, clashes on a few
        /// items so some lists serialize and some do not — cut into forks
        /// at arbitrary points, each recorded into its own log with small
        /// segments, and appended in order: the log decodes to the input,
        /// and the packed replay returns what both references return.
        #[test]
        fn a_forked_log_round_trips_and_replays_like_the_references(
            txns in prop::collection::vec(
                (0u32..=u32::MAX, prop::collection::vec(
                    (0u32..=u32::MAX, 0u8..=255, 0u64..=u64::MAX, 0u8..8),
                    0..12,
                )),
                0..40,
            ),
            cuts in prop::collection::vec(0usize..=usize::MAX, 0..6),
            segment in 1usize..40,
        ) {
            // By `narrow`, half the accesses clash on items 0..4 and one in
            // eight on the top four, where values also sit at the top of
            // their range. By `kind`, a quarter are writes, and a read
            // observes the serial value except one in 256, which observes
            // the drawn one instead; so about half the lists serialize.
            let initial = |item: u32| u64::from(item) ^ 0x5555;
            let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
            let commits: Vec<CommittedTxn> = txns
                .into_iter()
                .map(|(client, ops)| CommittedTxn {
                    client,
                    ops: ops
                        .into_iter()
                        .map(|(item, kind, value, narrow)| {
                            let (item, value) = match narrow {
                                0..=3 => (item % 4, value),
                                4 => (u32::MAX - item % 4, u64::MAX - value % 2),
                                _ => (item, value),
                            };
                            let write = kind < 64;
                            let held = truth.get(&item).copied();
                            let held = held.unwrap_or_else(|| initial(item));
                            let value = match (write, kind == 255) {
                                (true, _) => {
                                    truth.insert(item, value);
                                    value
                                }
                                (false, true) => value,
                                (false, false) => held,
                            };
                            AccessRecord { item, write, value }
                        })
                        .collect(),
                })
                .collect();
            let log = forked(&commits, &cuts, segment);
            prop_assert_eq!(log.len(), commits.len());
            let accesses: usize = commits.iter().map(|t| t.ops.len()).sum();
            prop_assert_eq!(log.accesses(), accesses);
            prop_assert_eq!(&log.to_vec(), &commits);
            prop_assert_eq!(&log, &CommitLog::from(commits.clone()));
            let got = check_commit_order_serializable(&initial, &log);
            prop_assert_eq!(&got, &slice_replay(&initial, &commits));
            prop_assert_eq!(&got, &overlay_replay(&initial, &commits));
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

    fn replay(
        txns: Vec<CommittedTxn>,
        initial: u64,
    ) -> Result<BTreeMap<u32, u64>, SerializabilityError> {
        check_commit_order_serializable(&|_| initial, &txns.into())
    }

    #[test]
    fn serial_chain_replays() {
        let txns = vec![
            txn(0, vec![r(0, 0), w(0, 5)]),
            txn(1, vec![r(0, 5), w(1, 7), r(1, 7)]),
            txn(2, vec![r(1, 7), r(0, 5)]),
        ];
        let store = replay(txns, 0).unwrap();
        assert_eq!(store.get(&0), Some(&5));
        assert_eq!(store.get(&1), Some(&7));
    }

    #[test]
    fn own_writes_shadow_the_store() {
        let txns = vec![txn(0, vec![w(3, 9), r(3, 9), w(3, 11), r(3, 11)])];
        replay(txns, 1).unwrap();
    }

    #[test]
    fn unexplained_read_is_rejected_with_position() {
        let txns = vec![
            txn(0, vec![w(0, 5)]),
            txn(4, vec![r(0, 6)]), // 6 was never written
        ];
        let err = replay(txns, 0).unwrap_err();
        assert_eq!((err.txn, err.client, err.op), (1, 4, 0));
        assert_eq!((err.observed, err.expected), (6, 5));
    }

    #[test]
    fn an_error_names_the_transaction_by_its_index_in_the_whole_log() {
        // Three forks of one-access segments: the bad read is the fourth
        // transaction of the log and the first of its fork.
        let commits = vec![
            txn(0, vec![w(0, 5)]),
            txn(1, vec![]),
            txn(2, vec![r(0, 5)]),
            txn(3, vec![r(0, 5), r(0, 4)]),
        ];
        let log = forked(&commits, &[1, 3], 1);
        let err = check_commit_order_serializable(&|_| 0, &log).unwrap_err();
        assert_eq!((err.txn, err.client, err.op), (3, 3, 1));
        assert_eq!(Err(err), slice_replay(&|_| 0, &commits));
    }

    #[test]
    fn commit_order_matters() {
        // Swapping two dependent transactions must break the replay.
        let a = txn(0, vec![w(0, 5)]);
        let b = txn(1, vec![r(0, 5)]);
        replay(vec![a.clone(), b.clone()], 0).unwrap();
        assert!(replay(vec![b, a], 0).is_err());
    }

    #[test]
    fn erased_aborted_subtree_is_consistent_with_compensation() {
        // A doomed subtree wrote 99 and was compensated back to 5; the
        // committed projection never mentions 99 and later reads see 5.
        let txns = vec![
            txn(0, vec![w(0, 5)]),
            txn(1, vec![r(0, 5) /* doomed write of 99 erased */, r(0, 5)]),
        ];
        replay(txns, 0).unwrap();
    }
}
