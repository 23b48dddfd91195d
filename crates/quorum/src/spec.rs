//! Predicate-form quorum systems over replica indices.
//!
//! Explicit [`Configuration`]s enumerate their quorums, which is faithful to
//! the paper but infeasible for, say, majorities over 25 replicas. A
//! [`QuorumSpec`] answers quorum questions by predicate instead, and is what
//! the evaluation substrate (`qc-sim`) uses. Replicas are identified by
//! indices `0..n`.

use std::collections::BTreeSet;

use crate::config::Configuration;
use crate::replica_set::{ReplicaSet, MAX_REPLICAS};

/// A quorum rule by sizes over a member set: a set includes a read-quorum
/// iff it holds at least `read` of the members, a write-quorum iff it holds
/// at least `write` of them.
///
/// [`QuorumSpec::thresholds`] returns it over all `n` replicas for the
/// systems whose predicates are exactly counts (ROWA is `read = 1`,
/// `write = n`; [`Majority`] is its configured sizes). Hot loops answer
/// quorum questions through it as one mask-and-popcount with no virtual
/// call and no allocation.
///
/// It is also the rule a configuration keeps while dynamic reconfiguration
/// (Goldman & Lynch §4) replaces its member set: [`over`](Self::over)
/// resizes ROWA to read-one/write-all of the new members and simple
/// majorities to simple majorities of them. Asymmetric thresholds have no
/// canonical resizing, and systems with no threshold form (grids, trees,
/// weighted votes) have no rule at all; neither reconfigures here.
///
/// The *configuration sub-object* — the `(generation, members)` pair each
/// replica carries next to its data — is always governed by a majority of
/// the members ([`is_config_quorum`](Self::is_config_quorum)), whatever the
/// data rule. Pure ROWA could otherwise never reconfigure away from a dead
/// site: installing the new configuration requires a write-quorum of the
/// *old* configuration, and an old ROWA data-write-quorum includes the dead
/// site by definition. A majority of the old members both satisfies the
/// Goldman–Lynch old-quorum rule (configuration-read and -write majorities
/// over the same member set intersect) and stays available under minority
/// failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Thresholds {
    members: ReplicaSet,
    read: usize,
    write: usize,
    family: Family,
}

/// How a [`Thresholds`] rule resizes to a new member set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    /// Read one, write all of the members.
    Rowa,
    /// `⌊m/2⌋ + 1` of the `m` members on both sides.
    Majority,
    /// No canonical resizing.
    Fixed,
}

impl Thresholds {
    /// `read` / `write` of the `n` replicas `0..n`, resizable when that is
    /// ROWA or simple majorities (ROWA first: over one replica they agree).
    fn new(n: usize, read: usize, write: usize) -> Self {
        let family = if read == 1 && write == n {
            Family::Rowa
        } else if read == n / 2 + 1 && write == read {
            Family::Majority
        } else {
            Family::Fixed
        };
        Thresholds {
            members: ReplicaSet::full(n),
            read,
            write,
            family,
        }
    }

    /// The member set the sizes count over.
    #[must_use]
    pub fn members(self) -> ReplicaSet {
        self.members
    }

    /// Whether the rule resizes to any member set (ROWA and simple
    /// majorities do), which dynamic reconfiguration requires.
    #[must_use]
    pub fn resizable(self) -> bool {
        self.family != Family::Fixed
    }

    /// The same rule over `members`, or `None` when it has no resizing. A
    /// rule resized to its own members is itself, resizable or not.
    #[must_use]
    pub fn over(self, members: ReplicaSet) -> Option<Self> {
        let m = members.len();
        let (read, write) = match self.family {
            _ if members == self.members => return Some(self),
            Family::Rowa => (1, m),
            Family::Majority => (m / 2 + 1, m / 2 + 1),
            Family::Fixed => return None,
        };
        Some(Thresholds {
            members,
            read,
            write,
            ..self
        })
    }

    /// The rule of a phase that reads the configuration with the data: its
    /// read side also needs a configuration quorum of the members, so it is
    /// the larger of the two sizes.
    #[must_use]
    pub fn with_config_reads(self) -> Self {
        Thresholds {
            read: self.read.max(self.members.len() / 2 + 1),
            ..self
        }
    }

    fn size(self, write: bool) -> usize {
        if write {
            self.write
        } else {
            self.read
        }
    }

    /// Whether `set` includes a read-quorum (`write`: a write-quorum).
    #[inline]
    #[must_use]
    pub fn is_quorum(self, set: ReplicaSet, write: bool) -> bool {
        set.intersection(self.members).len() >= self.size(write)
    }

    /// Whether `set` includes a configuration quorum: a majority of the
    /// members, for reading and writing the configuration alike.
    #[inline]
    #[must_use]
    pub fn is_config_quorum(self, set: ReplicaSet) -> bool {
        set.intersection(self.members).len() > self.members.len() / 2
    }

    /// Whether the `live` replicas hold the quorums an operation needs: a
    /// read-quorum, and for a write (`write`) a write-quorum too.
    #[inline]
    #[must_use]
    pub fn feasible(self, live: ReplicaSet, write: bool) -> bool {
        let k = live.intersection(self.members).len();
        k >= self.read && (!write || k >= self.write)
    }

    /// A minimal read-quorum (`write`: write-quorum) within `available`:
    /// its highest-indexed members, which is what the greedy ascending-drop
    /// shrink of [`QuorumSpec::find_read_quorum_bits`] leaves of a count.
    #[inline]
    #[must_use]
    pub fn find_quorum(self, available: ReplicaSet, write: bool) -> Option<ReplicaSet> {
        let live = available.intersection(self.members);
        let k = self.size(write);
        (live.len() >= k).then(|| live.keep_highest(k))
    }
}

/// Whether `set` includes a read-quorum (`write`: a write-quorum) of one
/// configuration of `spec`: by `rule`, the configuration's size rule, when
/// it has one, else by `spec`'s own predicates (a system with no threshold
/// form has the one configuration of all its replicas). The simulator and
/// the conformance checker both decide quorums here.
#[inline]
#[must_use]
pub fn is_quorum(
    spec: &dyn QuorumSpec,
    rule: Option<Thresholds>,
    set: ReplicaSet,
    write: bool,
) -> bool {
    match rule {
        Some(r) => r.is_quorum(set, write),
        None if write => spec.is_write_quorum_bits(set),
        None => spec.is_read_quorum_bits(set),
    }
}

/// A quorum system over replicas `0..n`, in predicate form.
///
/// The required predicates operate on [`ReplicaSet`] bitsets — the form the
/// simulator and availability sweeps use on their hot paths. The
/// `BTreeSet`-based methods are provided conversions for callers that hold
/// explicit sets; they give identical answers.
pub trait QuorumSpec: std::fmt::Debug {
    /// Number of replicas.
    fn n(&self) -> usize;

    /// Whether `set` includes a read-quorum.
    fn is_read_quorum_bits(&self, set: ReplicaSet) -> bool;

    /// Whether `set` includes a write-quorum.
    fn is_write_quorum_bits(&self, set: ReplicaSet) -> bool;

    /// A (small) read-quorum contained in `available`, if any.
    ///
    /// The default implementation greedily drops replicas from `available`
    /// in ascending index order while the remainder still covers a
    /// read-quorum, yielding a minimal (though not necessarily minimum)
    /// quorum.
    fn find_read_quorum_bits(&self, available: ReplicaSet) -> Option<ReplicaSet> {
        if !self.is_read_quorum_bits(available) {
            return None;
        }
        Some(shrink(available, |s| self.is_read_quorum_bits(s)))
    }

    /// A (small) write-quorum contained in `available`, if any.
    fn find_write_quorum_bits(&self, available: ReplicaSet) -> Option<ReplicaSet> {
        if !self.is_write_quorum_bits(available) {
            return None;
        }
        Some(shrink(available, |s| self.is_write_quorum_bits(s)))
    }

    /// Whether `set` includes a read-quorum (explicit-set form).
    fn is_read_quorum(&self, set: &BTreeSet<usize>) -> bool {
        self.is_read_quorum_bits(to_bits(set))
    }

    /// Whether `set` includes a write-quorum (explicit-set form).
    fn is_write_quorum(&self, set: &BTreeSet<usize>) -> bool {
        self.is_write_quorum_bits(to_bits(set))
    }

    /// A (small) read-quorum contained in `available`, if any
    /// (explicit-set form; same greedy drop order as the bitset form).
    fn find_read_quorum(&self, available: &BTreeSet<usize>) -> Option<BTreeSet<usize>> {
        self.find_read_quorum_bits(to_bits(available))
            .map(Into::into)
    }

    /// A (small) write-quorum contained in `available`, if any.
    fn find_write_quorum(&self, available: &BTreeSet<usize>) -> Option<BTreeSet<usize>> {
        self.find_write_quorum_bits(to_bits(available))
            .map(Into::into)
    }

    /// The threshold form of this system over all its replicas, when its
    /// quorum predicates are exactly "at least `k` of `0..n`" counts. Hot
    /// loops (the simulators' phase assembly, contact selection and
    /// feasibility probes) use it to evaluate membership as an inline
    /// mask-and-popcount instead of a virtual call per probe, and a
    /// reconfigured membership resizes it ([`Thresholds::over`]).
    ///
    /// Returning `Some` is a contract: the rule must agree *exactly* with
    /// `is_read_quorum_bits` / `is_write_quorum_bits`, and the greedy
    /// ascending-drop shrink of `find_*_quorum_bits` must equal
    /// [`Thresholds::find_quorum`] (true for any pure threshold
    /// predicate). The default is `None`: callers fall back to the
    /// predicate methods.
    fn thresholds(&self) -> Option<Thresholds> {
        None
    }

    /// A short human-readable label ("rowa", "majority", …) for reports.
    fn label(&self) -> String;
}

/// Convert an explicit set to bits, ignoring indices beyond the 128-replica
/// cap (they can never be in `0..n`, so every predicate ignores them).
fn to_bits(set: &BTreeSet<usize>) -> ReplicaSet {
    set.iter().copied().filter(|&x| x < MAX_REPLICAS).collect()
}

/// Greedily drop bits in ascending index order while `pred` stays true.
fn shrink(set: ReplicaSet, pred: impl Fn(ReplicaSet) -> bool) -> ReplicaSet {
    let mut s = set;
    for x in set.iter() {
        let mut t = s;
        t.remove(x);
        if pred(t) {
            s = t;
        }
    }
    s
}

/// Read-one / write-all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rowa {
    rule: Thresholds,
}

impl Rowa {
    /// ROWA over `n` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 128` (the [`ReplicaSet`] cap).
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        assert!(n <= MAX_REPLICAS, "ReplicaSet caps replicas at 128");
        Rowa {
            rule: Thresholds::new(n, 1, n),
        }
    }
}

// Read-one / write-all is the degenerate threshold pair (1, n); its
// minimal read-quorum is the highest live replica, its write-quorum the
// full replica set.
impl QuorumSpec for Rowa {
    fn n(&self) -> usize {
        self.rule.members.len()
    }

    fn is_read_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.rule.is_quorum(set, false)
    }

    fn is_write_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.rule.is_quorum(set, true)
    }

    fn find_read_quorum_bits(&self, available: ReplicaSet) -> Option<ReplicaSet> {
        self.rule.find_quorum(available, false)
    }

    fn find_write_quorum_bits(&self, available: ReplicaSet) -> Option<ReplicaSet> {
        self.rule.find_quorum(available, true)
    }

    fn thresholds(&self) -> Option<Thresholds> {
        Some(self.rule)
    }

    fn label(&self) -> String {
        "rowa".into()
    }
}

/// Majority (or general threshold) quorums: a read-quorum is any
/// `read_size` replicas, a write-quorum any `write_size` replicas, with
/// `read_size + write_size > n` (Gifford's constraint with unit votes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Majority {
    rule: Thresholds,
}

impl Majority {
    /// Simple majorities on both sides: `⌊n/2⌋ + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 128` (the [`ReplicaSet`] cap).
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        assert!(n <= MAX_REPLICAS, "ReplicaSet caps replicas at 128");
        Majority {
            rule: Thresholds::new(n, n / 2 + 1, n / 2 + 1),
        }
    }

    /// Asymmetric thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < read_size, write_size ≤ n` and
    /// `read_size + write_size > n`.
    pub fn with_sizes(n: usize, read_size: usize, write_size: usize) -> Self {
        assert!(n > 0 && read_size > 0 && write_size > 0);
        assert!(n <= MAX_REPLICAS, "ReplicaSet caps replicas at 128");
        assert!(read_size <= n && write_size <= n);
        assert!(read_size + write_size > n, "quorum sizes must overlap");
        Majority {
            rule: Thresholds::new(n, read_size, write_size),
        }
    }
}

// Threshold systems shrink greedily to the highest `size` in-range indices
// (ascending drop order removes the lowest first), so the minimal quorum is
// one mask-and-popcount instead of `len` predicate probes — this is the
// per-operation path of the simulator's MinimalQuorum contact policy.
impl QuorumSpec for Majority {
    fn n(&self) -> usize {
        self.rule.members.len()
    }

    fn is_read_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.rule.is_quorum(set, false)
    }

    fn is_write_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.rule.is_quorum(set, true)
    }

    fn find_read_quorum_bits(&self, available: ReplicaSet) -> Option<ReplicaSet> {
        self.rule.find_quorum(available, false)
    }

    fn find_write_quorum_bits(&self, available: ReplicaSet) -> Option<ReplicaSet> {
        self.rule.find_quorum(available, true)
    }

    fn thresholds(&self) -> Option<Thresholds> {
        Some(self.rule)
    }

    fn label(&self) -> String {
        let Thresholds { read, write, .. } = self.rule;
        let n = self.n();
        if read == write {
            format!("majority({read}/{n})")
        } else {
            format!("threshold(r{read},w{write}/{n})")
        }
    }
}

/// Gifford weighted voting in predicate form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Weighted {
    votes: Vec<u32>,
    read_threshold: u32,
    write_threshold: u32,
}

impl Weighted {
    /// Weighted voting with per-replica votes and thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `read_threshold + write_threshold > total votes > 0`
    /// and both thresholds are attainable.
    pub fn new(votes: Vec<u32>, read_threshold: u32, write_threshold: u32) -> Self {
        let total: u32 = votes.iter().sum();
        assert!(total > 0, "total votes must be positive");
        assert!(
            votes.len() <= MAX_REPLICAS,
            "ReplicaSet caps replicas at 128"
        );
        assert!(
            read_threshold + write_threshold > total,
            "thresholds must overlap"
        );
        assert!(read_threshold <= total && write_threshold <= total);
        Weighted {
            votes,
            read_threshold,
            write_threshold,
        }
    }

    fn tally(&self, set: ReplicaSet) -> u32 {
        set.iter().filter_map(|x| self.votes.get(x)).copied().sum()
    }
}

impl QuorumSpec for Weighted {
    fn n(&self) -> usize {
        self.votes.len()
    }

    fn is_read_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.tally(set) >= self.read_threshold
    }

    fn is_write_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.tally(set) >= self.write_threshold
    }

    fn label(&self) -> String {
        format!(
            "weighted(r{},w{}/{})",
            self.read_threshold,
            self.write_threshold,
            self.votes.iter().sum::<u32>()
        )
    }
}

/// Grid quorums (see [`crate::generators::grid`]) in predicate form: replicas are
/// arranged row-major in a `rows × cols` grid; a read-quorum covers every
/// column; a write-quorum covers every column and fully covers some column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    rows: usize,
    cols: usize,
}

impl Grid {
    /// A grid of the given dimensions; `n = rows * cols`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `rows * cols > 128` (the
    /// [`ReplicaSet`] cap).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        assert!(
            rows * cols <= MAX_REPLICAS,
            "ReplicaSet caps replicas at 128"
        );
        Grid { rows, cols }
    }

    /// Bitmask of column 0 (replicas `r * cols` for each row `r`); column
    /// `c`'s mask is this shifted left by `c`.
    fn column_zero_mask(&self) -> u128 {
        let mut m = 0u128;
        for r in 0..self.rows {
            m |= 1u128 << (r * self.cols);
        }
        m
    }

    fn covers_every_column(&self, set: ReplicaSet) -> bool {
        let col0 = self.column_zero_mask();
        (0..self.cols).all(|c| set.bits() & (col0 << c) != 0)
    }

    fn covers_full_column(&self, set: ReplicaSet) -> bool {
        let col0 = self.column_zero_mask();
        (0..self.cols).any(|c| {
            let col = col0 << c;
            set.bits() & col == col
        })
    }
}

impl QuorumSpec for Grid {
    fn n(&self) -> usize {
        self.rows * self.cols
    }

    fn is_read_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.covers_every_column(set)
    }

    fn is_write_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.covers_every_column(set) && self.covers_full_column(set)
    }

    fn label(&self) -> String {
        format!("grid({}x{})", self.rows, self.cols)
    }
}

/// Hierarchical ternary-tree majority quorums (see
/// [`crate::generators::tree_majority`]) in predicate form. `n` must be a power
/// of 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeQuorum {
    n: usize,
}

impl TreeQuorum {
    /// A ternary-tree quorum system over `n` replicas.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive power of 3.
    pub fn new(n: usize) -> Self {
        let mut m = n;
        while m > 1 && m.is_multiple_of(3) {
            m /= 3;
        }
        assert!(n > 0 && m == 1, "n must be a power of 3");
        assert!(n <= MAX_REPLICAS, "ReplicaSet caps replicas at 128");
        TreeQuorum { n }
    }

    fn covers(&self, set: ReplicaSet, lo: usize, len: usize) -> bool {
        if len == 1 {
            return set.contains(lo);
        }
        let third = len / 3;
        let hit = (0..3)
            .filter(|i| self.covers(set, lo + i * third, third))
            .count();
        hit >= 2
    }
}

impl QuorumSpec for TreeQuorum {
    fn n(&self) -> usize {
        self.n
    }

    fn is_read_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.covers(set, 0, self.n)
    }

    fn is_write_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.covers(set, 0, self.n)
    }

    fn label(&self) -> String {
        format!("tree({})", self.n)
    }
}

/// An explicit [`Configuration`] over replica indices *is* a quorum system
/// in predicate form: membership is "some enumerated quorum is contained in
/// the set". This is the inverse direction of [`to_configuration`], and
/// lets paper-style explicit configurations (including deliberately illegal
/// ones, in tests) drive every consumer of `QuorumSpec` — the simulator,
/// the availability sweeps, and the conformance checker.
impl QuorumSpec for Configuration<usize> {
    fn n(&self) -> usize {
        self.universe().iter().max().map_or(0, |&m| m + 1)
    }

    fn is_read_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.read_quorums()
            .iter()
            .any(|q| q.iter().all(|&x| x < MAX_REPLICAS && set.contains(x)))
    }

    fn is_write_quorum_bits(&self, set: ReplicaSet) -> bool {
        self.write_quorums()
            .iter()
            .any(|q| q.iter().all(|&x| x < MAX_REPLICAS && set.contains(x)))
    }

    fn label(&self) -> String {
        format!(
            "explicit(r{},w{}/{})",
            self.read_quorums().len(),
            self.write_quorums().len(),
            self.n()
        )
    }
}

/// Convert a spec into an explicit configuration by exhaustive enumeration
/// (practical only for small `n`; capped at `n ≤ 12`).
///
/// # Panics
///
/// Panics if `spec.n() > 12`.
pub fn to_configuration(spec: &dyn QuorumSpec) -> Configuration<usize> {
    let n = spec.n();
    assert!(n <= 12, "enumeration capped at n = 12");
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for mask in 1u32..(1 << n) {
        let set = ReplicaSet::from_bits(mask as u128);
        let r = spec.is_read_quorum_bits(set);
        let w = spec.is_write_quorum_bits(set);
        if r || w {
            let explicit: BTreeSet<usize> = set.into();
            if r {
                reads.push(explicit.clone());
            }
            if w {
                writes.push(explicit);
            }
        }
    }
    Configuration::new(reads, writes).minimized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn set(items: &[usize]) -> BTreeSet<usize> {
        items.iter().copied().collect()
    }

    #[test]
    fn rowa_predicates() {
        let q = Rowa::new(3);
        assert!(q.is_read_quorum(&set(&[2])));
        assert!(!q.is_read_quorum(&set(&[])));
        assert!(q.is_write_quorum(&set(&[0, 1, 2])));
        assert!(!q.is_write_quorum(&set(&[0, 1])));
    }

    #[test]
    fn majority_predicates() {
        let q = Majority::new(5);
        assert!(q.is_read_quorum(&set(&[0, 2, 4])));
        assert!(!q.is_read_quorum(&set(&[0, 2])));
        // Out-of-range indices don't count.
        assert!(!q.is_read_quorum(&set(&[5, 6, 7])));
    }

    #[test]
    fn asymmetric_majority() {
        let q = Majority::with_sizes(5, 2, 4);
        assert!(q.is_read_quorum(&set(&[0, 1])));
        assert!(q.is_write_quorum(&set(&[0, 1, 2, 3])));
        assert!(!q.is_write_quorum(&set(&[0, 1, 2])));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn majority_rejects_non_overlapping() {
        Majority::with_sizes(5, 2, 3);
    }

    #[test]
    fn weighted_predicates() {
        let q = Weighted::new(vec![2, 1, 1], 2, 3);
        assert!(q.is_read_quorum(&set(&[0])));
        assert!(q.is_read_quorum(&set(&[1, 2])));
        assert!(q.is_write_quorum(&set(&[0, 1])));
        assert!(!q.is_write_quorum(&set(&[1, 2])));
    }

    #[test]
    fn grid_predicates() {
        let q = Grid::new(2, 3); // replicas 0..6, rows {0,1,2},{3,4,5}
        assert!(q.is_read_quorum(&set(&[0, 4, 5])));
        // Indices 0,1,2 form row 0, which covers every column.
        assert!(q.is_read_quorum(&set(&[0, 1, 2])));
        // Full column 0 is {0, 3}; plus one from each other column.
        assert!(q.is_write_quorum(&set(&[0, 3, 1, 5])));
        assert!(!q.is_write_quorum(&set(&[0, 1, 2])));
    }

    #[test]
    fn tree_predicates() {
        let q = TreeQuorum::new(9);
        // Two leaves from each of two subtrees.
        assert!(q.is_read_quorum(&set(&[0, 1, 3, 4])));
        assert!(!q.is_read_quorum(&set(&[0, 1, 2])));
    }

    #[test]
    fn bits_and_explicit_forms_agree() {
        let specs: Vec<Box<dyn QuorumSpec>> = vec![
            Box::new(Rowa::new(5)),
            Box::new(Majority::new(5)),
            Box::new(Weighted::new(vec![2, 1, 1, 1], 3, 3)),
            Box::new(Grid::new(2, 3)),
            Box::new(TreeQuorum::new(9)),
        ];
        for s in &specs {
            let n = s.n();
            for mask in 0u32..(1 << n) {
                let bits = ReplicaSet::from_bits(mask as u128);
                let explicit: BTreeSet<usize> = bits.into();
                assert_eq!(
                    s.is_read_quorum_bits(bits),
                    s.is_read_quorum(&explicit),
                    "{} read mismatch on {:?}",
                    s.label(),
                    explicit
                );
                assert_eq!(
                    s.is_write_quorum_bits(bits),
                    s.is_write_quorum(&explicit),
                    "{} write mismatch on {:?}",
                    s.label(),
                    explicit
                );
                assert_eq!(
                    s.find_read_quorum_bits(bits).map(BTreeSet::from),
                    s.find_read_quorum(&explicit),
                    "{} find mismatch on {:?}",
                    s.label(),
                    explicit
                );
            }
        }
    }

    /// Delegate that exposes only the membership predicates, so the
    /// trait's *default* greedy shrink answers the find queries — the
    /// oracle the fast-path overrides must match bit for bit.
    #[derive(Debug)]
    struct DefaultShrink<'a>(&'a dyn QuorumSpec);

    impl QuorumSpec for DefaultShrink<'_> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn is_read_quorum_bits(&self, set: ReplicaSet) -> bool {
            self.0.is_read_quorum_bits(set)
        }
        fn is_write_quorum_bits(&self, set: ReplicaSet) -> bool {
            self.0.is_write_quorum_bits(set)
        }
        fn label(&self) -> String {
            "default-shrink".into()
        }
    }

    #[test]
    fn fast_path_find_matches_default_shrink_exhaustively() {
        let specs: Vec<Box<dyn QuorumSpec>> = vec![
            Box::new(Rowa::new(4)),
            Box::new(Rowa::new(1)),
            Box::new(Majority::new(5)),
            Box::new(Majority::new(1)),
            Box::new(Majority::with_sizes(5, 2, 4)),
            Box::new(Majority::with_sizes(5, 4, 2)),
        ];
        for s in &specs {
            let oracle = DefaultShrink(s.as_ref());
            // Sweep two extra bits beyond n to cover out-of-range indices,
            // which the greedy shrink silently drops.
            for mask in 0u32..(1 << (s.n() + 2)) {
                let set = ReplicaSet::from_bits(mask as u128);
                assert_eq!(
                    s.find_read_quorum_bits(set),
                    oracle.find_read_quorum_bits(set),
                    "{} read fast path diverges on {set:?}",
                    s.label()
                );
                assert_eq!(
                    s.find_write_quorum_bits(set),
                    oracle.find_write_quorum_bits(set),
                    "{} write fast path diverges on {set:?}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn find_quorum_bits_shrinks_to_minimal() {
        let q = Majority::new(5);
        let rq = q.find_read_quorum_bits(ReplicaSet::full(5)).unwrap();
        assert_eq!(rq.len(), 3);
        assert!(q.is_read_quorum_bits(rq));
        assert!(q.find_write_quorum_bits(ReplicaSet::full(2)).is_none());
    }

    #[test]
    fn find_quorum_shrinks_to_minimal() {
        let q = Majority::new(5);
        let avail = set(&[0, 1, 2, 3, 4]);
        let rq = q.find_read_quorum(&avail).unwrap();
        assert_eq!(rq.len(), 3);
        assert!(q.is_read_quorum(&rq));
    }

    #[test]
    fn find_quorum_none_when_unavailable() {
        let q = Majority::new(5);
        assert!(q.find_read_quorum(&set(&[0, 1])).is_none());
    }

    #[test]
    fn thresholds_agree_with_predicates_and_finds_exhaustively() {
        // The `thresholds()` contract: counting in-range members must give
        // the same membership answers as the predicate methods, the rule's
        // minimal quorum must equal the greedy shrink behind
        // `find_*_quorum_bits`, and feasibility must be the two predicates
        // on the live set, over every subset of 0..n (plus out-of-range
        // bits, which must be ignored).
        let specs: Vec<Box<dyn QuorumSpec>> = vec![
            Box::new(Rowa::new(1)),
            Box::new(Rowa::new(5)),
            Box::new(Majority::new(5)),
            Box::new(Majority::with_sizes(6, 2, 5)),
            Box::new(Majority::with_sizes(5, 4, 2)),
        ];
        for s in &specs {
            let t = s.thresholds().expect("threshold systems expose thresholds");
            let label = s.label();
            assert_eq!(t.members(), ReplicaSet::full(s.n()), "{label}");
            for mask in 0u32..(1 << (s.n() + 2)) {
                let set = ReplicaSet::from_bits(mask as u128);
                let (read, write) = (s.is_read_quorum_bits(set), s.is_write_quorum_bits(set));
                assert_eq!(t.is_quorum(set, false), read, "{label}");
                assert_eq!(t.is_quorum(set, true), write, "{label}");
                assert_eq!(
                    t.find_quorum(set, false),
                    s.find_read_quorum_bits(set),
                    "{label}"
                );
                assert_eq!(
                    t.find_quorum(set, true),
                    s.find_write_quorum_bits(set),
                    "{label}"
                );
                assert_eq!(t.feasible(set, false), read, "{label}");
                assert_eq!(t.feasible(set, true), read && write, "{label}");
            }
        }
        // Non-threshold systems must decline rather than approximate.
        assert!(Grid::new(2, 3).thresholds().is_none());
        assert!(TreeQuorum::new(9).thresholds().is_none());
        assert!(Weighted::new(vec![2, 1, 1, 1], 3, 3).thresholds().is_none());
    }

    #[test]
    fn quorum_family_classifies_threshold_systems() {
        let resizable = |s: &dyn QuorumSpec| s.thresholds().is_some_and(Thresholds::resizable);
        assert!(resizable(&Rowa::new(5)));
        assert!(resizable(&Rowa::new(1)));
        assert!(resizable(&Majority::new(5)));
        assert!(resizable(&Majority::new(6)));
        // Asymmetric thresholds, grids, trees and weighted votes have no
        // canonical resizing.
        assert!(!resizable(&Majority::with_sizes(5, 4, 2)));
        assert!(!resizable(&Grid::new(2, 3)));
        assert!(!resizable(&TreeQuorum::new(9)));
        assert!(!resizable(&Weighted::new(vec![2, 1, 1, 1], 3, 3)));
        // A fixed rule keeps only its own membership.
        let fixed = Majority::with_sizes(5, 4, 2).thresholds().unwrap();
        assert_eq!(fixed.over(ReplicaSet::full(5)), Some(fixed));
        assert_eq!(fixed.over(ReplicaSet::full(4)), None);
        // Majority over one replica is read-one/write-all over one: it
        // resizes as ROWA.
        let one = Majority::new(1).thresholds().unwrap();
        assert_eq!(one.over(ReplicaSet::full(3)), Rowa::new(3).thresholds());
    }

    /// `set`'s elements among `members`, renumbered `0..members.len()` in
    /// ascending order.
    fn local(members: ReplicaSet, set: ReplicaSet) -> ReplicaSet {
        let mut out = ReplicaSet::new();
        for (i, m) in members.iter().enumerate() {
            if set.contains(m) {
                out.insert(i);
            }
        }
        out
    }

    /// The inverse of [`local`] on subsets of `0..members.len()`.
    fn global(members: ReplicaSet, set: ReplicaSet) -> ReplicaSet {
        let mut out = ReplicaSet::new();
        for (i, m) in members.iter().enumerate() {
            if set.contains(i) {
                out.insert(m);
            }
        }
        out
    }

    #[test]
    fn quorum_family_sizes_match_the_rule_over_any_membership() {
        // Over every non-empty member set of 0..n, n ≤ 7, the resized rule
        // is ROWA(m) / Majority(m) remapped onto the members: the same
        // predicates, minimal quorums and feasibility. Its configuration
        // quorums are the members' majorities, and a phase that reads the
        // configuration needs both.
        for n in 1..=7usize {
            let families: [fn(usize) -> Box<dyn QuorumSpec>; 2] =
                [|m| Box::new(Rowa::new(m)), |m| Box::new(Majority::new(m))];
            for at in families {
                let rule = at(n).thresholds().unwrap();
                for mask in 1u32..(1 << n) {
                    let members = ReplicaSet::from_bits(mask as u128);
                    let r = rule.over(members).expect("ROWA and majority resize");
                    assert_eq!(r.members(), members);
                    let (oracle, majority) = (at(members.len()), Majority::new(members.len()));
                    let label = format!("{} over {members}", at(n).label());
                    for bits in 0u32..(1 << n) {
                        let set = ReplicaSet::from_bits(bits as u128);
                        let l = local(members, set);
                        let read = oracle.is_read_quorum_bits(l);
                        let write = oracle.is_write_quorum_bits(l);
                        assert_eq!(r.is_quorum(set, false), read, "{label}");
                        assert_eq!(r.is_quorum(set, true), write, "{label}");
                        let minimal = oracle.find_read_quorum_bits(l).map(|q| global(members, q));
                        assert_eq!(r.find_quorum(set, false), minimal, "{label}");
                        let minimal = oracle.find_write_quorum_bits(l).map(|q| global(members, q));
                        assert_eq!(r.find_quorum(set, true), minimal, "{label}");
                        assert_eq!(r.feasible(set, false), read, "{label}");
                        assert_eq!(r.feasible(set, true), read && write, "{label}");
                        let config = majority.is_read_quorum_bits(l);
                        assert_eq!(r.is_config_quorum(set), config, "{label}");
                        let reading = r.with_config_reads();
                        assert_eq!(reading.is_quorum(set, false), read && config, "{label}");
                        assert_eq!(reading.is_quorum(set, true), write, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn spec_configuration_roundtrip_matches_generator() {
        let q = Majority::new(5);
        let from_spec = to_configuration(&q);
        let explicit = generators::majority(&[0usize, 1, 2, 3, 4]).minimized();
        assert_eq!(from_spec, explicit);
    }

    #[test]
    fn grid_spec_matches_grid_generator() {
        let q = Grid::new(2, 3);
        let from_spec = to_configuration(&q);
        let universe: Vec<usize> = (0..6).collect();
        let explicit = generators::grid(&universe, 2, 3).minimized();
        assert_eq!(from_spec, explicit);
    }

    #[test]
    fn rowa_spec_matches_rowa_generator() {
        let q = Rowa::new(4);
        let from_spec = to_configuration(&q);
        let universe: Vec<usize> = (0..4).collect();
        assert_eq!(from_spec, generators::rowa(&universe).minimized());
    }

    #[test]
    fn every_read_quorum_meets_every_write_quorum() {
        // Cross-check the legality property on the enumerated form.
        let specs: Vec<Box<dyn QuorumSpec>> = vec![
            Box::new(Rowa::new(5)),
            Box::new(Majority::new(5)),
            Box::new(Weighted::new(vec![2, 1, 1, 1], 3, 3)),
            Box::new(Grid::new(2, 3)),
            Box::new(TreeQuorum::new(9)),
        ];
        for s in &specs {
            if s.n() <= 12 {
                let cfg = to_configuration(s.as_ref());
                assert!(cfg.validate().is_ok(), "{} illegal", s.label());
            }
        }
    }

    #[test]
    fn explicit_configuration_is_a_quorum_spec() {
        // Round-trip: enumerating a spec and using the enumeration as a
        // spec must answer every membership question identically.
        let m = Majority::new(5);
        let cfg = to_configuration(&m);
        assert_eq!(cfg.n(), 5);
        for mask in 0u32..(1 << 5) {
            let set = ReplicaSet::from_bits(mask as u128);
            assert_eq!(cfg.is_read_quorum_bits(set), m.is_read_quorum_bits(set));
            assert_eq!(cfg.is_write_quorum_bits(set), m.is_write_quorum_bits(set));
        }
        assert!(!cfg.is_read_quorum_bits([0, 1].into_iter().collect()));
        let three = [0, 1, 3].into_iter().collect();
        assert!(cfg.is_read_quorum_bits(three) && cfg.is_write_quorum_bits(three));
    }

    #[test]
    fn explicit_configuration_handles_asymmetric_and_empty_cases() {
        // Asymmetric: read {0}, write {0,1,2} (ROWA over 3).
        let universe: Vec<usize> = (0..3).collect();
        let rowa = generators::rowa(&universe);
        assert_eq!(rowa.n(), 3);
        assert!(rowa.is_read_quorum_bits([2].into_iter().collect()));
        assert!(!rowa.is_write_quorum_bits([0, 1].into_iter().collect()));
        assert!(rowa.is_write_quorum_bits([0, 1, 2].into_iter().collect()));
        // The empty configuration has no quorums and an empty universe.
        let empty: Configuration<usize> = Configuration::new(vec![], vec![]);
        assert_eq!(empty.n(), 0);
        assert!(!empty.is_read_quorum_bits(ReplicaSet::full(3)));
        assert_eq!(empty.label(), "explicit(r0,w0/0)");
    }
}
