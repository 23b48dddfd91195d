//! Explicit quorum configurations.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use crate::replica_set::{ReplicaSet, MAX_REPLICAS};

/// Error constructing or validating a [`Configuration`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigurationError {
    /// Some read-quorum fails to intersect some write-quorum.
    Illegal {
        /// Index of the offending read-quorum.
        read_index: usize,
        /// Index of the offending write-quorum.
        write_index: usize,
    },
    /// A quorum is the empty set (never useful: an empty read-quorum would
    /// let a reader return without consulting any replica).
    EmptyQuorum,
}

impl fmt::Display for ConfigurationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigurationError::Illegal {
                read_index,
                write_index,
            } => write!(
                f,
                "read-quorum #{read_index} does not intersect write-quorum #{write_index}"
            ),
            ConfigurationError::EmptyQuorum => write!(f, "configuration contains an empty quorum"),
        }
    }
}

impl Error for ConfigurationError {}

/// A configuration: a set of read-quorums and a set of write-quorums over
/// data-manager names of type `T` (paper §2.3, "Configurations").
///
/// Formally, for a set `S`, `configurations(S)` is the set of pairs `(r, w)`
/// with `r, w ⊆ 2^S`; the configuration is *legal* when every element of `r`
/// has non-empty intersection with every element of `w`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Configuration<T: Ord + Clone> {
    read_quorums: Vec<BTreeSet<T>>,
    write_quorums: Vec<BTreeSet<T>>,
}

impl<T: Ord + Clone> Configuration<T> {
    /// Build a configuration from explicit quorum collections.
    ///
    /// Quorums are deduplicated and sorted, giving a canonical form so that
    /// equal configurations compare equal regardless of construction order.
    pub fn new(
        read_quorums: impl IntoIterator<Item = BTreeSet<T>>,
        write_quorums: impl IntoIterator<Item = BTreeSet<T>>,
    ) -> Self {
        let mut r: Vec<BTreeSet<T>> = read_quorums.into_iter().collect();
        let mut w: Vec<BTreeSet<T>> = write_quorums.into_iter().collect();
        r.sort();
        r.dedup();
        w.sort();
        w.dedup();
        Configuration {
            read_quorums: r,
            write_quorums: w,
        }
    }

    /// The read-quorums.
    pub fn read_quorums(&self) -> &[BTreeSet<T>] {
        &self.read_quorums
    }

    /// The write-quorums.
    pub fn write_quorums(&self) -> &[BTreeSet<T>] {
        &self.write_quorums
    }

    /// Whether every read-quorum intersects every write-quorum — the
    /// paper's `legal(S)` condition. Vacuously true if either side is empty.
    pub fn is_legal(&self) -> bool {
        let c = self.compiled();
        c.read_masks()
            .iter()
            .all(|&r| c.write_masks().iter().all(|&w| r.intersects(w)))
    }

    /// Whether the configuration can actually serve both reads and writes:
    /// legal *and* at least one read-quorum and one write-quorum exist.
    pub fn is_usable(&self) -> bool {
        !self.read_quorums.is_empty() && !self.write_quorums.is_empty() && self.is_legal()
    }

    /// Check legality and non-emptiness, reporting the first offence.
    ///
    /// # Errors
    ///
    /// [`ConfigurationError::EmptyQuorum`] or [`ConfigurationError::Illegal`].
    pub fn validate(&self) -> Result<(), ConfigurationError> {
        let c = self.compiled();
        if c.read_masks()
            .iter()
            .chain(c.write_masks())
            .any(|m| m.is_empty())
        {
            return Err(ConfigurationError::EmptyQuorum);
        }
        for (ri, &r) in c.read_masks().iter().enumerate() {
            for (wi, &w) in c.write_masks().iter().enumerate() {
                if !r.intersects(w) {
                    return Err(ConfigurationError::Illegal {
                        read_index: ri,
                        write_index: wi,
                    });
                }
            }
        }
        Ok(())
    }

    /// All data-manager names mentioned by any quorum.
    pub fn universe(&self) -> BTreeSet<T> {
        self.read_quorums
            .iter()
            .chain(&self.write_quorums)
            .flat_map(|q| q.iter().cloned())
            .collect()
    }

    /// Find a read-quorum wholly contained in `available`, preferring the
    /// smallest.
    pub fn find_read_quorum(&self, available: &BTreeSet<T>) -> Option<&BTreeSet<T>> {
        Self::find_quorum(&self.read_quorums, available)
    }

    /// Find a write-quorum wholly contained in `available`, preferring the
    /// smallest.
    pub fn find_write_quorum(&self, available: &BTreeSet<T>) -> Option<&BTreeSet<T>> {
        Self::find_quorum(&self.write_quorums, available)
    }

    /// Whether `set` includes some read-quorum.
    pub fn covers_read_quorum(&self, set: &BTreeSet<T>) -> bool {
        self.read_quorums.iter().any(|q| q.is_subset(set))
    }

    /// Whether `set` includes some write-quorum.
    pub fn covers_write_quorum(&self, set: &BTreeSet<T>) -> bool {
        self.write_quorums.iter().any(|q| q.is_subset(set))
    }

    /// Remove non-minimal quorums (supersets of other quorums on the same
    /// side). Coverage predicates are unaffected.
    pub fn minimized(&self) -> Self {
        let c = self.compiled();
        Configuration {
            read_quorums: Self::minimal(&self.read_quorums, c.read_masks()),
            write_quorums: Self::minimal(&self.write_quorums, c.write_masks()),
        }
    }

    /// Keep `quorums[i]` only if no *other* quorum is a subset of it;
    /// `masks[i]` is the bitset form of `quorums[i]`.
    fn minimal(quorums: &[BTreeSet<T>], masks: &[ReplicaSet]) -> Vec<BTreeSet<T>> {
        let mut kept_masks: Vec<ReplicaSet> = Vec::new();
        let mut out: Vec<BTreeSet<T>> = Vec::new();
        for (i, &q) in masks.iter().enumerate() {
            if masks
                .iter()
                .enumerate()
                .any(|(j, &o)| j != i && o != q && o.is_subset(q))
            {
                continue;
            }
            if !kept_masks.contains(&q) {
                kept_masks.push(q);
                out.push(quorums[i].clone());
            }
        }
        out
    }

    fn find_quorum<'a>(
        quorums: &'a [BTreeSet<T>],
        available: &BTreeSet<T>,
    ) -> Option<&'a BTreeSet<T>> {
        quorums
            .iter()
            .filter(|q| q.is_subset(available))
            .min_by_key(|q| q.len())
    }

    /// Compile to a bitset form: the universe is indexed in sorted order and
    /// every quorum becomes a [`ReplicaSet`] mask. Coverage checks against
    /// the compiled form are single AND/compare operations per quorum, with
    /// no allocation; build it once and reuse it on hot paths.
    ///
    /// # Panics
    ///
    /// Panics if the universe exceeds 128 names (the [`ReplicaSet`] cap).
    pub fn compiled(&self) -> CompiledConfiguration<T> {
        let members: Vec<T> = self.universe().into_iter().collect();
        assert!(
            members.len() <= MAX_REPLICAS,
            "ReplicaSet caps replicas at 128"
        );
        let mask = |q: &BTreeSet<T>| -> ReplicaSet {
            q.iter()
                .map(|x| members.binary_search(x).expect("member in universe"))
                .collect()
        };
        CompiledConfiguration {
            read_masks: self.read_quorums.iter().map(mask).collect(),
            write_masks: self.write_quorums.iter().map(mask).collect(),
            members,
        }
    }

    /// Map data-manager names through `f`, preserving quorum structure.
    ///
    /// Used to re-home a configuration onto concrete object identifiers
    /// (e.g. from replica indices `0..n` to allocated `ObjectId`s).
    pub fn map<U: Ord + Clone>(&self, mut f: impl FnMut(&T) -> U) -> Configuration<U> {
        Configuration {
            read_quorums: self
                .read_quorums
                .iter()
                .map(|q| q.iter().map(&mut f).collect())
                .collect(),
            write_quorums: self
                .write_quorums
                .iter()
                .map(|q| q.iter().map(&mut f).collect())
                .collect(),
        }
    }
}

/// The bitset form of a [`Configuration`], built by
/// [`Configuration::compiled`]: quorums as [`ReplicaSet`] masks over indices
/// into a sorted member list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledConfiguration<T: Ord + Clone> {
    members: Vec<T>,
    read_masks: Vec<ReplicaSet>,
    write_masks: Vec<ReplicaSet>,
}

impl<T: Ord + Clone> CompiledConfiguration<T> {
    /// The universe, sorted; a name's position is its bit index.
    pub fn members(&self) -> &[T] {
        &self.members
    }

    /// The bit index of `name`, if it is in the universe.
    pub fn index_of(&self, name: &T) -> Option<usize> {
        self.members.binary_search(name).ok()
    }

    /// The read-quorum masks, in the same order as
    /// [`Configuration::read_quorums`].
    pub fn read_masks(&self) -> &[ReplicaSet] {
        &self.read_masks
    }

    /// The write-quorum masks, in the same order as
    /// [`Configuration::write_quorums`].
    pub fn write_masks(&self) -> &[ReplicaSet] {
        &self.write_masks
    }

    /// Convert an explicit set of names to a mask, ignoring names outside
    /// the universe (they cannot affect any coverage check).
    pub fn bits_of<'a>(&self, set: impl IntoIterator<Item = &'a T>) -> ReplicaSet
    where
        T: 'a,
    {
        set.into_iter().filter_map(|x| self.index_of(x)).collect()
    }

    /// Whether `set` includes some read-quorum.
    pub fn covers_read_quorum(&self, set: ReplicaSet) -> bool {
        self.read_masks.iter().any(|q| q.is_subset(set))
    }

    /// Whether `set` includes some write-quorum.
    pub fn covers_write_quorum(&self, set: ReplicaSet) -> bool {
        self.write_masks.iter().any(|q| q.is_subset(set))
    }

    /// The mask of a read-quorum wholly contained in `available`,
    /// preferring the smallest — mirrors [`Configuration::find_read_quorum`].
    pub fn find_read_quorum(&self, available: ReplicaSet) -> Option<ReplicaSet> {
        Self::find_quorum(&self.read_masks, available)
    }

    /// The mask of a write-quorum wholly contained in `available`,
    /// preferring the smallest.
    pub fn find_write_quorum(&self, available: ReplicaSet) -> Option<ReplicaSet> {
        Self::find_quorum(&self.write_masks, available)
    }

    fn find_quorum(masks: &[ReplicaSet], available: ReplicaSet) -> Option<ReplicaSet> {
        masks
            .iter()
            .copied()
            .filter(|q| q.is_subset(available))
            .min_by_key(|q| q.len())
    }
}

impl<T: Ord + Clone + fmt::Debug> fmt::Display for Configuration<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config(r: {:?}, w: {:?})",
            self.read_quorums, self.write_quorums
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[u32]) -> BTreeSet<u32> {
        items.iter().copied().collect()
    }

    #[test]
    fn majority_pair_is_legal() {
        let cfg = Configuration::new(vec![set(&[0, 1])], vec![set(&[1, 2])]);
        assert!(cfg.is_legal());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn disjoint_quorums_are_illegal() {
        let cfg = Configuration::new(vec![set(&[0])], vec![set(&[1, 2])]);
        assert!(!cfg.is_legal());
        assert_eq!(
            cfg.validate(),
            Err(ConfigurationError::Illegal {
                read_index: 0,
                write_index: 0
            })
        );
    }

    #[test]
    fn empty_quorum_rejected() {
        let cfg = Configuration::new(vec![BTreeSet::new()], vec![set(&[0])]);
        assert_eq!(cfg.validate(), Err(ConfigurationError::EmptyQuorum));
        // Legality is vacuous/odd for empty sets; usability is not.
        assert!(!Configuration::<u32>::new(vec![], vec![]).is_usable());
    }

    #[test]
    fn find_quorum_prefers_smallest() {
        let cfg = Configuration::new(vec![set(&[0]), set(&[0, 1, 2])], vec![set(&[0, 1, 2])]);
        let avail = set(&[0, 1, 2]);
        assert_eq!(cfg.find_read_quorum(&avail), Some(&set(&[0])));
    }

    #[test]
    fn find_quorum_respects_availability() {
        let cfg = Configuration::new(vec![set(&[0, 1]), set(&[1, 2])], vec![set(&[0, 1, 2])]);
        assert_eq!(cfg.find_read_quorum(&set(&[1, 2])), Some(&set(&[1, 2])));
        assert_eq!(cfg.find_read_quorum(&set(&[0, 2])), None);
        assert!(cfg.find_write_quorum(&set(&[0, 1])).is_none());
    }

    #[test]
    fn canonical_form_deduplicates() {
        let a = Configuration::new(vec![set(&[0, 1]), set(&[0, 1])], vec![set(&[1])]);
        let b = Configuration::new(vec![set(&[0, 1])], vec![set(&[1])]);
        assert_eq!(a, b);
    }

    #[test]
    fn minimized_removes_supersets() {
        let cfg = Configuration::new(vec![set(&[0]), set(&[0, 1]), set(&[2])], vec![set(&[0, 2])]);
        let min = cfg.minimized();
        assert_eq!(min.read_quorums(), &[set(&[0]), set(&[2])]);
    }

    #[test]
    fn universe_collects_all_names() {
        let cfg = Configuration::new(vec![set(&[0, 1])], vec![set(&[2])]);
        assert_eq!(cfg.universe(), set(&[0, 1, 2]));
    }

    #[test]
    fn map_preserves_structure() {
        let cfg = Configuration::new(vec![set(&[0, 1])], vec![set(&[1, 2])]);
        let mapped = cfg.map(|x| x + 100);
        assert!(mapped.is_legal());
        assert_eq!(
            mapped.universe(),
            [100u32, 101, 102].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn covers_predicates() {
        let cfg = Configuration::new(vec![set(&[0, 1])], vec![set(&[1, 2])]);
        assert!(cfg.covers_read_quorum(&set(&[0, 1, 5])));
        assert!(!cfg.covers_read_quorum(&set(&[1, 5])));
        assert!(cfg.covers_write_quorum(&set(&[1, 2])));
    }

    #[test]
    fn compiled_agrees_with_explicit() {
        // Non-contiguous names exercise the universe indexing.
        let cfg = Configuration::new(
            vec![set(&[10, 30]), set(&[30, 50])],
            vec![set(&[10, 30, 50])],
        );
        let c = cfg.compiled();
        assert_eq!(c.members(), &[10, 30, 50]);
        assert_eq!(c.index_of(&30), Some(1));
        assert_eq!(c.index_of(&99), None);
        for mask in 0u32..8 {
            let bits = crate::ReplicaSet::from_bits(mask as u128);
            let explicit: BTreeSet<u32> = bits.iter().map(|i| c.members()[i]).collect();
            assert_eq!(
                c.covers_read_quorum(bits),
                cfg.covers_read_quorum(&explicit)
            );
            assert_eq!(
                c.covers_write_quorum(bits),
                cfg.covers_write_quorum(&explicit)
            );
            assert_eq!(
                c.find_read_quorum(bits)
                    .map(|q| q.iter().map(|i| c.members()[i]).collect::<BTreeSet<_>>()),
                cfg.find_read_quorum(&explicit).cloned()
            );
        }
        // Names outside the universe are ignored by bits_of.
        let with_stranger: BTreeSet<u32> = [10u32, 30, 99].into_iter().collect();
        assert!(c.covers_read_quorum(c.bits_of(&with_stranger)));
    }
}
