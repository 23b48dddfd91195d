//! Generators for standard explicit quorum configurations.
//!
//! Each generator returns a legal [`Configuration`] over a caller-supplied
//! universe of data-manager names. These are the configurations the paper's
//! introduction cites as special cases of quorum consensus:
//! read-one/write-all and read-majority/write-majority, plus weighted voting
//! (Gifford's original formulation) and two structured systems (grid, tree)
//! used by the evaluation.

use std::collections::BTreeSet;

use crate::config::Configuration;

/// Read-one / write-all: each singleton is a read-quorum; the unique
/// write-quorum is the full universe.
///
/// # Panics
///
/// Panics if `universe` is empty.
pub fn rowa<T: Ord + Clone>(universe: &[T]) -> Configuration<T> {
    assert!(!universe.is_empty(), "universe must be non-empty");
    let all: BTreeSet<T> = universe.iter().cloned().collect();
    let reads = universe
        .iter()
        .map(|x| [x.clone()].into_iter().collect::<BTreeSet<T>>());
    Configuration::new(reads, vec![all])
}

/// Read-all / write-one: the dual of [`rowa`] — cheap writes, expensive
/// reads. Legal because the single read-quorum (everything) meets every
/// singleton write-quorum.
///
/// # Panics
///
/// Panics if `universe` is empty.
pub fn raow<T: Ord + Clone>(universe: &[T]) -> Configuration<T> {
    assert!(!universe.is_empty(), "universe must be non-empty");
    let all: BTreeSet<T> = universe.iter().cloned().collect();
    let writes = universe
        .iter()
        .map(|x| [x.clone()].into_iter().collect::<BTreeSet<T>>());
    Configuration::new(vec![all], writes)
}

/// Read-majority / write-majority: every subset of size `⌊n/2⌋ + 1` is both
/// a read- and a write-quorum.
///
/// # Panics
///
/// Panics if `universe` is empty or larger than 20 names (the explicit
/// enumeration would be enormous; use [`crate::Majority`] instead).
pub fn majority<T: Ord + Clone>(universe: &[T]) -> Configuration<T> {
    assert!(!universe.is_empty(), "universe must be non-empty");
    assert!(
        universe.len() <= 20,
        "explicit majority enumeration capped at 20 names; use quorum::Majority"
    );
    let k = universe.len() / 2 + 1;
    let subsets = subsets_of_size(universe, k);
    Configuration::new(subsets.clone(), subsets)
}

/// Gifford weighted voting: each name carries a vote count; read-quorums are
/// the minimal subsets with vote total ≥ `read_threshold`, write-quorums
/// those ≥ `write_threshold`.
///
/// Legality requires `read_threshold + write_threshold > total_votes`
/// (Gifford's constraint), which this generator asserts.
///
/// # Panics
///
/// Panics if the threshold constraint is violated, if either threshold is
/// unreachable, or if `votes` is empty.
pub fn weighted<T: Ord + Clone>(
    votes: &[(T, u32)],
    read_threshold: u32,
    write_threshold: u32,
) -> Configuration<T> {
    assert!(!votes.is_empty(), "votes must be non-empty");
    let total: u32 = votes.iter().map(|(_, v)| v).sum();
    assert!(
        read_threshold + write_threshold > total,
        "read + write thresholds must exceed total votes ({total})"
    );
    assert!(
        read_threshold <= total && write_threshold <= total,
        "thresholds must be attainable"
    );
    let reads = minimal_vote_subsets(votes, read_threshold);
    let writes = minimal_vote_subsets(votes, write_threshold);
    Configuration::new(reads, writes)
}

/// Grid quorums over a `rows × cols` arrangement of the universe (row-major
/// order): a read-quorum is one name from each column; a write-quorum is a
/// full column plus one name from each other column.
///
/// Every read-quorum meets every write-quorum in the write's full column.
///
/// # Panics
///
/// Panics unless `universe.len() == rows * cols` with both dimensions
/// positive, or if the enumeration would exceed 100 000 quorums.
pub fn grid<T: Ord + Clone>(universe: &[T], rows: usize, cols: usize) -> Configuration<T> {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    assert_eq!(universe.len(), rows * cols, "universe must fill the grid");
    let column =
        |c: usize| -> Vec<T> { (0..rows).map(|r| universe[r * cols + c].clone()).collect() };
    let n_reads = rows.pow(cols as u32);
    assert!(n_reads <= 100_000, "grid enumeration too large");

    // All choices of one element per column.
    let mut reads: Vec<BTreeSet<T>> = vec![BTreeSet::new()];
    for c in 0..cols {
        let col = column(c);
        reads = reads
            .into_iter()
            .flat_map(|base| {
                col.iter().map(move |x| {
                    let mut q = base.clone();
                    q.insert(x.clone());
                    q
                })
            })
            .collect();
    }

    // Full column `c` + one element of each other column.
    let mut writes: Vec<BTreeSet<T>> = Vec::new();
    for c in 0..cols {
        let full: BTreeSet<T> = column(c).into_iter().collect();
        let mut partials: Vec<BTreeSet<T>> = vec![full];
        for c2 in 0..cols {
            if c2 == c {
                continue;
            }
            let col = column(c2);
            partials = partials
                .into_iter()
                .flat_map(|base| {
                    col.iter().map(move |x| {
                        let mut q = base.clone();
                        q.insert(x.clone());
                        q
                    })
                })
                .collect();
        }
        writes.extend(partials);
    }
    Configuration::new(reads, writes)
}

/// Hierarchical (tree) quorums after Agrawal & El Abbadi, specialised to a
/// complete ternary tree over `universe` (leaves only hold data): a quorum
/// is formed by recursively taking majorities of subtrees. Both read- and
/// write-quorums use the majority rule, so any two quorums intersect.
///
/// `universe.len()` must be a power of 3.
///
/// # Panics
///
/// Panics if `universe.len()` is not a positive power of 3.
pub fn tree_majority<T: Ord + Clone>(universe: &[T]) -> Configuration<T> {
    let n = universe.len();
    assert!(
        n > 0 && is_power_of_3(n),
        "universe size must be a power of 3"
    );
    let quorums = tree_quorums(universe);
    Configuration::new(quorums.clone(), quorums)
}

fn is_power_of_3(mut n: usize) -> bool {
    while n.is_multiple_of(3) {
        n /= 3;
    }
    n == 1
}

fn tree_quorums<T: Ord + Clone>(leaves: &[T]) -> Vec<BTreeSet<T>> {
    if leaves.len() == 1 {
        return vec![[leaves[0].clone()].into_iter().collect()];
    }
    let third = leaves.len() / 3;
    let subs: Vec<Vec<BTreeSet<T>>> = (0..3)
        .map(|i| tree_quorums(&leaves[i * third..(i + 1) * third]))
        .collect();
    // Majority of children: any 2 of the 3 subtrees contribute a quorum.
    let mut out = Vec::new();
    for (i, j) in [(0, 1), (0, 2), (1, 2)] {
        for a in &subs[i] {
            for b in &subs[j] {
                let mut q = a.clone();
                q.extend(b.iter().cloned());
                out.push(q);
            }
        }
    }
    out
}

/// All subsets of `universe` of exactly `k` elements.
fn subsets_of_size<T: Ord + Clone>(universe: &[T], k: usize) -> Vec<BTreeSet<T>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    subsets_rec(universe, k, 0, &mut current, &mut out);
    out
}

fn subsets_rec<T: Ord + Clone>(
    universe: &[T],
    k: usize,
    start: usize,
    current: &mut Vec<T>,
    out: &mut Vec<BTreeSet<T>>,
) {
    if current.len() == k {
        out.push(current.iter().cloned().collect());
        return;
    }
    let needed = k - current.len();
    for i in start..=universe.len().saturating_sub(needed) {
        current.push(universe[i].clone());
        subsets_rec(universe, k, i + 1, current, out);
        current.pop();
    }
}

/// Minimal subsets whose vote total reaches `threshold`.
fn minimal_vote_subsets<T: Ord + Clone>(votes: &[(T, u32)], threshold: u32) -> Vec<BTreeSet<T>> {
    let mut raw: Vec<BTreeSet<T>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    vote_rec(votes, threshold, 0, 0, &mut current, &mut raw);
    // Keep only minimal sets.
    let mut out: Vec<BTreeSet<T>> = Vec::new();
    for q in &raw {
        if !raw.iter().any(|o| o != q && o.is_subset(q)) {
            out.push(q.clone());
        }
    }
    out.sort();
    out.dedup();
    out
}

fn vote_rec<T: Ord + Clone>(
    votes: &[(T, u32)],
    threshold: u32,
    start: usize,
    acc: u32,
    current: &mut Vec<usize>,
    out: &mut Vec<BTreeSet<T>>,
) {
    if acc >= threshold {
        out.push(current.iter().map(|&i| votes[i].0.clone()).collect());
        return; // any extension is non-minimal
    }
    for i in start..votes.len() {
        current.push(i);
        vote_rec(votes, threshold, i + 1, acc + votes[i].1, current, out);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowa_structure() {
        let cfg = rowa(&[0u32, 1, 2]);
        assert_eq!(cfg.read_quorums().len(), 3);
        assert_eq!(cfg.write_quorums().len(), 1);
        assert_eq!(cfg.write_quorums()[0].len(), 3);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn raow_is_dual_of_rowa() {
        let cfg = raow(&[0u32, 1, 2]);
        assert_eq!(cfg.read_quorums().len(), 1);
        assert_eq!(cfg.write_quorums().len(), 3);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn majority_counts() {
        let cfg = majority(&[0u32, 1, 2, 3, 4]);
        // C(5,3) = 10 on each side.
        assert_eq!(cfg.read_quorums().len(), 10);
        assert_eq!(cfg.write_quorums().len(), 10);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn majority_single_replica() {
        let cfg = majority(&[7u32]);
        assert_eq!(cfg.read_quorums().len(), 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn weighted_reduces_to_rowa() {
        // 1 vote each, read 1, write n  ==  read-one/write-all.
        let votes: Vec<(u32, u32)> = (0..4).map(|i| (i, 1)).collect();
        let cfg = weighted(&votes, 1, 4);
        let expected = rowa(&[0u32, 1, 2, 3]);
        assert_eq!(cfg.minimized(), expected.minimized());
    }

    #[test]
    fn weighted_heterogeneous_votes() {
        // Site 0 has 2 votes: total 4, read 2, write 3.
        let cfg = weighted(&[(0u32, 2), (1, 1), (2, 1)], 2, 3);
        assert!(cfg.validate().is_ok());
        // {0} alone reaches the read threshold.
        assert!(cfg.read_quorums().contains(&[0u32].into_iter().collect()));
    }

    #[test]
    #[should_panic(expected = "thresholds must exceed")]
    fn weighted_rejects_illegal_thresholds() {
        weighted(&[(0u32, 1), (1, 1)], 1, 1);
    }

    #[test]
    fn grid_legal_and_sized() {
        let universe: Vec<u32> = (0..6).collect();
        let cfg = grid(&universe, 2, 3);
        assert!(cfg.validate().is_ok());
        // Reads: one per column = 2^3 = 8 choices.
        assert_eq!(cfg.read_quorums().len(), 8);
        // Read quorums have size 3 (one per column).
        assert!(cfg.read_quorums().iter().all(|q| q.len() == 3));
        // Write quorums: column (2) + one from each of 2 other columns.
        assert!(cfg.write_quorums().iter().all(|q| q.len() == 4));
    }

    #[test]
    fn tree_majority_legal() {
        let universe: Vec<u32> = (0..9).collect();
        let cfg = tree_majority(&universe);
        assert!(cfg.validate().is_ok());
        // Quorums of a 9-leaf ternary tree have 4 leaves (2 per chosen
        // subtree, 2 subtrees).
        assert!(cfg.read_quorums().iter().all(|q| q.len() == 4));
    }

    #[test]
    fn tree_majority_base_case() {
        let cfg = tree_majority(&[5u32]);
        assert_eq!(cfg.read_quorums().len(), 1);
    }

    #[test]
    fn all_generators_are_legal_for_various_sizes() {
        for n in 1..=7usize {
            let u: Vec<u32> = (0..n as u32).collect();
            assert!(rowa(&u).validate().is_ok(), "rowa n={n}");
            assert!(raow(&u).validate().is_ok(), "raow n={n}");
            assert!(majority(&u).validate().is_ok(), "majority n={n}");
        }
    }
}
