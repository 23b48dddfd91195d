//! Availability and cost analysis of quorum systems.
//!
//! Replication exists "to improve availability, reliability and performance"
//! (paper §1, first sentence). These functions quantify that claim for the
//! quorum systems in this crate and back experiments Q1, Q2 and Q5.

use rand::Rng;

use crate::replica_set::ReplicaSet;
use crate::spec::QuorumSpec;

/// Exact probability that the live replicas contain a read-quorum, when
/// each replica is independently up with probability `up`.
///
/// Enumerates all `2^n` replica states; intended for `n ≤ 20`.
///
/// # Panics
///
/// Panics if `spec.n() > 20` or `up` is not in `[0, 1]`.
pub fn exact_read_availability(spec: &dyn QuorumSpec, up: f64) -> f64 {
    exact_availability(spec, up, true)
}

/// Exact probability that the live replicas contain a write-quorum.
///
/// # Panics
///
/// Panics if `spec.n() > 20` or `up` is not in `[0, 1]`.
pub fn exact_write_availability(spec: &dyn QuorumSpec, up: f64) -> f64 {
    exact_availability(spec, up, false)
}

fn exact_availability(spec: &dyn QuorumSpec, up: f64, read: bool) -> f64 {
    let n = spec.n();
    assert!(n <= 20, "exact enumeration capped at n = 20");
    assert!((0.0..=1.0).contains(&up), "probability out of range");
    // Precompute P(exactly the replicas in `live` are up) per cardinality;
    // the sweep then touches no sets at all — one predicate call per mask.
    let p_by_count: Vec<f64> = (0..=n as i32)
        .map(|k| up.powi(k) * (1.0 - up).powi(n as i32 - k))
        .collect();
    let mut total = 0.0;
    for mask in 0u32..(1 << n) {
        let live = ReplicaSet::from_bits(mask as u128);
        let ok = if read {
            spec.is_read_quorum_bits(live)
        } else {
            spec.is_write_quorum_bits(live)
        };
        if ok {
            total += p_by_count[live.len()];
        }
    }
    total
}

/// Monte-Carlo estimate of read (and write) availability: returns
/// `(read_availability, write_availability)` over `trials` samples.
///
/// # Panics
///
/// Panics if `trials == 0` or `up` is not in `[0, 1]`.
pub fn monte_carlo_availability(
    spec: &dyn QuorumSpec,
    up: f64,
    trials: u32,
    rng: &mut dyn rand::RngCore,
) -> (f64, f64) {
    assert!(trials > 0);
    assert!((0.0..=1.0).contains(&up), "probability out of range");
    let n = spec.n();
    let mut r_ok = 0u32;
    let mut w_ok = 0u32;
    for _ in 0..trials {
        let live: ReplicaSet = (0..n).filter(|_| rng.gen_bool(up)).collect();
        if spec.is_read_quorum_bits(live) {
            r_ok += 1;
        }
        if spec.is_write_quorum_bits(live) {
            w_ok += 1;
        }
    }
    (
        f64::from(r_ok) / f64::from(trials),
        f64::from(w_ok) / f64::from(trials),
    )
}

/// Sizes `(read, write)` of the smallest quorums when all replicas are up —
/// the per-operation message cost floor (one round-trip per quorum member,
/// plus one more write round for logical writes).
fn min_quorum_sizes(spec: &dyn QuorumSpec) -> (usize, usize) {
    let all = ReplicaSet::full(spec.n());
    let r = spec
        .find_read_quorum_bits(all)
        .map(|q| q.len())
        .unwrap_or(usize::MAX);
    let w = spec
        .find_write_quorum_bits(all)
        .map(|q| q.len())
        .unwrap_or(usize::MAX);
    (r, w)
}

/// Expected number of replica accesses per logical operation for a workload
/// with the given fraction of reads, using minimum quorums.
///
/// A logical read costs one read-quorum; a logical write costs a read-quorum
/// (version-number discovery) plus a write-quorum (paper §1).
pub fn expected_accesses_per_op(spec: &dyn QuorumSpec, read_fraction: f64) -> f64 {
    let (r, w) = min_quorum_sizes(spec);
    let (r, w) = (r as f64, w as f64);
    read_fraction * r + (1.0 - read_fraction) * (r + w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Majority, Rowa};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rowa_read_availability_dominates_write() {
        let q = Rowa::new(5);
        let r = exact_read_availability(&q, 0.9);
        let w = exact_write_availability(&q, 0.9);
        // Read available iff any replica up: 1 - 0.1^5.
        assert!((r - (1.0 - 0.1f64.powi(5))).abs() < 1e-12);
        // Write needs all: 0.9^5.
        assert!((w - 0.9f64.powi(5)).abs() < 1e-12);
        assert!(r > w);
    }

    #[test]
    fn majority_availability_closed_form() {
        let q = Majority::new(3);
        // P(at least 2 of 3 up) with p = 0.8: 3·0.8²·0.2 + 0.8³.
        let expect = 3.0 * 0.8f64.powi(2) * 0.2 + 0.8f64.powi(3);
        assert!((exact_read_availability(&q, 0.8) - expect).abs() < 1e-12);
        assert!((exact_write_availability(&q, 0.8) - expect).abs() < 1e-12);
    }

    #[test]
    fn degenerate_probabilities() {
        let q = Majority::new(5);
        assert_eq!(exact_read_availability(&q, 0.0), 0.0);
        assert!((exact_read_availability(&q, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_tracks_exact() {
        let q = Majority::new(5);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (mc_r, mc_w) = monte_carlo_availability(&q, 0.8, 20_000, &mut rng);
        let exact = exact_read_availability(&q, 0.8);
        assert!((mc_r - exact).abs() < 0.02, "mc {mc_r} vs exact {exact}");
        assert!((mc_w - exact).abs() < 0.02);
    }

    #[test]
    fn min_quorum_sizes_rowa_vs_majority() {
        assert_eq!(min_quorum_sizes(&Rowa::new(5)), (1, 5));
        assert_eq!(min_quorum_sizes(&Majority::new(5)), (3, 3));
    }

    #[test]
    fn expected_accesses_crossover() {
        // Read-heavy favours ROWA on access count.
        let rowa = Rowa::new(5);
        let maj = Majority::new(5);
        assert!(expected_accesses_per_op(&rowa, 1.0) < expected_accesses_per_op(&maj, 1.0));
        // Classic identity: for odd n, the *write* access cost ties —
        // ROWA pays 1 + n, symmetric majority pays k + k with 2k = n + 1.
        assert_eq!(
            expected_accesses_per_op(&rowa, 0.0),
            expected_accesses_per_op(&maj, 0.0)
        );
        // Every legal threshold pair has read + write ≥ n + 1, so no vote
        // assignment can beat ROWA's write cost; structured (grid) systems
        // can: at n = 9 a grid write touches 3 + 5 replicas vs 5 + 5.
        let grid = crate::Grid::new(3, 3);
        let maj9 = Majority::new(9);
        assert!(expected_accesses_per_op(&grid, 0.0) < expected_accesses_per_op(&maj9, 0.0));
    }
}
