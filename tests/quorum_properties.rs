//! Property-based tests for quorum systems: legality, spec/configuration
//! agreement, quorum-finding soundness, and availability monotonicity.

use std::collections::BTreeSet;

use proptest::prelude::*;
use qcnt::quorum::{
    analysis, generators, to_configuration, Grid, Majority, QuorumSpec, Rowa, TreeQuorum, Weighted,
};

fn subset_strategy(n: usize) -> impl Strategy<Value = BTreeSet<usize>> {
    prop::collection::btree_set(0..n, 0..=n)
}

proptest! {
    /// Every generator yields a legal, usable configuration.
    #[test]
    fn generators_always_legal(n in 1usize..8) {
        let universe: Vec<u32> = (0..n as u32).collect();
        prop_assert!(generators::rowa(&universe).is_usable());
        prop_assert!(generators::raow(&universe).is_usable());
        prop_assert!(generators::majority(&universe).is_usable());
    }

    /// Weighted voting with any votes and legal thresholds is legal.
    #[test]
    fn weighted_always_legal(votes in prop::collection::vec(1u32..4, 1..6)) {
        let total: u32 = votes.iter().sum();
        let read = total / 2 + 1;
        let write = total / 2 + 1;
        let named: Vec<(u32, u32)> = votes.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
        let cfg = generators::weighted(&named, read, write);
        prop_assert!(cfg.is_usable());
    }

    /// The predicate specs agree with their enumerated configurations on
    /// arbitrary subsets.
    #[test]
    fn spec_matches_enumeration(set in subset_strategy(6)) {
        let specs: Vec<Box<dyn QuorumSpec>> = vec![
            Box::new(Rowa::new(6)),
            Box::new(Majority::new(6)),
            Box::new(Grid::new(2, 3)),
            Box::new(Weighted::new(vec![2, 1, 1, 1, 1, 1], 4, 4)),
        ];
        for q in &specs {
            let cfg = to_configuration(q.as_ref());
            prop_assert_eq!(
                q.is_read_quorum(&set),
                cfg.covers_read_quorum(&set),
                "read disagreement for {} on {:?}", q.label(), set
            );
            prop_assert_eq!(
                q.is_write_quorum(&set),
                cfg.covers_write_quorum(&set),
                "write disagreement for {} on {:?}", q.label(), set
            );
        }
    }

    /// Found quorums are quorums, are minimal, and lie within availability.
    #[test]
    fn find_quorum_sound(avail in subset_strategy(9)) {
        let specs: Vec<Box<dyn QuorumSpec>> = vec![
            Box::new(Rowa::new(9)),
            Box::new(Majority::new(9)),
            Box::new(Grid::new(3, 3)),
            Box::new(TreeQuorum::new(9)),
        ];
        for q in &specs {
            match q.find_read_quorum(&avail) {
                Some(found) => {
                    prop_assert!(found.is_subset(&avail));
                    prop_assert!(q.is_read_quorum(&found));
                    // Minimality: removing any single element breaks it.
                    for x in &found {
                        let mut smaller = found.clone();
                        smaller.remove(x);
                        prop_assert!(!q.is_read_quorum(&smaller));
                    }
                }
                None => prop_assert!(!q.is_read_quorum(&avail)),
            }
        }
    }

    /// Read/write quorum intersection: any read quorum meets any write
    /// quorum found from any availability (the legality property, tested
    /// through the predicate interface).
    #[test]
    fn read_meets_write(a in subset_strategy(9), b in subset_strategy(9)) {
        let specs: Vec<Box<dyn QuorumSpec>> = vec![
            Box::new(Majority::new(9)),
            Box::new(Grid::new(3, 3)),
            Box::new(TreeQuorum::new(9)),
            Box::new(Rowa::new(9)),
        ];
        for q in &specs {
            if let (Some(r), Some(w)) = (q.find_read_quorum(&a), q.find_write_quorum(&b)) {
                prop_assert!(
                    r.intersection(&w).next().is_some(),
                    "{}: read {:?} misses write {:?}", q.label(), r, w
                );
            }
        }
    }

    /// Availability is monotone in the per-site up-probability.
    #[test]
    fn availability_monotone(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let q = Majority::new(5);
        let a_lo = analysis::exact_read_availability(&q, lo);
        let a_hi = analysis::exact_read_availability(&q, hi);
        prop_assert!(a_lo <= a_hi + 1e-12);
    }

    /// Read availability dominates write availability for ROWA; they are
    /// equal for symmetric majority.
    #[test]
    fn rowa_read_dominates_write(p in 0.0f64..=1.0) {
        let rowa = Rowa::new(5);
        prop_assert!(
            analysis::exact_read_availability(&rowa, p)
                >= analysis::exact_write_availability(&rowa, p) - 1e-12
        );
        let maj = Majority::new(5);
        let r = analysis::exact_read_availability(&maj, p);
        let w = analysis::exact_write_availability(&maj, p);
        prop_assert!((r - w).abs() < 1e-12);
    }

    /// Configuration `map` preserves legality and quorum structure.
    #[test]
    fn map_preserves_legality(n in 1usize..7, offset in 0u32..100) {
        let universe: Vec<u32> = (0..n as u32).collect();
        let cfg = generators::majority(&universe);
        let mapped = cfg.map(|x| x + offset);
        prop_assert!(mapped.is_usable());
        prop_assert_eq!(mapped.read_quorums().len(), cfg.read_quorums().len());
    }
}
