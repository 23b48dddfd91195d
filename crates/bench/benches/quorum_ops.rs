//! Criterion benches for quorum-system primitives: quorum finding across
//! system families and sizes, legality validation, and availability
//! analysis. These are the hot paths behind experiments Q1, Q2 and Q5.

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quorum::{
    analysis, generators, Grid, Majority, QuorumSpec, ReplicaSet, Rowa, TreeQuorum, Weighted,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pre-bitset greedy shrink, kept here as the before/after baseline:
/// clone the candidate `BTreeSet` and re-test the whole set for every
/// dropped element — O(n²·log n) with an allocation per probe, versus the
/// allocation-free bit shrink behind [`QuorumSpec::find_read_quorum_bits`].
fn find_read_quorum_btree_reference(
    q: &dyn QuorumSpec,
    available: &BTreeSet<usize>,
) -> Option<BTreeSet<usize>> {
    if !q.is_read_quorum(available) {
        return None;
    }
    let mut current = available.clone();
    for x in available {
        let mut trial = current.clone();
        trial.remove(x);
        if q.is_read_quorum(&trial) {
            current = trial;
        }
    }
    Some(current)
}

fn bench_find_quorum(c: &mut Criterion) {
    let mut g = c.benchmark_group("find_read_quorum");
    for n in [5usize, 9, 25] {
        let avail: BTreeSet<usize> = (0..n).collect();
        let systems: Vec<Box<dyn QuorumSpec>> = vec![
            Box::new(Rowa::new(n)),
            Box::new(Majority::new(n)),
            Box::new(Weighted::new(
                vec![1; n],
                (n / 2 + 1) as u32,
                (n / 2 + 1) as u32,
            )),
        ];
        for q in systems {
            g.bench_with_input(BenchmarkId::new(q.label(), n), &avail, |b, avail| {
                b.iter(|| q.find_read_quorum(std::hint::black_box(avail)))
            });
        }
    }
    // Structured systems at their natural sizes.
    let grid = Grid::new(5, 5);
    let avail: BTreeSet<usize> = (0..25).collect();
    g.bench_function("grid(5x5)/25", |b| {
        b.iter(|| grid.find_read_quorum(std::hint::black_box(&avail)))
    });
    let tree = TreeQuorum::new(27);
    let avail: BTreeSet<usize> = (0..27).collect();
    g.bench_function("tree(27)/27", |b| {
        b.iter(|| tree.find_read_quorum(std::hint::black_box(&avail)))
    });
    g.finish();
}

/// Before/after for the bitset migration: the old clone-based `BTreeSet`
/// shrink versus the `ReplicaSet` hot path, plus raw membership tests.
fn bench_bitset_vs_btreeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitset_vs_btreeset");
    for n in [5usize, 25, 101] {
        let q = Majority::new(n);
        let avail_btree: BTreeSet<usize> = (0..n).collect();
        let avail_bits = ReplicaSet::full(n);
        g.bench_with_input(
            BenchmarkId::new("find_btreeset_reference", n),
            &avail_btree,
            |b, avail| b.iter(|| find_read_quorum_btree_reference(&q, std::hint::black_box(avail))),
        );
        g.bench_with_input(
            BenchmarkId::new("find_bits", n),
            &avail_bits,
            |b, &avail| b.iter(|| q.find_read_quorum_bits(std::hint::black_box(avail))),
        );
        g.bench_with_input(
            BenchmarkId::new("is_quorum_btreeset", n),
            &avail_btree,
            |b, avail| b.iter(|| q.is_read_quorum(std::hint::black_box(avail))),
        );
        g.bench_with_input(
            BenchmarkId::new("is_quorum_bits", n),
            &avail_bits,
            |b, &avail| b.iter(|| q.is_read_quorum_bits(std::hint::black_box(avail))),
        );
    }
    g.finish();
}

fn bench_configuration(c: &mut Criterion) {
    let mut g = c.benchmark_group("configuration");
    let universe: Vec<u32> = (0..9).collect();
    g.bench_function("majority_generate/9", |b| {
        b.iter(|| generators::majority(std::hint::black_box(&universe)))
    });
    let cfg = generators::majority(&universe);
    g.bench_function("validate/9", |b| b.iter(|| cfg.validate()));
    let avail: BTreeSet<u32> = (0..9).collect();
    g.bench_function("covers_read_quorum/9", |b| {
        b.iter(|| cfg.covers_read_quorum(std::hint::black_box(&avail)))
    });
    g.bench_function("minimized/9", |b| b.iter(|| cfg.minimized()));
    g.finish();
}

fn bench_availability(c: &mut Criterion) {
    let mut g = c.benchmark_group("availability");
    let maj9 = Majority::new(9);
    g.bench_function("exact/9", |b| {
        b.iter(|| analysis::exact_read_availability(&maj9, std::hint::black_box(0.9)))
    });
    let maj15 = Majority::new(15);
    g.bench_function("exact/15", |b| {
        b.iter(|| analysis::exact_read_availability(&maj15, std::hint::black_box(0.9)))
    });
    g.bench_function("monte_carlo_1k/15", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| analysis::monte_carlo_availability(&maj15, 0.9, 1_000, &mut rng))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_find_quorum,
    bench_bitset_vs_btreeset,
    bench_configuration,
    bench_availability
);
criterion_main!(benches);
