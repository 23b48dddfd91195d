//! Criterion bench for the placement directory's routing hot path: every
//! operation arrival resolves `item -> shard` through
//! [`PlacementDirectory::owner_of`], which replaced the hardwired
//! `g % shards` of the static layout. The directory is a flat `Vec<u32>`
//! indexed by global item, so the lookup should price out as one L1/L2
//! load — this bench pins that the elastic control plane's per-op routing
//! tax over the modulo it displaced stays under ~5 ns (the measured gap
//! on the reference host is well under 1 ns; see DESIGN.md §5.8).
//!
//! Both arms walk the same pseudo-random item sequence (an LCG, no RNG in
//! the measured loop) over a 100k-item keyspace at 8 shards — the Q12
//! experiment's full-scale shape — so cache behaviour is comparable: the
//! directory arm touches the 400 KB owner table, the modulo arm only the
//! index stream.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qc_sim::{PlacementDirectory, SeedPlacement};

const ITEMS: usize = 100_000;
const SHARDS: usize = 8;

/// The next item index from a splitmix-style walk (multiplicative LCG
/// keeps the measured loop branch- and allocation-free).
#[inline]
fn next_item(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as usize) % ITEMS
}

fn bench_lookup(c: &mut Criterion) {
    let dir = PlacementDirectory::seed(ITEMS, SHARDS, SeedPlacement::RoundRobin);
    let mut group = c.benchmark_group("placement_lookup");
    group.bench_function(BenchmarkId::new("modulo", "100k items / 8 shards"), |b| {
        let mut state = 0x9E3779B97F4A7C15u64;
        b.iter(|| {
            let g = next_item(&mut state);
            black_box(black_box(g) % SHARDS)
        })
    });
    group.bench_function(
        BenchmarkId::new("directory", "100k items / 8 shards"),
        |b| {
            let mut state = 0x9E3779B97F4A7C15u64;
            b.iter(|| {
                let g = next_item(&mut state);
                black_box(dir.owner_of(black_box(g)))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
