//! Criterion benches for the discrete-event simulator: event-loop
//! throughput with and without failure processes, across quorum systems.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qc_sim::{default_threads, run, run_batch, ContactPolicy, SimConfig, SimTime};
use quorum::{Grid, Majority, QuorumSpec, Rowa};

fn config(q: Arc<dyn QuorumSpec + Send + Sync>, failures: bool, seed: u64) -> SimConfig {
    let mut c = SimConfig::new(q);
    c.clients = 8;
    c.read_fraction = 0.9;
    c.contact = ContactPolicy::MinimalQuorum;
    c.think_time = SimTime::from_millis(0);
    c.duration = SimTime::from_secs(2);
    if failures {
        c.mttf = Some(SimTime::from_secs(5));
        c.mttr = SimTime::from_millis(500);
    }
    c.seed = seed;
    c
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_2s_run");
    g.sample_size(20);
    let systems: Vec<Arc<dyn QuorumSpec + Send + Sync>> = vec![
        Arc::new(Rowa::new(5)),
        Arc::new(Majority::new(5)),
        Arc::new(Majority::new(25)),
        Arc::new(Grid::new(5, 5)),
    ];
    for q in &systems {
        g.bench_with_input(BenchmarkId::new("healthy", q.label()), q, |b, q| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                run(config(Arc::clone(q), false, seed))
            })
        });
    }
    let maj = Arc::new(Majority::new(5)) as Arc<dyn QuorumSpec + Send + Sync>;
    g.bench_function("with_failures/majority(3of5)", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run(config(Arc::clone(&maj), true, seed))
        })
    });
    g.finish();
}

/// The parallel sweep runner on an 8-cell grid, serial vs all cores. On a
/// multi-core host the batch time should shrink toward
/// `serial / default_threads()`; the per-cell metrics are identical either
/// way.
fn bench_sweep_runner(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_runner_8x2s");
    g.sample_size(10);
    let grid = |seed0: u64| -> Vec<SimConfig> {
        (0..8)
            .map(|i| {
                config(
                    Arc::new(Majority::new(5)) as Arc<dyn QuorumSpec + Send + Sync>,
                    false,
                    seed0 + i,
                )
            })
            .collect()
    };
    for threads in [1, default_threads()] {
        g.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let mut seed0 = 0u64;
                b.iter(|| {
                    seed0 += 100;
                    run_batch(grid(seed0), threads)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_simulator, bench_sweep_runner);
criterion_main!(benches);
