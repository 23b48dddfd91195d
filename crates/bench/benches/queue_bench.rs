//! Criterion benches for the event-queue implementations: the calendar
//! queue (the simulators' default) against the binary-heap oracle.
//!
//! `queue_shape/<name>/{calendar,heap}` replays a script recorded from the
//! drivers' own `pop_until` loop (`crates/sim/tests/queue_shapes`) — one pre-drawn
//! script per shape, the identical operations through both queues, so a
//! row pair differs in the queue and nothing else: `periodic` is the routed
//! sharded driver's hot shard (12 500 heterogeneous periodic streams),
//! `bimodal` the faulted single-item driver's 8 round-trip timers beside 14
//! timers seconds away, `drift` a migration barrier taking the hottest
//! streams away mid-script. Read per element: one element is one queue
//! operation.
//!
//! `queue_hold/…` is the classic *hold* model with iid delays — a
//! steady-state queue of N pending events where each iteration pops the
//! minimum and schedules a successor at `popped time + delay` — under
//! three delay distributions:
//!
//! * **near-future** — uniform 200–600 µs, the LAN round-trip band: every
//!   event lands within a bucket-day or two of the virtual clock, the
//!   calendar's O(1) enqueue/dequeue sweet spot.
//! * **wan-tail** — a 90/10 mix of 0.5–2 ms body and 100 ms–5 s tail,
//!   modelling WAN retries and repair timers: events spread over a long
//!   horizon, stressing bucket-day scanning and width adaptation.
//! * **same-instant** — delays of 0/1 µs, the same-instant flood case
//!   ordered almost entirely by `seq`.
//!
//! This bench is the interactive view; the gated measurement of the same
//! hold model is `benchmark/`'s `queue.hold_ns_per_event`.

#[path = "../../sim/tests/queue_shapes/mod.rs"]
mod queue_shapes;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qc_sim::{CalendarQueue, EventQueue, HeapQueue, SimTime};
use queue_shapes::{apply, Op};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One sampled inter-event delay (µs) for the named distribution.
fn delay(dist: &str, rng: &mut ChaCha8Rng) -> u64 {
    match dist {
        "near-future" => rng.gen_range(200..600),
        "wan-tail" => {
            if rng.gen_range(0u32..10) == 0 {
                rng.gen_range(100_000..5_000_000)
            } else {
                rng.gen_range(500..2_000)
            }
        }
        _ => rng.gen_range(0..2), // same-instant floods
    }
}

/// Run the hold loop: pop the minimum, reschedule at `t + delay`.
fn hold<Q: EventQueue<u64>>(q: &mut Q, seq: &mut u64, dist: &str, rng: &mut ChaCha8Rng) -> u64 {
    let (t, _, payload) = q.pop().expect("hold queue never drains");
    *seq += 1;
    q.push(t + SimTime(delay(dist, rng)), *seq, payload);
    payload
}

fn prefill<Q: EventQueue<u64>>(q: &mut Q, n: u64, dist: &str, rng: &mut ChaCha8Rng) -> u64 {
    for seq in 0..n {
        q.push(SimTime(delay(dist, rng)), seq, seq);
    }
    n
}

fn bench_hold(c: &mut Criterion) {
    for dist in ["near-future", "wan-tail", "same-instant"] {
        let mut g = c.benchmark_group(format!("queue_hold/{dist}"));
        // 16 pending events is the simulators' own load (clients + site
        // timers); the larger sizes show how the structures scale.
        for size in [16u64, 256, 4096] {
            g.bench_with_input(BenchmarkId::new("calendar", size), &size, |b, &size| {
                let mut rng = ChaCha8Rng::seed_from_u64(7);
                let mut q = CalendarQueue::new();
                let mut seq = prefill(&mut q, size, dist, &mut rng);
                b.iter(|| hold(&mut q, &mut seq, dist, &mut rng));
            });
            g.bench_with_input(BenchmarkId::new("heap", size), &size, |b, &size| {
                let mut rng = ChaCha8Rng::seed_from_u64(7);
                let mut q = HeapQueue::new();
                let mut seq = prefill(&mut q, size, dist, &mut rng);
                b.iter(|| hold(&mut q, &mut seq, dist, &mut rng));
            });
        }
        g.finish();
    }
}

/// Replay a whole script on a fresh queue; the checksum keeps the pops live.
fn replay<Q: EventQueue<u64>>(mut q: Q, script: &[Op]) -> u64 {
    let mut sum = 0u64;
    for &op in script {
        if let Some((t, seq)) = apply(&mut q, op) {
            sum = sum.wrapping_mul(31).wrapping_add(t ^ seq);
        }
    }
    sum
}

fn bench_shapes(c: &mut Criterion) {
    for shape in queue_shapes::all(23, 1).into_iter().take(3) {
        let mut g = c.benchmark_group(format!("queue_shape/{}", shape.name));
        g.throughput(Throughput::Elements(shape.script.len() as u64));
        g.bench_function("calendar", |b| {
            b.iter(|| replay(CalendarQueue::new(), &shape.script));
        });
        g.bench_function("heap", |b| {
            b.iter(|| replay(HeapQueue::new(), &shape.script));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_shapes, bench_hold);
criterion_main!(benches);
