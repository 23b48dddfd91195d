//! [K] kernels: a layer's public function called in a loop with inputs
//! shaped like the workload's (site count, pending events, quorum sizes,
//! keyspace), reported as nanoseconds per call.
//!
//! A kernel says what one call costs in isolation — warm caches, nothing
//! else competing — so `ns × calls per commit` is an *estimate* of the
//! layer's share (`*.est_share`), not a measurement of it. The measured
//! shares are the [A] ablation pairs.

use std::hint::black_box;
use std::time::Instant;

use nested_txn::{BankingGen, WorkloadKind};
use qc_cc::{Acquire, LockMode, LockTable, PathTid};
use qc_obs::Histogram;
use qc_sim::{
    cum_weight_table, plan_moves, CalendarQueue, DmArena, ElasticPolicy, EventQueue, FaultPlan,
    ItemDist, LatencyModel, OpStats, PlacementDirectory, SeedPlacement, SimTime,
};
use quorum::{QuorumSpec, ReplicaSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats::median;
use crate::workloads::FAULT_PLAN;

/// Batches per kernel; the reported figure is the median batch.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean time of `f(i)` over
/// `iters` calls, in nanoseconds.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// `n` latency samples from `model`, drawn the way the simulators draw
/// them (ChaCha8 seeded from the run's seed).
fn delays(model: &LatencyModel, seed: u64, n: usize) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| model.sample(&mut rng).as_micros()).collect()
}

/// The classic *hold* model on the calendar queue: `pending` events in
/// flight, each iteration pops the minimum and schedules a successor one
/// round trip later. Delays are pre-drawn so the RNG is not in the loop.
#[must_use]
pub fn queue_hold_ns(pending: usize, model: &LatencyModel, seed: u64) -> f64 {
    let table = delays(model, seed, 4096);
    let rtt = |i: u64| table[(2 * i) as usize % 4096] + table[(2 * i + 1) as usize % 4096];
    let mut q = CalendarQueue::new();
    let mut seq = 0u64;
    for i in 0..pending as u64 {
        q.push(SimTime(rtt(i)), seq, i);
        seq += 1;
    }
    ns_per_call(400_000, |i| {
        let (t, _, payload) = q.pop().expect("the hold queue never drains");
        seq += 1;
        q.push(SimTime(t.as_micros() + rtt(i)), seq, payload);
        black_box(payload);
    })
}

/// One `LatencyModel::sample` on the simulators' RNG.
#[must_use]
pub fn latency_sample_ns(model: &LatencyModel, seed: u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    ns_per_call(1_000_000, |_| {
        black_box(model.sample(&mut rng));
    })
}

/// Every subset of `0..n` sites, as the response sets a phase sees grow.
fn subsets(n: usize) -> Vec<ReplicaSet> {
    (0..1u128 << n.min(10)).map(ReplicaSet::from_bits).collect()
}

/// One `is_read_quorum_bits` / `is_write_quorum_bits` (alternating) over
/// all subsets of the sites, through the `dyn QuorumSpec` the configs hold.
#[must_use]
pub fn is_quorum_ns(q: &dyn QuorumSpec) -> f64 {
    let sets = subsets(q.n());
    ns_per_call(2_000_000, |i| {
        let s = black_box(sets[i as usize % sets.len()]);
        black_box(if i & 1 == 0 {
            q.is_read_quorum_bits(s)
        } else {
            q.is_write_quorum_bits(s)
        });
    })
}

/// One `find_read_quorum_bits` / `find_write_quorum_bits` (alternating)
/// over all subsets of the sites as the live set.
#[must_use]
pub fn find_quorum_ns(q: &dyn QuorumSpec) -> f64 {
    let sets = subsets(q.n());
    ns_per_call(2_000_000, |i| {
        let live = black_box(sets[i as usize % sets.len()]);
        black_box(if i & 1 == 0 {
            q.find_read_quorum_bits(live)
        } else {
            q.find_write_quorum_bits(live)
        });
    })
}

/// One `DmArena::discover` over a read quorum of `q`, cycling through
/// `items` items' replica blocks.
#[must_use]
pub fn arena_discover_ns(q: &dyn QuorumSpec, items: usize) -> f64 {
    let n = q.n();
    let mut arena = DmArena::new_configured(n * items, n);
    for slot in 0..arena.len() {
        arena.set(slot, (slot % 7) as u64, slot as u64);
    }
    let quorum = q
        .find_read_quorum_bits(ReplicaSet::full(n))
        .expect("the full site set holds a read quorum");
    ns_per_call(2_000_000, |i| {
        let base = (i as usize % items) * n;
        black_box(arena.discover(black_box(base), quorum.iter()));
    })
}

/// One `DmArena::set` (a version install at one replica).
#[must_use]
pub fn arena_set_ns(q: &dyn QuorumSpec, items: usize) -> f64 {
    let n = q.n();
    let mut arena = DmArena::new_configured(n * items, n);
    let slots = arena.len();
    ns_per_call(4_000_000, |i| {
        arena.set(black_box(i as usize % slots), i, i ^ 0x5bd1);
    })
}

/// One `OpStats::record_success` (a counter bump, an 8-byte raw latency
/// sample pushed, a histogram record).
#[must_use]
pub fn metrics_record_ns() -> f64 {
    let mut stats = OpStats::default();
    let ns = ns_per_call(400_000, |i| {
        stats.record_success(SimTime(900 + (i & 255)), 6);
    });
    black_box(stats.successes);
    ns
}

/// One `Histogram::record`.
#[must_use]
pub fn hist_record_ns() -> f64 {
    let mut h = Histogram::new();
    let ns = ns_per_call(2_000_000, |i| {
        h.record(black_box(200 + (i.wrapping_mul(2_654_435_761) & 0xfff)));
    });
    black_box(h.count());
    ns
}

/// One `PlacementDirectory::owner_of` at a scattered item.
#[must_use]
pub fn owner_of_ns(items: usize, shards: usize) -> f64 {
    let dir = PlacementDirectory::seed(items, shards, SeedPlacement::Range);
    ns_per_call(4_000_000, |i| {
        let g = (i.wrapping_mul(2_654_435_761) % items as u64) as usize;
        black_box(dir.owner_of(black_box(g)));
    })
}

/// Commit deltas of one 250 ms epoch at 20 000 routed arrivals/s under
/// zipf(θ): what `plan_moves` is handed at a barrier.
fn epoch_deltas(items: usize, theta: f64) -> Vec<u64> {
    let globals: Vec<usize> = (0..items).collect();
    let (cum, total) = cum_weight_table(&globals, ItemDist::Zipfian { theta });
    let mut prev = 0.0;
    cum.iter()
        .map(|&c| {
            let share = (c - prev) / total;
            prev = c;
            (share * 5_000.0).round() as u64
        })
        .collect()
}

/// One `plan_moves` over a range-seeded directory (the first, most
/// lopsided barrier of `sharded_zipf_elastic`), in microseconds.
#[must_use]
pub fn plan_moves_us(items: usize, shards: usize) -> f64 {
    let dir = PlacementDirectory::seed(items, shards, SeedPlacement::Range);
    let deltas = epoch_deltas(items, 0.99);
    let pol = ElasticPolicy::new();
    ns_per_call(40, |_| {
        black_box(plan_moves(black_box(&deltas), &dir, &pol));
    }) / 1_000.0
}

/// Building the placement directory and the zipfian cumulative-weight
/// table, per item — the per-run fixed cost that scales with the keyspace.
#[must_use]
pub fn placement_setup_ns_per_item(items: usize, shards: usize) -> f64 {
    let globals: Vec<usize> = (0..items).collect();
    ns_per_call(10, |_| {
        black_box(PlacementDirectory::seed(
            items,
            shards,
            SeedPlacement::Range,
        ));
        black_box(cum_weight_table(
            black_box(&globals),
            ItemDist::Zipfian { theta: 0.99 },
        ));
    }) / items as f64
}

/// One uncontended lock cycle: `acquire` (granted) + `release_top`.
#[must_use]
pub fn lock_cycle_ns(items: usize) -> f64 {
    let mut table = LockTable::new(items);
    ns_per_call(2_000_000, |i| {
        let item = i as usize % items;
        let (client, epoch) = ((i & 63) as u32, (i >> 6) as u32);
        black_box(table.acquire(item, PathTid::top(client, epoch), LockMode::Write));
        black_box(table.release_top(item, client, epoch));
    })
}

/// One contended hand-over: holder A, `acquire` by B queues, A releases,
/// `rescan` grants B, B releases — the whole five-call cycle.
#[must_use]
pub fn lock_conflict_ns(items: usize) -> f64 {
    let mut table = LockTable::new(items);
    ns_per_call(1_000_000, |i| {
        let item = i as usize % items;
        let epoch = i as u32;
        table.acquire(item, PathTid::top(0, epoch), LockMode::Write);
        let queued = table.acquire(item, PathTid::top(1, epoch), LockMode::Write);
        debug_assert!(matches!(queued, Acquire::Queued(_)));
        table.release_top(item, 0, epoch);
        black_box(table.rescan(item));
        table.release_top(item, 1, epoch);
    })
}

/// One banking program tree generated (`WorkloadKind::program`).
#[must_use]
pub fn program_gen_ns(accounts: u32) -> f64 {
    let kind = WorkloadKind::Banking(BankingGen::new(accounts));
    ns_per_call(200_000, |i| {
        black_box(kind.program(black_box(i)));
    })
}

/// One `FaultPlan::parse` of the scripted plan, in microseconds.
#[must_use]
pub fn fault_parse_us() -> f64 {
    ns_per_call(20_000, |_| {
        black_box(FaultPlan::parse(black_box(FAULT_PLAN)).expect("the plan parses"));
    }) / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum::Majority;

    #[test]
    fn epoch_deltas_follow_the_zipf_head() {
        let d = epoch_deltas(1_000, 0.99);
        assert_eq!(d.len(), 1_000);
        assert!(d[0] > d[10] && d[10] > d[999]);
        let total: u64 = d.iter().sum();
        assert!((4_500..=5_500).contains(&total), "{total}");
    }

    #[test]
    fn subsets_cover_the_power_set() {
        let s = subsets(5);
        assert_eq!(s.len(), 32);
        assert_eq!(s[31], ReplicaSet::full(5));
        let q = Majority::new(5);
        assert!(q.is_read_quorum_bits(s[31]) && !q.is_read_quorum_bits(s[1]));
    }
}
