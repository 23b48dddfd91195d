//! Property-based tests for the elastic placement layer: the zipfian
//! cumulative-weight table the routed workload draws from, the placement
//! directory's partition invariant, the determinism and cap discipline of
//! the greedy rebalancer, the `migrate@` fault-grammar round-trip, and the
//! slot-reuse wall: arbitrary scripted migration plans over the sharded
//! simulator's stable item slots keep every oracle green.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

use std::sync::Arc;

use proptest::prelude::*;
use qc_sim::{
    check_trace, cum_weight_table, item_weight, plan_moves, run_sharded_elastic, run_sharded_with,
    ElasticPolicy, FaultPlan, ItemDist, MultiConfig, PlacementDirectory, PlacementPolicy,
    PlacementReport, QueueKind, ReconfigPolicy, ScheduleTrace, SeedPlacement, ShardReport, SimTime,
    Traces, Workload,
};
use quorum::{Majority, Rowa};

/// A strictly-increasing global item subset (what one shard owns).
fn item_subset() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0usize..256, 1..24).prop_map(|s| s.into_iter().collect())
}

fn dist(theta_centi: u32) -> ItemDist {
    if theta_centi == 0 {
        ItemDist::Uniform
    } else {
        ItemDist::Zipfian {
            theta: f64::from(theta_centi) / 100.0,
        }
    }
}

const MIG_ITEMS: usize = 12;
const MIG_SHARDS: usize = 3;
/// Scripted barriers, in ms: few enough that several moves share one.
const MIG_BARRIERS: [u64; 5] = [60, 110, 170, 260, 330];

/// A scripted migration plan as `(barrier index, item, destination)`
/// triples: a random scatter (bounces and same-barrier batches arise on
/// their own over five barriers and twelve items), optionally preceded by
/// draining one shard completely at the first barrier and sending the
/// drained items back at the third — every slot of that shard freed, then
/// refilled.
fn migration_plan() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    (
        prop::collection::vec((0usize..5, 0usize..MIG_ITEMS, 0usize..MIG_SHARDS), 0..20),
        0usize..2 * MIG_SHARDS,
    )
        .prop_map(|(mut plan, drain)| {
            if drain < MIG_SHARDS {
                // Round-robin seeding: shard `drain` owns g ≡ drain (mod 3).
                for g in (drain..MIG_ITEMS).step_by(MIG_SHARDS) {
                    plan.push((0, g, (drain + 1) % MIG_SHARDS));
                    plan.push((2, g, drain));
                }
            }
            plan
        })
}

/// The workload of a migration case: closed-loop clients, routed arrivals
/// dense enough that every item arrives, or routed arrivals `sparse_ms`
/// apart in aggregate — at 100 ms or more, most of the 12 items have no
/// arrival in 400 ms, so the plan migrates, drains and refills items
/// that no arrival gave a slot.
fn migration_workload(mode: u8, sparse_ms: u64) -> Workload {
    match mode {
        0 => Workload::Closed {
            think: SimTime::from_millis(2),
        },
        1 => Workload::Routed {
            interarrival: SimTime::from_millis(1),
        },
        _ => Workload::Routed {
            interarrival: SimTime::from_millis(sparse_ms),
        },
    }
}

fn migration_config(
    plan: &[(usize, usize, usize)],
    seed: u64,
    workload: Workload,
    rowa: bool,
    queue: QueueKind,
) -> MultiConfig {
    let mut c = if rowa {
        MultiConfig::new(Arc::new(Rowa::new(3)))
    } else {
        MultiConfig::new(Arc::new(Majority::new(3)))
    };
    c.items = MIG_ITEMS;
    c.shards = MIG_SHARDS;
    c.clients_per_shard = 2;
    c.read_fraction = 0.5;
    c.dist = ItemDist::Zipfian { theta: 0.9 };
    c.workload = workload;
    c.duration = SimTime::from_millis(400);
    c.seed = seed;
    c.queue = queue;
    c.reconfig = ReconfigPolicy::scripted_only();
    // Rebalancing off: exactly the scripted moves fire.
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        seed: SeedPlacement::RoundRobin,
        max_moves_per_epoch: 0,
        ..ElasticPolicy::new()
    });
    for &(b, item, to) in plan {
        c.faults = c
            .faults
            .migrate_at(SimTime::from_millis(MIG_BARRIERS[b]), item, to);
    }
    c
}

proptest! {
    /// Slot reuse under arbitrary scripted plans: whatever items leave and
    /// join whichever shards in whatever order — several per barrier,
    /// bounces, a shard emptied and refilled — the lemma monitor stays
    /// silent, every item's spliced schedule (its history spans every
    /// shard it visited) replays through Theorem 10, the reports are
    /// bit-identical across thread counts and queue implementations, and
    /// every item still has exactly one owner. The sparse routed arm
    /// moves items that have no slot until the move gives them one.
    #[test]
    fn scripted_migrations_reuse_slots_safely(
        plan in migration_plan(),
        seed in 0u64..1_000_000,
        mode in (0u8..3, 0u8..2, 100u64..400),
        run in (1usize..4, 0u8..2),
    ) {
        let (workload, rowa) = (migration_workload(mode.0, mode.2), mode.1 == 1);
        let (threads, heap) = (run.0, run.1 == 1);
        let c = migration_config(&plan, seed, workload, rowa, QueueKind::Calendar);
        let (report, traces, placement) = run_elastic_traces(&c, 1);
        prop_assert_eq!(
            report.metrics.lemma_violations, 0,
            "violations: {:?}", report.metrics.violations
        );
        prop_assert_eq!(placement.migration_failures, 0);
        prop_assert_eq!(placement.final_counts.iter().sum::<usize>(), MIG_ITEMS);
        prop_assert_eq!(report.metrics.reconfigurations, placement.migrations);
        let mut bumps = 0u64;
        for (g, trace) in traces.iter().enumerate() {
            let conf = check_trace(trace, &*c.quorum).map_err(|d| {
                TestCaseError::fail(format!("item {g} diverged: {d}"))
            })?;
            prop_assert_eq!(conf.max_vn, report.item_vns[g], "item {}", g);
            // Reconfig TMs commit alongside data ops; the surplus over the
            // item's data commits is its migration fences.
            prop_assert!(conf.committed as u64 >= report.item_commits[g], "item {}", g);
            bumps += conf.committed as u64 - report.item_commits[g];
        }
        prop_assert_eq!(bumps, placement.migrations);
        // The untraced run on another thread count and queue is the same run.
        let queue = if heap { QueueKind::Heap } else { QueueKind::Calendar };
        let other = migration_config(&plan, seed, workload, rowa, queue);
        let (r2, p2) = run_sharded_elastic(&other, threads);
        prop_assert_eq!(r2.digest(), report.digest(), "threads {} heap {}", threads, heap);
        prop_assert_eq!(p2.digest(), placement.digest(), "placement, threads {} heap {}", threads, heap);
    }

    /// The table is strictly monotone, starts at the first item's weight,
    /// and its last entry equals the returned total — for any subset and
    /// any skew.
    #[test]
    fn cum_weight_table_is_monotone_and_normalized(
        items in item_subset(),
        theta_centi in 0u32..300,
    ) {
        let d = dist(theta_centi);
        let (cw, total) = cum_weight_table(&items, d);
        prop_assert_eq!(cw.len(), items.len());
        let mut prev = 0.0;
        for (&g, &c) in items.iter().zip(&cw) {
            prop_assert!(c > prev, "non-increasing at item {}", g);
            let w = item_weight(g, d);
            prop_assert!((c - prev - w).abs() < 1e-9 * total, "increment != weight({})", g);
            prev = c;
        }
        prop_assert!((cw[cw.len() - 1] - total).abs() < 1e-9 * total.max(1.0));
    }

    /// θ = 0 degenerates to uniform: every increment is exactly 1.
    #[test]
    fn theta_zero_is_uniform(items in item_subset()) {
        let (cw, total) = cum_weight_table(&items, ItemDist::Zipfian { theta: 0.0 });
        let (uni, uni_total) = cum_weight_table(&items, ItemDist::Uniform);
        prop_assert_eq!(cw.len(), uni.len());
        for (a, b) in cw.iter().zip(&uni) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        prop_assert!((total - uni_total).abs() < 1e-9);
        prop_assert!((total - items.len() as f64).abs() < 1e-9);
    }

    /// Large θ concentrates essentially all weight on the head item: with
    /// θ = 3, item 0 alone holds more than the rest of a 256-item
    /// keyspace combined.
    #[test]
    fn large_theta_concentrates_on_the_head(n in 2usize..256) {
        let items: Vec<usize> = (0..n).collect();
        let d = ItemDist::Zipfian { theta: 3.0 };
        let (cw, total) = cum_weight_table(&items, d);
        let head = cw[0];
        prop_assert!(
            head > total - head,
            "head {} vs tail {} at n = {}",
            head, total - head, n
        );
        // And the table edge cases: one item gets everything.
        let (solo, solo_total) = cum_weight_table(&items[..1], d);
        prop_assert_eq!(solo.len(), 1);
        prop_assert!((solo[0] - solo_total).abs() < 1e-12);
    }

    /// Both seed layouts produce an exact partition: each item has one
    /// owner, `owned_by` lists are sorted and disjoint, and the counts
    /// vector sums back to the keyspace. With `items == shards` every
    /// shard owns exactly one item.
    #[test]
    fn seed_layouts_partition_the_keyspace(
        items in 1usize..200,
        shards_raw in 1usize..9,
        range in 0u8..2,
    ) {
        let shards = shards_raw.min(items);
        let layout = if range == 1 { SeedPlacement::Range } else { SeedPlacement::RoundRobin };
        let dir = PlacementDirectory::seed(items, shards, layout);
        prop_assert_eq!(dir.items(), items);
        prop_assert_eq!(dir.shards(), shards);
        let mut seen = vec![false; items];
        for s in 0..shards {
            let owned = dir.owned_by(s);
            prop_assert!(owned.windows(2).all(|w| w[0] < w[1]), "unsorted shard {}", s);
            for g in owned {
                prop_assert!(!seen[g], "item {} owned twice", g);
                seen[g] = true;
                prop_assert_eq!(dir.owner_of(g), s);
            }
        }
        prop_assert!(seen.iter().all(|&x| x), "unowned item");
        prop_assert_eq!(dir.counts().iter().sum::<usize>(), items);
        if items == shards {
            prop_assert!(dir.counts().iter().all(|&c| c == 1));
        }
    }

    /// The greedy planner respects its cap, never proposes a no-op or
    /// out-of-range move, never moves the same item twice, and is a pure
    /// function of its inputs.
    #[test]
    fn plan_moves_is_capped_sane_and_deterministic(
        deltas in prop::collection::vec(0u64..10_000, 1..64),
        shards_raw in 2usize..8,
        cap in 0usize..16,
        hot_ratio_centi in 100u32..200,
    ) {
        let shards = shards_raw.min(deltas.len());
        let dir = PlacementDirectory::seed(deltas.len(), shards, SeedPlacement::Range);
        let pol = ElasticPolicy {
            max_moves_per_epoch: cap,
            hot_ratio: f64::from(hot_ratio_centi) / 100.0,
            min_epoch_commits: 1,
            ..ElasticPolicy::new()
        };
        let moves = plan_moves(&deltas, &dir, &pol);
        prop_assert!(moves.len() <= cap);
        let mut moved = std::collections::BTreeSet::new();
        for m in &moves {
            prop_assert!(m.item < deltas.len());
            prop_assert!(m.to < shards);
            prop_assert_ne!(m.from, m.to);
            prop_assert_eq!(m.from, dir.owner_of(m.item));
            prop_assert!(moved.insert(m.item), "item {} moved twice", m.item);
        }
        prop_assert_eq!(&plan_moves(&deltas, &dir, &pol), &moves);
    }

    /// Moves only flow downhill: applying the plan never makes the
    /// receiving shard hotter than the donor was, and a perfectly flat
    /// load plans no moves at all.
    #[test]
    fn plan_moves_flow_downhill(
        deltas in prop::collection::vec(0u64..10_000, 4..64),
        shards_raw in 2usize..8,
    ) {
        let shards = shards_raw.min(deltas.len());
        let dir = PlacementDirectory::seed(deltas.len(), shards, SeedPlacement::Range);
        let pol = ElasticPolicy {
            max_moves_per_epoch: 8,
            min_epoch_commits: 1,
            ..ElasticPolicy::new()
        };
        let mut load = vec![0u64; shards];
        for (g, &d) in deltas.iter().enumerate() {
            load[dir.owner_of(g)] += d;
        }
        for m in plan_moves(&deltas, &dir, &pol) {
            let donor_before = load[m.from];
            load[m.from] -= deltas[m.item];
            load[m.to] += deltas[m.item];
            prop_assert!(
                load[m.to] <= donor_before,
                "move {:?} overloaded the receiver", m
            );
        }
        let flat = vec![100u64; shards];
        let flat_dir = PlacementDirectory::seed(shards, shards, SeedPlacement::RoundRobin);
        prop_assert!(plan_moves(&flat, &flat_dir, &pol).is_empty());
    }

    /// `migrate@` round-trips through the fault-plan grammar alongside
    /// the existing verbs.
    #[test]
    fn migrate_grammar_round_trips(
        at_ms in 1u64..10_000,
        item in 0usize..1_000,
        to in 0usize..64,
    ) {
        let plan = FaultPlan::new().migrate_at(SimTime::from_millis(at_ms), item, to);
        let spec: Vec<String> = plan.events().iter().map(|(t, e)| e.text(*t)).collect();
        let reparsed = FaultPlan::parse(&spec.join(";")).expect("own rendering parses");
        prop_assert_eq!(reparsed.events(), plan.events());
    }
}

/// The report, one schedule trace per item, and the placement report.
fn run_elastic_traces(
    c: &MultiConfig,
    threads: usize,
) -> (ShardReport, Vec<ScheduleTrace>, PlacementReport) {
    let mut traces = Traces::new(&*c.quorum, c.seed, c.items);
    let (report, placement) = run_sharded_with(c, threads, &mut traces);
    (report, traces.into_traces(), placement)
}
