//! Q12 — elastic rebalancing: shard load of the sharded simulator under
//! zipfian skew, with and without the deterministic hot-item rebalancer.
//!
//! A *routed* open workload over a *range* seed placement concentrates
//! the zipf head on one shard, which then carries several times its fair
//! share of every epoch's commits. The elastic control plane migrates hot
//! items off the loaded shard at simulated-time epoch barriers — each
//! move a §4 generation bump over unchanged members, so the whole run
//! stays deterministic and Theorem 10-conformant. (What the collapse
//! costs the host is `benchmark/`'s `placement.frozen_ratio`.)
//!
//! Three sections, all written to `results/BENCH_rebalance.json`:
//!
//! 1. **Determinism** — `ShardReport` and `PlacementReport` digests of an
//!    elastic zipfian run on 1/2/4 threads × calendar/heap queues; the
//!    experiment *asserts* all six agree and that migrations happened.
//! 2. **Conformance** — the same run traced; every per-item schedule
//!    (including items whose history spans two shards) must replay
//!    through the generation-aware Theorem 10 checker (asserted).
//! 3. **Skew sweep** — for θ ∈ {0, 0.9, 0.99}: the range-seeded
//!    *collapsed* control (epoch barriers present, rebalancing disabled)
//!    vs the *elastic* run. Reports committed ops, migrations, and the
//!    final-epoch shard-load ratio (max/mean, 1.0 = flat); asserts the
//!    elastic zipfian arms end ≥ 2× flatter than their collapsed controls.
//!
//! Flags: `--items N` (default 100000), `--shards S` (default 8),
//! `--secs N` (default 10), `--seed N` (default 29), `--threads T`
//! (default: all cores), `--smoke` (CI leg: shrink everything).

use std::sync::Arc;

use qc_sim::{
    check_trace, run_sharded_elastic, run_sharded_with, ContactPolicy, ElasticPolicy, ItemDist,
    MultiConfig, PlacementPolicy, PlacementReport, QueueKind, ReconfigPolicy, SimTime, Traces,
    Workload,
};
use quorum::Majority;
use serde_json::JsonObject;

use crate::cli::Flags;
use crate::report::{same_on_1_2_4, write_results, Table};

fn config(items: usize, shards: usize, secs: u64, seed: u64, theta: f64) -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
    c.contact = ContactPolicy::MinimalQuorum;
    c.items = items;
    c.shards = shards;
    // One aggregate arrival per 50 µs across the keyspace, split by item
    // weight — the same offered load at every θ.
    c.workload = Workload::Routed {
        interarrival: SimTime(50),
    };
    c.dist = if theta > 0.0 {
        ItemDist::Zipfian { theta }
    } else {
        ItemDist::Uniform
    };
    c.duration = SimTime::from_secs(secs);
    c.seed = seed;
    c.reconfig = ReconfigPolicy::scripted_only();
    c.placement = PlacementPolicy::Elastic(ElasticPolicy::new());
    c
}

fn with_moves(mut c: MultiConfig, max_moves: usize) -> MultiConfig {
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        max_moves_per_epoch: max_moves,
        ..ElasticPolicy::new()
    });
    c
}

/// Max/mean shard-commit ratio of the run's last full epoch (1.0 = flat).
fn final_load_ratio(p: &PlacementReport) -> f64 {
    let last = p.epochs.last().expect("at least the final sample");
    let max = *last.shard_commits.iter().max().unwrap() as f64;
    let total: u64 = last.shard_commits.iter().sum();
    if total == 0 {
        return 1.0;
    }
    max * last.shard_commits.len() as f64 / total as f64
}

pub(crate) fn run(flags: &Flags) -> Result<(), String> {
    let smoke = flags.smoke();
    let items: usize = flags
        .get("--items")?
        .unwrap_or(if smoke { 512 } else { 100_000 });
    let shards: usize = flags.get("--shards")?.unwrap_or(if smoke { 4 } else { 8 });
    let secs: u64 = flags.get("--secs")?.unwrap_or(if smoke { 2 } else { 10 });
    let seed: u64 = flags.get("--seed")?.unwrap_or(29);
    let threads = flags.threads()?.min(shards);

    println!(
        "Q12 — elastic rebalancing (n = 5 majority, {items} items, {shards} shards, \
         routed 20k ops/s, {secs} s simulated{})\n",
        if smoke { ", smoke" } else { "" }
    );

    // 1. Determinism: both digests identical across thread counts and
    // queue implementations, with real migrations in the run.
    let det_cfg = config(items.min(4096), shards, secs.min(2), seed, 0.99);
    let (digest0, pdigest0, migrations0) = same_on_1_2_4(
        "(ShardReport digest, PlacementReport digest, migrations)",
        &[QueueKind::Calendar, QueueKind::Heap],
        |queue, t| {
            let mut c = det_cfg.clone();
            c.queue = queue;
            let (r, p) = run_sharded_elastic(&c, t);
            (r.digest(), p.digest(), p.migrations)
        },
        |&k| k,
    );
    assert!(migrations0 > 0, "the determinism scenario must migrate");
    println!(
        "determinism: digest {digest0:#018x} / placement {pdigest0:#018x} identical on \
         1/2/4 threads x calendar/heap ({migrations0} migrations)"
    );

    // 2. Conformance: every per-item schedule — including migrated items
    // whose history spans two shards — replays through Theorem 10.
    let mut traces = Traces::new(&*det_cfg.quorum, det_cfg.seed, det_cfg.items);
    let (traced_report, traced_placement) = run_sharded_with(&det_cfg, threads, &mut traces);
    let traces = traces.into_traces();
    assert_eq!(traced_report.digest(), digest0, "tracing perturbed the run");
    assert_eq!(traced_placement.digest(), pdigest0);
    let mut traced_events = 0usize;
    for (g, trace) in traces.iter().enumerate() {
        let conf = check_trace(trace, &*det_cfg.quorum)
            .unwrap_or_else(|d| panic!("item {g} diverged from the serial system: {d}"));
        traced_events += conf.events;
    }
    assert_eq!(
        traced_report.metrics.lemma_violations, 0,
        "violations: {:?}",
        traced_report.metrics.violations
    );
    println!(
        "conformance: {} items, {traced_events} trace events, all conformant \
         (incl. {} migrations)\n",
        traces.len(),
        traced_placement.migrations
    );

    // 3. Skew sweep: collapsed control vs elastic, per θ.
    let table = Table::header(&[
        ("theta", 6),
        ("arm", 11),
        ("commits", 10),
        ("moves", 11),
        ("load ratio", 11),
    ]);
    let mut sweep_rows = Vec::new();
    let mut checks = Vec::new();
    for theta in [0.0, 0.9, 0.99] {
        let mut per_theta = Vec::new();
        for (arm, max_moves) in [("collapsed", 0usize), ("elastic", 64)] {
            if theta == 0.0 && arm == "collapsed" {
                // Uniform load does not collapse; one reference arm.
                continue;
            }
            let c = with_moves(config(items, shards, secs, seed, theta), max_moves);
            let (report, placement) = run_sharded_elastic(&c, threads);
            assert_eq!(
                report.metrics.lemma_violations, 0,
                "violations: {:?}",
                report.metrics.violations
            );
            let commits = report.metrics.reads.successes + report.metrics.writes.successes;
            let ratio = final_load_ratio(&placement);
            table.row(&[
                format!("{theta}"),
                arm.into(),
                format!("{commits}"),
                format!("{}", placement.migrations),
                format!("{ratio:.2}"),
            ]);
            per_theta.push(ratio);
            sweep_rows.push(
                JsonObject::new()
                    .field("theta", &theta)
                    .field("arm", arm)
                    .field("commits", &commits)
                    .field("migrations", &placement.migrations)
                    .field("migration_failures", &placement.migration_failures)
                    .field("final_load_ratio", &ratio)
                    .field("epochs", &placement.epochs.len())
                    .build(),
            );
        }
        if theta > 0.0 {
            checks.push((theta, per_theta[0], per_theta[1]));
        }
    }
    table.rule();

    let mut recoveries = Vec::new();
    for (theta, collapsed_ratio, elastic_ratio) in checks {
        println!("theta {theta}: load ratio {collapsed_ratio:.2} -> {elastic_ratio:.2}");
        // Q12's criterion: the rebalancer must leave the final epoch
        // meaningfully flatter than the collapsed control left it.
        assert!(
            elastic_ratio * 2.0 <= collapsed_ratio,
            "theta {theta}: final load ratio {elastic_ratio:.2} not >= 2x flatter \
             than collapsed {collapsed_ratio:.2}"
        );
        recoveries.push(
            JsonObject::new()
                .field("theta", &theta)
                .field("collapsed_load_ratio", &collapsed_ratio)
                .field("elastic_load_ratio", &elastic_ratio)
                .build(),
        );
    }

    let json = JsonObject::new()
        .field("items", &items)
        .field("shards", &shards)
        .field("sim_duration_secs", &secs)
        .field("smoke", &smoke)
        .field("determinism_digest", &format!("{digest0:#018x}"))
        .field("placement_digest", &format!("{pdigest0:#018x}"))
        .field(
            "determinism_grid",
            "1/2/4 threads x calendar/heap identical",
        )
        .field("conformant_items", &traces.len())
        .field_raw("skew_sweep", &serde_json::array_raw(sweep_rows))
        .field_raw("recovery", &serde_json::array_raw(recoveries))
        .build();
    println!("\n{}", write_results(&[("BENCH_rebalance.json", &json)]));

    println!(
        "\nExpected shape: under a range seed the zipf head lands on one shard and the \
         collapsed arm ends the run with that shard at several times its fair share; the \
         elastic arm migrates the head across shards within a few epochs and ends near \
         flat, with every move a checked reconfiguration."
    );
    Ok(())
}
