//! Q7 — shard scaling: aggregate throughput of the sharded multi-item
//! simulator vs shard count, with the determinism and per-item
//! conformance checks that make parallel results trustworthy.
//!
//! Three sections, all written to `results/BENCH_shard.json`:
//!
//! 1. **Determinism** — the report digest of a fixed configuration run on
//!    1, 2 and 4 OS threads; the experiment *asserts* the three are equal.
//! 2. **Conformance** — a traced run of the same configuration; every
//!    per-item schedule must pass the Theorem 10 conformance check
//!    (asserted).
//! 3. **Scaling** — aggregate simulated ops/sec as the shard count grows
//!    from 1 (the single-shard baseline, same per-shard client count) to
//!    8. Simulated throughput scales with the shard count because shards
//!    are independent.
//!
//! Flags: `--items N` (default 16), `--shards S` (max shard count,
//! default 8), `--secs N` (default 10), `--seed N` (default 23),
//! `--zipf THETA` (default 0 = uniform), `--threads T` (default: all
//! cores). CI runs `--secs 2 --threads 2` as a smoke test of the
//! assertions.

use std::sync::Arc;

use qc_sim::{
    check_trace, run_sharded, run_sharded_traced, ContactPolicy, ItemDist, MultiConfig, QueueKind,
    SimTime, Workload,
};
use quorum::Majority;
use serde_json::JsonObject;

use crate::cli::{Flags, ObsFlags};
use crate::report::{same_on_1_2_4, write_results, Table};

/// `items` items on `shards` shards of n = 5 majority with minimal-quorum
/// contact, two closed-loop clients per shard with no think time, keys
/// uniform or zipfian with skew `theta`; `throughput --items` runs it too.
pub(crate) fn config(items: usize, shards: usize, secs: u64, seed: u64, theta: f64) -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
    c.contact = ContactPolicy::MinimalQuorum;
    c.items = items;
    c.shards = shards;
    c.clients_per_shard = 2;
    c.workload = Workload::Closed {
        think: SimTime::from_millis(0),
    };
    c.dist = if theta > 0.0 {
        ItemDist::Zipfian { theta }
    } else {
        ItemDist::Uniform
    };
    c.duration = SimTime::from_secs(secs);
    c.seed = seed;
    c
}

pub(crate) fn run(flags: &Flags) -> Result<(), String> {
    let items: usize = flags.get("--items")?.unwrap_or(16);
    let max_shards: usize = flags.get("--shards")?.unwrap_or(8);
    let secs: u64 = flags.get("--secs")?.unwrap_or(10);
    let seed: u64 = flags.get("--seed")?.unwrap_or(23);
    let theta: f64 = flags.get("--zipf")?.unwrap_or(0.0);
    let threads = flags.threads()?;
    // `--obs-dir DIR` / `--snapshot-every SECS`: run the determinism
    // configuration instrumented too; the merged ObsReport is part of the
    // cross-thread-count identity check below.
    let obs = ObsFlags::new(flags)?;

    println!(
        "Q7 — shard scaling (n = 5 majority, {items} items, 2 clients/shard, \
         zipf {theta}, {secs} s simulated)\n"
    );

    // 1. Determinism: bit-identical report digest across thread counts —
    // including the merged observability recordings when enabled.
    let mut det_cfg = config(items, max_shards.min(items), secs.min(2), seed, theta);
    det_cfg.obs = obs.options();
    let det = same_on_1_2_4(
        "(report digest, obs digest)",
        &[QueueKind::Calendar],
        |_, t| run_sharded(&det_cfg, t),
        |r| (r.digest(), r.obs.digest()),
    );
    obs.dump("shard_scaling", &det.obs);
    let digest = det.digest();
    println!("determinism: digest {digest:#018x} identical on 1/2/4 threads");

    // 2. Conformance: every per-item schedule replays through Theorem 10.
    let (traced_report, traces) = run_sharded_traced(&det_cfg, threads);
    assert_eq!(traced_report.digest(), digest, "tracing perturbed the run");
    let mut traced_events = 0usize;
    for (g, trace) in traces.iter().enumerate() {
        let conf = check_trace(trace, &*det_cfg.quorum)
            .unwrap_or_else(|d| panic!("item {g} diverged from the serial system: {d}"));
        assert_eq!(
            conf.committed as u64, traced_report.item_commits[g],
            "item {g}: trace commits vs report tally"
        );
        traced_events += conf.events;
    }
    println!(
        "conformance: {} items, {traced_events} trace events, all conformant",
        traces.len()
    );
    assert_eq!(
        traced_report.metrics.lemma_violations, 0,
        "violations: {:?}",
        traced_report.metrics.violations
    );

    // 3. Scaling sweep: aggregate simulated throughput vs shard count.
    println!();
    let table = Table::header(&[
        ("shards", 8),
        ("clients", 10),
        ("ops/sec", 14),
        ("speedup", 12),
    ]);
    let mut sweep_rows = Vec::new();
    let mut baseline_ops = None;
    for shards in [1usize, 2, 4, 8] {
        if shards > max_shards || shards > items {
            continue;
        }
        let c = config(items, shards, secs, seed, theta);
        let report = run_sharded(&c, threads);
        assert_eq!(
            report.metrics.lemma_violations, 0,
            "violations: {:?}",
            report.metrics.violations
        );
        let ops = report
            .metrics
            .throughput_ops_per_sec(SimTime::from_secs(secs));
        let base = *baseline_ops.get_or_insert(ops);
        let speedup = ops / base.max(1e-9);
        table.row(&[
            format!("{shards}"),
            format!("{}", c.clients()),
            format!("{ops:.0}"),
            format!("{speedup:.2}x"),
        ]);
        sweep_rows.push(
            JsonObject::new()
                .field("shards", &shards)
                .field("clients", &c.clients())
                .field("agg_ops_per_sec", &ops)
                .field("speedup_vs_single_shard", &speedup)
                .build(),
        );
    }
    table.rule();

    // Item-count scaling at the max shard count: the aggregate rate is set
    // by the clients, not by how many items they spread over.
    let mut items_rows = Vec::new();
    for n_items in [items, items * 4, items * 16] {
        let c = config(n_items, max_shards.min(n_items), secs.min(5), seed, theta);
        let report = run_sharded(&c, threads);
        let ops = report
            .metrics
            .throughput_ops_per_sec(SimTime::from_secs(secs.min(5)));
        items_rows.push(
            JsonObject::new()
                .field("items", &n_items)
                .field("agg_ops_per_sec", &ops)
                .build(),
        );
    }

    let json = JsonObject::new()
        .field("items", &items)
        .field("zipf_theta", &theta)
        .field("sim_duration_secs", &secs)
        .field("determinism_digest", &format!("{digest:#018x}"))
        .field("determinism_thread_counts", "1/2/4 identical")
        .field("conformant_items", &traces.len())
        .field_raw("shard_scaling", &serde_json::array_raw(sweep_rows))
        .field_raw("item_scaling", &serde_json::array_raw(items_rows))
        .build();
    println!("\n{}", write_results(&[("BENCH_shard.json", &json)]));

    println!(
        "\nExpected shape: aggregate simulated ops/sec grows ~linearly with the \
         shard count (independent items, one event loop each); the digest line \
         certifies the 8-shard result is bit-identical however many OS threads \
         executed it."
    );
    Ok(())
}
