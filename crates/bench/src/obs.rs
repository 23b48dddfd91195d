//! Q8 — observability: where does a quorum operation spend its time?
//!
//! Runs the instrumented simulator under LAN and WAN latency models and
//! prints a per-phase breakdown (read_gather / vn_resolve / write_install
//! / commit_round / retry_backoff) with p50/p99/p999/max from the
//! log-bucketed HDR histograms. Four properties are *asserted*, not just
//! reported:
//!
//! 1. **Reconciliation** — the per-phase span sums must add up to the
//!    end-to-end committed latency within 0.1% (they are exact by
//!    construction; the tolerance only guards the arithmetic here).
//! 2. **Determinism** — the merged sharded `ObsReport` (histograms,
//!    event-log digest, snapshots) is bit-identical on 1, 2 and 4 OS
//!    threads.
//! 3. **Snapshots** — the periodic exporter fired on every simulated
//!    boundary of the run.
//! 4. **Invisibility** — the fully observed run's metrics digest equals
//!    the unobserved run's.
//!
//! Everything lands in `results/BENCH_obs.json`. What recording costs the
//! host is `benchmark/`'s `obs.spans_ns_per_commit` / `obs.full_ns_per_commit`.
//!
//! Flags: `--secs N` (default 10), `--seed N` (default 23), `--smoke`
//! (1-second run for CI; same assertions), `--obs-dir DIR` /
//! `--snapshot-every SECS` (dump recordings).
//!
//! Reproduce with:
//!   cargo run --release -p qc-bench --bin qc-exp -- obs > results/exp_obs.txt

use std::sync::Arc;

use qc_sim::{
    run_observed, run_sharded, ContactPolicy, FaultPlan, LatencyModel, Metrics, MultiConfig,
    ObsOptions, ObsReport, Phase, QueueKind, RetryPolicy, SimConfig, SimTime, PHASES,
};
use quorum::Majority;
use serde_json::JsonObject;

use crate::cli::{Flags, ObsFlags};
use crate::report::{same_on_1_2_4, write_results, Table};

fn base(latency: LatencyModel, secs: u64, seed: u64) -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.clients = 8;
    c.read_fraction = 0.7;
    c.contact = ContactPolicy::MinimalQuorum;
    c.latency = latency;
    c.think_time = SimTime::from_millis(1);
    c.duration = SimTime::from_secs(secs);
    c.seed = seed;
    // A mid-run outage so the retry_backoff phase has real mass.
    c.faults = FaultPlan::new()
        .crash_at(SimTime(secs * 250_000), 0)
        .crash_at(SimTime(secs * 250_000), 1)
        .crash_at(SimTime(secs * 250_000), 2)
        .recover_at(SimTime(secs * 400_000), 0)
        .recover_at(SimTime(secs * 400_000), 1)
        .recover_at(SimTime(secs * 400_000), 2);
    c.retry = RetryPolicy::retries(8, SimTime::from_millis(20));
    c
}

/// Print the phase table for one model and return its JSON rows, after
/// asserting the phase sums reconcile with end-to-end latency.
fn phase_section(label: &str, m: &Metrics, obs: &ObsReport) -> Vec<String> {
    let committed = m.reads.successes + m.writes.successes;
    let e2e_sum = m.reads.latency_hist().sum() + m.writes.latency_hist().sum();
    let span_sum = obs.spans.total_us();
    assert!(committed > 0, "{label}: nothing committed");
    let err = (span_sum as f64 - e2e_sum as f64).abs() / (e2e_sum as f64).max(1.0);
    assert!(
        err <= 0.001,
        "{label}: phase spans ({span_sum} µs) fail to reconcile with \
         end-to-end latency ({e2e_sum} µs): {:.4}% off",
        err * 100.0
    );

    println!(
        "{label}: {committed} committed ops, end-to-end Σ {e2e_sum} µs, \
         phase Σ {span_sum} µs (exact match: {})",
        span_sum == e2e_sum
    );
    let table = Table::header(&[
        ("phase", 14),
        ("spans", 10),
        ("p50 µs", 10),
        ("p99 µs", 10),
        ("p999 µs", 10),
        ("max µs", 10),
        ("share", 8),
    ]);
    let mut rows = Vec::new();
    for phase in PHASES {
        let h = obs.spans.hist(phase);
        let share = h.sum() as f64 / (span_sum as f64).max(1.0);
        table.row(&[
            phase.name().into(),
            format!("{}", h.count()),
            format!("{}", h.p50()),
            format!("{}", h.p99()),
            format!("{}", h.p999()),
            format!("{}", h.max()),
            format!("{:.1}%", share * 100.0),
        ]);
        rows.push(
            JsonObject::new()
                .field("phase", phase.name())
                .field("count", &h.count())
                .field("sum_us", &h.sum())
                .field("p50_us", &h.p50())
                .field("p99_us", &h.p99())
                .field("p999_us", &h.p999())
                .field("max_us", &h.max())
                .field("share", &share)
                .build(),
        );
    }
    table.rule();
    println!();
    rows
}

pub(crate) fn run(flags: &Flags) -> Result<(), String> {
    let smoke = flags.smoke();
    let secs: u64 = flags.get("--secs")?.unwrap_or(if smoke { 1 } else { 10 });
    let seed: u64 = flags.get("--seed")?.unwrap_or(23);
    let dump = ObsFlags::new(flags)?;

    println!(
        "Q8 — per-phase latency breakdown (n = 5 majority, minimal-quorum \
         contact, mid-run outage + retries, {secs} s simulated, seed {seed})\n"
    );

    // Per-phase breakdown under LAN and WAN, with full instrumentation.
    let mut sections = Vec::new();
    for (label, latency) in [("LAN", LatencyModel::lan()), ("WAN", LatencyModel::wan())] {
        let mut c = base(latency, secs, seed);
        c.obs = ObsOptions::full();
        // One snapshot per simulated 500 ms so even the smoke run fires.
        c.obs.snapshot_every_us = Some(500_000);
        let (m, obs) = run_observed(c);
        let expected_snapshots = (secs * 1_000_000 / 500_000) as usize;
        assert_eq!(
            obs.snapshots.len(),
            expected_snapshots,
            "{label}: snapshot exporter must fire on every boundary"
        );
        let rows = phase_section(label, &m, &obs);
        dump.dump(&format!("obs_{}", label.to_lowercase()), &obs);
        sections.push((label, m, obs, rows));
    }

    // Invisibility: the fully observed LAN run above must report exactly
    // what the same run reports with observability disabled.
    let plain = qc_sim::run(base(LatencyModel::lan(), secs, seed));
    assert_eq!(
        plain.digest(),
        sections[0].1.digest(),
        "observation must be invisible"
    );

    // Cross-thread-count identity of the merged sharded recordings: the
    // histogram merge (and event/snapshot concatenation) is performed in
    // shard-index order, so 1-, 2- and 4-thread runs agree bit for bit.
    let mut mc = MultiConfig::new(Arc::new(Majority::new(5)));
    mc.contact = ContactPolicy::MinimalQuorum;
    mc.items = 8;
    mc.shards = 4;
    mc.clients_per_shard = 2;
    mc.duration = SimTime::from_millis(if smoke { 500 } else { 2_000 });
    mc.seed = seed;
    mc.obs = ObsOptions::full();
    mc.obs.snapshot_every_us = Some(100_000);
    let sharded = same_on_1_2_4(
        "merged obs recordings (spans, all)",
        &[QueueKind::Calendar],
        |_, t| run_sharded(&mc, t).obs,
        |o| (o.spans.digest(), o.digest()),
    );
    assert!(
        !sharded.snapshots.is_empty(),
        "sharded snapshot exporter must fire"
    );
    println!(
        "sharded determinism: obs digest {:#018x} (spans {:#018x}) identical \
         on 1/2/4 threads; {} snapshots, {} events",
        sharded.digest(),
        sharded.spans.digest(),
        sharded.snapshots.len(),
        sharded.events.len(),
    );
    dump.dump("obs_sharded", &sharded);

    let mut json = JsonObject::new()
        .field("sim_duration_secs", &secs)
        .field("seed", &seed)
        .field("smoke", &smoke)
        .field("sharded_obs_digest", &format!("{:#018x}", sharded.digest()))
        .field("sharded_obs_thread_counts", "1/2/4 identical");
    for (label, m, obs, rows) in &sections {
        let e2e = m.reads.latency_hist().sum() + m.writes.latency_hist().sum();
        json = json.field_raw(
            &format!("phases_{}", label.to_lowercase()),
            &JsonObject::new()
                .field("committed", &(m.reads.successes + m.writes.successes))
                .field("e2e_sum_us", &e2e)
                .field("span_sum_us", &obs.spans.total_us())
                .field("exact_reconciliation", &(obs.spans.total_us() == e2e))
                .field(
                    "retry_share",
                    &(obs.spans.hist(Phase::RetryBackoff).sum() as f64
                        / (obs.spans.total_us() as f64).max(1.0)),
                )
                .field_raw("phases", &serde_json::array_raw(rows.clone()))
                .build(),
        );
    }
    println!("\n{}", write_results(&[("BENCH_obs.json", &json.build())]));

    println!(
        "\nExpected shape: LAN ops are gather-dominated with a tight tail; WAN \
         ops inherit the log-normal tail in both quorum phases; the outage \
         window moves an order of magnitude of latency into retry_backoff; and \
         the phase sums reconcile with end-to-end latency exactly."
    );
    Ok(())
}
