//! Q3 — concurrency: simulator throughput vs read fraction, and 2PL
//! contention statistics on the concurrent nested-transaction runtime.
//!
//! Part 1 (simulator): closed-loop clients; throughput falls as the write
//! fraction rises because writes pay two quorum phases. The parameter grid
//! runs on the parallel sweep runner ([`qc_sim::run_batch`]) — per-cell
//! metrics are bit-identical to serial runs because every cell carries its
//! own seed.
//!
//! Part 2 (2PL runtime): committed user transactions, aborts, and lock
//! conflicts as contention (number of users on the same items) grows; the
//! per-seed runs fan out over [`qc_sim::par_map`].
//!
//! Everything printed is a function of the flags and the seed. What a
//! committed operation costs the host is `benchmark/run.sh`'s job.

use std::path::PathBuf;
use std::sync::Arc;

use qc_cc::{check_theorem11, CcRunOptions};
use qc_sim::{par_map, run_sharded, ContactPolicy, FaultPlan, SimConfig, SimTime};
use quorum::{Majority, QuorumSpec, Rowa};

use crate::cli::{Flags, ObsFlags};
use crate::report::Table;
use crate::{contention_spec, run_cells, shard_scaling, trace_file_stem};

const SIM_SECS: u64 = 60;

fn sim_grid(faults: &FaultPlan, seed: u64, secs: u64) -> Vec<(String, f64, SimConfig)> {
    let systems: Vec<Arc<dyn QuorumSpec + Send + Sync>> =
        vec![Arc::new(Rowa::new(5)), Arc::new(Majority::new(5))];
    let mut grid = Vec::new();
    for q in &systems {
        for rf in [0.5, 0.9, 0.99] {
            let mut c = SimConfig::new(Arc::clone(q));
            c.clients = 8;
            c.read_fraction = rf;
            c.contact = ContactPolicy::MinimalQuorum;
            c.think_time = SimTime::from_millis(0);
            c.duration = SimTime::from_secs(secs);
            c.seed = seed;
            c.faults = faults.clone();
            grid.push((q.label(), rf, c));
        }
    }
    grid
}

pub(crate) fn run(flags: &Flags) -> Result<(), String> {
    // `--faults "<plan>"` injects a deterministic fault plan into every
    // simulator cell (throughput then reflects the outage windows);
    // `--seed N` re-seeds the cells; `--secs N` rescales the simulated
    // duration; `--trace-dir DIR` records and conformance-checks each cell.
    let faults = flags
        .get_with("--faults", FaultPlan::parse)?
        .unwrap_or_default();
    let seed: u64 = flags.get("--seed")?.unwrap_or(23);
    let secs: u64 = flags.get("--secs")?.unwrap_or(SIM_SECS);
    let trace_dir: Option<PathBuf> = flags.get("--trace-dir")?;
    // `--threads N` caps the sweep threads; `--items N` adds a sharded
    // multi-item throughput section (`--zipf THETA` skews its keyspace).
    let threads = flags.threads()?;
    let items: Option<usize> = flags.get("--items")?;
    let theta: f64 = flags.get("--zipf")?.unwrap_or(0.0);
    // `--obs-dir DIR` / `--snapshot-every SECS` instrument every cell and
    // dump its event log + snapshots under DIR.
    let obs = ObsFlags::new(flags)?;
    println!("Q3a — simulated throughput vs read fraction (n = 5, 8 clients, LAN)\n");
    if !faults.is_empty() {
        println!("injected fault plan: {faults}\n");
    }
    let table = Table::header(&[
        ("quorum", 14),
        ("reads", 8),
        ("ops/sim-s", 12),
        ("read p50", 12),
        ("write p50", 12),
    ]);

    let grid = sim_grid(&faults, seed, secs);
    // Traced cells run serially (identical metrics); each trace is dumped
    // as JSON and must pass the Theorem 10 conformance check.
    let stem = |label: &str, rf: f64| {
        format!(
            "throughput_{}_rf{}",
            trace_file_stem(label),
            (rf * 100.0) as u32
        )
    };
    let cells = grid
        .iter()
        .map(|(label, rf, c)| (stem(label, *rf), c.clone()))
        .collect();
    let metrics = run_cells(cells, trace_dir.as_deref(), &obs, threads, |path, r| {
        println!(
            "trace {}: {} events, {} committed, conformant",
            path.display(),
            r.events,
            r.committed
        );
    });
    let mut prev_label = None;
    for ((label, rf, _), m) in grid.iter().zip(&metrics) {
        if prev_label.is_some() && prev_label != Some(label) {
            table.rule();
        }
        prev_label = Some(label);
        let ops = m.throughput_ops_per_sec(SimTime::from_secs(secs));
        table.row(&[
            label.clone(),
            format!("{rf:.2}"),
            format!("{ops:.0}"),
            format!("{:.2}ms", m.reads.percentile_ms(50.0)),
            format!("{:.2}ms", m.writes.percentile_ms(50.0)),
        ]);
    }
    table.rule();

    // Optional sharded multi-item section: `--items N [--zipf THETA]`
    // runs the sharded simulator over an N-item keyspace (8 shards, or one
    // per item if fewer) and reports the aggregate throughput. The full
    // shard-scaling study is `qc-exp shard_scaling`.
    if let Some(items) = items {
        let mut mc = shard_scaling::config(items, items.min(8), secs, seed, theta);
        mc.faults = faults.clone();
        mc.obs = obs.options();
        let report = run_sharded(&mc, threads);
        obs.dump("throughput_sharded", &report.obs);
        let ops = report
            .metrics
            .throughput_ops_per_sec(SimTime::from_secs(secs));
        let hottest = report
            .item_commits
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .map(|(g, &c)| (g, c))
            .unwrap_or((0, 0));
        println!(
            "\nsharded: {items} items / {} shards / {} clients, zipf {theta}: \
             {ops:.0} ops/sec aggregate, hottest item {} ({} commits), \
             {} lemma violations",
            mc.shards,
            mc.clients(),
            hottest.0,
            hottest.1,
            report.metrics.lemma_violations
        );
    }

    println!("\nQ3b — 2PL contention on the concurrent nested-transaction runtime\n");
    let table = Table::header(&[
        ("users", 8),
        ("runs", 6),
        ("commit rate", 12),
        ("aborts/run", 12),
        ("confl/run", 12),
        ("γ ops/run", 12),
    ]);
    for users in [1usize, 2, 3, 4, 5] {
        let spec = contention_spec(users, 3);
        let runs = 8u64;
        let reports = par_map((0..runs).collect::<Vec<u64>>(), threads, |_, seed| {
            check_theorem11(
                &spec,
                CcRunOptions {
                    seed,
                    abort_weight: 1,
                    max_steps: 200_000,
                    ..CcRunOptions::default()
                },
            )
            .expect("theorem 11 must hold")
        });
        let commits: usize = reports.iter().map(|r| r.users_committed).sum();
        let aborts: usize = reports.iter().map(|r| r.aborts).sum();
        let conflicts: u64 = reports.iter().map(|r| r.lock_conflicts).sum();
        let gamma: usize = reports.iter().map(|r| r.gamma_len).sum();
        table.row(&[
            format!("{users}"),
            format!("{runs}"),
            format!("{:.2}", commits as f64 / (runs as usize * users) as f64),
            format!("{:.1}", aborts as f64 / runs as f64),
            format!("{:.1}", conflicts as f64 / runs as f64),
            format!("{:.0}", gamma as f64 / runs as f64),
        ]);
    }

    println!(
        "\nExpected shape: throughput rises with the read fraction (ROWA most \
         sharply); lock conflicts and deadlock-victim aborts grow with contention \
         while Theorem 11 keeps holding."
    );
    Ok(())
}
