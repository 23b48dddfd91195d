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

use std::sync::Arc;

use qc_bench::{
    contention_spec, dump_trace, faults_flag, flag_value, obs_flags, row, rule, trace_dir_flag,
    trace_file_stem,
};
use qc_cc::{check_theorem11, CcRunOptions};
use qc_sim::{
    check_trace, default_threads, par_map, run_batch, run_observed, run_sharded, run_traced,
    ContactPolicy, FaultPlan, ItemDist, Metrics, MultiConfig, SimConfig, SimTime, Workload,
};
use quorum::{Majority, QuorumSpec, Rowa};

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

fn main() {
    // `--faults "<plan>"` injects a deterministic fault plan into every
    // simulator cell (throughput then reflects the outage windows);
    // `--seed N` re-seeds the cells; `--secs N` rescales the simulated
    // duration; `--trace-dir DIR` records and conformance-checks each cell.
    let faults = faults_flag().unwrap_or_default();
    let seed: u64 = flag_value("--seed")
        .map(|s| s.parse().expect("--seed takes an integer"))
        .unwrap_or(23);
    let secs: u64 = flag_value("--secs")
        .map(|s| s.parse().expect("--secs takes an integer"))
        .unwrap_or(SIM_SECS);
    // `--threads N` caps the sweep threads; `--items N` adds a sharded
    // multi-item throughput section (`--zipf THETA` skews its keyspace).
    let threads = flag_value("--threads")
        .map(|s| s.parse().expect("--threads takes an integer"))
        .unwrap_or_else(default_threads);
    // `--obs-dir DIR` / `--snapshot-every SECS` instrument every cell and
    // dump its event log + snapshots under DIR.
    let obs = obs_flags();
    println!("Q3a — simulated throughput vs read fraction (n = 5, 8 clients, LAN)\n");
    if !faults.is_empty() {
        println!("injected fault plan: {faults}\n");
    }
    let widths = [14, 8, 12, 12, 12];
    row(
        &[
            "quorum".into(),
            "reads".into(),
            "ops/sim-s".into(),
            "read p50".into(),
            "write p50".into(),
        ],
        &widths,
    );
    rule(&widths);

    let grid = sim_grid(&faults, seed, secs);
    let metrics: Vec<Metrics> = match trace_dir_flag() {
        Some(dir) => {
            // Traced cells run serially (identical metrics); each trace is
            // dumped as JSON and must pass the Theorem 10 conformance check.
            std::fs::create_dir_all(&dir).expect("create --trace-dir");
            grid.iter()
                .map(|(label, rf, c)| {
                    let (m, trace) = run_traced(c.clone());
                    let name = format!(
                        "throughput_{}_rf{}.json",
                        trace_file_stem(label),
                        (rf * 100.0) as u32
                    );
                    let path = dump_trace(&dir, &name, &trace);
                    let report = check_trace(&trace, c.quorum.as_ref()).unwrap_or_else(|d| {
                        panic!("{name}: trace failed conformance: {d}")
                    });
                    println!(
                        "trace {}: {} events, {} committed, conformant",
                        path.display(),
                        report.events,
                        report.committed
                    );
                    m
                })
                .collect()
        }
        None if obs.enabled() => {
            // Observed cells: same sweep, with instrumentation on; the
            // recordings are dumped per cell under `--obs-dir`.
            let options = obs.options();
            let cells: Vec<(String, f64, SimConfig)> = grid
                .iter()
                .map(|(l, rf, c)| {
                    let mut c = c.clone();
                    c.obs = options;
                    (l.clone(), *rf, c)
                })
                .collect();
            let outs = par_map(cells, threads, |_, (_, _, c)| run_observed(c));
            outs.into_iter()
                .zip(&grid)
                .map(|((m, report), (label, rf, _))| {
                    let stem = format!(
                        "throughput_{}_rf{}",
                        trace_file_stem(label),
                        (rf * 100.0) as u32
                    );
                    obs.dump(&stem, &report);
                    m
                })
                .collect()
        }
        None => run_batch(grid.iter().map(|(_, _, c)| c.clone()).collect(), threads),
    };
    let mut prev_label = None;
    for ((label, rf, _), m) in grid.iter().zip(&metrics) {
        if prev_label.is_some() && prev_label != Some(label) {
            rule(&widths);
        }
        prev_label = Some(label);
        let ops = m.throughput_ops_per_sec(SimTime::from_secs(secs));
        row(
            &[
                label.clone(),
                format!("{rf:.2}"),
                format!("{ops:.0}"),
                format!("{:.2}ms", m.reads.percentile_ms(50.0)),
                format!("{:.2}ms", m.writes.percentile_ms(50.0)),
            ],
            &widths,
        );
    }
    rule(&widths);

    // Optional sharded multi-item section: `--items N [--zipf THETA]`
    // runs the sharded simulator over an N-item keyspace (8 shards, or one
    // per item if fewer) and reports the aggregate throughput. The full
    // shard-scaling study lives in `exp_shard_scaling`.
    if let Some(items) = flag_value("--items") {
        let items: usize = items.parse().expect("--items takes an integer");
        let theta: f64 = flag_value("--zipf")
            .map(|s| s.parse().expect("--zipf takes a float"))
            .unwrap_or(0.0);
        let mut mc = MultiConfig::new(Arc::new(Majority::new(5)));
        mc.contact = ContactPolicy::MinimalQuorum;
        mc.items = items;
        mc.shards = items.min(8);
        mc.clients_per_shard = 2;
        mc.workload = Workload::Closed {
            think: SimTime::from_millis(0),
        };
        mc.dist = if theta > 0.0 {
            ItemDist::Zipfian { theta }
        } else {
            ItemDist::Uniform
        };
        mc.duration = SimTime::from_secs(secs);
        mc.seed = seed;
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
    let widths = [8, 6, 12, 12, 12, 12];
    row(
        &[
            "users".into(),
            "runs".into(),
            "commit rate".into(),
            "aborts/run".into(),
            "confl/run".into(),
            "γ ops/run".into(),
        ],
        &widths,
    );
    rule(&widths);
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
        row(
            &[
                format!("{users}"),
                format!("{runs}"),
                format!("{:.2}", commits as f64 / (runs as usize * users) as f64),
                format!("{:.1}", aborts as f64 / runs as f64),
                format!("{:.1}", conflicts as f64 / runs as f64),
                format!("{:.0}", gamma as f64 / runs as f64),
            ],
            &widths,
        );
    }

    println!(
        "\nExpected shape: throughput rises with the read fraction (ROWA most \
         sharply); lock conflicts and deadlock-victim aborts grow with contention \
         while Theorem 11 keeps holding."
    );
}
