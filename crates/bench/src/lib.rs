//! The experiments that regenerate the evaluation in `EXPERIMENTS.md`,
//! run as `qc-exp <name> [flags]` (see [`qc_exp`]), plus the specs the
//! criterion benches share with them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod report;

mod ablation;
mod aborts;
mod availability;
mod cost;
mod critpath;
mod crossover;
mod exhaustive;
mod failover;
mod faults;
mod granularity;
mod invariants;
mod obs;
mod rebalance;
mod reconfig;
mod shard_scaling;
mod theorem10;
mod theorem11;
mod throughput;
mod trees;
mod txn;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nested_txn::{BankingGen, Value, WorkloadKind};
use qc_replication::{ConfigChoice, ItemSpec, SystemSpec, TmStrategy, UserSpec, UserStep};
use qc_sim::{ConformanceReport, Metrics, SimConfig};

use cli::{Flags, ObsFlags};
pub use report::Table;

/// An experiment's body: an `Err` is a malformed flag value, returned
/// before the experiment prints anything.
type Run = fn(&Flags) -> Result<(), String>;

/// The experiments by subcommand, each with the flags it accepts and its
/// body. `results/exp_<name>.txt` (`results/fig_trees.txt` for `trees`)
/// is an experiment's stdout at default flags.
const EXPERIMENTS: &[(&str, &str, Run)] = &[
    ("ablation", "", ablation::run),
    ("aborts", "", aborts::run),
    ("availability", "--faults --seed", availability::run),
    ("cost", "", cost::run),
    ("critpath", "--smoke --secs --seed --threads", critpath::run),
    ("crossover", "", crossover::run),
    ("exhaustive", "", exhaustive::run),
    ("failover", "", failover::run),
    (
        "faults",
        "--seed --secs --faults --trace-dir --obs-dir --snapshot-every",
        faults::run,
    ),
    ("granularity", "", granularity::run),
    ("invariants", "", invariants::run),
    (
        "obs",
        "--smoke --secs --seed --obs-dir --snapshot-every",
        obs::run,
    ),
    (
        "rebalance",
        "--smoke --items --shards --secs --seed --threads",
        rebalance::run,
    ),
    ("reconfig", "", reconfig::run),
    (
        "shard_scaling",
        "--items --shards --secs --seed --zipf --threads --obs-dir --snapshot-every",
        shard_scaling::run,
    ),
    ("theorem10", "", theorem10::run),
    ("theorem11", "", theorem11::run),
    (
        "throughput",
        "--faults --seed --secs --threads --items --zipf --trace-dir --obs-dir --snapshot-every",
        throughput::run,
    ),
    ("trees", "", trees::run),
    ("txn", "--smoke --secs --seed --threads", txn::run),
];

/// Run `qc-exp`'s arguments: an experiment name, then that experiment's
/// flags.
///
/// # Errors
///
/// A usage message for an unknown experiment, a flag the experiment does
/// not accept, a flag missing its value, or a malformed value — always
/// before the experiment prints anything.
pub fn qc_exp(args: &[String]) -> Result<(), String> {
    let name = args.first().map_or("", String::as_str);
    let Some(&(_, accepted, run)) = EXPERIMENTS.iter().find(|e| e.0 == name) else {
        let mut usage = format!("unknown experiment {name:?}\nusage: qc-exp <name> [flags]");
        for (name, accepted, _) in EXPERIMENTS {
            usage += format!("\n  {name:<14}{accepted}").trim_end();
        }
        return Err(usage);
    };
    let flags = Flags::parse(accepted, &args[1..]).map_err(|e| format!("{name}: {e}"))?;
    run(&flags).map_err(|e| format!("{name}: {e}"))
}

/// Reduce a quorum label (or any cell tag) to a filename fragment: quorum
/// labels contain `(`, `/` and spaces that have no business in file names.
fn trace_file_stem(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Write a recorded trace as `<dir>/<name>` and return its path.
fn dump_trace(dir: &Path, name: &str, trace: &qc_sim::ScheduleTrace) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, qc_sim::trace_to_json(trace)).expect("write trace file");
    path
}

/// Run a sweep of simulator cells, each named by a file stem. Under
/// `--trace-dir` the cells run serially and traced: each trace is written
/// as `<stem>.json` and must replay through the Theorem 10 conformance
/// checker, and `on_trace` reports it. Under `--obs-dir` /
/// `--snapshot-every` they run instrumented and their recordings are
/// dumped per stem. Otherwise they run as one parallel batch. The metrics
/// are the same in all three.
fn run_cells(
    cells: Vec<(String, SimConfig)>,
    trace_dir: Option<&Path>,
    obs: &ObsFlags,
    threads: usize,
    on_trace: impl Fn(&Path, &ConformanceReport),
) -> Vec<Metrics> {
    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).expect("create --trace-dir");
        let traced = |(stem, c): (String, SimConfig)| {
            let quorum = Arc::clone(&c.quorum);
            let (m, trace) = qc_sim::run_traced(c);
            let path = dump_trace(dir, &format!("{stem}.json"), &trace);
            let report = qc_sim::check_trace(&trace, quorum.as_ref())
                .unwrap_or_else(|d| panic!("{stem}.json: trace failed conformance: {d}"));
            on_trace(&path, &report);
            m
        };
        return cells.into_iter().map(traced).collect();
    }
    if !obs.enabled() {
        return qc_sim::run_batch(cells.into_iter().map(|(_, c)| c).collect(), threads);
    }
    let options = obs.options();
    let outs = qc_sim::par_map(cells, threads, |_, (stem, mut c)| {
        c.obs = options;
        (stem, qc_sim::run_observed(c))
    });
    let dumped = |(stem, (m, report)): (String, (Metrics, _))| {
        obs.dump(&stem, &report);
        m
    };
    outs.into_iter().map(dumped).collect()
}

/// The banking workload `txn` and `critpath` start from: 8 items, two
/// domains of two clients, n = 3 majority.
fn banking(seed: u64, secs: u64) -> qc_sim::TxnConfig {
    let mut c = qc_sim::TxnConfig::new(
        Arc::new(quorum::Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 2;
    c.duration = qc_sim::SimTime::from_secs(secs);
    c.seed = seed;
    c
}

/// One logical item `x` (initially 0) on `replicas` copies under
/// `config`, and one user transaction per step list in `users`.
fn item_x(
    replicas: usize,
    config: ConfigChoice,
    strategy: TmStrategy,
    users: Vec<Vec<UserStep>>,
) -> SystemSpec {
    SystemSpec {
        items: vec![ItemSpec {
            name: "x".into(),
            init: Value::Int(0),
            replicas,
            config,
        }],
        plain: vec![],
        users: users.into_iter().map(UserSpec::new).collect(),
        strategy,
    }
}

/// The paper's running example (Figure 1 shape): two logical items `x`
/// (3 replicas) and `y` (2 replicas), one plain object, two user
/// transactions with nested structure.
pub fn figure1_spec() -> SystemSpec {
    SystemSpec {
        items: vec![
            ItemSpec {
                name: "x".into(),
                init: Value::Int(0),
                replicas: 3,
                config: ConfigChoice::Majority,
            },
            ItemSpec {
                name: "y".into(),
                init: Value::Int(0),
                replicas: 2,
                config: ConfigChoice::Rowa,
            },
        ],
        plain: vec![
            qc_replication::PlainObjectSpec {
                name: "a".into(),
                init: Value::Int(0),
            },
            qc_replication::PlainObjectSpec {
                name: "b".into(),
                init: Value::Int(0),
            },
        ],
        users: vec![
            UserSpec::new(vec![
                UserStep::ReadPlain(0),
                UserStep::Write(0, Value::Int(1)),
                UserStep::Read(0),
            ]),
            UserSpec::new(vec![
                UserStep::Read(1),
                UserStep::Sub(UserSpec::new(vec![
                    UserStep::WritePlain(1, Value::Int(2)),
                    UserStep::Write(1, Value::Int(3)),
                ])),
            ]),
        ],
        strategy: Default::default(),
    }
}

/// A contention-heavy spec for the Theorem 11 experiments: `users` user
/// transactions all touching the same two items.
pub fn contention_spec(users: usize, replicas: usize) -> SystemSpec {
    let mk_user = |k: usize| {
        UserSpec::new(vec![
            UserStep::Write(0, Value::Int(10 + k as i64)),
            UserStep::Read(0),
            UserStep::Write(1, Value::Int(100 + k as i64)),
            UserStep::Read(1),
        ])
    };
    SystemSpec {
        items: vec![
            ItemSpec {
                name: "x".into(),
                init: Value::Int(0),
                replicas,
                config: ConfigChoice::Majority,
            },
            ItemSpec {
                name: "y".into(),
                init: Value::Int(0),
                replicas,
                config: ConfigChoice::Majority,
            },
        ],
        plain: vec![],
        users: (0..users).map(mk_user).collect(),
        strategy: Default::default(),
    }
}
