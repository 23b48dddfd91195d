//! E2 — Lemma 7 and Lemma 8 as runtime invariants: monitored after every
//! step of random executions of system **B**, across quorum-configuration
//! regimes.
//!
//! The monitors check, per step: (Lemma 7) the highest DM version number
//! equals `current-vn(x, β)`; and at even points of `access(x, β)`:
//! (8.1a) some write-quorum holds the current version number, (8.1b) every
//! DM at the current version holds the logical state, and (8.2) each
//! read-TM returns the logical state.

use nested_txn::Value;
use qc_replication::{run_system_b, ConfigChoice, RunOptions, SystemSpec, TmStrategy, UserStep};

use crate::cli::Flags;
use crate::item_x;
use crate::report::Table;

fn workload(config: ConfigChoice, replicas: usize, strategy: TmStrategy) -> SystemSpec {
    let users = vec![
        vec![
            UserStep::Write(0, Value::Int(1)),
            UserStep::Read(0),
            UserStep::Write(0, Value::Int(2)),
        ],
        vec![
            UserStep::Read(0),
            UserStep::Write(0, Value::Int(3)),
            UserStep::Read(0),
        ],
    ];
    item_x(replicas, config, strategy, users)
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    println!("E2 — Lemma 7 / Lemma 8 invariant monitoring on random executions of B\n");
    let table = Table::header(&[
        ("configuration", 26),
        ("runs", 8),
        ("steps checked", 12),
        ("reads checked", 12),
        ("violations", 9),
    ]);

    let regimes: Vec<(&str, ConfigChoice, usize, TmStrategy)> = vec![
        (
            "majority, 3 replicas",
            ConfigChoice::Majority,
            3,
            TmStrategy::Eager,
        ),
        (
            "majority, 5 replicas",
            ConfigChoice::Majority,
            5,
            TmStrategy::Eager,
        ),
        ("rowa, 4 replicas", ConfigChoice::Rowa, 4, TmStrategy::Eager),
        (
            "majority, 3, chaotic TMs",
            ConfigChoice::Majority,
            3,
            TmStrategy::Chaotic { max_accesses: 8 },
        ),
    ];

    for (name, cfg, n, strat) in regimes {
        let spec = workload(cfg, n, strat);
        let mut steps = 0usize;
        let mut reads = 0usize;
        let mut violations = 0usize;
        let runs = 60u64;
        for seed in 0..runs {
            // Lemma monitors are attached inside run_system_b; a violation
            // surfaces as an executor error.
            match run_system_b(
                &spec,
                RunOptions {
                    seed,
                    abort_weight: 4,
                    max_steps: 15_000,
                    ..RunOptions::default()
                },
            ) {
                Ok((beta, layout)) => {
                    steps += beta.len();
                    reads += layout
                        .tm_roles
                        .iter()
                        .filter(|(t, r)| {
                            matches!(r, qc_replication::TmRole::Read(_))
                                && beta.iter().any(|op| {
                                    matches!(op, nested_txn::TxnOp::RequestCommit { tid, .. } if tid == *t)
                                })
                        })
                        .count();
                }
                Err(e) => {
                    violations += 1;
                    eprintln!("VIOLATION ({name}, seed {seed}): {e}");
                }
            }
        }
        table.row(&[
            name.into(),
            format!("{runs}"),
            format!("{steps}"),
            format!("{reads}"),
            format!("{violations}"),
        ]);
    }
    println!("\nExpected: violations = 0 (Lemmas 7 and 8 hold in every reachable state).");
    Ok(())
}
