//! E6 — exhaustive small-scope verification: enumerate *every* abort-free
//! schedule of small replicated systems and check Lemmas 7–8 in every
//! reachable state and Theorem 10 on every maximal schedule.
//!
//! Unlike the randomized experiments (E1–E2), a clean row here is a
//! *complete* verification of the bounded behaviour: `covered = yes` means
//! the enumeration hit the system's entire (abort-free) schedule space,
//! not a sample of it.

use ioa::{ExploreLimits, ReplayStrategy};
use nested_txn::Value;
use qc_replication::{
    verify_exhaustive, verify_exhaustive_with, ConfigChoice, SystemSpec, TmStrategy, UserStep,
};

use crate::cli::Flags;
use crate::item_x;
use crate::report::Table;

fn tiny(users: Vec<Vec<UserStep>>, replicas: usize, config: ConfigChoice) -> SystemSpec {
    item_x(replicas, config, TmStrategy::default(), users)
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    println!("E6 — exhaustive verification of small scopes (abort-free behaviour)\n");
    println!(
        "replay columns: operations re-executed to rebuild state on backtrack —\n\
         full-replay baseline vs the default checkpointed explorer.\n"
    );
    let table = Table::header(&[
        ("scope", 30),
        ("schedules", 12),
        ("maximal", 10),
        ("projections", 11),
        ("replay full", 12),
        ("replay ckpt", 12),
        ("covered", 9),
        ("result", 8),
    ]);

    let read = || UserStep::Read(0);
    let write = || UserStep::Write(0, Value::Int(1));
    let scopes: Vec<(&str, SystemSpec, usize)> = vec![
        (
            "read, rowa, 2 replicas",
            tiny(vec![vec![read()]], 2, ConfigChoice::Rowa),
            40,
        ),
        (
            "read, majority, 3 replicas",
            tiny(vec![vec![read()]], 3, ConfigChoice::Majority),
            40,
        ),
        (
            "write, majority, 2 replicas",
            tiny(vec![vec![write()]], 2, ConfigChoice::Majority),
            60,
        ),
        (
            "write;read, rowa, 2 replicas",
            tiny(vec![vec![write(), read()]], 2, ConfigChoice::Rowa),
            80,
        ),
        (
            "2 users r/w, majority, 2",
            tiny(vec![vec![write()], vec![read()]], 2, ConfigChoice::Majority),
            80,
        ),
    ];

    for (name, spec, depth) in scopes {
        let limits = ExploreLimits {
            max_depth: depth,
            max_schedules: 5_000_000,
        };
        let baseline = verify_exhaustive_with(&spec, limits, ReplayStrategy::FullReplay);
        match verify_exhaustive(&spec, limits) {
            Ok(r) => {
                let full_replayed = baseline
                    .as_ref()
                    .map_or("-".into(), |b| format!("{}", b.profile.replayed_steps));
                if let Ok(b) = &baseline {
                    assert_eq!(
                        b.stats, r.stats,
                        "{name}: stats must be strategy-independent"
                    );
                }
                table.row(&[
                    name.into(),
                    format!("{}", r.stats.schedules),
                    format!("{}", r.stats.maximal),
                    format!("{}", r.projections_checked),
                    full_replayed,
                    format!("{}", r.profile.replayed_steps),
                    if r.stats.truncated { "partial" } else { "yes" }.into(),
                    "ok".into(),
                ]);
            }
            Err(e) => {
                let mut cells = vec!["-".to_string(); 7];
                cells[0] = name.into();
                cells.push("FAIL".into());
                table.row(&cells);
                eprintln!("{e}");
            }
        }
    }

    println!(
        "\nExpected: result = ok with covered = yes — Theorem 10 and Lemmas 7–8 \
         verified over the complete abort-free behaviour of each scope — and \
         'replay ckpt' well below 'replay full' on every row."
    );
    Ok(())
}
