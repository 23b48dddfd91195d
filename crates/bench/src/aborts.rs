//! E5 — abort tolerance: the paper's second generalization of Gifford.
//!
//! "An operation to access a logical data item can complete even if some of
//! its accesses to DMs abort." We sweep the serial scheduler's spontaneous
//! abort weight and measure how many logical operations (TMs) still manage
//! to commit, while Theorem 10 continues to hold.

use nested_txn::{TxnOp, Value};
use qc_replication::{
    check_projection, run_system_b, ConfigChoice, RunOptions, SystemSpec, TmStrategy, UserStep,
};

use crate::cli::Flags;
use crate::item_x;
use crate::report::Table;

fn spec() -> SystemSpec {
    let users = vec![
        vec![UserStep::Write(0, Value::Int(1)), UserStep::Read(0)],
        vec![UserStep::Read(0), UserStep::Write(0, Value::Int(2))],
    ];
    item_x(5, ConfigChoice::Majority, TmStrategy::default(), users)
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    println!("E5 — abort tolerance: logical operations complete despite access aborts\n");
    let table = Table::header(&[
        ("abort weight", 14),
        ("runs", 6),
        ("Σ aborts", 12),
        ("TMs committed", 14),
        ("TMs created", 14),
        ("refuted", 9),
    ]);

    let s = spec();
    for abort_weight in [0u32, 2, 5, 10, 20, 40, 80] {
        let runs = 30u64;
        let mut aborts = 0usize;
        let mut tm_commits = 0usize;
        let mut tm_creates = 0usize;
        let mut refuted = 0u64;
        for seed in 0..runs {
            match run_system_b(
                &s,
                RunOptions {
                    seed,
                    abort_weight,
                    max_steps: 20_000,
                    ..RunOptions::default()
                },
            ) {
                Ok((beta, layout)) => {
                    aborts += beta
                        .iter()
                        .filter(|op| matches!(op, TxnOp::Abort { .. }))
                        .count();
                    for tm in layout.tm_roles.keys() {
                        if beta
                            .iter()
                            .any(|op| matches!(op, TxnOp::Create { tid, .. } if tid == tm))
                        {
                            tm_creates += 1;
                        }
                        if beta
                            .iter()
                            .any(|op| matches!(op, TxnOp::Commit { tid, .. } if tid == tm))
                        {
                            tm_commits += 1;
                        }
                    }
                    if check_projection(&s, &layout, &beta).is_err() {
                        refuted += 1;
                    }
                }
                Err(e) => {
                    refuted += 1;
                    eprintln!("run failed (weight {abort_weight}, seed {seed}): {e}");
                }
            }
        }
        table.row(&[
            format!("{abort_weight}"),
            format!("{runs}"),
            format!("{aborts}"),
            format!("{tm_commits}"),
            format!("{tm_creates}"),
            format!("{refuted}"),
        ]);
    }

    println!(
        "\nExpected: created TMs almost always still commit (they retry aborted \
         accesses with fresh names); refuted = 0 at every abort rate."
    );
    Ok(())
}
