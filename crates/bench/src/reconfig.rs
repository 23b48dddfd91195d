//! E4 — §4 reconfiguration correctness: spies reconfigure quorums mid-run;
//! executions still project onto the single-copy system **A**, with
//! generation/version invariants (I1–I3) monitored at every step.

use nested_txn::Value;
use qc_reconfig::{check_rc_random, RcItemSpec, RcRunOptions, RcSystemSpec};
use qc_replication::{UserSpec, UserStep};

use crate::cli::Flags;
use crate::report::Table;

fn spec(replicas: usize, max_reconfigs: u32) -> RcSystemSpec {
    let u: Vec<usize> = (0..replicas).collect();
    RcSystemSpec {
        items: vec![RcItemSpec {
            name: "x".into(),
            init: Value::Int(0),
            replicas,
            initial_config: quorum::generators::majority(&u),
            alt_configs: vec![quorum::generators::rowa(&u), quorum::generators::raow(&u)],
        }],
        users: vec![
            UserSpec::new(vec![UserStep::Write(0, Value::Int(7)), UserStep::Read(0)]),
            UserSpec::new(vec![
                UserStep::Read(0),
                UserStep::Write(0, Value::Int(9)),
                UserStep::Read(0),
            ]),
        ],
        max_reconfigs_per_user: max_reconfigs,
    }
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    println!("E4 — reconfiguration: correctness across dynamic quorum changes\n");
    let table = Table::header(&[
        ("regime", 28),
        ("runs", 6),
        ("Σ|β|", 10),
        ("reconfigs", 12),
        ("refuted", 9),
    ]);

    let regimes = [
        ("3 replicas, no spies", 3usize, 0u32, 2u32, 12u64),
        ("3 replicas, 1 per user", 3, 1, 2, 12),
        ("3 replicas, 2 per user", 3, 2, 2, 12),
        ("5 replicas, 2 per user", 5, 2, 2, 8),
        ("3 replicas, abortive", 3, 2, 40, 10),
    ];
    for (name, replicas, max_rc, abort_weight, runs) in regimes {
        let s = spec(replicas, max_rc);
        let mut b_total = 0usize;
        let mut reconfigs = 0usize;
        let mut refuted = 0u64;
        for seed in 0..runs {
            match check_rc_random(
                &s,
                RcRunOptions {
                    seed,
                    abort_weight,
                    max_steps: 60_000,
                    ..RcRunOptions::default()
                },
            ) {
                Ok(r) => {
                    b_total += r.b_len;
                    reconfigs += r.reconfigs_committed;
                }
                Err(e) => {
                    refuted += 1;
                    eprintln!("REFUTED ({name}, seed {seed}): {e}");
                }
            }
        }
        table.row(&[
            name.into(),
            format!("{runs}"),
            format!("{b_total}"),
            format!("{reconfigs}"),
            format!("{refuted}"),
        ]);
    }
    println!(
        "\nExpected: refuted = 0; reconfigs > 0 whenever spies are enabled. \
         New configurations are written to an *old* write-quorum only — the \
         Goldman–Lynch improvement over Gifford's old-and-new rule."
    );
    Ok(())
}
