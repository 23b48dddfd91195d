//! E1 — Theorem 10 at scale: for randomly generated system shapes and
//! randomly scheduled executions of the replicated serial system **B**,
//! the erasure of replica accesses is always a schedule of the
//! non-replicated system **A**.
//!
//! Prints one row per generator regime: runs checked, total β/α
//! operations, and failures (which must be 0).

use qc_replication::{check_random, random_spec, GenParams, RunOptions};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cli::Flags;
use crate::report::Table;

fn regime(table: &Table, name: &str, params: GenParams, abort_weight: u32, runs: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE1);
    let mut b_total = 0usize;
    let mut a_total = 0usize;
    let mut tms = 0usize;
    let mut failures = 0u64;
    for seed in 0..runs {
        let spec = random_spec(&mut rng, &params);
        match check_random(
            &spec,
            RunOptions {
                seed,
                abort_weight,
                max_steps: 15_000,
                ..RunOptions::default()
            },
        ) {
            Ok(r) => {
                b_total += r.b_len;
                a_total += r.a_len;
                tms += r.tms_in_beta;
            }
            Err(e) => {
                failures += 1;
                eprintln!("REFUTED ({name}, seed {seed}): {e}");
            }
        }
    }
    table.row(&[
        name.into(),
        format!("{runs}"),
        format!("{b_total}"),
        format!("{a_total}"),
        format!("{tms}"),
        format!("{failures}"),
    ]);
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    println!("E1 — Theorem 10: project-and-replay over random systems and schedules\n");
    let t = Table::header(&[
        ("regime", 22),
        ("runs", 6),
        ("Σ|β|", 10),
        ("Σ|α|", 10),
        ("Σ TMs", 9),
        ("refuted", 9),
    ]);

    regime(&t, "small, no aborts", GenParams::default(), 0, 120);
    regime(&t, "small, light aborts", GenParams::default(), 3, 120);
    regime(&t, "small, heavy aborts", GenParams::default(), 50, 120);
    regime(
        &t,
        "wide (5 users)",
        GenParams {
            users: (4, 5),
            ..GenParams::default()
        },
        3,
        60,
    );
    regime(
        &t,
        "deep (nesting 4)",
        GenParams {
            max_depth: 4,
            sub_probability: 0.5,
            ..GenParams::default()
        },
        3,
        60,
    );
    regime(
        &t,
        "many replicas (7-9)",
        GenParams {
            replicas: (7, 9),
            ..GenParams::default()
        },
        3,
        40,
    );

    println!("\nExpected: refuted = 0 in every regime (the paper's Theorem 10).");
    Ok(())
}
