//! E3 — Theorem 11: concurrent executions under Moss 2PL at the copy level
//! are serializable at the logical-item level.
//!
//! For each contention regime: run the concurrent system **C**, build the
//! return-order serial witness σ, replay σ on **B** (hypothesis), project
//! and replay on **A** (conclusion). Reports interleaving statistics;
//! `refuted` must stay 0.

use qc_cc::{check_theorem11, CcRunOptions};

use crate::cli::Flags;
use crate::contention_spec;
use crate::report::Table;

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    println!("E3 — Theorem 11: 2PL at the copies ⇒ serializability at the items\n");
    let table = Table::header(&[
        ("regime", 24),
        ("runs", 6),
        ("Σ|γ|", 10),
        ("Σ|σ|", 10),
        ("commits", 9),
        ("aborts", 9),
        ("conflicts", 10),
        ("refuted", 9),
    ]);

    let regimes = [
        ("2 users, 3 replicas", 2usize, 3usize, 1u32, 20u64),
        ("3 users, 3 replicas", 3, 3, 1, 12),
        ("4 users, 3 replicas", 4, 3, 1, 8),
        ("3 users, 5 replicas", 3, 5, 1, 10),
        ("3 users, abortive", 3, 3, 10, 10),
    ];

    for (name, users, replicas, abort_weight, runs) in regimes {
        let spec = contention_spec(users, replicas);
        let mut gamma = 0usize;
        let mut sigma = 0usize;
        let mut commits = 0usize;
        let mut aborts = 0usize;
        let mut conflicts = 0u64;
        let mut refuted = 0u64;
        for seed in 0..runs {
            match check_theorem11(
                &spec,
                CcRunOptions {
                    seed,
                    abort_weight,
                    max_steps: 150_000,
                    ..CcRunOptions::default()
                },
            ) {
                Ok(r) => {
                    gamma += r.gamma_len;
                    sigma += r.sigma_len;
                    commits += r.users_committed;
                    aborts += r.aborts;
                    conflicts += r.lock_conflicts;
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
            format!("{gamma}"),
            format!("{sigma}"),
            format!("{commits}"),
            format!("{aborts}"),
            format!("{conflicts}"),
            format!("{refuted}"),
        ]);
    }

    println!(
        "\nExpected: refuted = 0 — every 2PL interleaving serializes against B \
         and, projected, against A (the paper's modularity result)."
    );
    Ok(())
}
