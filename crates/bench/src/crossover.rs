//! Q5 — the ROWA/majority crossover: expected replica accesses per logical
//! operation as a function of the read fraction, analytic and simulated,
//! locating the workload mix at which each configuration wins.

use std::sync::Arc;

use qc_sim::{ContactPolicy, SimConfig, SimTime};
use quorum::{analysis, Majority, QuorumSpec, Rowa};

use crate::cli::Flags;
use crate::report::Table;

fn simulated_msgs(q: Arc<dyn QuorumSpec + Send + Sync>, rf: f64) -> f64 {
    let mut c = SimConfig::new(q);
    c.read_fraction = rf;
    c.contact = ContactPolicy::MinimalQuorum;
    c.duration = SimTime::from_secs(15);
    c.seed = 41;
    let m = qc_sim::run(c);
    let ops = (m.reads.attempts + m.writes.attempts) as f64;
    (m.reads.messages + m.writes.messages) as f64 / ops
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    let n = 5;
    println!("Q5 — ROWA vs majority crossover (n = {n}); accesses & messages per op\n");
    let table = Table::header(&[
        ("reads", 8),
        ("rowa (an)", 12),
        ("maj (an)", 12),
        ("rowa (sim)", 12),
        ("maj (sim)", 12),
        ("winner", 10),
    ]);

    let rowa = Rowa::new(n);
    let maj = Majority::new(n);
    let mut crossover: Option<f64> = None;
    let mut prev_sign: Option<bool> = None;

    for i in 0..=10 {
        let rf = i as f64 / 10.0;
        let a_rowa = analysis::expected_accesses_per_op(&rowa, rf);
        let a_maj = analysis::expected_accesses_per_op(&maj, rf);
        // Simulated messages ≈ 2 × accesses (request + response).
        let s_rowa = simulated_msgs(Arc::new(rowa), rf);
        let s_maj = simulated_msgs(Arc::new(maj), rf);
        // Track strict winners only; ties (the write-only mix at odd n)
        // are not crossings.
        if a_rowa != a_maj {
            let rowa_wins = a_rowa < a_maj;
            if let Some(p) = prev_sign {
                if p != rowa_wins && crossover.is_none() {
                    crossover = Some(rf);
                }
            }
            prev_sign = Some(rowa_wins);
        }
        table.row(&[
            format!("{rf:.1}"),
            format!("{a_rowa:.2}"),
            format!("{a_maj:.2}"),
            format!("{s_rowa:.2}"),
            format!("{s_maj:.2}"),
            if a_rowa < a_maj {
                "rowa".into()
            } else if a_maj < a_rowa {
                "majority".into()
            } else {
                "tie".into()
            },
        ]);
    }

    match crossover {
        Some(rf) => println!("\ncrossover near read fraction {rf:.1}"),
        None => println!(
            "\nno strict crossover at n = {n}: write costs tie at n+1 accesses \
             (any legal threshold pair sums past n), so ROWA weakly dominates \
             on access count for every mix — its true price is write \
             *availability* (see Q2)."
        ),
    }
    Ok(())
}
