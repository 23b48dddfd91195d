//! Q1 — message and latency cost per logical operation, by quorum system
//! and replica count, on the discrete-event simulator (LAN latencies, no
//! failures, minimal-quorum contact).

use std::sync::Arc;

use qc_sim::{ContactPolicy, LatencyModel, SimConfig, SimTime};
use quorum::{Grid, Majority, QuorumSpec, Rowa, TreeQuorum, Weighted};

use crate::cli::Flags;
use crate::report::Table;

fn systems_for(n: usize) -> Vec<Arc<dyn QuorumSpec + Send + Sync>> {
    let mut v: Vec<Arc<dyn QuorumSpec + Send + Sync>> =
        vec![Arc::new(Rowa::new(n)), Arc::new(Majority::new(n))];
    match n {
        9 => {
            v.push(Arc::new(Grid::new(3, 3)));
            v.push(Arc::new(TreeQuorum::new(9)));
        }
        25 => v.push(Arc::new(Grid::new(5, 5))),
        _ => {}
    }
    if n == 5 {
        // Gifford's weighted-voting example: a strong site with 3 votes.
        v.push(Arc::new(Weighted::new(vec![3, 1, 1, 1, 1], 4, 4)));
    }
    v
}

pub(crate) fn run(_: &Flags) -> Result<(), String> {
    println!("Q1 — per-operation cost by quorum system (LAN, minimal contact, 50% reads)\n");
    let table = Table::header(&[
        ("n", 4),
        ("quorum", 18),
        ("msgs/read", 11),
        ("msgs/write", 11),
        ("read p50", 10),
        ("write p50", 10),
        ("write p95", 10),
    ]);

    for n in [3usize, 5, 9, 15, 25] {
        for q in systems_for(n) {
            let mut c = SimConfig::new(Arc::clone(&q));
            c.read_fraction = 0.5;
            c.latency = LatencyModel::lan();
            c.contact = ContactPolicy::MinimalQuorum;
            c.duration = SimTime::from_secs(20);
            c.seed = 11;
            let m = qc_sim::run(c);
            table.row(&[
                format!("{n}"),
                q.label(),
                format!("{:.1}", m.reads.messages_per_op()),
                format!("{:.1}", m.writes.messages_per_op()),
                format!("{:.2}ms", m.reads.percentile_ms(50.0)),
                format!("{:.2}ms", m.writes.percentile_ms(50.0)),
                format!("{:.2}ms", m.writes.percentile_ms(95.0)),
            ]);
        }
        table.rule();
    }

    println!(
        "Expected shape: ROWA reads cost 2 messages at every n; threshold systems \
         scale like n; grid/tree scale like √n — with corresponding latency ordering."
    );
    Ok(())
}
