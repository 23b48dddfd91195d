//! Choosing a quorum configuration for a read-heavy inventory service.
//!
//! A product catalog is replicated across sites; lookups vastly outnumber
//! restocks. This example uses the analysis tools and the discrete-event
//! simulator to compare read-one/write-all, majority, and grid quorums on
//! message cost, latency, and availability under site failures — the
//! trade-off Gifford's algorithm exists to navigate.
//!
//! ```sh
//! cargo run --release --example inventory
//! ```

use std::sync::Arc;

use qcnt::quorum::{analysis, Grid, Majority, QuorumSpec, Rowa};
use qcnt::sim::{run, run_txn, ContactPolicy, LatencyModel, SimConfig, SimTime, TxnConfig};
use qcnt::txn::{InventoryGen, WorkloadKind};

fn main() {
    let n = 9;
    let systems: Vec<Arc<dyn QuorumSpec + Send + Sync>> = vec![
        Arc::new(Rowa::new(n)),
        Arc::new(Majority::new(n)),
        Arc::new(Grid::new(3, 3)),
    ];

    println!("inventory service: {n} replicas, 95% reads, WAN latencies\n");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "quorum", "msgs/read", "msgs/write", "read p50", "write p50", "read avail", "write avail"
    );

    for q in &systems {
        // Analytic availability at 10% per-site failure probability.
        let r_avail = analysis::exact_read_availability(q.as_ref(), 0.9);
        let w_avail = analysis::exact_write_availability(q.as_ref(), 0.9);

        // Simulated costs and latencies under a failure process.
        let mut config = SimConfig::new(Arc::clone(q));
        config.read_fraction = 0.95;
        config.latency = LatencyModel::wan();
        config.contact = ContactPolicy::MinimalQuorum;
        config.mttf = Some(SimTime::from_secs(90));
        config.mttr = SimTime::from_secs(10);
        config.timeout = SimTime::from_millis(200);
        config.duration = SimTime::from_secs(60);
        config.seed = 7;
        let m = run(config);

        println!(
            "{:<16} {:>10.1} {:>10.1} {:>9.1}ms {:>9.1}ms {:>10.4} {:>10.4}",
            q.label(),
            m.reads.messages_per_op(),
            m.writes.messages_per_op(),
            m.reads.percentile_ms(50.0),
            m.writes.percentile_ms(50.0),
            r_avail,
            w_avail,
        );
    }

    println!(
        "\nROWA reads are cheapest but a single down site blocks every restock; \
         majority balances both; the grid cuts write cost at scale."
    );

    // The flat read/write mix above abstracts what an inventory service
    // really runs: nested order transactions (check stock, then decrement
    // several products, some orders cancelling mid-flight). The seeded
    // `InventoryGen` workload drives exactly those trees through the
    // replicated store under copy-level locking; the abort rate here is
    // lock contention between orders touching the same products.
    println!("\nnested order transactions (3 products, majority vs ROWA):");
    for quorum in [
        Arc::new(Majority::new(5)) as Arc<dyn QuorumSpec + Send + Sync>,
        Arc::new(Rowa::new(5)),
    ] {
        let label = quorum.label();
        let mut config = TxnConfig::new(quorum, WorkloadKind::Inventory(InventoryGen::new(3)));
        config.items = 6;
        config.clients_per_domain = 4;
        config.duration = SimTime::from_secs(2);
        config.seed = 7;
        let report = run_txn(&config, 2);
        let st = &report.stats;
        let done = st.txns_committed + st.txns_aborted;
        println!(
            "  {label:<16} {} orders, abort rate {:.3}, {} lock waits, {} compensations",
            st.txns_started,
            if done == 0 {
                0.0
            } else {
                st.txns_aborted as f64 / done as f64
            },
            st.lock_waits,
            st.compensations,
        );
        assert_eq!(st.lemma_violations, 0);
    }
}
