//! A replicated banking ledger under *concurrent* nested transactions.
//!
//! Two accounts are each replicated across five data managers with majority
//! quorums. Deposit and audit transactions from several tellers interleave
//! under Moss two-phase locking at the copy level; the scheduler may abort
//! transactions (deadlock victims), and the example then verifies the
//! paper's Theorem 11 end-to-end: the concurrent run serializes against the
//! replicated serial system B, and its projection replays on the
//! single-copy system A.
//!
//! ```sh
//! cargo run --example banking
//! ```

use std::sync::Arc;

use qcnt::cc::{check_theorem11, CcRunOptions};
use qcnt::quorum::Majority;
use qcnt::replication::{ConfigChoice, ItemSpec, SystemSpec, UserSpec, UserStep};
use qcnt::sim::{check_commit_order_serializable, run_txn_committed, SimTime, TxnConfig};
use qcnt::txn::{BankingGen, Value, WorkloadKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Item 0 = alice's account, item 1 = bob's account.
    let account = |name: &str| ItemSpec {
        name: name.into(),
        init: Value::Int(100),
        replicas: 5,
        config: ConfigChoice::Majority,
    };

    // Teller 1 deposits to alice then audits; teller 2 moves value from
    // bob to alice as a nested transfer sub-transaction; teller 3 audits
    // both accounts.
    let spec = SystemSpec {
        items: vec![account("alice"), account("bob")],
        plain: vec![],
        users: vec![
            UserSpec::new(vec![UserStep::Write(0, Value::Int(150)), UserStep::Read(0)]),
            UserSpec::new(vec![UserStep::Sub(UserSpec::new(vec![
                UserStep::Write(1, Value::Int(50)),
                UserStep::Write(0, Value::Int(200)),
            ]))]),
            UserSpec::new(vec![UserStep::Read(0), UserStep::Read(1)]),
        ],
        strategy: Default::default(),
    };

    println!("tellers: deposit, nested transfer, audit — interleaved under 2PL\n");
    let mut serialized = 0;
    for seed in 0..5 {
        let report = check_theorem11(
            &spec,
            CcRunOptions {
                seed,
                ..CcRunOptions::default()
            },
        )?;
        serialized += 1;
        println!(
            "seed {seed}: γ = {:>4} ops, σ = {:>4} ops, α = {:>3} ops | \
             {} committed tellers, {} aborts, {} lock conflicts",
            report.gamma_len,
            report.sigma_len,
            report.alpha_len,
            report.users_committed,
            report.aborts,
            report.lock_conflicts,
        );
    }
    println!(
        "\nTheorem 11 verified on {serialized}/{serialized} concurrent runs: every \
         interleaving was serializable at the logical-account level."
    );

    // The same banking story at simulator scale: the hand-written teller
    // scripts above generalise to the seeded `BankingGen` workload —
    // deposit/audit/transfer program trees with doomed (aborting)
    // subtrees — executed over the replicated sharded store with quorum
    // operations at every copy access. The committed projection of every
    // top-level transaction must again replay serially in commit order.
    let mut config = TxnConfig::new(
        Arc::new(Majority::new(5)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    config.duration = SimTime::from_secs(2);
    config.seed = 17;
    let (report, commits) = run_txn_committed(&config, 2);
    check_commit_order_serializable(&|_| 0, &commits)?;
    println!(
        "\nat scale: {} nested transactions over {} replicated accounts — \
         {} committed, {} doomed subtrees compensated, zero lemma violations, \
         committed projection serializable (Theorem 11)",
        report.stats.txns_started,
        config.items,
        report.stats.txns_committed,
        report.stats.subtree_aborts,
    );
    assert_eq!(report.stats.lemma_violations, 0);
    Ok(())
}
