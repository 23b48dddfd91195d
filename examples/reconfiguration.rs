//! Dynamic reconfiguration (paper §4): spies transparently change quorums
//! mid-execution while user transactions keep reading correct values.
//!
//! Each user transaction is shadowed by a *spy automaton* that may invoke
//! reconfigure-TMs as hidden children of the transaction. The example runs
//! the reconfigurable replicated system across several seeds, reports how
//! many reconfigurations actually committed, and verifies the §4 analogue
//! of Theorem 10 — after erasing the whole replication machinery (TM
//! subtrees, coordinators, spies, reconfigure-TMs), what remains is a
//! schedule of the single-copy system A.
//!
//! ```sh
//! cargo run --example reconfiguration
//! ```

use qcnt::reconfig::{check_rc_random, RcItemSpec, RcRunOptions, RcSystemSpec};
use qcnt::replication::{UserSpec, UserStep};
use qcnt::txn::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let universe: Vec<usize> = (0..5).collect();
    let spec = RcSystemSpec {
        items: vec![RcItemSpec {
            name: "x".into(),
            init: Value::Int(0),
            replicas: 5,
            initial_config: qcnt::quorum::generators::majority(&universe),
            alt_configs: vec![
                qcnt::quorum::generators::rowa(&universe),
                qcnt::quorum::generators::raow(&universe),
            ],
        }],
        users: vec![
            UserSpec::new(vec![UserStep::Write(0, Value::Int(7)), UserStep::Read(0)]),
            UserSpec::new(vec![
                UserStep::Read(0),
                UserStep::Write(0, Value::Int(9)),
                UserStep::Read(0),
            ]),
        ],
        max_reconfigs_per_user: 2,
    };

    println!("reconfigurable system: 5 replicas, majority → {{rowa, raow}} candidates\n");
    let mut total = 0;
    for seed in 0..8 {
        let report = check_rc_random(
            &spec,
            RcRunOptions {
                seed,
                ..RcRunOptions::default()
            },
        )?;
        total += report.reconfigs_committed;
        println!(
            "seed {seed}: |β| = {:>5}, |α| = {:>3}, reconfigurations committed: {}",
            report.b_len, report.a_len, report.reconfigs_committed
        );
    }
    println!(
        "\n{total} reconfigurations committed across seeds; every execution still \
         projected onto the non-replicated system A (generation and version \
         invariants monitored at each step)."
    );
    Ok(())
}
