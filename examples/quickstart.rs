//! Quickstart: run the replicated serial system **B**, watch the schedule,
//! and verify Theorem 10 (the projection is a schedule of the
//! non-replicated system **A**).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use qcnt::replication::{
    check_projection, project_to_a, run_system_b, ConfigChoice, ItemSpec, RunOptions, SystemSpec,
    UserSpec, UserStep,
};
use qcnt::txn::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One logical item `x`, five replicas, majority quorums; two user
    // transactions, the second nested.
    let spec = SystemSpec {
        items: vec![ItemSpec {
            name: "x".into(),
            init: Value::Int(0),
            replicas: 5,
            config: ConfigChoice::Majority,
        }],
        plain: vec![],
        users: vec![
            UserSpec::new(vec![UserStep::Write(0, Value::Int(42)), UserStep::Read(0)]),
            UserSpec::new(vec![UserStep::Sub(UserSpec::new(vec![UserStep::Read(0)]))]),
        ],
        strategy: Default::default(),
    };

    // Run B with a seeded executor; the serial scheduler may spontaneously
    // abort transactions, and well-formedness plus Lemmas 7–8 are monitored
    // at every step.
    let opts = RunOptions {
        seed: 2026,
        ..RunOptions::default()
    };
    let (beta, layout) = run_system_b(&spec, opts)?;
    println!("β — a schedule of the replicated serial system B:");
    for (i, op) in beta.iter().enumerate() {
        println!("  {i:>3}: {op}");
    }

    // Theorem 10: erase every replica access; replay on A.
    let alpha = project_to_a(&layout, &beta);
    let report = check_projection(&spec, &layout, &beta)?;
    println!();
    println!("Theorem 10 verified:");
    println!("  |β| = {} operations (system B)", report.b_len);
    println!("  |α| = {} operations (system A)", alpha.len());
    println!(
        "  projections agree at {} user transactions",
        report.users_checked
    );
    println!(
        "  {} logical operations (TMs) appear in β",
        report.tms_in_beta
    );
    Ok(())
}
