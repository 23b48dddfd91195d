//! Q11 — nested-transaction workloads over the replicated sharded store:
//! Theorem 11 at scale.
//!
//! Runs seeded nested-transaction programs (banking transfers, inventory
//! orders, random trees with sibling aborts) through `qc_sim`'s
//! transaction harness: every leaf access is a full Gifford quorum
//! operation, copy-level Moss locks serialise conflicting accesses, and
//! doomed subtrees run, abort and are compensated. Four sections, all
//! written to `results/BENCH_txn.json`:
//!
//! 1. **Determinism** — the report digest of a fixed banking
//!    configuration run on 1, 2 and 4 OS threads; *asserted* identical.
//! 2. **Conformance** — a traced run of the same configuration: every
//!    per-item schedule replays through Theorem 10 (`check_trace`,
//!    asserted), and the committed projection of every top-level
//!    transaction replays serially in commit order (Theorem 11,
//!    `check_commit_order_serializable`, asserted).
//! 3. **Scale** — a long multi-domain run that must execute at least
//!    10⁵ top-level transactions end to end, serializability asserted.
//! 4. **Contention / abort-rate sweep** — abort and compensation rates
//!    vs client count per domain, across the three workload shapes, plus
//!    a faulted scenario (crashes + drop window + forced aborts).
//!
//! Flags: `--secs N` (default 120, scale-section simulated seconds),
//! `--seed N` (default 17), `--threads T` (default: all cores),
//! `--smoke` (CI leg: shrink every section, skip the 10⁵ floor).

use std::sync::Arc;

use nested_txn::{BankingGen, InventoryGen, RandomTreeGen, WorkloadKind};
use qc_sim::{
    check_commit_order_serializable, check_trace, run_txn, run_txn_committed, run_txn_traced,
    FaultPlan, QueueKind, SimTime, TxnConfig, TxnReport,
};
use quorum::Majority;
use serde_json::JsonObject;

use crate::banking;
use crate::cli::Flags;
use crate::report::{same_on_1_2_4, write_results, Table};

fn abort_rate(r: &TxnReport) -> f64 {
    let done = r.stats.txns_committed + r.stats.txns_aborted;
    if done == 0 {
        return 0.0;
    }
    r.stats.txns_aborted as f64 / done as f64
}

pub(crate) fn run(flags: &Flags) -> Result<(), String> {
    let smoke = flags.smoke();
    let secs: u64 = flags.get("--secs")?.unwrap_or(if smoke { 2 } else { 120 });
    let seed: u64 = flags.get("--seed")?.unwrap_or(17);
    let threads = flags.threads()?;

    println!(
        "Q11 — nested transactions over the sharded store (n = 3 majority, \
         seed {seed}{})\n",
        if smoke { ", smoke" } else { "" }
    );

    // 1. Determinism: bit-identical digest across thread counts.
    let det_cfg = banking(seed, secs.min(2));
    let digest = same_on_1_2_4(
        "report digest",
        &[QueueKind::Calendar],
        |_, t| run_txn(&det_cfg, t).digest(),
        |&d| d,
    );
    println!("determinism: digest {digest:#018x} identical on 1/2/4 threads");

    // 2. Conformance: Theorem 10 per item, Theorem 11 for the whole run.
    let (traced_report, traces) = run_txn_traced(&det_cfg, threads);
    assert_eq!(traced_report.digest(), digest, "tracing perturbed the run");
    let mut traced_events = 0usize;
    for (g, trace) in traces.iter().enumerate() {
        let conf = check_trace(trace, &*det_cfg.quorum)
            .unwrap_or_else(|d| panic!("item {g} diverged from the serial system: {d}"));
        assert_eq!(
            conf.committed as u64, traced_report.item_commits[g],
            "item {g}: trace commits vs report tally"
        );
        traced_events += conf.events;
    }
    let (rep2, commits) = run_txn_committed(&det_cfg, threads);
    assert_eq!(rep2.digest(), digest, "commit capture perturbed the run");
    let finals = check_commit_order_serializable(&|_| 0, &commits)
        .unwrap_or_else(|e| panic!("Theorem 11 replay failed: {e}"));
    assert_eq!(
        rep2.stats.lemma_violations, 0,
        "{:?}",
        rep2.stats.violations
    );
    println!(
        "conformance: {} items / {traced_events} trace events (Theorem 10), \
         {} committed txns replay serially over {} items (Theorem 11)",
        traces.len(),
        commits.len(),
        finals.len()
    );

    // 3. Scale: >= 1e5 nested transactions end to end.
    let mut scale_cfg = banking(seed, secs);
    scale_cfg.items = 64;
    scale_cfg.domains = 16;
    scale_cfg.clients_per_domain = 4;
    let (scale_report, scale_commits) = run_txn_committed(&scale_cfg, threads);
    check_commit_order_serializable(&|_| 0, &scale_commits)
        .unwrap_or_else(|e| panic!("Theorem 11 replay failed at scale: {e}"));
    assert_eq!(
        scale_report.stats.lemma_violations, 0,
        "{:?}",
        scale_report.stats.violations
    );
    if !smoke {
        assert!(
            scale_report.stats.txns_started >= 100_000,
            "scale section ran only {} txns (raise --secs)",
            scale_report.stats.txns_started
        );
    }
    let s = &scale_report.stats;
    println!(
        "scale: {} txns started, {} committed, abort rate {:.4}, \
         {} accesses, max depth {} ({} domains x {} clients, {secs} s simulated)",
        s.txns_started,
        s.txns_committed,
        abort_rate(&scale_report),
        s.reads_committed + s.writes_committed,
        s.max_depth,
        scale_cfg.domains,
        scale_cfg.clients_per_domain,
    );

    // 4. Contention sweep: abort/compensation rates vs clients per domain,
    // per workload shape, plus a faulted scenario.
    println!();
    let table = Table::header(&[
        ("workload", 11),
        ("clients", 8),
        ("txns", 9),
        ("abort rate", 11),
        ("lock waits", 11),
        ("timeouts", 11),
        ("compensations", 12),
    ]);
    let sweep_secs = if smoke { 1 } else { secs.min(10) };
    let cpd_points: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut sweep_rows = Vec::new();
    for (name, workload) in [
        ("banking", WorkloadKind::Banking(BankingGen::new(4))),
        ("inventory", WorkloadKind::Inventory(InventoryGen::new(3))),
        ("random", WorkloadKind::Random(RandomTreeGen::new(4))),
    ] {
        for &cpd in cpd_points {
            let mut c = TxnConfig::new(Arc::new(Majority::new(3)), workload);
            c.items = 8;
            c.domains = 2;
            c.clients_per_domain = cpd;
            c.duration = SimTime::from_secs(sweep_secs);
            c.seed = seed;
            let (report, commits) = run_txn_committed(&c, threads);
            check_commit_order_serializable(&|_| 0, &commits)
                .unwrap_or_else(|e| panic!("{name}/cpd={cpd}: Theorem 11 replay failed: {e}"));
            assert_eq!(
                report.stats.lemma_violations, 0,
                "{name}/cpd={cpd}: {:?}",
                report.stats.violations
            );
            let st = &report.stats;
            table.row(&[
                name.into(),
                format!("{}", c.clients()),
                format!("{}", st.txns_started),
                format!("{:.4}", abort_rate(&report)),
                format!("{}", st.lock_waits),
                format!("{}", st.lock_timeouts),
                format!("{}", st.compensations),
            ]);
            sweep_rows.push(
                JsonObject::new()
                    .field("workload", name)
                    .field("clients", &c.clients())
                    .field("txns_started", &st.txns_started)
                    .field("txns_committed", &st.txns_committed)
                    .field("abort_rate", &abort_rate(&report))
                    .field("lock_waits", &st.lock_waits)
                    .field("lock_timeouts", &st.lock_timeouts)
                    .field("subtree_aborts", &st.subtree_aborts)
                    .field("compensations", &st.compensations)
                    .field("max_depth", &st.max_depth)
                    .build(),
            );
        }
    }
    table.rule();

    // Faulted scenario: crashes, a drop window and forced aborts while
    // the wall stays green.
    let mut faulted_cfg = banking(seed, sweep_secs.max(2));
    faulted_cfg.quorum = Arc::new(Majority::new(5));
    faulted_cfg.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(200), 1)
        .crash_at(SimTime::from_millis(400), 4)
        .recover_at(SimTime::from_millis(900), 1)
        .recover_at(SimTime::from_millis(1_100), 4)
        .drop_window(SimTime::from_millis(600), SimTime::from_millis(200), 150)
        .abort_at(SimTime::from_millis(300), 0)
        .abort_at(SimTime::from_millis(700), 3);
    let (faulted_report, faulted_commits) = run_txn_committed(&faulted_cfg, threads);
    check_commit_order_serializable(&|_| 0, &faulted_commits)
        .unwrap_or_else(|e| panic!("faulted scenario: Theorem 11 replay failed: {e}"));
    assert_eq!(
        faulted_report.stats.lemma_violations, 0,
        "{:?}",
        faulted_report.stats.violations
    );
    let fs = &faulted_report.stats;
    println!(
        "\nfaulted: {} txns, abort rate {:.4}, {} forced aborts, {} retries, \
         {} dropped messages — serializable, zero violations",
        fs.txns_started,
        abort_rate(&faulted_report),
        fs.forced_aborts,
        fs.retries,
        fs.dropped_messages,
    );

    let json = JsonObject::new()
        .field("seed", &seed)
        .field("sim_duration_secs", &secs)
        .field("smoke", &smoke)
        .field("determinism_digest", &format!("{digest:#018x}"))
        .field("determinism_thread_counts", "1/2/4 identical")
        .field("conformant_items", &traces.len())
        .field("theorem11_committed_txns", &commits.len())
        .field("scale_txns_started", &scale_report.stats.txns_started)
        .field("scale_txns_committed", &scale_report.stats.txns_committed)
        .field("scale_abort_rate", &abort_rate(&scale_report))
        .field("scale_subtree_aborts", &scale_report.stats.subtree_aborts)
        .field("scale_compensations", &scale_report.stats.compensations)
        .field_raw("contention_sweep", &serde_json::array_raw(sweep_rows))
        .field("faulted_abort_rate", &abort_rate(&faulted_report))
        .field("faulted_forced_aborts", &faulted_report.stats.forced_aborts)
        .build();
    println!("\n{}", write_results(&[("BENCH_txn.json", &json)]));

    println!(
        "\nExpected shape: the abort rate climbs with clients per domain (more \
         lock conflicts on the same items) and the doomed-subtree compensation \
         count scales with transaction volume; every configuration — contended, \
         faulted, or at 1e5-txn scale — replays serially (Theorem 11) and every \
         per-item schedule conforms to the single-copy serial object (Theorem 10)."
    );
    Ok(())
}
