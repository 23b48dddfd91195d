//! Q13 — causal span trees and the critical-path flight recorder.
//!
//! Runs the nested-transaction harness with the causal recorder on and
//! answers: *where does the latency of a nested quorum transaction
//! actually go?* Four sections, all written to
//! `results/BENCH_critpath.json`:
//!
//! 1. **Invisibility + invariance** — the observed run's report digest
//!    equals the unobserved one (recording is pure observation), and the
//!    causal digest is bit-identical across 1/2/4 OS threads × the
//!    calendar/heap event queues; both *asserted*.
//! 2. **Scale** — a run of at least 10⁵ nested transactions with the
//!    profile on: every critical path must reconcile *exactly* with its
//!    transaction's end-to-end latency (`reconciled == txns`, asserted).
//! 3. **Critical-path attribution** — per-edge-kind histograms of
//!    critical-path time (read_gather / write_install / lock_wait /
//!    retry_backoff / stale_retry / fence) and the abort-cause
//!    breakdown, contended vs faulted.
//! 4. **Top-K slowest** — the slowest transactions' span trees rendered
//!    as indented critical paths, and their JSONL written to
//!    `results/critpath_slowest.jsonl` (`qc-trace` input).
//!
//! Flags: `--secs N` (default 120, scale-section simulated seconds),
//! `--seed N` (default 17), `--threads T` (default: all cores),
//! `--smoke` (CI leg: shrink every section, skip the 10⁵ floor).

use std::sync::Arc;

use nested_txn::{BankingGen, InventoryGen, WorkloadKind};
use qc_bench::{flag_value, row, rule};
use qc_sim::{
    default_threads, run_txn, run_txn_causal, FaultPlan, QueueKind, SimTime, TxnConfig,
    ABORT_CAUSES, EDGE_KINDS,
};
use quorum::Majority;
use serde_json::JsonObject;

fn banking(seed: u64, secs: u64) -> TxnConfig {
    let mut c = TxnConfig::new(
        Arc::new(Majority::new(3)),
        WorkloadKind::Banking(BankingGen::new(4)),
    );
    c.items = 8;
    c.domains = 2;
    c.clients_per_domain = 2;
    c.duration = SimTime::from_secs(secs);
    c.seed = seed;
    c
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let secs: u64 = flag_value("--secs")
        .map(|s| s.parse().expect("--secs takes an integer"))
        .unwrap_or(if smoke { 2 } else { 120 });
    let seed: u64 = flag_value("--seed")
        .map(|s| s.parse().expect("--seed takes an integer"))
        .unwrap_or(17);
    let threads: usize = flag_value("--threads")
        .map(|s| s.parse().expect("--threads takes an integer"))
        .unwrap_or_else(default_threads);

    println!(
        "Q13 — causal span trees & critical-path attribution (n = 3 majority, \
         seed {seed}{})\n",
        if smoke { ", smoke" } else { "" }
    );

    // 1. Invisibility + thread/queue invariance of the recording.
    let inv_cfg = banking(seed, secs.min(2));
    let plain_digest = run_txn(&inv_cfg, 1).digest();
    let mut causal_digests = Vec::new();
    for queue in [QueueKind::Calendar, QueueKind::Heap] {
        for t in [1usize, 2, 4] {
            let mut c = banking(seed, secs.min(2));
            c.queue = queue;
            let (report, causal) = run_txn_causal(&c, t);
            assert_eq!(
                report.digest(),
                plain_digest,
                "causal recording perturbed the run ({queue:?} x {t} threads)"
            );
            causal_digests.push(causal.digest());
        }
    }
    assert!(
        causal_digests.windows(2).all(|w| w[0] == w[1]),
        "causal digest diverged across threads/queues: {causal_digests:x?}"
    );
    println!(
        "invariance: report digest {plain_digest:#018x} unperturbed; causal digest \
         {:#018x} identical on 1/2/4 threads x calendar/heap",
        causal_digests[0]
    );

    // 2. Scale: >= 1e5 nested transactions, every critical path exact.
    let mut scale_cfg = banking(seed, secs);
    scale_cfg.items = 64;
    scale_cfg.domains = 16;
    scale_cfg.clients_per_domain = 4;
    let (scale_report, scale_causal) = run_txn_causal(&scale_cfg, threads);
    let sp = scale_causal.profile();
    assert_eq!(
        sp.txns(),
        scale_report.stats.txns_committed + scale_report.stats.txns_aborted,
        "one critical path per finished transaction"
    );
    assert_eq!(
        sp.reconciled(),
        sp.txns(),
        "critical paths drifted from end-to-end latency at scale"
    );
    if !smoke {
        assert!(
            sp.txns() >= 100_000,
            "scale section recorded only {} txns (raise --secs)",
            sp.txns()
        );
    }
    println!(
        "scale: {} txns recorded, {} committed, reconciled {}/{} (exact), \
         e2e p50 {} us / p99 {} us",
        sp.txns(),
        sp.committed(),
        sp.reconciled(),
        sp.txns(),
        sp.e2e().p50(),
        sp.e2e().quantile(0.99),
    );

    // 3. Attribution: where critical-path time goes, contended vs faulted.
    println!();
    let widths = [12, 10, 12, 12, 12, 12];
    row(
        &[
            "scenario".into(),
            "edge".into(),
            "paths".into(),
            "total ms".into(),
            "mean us".into(),
            "share".into(),
        ],
        &widths,
    );
    rule(&widths);
    let sweep_secs = if smoke { 1 } else { secs.min(10) };
    let mut contended = banking(seed, sweep_secs);
    contended.workload = WorkloadKind::Inventory(InventoryGen::new(3));
    contended.clients_per_domain = 8;
    let mut faulted = banking(seed, sweep_secs.max(2));
    faulted.quorum = Arc::new(Majority::new(5));
    // Three of five sites down from 400 ms to 900 ms: no majority can
    // assemble, so live ops burn attempts and back off — the window is
    // what puts retry_backoff and quorum_unavailable on critical paths.
    faulted.retry = qc_sim::RetryPolicy::retries(3, SimTime::from_millis(5));
    faulted.faults = FaultPlan::new()
        .crash_at(SimTime::from_millis(200), 1)
        .crash_at(SimTime::from_millis(400), 4)
        .crash_at(SimTime::from_millis(450), 2)
        .recover_at(SimTime::from_millis(900), 1)
        .recover_at(SimTime::from_millis(1_000), 2)
        .recover_at(SimTime::from_millis(1_100), 4)
        .drop_window(SimTime::from_millis(600), SimTime::from_millis(200), 150)
        .abort_at(SimTime::from_millis(300), 0)
        .abort_at(SimTime::from_millis(700), 3);
    let mut scenario_rows = Vec::new();
    for (name, cfg) in [("contended", &contended), ("faulted", &faulted)] {
        let (report, causal) = run_txn_causal(cfg, threads);
        let p = causal.profile();
        assert_eq!(p.reconciled(), p.txns(), "{name}: paths must reconcile");
        let path_total: u64 = EDGE_KINDS.iter().map(|&k| p.edge(k).sum()).sum();
        for &kind in &EDGE_KINDS {
            let h = p.edge(kind);
            if h.count() == 0 {
                continue;
            }
            row(
                &[
                    name.into(),
                    kind.name().into(),
                    format!("{}", h.count()),
                    format!("{:.1}", h.sum() as f64 / 1e3),
                    format!("{:.0}", h.mean()),
                    format!("{:.3}", h.sum() as f64 / path_total.max(1) as f64),
                ],
                &widths,
            );
        }
        let mut aborts = JsonObject::new();
        for &cause in &ABORT_CAUSES {
            if p.aborts(cause) > 0 {
                aborts = aborts.field(cause.name(), &p.aborts(cause));
            }
        }
        let mut edges = JsonObject::new();
        for &kind in &EDGE_KINDS {
            if p.edge(kind).count() > 0 {
                edges = edges.field_raw(kind.name(), &p.edge(kind).summary_json());
            }
        }
        scenario_rows.push(
            JsonObject::new()
                .field("scenario", name)
                .field("txns", &p.txns())
                .field("committed", &p.committed())
                .field("reconciled", &p.reconciled())
                .field_raw("e2e", &p.e2e().summary_json())
                .field_raw("edges", &edges.build())
                .field_raw("abort_causes", &aborts.build())
                .build(),
        );
        let _ = report;
    }
    rule(&widths);

    // 4. Top-K slowest transactions, rendered and exported for qc-trace.
    let (_, top_causal) = run_txn_causal(&faulted, threads);
    let shown = if smoke { 2 } else { 4 };
    println!("\nslowest transactions (critical paths):");
    for t in top_causal.slowest().iter().take(shown) {
        print!("{}", t.render_critical_path());
    }
    std::fs::create_dir_all("results").expect("create results/");
    let jsonl_path = "results/critpath_slowest.jsonl";
    let mut jsonl = String::new();
    for t in top_causal.slowest() {
        jsonl.push_str(&t.to_json_line());
        jsonl.push('\n');
    }
    std::fs::write(jsonl_path, &jsonl).expect("write critpath_slowest.jsonl");

    let json = JsonObject::new()
        .field("seed", &seed)
        .field("sim_duration_secs", &secs)
        .field("smoke", &smoke)
        .field("report_digest", &format!("{plain_digest:#018x}"))
        .field("causal_digest", &format!("{:#018x}", causal_digests[0]))
        .field(
            "invariance",
            "1/2/4 threads x calendar/heap identical; observed == unobserved",
        )
        .field("scale_txns", &sp.txns())
        .field("scale_committed", &sp.committed())
        .field("scale_reconciled", &sp.reconciled())
        .field_raw("scale_e2e", &sp.e2e().summary_json())
        .field_raw("scenarios", &serde_json::array_raw(scenario_rows))
        .field("slowest_jsonl", jsonl_path)
        .field("slowest_kept", &top_causal.slowest().len())
        .build();
    std::fs::write("results/BENCH_critpath.json", json).expect("write BENCH_critpath.json");
    println!("\nwrote results/BENCH_critpath.json and {jsonl_path}");

    println!(
        "\nExpected shape: committed-path time is dominated by read_gather and \
         write_install (the two Gifford phases); contention moves time into \
         lock_wait, faults move it into retry_backoff, and reconfiguration \
         surfaces as stale_retry — with every critical path tiling its \
         transaction's latency exactly, at any thread count, on either event \
         queue."
    );
}
