//! `qc-trace` — query tool over `qc-events-v1` causal span-tree JSONL.
//!
//! Reads the flight-recorder output (`CausalReport::to_jsonl`, e.g.
//! `results/critpath_slowest.jsonl` from `qc-exp critpath`, or the golden
//! `txn_banking_causal_seed17.jsonl`) and answers the questions the
//! recorder exists for, offline:
//!
//! ```text
//! qc-trace FILE.jsonl top [K]    # K slowest txns, rendered critical paths (default 5)
//! qc-trace FILE.jsonl aborts     # abort-cause breakdown + abort chains
//! qc-trace FILE.jsonl profile    # per-edge-kind critical-path attribution
//! qc-trace FILE.jsonl check      # verify every trace + exact reconciliation (CI)
//! ```
//!
//! Every mode re-verifies the causal invariants on the parsed traces
//! (`TxnTrace::verify`); `check` additionally demands that each critical
//! path reconciles exactly with the end-to-end latency and exits
//! non-zero otherwise, which is how CI exercises the golden JSONL.

use std::process::ExitCode;

use qc_bench::Table;
use qc_sim::{AbortCause, CritProfile, TxnTrace, ABORT_CAUSES, EDGE_KINDS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: qc-trace FILE.jsonl [top [K] | aborts | profile | check]\n\
         \n\
         top [K]   render the K slowest transactions' critical paths (default 5)\n\
         aborts    abort-cause breakdown and per-transaction abort chains\n\
         profile   per-edge-kind critical-path attribution table\n\
         check     verify causal consistency + exact latency reconciliation"
    );
    ExitCode::from(2)
}

/// Parse every `span_tree` event in the file; header and non-span lines
/// are skipped, malformed span lines are fatal (a recorder that emits
/// garbage should not be silently tolerated by its own query tool).
fn load(path: &str) -> Result<Vec<TxnTrace>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut traces = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || !line.contains("\"event\":\"span_tree\"") {
            continue;
        }
        let t =
            TxnTrace::parse_json_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        t.verify()
            .map_err(|e| format!("{path}:{}: inconsistent trace: {e}", lineno + 1))?;
        traces.push(t);
    }
    if traces.is_empty() {
        return Err(format!("{path}: no span_tree events"));
    }
    Ok(traces)
}

/// The `slower` total order used by the recorder's top-K retention:
/// latency descending, transaction id ascending on ties.
fn by_slowness(traces: &mut [TxnTrace]) {
    traces.sort_by(|a, b| {
        b.latency_us()
            .cmp(&a.latency_us())
            .then_with(|| (a.id.client, a.id.epoch).cmp(&(b.id.client, b.id.epoch)))
    });
}

fn cmd_top(mut traces: Vec<TxnTrace>, k: usize) {
    by_slowness(&mut traces);
    println!(
        "{} traces; {} slowest critical paths:\n",
        traces.len(),
        k.min(traces.len())
    );
    for t in traces.iter().take(k) {
        print!("{}", t.render_critical_path());
    }
}

fn cmd_aborts(traces: &[TxnTrace]) {
    let mut profile = CritProfile::new();
    for t in traces {
        profile.observe(t);
    }
    let aborted = profile.txns() - profile.committed();
    println!(
        "{} traces, {} committed, {} aborted\n",
        profile.txns(),
        profile.committed(),
        aborted
    );
    let table = Table::header(&[("cause", 20), ("count", 10), ("share", 10)]);
    for &cause in &ABORT_CAUSES {
        let n = profile.aborts(cause);
        if n > 0 {
            #[allow(clippy::cast_precision_loss)]
            table.row(&[
                cause.name().into(),
                format!("{n}"),
                format!("{:.3}", n as f64 / aborted.max(1) as f64),
            ]);
        }
    }
    table.rule();
    for (shown, t) in traces.iter().filter(|t| !t.committed).enumerate() {
        if shown == 0 {
            println!("\nabort chains (root -> dooming span):");
        }
        if shown == 8 {
            println!(
                "  ... ({} more)",
                traces.iter().filter(|t| !t.committed).count() - 8
            );
            break;
        }
        let chain: Vec<String> = t
            .abort_chain()
            .iter()
            .map(|&s| format!("span#{s}"))
            .collect();
        println!(
            "  txn {} cause={} latency={}us: {}",
            t.id.label(),
            t.cause.map_or("?", AbortCause::name),
            t.latency_us(),
            chain.join(" -> ")
        );
    }
}

fn cmd_profile(traces: &[TxnTrace]) {
    let mut profile = CritProfile::new();
    for t in traces {
        profile.observe(t);
    }
    println!(
        "{} traces, {} committed, reconciled {}/{}; e2e p50 {} us / p99 {} us\n",
        profile.txns(),
        profile.committed(),
        profile.reconciled(),
        profile.txns(),
        profile.e2e().p50(),
        profile.e2e().quantile(0.99),
    );
    let table = Table::header(&[
        ("edge", 14),
        ("paths", 10),
        ("total ms", 12),
        ("mean us", 12),
        ("share", 10),
    ]);
    let path_total: u64 = EDGE_KINDS.iter().map(|&k| profile.edge(k).sum()).sum();
    for &kind in &EDGE_KINDS {
        let h = profile.edge(kind);
        if h.count() == 0 {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        table.row(&[
            kind.name().into(),
            format!("{}", h.count()),
            format!("{:.1}", h.sum() as f64 / 1e3),
            format!("{:.0}", h.mean()),
            format!("{:.3}", h.sum() as f64 / path_total.max(1) as f64),
        ]);
    }
    table.rule();
}

fn cmd_check(traces: &[TxnTrace]) -> ExitCode {
    let mut profile = CritProfile::new();
    for t in traces {
        profile.observe(t);
        let cp = t.critical_path().total_us;
        let e2e = t.latency_us();
        if cp != e2e {
            eprintln!(
                "FAIL: txn {} critical path {cp} us != latency {e2e} us",
                t.id.label()
            );
            return ExitCode::FAILURE;
        }
        // Round-trip identity: the query tool and the recorder must
        // agree on the wire format, bit for bit.
        let line = t.to_json_line();
        match TxnTrace::parse_json_line(&line) {
            Ok(back) if back == *t => {}
            Ok(_) => {
                eprintln!("FAIL: txn {} does not round-trip identically", t.id.label());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("FAIL: txn {} re-parse: {e}", t.id.label());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "ok: {} traces verified, {} reconciled exactly, {} committed / {} aborted",
        profile.txns(),
        profile.reconciled(),
        profile.committed(),
        profile.txns() - profile.committed()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        return usage();
    };
    let traces = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("qc-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    match args.get(1).map(String::as_str).unwrap_or("top") {
        "top" => match args.get(2).map_or(Ok(5), |k| k.parse()) {
            Ok(k) => {
                cmd_top(traces, k);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("qc-trace: top K takes an integer: {e}");
                ExitCode::FAILURE
            }
        },
        "aborts" => {
            cmd_aborts(&traces);
            ExitCode::SUCCESS
        }
        "profile" => {
            cmd_profile(&traces);
            ExitCode::SUCCESS
        }
        "check" => cmd_check(&traces),
        _ => usage(),
    }
}
