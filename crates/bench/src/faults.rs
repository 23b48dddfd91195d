//! Q6 — fault injection: availability, retries, and runtime lemma
//! monitoring under a seeded deterministic fault plan.
//!
//! The scenario plan staggers two site outages across a 30-second run,
//! forces two client aborts, and adds one message-drop window and one
//! extra-delay window. Each (quorum × retry-budget) cell runs the same
//! plan; the simulator's runtime lemma monitor checks Lemma 7/8 on every
//! committed operation and at end of run, and the table asserts zero
//! violations. A final negative-control run corrupts one replica store
//! mid-run and asserts the monitor *does* fire — demonstrating the green
//! cells are a real check, not a vacuous one.
//!
//! Flags: `--faults "<plan>"` overrides the scenario plan (grammar in
//! `EXPERIMENTS.md`), `--seed N` overrides the default seed (42),
//! `--secs N` rescales the run (the scenario's event times scale with it),
//! and `--trace-dir DIR` runs each cell traced, dumps one JSON schedule
//! trace per cell, and replays every trace through the Theorem 10
//! conformance checker (the negative control must *fail* it).
//!
//! Reproduce with:
//!   cargo run --release -p qc-bench --bin qc-exp -- faults > results/exp_faults.txt
//! Also writes `results/BENCH_faults.json` (plan, seed, per-cell metrics).

use std::path::PathBuf;
use std::sync::Arc;

use qc_sim::{
    check_trace, default_threads, run_observed, run_traced, ContactPolicy, FaultPlan,
    ReconfigPolicy, RetryPolicy, SimConfig, SimTime,
};
use quorum::{Majority, QuorumSpec, Rowa};
use serde_json::JsonObject;

use crate::cli::{Flags, ObsFlags};
use crate::report::{write_results, Table};
use crate::{dump_trace, run_cells, trace_file_stem};

const DURATION_SECS: u64 = 30;

/// The default scenario. Event times are fractions of the run length so
/// `--secs` rescales the whole plan; at the default 30 s this reproduces
/// the documented plan `crash@4000:1; recover@9000:1; ...` exactly, and
/// the printed plan can always be pasted back through `--faults`.
fn scenario(secs: u64) -> FaultPlan {
    let t = |s30: u64| SimTime(secs * s30 * 1_000_000 / 30);
    FaultPlan::new()
        .crash_at(t(4), 1)
        .recover_at(t(9), 1)
        .crash_at(t(12), 3)
        .recover_at(t(18), 3)
        .abort_at(t(6), 0)
        .abort_at(t(20), 2)
        .drop_window(t(22), t(2), 250)
        .delay_window(t(26), t(2), SimTime::from_millis(2))
}

fn cell(
    q: &Arc<dyn QuorumSpec + Send + Sync>,
    plan: &FaultPlan,
    seed: u64,
    attempts: u32,
    secs: u64,
    dynamic: bool,
) -> SimConfig {
    let mut c = SimConfig::new(Arc::clone(q));
    c.contact = ContactPolicy::AllLive;
    c.clients = 6;
    c.read_fraction = 0.7;
    c.duration = SimTime::from_secs(secs);
    c.think_time = SimTime::from_millis(5);
    c.seed = seed;
    c.faults = plan.clone();
    c.retry = RetryPolicy::retries(attempts, SimTime::from_millis(10));
    if dynamic {
        c.reconfig = ReconfigPolicy::reactive();
    }
    c
}

fn mode_name(dynamic: bool) -> &'static str {
    if dynamic {
        "dynamic"
    } else {
        "static"
    }
}

pub(crate) fn run(flags: &Flags) -> Result<(), String> {
    let seed: u64 = flags.get("--seed")?.unwrap_or(42);
    let secs: u64 = flags.get("--secs")?.unwrap_or(DURATION_SECS);
    let given_plan = flags.get_with("--faults", FaultPlan::parse)?;
    let pinned = secs == DURATION_SECS && given_plan.is_none();
    let plan = given_plan.unwrap_or_else(|| scenario(secs));
    let trace_dir: Option<PathBuf> = flags.get("--trace-dir")?;
    // `--obs-dir DIR` / `--snapshot-every SECS`: run every cell with the
    // instrumentation layer on (fault firings and any violations land in
    // the event log) and dump the recordings per cell.
    let obs = ObsFlags::new(flags)?;

    println!("Q6 — fault injection under a seeded plan (n = 5, seed {seed}, {secs} s)\n");
    println!("plan: {plan}\n");

    let systems: Vec<Arc<dyn QuorumSpec + Send + Sync>> =
        vec![Arc::new(Rowa::new(5)), Arc::new(Majority::new(5))];
    let budgets = [1u32, 4];
    let modes = [false, true];

    let mut cells = Vec::new();
    for q in &systems {
        for &a in &budgets {
            for &d in &modes {
                let stem = format!(
                    "faults_{}_a{a}_{}",
                    trace_file_stem(&q.label()),
                    mode_name(d)
                );
                cells.push((stem, cell(q, &plan, seed, a, secs, d)));
            }
        }
    }
    // Traced runs are serial, but the recorded metrics are bit-identical
    // to the parallel sweep's; every trace must replay through the
    // (generation-aware) Theorem 10 conformance checker.
    let metrics = run_cells(
        cells,
        trace_dir.as_deref(),
        &obs,
        default_threads(),
        |path, r| {
            println!(
                "trace {}: {} events ({} faulted), {} committed, conformant",
                path.display(),
                r.events,
                r.faulted_events,
                r.committed
            );
        },
    );
    if trace_dir.is_some() {
        println!();
    }

    let table = Table::header(&[
        ("quorum", 14),
        ("attempts", 9),
        ("mode", 8),
        ("read av", 10),
        ("write av", 10),
        ("unavail", 8),
        ("timeout", 8),
        ("retries", 8),
        ("aborted", 8),
        ("dropped", 8),
        ("recfg", 6),
        ("viol", 6),
    ]);

    // The headline comparison: reconfiguration must close most of the
    // write-availability gap the outages open under static ROWA, and the
    // dynamic column must be non-degenerate (the trigger actually fired).
    let mut rowa_write_av = Vec::new();

    let mut cells_json = Vec::new();
    let mut iter = metrics.iter();
    for q in &systems {
        for &attempts in &budgets {
            for &dynamic in &modes {
                let m = iter.next().expect("one metrics per grid cell");
                assert_eq!(
                    m.lemma_violations, 0,
                    "in-model faults must never trip the monitor: {:?}",
                    m.violations
                );
                // ROWA is the system the outages actually starve, so its
                // dynamic cells must reconfigure. Majority tolerates the
                // plan without a single failure signal, and a trigger that
                // fired anyway would be churn, not repair.
                if dynamic && q.label().starts_with("rowa") {
                    assert!(
                        m.reconfigurations > 0,
                        "{} a{attempts}: dynamic cell is degenerate — the reactive \
                         trigger never fired",
                        q.label()
                    );
                }
                if q.label().starts_with("rowa") {
                    rowa_write_av.push((attempts, dynamic, m.writes.availability()));
                }
                table.row(&[
                    q.label(),
                    format!("{attempts}"),
                    mode_name(dynamic).into(),
                    format!("{:.4}", m.reads.availability()),
                    format!("{:.4}", m.writes.availability()),
                    format!("{}", m.reads.unavailable + m.writes.unavailable),
                    format!("{}", m.reads.timeouts + m.writes.timeouts),
                    format!("{}", m.reads.retries + m.writes.retries),
                    format!("{}", m.reads.aborted + m.writes.aborted),
                    format!("{}", m.dropped_messages),
                    format!("{}", m.reconfigurations),
                    format!("{}", m.lemma_violations),
                ]);
                cells_json.push(
                    JsonObject::new()
                        .field("quorum", q.label().as_str())
                        .field("attempts", &attempts)
                        .field("mode", mode_name(dynamic))
                        .field_raw(
                            "reads",
                            &serde_json::to_string(&m.reads.summary()).expect("summary serializes"),
                        )
                        .field_raw(
                            "writes",
                            &serde_json::to_string(&m.writes.summary())
                                .expect("summary serializes"),
                        )
                        .field("dropped_messages", &m.dropped_messages)
                        .field("forced_aborts", &m.forced_aborts)
                        .field("injected_faults", &m.injected_faults)
                        .field("site_failures", &m.site_failures)
                        .field("reconfigurations", &m.reconfigurations)
                        .field("reconfig_failures", &m.reconfig_failures)
                        .field("stale_rejections", &m.stale_rejections)
                        .field("lemma_violations", &m.lemma_violations)
                        .build(),
                );
            }
        }
        table.rule();
    }

    // On the pinned default scenario the static ROWA cells sit near 0.56
    // write availability (two staggered outages under read-one/write-all);
    // the reactive trigger must lift every dynamic ROWA cell to >= 0.85.
    for &(attempts, dynamic, av) in &rowa_write_av {
        if dynamic {
            let static_av = rowa_write_av
                .iter()
                .find(|&&(a, d, _)| a == attempts && !d)
                .map(|&(_, _, av)| av)
                .expect("matching static cell");
            assert!(
                av > static_av,
                "rowa a{attempts}: dynamic write availability {av:.4} did not \
                 improve on static {static_av:.4}"
            );
            if pinned {
                assert!(
                    av >= 0.85,
                    "rowa a{attempts}: dynamic write availability {av:.4} < 0.85 \
                     on the pinned scenario"
                );
            }
        }
    }

    // Negative control: corrupt one replica's store mid-run. The monitor
    // MUST fire — this is the proof that the zero-violation cells above
    // actually checked something. Under `--trace-dir` the recorded trace
    // must likewise FAIL conformance, proving the checker is not vacuous.
    let corrupt = FaultPlan::new().corrupt_at(SimTime(secs * 1_000_000 / 2), 2, 999_999, 77);
    let m = if let Some(dir) = &trace_dir {
        let (m, trace) = run_traced(cell(&systems[1], &corrupt, seed, 1, secs, false));
        let path = dump_trace(dir, "faults_negative_control.json", &trace);
        let d = check_trace(&trace, systems[1].as_ref())
            .expect_err("negative control failed: corrupted trace passed conformance");
        println!("trace {}: rejected as required — {d}", path.display());
        m
    } else if obs.enabled() {
        // The negative control is the interesting event log: the corrupt
        // injection and every violation it causes (with the offending op
        // attached at commit-time detections) land in it.
        let mut c = cell(&systems[1], &corrupt, seed, 1, secs, false);
        c.obs = obs.options();
        let (m, report) = run_observed(c);
        obs.dump("faults_negative_control", &report);
        m
    } else {
        qc_sim::run(cell(&systems[1], &corrupt, seed, 1, secs, false))
    };
    assert!(
        m.lemma_violations > 0,
        "negative control failed: corrupted store went undetected"
    );
    println!(
        "\nnegative control: {corrupt} on {} -> {} violation(s), first: {}",
        systems[1].label(),
        m.lemma_violations,
        m.violations.first().map(String::as_str).unwrap_or("<none>")
    );

    let json = JsonObject::new()
        .field("seed", &seed)
        .field("duration_secs", &secs)
        .field("plan_text", plan.to_string().as_str())
        .field_raw(
            "plan",
            &serde_json::to_string(&plan).expect("plan serializes"),
        )
        .field_raw("cells", &serde_json::array_raw(cells_json))
        .field_raw(
            "negative_control",
            &JsonObject::new()
                .field("plan_text", corrupt.to_string().as_str())
                .field("lemma_violations", &m.lemma_violations)
                .build(),
        )
        .build();
    println!("{}", write_results(&[("BENCH_faults.json", &json)]));

    println!(
        "\nExpected shape: retries recover most availability lost to the two \
         outages; static ROWA writes suffer more than majority under a single \
         site crash, and the reactive reconfiguration trigger closes most of \
         that gap in the dynamic cells; the drop window costs messages, not \
         correctness; monitors stay green for every in-model fault and fire on \
         the out-of-model corruption."
    );
    println!(
        "Reproduce: cargo run --release -p qc-bench --bin qc-exp -- faults \
         > results/exp_faults.txt"
    );
    Ok(())
}
