//! The timed pass: system allocator, no spans.
//!
//! `qcbench --workload W --seed N --seconds S [--trace 0]` sets the
//! workload up, runs fixed-work reps back to back for `S` seconds (one
//! run outstanding: a host-side closed loop, this process being the load
//! generator), checks every rep against the paper oracles, and prints the
//! five end-to-end metrics — a table for people, then one JSON line.

use std::process::ExitCode;
use std::time::Instant;

use qc_sim::QueueKind;
use qcbench::host::{cores, fix_malloc_thresholds, peak_rss_mib, process_cpu_ns};
use qcbench::registry::{self, Values};
use qcbench::spans::NoSpans;
use qcbench::stats::{highest_supported_percentile, iqr_rel, median, percentile};
use qcbench::workloads::{build, Job, RepOutcome};
use qcbench::{refuse_debug_build, Args};

/// Warm-up reps before the timed region (caches fill, the allocator's
/// arenas grow to their steady size); they count toward `setup_s`.
const WARMUPS: usize = 2;
/// Never report order statistics of fewer reps than this, however short
/// `--seconds` is.
const MIN_REPS: usize = 5;
/// Reps the 75th percentile needs to have ten samples beyond it.
const P75_REPS: usize = 40;

/// A rep must find no lemma violation and exactly what the first rep
/// found: the work is fixed by the seed, so anything else is a
/// determinism bug, not noise.
fn same_as(reference: &RepOutcome, got: &RepOutcome, what: &str) -> Result<(), String> {
    if got.violations != 0 {
        return Err(format!("{what}: {} Lemma 7/8 violations", got.violations));
    }
    if got != reference {
        return Err(format!(
            "{what}: report differs from the first rep's (fingerprint {:#018x} vs {:#018x}, \
             commits {} vs {})",
            got.fingerprint, reference.fingerprint, got.commits, reference.commits
        ));
    }
    Ok(())
}

/// Run `arm` once and require the plain job's fingerprint and full digest.
fn same_digest(arm: &Job, reference: &RepOutcome, digest: u64, what: &str) -> Result<(), String> {
    let (outcome, report) = arm.rep(&mut NoSpans)?;
    same_as(reference, &outcome, what)?;
    let got = report.full_digest();
    if got != digest {
        return Err(format!(
            "{what}: full digest {got:#018x}, the timed reps' {digest:#018x}"
        ));
    }
    Ok(())
}

fn real_main(process_start: Instant) -> Result<(), String> {
    fix_malloc_thresholds()?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-benchmark-json"] {
        print!("{}", registry::benchmark_json());
        return Ok(());
    }
    refuse_debug_build()?;
    let args = Args::parse(&argv)?;
    if args.trace {
        return Err("--trace 1 is qcbench-trace's pass".into());
    }
    let name = args.workload.name();

    // Set-up: what a user pays between process start and the first
    // measured run.
    let job = build(args.workload, args.seed, args.variant, args.sim_scale)?;
    // The first rep is the reference every later one must repeat; against
    // itself it is checked for lemma violations only.
    let (reference, _) = job.rep(&mut NoSpans)?;
    same_as(&reference, &reference, "warm-up rep")?;
    for _ in 1..WARMUPS {
        let (outcome, _) = job.rep(&mut NoSpans)?;
        same_as(&reference, &outcome, "warm-up rep")?;
    }
    let setup_s = process_start.elapsed().as_secs_f64();
    if reference.commits == 0 {
        return Err("the workload committed nothing".into());
    }

    // The timed region: reps back to back, nothing else in between.
    let region = Instant::now();
    let (mut ns_per_commit, mut cpu_per_commit) = (Vec::new(), Vec::new());
    let mut last_report = None;
    while region.elapsed().as_secs_f64() < args.seconds || ns_per_commit.len() < MIN_REPS {
        // One report alive at a time, as in a user's loop.
        drop(last_report.take());
        let cpu = process_cpu_ns()?;
        let t = Instant::now();
        let (outcome, report) = job.rep(&mut NoSpans)?;
        let wall = t.elapsed();
        let cpu = process_cpu_ns()? - cpu;
        same_as(&reference, &outcome, "timed rep")?;
        ns_per_commit.push(wall.as_nanos() as f64 / outcome.commits as f64);
        cpu_per_commit.push(cpu as f64 / outcome.commits as f64);
        last_report = Some(report);
    }
    let region_s = region.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mib()?;
    let reps = ns_per_commit.len();

    // Identity checks, outside the timed region and after the peak-RSS
    // reading (the full digest formats every latency sample).
    let digest = last_report.expect("at least one timed rep").full_digest();
    same_digest(
        &job.with_queue(QueueKind::Heap),
        &reference,
        digest,
        "heap-queue arm",
    )?;
    if let Some(other) = job.with_threads(if job.threads() == 1 { 2 } else { 1 }) {
        same_digest(&other, &reference, digest, "other-thread-count arm")?;
    }

    let mut values = Values::new();
    values.insert("wall_ns_per_commit", median(&ns_per_commit));
    values.insert("wall_ns_per_commit_p75", percentile(&ns_per_commit, 75.0));
    values.insert("cpu_ns_per_commit", median(&cpu_per_commit));
    values.insert("peak_rss_mb", peak_rss);
    values.insert("setup_s", setup_s);

    let names = registry::end_to_end_names();
    // Per rep, so fixed by the seed whatever the host's speed: what the
    // simulated clients attempted, and what of it did not commit.
    let line = registry::result_line(
        &names,
        &values,
        reference.attempted,
        reference.attempted - reference.commits,
    )?;

    let threads_note = match &job {
        Job::Single { .. } => String::new(),
        _ if job.threads() < 2 => " (2 wanted: single-core host, NOT a scaling number)".into(),
        _ => String::new(),
    };
    println!(
        "workload   {name}   (one {} = one committed unit)",
        args.workload.unit()
    );
    println!(
        "input      seed {}  variant {:?}  sim-scale {}  {} simulated s per rep",
        args.seed,
        args.variant,
        args.sim_scale,
        job.sim_secs()
    );
    println!(
        "threads    {} used of {} cores{threads_note}",
        job.threads(),
        cores()
    );
    println!(
        "reps       {reps} timed reps in {region_s:.2} s ({WARMUPS} warm-up reps before), rep IQR/median {:.4}",
        iqr_rel(&ns_per_commit)
    );
    let tail = highest_supported_percentile(reps).map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "           wall_ns_per_commit is the median of {reps} reps, wall_ns_per_commit_p75 their p75; \
         highest percentile with >= 10 of {reps} reps beyond it: {tail}"
    );
    if reps < P75_REPS {
        println!(
            "           FEWER THAN {P75_REPS} REPS: wall_ns_per_commit_p75 has under ten samples beyond it"
        );
    }
    println!(
        "per rep    {} committed of {} attempted by the simulated clients, {} failed ({:.4}); \
         none failed an oracle",
        reference.commits,
        reference.attempted,
        reference.attempted - reference.commits,
        1.0 - reference.commits as f64 / reference.attempted as f64
    );
    let threads_checked = if matches!(job, Job::Single { .. }) {
        ""
    } else {
        " = other thread count"
    };
    let oracle = match &job {
        Job::Single { .. } if reference.oracle_events > 0 => {
            format!(
                "; Theorem 10 replay Ok over {} events on every rep",
                reference.oracle_events
            )
        }
        Job::Txn { .. } => "; Theorem 11 commit-order replay Ok on every rep".to_string(),
        _ => String::new(),
    };
    println!(
        "checked    lemma violations 0 and report fingerprint {:#018x} on every rep; full digest \
         {digest:#018x} = heap queue{threads_checked}{oracle}",
        reference.fingerprint
    );
    print!("{}", registry::table(&names, &values));
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match real_main(process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qcbench: {e}");
            ExitCode::from(1)
        }
    }
}
