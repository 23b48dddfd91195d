//! The traced pass: spans around every call into a layer, ablation arms
//! interleaved rep by rep, kernels, and a counting allocator.
//!
//! `qcbench-trace --workload W --seed N --seconds S --trace 1` prints
//! every per-layer metric for workload `W` and writes the span log to
//! `<out-dir>/spans_<W>.jsonl`. A layer that is not on `W`'s path reports
//! 0. Nothing here touches a timed number: the end-to-end metrics come
//! from `qcbench`, which has neither the spans nor the allocator wrapper,
//! and `harness.trace_overhead_ratio` is the difference between the two.
//!
//! Three ways of measuring a layer from outside:
//!
//! * **[A] ablation pair** — the workload's own config with one public
//!   switch flipped. Arms run interleaved, one rep of each per round, the
//!   starting arm rotating, and the metric is the median of the per-round
//!   paired differences of the driver-run span (blocks of one arm then the
//!   other showed ±20 % order effects on `single_read90`).
//! * **[K] kernel** — see [`qcbench::kernels`].
//! * **[C] count** — read from the run's own report; repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use qc_obs::{CausalOptions, ObsOptions};
use qc_sim::{
    run_observed, run_traced, trace_to_json, FaultPlan, Metrics, MultiConfig, PlacementPolicy,
    QueueKind, ReconfigPolicy, Workload,
};
use qcbench::host::{cores, fix_malloc_thresholds, process_cpu_ns, timer_ns};
use qcbench::registry::{self, Values};
use qcbench::spans::{NoSpans, Probe, SpanLog};
use qcbench::stats::{iqr_rel, median, median_paired_diff, median_paired_ratio};
use qcbench::workloads::{build, elastic, Job, RepOutcome, Report, SingleMode, TxnMode, Variant};
use qcbench::{kernels, refuse_debug_build, Args};

/// `System`, counting while [`COUNTING`] is set. Statistics only —
/// nothing is published through these counters — so `Relaxed` is enough.
///
/// Counting is switched on for one dedicated rep of the base arm and off
/// everywhere else: with two worker threads the shared counters bounce
/// between cores and tripled `txn_banking_t11`'s cost, which would have
/// bent every ablation pair measured beside them. Switched off, the
/// wrapper costs one load of a line nobody writes.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment counting was switched on (memory
/// allocated before and freed during takes it below zero).
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn on_free(size: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters beside the
// calls never touch the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout` — the caller's obligation, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one rep allocated: `(allocations, bytes, peak live bytes above
/// the level at its start)`, each per committed unit except the peak.
fn counted_rep(job: &Job) -> Result<(f64, f64, f64), String> {
    for counter in [&ALLOCS, &BYTES] {
        counter.store(0, Relaxed);
    }
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let result = job.rep(&mut NoSpans);
    COUNTING.store(false, Relaxed);
    let (outcome, _) = result?;
    let commits = outcome.commits as f64;
    Ok((
        ALLOCS.load(Relaxed) as f64 / commits,
        BYTES.load(Relaxed) as f64 / commits,
        PEAK.load(Relaxed) as f64,
    ))
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fewest interleaved rounds a paired median is taken over.
const MIN_ROUNDS: u32 = 5;

/// One arm of the interleaved pass: the workload's own job or the job
/// with one public switch flipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Arm {
    Base,
    Heap,
    MonitorOff,
    /// Generation-aware protocol on (`scripted_only`) where the workload has it off.
    GenAware,
    /// Generation-aware protocol off where the workload has it on.
    ReconfigOff,
    /// No fault plan, no crash process.
    Healthy,
    /// The same single-item workload through the sharded driver.
    Shard1,
    /// The driver without trace recording / commit capture / oracle.
    Plain,
    ObsSpans,
    ObsFull,
    Frozen,
    OneThread,
    /// Twice the simulated duration.
    Double,
    CausalProfile,
    CausalFull,
}

impl Arm {
    fn span(self) -> &'static str {
        match self {
            Arm::Base => "arm.base",
            Arm::Heap => "arm.heap",
            Arm::MonitorOff => "arm.monitor_off",
            Arm::GenAware => "arm.genaware",
            Arm::ReconfigOff => "arm.reconfig_off",
            Arm::Healthy => "arm.healthy",
            Arm::Shard1 => "arm.shard1",
            Arm::Plain => "arm.plain",
            Arm::ObsSpans => "arm.obs_spans",
            Arm::ObsFull => "arm.obs_full",
            Arm::Frozen => "arm.frozen",
            Arm::OneThread => "arm.one_thread",
            Arm::Double => "arm.double",
            Arm::CausalProfile => "arm.causal_profile",
            Arm::CausalFull => "arm.causal_full",
        }
    }

    /// Whether the arm must reproduce the base arm's full report digest:
    /// another queue, another thread count, or recording switched on or
    /// off is pure observation.
    fn same_model(self) -> bool {
        matches!(
            self,
            Arm::Heap
                | Arm::OneThread
                | Arm::Plain
                | Arm::ObsSpans
                | Arm::ObsFull
                | Arm::CausalProfile
                | Arm::CausalFull
        )
    }
}

/// The arms of `base`'s workload.
fn arms_of(base: &Job) -> Vec<(Arm, Job)> {
    let mut arms = vec![(Arm::Base, base.clone())];
    // The event loop's own switches, where the event loop is the workload:
    // on the oracle-bound and placement-bound workloads the prediction is
    // "none beyond est_share", and the rounds are better spent on the arms
    // that do move them. The nested-transaction driver has five arms of
    // its own, so of the two it keeps the one the issue names.
    let event_loop = matches!(
        base,
        Job::Single {
            mode: SingleMode::Plain,
            ..
        }
    );
    if event_loop {
        arms.push((Arm::Heap, base.with_queue(QueueKind::Heap)));
    }
    if event_loop || matches!(base, Job::Txn { .. }) {
        arms.push((Arm::MonitorOff, base.with_monitor(false)));
    }
    match base {
        Job::Single {
            cfg,
            mode: SingleMode::Checked,
        } => {
            let observed = |obs: ObsOptions| {
                let mut c = cfg.clone();
                c.obs = obs;
                Job::Single {
                    cfg: c,
                    mode: SingleMode::Observed,
                }
            };
            arms.push((
                Arm::Plain,
                Job::Single {
                    cfg: cfg.clone(),
                    mode: SingleMode::Plain,
                },
            ));
            arms.push((
                Arm::ObsSpans,
                observed(ObsOptions {
                    spans: true,
                    ..ObsOptions::disabled()
                }),
            ));
            arms.push((Arm::ObsFull, observed(ObsOptions::full())));
        }
        Job::Single { cfg, mode } => {
            // Flip the generation-aware protocol whichever way the workload
            // does not have it.
            let (arm, policy) = if cfg.reconfig.enabled {
                (Arm::ReconfigOff, ReconfigPolicy::off())
            } else {
                (Arm::GenAware, ReconfigPolicy::scripted_only())
            };
            let mut flipped = cfg.clone();
            flipped.reconfig = policy;
            arms.push((
                arm,
                Job::Single {
                    cfg: flipped,
                    mode: *mode,
                },
            ));
            if !cfg.faults.is_empty() || cfg.mttf.is_some() {
                let mut healthy = cfg.clone();
                healthy.faults = FaultPlan::new();
                healthy.mttf = None;
                arms.push((
                    Arm::Healthy,
                    Job::Single {
                        cfg: healthy,
                        mode: *mode,
                    },
                ));
            } else {
                // The cost of the duplicated protocol: the same closed-loop
                // single-item workload through the sharded driver.
                let mut m = MultiConfig::new(cfg.quorum.clone());
                m.latency = cfg.latency;
                m.contact = cfg.contact;
                m.items = 1;
                m.shards = 1;
                m.clients_per_shard = cfg.clients;
                m.read_fraction = cfg.read_fraction;
                m.workload = Workload::Closed {
                    think: cfg.think_time,
                };
                m.timeout = cfg.timeout;
                m.duration = cfg.duration;
                m.seed = cfg.seed;
                m.monitor = cfg.monitor;
                m.queue = cfg.queue;
                m.placement = PlacementPolicy::Static;
                arms.push((Arm::Shard1, Job::Sharded { cfg: m, threads: 1 }));
            }
        }
        Job::Sharded { cfg, threads } => {
            let mut frozen = cfg.clone();
            frozen.placement = elastic(true);
            arms.push((
                Arm::Frozen,
                Job::Sharded {
                    cfg: frozen,
                    threads: *threads,
                },
            ));
            arms.push((Arm::Double, base.with_duration_scaled(2)));
            if *threads > 1 {
                arms.push((
                    Arm::OneThread,
                    base.with_threads(1).expect("sharded has threads"),
                ));
            }
        }
        Job::Txn { cfg, threads, .. } => {
            let with = |causal: CausalOptions, mode: TxnMode| {
                let mut c = cfg.clone();
                c.causal = causal;
                Job::Txn {
                    cfg: c,
                    threads: *threads,
                    mode,
                }
            };
            arms.push((Arm::Plain, with(CausalOptions::disabled(), TxnMode::Plain)));
            arms.push((
                Arm::CausalProfile,
                with(CausalOptions::profile(), TxnMode::Causal),
            ));
            arms.push((
                Arm::CausalFull,
                with(CausalOptions::full(), TxnMode::Causal),
            ));
            if *threads > 1 {
                arms.push((
                    Arm::OneThread,
                    base.with_threads(1).expect("txn has threads"),
                ));
            }
        }
    }
    arms
}

/// The layers under the event loop whose shares `sim.self_share` leaves
/// out.
const EVENT_LOOP_SHARES: [&str; 5] = [
    "queue.est_share",
    "latency.est_share",
    "quorum.est_share",
    "arena.est_share",
    "probe.share",
];

/// What one rep of one arm cost.
#[derive(Clone, Copy, Debug)]
struct Sample {
    rep_ns: f64,
    run_ns: f64,
    read_ns: f64,
    check_ns: f64,
    cpu_ns: f64,
    commits: f64,
}

type Samples = BTreeMap<Arm, Vec<Sample>>;

/// Per-commit figure `f` of every round of `arm` (empty when the arm is
/// not part of this workload).
fn per_commit(samples: &Samples, arm: Arm, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples
        .get(&arm)
        .map(|v| v.iter().map(|s| f(s) / s.commits).collect())
        .unwrap_or_default()
}

fn run_pc(samples: &Samples, arm: Arm) -> Vec<f64> {
    per_commit(samples, arm, |s| s.run_ns)
}

/// A paired estimator over the driver-run span per commit of arms `a`
/// and `b`, or 0 when either arm is not part of this workload.
fn paired(samples: &Samples, a: Arm, b: Arm, estimator: fn(&[f64], &[f64]) -> f64) -> f64 {
    let (x, y) = (run_pc(samples, a), run_pc(samples, b));
    if x.is_empty() || y.is_empty() {
        0.0
    } else {
        estimator(&x, &y)
    }
}

/// Median paired difference `a − b`.
fn run_delta(samples: &Samples, a: Arm, b: Arm) -> f64 {
    paired(samples, a, b, median_paired_diff)
}

/// Median paired ratio `a ÷ b`.
fn run_ratio(samples: &Samples, a: Arm, b: Arm) -> f64 {
    paired(samples, a, b, median_paired_ratio)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Calls into the inner layers per committed unit, from the run's own
/// counters — what turns a kernel's ns per call into an estimated share.
#[derive(Clone, Copy, Debug)]
struct CallsPerCommit {
    /// Attempts and retries: one event-queue hold and one discovery
    /// fold each.
    tries: f64,
    /// Messages (one latency draw each, an upper estimate).
    msgs: f64,
    /// Quorum phases (one `find_*` each; one `is_*` per response).
    phases: f64,
    /// Version installs at single replicas.
    sets: f64,
}

fn single_calls(m: &Metrics, write_quorum: usize) -> CallsPerCommit {
    let commits = m.reads.successes + m.writes.successes;
    let tries = m.reads.attempts + m.writes.attempts + m.reads.retries + m.writes.retries;
    CallsPerCommit {
        tries: ratio(tries, commits),
        msgs: ratio(m.reads.messages + m.writes.messages, commits),
        phases: ratio(tries + m.writes.successes, commits),
        sets: ratio(m.writes.successes * write_quorum as u64, commits),
    }
}

/// The [C] counts and `model.*` values of the single and sharded drivers.
fn metrics_counts(m: &Metrics, sim_secs: f64, v: &mut Values) {
    let commits = m.reads.successes + m.writes.successes;
    let attempts = m.reads.attempts + m.writes.attempts;
    v.insert("sim.attempts_per_commit", ratio(attempts, commits));
    v.insert(
        "sim.retries_per_kcommit",
        1e3 * ratio(m.reads.retries + m.writes.retries, commits),
    );
    v.insert("probe.violations", m.lemma_violations as f64);
    v.insert("faults.injected", m.injected_faults as f64);
    v.insert(
        "faults.dropped_msgs_per_kcommit",
        1e3 * ratio(m.dropped_messages, commits),
    );
    v.insert("reconfig.committed", m.reconfigurations as f64);
    v.insert("reconfig.failed", m.reconfig_failures as f64);
    v.insert(
        "reconfig.stale_rejections_per_kcommit",
        1e3 * ratio(m.stale_rejections, commits),
    );
    v.insert("model.commits_per_sim_s", commits as f64 / sim_secs);
    v.insert("model.read_p50_ms", m.reads.percentile_ms(50.0));
    v.insert("model.read_p99_ms", m.reads.percentile_ms(99.0));
    v.insert("model.write_p50_ms", m.writes.percentile_ms(50.0));
    v.insert("model.write_p99_ms", m.writes.percentile_ms(99.0));
    v.insert(
        "model.msgs_per_commit",
        ratio(m.reads.messages + m.writes.messages, commits),
    );
    v.insert("model.read_availability", m.reads.availability());
    v.insert("model.write_availability", m.writes.availability());
    v.insert("model.fail_share", 1.0 - ratio(commits, attempts));
}

fn real_main() -> Result<(), String> {
    fix_malloc_thresholds()?;
    refuse_debug_build()?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv)?;
    if !args.trace {
        return Err("--trace 0 is qcbench's pass".into());
    }
    if args.variant != Variant::None || args.sim_scale != 1 {
        return Err("--variant and --sim-scale belong to the timed pass".into());
    }
    let name = args.workload.name();
    let base = build(args.workload, args.seed, Variant::None, 1)?;
    let arms = arms_of(&base);
    let mut log = SpanLog::new(name);

    // One unrecorded rep per arm: caches fill, allocator arenas grow. The
    // base arm's is the one rep the allocator counts. `--seconds` covers
    // these too, so that a traced run takes no longer than a timed one.
    let started = Instant::now();
    let (allocs_pc, alloc_bytes_pc, peak_live) = counted_rep(&base)?;
    for (_, job) in &arms[1..] {
        job.rep(&mut NoSpans)?;
    }

    let mut samples = Samples::new();
    let mut base_outcome: Option<RepOutcome> = None;
    let mut base_digest: Option<u64> = None;
    let mut base_report: Option<Report> = None;
    let mut digest_pc = Vec::new();
    let (mut json_ns_per_event, mut json_bytes_pc, mut jsonl_ns_per_event) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut full_obs_events_pc = 0.0;
    let mut round = 0u32;
    let mut round_s = 0.0;
    // At least MIN_ROUNDS rounds; beyond that, only rounds that fit.
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() + round_s <= args.seconds {
        let round_started = Instant::now();
        log.set_rep(round);
        for k in 0..arms.len() {
            let (arm, job) = &arms[(k + round as usize) % arms.len()];
            let cpu0 = process_cpu_ns()?;
            let root = log.enter(arm.span());
            let result = job.rep(&mut log);
            log.exit(root);
            let (outcome, report) = result.map_err(|e| format!("{}: {e}", arm.span()))?;
            if outcome.violations != 0 {
                return Err(format!(
                    "{}: {} Lemma 7/8 violations",
                    arm.span(),
                    outcome.violations
                ));
            }
            let check_ns =
                log.child_ns(root, "core.t10_check") + log.child_ns(root, "core.t11_check");
            let run_ns = log.child_ns(root, "sim.run")
                + log.child_ns(root, "shard.run")
                + log.child_ns(root, "txn.run");
            samples.entry(*arm).or_default().push(Sample {
                rep_ns: log.spans()[root].dur_ns() as f64,
                run_ns: run_ns as f64,
                read_ns: log.child_ns(root, "metrics.report_read") as f64,
                check_ns: check_ns as f64,
                cpu_ns: (process_cpu_ns()? - cpu0) as f64,
                commits: outcome.commits as f64,
            });
            if *arm == Arm::Base {
                let first = *base_outcome.get_or_insert(outcome);
                if outcome != first {
                    return Err(format!(
                        "base arm, round {round}: report differs from round 0's"
                    ));
                }
                let s = log.enter("metrics.digest");
                let digest = report.full_digest();
                log.exit(s);
                digest_pc.push(log.spans()[s].dur_ns() as f64 / outcome.commits as f64);
                if digest != *base_digest.get_or_insert(digest) {
                    return Err(format!(
                        "base arm, round {round}: full digest differs from round 0's"
                    ));
                }
                base_report = Some(report);
            } else if arm.same_model() && round == 0 {
                // Pure observation: another queue, thread count or
                // recorder must reproduce the plain run's digest. Round 0
                // rotates nothing, so the base arm has already run.
                let want = base_digest.expect("the base arm runs first in round 0");
                let got = report.full_digest();
                if got != want {
                    return Err(format!(
                        "{}: full digest {got:#018x}, the base arm's {want:#018x}",
                        arm.span()
                    ));
                }
            }
            if *arm == Arm::ObsFull {
                full_obs_events_pc = outcome.obs_events as f64 / outcome.commits as f64;
            }
        }
        // Serializers of the recorded artefacts, on fresh recordings (a
        // rep frees its own before it returns).
        if let Job::Single {
            cfg,
            mode: SingleMode::Checked,
        } = &base
        {
            let (m, trace) = run_traced(cfg.clone());
            let s = log.enter("trace.to_json");
            let json = trace_to_json(&trace);
            log.exit(s);
            json_ns_per_event.push(log.spans()[s].dur_ns() as f64 / trace.events.len() as f64);
            json_bytes_pc.push(json.len() as f64 / (m.reads.successes + m.writes.successes) as f64);
            let mut observed = cfg.clone();
            observed.obs = ObsOptions::full();
            let (_, obs) = run_observed(observed);
            let s = log.enter("obs.jsonl");
            let jsonl = obs.events_jsonl();
            log.exit(s);
            std::hint::black_box(jsonl.len());
            jsonl_ns_per_event
                .push(log.spans()[s].dur_ns() as f64 / obs.events.len().max(1) as f64);
        }
        round += 1;
        round_s = round_started.elapsed().as_secs_f64();
    }
    let pass_s = started.elapsed().as_secs_f64();

    let outcome = base_outcome.expect("at least one round");
    let report = base_report.expect("at least one round");
    let commits = outcome.commits as f64;
    let rep_pc = per_commit(&samples, Arm::Base, |s| s.rep_ns);
    let base_rep_pc = median(&rep_pc);
    let base_run_pc = median(&run_pc(&samples, Arm::Base));
    let base_check_pc = median(&per_commit(&samples, Arm::Base, |s| s.check_ns));

    // Every per-layer metric starts at 0: "not on this workload's path".
    let names = registry::per_layer_names();
    let mut v: Values = names.iter().map(|n| (*n, 0.0)).collect();

    // Shapes for the kernels, from the workload's own config.
    let (quorum, latency, pending, clients_note) = match &base {
        Job::Single { cfg, .. } => (cfg.quorum.clone(), cfg.latency, cfg.clients, "clients"),
        Job::Sharded { cfg, .. } => (cfg.quorum.clone(), cfg.latency, cfg.shards, "shards"),
        Job::Txn { cfg, .. } => (
            cfg.quorum.clone(),
            cfg.latency,
            cfg.clients_per_domain,
            "clients per domain",
        ),
    };
    let write_quorum = quorum
        .find_write_quorum_bits(quorum::ReplicaSet::full(quorum.n()))
        .map_or(quorum.n(), |q| q.len());

    // [K] kernels, each under its own span, and only those whose layer is
    // on this workload's path: every driver has the event loop; only the
    // nested-transaction driver locks and generates programs; only it does
    // not record into `OpStats`; only the sharded workload places items;
    // only `single_write90_faulted` parses a plan.
    let seed = args.seed;
    let (txn, sharded) = (
        matches!(base, Job::Txn { .. }),
        matches!(base, Job::Sharded { .. }),
    );
    let planned = matches!(&base, Job::Single { cfg, .. } if !cfg.faults.is_empty());
    // The placement kernels' keyspace (never run off the sharded workload).
    let (items, shards) = match &base {
        Job::Sharded { cfg, .. } => (cfg.items, cfg.shards),
        _ => (0, 0),
    };
    type Kernel<'a> = (bool, &'static str, &'static str, &'a dyn Fn() -> f64);
    let kernel_table: [Kernel; 15] = [
        (
            true,
            "queue.hold_ns_per_event",
            "kernel.queue_hold",
            &|| kernels::queue_hold_ns(pending, &latency, seed),
        ),
        (true, "latency.sample_ns", "kernel.latency_sample", &|| {
            kernels::latency_sample_ns(&latency, seed)
        }),
        (true, "quorum.is_quorum_ns", "kernel.is_quorum", &|| {
            kernels::is_quorum_ns(&*quorum)
        }),
        (true, "quorum.find_quorum_ns", "kernel.find_quorum", &|| {
            kernels::find_quorum_ns(&*quorum)
        }),
        (true, "arena.discover_ns", "kernel.arena_discover", &|| {
            kernels::arena_discover_ns(&*quorum, 64)
        }),
        (true, "arena.set_ns", "kernel.arena_set", &|| {
            kernels::arena_set_ns(&*quorum, 64)
        }),
        (txn, "cc.lock_cycle_ns", "kernel.lock_cycle", &|| {
            kernels::lock_cycle_ns(4)
        }),
        (txn, "cc.lock_conflict_ns", "kernel.lock_conflict", &|| {
            kernels::lock_conflict_ns(4)
        }),
        (
            txn,
            "nested_txn.program_gen_ns",
            "kernel.program_gen",
            &|| kernels::program_gen_ns(4),
        ),
        (
            !txn,
            "metrics.record_ns",
            "kernel.metrics_record",
            &kernels::metrics_record_ns,
        ),
        (
            !txn,
            "obs.hist_record_ns",
            "kernel.hist_record",
            &kernels::hist_record_ns,
        ),
        (
            planned,
            "faults.parse_us",
            "faults.parse",
            &kernels::fault_parse_us,
        ),
        (sharded, "placement.owner_of_ns", "kernel.owner_of", &|| {
            kernels::owner_of_ns(items, shards)
        }),
        (
            sharded,
            "placement.plan_moves_us",
            "kernel.plan_moves",
            &|| kernels::plan_moves_us(items, shards),
        ),
        (
            sharded,
            "placement.setup_ns_per_item",
            "kernel.placement_setup",
            &|| kernels::placement_setup_ns_per_item(items, shards),
        ),
    ];
    for (on_path, metric, span, kernel) in kernel_table {
        if on_path {
            let s = log.enter(span);
            let ns = kernel();
            log.exit(s);
            v.insert(metric, ns);
        }
    }
    let (hold_ns, sample_ns) = (v["queue.hold_ns_per_event"], v["latency.sample_ns"]);
    let (is_ns, find_ns) = (v["quorum.is_quorum_ns"], v["quorum.find_quorum_ns"]);
    let (discover_ns, set_ns) = (v["arena.discover_ns"], v["arena.set_ns"]);
    let (cycle_ns, conflict_ns) = (v["cc.lock_cycle_ns"], v["cc.lock_conflict_ns"]);
    let gen_ns = v["nested_txn.program_gen_ns"];
    v.insert("harness.timer_ns", timer_ns());

    // [C] counts and the calls-per-commit that scale the kernels.
    let calls = match &report {
        Report::Single(m) => {
            metrics_counts(m, base.sim_secs(), &mut v);
            v.insert("sim.run_ns_per_commit", base_run_pc);
            single_calls(m, write_quorum)
        }
        Report::Sharded(r, p) => {
            metrics_counts(&r.metrics, base.sim_secs(), &mut v);
            v.insert("shard.run_ns_per_commit", base_run_pc);
            let depths: Vec<f64> = p
                .epochs
                .iter()
                .flat_map(|e| e.queue_depths.iter().map(|&d| d as f64))
                .collect();
            v.insert(
                "shard.queue_depth_mean",
                depths.iter().sum::<f64>() / depths.len().max(1) as f64,
            );
            v.insert("placement.epochs", p.epochs.len() as f64);
            v.insert("placement.migrations", p.migrations as f64);
            v.insert("placement.migration_failures", p.migration_failures as f64);
            if let Some(last) = p.epochs.last() {
                let total: u64 = last.shard_commits.iter().sum();
                let max = last.shard_commits.iter().copied().max().unwrap_or(0);
                if total > 0 {
                    v.insert(
                        "placement.final_load_ratio",
                        max as f64 * last.shard_commits.len() as f64 / total as f64,
                    );
                }
            }
            let walls: Vec<f64> = p.epochs.iter().map(|e| e.wall_ns as f64).collect();
            let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
            if mean > 0.0 {
                let var =
                    walls.iter().map(|w| (w - mean).powi(2)).sum::<f64>() / walls.len() as f64;
                v.insert("placement.epoch_wall_cv", var.sqrt() / mean);
            }
            single_calls(&r.metrics, write_quorum)
        }
        Report::Txn(r) => {
            let s = &r.stats;
            let accesses = s.reads_committed + s.writes_committed;
            v.insert("txn.run_ns_per_txn", base_run_pc);
            v.insert("txn.abort_share", ratio(s.txns_aborted, s.txns_started));
            v.insert("txn.accesses_per_txn", ratio(accesses, s.txns_committed));
            v.insert(
                "txn.lock_waits_per_txn",
                ratio(s.lock_waits, s.txns_committed),
            );
            v.insert(
                "txn.lock_timeouts_per_ktxn",
                1e3 * ratio(s.lock_timeouts, s.txns_committed),
            );
            v.insert(
                "txn.compensations_per_ktxn",
                1e3 * ratio(s.compensations, s.txns_committed),
            );
            v.insert(
                "txn.retries_per_ktxn",
                1e3 * ratio(s.retries, s.txns_committed),
            );
            v.insert("probe.violations", s.lemma_violations as f64);
            v.insert("faults.injected", s.injected_faults as f64);
            v.insert(
                "faults.dropped_msgs_per_kcommit",
                1e3 * ratio(s.dropped_messages, s.txns_committed),
            );
            v.insert("reconfig.committed", s.reconfigurations as f64);
            v.insert("reconfig.failed", s.reconfig_failures as f64);
            v.insert(
                "model.commits_per_sim_s",
                s.txns_committed as f64 / base.sim_secs(),
            );
            v.insert("model.msgs_per_commit", ratio(s.messages, s.txns_committed));
            v.insert(
                "model.fail_share",
                1.0 - ratio(s.txns_committed, s.txns_started),
            );
            v.insert(
                "cc.est_share",
                (cycle_ns * ratio(accesses, s.txns_committed)
                    + conflict_ns * ratio(s.lock_waits, s.txns_committed))
                    / base_rep_pc,
            );
            v.insert(
                "nested_txn.est_share",
                gen_ns * ratio(s.txns_started, s.txns_committed) / base_rep_pc,
            );
            let tries = accesses + s.retries + s.compensations + s.comp_retries;
            CallsPerCommit {
                tries: ratio(tries, s.txns_committed),
                msgs: ratio(s.messages, s.txns_committed),
                phases: ratio(tries + s.writes_committed, s.txns_committed),
                sets: ratio(
                    (s.writes_committed + s.compensations) * write_quorum as u64,
                    s.txns_committed,
                ),
            }
        }
    };
    v.insert("queue.est_share", hold_ns * calls.tries / base_rep_pc);
    v.insert("latency.est_share", sample_ns * calls.msgs / base_rep_pc);
    v.insert(
        "quorum.est_share",
        (find_ns * calls.phases + is_ns * calls.msgs / 2.0) / base_rep_pc,
    );
    v.insert(
        "arena.est_share",
        (discover_ns * calls.tries + set_ns * calls.sets) / base_rep_pc,
    );

    // [A] ablation pairs, on the driver-run span per commit.
    let monitor = run_delta(&samples, Arm::Base, Arm::MonitorOff);
    v.insert(
        "queue.heap_delta_ns_per_commit",
        run_delta(&samples, Arm::Heap, Arm::Base),
    );
    v.insert("probe.monitor_ns_per_commit", monitor);
    v.insert("probe.share", monitor / base_rep_pc);
    v.insert(
        "sim.genaware_ns_per_commit",
        run_delta(&samples, Arm::GenAware, Arm::Base)
            + run_delta(&samples, Arm::Base, Arm::ReconfigOff),
    );
    v.insert(
        "faults.healthy_delta_ns_per_commit",
        run_delta(&samples, Arm::Base, Arm::Healthy),
    );
    v.insert(
        "shard.vs_single_ratio",
        run_ratio(&samples, Arm::Shard1, Arm::Base),
    );
    v.insert(
        "placement.frozen_ratio",
        run_ratio(&samples, Arm::Frozen, Arm::Base),
    );
    match &base {
        Job::Single { mode, .. } => {
            if *mode == SingleMode::Checked {
                v.insert(
                    "trace.record_ns_per_commit",
                    run_delta(&samples, Arm::Base, Arm::Plain),
                );
                v.insert(
                    "trace.events_per_commit",
                    outcome.oracle_events as f64 / commits,
                );
                v.insert("trace.bytes_per_commit", median(&json_bytes_pc));
                v.insert("trace.to_json_ns_per_event", median(&json_ns_per_event));
                v.insert("core.t10_ns_per_commit", base_check_pc);
                v.insert(
                    "core.t10_ns_per_event",
                    base_check_pc * commits / outcome.oracle_events as f64,
                );
                v.insert("core.t10_share", base_check_pc / base_rep_pc);
                v.insert(
                    "obs.spans_ns_per_commit",
                    run_delta(&samples, Arm::ObsSpans, Arm::Plain),
                );
                v.insert(
                    "obs.full_ns_per_commit",
                    run_delta(&samples, Arm::ObsFull, Arm::Plain),
                );
                v.insert("obs.events_per_commit", full_obs_events_pc);
                v.insert("obs.jsonl_ns_per_event", median(&jsonl_ns_per_event));
            }
            v.insert(
                "sim.self_share",
                1.0 - EVENT_LOOP_SHARES.iter().map(|n| v[*n]).sum::<f64>(),
            );
        }
        Job::Sharded { .. } => {
            // wall(D) = fixed + marginal × commits(D), solved per round
            // from the base arm (D) and the doubled arm (2D).
            let (one, two) = (&samples[&Arm::Base], &samples[&Arm::Double]);
            let marginal: Vec<f64> = one
                .iter()
                .zip(two)
                .map(|(a, b)| (b.run_ns - a.run_ns) / (b.commits - a.commits))
                .collect();
            let fixed_ms: Vec<f64> = one
                .iter()
                .zip(&marginal)
                .map(|(a, m)| (a.run_ns - m * a.commits) / 1e6)
                .collect();
            v.insert("shard.marginal_ns_per_commit", median(&marginal));
            v.insert("shard.fixed_ms_per_run", median(&fixed_ms));
        }
        Job::Txn { .. } => {
            v.insert(
                "txn.commit_capture_ns_per_txn",
                run_delta(&samples, Arm::Base, Arm::Plain),
            );
            v.insert("txn.monitor_ns_per_txn", monitor);
            v.insert("core.t11_ns_per_txn", base_check_pc);
            v.insert("core.t11_share", base_check_pc / base_rep_pc);
            v.insert(
                "obs.causal_profile_ns_per_txn",
                run_delta(&samples, Arm::CausalProfile, Arm::Plain),
            );
            v.insert(
                "obs.causal_full_ns_per_txn",
                run_delta(&samples, Arm::CausalFull, Arm::Plain),
            );
        }
    }
    // Scaling is recorded only when the host has the cores: on one core
    // the arm is absent and both stay 0, "not measured".
    if let (Some(two), Some(one)) = (samples.get(&Arm::Base), samples.get(&Arm::OneThread)) {
        let w2: Vec<f64> = two.iter().map(|s| s.run_ns).collect();
        let w1: Vec<f64> = one.iter().map(|s| s.run_ns).collect();
        v.insert("par.speedup_2t", median_paired_ratio(&w1, &w2));
        let cpu = |xs: &[Sample]| xs.iter().map(|s| s.cpu_ns).sum::<f64>();
        v.insert("par.cpu_ratio_2t", cpu(two) / cpu(one));
    }

    let read_pc = median(&per_commit(&samples, Arm::Base, |s| s.read_ns));
    v.insert("metrics.report_read_ns_per_commit", read_pc);
    v.insert("metrics.digest_ns_per_commit", median(&digest_pc));
    v.insert("alloc.count_per_commit", allocs_pc);
    v.insert("alloc.bytes_per_commit", alloc_bytes_pc);
    v.insert("alloc.peak_live_mb", peak_live / (1024.0 * 1024.0));
    v.insert("harness.reps", f64::from(round));
    v.insert("harness.rep_iqr_rel", iqr_rel(&rep_pc));
    if let Some(timed) = args.timed_wall_ns {
        v.insert("harness.trace_overhead_ratio", base_rep_pc / timed);
    }
    let other_shares = [
        "cc.est_share",
        "nested_txn.est_share",
        "core.t10_share",
        "core.t11_share",
    ];
    let accounted = EVENT_LOOP_SHARES
        .iter()
        .chain(&other_shares)
        .map(|n| v[*n])
        .sum::<f64>()
        + (read_pc + v["trace.record_ns_per_commit"] + v["txn.commit_capture_ns_per_txn"])
            / base_rep_pc;
    v.insert("harness.accounted_share", accounted);

    let line = registry::result_line(
        &names,
        &v,
        outcome.attempted,
        outcome.attempted - outcome.commits,
    )?;

    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{}: {e}", args.out_dir))?;
    let path = format!("{}/spans_{name}.jsonl", args.out_dir);
    std::fs::write(&path, log.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;

    println!(
        "workload   {name}   traced pass (one {} = one committed unit)",
        args.workload.unit()
    );
    println!(
        "input      seed {}  {} simulated s per rep  kernels shaped by {} sites, {pending} {clients_note}",
        args.seed,
        base.sim_secs(),
        quorum.n()
    );
    println!(
        "threads    {} used of {} cores{}",
        base.threads(),
        cores(),
        if !matches!(base, Job::Single { .. }) && base.threads() < 2 {
            " (2 wanted: single-core host, par.* not measured)"
        } else {
            ""
        }
    );
    let arm_names: Vec<&str> = arms.iter().map(|(a, _)| &a.span()[4..]).collect();
    println!(
        "arms       one warm-up rep of each, then {} interleaved rounds, {pass_s:.2} s in all, of: {}",
        round,
        arm_names.join(", ")
    );
    println!(
        "checked    lemma violations 0 on every rep of every arm; base digest {:#018x} on every round \
         and reproduced by: {}",
        base_digest.expect("at least one round"),
        arms.iter().filter(|(a, _)| a.same_model()).map(|(a, _)| &a.span()[4..]).collect::<Vec<_>>().join(", ")
    );
    println!("spans      {} spans written to {path}", log.spans().len());
    if args.timed_wall_ns.is_none() {
        println!("note       no --timed-wall-ns given: harness.trace_overhead_ratio reads 0 (run.sh supplies it)");
    }
    print!("{}", registry::table(&names, &v));
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qcbench-trace: {e}");
            ExitCode::from(1)
        }
    }
}
