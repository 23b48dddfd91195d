//! The five workloads, and what one *rep* of each does.
//!
//! A rep is one complete deterministic run of a driver plus the report
//! read a user would make (commit count, p50/p99 extraction) and, where
//! the workload says so, the paper oracle over the run's output. The work
//! in a rep is fixed by the seed — simulated duration, clients, items —
//! and never by wall time, so two commits of this repository do identical
//! work and their commit counts repeat exactly.
//!
//! Every config sets `queue` explicitly: `SimConfig::new` and friends
//! read `QC_EVENT_QUEUE` from the environment, and a benchmark must not
//! change with the caller's shell.

use std::sync::Arc;

use nested_txn::{BankingGen, WorkloadKind};
use qc_obs::{CausalOptions, ObsOptions};
use qc_sim::{
    check_commit_order_serializable, check_trace, run, run_observed, run_sharded_elastic,
    run_traced, run_txn, run_txn_causal, run_txn_committed, ContactPolicy, ElasticPolicy,
    FaultPlan, ItemDist, Metrics, MultiConfig, OpStats, PlacementPolicy, PlacementReport,
    QueueKind, ReconfigPolicy, RetryPolicy, ShardReport, SimConfig, SimTime, TxnConfig, TxnReport,
    Workload,
};
use quorum::Majority;

use crate::host::threads_for;
use crate::spans::Probe;

/// The scripted half of `single_write90_faulted`'s fault load (the other
/// half is the stochastic crash/repair process drawn from the seed).
pub const FAULT_PLAN: &str = "crash@4000:1; recover@9000:1; drop@20000:5000,100; \
    delay@60000:10000,5; abort@70000:3; crash@100000:0; crash@100500:2; \
    recover@130000:0; recover@131000:2";

/// One of the five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// The bare event loop of the single-item driver.
    SingleRead90,
    /// The same driver, write-heavy, under crashes, drops and reconfiguration.
    SingleWrite90Faulted,
    /// A traced run plus the Theorem 10 conformance check.
    SingleCheckedT10,
    /// The sharded driver under zipfian skew with elastic placement.
    ShardedZipfElastic,
    /// The nested-transaction driver plus the Theorem 11 replay.
    TxnBankingT11,
}

impl WorkloadId {
    /// All five, in reporting order.
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::SingleRead90,
        WorkloadId::SingleWrite90Faulted,
        WorkloadId::SingleCheckedT10,
        WorkloadId::ShardedZipfElastic,
        WorkloadId::TxnBankingT11,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SingleRead90 => "single_read90",
            WorkloadId::SingleWrite90Faulted => "single_write90_faulted",
            WorkloadId::SingleCheckedT10 => "single_checked_t10",
            WorkloadId::ShardedZipfElastic => "sharded_zipf_elastic",
            WorkloadId::TxnBankingT11 => "txn_banking_t11",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, with its simulated loop type and client
    /// count or rate (recorded in `BENCHMARK.json`; at most 200 characters).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::SingleRead90 => {
                "Bare event loop: queue, latency/RNG, quorum predicates, arena and probe do all \
                 the work. Simulated closed loop, 8 clients, think 0, 90% reads, no faults."
            }
            WorkloadId::SingleWrite90Faulted => {
                "Same layers used differently: two quorum phases per op, backoff, stale-generation \
                 retry, reconfigure. Simulated closed loop, 8 clients, 10% reads, crashes + plan."
            }
            WorkloadId::SingleCheckedT10 => {
                "Trace recording and the Theorem 10 checker do >80% of the work and set peak RSS; \
                 bypass workload for driver changes. Simulated closed loop, 8 clients, 50% reads."
            }
            WorkloadId::ShardedZipfElastic => {
                "Per-item state, barrier sampling, placement planning/migration and par dominate. \
                 Simulated open loop, 20000 arrivals/s routed over 100000 items, zipf 0.99, 2 threads."
            }
            WorkloadId::TxnBankingT11 => {
                "txn_workload, lock table, program generation, compensation and the Theorem 11 \
                 replay; allocation-heavy. Simulated closed loop, 16 domains x 4 clients, 2 threads."
            }
        }
    }

    /// What one committed unit of this workload is called.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            WorkloadId::TxnBankingT11 => "txn",
            _ => "commit",
        }
    }
}

/// A known difference `selftest.sh` plants to check that the benchmark
/// can see one: each applies to exactly one workload and is a no-op on
/// the others, which must then read as unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The workload as specified.
    None,
    /// `single_read90` with every recorder on (`ObsOptions::full()` through
    /// `run_observed`): the same simulated run — recording is pure
    /// observation — at about 1.6× the host cost. Smaller switches were
    /// tried first: the memoized Lemma 7/8 monitor costs this workload
    /// 1–6 ns of 218 and the heap queue saves 16; with one process in five
    /// landing in another mode of the host, ten pairs went 6–4 and 8–2.
    ObsFull,
    /// `sharded_zipf_elastic` with rebalancing frozen
    /// (`max_moves_per_epoch = 0`).
    Frozen,
}

impl Variant {
    /// Parse the `--variant` argument.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Variant::None),
            "obs_full" => Some(Variant::ObsFull),
            "frozen" => Some(Variant::Frozen),
            _ => None,
        }
    }
}

/// What the single-item driver is asked to do in a rep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SingleMode {
    /// `qc_sim::run`.
    Plain,
    /// `run_traced`, then `check_trace` over the recorded schedule.
    Checked,
    /// `run_observed` (spans / event log as `cfg.obs` says).
    Observed,
}

/// What the nested-transaction driver is asked to do in a rep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnMode {
    /// `run_txn`.
    Plain,
    /// `run_txn_committed`, then `check_commit_order_serializable`.
    Checked,
    /// `run_txn_causal` (flight recorder as `cfg.causal` says).
    Causal,
}

/// One fully built rep: a driver, its config and its thread count.
#[derive(Clone)]
pub enum Job {
    /// The single-item simulator.
    Single {
        /// The run's configuration.
        cfg: SimConfig,
        /// Which entry point, and whether the oracle runs.
        mode: SingleMode,
    },
    /// The sharded simulator (`run_sharded_elastic`: the same inner call
    /// as `run_sharded`, plus the placement report).
    Sharded {
        /// The run's configuration.
        cfg: MultiConfig,
        /// OS threads actually used.
        threads: usize,
    },
    /// The nested-transaction driver.
    Txn {
        /// The run's configuration.
        cfg: TxnConfig,
        /// OS threads actually used.
        threads: usize,
        /// Which entry point, and whether the oracle runs.
        mode: TxnMode,
    },
}

/// The report a rep ends with, kept for the full digest computed outside
/// the timed region.
// One report exists per rep and is never stored in bulk, so the size gap
// between the variants costs nothing worth a Box.
#[allow(clippy::large_enum_variant)]
pub enum Report {
    /// Single-item driver.
    Single(Metrics),
    /// Sharded driver.
    Sharded(ShardReport, PlacementReport),
    /// Nested-transaction driver.
    Txn(TxnReport),
}

impl Report {
    /// The crate's own bit-exact digest of the report (every counter and
    /// every latency sample). Costs tens of ms on the long workloads, so
    /// it is computed once per arm, never per rep.
    #[must_use]
    pub fn full_digest(&self) -> u64 {
        match self {
            Report::Single(m) => m.digest(),
            Report::Sharded(r, p) => r.digest() ^ p.digest().rotate_left(1),
            Report::Txn(r) => r.digest(),
        }
    }
}

/// What the report read of one rep found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepOutcome {
    /// Committed units: logical reads/writes, or top-level transactions
    /// on `txn_banking_t11`.
    pub commits: u64,
    /// Units the simulated clients attempted (`OpStats::attempts`, or
    /// `txns_started`).
    pub attempted: u64,
    /// Lemma 7/8 violations the inline monitor counted (must be 0).
    pub violations: u64,
    /// FNV-1a over everything the report read extracted — identical on
    /// every rep of a workload, or the run is not deterministic.
    pub fingerprint: u64,
    /// Trace events the Theorem 10 checker replayed (0 without it).
    pub oracle_events: u64,
    /// Events the structured event log retained (0 without it).
    pub obs_events: u64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn read_class(s: &OpStats, h: &mut Fnv) {
    for v in [
        s.attempts,
        s.successes,
        s.messages,
        s.retries,
        s.timeouts,
        s.unavailable,
        s.aborted,
    ] {
        h.u64(v);
    }
    // The exact-percentile path: sorts a copy of the raw samples.
    h.f64(s.percentile_ms(50.0));
    h.f64(s.percentile_ms(99.0));
    let hist = s.latency_hist();
    for v in [hist.count(), hist.sum(), hist.max()] {
        h.u64(v);
    }
}

/// The report read of the single and sharded drivers: commit count,
/// p50/p99 of each class, and every counter, folded into `h`.
fn read_metrics(m: &Metrics, h: &mut Fnv) -> (u64, u64) {
    read_class(&m.reads, h);
    read_class(&m.writes, h);
    for v in [
        m.site_failures,
        m.dropped_messages,
        m.forced_aborts,
        m.injected_faults,
        m.lemma_violations,
        m.reconfigurations,
        m.reconfig_failures,
        m.stale_rejections,
    ] {
        h.u64(v);
    }
    (
        m.reads.successes + m.writes.successes,
        m.reads.attempts + m.writes.attempts,
    )
}

impl Job {
    /// Run one rep. Spans go to `p`; the timed pass passes
    /// [`NoSpans`](crate::spans::NoSpans).
    ///
    /// # Errors
    ///
    /// The oracle's own description when Theorem 10 or Theorem 11 does
    /// not hold of the run, or when the checker and the report disagree
    /// on the commit count.
    pub fn rep<P: Probe>(&self, p: &mut P) -> Result<(RepOutcome, Report), String> {
        let mut h = Fnv::new();
        let mut oracle_events = 0u64;
        let mut obs_events = 0u64;
        let (commits, attempted, violations, report) = match self {
            Job::Single { cfg, mode } => {
                let s = p.enter("sim.run");
                let (m, trace, obs) = match mode {
                    SingleMode::Plain => (run(cfg.clone()), None, None),
                    SingleMode::Checked => {
                        let (m, t) = run_traced(cfg.clone());
                        (m, Some(t), None)
                    }
                    SingleMode::Observed => {
                        let (m, o) = run_observed(cfg.clone());
                        (m, None, Some(o))
                    }
                };
                p.exit(s);
                let s = p.enter("metrics.report_read");
                let (c, a) = read_metrics(&m, &mut h);
                p.exit(s);
                if let Some(trace) = trace {
                    let s = p.enter("core.t10_check");
                    let checked = check_trace(&trace, &*cfg.quorum);
                    p.exit(s);
                    let conf = checked.map_err(|d| format!("Theorem 10 replay diverged: {d:?}"))?;
                    if conf.committed as u64 != c {
                        return Err(format!(
                            "Theorem 10 checker saw {} committed TMs, the report {c}",
                            conf.committed
                        ));
                    }
                    oracle_events = conf.events as u64;
                    h.u64(oracle_events);
                    // Freeing the trace is part of what a checked run costs.
                    drop(trace);
                }
                if let Some(obs) = obs {
                    obs_events = obs.events.len() as u64;
                    h.u64(obs_events);
                }
                (c, a, m.lemma_violations, Report::Single(m))
            }
            Job::Sharded { cfg, threads } => {
                let s = p.enter("shard.run");
                let (r, placement) = run_sharded_elastic(cfg, *threads);
                p.exit(s);
                let s = p.enter("metrics.report_read");
                let (c, a) = read_metrics(&r.metrics, &mut h);
                for v in r.item_commits.iter().chain(&r.item_vns) {
                    h.u64(*v);
                }
                h.u64(placement.migrations);
                h.u64(placement.migration_failures);
                p.exit(s);
                (
                    c,
                    a,
                    r.metrics.lemma_violations,
                    Report::Sharded(r, placement),
                )
            }
            Job::Txn { cfg, threads, mode } => {
                let s = p.enter("txn.run");
                let (r, committed, causal) = match mode {
                    TxnMode::Plain => (run_txn(cfg, *threads), None, None),
                    TxnMode::Checked => {
                        let (r, c) = run_txn_committed(cfg, *threads);
                        (r, Some(c), None)
                    }
                    TxnMode::Causal => {
                        let (r, c) = run_txn_causal(cfg, *threads);
                        (r, None, Some(c))
                    }
                };
                p.exit(s);
                let s = p.enter("metrics.report_read");
                h.u64(r.digest());
                p.exit(s);
                if let Some(committed) = committed {
                    let s = p.enter("core.t11_check");
                    let replay = check_commit_order_serializable(&|_| 0, &committed);
                    p.exit(s);
                    replay.map_err(|e| format!("Theorem 11 replay failed: {e}"))?;
                    if committed.len() as u64 != r.stats.txns_committed {
                        return Err(format!(
                            "commit capture holds {} transactions, the report {}",
                            committed.len(),
                            r.stats.txns_committed
                        ));
                    }
                    drop(committed);
                }
                if let Some(causal) = causal {
                    // The profile's digest only: the report's own digest
                    // serializes every retained span tree.
                    obs_events = causal.profile().txns();
                    h.u64(causal.profile().digest());
                }
                let stats = &r.stats;
                (
                    stats.txns_committed,
                    stats.txns_started,
                    stats.lemma_violations,
                    Report::Txn(r),
                )
            }
        };
        let outcome = RepOutcome {
            commits,
            attempted,
            violations,
            fingerprint: h.0,
            oracle_events,
            obs_events,
        };
        Ok((outcome, report))
    }

    /// This job on the other event-queue implementation.
    #[must_use]
    pub fn with_queue(&self, kind: QueueKind) -> Job {
        let mut job = self.clone();
        match &mut job {
            Job::Single { cfg, .. } => cfg.queue = kind,
            Job::Sharded { cfg, .. } => cfg.queue = kind,
            Job::Txn { cfg, .. } => cfg.queue = kind,
        }
        job
    }

    /// This job with the Lemma 7/8 monitor switched.
    #[must_use]
    pub fn with_monitor(&self, on: bool) -> Job {
        let mut job = self.clone();
        match &mut job {
            Job::Single { cfg, .. } => cfg.monitor = on,
            Job::Sharded { cfg, .. } => cfg.monitor = on,
            Job::Txn { cfg, .. } => cfg.monitor = on,
        }
        job
    }

    /// This job on `threads` OS threads, or `None` for the single-item
    /// driver, which has no thread count.
    #[must_use]
    pub fn with_threads(&self, n: usize) -> Option<Job> {
        let mut job = self.clone();
        match &mut job {
            Job::Single { .. } => return None,
            Job::Sharded { threads, .. } | Job::Txn { threads, .. } => *threads = n,
        }
        Some(job)
    }

    /// This job with its simulated duration multiplied by `k`.
    #[must_use]
    pub fn with_duration_scaled(&self, k: u64) -> Job {
        let mut job = self.clone();
        let d = match &mut job {
            Job::Single { cfg, .. } => &mut cfg.duration,
            Job::Sharded { cfg, .. } => &mut cfg.duration,
            Job::Txn { cfg, .. } => &mut cfg.duration,
        };
        *d = SimTime(d.as_micros() * k);
        job
    }

    /// OS threads the job runs on.
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            Job::Single { .. } => 1,
            Job::Sharded { threads, .. } | Job::Txn { threads, .. } => *threads,
        }
    }

    /// Simulated seconds one rep covers.
    #[must_use]
    pub fn sim_secs(&self) -> f64 {
        let d = match self {
            Job::Single { cfg, .. } => cfg.duration,
            Job::Sharded { cfg, .. } => cfg.duration,
            Job::Txn { cfg, .. } => cfg.duration,
        };
        d.as_micros() as f64 / 1e6
    }
}

/// The single-item driver's shared shape: majority of 5, 8 closed-loop
/// clients with no think time, LAN latencies, minimal-quorum contact,
/// monitor on.
fn single(seed: u64, read_fraction: f64, secs: u64) -> SimConfig {
    let mut c = SimConfig::new(Arc::new(Majority::new(5)));
    c.clients = 8;
    c.think_time = SimTime::ZERO;
    c.read_fraction = read_fraction;
    c.contact = ContactPolicy::MinimalQuorum;
    c.duration = SimTime::from_secs(secs);
    c.seed = seed;
    c.queue = QueueKind::Calendar;
    c
}

/// The elastic policy of `sharded_zipf_elastic`, or its frozen control.
#[must_use]
pub fn elastic(frozen: bool) -> PlacementPolicy {
    let mut pol = ElasticPolicy::new();
    if frozen {
        pol.max_moves_per_epoch = 0;
    }
    PlacementPolicy::Elastic(pol)
}

/// Build the rep of workload `id` for `seed` — the *set-up* a user pays
/// before the first run: config construction, `FaultPlan::parse`, thread
/// count. `sim_scale` multiplies the simulated duration (1 everywhere
/// except `selftest.sh`'s scaling report).
///
/// # Errors
///
/// A description when the scripted fault plan does not parse.
pub fn build(id: WorkloadId, seed: u64, variant: Variant, sim_scale: u64) -> Result<Job, String> {
    let job = match id {
        WorkloadId::SingleRead90 => {
            let mut cfg = single(seed, 0.9, 300);
            if variant == Variant::ObsFull {
                cfg.obs = ObsOptions::full();
                Job::Single {
                    cfg,
                    mode: SingleMode::Observed,
                }
            } else {
                Job::Single {
                    cfg,
                    mode: SingleMode::Plain,
                }
            }
        }
        WorkloadId::SingleWrite90Faulted => {
            let mut cfg = single(seed, 0.1, 300);
            cfg.mttf = Some(SimTime::from_secs(5));
            cfg.mttr = SimTime::from_millis(500);
            cfg.retry = RetryPolicy::retries(4, SimTime::from_millis(2));
            cfg.reconfig = ReconfigPolicy::reactive();
            cfg.faults = FaultPlan::parse(FAULT_PLAN)?;
            Job::Single {
                cfg,
                mode: SingleMode::Plain,
            }
        }
        WorkloadId::SingleCheckedT10 => Job::Single {
            cfg: single(seed, 0.5, 20),
            mode: SingleMode::Checked,
        },
        WorkloadId::ShardedZipfElastic => {
            let mut cfg = MultiConfig::new(Arc::new(Majority::new(5)));
            cfg.contact = ContactPolicy::MinimalQuorum;
            cfg.items = 100_000;
            cfg.shards = 8;
            cfg.workload = Workload::Routed {
                interarrival: SimTime(50),
            };
            cfg.dist = ItemDist::Zipfian { theta: 0.99 };
            // 7.5 simulated seconds at one arrival per 50 µs is 150 000
            // commits, about 0.43 s of host time on two threads.
            cfg.duration = SimTime::from_millis(7_500);
            cfg.seed = seed;
            cfg.reconfig = ReconfigPolicy::scripted_only();
            cfg.placement = elastic(variant == Variant::Frozen);
            cfg.queue = QueueKind::Calendar;
            Job::Sharded {
                cfg,
                threads: threads_for(2),
            }
        }
        WorkloadId::TxnBankingT11 => {
            let mut cfg = TxnConfig::new(
                Arc::new(Majority::new(3)),
                WorkloadKind::Banking(BankingGen::new(4)),
            );
            cfg.items = 64;
            cfg.domains = 16;
            cfg.clients_per_domain = 4;
            cfg.duration = SimTime::from_secs(300);
            cfg.seed = seed;
            cfg.queue = QueueKind::Calendar;
            cfg.causal = CausalOptions::disabled();
            Job::Txn {
                cfg,
                threads: threads_for(2),
                mode: TxnMode::Checked,
            }
        }
    };
    Ok(if sim_scale == 1 {
        job
    } else {
        job.with_duration_scaled(sim_scale)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_reasons_fit_the_contract() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{}: {} chars",
                w.name(),
                w.why().len()
            );
            assert!(!w.why().contains('\n'));
            assert!(
                w.why().contains("loop"),
                "{}: state closed or open loop",
                w.name()
            );
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
        assert_eq!(Variant::from_name("frozen"), Some(Variant::Frozen));
        assert_eq!(Variant::from_name("else"), None);
    }

    #[test]
    fn every_workload_builds_with_an_explicit_queue() {
        for w in WorkloadId::ALL {
            let job = build(w, 23, Variant::None, 1).expect("builds");
            let queue = match &job {
                Job::Single { cfg, .. } => cfg.queue,
                Job::Sharded { cfg, .. } => cfg.queue,
                Job::Txn { cfg, .. } => cfg.queue,
            };
            assert_eq!(queue, QueueKind::Calendar);
            let doubled = build(w, 23, Variant::None, 2).expect("builds");
            assert_eq!(doubled.sim_secs(), 2.0 * job.sim_secs());
        }
    }

    #[test]
    fn variants_touch_only_their_own_workload() {
        let plain = build(WorkloadId::SingleCheckedT10, 5, Variant::None, 1).expect("builds");
        for v in [Variant::ObsFull, Variant::Frozen] {
            let Job::Single { cfg, mode } =
                build(WorkloadId::SingleCheckedT10, 5, v, 1).expect("builds")
            else {
                panic!("single driver")
            };
            let Job::Single {
                cfg: base,
                mode: base_mode,
            } = &plain
            else {
                panic!("single driver")
            };
            assert_eq!((cfg.obs, mode), (base.obs, *base_mode));
        }
        let Job::Single { cfg, mode } =
            build(WorkloadId::SingleRead90, 5, Variant::ObsFull, 1).expect("builds")
        else {
            panic!("single driver")
        };
        assert_eq!((cfg.obs, mode), (ObsOptions::full(), SingleMode::Observed));
        let Job::Sharded { cfg, .. } =
            build(WorkloadId::ShardedZipfElastic, 5, Variant::Frozen, 1).expect("builds")
        else {
            panic!("sharded driver")
        };
        assert_eq!(cfg.placement, elastic(true));
    }

    /// A short rep of each driver: the oracles run and the fingerprint
    /// repeats. (Debug-build friendly: durations are cut to milliseconds.)
    #[test]
    fn short_reps_are_deterministic_and_checked() {
        use crate::spans::NoSpans;
        for w in WorkloadId::ALL {
            let mut job = build(w, 9, Variant::None, 1).expect("builds");
            match &mut job {
                Job::Single { cfg, .. } => cfg.duration = SimTime::from_millis(300),
                Job::Sharded { cfg, .. } => {
                    cfg.items = 256;
                    cfg.duration = SimTime::from_millis(600);
                }
                Job::Txn { cfg, .. } => cfg.duration = SimTime::from_millis(300),
            }
            let (a, ra) = job.rep(&mut NoSpans).expect("oracle holds");
            let (b, rb) = job.rep(&mut NoSpans).expect("oracle holds");
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(ra.full_digest(), rb.full_digest());
            assert!(a.commits > 0 && a.attempted >= a.commits);
            assert_eq!(a.violations, 0);
            let heap = job
                .with_queue(QueueKind::Heap)
                .rep(&mut NoSpans)
                .expect("oracle holds");
            assert_eq!(
                heap.0.fingerprint,
                a.fingerprint,
                "{}: heap vs calendar",
                w.name()
            );
            if w == WorkloadId::SingleCheckedT10 {
                assert!(a.oracle_events > 0);
            }
        }
    }
}
