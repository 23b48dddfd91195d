//! The single-item driver: one replicated object, closed-loop clients, and
//! the stochastic crash/repair process.
//!
//! The paper is a theory paper; this simulator is the evaluation substrate
//! for the quantitative claims its introduction motivates — replication
//! "to improve availability, reliability and performance". Sites host one
//! replica each (a versioned `(vn, value)` store, Gifford's DM state) and
//! crash/recover under an exponential failure process and/or a
//! deterministic [`FaultPlan`]; closed-loop clients issue logical reads and
//! writes through the Gifford protocol (version-number discovery against a
//! read-quorum, then, for writes, installation at a write-quorum); message
//! costs and latencies are accounted per operation, and every committed
//! operation is fed through the runtime lemma monitor.
//!
//! The protocol itself — phases, quorum rule, fault application,
//! reconfiguration, the lemma monitor, and the per-operation bookkeeping —
//! lives in [`crate::protocol`] (see its docs for the fidelity notes). What
//! is here is what only this driver has: [`SimConfig`], the event enum and
//! its dispatch, closed-loop pacing with think time, the per-client
//! configuration cache, the commit history, and the exponential
//! time-to-failure / time-to-repair process per site. What a run records
//! is its observer's ([`crate::observe`]): [`run_with`] composes any
//! observer with the run.
//!
//! # Hot path
//!
//! The event loop is `pop_until(duration)` on [`crate::queue`]'s queue
//! (calendar by default, the binary-heap oracle under
//! `queue = QueueKind::Heap`), which owns the `(time, seq)` order and the
//! push counter. Per-op state lives in a pre-sized `OpSlab`, the DM
//! stores in the SoA [`DmArena`](crate::DmArena), and the live-site set as
//! a `u128` bitset — the steady-state committed-op path allocates nothing
//! (pinned by `tests/alloc_steady.rs`). All of it is observationally
//! invisible: the pop order `(time, seq)` and the RNG draw order are
//! unchanged, so every pinned determinism digest and golden trace predates
//! this layout.

use std::sync::Arc;

use quorum::QuorumSpec;
use rand::Rng;

use qc_obs::ObsReport;
use qc_replication::ScheduleTrace;

use crate::arena::CfgId;
use crate::faults::{FaultPlan, ReconfigTarget, RetryPolicy};
use crate::latency::{sample_exponential, LatencyModel};
use crate::metrics::{CommitRecord, Metrics};
use crate::observe::{Mark, ObsRecorder, Observe, Traces};
use crate::protocol::{
    validate, validate_times, Clients, Cluster, ClusterSpec, ContactPolicy, OpId, ReconfigPolicy,
    Then, NO_CRASH,
};
use crate::queue::{Events, QueueKind};
use crate::slab::PendingOp;
use crate::time::SimTime;

/// Configuration of one simulation run.
#[derive(Clone)]
pub struct SimConfig {
    /// The quorum system (over replicas `0..n`).
    pub quorum: Arc<dyn QuorumSpec + Send + Sync>,
    /// One-way message latency model.
    pub latency: LatencyModel,
    /// Coordinator contact policy.
    pub contact: ContactPolicy,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Fraction of operations that are logical reads.
    pub read_fraction: f64,
    /// Client think time between operations.
    pub think_time: SimTime,
    /// Per-phase timeout: an attempt fails if a phase's quorum is not
    /// assembled in this time.
    pub timeout: SimTime,
    /// Mean time to failure per site (`None` disables failures).
    pub mttf: Option<SimTime>,
    /// Mean time to repair per site.
    pub mttr: SimTime,
    /// Simulated duration.
    pub duration: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Deterministic injected faults (empty by default).
    pub faults: FaultPlan,
    /// Coordinator retry/backoff policy (one attempt by default).
    pub retry: RetryPolicy,
    /// Assert Lemmas 7 and 8 after every committed operation.
    pub monitor: bool,
    /// Record every committed operation in `Metrics::history`.
    pub record_history: bool,
    /// What [`run_observed`] records (nothing by default). Every other
    /// entry point records what its observer says and ignores this.
    pub obs: qc_obs::ObsOptions,
    /// Event-queue implementation (the calendar queue by default; both
    /// pop in identical order, so this never changes results — only
    /// wall-clock speed).
    pub queue: QueueKind,
    /// Dynamic-quorum reconfiguration policy (off by default; requires a
    /// ROWA or majority quorum system when enabled).
    pub reconfig: ReconfigPolicy,
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("quorum", &self.quorum.label())
            .field("clients", &self.clients)
            .field("read_fraction", &self.read_fraction)
            .finish_non_exhaustive()
    }
}

impl SimConfig {
    /// A reasonable default over the given quorum system: 4 clients, 90%
    /// reads, LAN latencies, no failures or injected faults, no retries,
    /// monitoring on, 10 simulated seconds.
    pub fn new(quorum: Arc<dyn QuorumSpec + Send + Sync>) -> Self {
        SimConfig {
            quorum,
            latency: LatencyModel::lan(),
            contact: ContactPolicy::AllLive,
            clients: 4,
            read_fraction: 0.9,
            think_time: SimTime::from_millis(1),
            timeout: SimTime::from_millis(50),
            mttf: None,
            mttr: SimTime::from_secs(2),
            duration: SimTime::from_secs(10),
            seed: 0,
            faults: FaultPlan::new(),
            retry: RetryPolicy::default(),
            monitor: true,
            record_history: false,
            obs: qc_obs::ObsOptions::disabled(),
            queue: QueueKind::default(),
            reconfig: ReconfigPolicy::off(),
        }
    }
    /// Check the configuration is runnable.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistency: a read fraction that is
    /// not a probability, dynamic quorums over a system with no resizable
    /// family, scripted reconfigurations with the policy disabled,
    /// `migrate@` events (there are no shards to migrate between), or a
    /// fault plan naming sites or clients out of range.
    pub fn validate(&self) -> Result<(), String> {
        let (quorum, clients) = (&*self.quorum, (1, self.clients));
        validate(
            quorum,
            &self.faults,
            &self.reconfig,
            clients,
            false,
            Some(self.read_fraction),
        )?;
        let think = ("think_time", self.think_time);
        let spans = [
            think,
            ("timeout", self.timeout),
            ("duration", self.duration),
        ];
        validate_times(&self.latency, &self.retry, &self.reconfig, &spans)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    OpStart { client: usize },
    SiteDown { site: usize },
    SiteUp { site: usize },
    PlanFault { idx: usize },
    Retry { client: usize },
    SpyCheck,
}

// The queue stores events as they are: keep them two words.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// The simulator state, observed by `O`.
pub struct Simulation<O: Observe = ()> {
    config: SimConfig,
    events: Events<Event>,
    /// The sites, the one replicated item (slot 0, named item 0 in traces
    /// and anonymous in violation and event texts) and the observer.
    cluster: Cluster<O>,
    /// The clients' operations: metrics and the in-flight slab.
    ops: Clients,
    op_counter: Vec<u64>,
    /// Per-client cached `(generation, configuration)`, the configuration
    /// an id in the cluster's table — clients act on their cache and learn
    /// newer generations only through stale rejections, exactly like a TM
    /// discovering a superseded configuration.
    client_cfg: Vec<(u64, CfgId)>,
}

impl Simulation {
    /// Create an unobserved simulation from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`] (a fault
    /// plan that references sites or clients out of range, …).
    pub fn new(config: SimConfig) -> Self {
        Simulation::with_observer(config, ())
    }
}

impl<O: Observe> Simulation<O> {
    /// Create a simulation from a configuration, recording into `obs`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn with_observer(config: SimConfig, obs: O) -> Self {
        config.validate().expect("invalid SimConfig");
        let n = config.quorum.n();
        let spec = ClusterSpec {
            quorum: Arc::clone(&config.quorum),
            latency: config.latency,
            contact: config.contact,
            timeout: config.timeout,
            seed: config.seed,
            rng_seed: config.seed,
            plan: config.faults.clone(),
            reconfig: config.reconfig,
            retry: config.retry,
            monitor: config.monitor,
            slots: 1,
        };
        let mut sim = Simulation {
            events: Events::new(config.queue),
            cluster: Cluster::new(spec, obs),
            ops: Clients::new(config.clients),
            op_counter: vec![0; config.clients],
            client_cfg: vec![(0, CfgId::FULL); config.clients],
            config,
        };
        for c in 0..sim.config.clients {
            // Stagger client starts to avoid phase lock.
            let jitter = SimTime(sim.cluster.rng.gen_range(0..1_000));
            sim.schedule(jitter, Event::OpStart { client: c });
        }
        if let Some(mttf) = sim.config.mttf {
            for s in 0..n {
                let t = sample_exponential(mttf, &mut sim.cluster.rng);
                sim.cluster.stoch_next_down[s] = t;
                sim.schedule(t, Event::SiteDown { site: s });
            }
        }
        for idx in 0..sim.config.faults.len() {
            let at = sim.config.faults.events()[idx].0;
            sim.schedule(at, Event::PlanFault { idx });
        }
        if sim.config.reconfig.enabled && sim.config.reconfig.reactive {
            sim.schedule(sim.config.reconfig.poll, Event::SpyCheck);
        }
        sim
    }

    fn schedule(&mut self, delay: SimTime, e: Event) {
        self.events.push(self.cluster.now + delay, e);
    }

    /// Run to completion, consuming the simulator and returning metrics.
    pub fn run(self) -> Metrics {
        self.finish().0
    }

    /// Run to completion; the metrics and the observer.
    fn finish(mut self) -> (Metrics, O) {
        self.drive();
        (self.ops.metrics, self.cluster.obs)
    }

    fn dispatch(&mut self, e: Event) {
        match e {
            Event::OpStart { client } => self.handle_op(client),
            Event::Retry { client } => self.attempt_op(client),
            Event::PlanFault { idx } => {
                if let Some(target) = self.ops.plan_fault(&mut self.cluster, idx) {
                    self.reconfigure_item(target, true);
                }
            }
            Event::SpyCheck => {
                let failing = self.ops.failure_signal_rose();
                if self.cluster.wants_reconfig(0, failing) {
                    self.reconfigure_item(ReconfigTarget::Live, false);
                }
                self.schedule(self.config.reconfig.poll, Event::SpyCheck);
            }
            // The stochastic failure process: exponential time to failure
            // and to repair, per site.
            Event::SiteDown { site } => {
                self.cluster.stoch_next_down[site] = NO_CRASH;
                if self.cluster.up.contains(site) {
                    self.cluster.up.remove(site);
                    self.ops.metrics.site_failures += 1;
                    self.log_site(false, site);
                }
                let repair = sample_exponential(self.config.mttr, &mut self.cluster.rng);
                self.schedule(repair, Event::SiteUp { site });
            }
            Event::SiteUp { site } => {
                if !self.cluster.up.contains(site) {
                    self.log_site(true, site);
                }
                self.cluster.up.insert(site);
                if let Some(mttf) = self.config.mttf {
                    let fail = sample_exponential(mttf, &mut self.cluster.rng);
                    self.cluster.stoch_next_down[site] = self.cluster.now + fail;
                    self.schedule(fail, Event::SiteDown { site });
                }
            }
        }
    }

    fn log_site(&mut self, up: bool, site: usize) {
        self.cluster
            .obs
            .mark(self.cluster.now, &Mark::Site(site, up));
    }

    /// One reconfigure op on the item. Its TM is named by the count of
    /// reconfigurations so far.
    fn reconfigure_item(&mut self, target: ReconfigTarget, scripted: bool) {
        let tm_op = self.ops.metrics.reconfigurations;
        self.ops
            .run_reconfigure(&mut self.cluster, 0, None, tm_op, target, scripted, false);
    }

    fn drive(&mut self) {
        while let Some((t, e)) = self.events.pop_until(self.config.duration) {
            // Snapshot boundaries crossed by this clock advance fire
            // before the event at `t` executes, so a snapshot reflects
            // exactly the state at its boundary time.
            self.ops.clock(&mut self.cluster, t);
            self.cluster.now = t;
            self.dispatch(e);
        }
        // Boundaries between the last event and the end of the run.
        self.ops.clock(&mut self.cluster, self.config.duration);
        self.cluster.now = self.config.duration;
        self.ops.final_check(&mut self.cluster, 0, None);
    }

    /// Start a fresh logical operation for `client`.
    fn handle_op(&mut self, client: usize) {
        let is_read = self.cluster.rng.gen_bool(self.config.read_fraction);
        let op_index = self.op_counter[client];
        self.op_counter[client] += 1;
        // A value unique across the run, so histories identify writes.
        let value = client as u64 * 1_000_000 + op_index + 1;
        let op = PendingOp::begin(0, is_read, value, op_index, self.cluster.now);
        self.ops.pending.put(client, op);
        self.attempt_op(client);
    }

    /// Run one attempt of `client`'s pending operation and schedule what
    /// follows it.
    fn attempt_op(&mut self, client: usize) {
        let Some(op) = self.ops.pending.take(client) else {
            return;
        };
        let id = OpId {
            coord: client,
            item: None,
        };
        let cache = self
            .config
            .reconfig
            .enabled
            .then(|| &mut self.client_cfg[client]);
        match self
            .ops
            .run_attempt(&mut self.cluster, client, id, op, cache)
        {
            Then::Retry { delay } => self.schedule(delay, Event::Retry { client }),
            Then::Next {
                after,
                floor,
                commit,
            } => {
                if let (true, Some((vn, value))) = (self.config.record_history, commit) {
                    let read = op.read;
                    self.ops.metrics.history.push(CommitRecord {
                        client,
                        read,
                        vn,
                        value,
                    });
                }
                let delay = (after + self.config.think_time).max(floor);
                self.schedule(delay, Event::OpStart { client });
            }
        }
    }
}

/// Build and run in one call, recording into `obs` (forked for the run as
/// loop 0 and absorbed back). Observation draws nothing from the RNG
/// stream and schedules nothing, so the metrics are the same under every
/// observer.
///
/// # Panics
///
/// Panics if the configuration fails [`SimConfig::validate`].
pub fn run_with<O: Observe>(config: SimConfig, obs: &mut O) -> Metrics {
    let (metrics, run) = Simulation::with_observer(config, obs.fork(0)).finish();
    obs.absorb(run);
    metrics
}

/// Build and run in one call.
pub fn run(config: SimConfig) -> Metrics {
    run_with(config, &mut ())
}

/// [`run`], also returning the item's schedule trace (see
/// [`crate::trace`]).
pub fn run_traced(config: SimConfig) -> (Metrics, ScheduleTrace) {
    let mut traces = Traces::new(&*config.quorum, config.seed, 1);
    (
        run_with(config, &mut traces),
        traces.into_traces().swap_remove(0),
    )
}

/// [`run`], also returning what `config.obs` asks to record.
pub fn run_observed(config: SimConfig) -> (Metrics, ObsReport) {
    let mut rec = ObsRecorder::new(config.obs);
    (run_with(config, &mut rec), rec.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum::{Majority, ReplicaSet, Rowa};

    fn base(q: Arc<dyn QuorumSpec + Send + Sync>) -> SimConfig {
        let mut c = SimConfig::new(q);
        c.duration = SimTime::from_secs(5);
        c
    }

    #[test]
    fn healthy_cluster_is_fully_available() {
        let m = run(base(Arc::new(Majority::new(5))));
        assert!(m.reads.attempts > 100);
        assert_eq!(m.reads.availability(), 1.0);
        assert_eq!(m.writes.availability(), 1.0);
        assert_eq!(m.site_failures, 0);
        assert_eq!(m.lemma_violations, 0);
    }

    #[test]
    fn rowa_reads_cost_less_than_majority_reads() {
        let mut c1 = base(Arc::new(Rowa::new(5)));
        c1.contact = ContactPolicy::MinimalQuorum;
        let rowa = run(c1);
        let mut c2 = base(Arc::new(Majority::new(5)));
        c2.contact = ContactPolicy::MinimalQuorum;
        let maj = run(c2);
        assert!(
            rowa.reads.messages_per_op() < maj.reads.messages_per_op(),
            "rowa {} vs majority {}",
            rowa.reads.messages_per_op(),
            maj.reads.messages_per_op()
        );
        // ROWA read = 1 round trip to 1 replica: 2 messages.
        assert!((rowa.reads.messages_per_op() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rowa_writes_suffer_under_failures() {
        let mut c = base(Arc::new(Rowa::new(5)));
        c.mttf = Some(SimTime::from_secs(3));
        c.mttr = SimTime::from_secs(3);
        c.read_fraction = 0.5;
        c.duration = SimTime::from_secs(30);
        let m = run(c);
        assert!(m.site_failures > 0);
        // With ~half the time one site down, ROWA writes fail often while
        // reads almost always succeed.
        assert!(
            m.writes.availability() < 0.9,
            "writes {}",
            m.writes.availability()
        );
        assert!(m.reads.availability() > m.writes.availability());
        assert_eq!(m.lemma_violations, 0);
    }

    #[test]
    fn majority_survives_minority_failures() {
        let mut c = base(Arc::new(Majority::new(5)));
        c.mttf = Some(SimTime::from_secs(10));
        c.mttr = SimTime::from_secs(1);
        c.read_fraction = 0.5;
        c.duration = SimTime::from_secs(30);
        let m = run(c);
        // 5 sites, short repairs: a majority is almost always up.
        assert!(
            m.reads.availability() > 0.97,
            "reads {}",
            m.reads.availability()
        );
        assert!(
            m.writes.availability() > 0.95,
            "writes {}",
            m.writes.availability()
        );
        assert_eq!(m.lemma_violations, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(base(Arc::new(Majority::new(3))));
        let b = run(base(Arc::new(Majority::new(3))));
        assert_eq!(a.reads.attempts, b.reads.attempts);
        assert_eq!(a.reads.messages, b.reads.messages);
    }

    #[test]
    fn heap_oracle_and_calendar_queue_agree_exactly() {
        for (mttf, rf) in [(None, 0.9), (Some(SimTime::from_secs(3)), 0.5)] {
            let mut cal = base(Arc::new(Majority::new(5)));
            cal.queue = QueueKind::Calendar;
            cal.mttf = mttf;
            cal.read_fraction = rf;
            let mut heap = cal.clone();
            heap.queue = QueueKind::Heap;
            assert_eq!(run(cal).digest(), run(heap).digest());
        }
    }

    #[test]
    fn minimal_quorum_contact_halves_read_messages() {
        let mut all = base(Arc::new(Majority::new(5)));
        all.contact = ContactPolicy::AllLive;
        let a = run(all);
        // AllLive read: 5 requests + 5 responses = 10 per op.
        assert!((a.reads.messages_per_op() - 10.0).abs() < 1e-9);
        let mut min = base(Arc::new(Majority::new(5)));
        min.contact = ContactPolicy::MinimalQuorum;
        let m = run(min);
        // MinimalQuorum read: 3 + 3 = 6 per op.
        assert!((m.reads.messages_per_op() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn writes_pay_two_phases() {
        let mut c = base(Arc::new(Majority::new(3)));
        c.contact = ContactPolicy::MinimalQuorum;
        c.read_fraction = 0.0;
        let m = run(c);
        // Write: read-quorum (2+2) + write-quorum (2+2) = 8 messages.
        assert!((m.writes.messages_per_op() - 8.0).abs() < 1e-9);
        assert!(m.writes.mean_latency_ms() > m.reads.mean_latency_ms());
    }

    #[test]
    fn history_versions_are_contiguous() {
        let mut c = base(Arc::new(Majority::new(3)));
        c.read_fraction = 0.5;
        c.record_history = true;
        c.duration = SimTime::from_secs(2);
        let m = run(c);
        assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
        let mut vn = 0;
        for rec in &m.history {
            if rec.read {
                assert_eq!(rec.vn, vn, "read saw a non-current version");
            } else {
                assert_eq!(rec.vn, vn + 1, "write skipped a version");
                vn = rec.vn;
            }
        }
        assert!(vn > 0, "no writes committed");
    }

    #[test]
    fn forced_aborts_have_no_visible_effect() {
        let mut c = base(Arc::new(Majority::new(3)));
        c.read_fraction = 0.0;
        c.record_history = true;
        c.faults = FaultPlan::new()
            .abort_at(SimTime::from_millis(100), 0)
            .abort_at(SimTime::from_millis(200), 1);
        let m = run(c);
        assert_eq!(m.forced_aborts, 2);
        assert_eq!(m.writes.aborted, 2);
        assert_eq!(m.lemma_violations, 0, "violations: {:?}", m.violations);
        // Committed versions still advance one at a time.
        for w in m.history.windows(2) {
            assert_eq!(w[1].vn, w[0].vn + 1);
        }
    }

    #[test]
    fn total_quorum_loss_fails_fast_and_retries_recover() {
        // All 3 sites down from 1 s to 2 s: no quorum exists.
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(1), 0)
            .crash_at(SimTime::from_secs(1), 1)
            .crash_at(SimTime::from_secs(1), 2)
            .recover_at(SimTime::from_secs(2), 0)
            .recover_at(SimTime::from_secs(2), 1)
            .recover_at(SimTime::from_secs(2), 2);
        let mut no_retry = base(Arc::new(Majority::new(3)));
        no_retry.faults = plan.clone();
        no_retry.duration = SimTime::from_secs(4);
        let m1 = run(no_retry);
        assert!(m1.reads.unavailable + m1.writes.unavailable > 0);
        assert_eq!(m1.lemma_violations, 0, "violations: {:?}", m1.violations);

        // With generous retries the outage degrades into delayed successes.
        let mut with_retry = base(Arc::new(Majority::new(3)));
        with_retry.faults = plan;
        with_retry.duration = SimTime::from_secs(4);
        with_retry.retry = RetryPolicy::retries(12, SimTime::from_millis(200));
        let m2 = run(with_retry);
        assert!(m2.reads.retries + m2.writes.retries > 0);
        assert!(
            m2.reads.availability() > m1.reads.availability(),
            "retry {} vs no-retry {}",
            m2.reads.availability(),
            m1.reads.availability()
        );
        assert_eq!(m2.lemma_violations, 0, "violations: {:?}", m2.violations);
    }

    #[test]
    fn corrupt_injection_trips_the_monitor() {
        let mut c = base(Arc::new(Majority::new(3)));
        c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(1), 0, 999, 123);
        let m = run(c);
        assert!(m.lemma_violations > 0, "monitor failed to fire");
        assert!(!m.violations.is_empty());
    }

    #[test]
    fn enabled_but_idle_dynamic_majority_matches_the_static_run() {
        // With a majority system the dynamic read quorum equals the static
        // one (read size == configuration quorum size), so a dynamic run
        // in which no reconfiguration ever fires draws the same RNG stream
        // and commits the same operations as the static simulator.
        let static_run = run(base(Arc::new(Majority::new(5))));
        let mut c = base(Arc::new(Majority::new(5)));
        c.reconfig = ReconfigPolicy::scripted_only();
        let dynamic_run = run(c);
        assert_eq!(static_run.digest(), dynamic_run.digest());
    }

    #[test]
    fn reactive_reconfig_restores_rowa_write_availability() {
        // ROWA writes need every member: a single crashed site blanks
        // write availability for the whole outage under the static
        // protocol, while the reactive trigger shrinks the membership out
        // from under the crash and grows it back on recovery.
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(1), 4)
            .recover_at(SimTime::from_secs(3), 4);
        let mut stat = base(Arc::new(Rowa::new(5)));
        stat.read_fraction = 0.0;
        stat.faults = plan.clone();
        let s = run(stat);
        let mut dy = base(Arc::new(Rowa::new(5)));
        dy.read_fraction = 0.0;
        dy.faults = plan;
        dy.reconfig = ReconfigPolicy::reactive();
        let d = run(dy);
        assert!(
            d.reconfigurations >= 2,
            "reconfigurations {}",
            d.reconfigurations
        );
        assert_eq!(d.lemma_violations, 0, "violations: {:?}", d.violations);
        assert!(
            d.writes.availability() > 0.9 && s.writes.availability() < 0.7,
            "dynamic {} static {}",
            d.writes.availability(),
            s.writes.availability()
        );
    }

    #[test]
    fn scripted_reconfig_installs_the_requested_membership() {
        let shrunk: ReplicaSet = [0usize, 1, 2].into_iter().collect();
        let mut c = base(Arc::new(Majority::new(5)));
        c.read_fraction = 0.5;
        c.faults =
            FaultPlan::new().reconfig_at(SimTime::from_secs(1), ReconfigTarget::Members(shrunk));
        c.reconfig = ReconfigPolicy::scripted_only();
        let mut sim = Simulation::new(c);
        sim.drive();
        assert_eq!(sim.cluster.gen(0), 1);
        assert_eq!(sim.cluster.members(0), shrunk);
        let m = &sim.ops.metrics;
        assert_eq!(m.reconfigurations, 1);
        assert_eq!(m.reconfig_failures, 0);
        // Ops ran before and after the switch; stale rejections happen at
        // the boundary (each client's first post-switch attempt).
        assert!(m.stale_rejections > 0);
        assert_eq!(m.lemma_violations, 0, "{:?}", m.violations);
    }

    #[test]
    fn infeasible_scripted_reconfig_is_counted_not_executed() {
        // Moving to a membership whose data write quorum cannot be
        // assembled from live sites (both requested members are down and
        // stay down) must fail.
        let dead: ReplicaSet = [3usize, 4].into_iter().collect();
        let mut c = base(Arc::new(Rowa::new(5)));
        c.faults = FaultPlan::new()
            .crash_at(SimTime::from_millis(500), 4)
            .crash_at(SimTime::from_millis(500), 3)
            .reconfig_at(SimTime::from_secs(1), ReconfigTarget::Members(dead));
        c.reconfig = ReconfigPolicy::scripted_only();
        let m = run(c);
        assert_eq!(m.reconfigurations, 0);
        assert_eq!(m.reconfig_failures, 1);
    }

    #[test]
    #[should_panic(expected = "reconfig events")]
    fn scripted_reconfigs_require_the_policy_enabled() {
        let mut c = base(Arc::new(Majority::new(3)));
        c.faults = FaultPlan::new().reconfig_at(SimTime::from_secs(1), ReconfigTarget::Live);
        let _ = Simulation::new(c);
    }

    #[test]
    #[should_panic(expected = "ROWA or majority")]
    fn dynamic_quorums_require_a_resizable_family() {
        use quorum::Weighted;
        let mut c = base(Arc::new(Weighted::new(vec![2, 1, 1], 3, 2)));
        c.reconfig = ReconfigPolicy::reactive();
        let _ = Simulation::new(c);
    }
}
