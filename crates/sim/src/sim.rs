//! The discrete-event simulation of a quorum-replicated store.
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
//! operation is fed through the runtime lemma monitor
//! ([`InvariantProbe`]).
//!
//! # Protocol fidelity
//!
//! Quorum membership is decided by a [`QuorumSpec`] predicate, so all the
//! quorum systems in the `quorum` crate plug in directly.
//!
//! **Crash visibility.** An earlier version of this simulator sampled site
//! state once, at operation start, so a site that crashed mid-operation
//! still "responded". That approximation is unsound once operations can
//! retry across repair intervals: an attempt must observe a crash that
//! lands between its request and the would-be response. The phase
//! simulation now checks, per contacted site, whether the site's next
//! scheduled crash (stochastic or planned) lands before the response would
//! complete; if so the response is lost and the quorum must be assembled
//! from the surviving sites or the attempt times out.
//!
//! **Atomic commit rounds.** A phase either assembles its quorum — and,
//! for writes, installs the new version at exactly the responding quorum —
//! or installs nothing. A timed-out write therefore leaves no partial
//! version behind. This is the simulation analogue of the paper's
//! transaction-abort semantics: an aborted (failed) operation has no
//! visible effect, so every committed point of the run is an "even point"
//! of the access sequence and Lemmas 7 and 8 must hold there (which the
//! probe asserts).
//!
//! **Failure classification.** An attempt that cannot possibly succeed —
//! the live sites contain no read (for reads) or no read+write quorum (for
//! writes) — fails fast as *unavailable* without sending messages. An
//! attempt whose quorum exists but does not assemble within the timeout
//! fails as a *timeout*. With a [`RetryPolicy`] of more than one attempt,
//! failed attempts back off exponentially and re-sample the site state, so
//! an operation that loses its quorum mid-flight degrades into a delayed
//! success once sites recover.
//!
//! # Hot path
//!
//! The event loop runs on the [`EventQueue`] machinery of
//! [`crate::queue`] (calendar queue by default, binary-heap oracle under
//! `queue = QueueKind::Heap`), drains every same-instant event per
//! clock advance, keeps per-op state in a pre-sized [`OpSlab`], the DM
//! stores in the SoA [`DmArena`], and the live-site set as a `u128`
//! bitset — the steady-state committed-op path allocates nothing (pinned
//! by `tests/alloc_steady.rs`). All of it is observationally invisible:
//! the pop order `(time, seq)` and the RNG draw order are unchanged, so
//! every pinned determinism digest and golden trace predates this layout.

use std::fmt;
use std::sync::Arc;

use quorum::{QuorumFamily, QuorumSpec, ReplicaSet, Thresholds};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qc_obs::causal::{AbortCause, EdgeKind, SpanKind, TxnRef as CausalTxnRef, TxnTrace, NO_SPAN};
use qc_obs::{
    EventKind, EventSink, ObsEvent, ObsOptions, ObsReport, OpRef, Phase, Snapshot,
    SnapshotExporter,
};
use qc_replication::{AbortReason, LemmaViolation, ScheduleTrace, TmKind, TraceAction, TraceTid};

use crate::arena::DmArena;
use crate::faults::{message_dropped, FaultEvent, FaultPlan, ReconfigTarget, RetryPolicy};
use crate::latency::{sample_exponential, LatencyModel};
use crate::metrics::{CommitRecord, Metrics};
use crate::probe::InvariantProbe;
use crate::queue::{EventQueue, QueueImpl, QueueKind};
use crate::slab::{OpSlab, PendingOp};
use crate::trace::TraceRecorder;
use crate::time::SimTime;

/// Which replicas the coordinator contacts in each phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContactPolicy {
    /// Contact every live replica; finish when a quorum of responses is in
    /// (lowest latency, highest message cost).
    AllLive,
    /// Contact a minimal quorum among the live replicas (lowest message
    /// cost; a single slow member delays the phase).
    MinimalQuorum,
}

/// When and how the simulator issues reconfigure ops (the paper's §4
/// dynamic-quorum scheme).
///
/// Dynamic quorums are strictly **opt-in**: with the default
/// ([`ReconfigPolicy::off`]) the simulator runs the exact static protocol
/// of PRs 1–6, byte for byte. When enabled, replica slots carry a
/// `(configuration, generation)` pair, data ops validate their cached
/// generation against a configuration read quorum, and reconfigure ops —
/// scripted via the fault plan's `reconfig@t:spec` verb and/or issued by
/// the reactive trigger — install new configurations mid-run following
/// Goldman–Lynch: the new configuration is written to a write quorum of
/// the *old* configuration, after which ops at stale generations are
/// rejected and retried under the new one.
///
/// The reactive trigger is the operational counterpart of `qc-reconfig`'s
/// `Spy` automaton: a periodic check (the Spy's always-enabled
/// `REQUEST-CREATE` output, discretized to a `poll` cadence) that spends a
/// bounded budget of reconfigurations (`max_reconfigs`, the Spy's
/// `used < max_reconfigs` guard) when the failure signal — the delta in
/// timeout/unavailable classifications already kept in
/// [`Metrics`](crate::Metrics) — indicates the current membership is
/// wrong. It draws nothing from the RNG stream, so reconfiguring runs
/// stay deterministic across thread counts and queue implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconfigPolicy {
    /// Master switch: when false, the simulator is exactly the static one.
    pub enabled: bool,
    /// Run the reactive spy trigger (scripted `reconfig@t` events work
    /// either way).
    pub reactive: bool,
    /// Cadence of the reactive trigger's failure-signal check.
    pub poll: SimTime,
    /// Minimum time between two reactive reconfigurations.
    pub cooldown: SimTime,
    /// Never shrink the membership below this size.
    pub min_members: usize,
    /// Budget of reactive reconfigurations per run (the Spy's
    /// `max_reconfigs`).
    pub max_reconfigs: u32,
}

impl ReconfigPolicy {
    /// Dynamic quorums disabled (the default): the static simulator.
    #[must_use]
    pub fn off() -> Self {
        ReconfigPolicy {
            enabled: false,
            reactive: false,
            poll: SimTime::from_millis(50),
            cooldown: SimTime::from_millis(200),
            min_members: 1,
            max_reconfigs: 64,
        }
    }

    /// Generation-aware protocol with the reactive spy trigger: poll the
    /// failure signal every 50 ms, reconfigure to the live membership,
    /// with a 200 ms cooldown between reconfigurations.
    #[must_use]
    pub fn reactive() -> Self {
        ReconfigPolicy {
            enabled: true,
            reactive: true,
            ..ReconfigPolicy::off()
        }
    }

    /// Generation-aware protocol, but only fault-plan `reconfig@t` events
    /// ever reconfigure.
    #[must_use]
    pub fn scripted_only() -> Self {
        ReconfigPolicy {
            enabled: true,
            reactive: false,
            ..ReconfigPolicy::off()
        }
    }
}

impl Default for ReconfigPolicy {
    fn default() -> Self {
        ReconfigPolicy::off()
    }
}

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
    /// Observability options: per-phase spans, structured event log,
    /// periodic snapshots (all disabled by default; recording draws
    /// nothing from the RNG stream, so an observed run is event-for-event
    /// identical to an unobserved one).
    pub obs: ObsOptions,
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
            obs: ObsOptions::disabled(),
            queue: QueueKind::default(),
            reconfig: ReconfigPolicy::off(),
        }
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

// The queue stores a compact packed form; `(time, seq)` alone orders
// events, so the payload needs no `Ord`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EventBox(u8, usize);

impl EventBox {
    fn pack(e: Event) -> Self {
        match e {
            Event::OpStart { client } => EventBox(0, client),
            Event::SiteDown { site } => EventBox(1, site),
            Event::SiteUp { site } => EventBox(2, site),
            Event::PlanFault { idx } => EventBox(3, idx),
            Event::Retry { client } => EventBox(4, client),
            Event::SpyCheck => EventBox(5, 0),
        }
    }

    fn unpack(self) -> Event {
        match self.0 {
            0 => Event::OpStart { client: self.1 },
            1 => Event::SiteDown { site: self.1 },
            2 => Event::SiteUp { site: self.1 },
            3 => Event::PlanFault { idx: self.1 },
            4 => Event::Retry { client: self.1 },
            _ => Event::SpyCheck,
        }
    }
}

/// The outcome of one simulated phase: completion time offset, message
/// count, and the responding quorum (empty on timeout).
struct PhaseOutcome {
    elapsed: SimTime,
    messages: u64,
    responders: ReplicaSet,
    ok: bool,
}

/// Sentinel for "no stochastic crash scheduled".
const NO_CRASH: SimTime = SimTime(u64::MAX);

/// The simulator state.
pub struct Simulation {
    config: SimConfig,
    /// Sites (`quorum.n()`).
    n: usize,
    rng: ChaCha8Rng,
    now: SimTime,
    queue: QueueImpl<EventBox>,
    seq: u64,
    /// Live sites, as a bitset (`full(n)` when healthy).
    up: ReplicaSet,
    /// Per-site replica stores — the DM state, SoA layout.
    stores: DmArena,
    /// Next scheduled stochastic crash per site (for straddle detection;
    /// [`NO_CRASH`] when none).
    stoch_next_down: Vec<SimTime>,
    /// Planned crash times per site, ascending (for straddle detection).
    plan_crashes: Vec<Vec<SimTime>>,
    /// A pending forced abort per client.
    abort_flag: Vec<bool>,
    /// Per-client in-flight operation state, interned for the whole run.
    pending: OpSlab,
    op_counter: Vec<u64>,
    /// Scratch buffer for phase responses, reused across phases so the hot
    /// path allocates nothing per operation.
    scratch: Vec<(SimTime, usize)>,
    probe: InvariantProbe,
    /// Memoized outcome of the probe's store re-check (Lemmas 7/8(1a)/
    /// 8(1b)). The check is a pure function of the history digest and the
    /// store contents, so between mutations — write installs, corrupt
    /// injections, committed-write digests — its outcome is replayed
    /// instead of re-scanned. Cleared at every mutation site.
    arena_check: Option<Result<(), LemmaViolation>>,
    /// Threshold form of the quorum system, when it has one (ROWA and
    /// Majority do). The per-phase membership probes and per-op contact
    /// selection then run as inline popcounts instead of virtual calls;
    /// `None` falls back to the `dyn QuorumSpec` predicates.
    th: Option<Thresholds>,
    /// Quorum family of the system, when it has one (required for dynamic
    /// quorums: the size rules must extend to arbitrary member sets).
    family: Option<QuorumFamily>,
    /// Committed configuration generation (0 = the initial full
    /// membership; only reconfigure ops advance it).
    cur_gen: u64,
    /// Members of the committed configuration.
    cur_members: ReplicaSet,
    /// Per-client cached `(generation, members)` — clients act on their
    /// cache and learn newer generations only through stale rejections,
    /// exactly like a TM discovering a superseded configuration.
    client_cfg: Vec<(u64, ReplicaSet)>,
    /// Quorum override for the phase loop while a dynamic attempt runs:
    /// `(members, read_k, write_k)`. `None` outside dynamic attempts, so
    /// the static hot path is untouched.
    dyn_quorum: Option<(ReplicaSet, usize, usize)>,
    /// Reactive-trigger state: time of the last reconfiguration, budget
    /// spent, and the failure-signal level at the last poll.
    last_reconfig: SimTime,
    reconfigs_used: u32,
    last_failure_signal: u64,
    metrics: Metrics,
    /// Per-client causal segment history of the in-flight op, in causal
    /// order (`(edge kind, µs)`); only written when `config.obs.causal`
    /// is enabled. Mirrors the `PendingOp` phase accumulators exactly, so
    /// the trace built from it reconciles with end-to-end latency.
    causal_segs: Vec<Vec<(EdgeKind, u64)>>,
    /// Observability recordings (spans/events/snapshots per `config.obs`).
    obs: ObsReport,
    /// Periodic snapshot schedule, when enabled.
    snap: Option<SnapshotExporter>,
    /// Shard tag stamped on events and snapshots (always 0 here; the
    /// sharded simulator stamps real shard indices in its own loop).
    shard_tag: u32,
}

impl Simulation {
    /// Create a simulation from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan references sites or clients out of range.
    pub fn new(config: SimConfig) -> Self {
        let n = config.quorum.n();
        config
            .faults
            .validate(n, config.clients)
            .expect("fault plan out of range");
        let family = QuorumFamily::of(&*config.quorum);
        let has_scripted_reconfigs = config
            .faults
            .events()
            .iter()
            .any(|(_, e)| matches!(e, FaultEvent::Reconfig { .. }));
        if config.reconfig.enabled {
            assert!(
                family.is_some(),
                "dynamic quorums require a ROWA or majority quorum system, got {}",
                config.quorum.label()
            );
        } else {
            assert!(
                !has_scripted_reconfigs,
                "fault plan contains reconfig events but SimConfig::reconfig is disabled"
            );
        }
        assert!(
            !config
                .faults
                .events()
                .iter()
                .any(|(_, e)| matches!(e, FaultEvent::Migrate { .. })),
            "migrate events belong to the sharded simulator's elastic placement"
        );
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let plan_crashes = (0..n)
            .map(|s| config.faults.crash_times_for(s).collect())
            .collect();
        let mut sim = Simulation {
            n,
            rng,
            now: SimTime::ZERO,
            queue: QueueImpl::new(config.queue),
            seq: 0,
            up: ReplicaSet::full(n),
            stores: DmArena::new(n),
            stoch_next_down: vec![NO_CRASH; n],
            plan_crashes,
            abort_flag: vec![false; config.clients],
            pending: OpSlab::new(config.clients),
            op_counter: vec![0; config.clients],
            scratch: Vec::new(),
            probe: InvariantProbe::new(),
            arena_check: None,
            th: config.quorum.thresholds(),
            family,
            cur_gen: 0,
            cur_members: ReplicaSet::full(n),
            client_cfg: vec![(0, ReplicaSet::full(n)); config.clients],
            dyn_quorum: None,
            last_reconfig: SimTime::ZERO,
            reconfigs_used: 0,
            last_failure_signal: 0,
            metrics: Metrics::default(),
            causal_segs: vec![Vec::new(); config.clients],
            obs: ObsReport::new(&config.obs),
            snap: config.obs.snapshot_every_us.map(SnapshotExporter::new),
            shard_tag: 0,
            config,
        };
        for c in 0..sim.config.clients {
            // Stagger client starts to avoid phase lock.
            let jitter = SimTime(sim.rng.gen_range(0..1_000));
            sim.schedule(jitter, Event::OpStart { client: c });
        }
        if let Some(mttf) = sim.config.mttf {
            for s in 0..n {
                let t = sample_exponential(mttf, &mut sim.rng);
                sim.stoch_next_down[s] = t;
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
        self.seq += 1;
        self.queue.push(self.now + delay, self.seq, EventBox::pack(e));
    }

    /// Run to completion, consuming the simulator and returning metrics.
    pub fn run(mut self) -> Metrics {
        self.drive();
        self.metrics
    }

    /// Run to completion, returning the metrics *and* the observability
    /// report (spans, events, snapshots) recorded per `SimConfig::obs`.
    ///
    /// Observation is observational in the strict sense: it draws nothing
    /// from the RNG stream and schedules no events, so the returned
    /// metrics are bit-identical to what [`Simulation::run`] produces for
    /// the same configuration.
    pub fn run_observed(mut self) -> (Metrics, ObsReport) {
        self.drive();
        (self.metrics, self.obs)
    }

    /// Run to completion with a schedule-trace sink attached, returning
    /// the metrics *and* the recorded run as an ordered I/O-automaton
    /// schedule (see [`crate::trace`]).
    ///
    /// Tracing is observational: it draws nothing from the RNG stream, so
    /// the returned metrics are identical to what [`Simulation::run`]
    /// produces for the same configuration.
    pub fn run_traced(mut self) -> (Metrics, ScheduleTrace) {
        let recorder = TraceRecorder::new(
            self.config.quorum.label(),
            self.config.quorum.n(),
            self.config.seed,
        );
        self.probe.attach_sink(recorder);
        self.drive();
        let trace = self.probe.take_trace().expect("sink was attached above");
        (self.metrics, trace)
    }

    fn dispatch(&mut self, e: EventBox) {
        match e.unpack() {
            Event::OpStart { client } => self.handle_op(client),
            Event::Retry { client } => self.attempt_op(client),
            Event::PlanFault { idx } => self.handle_plan_fault(idx),
            Event::SpyCheck => self.spy_check(),
            Event::SiteDown { site } => {
                self.stoch_next_down[site] = NO_CRASH;
                if self.up.contains(site) {
                    self.up.remove(site);
                    self.metrics.site_failures += 1;
                    if self.obs.events.enabled() {
                        self.emit_obs(EventKind::Fault {
                            desc: format!("site-down:{site}"),
                        });
                    }
                }
                let repair = sample_exponential(self.config.mttr, &mut self.rng);
                self.schedule(repair, Event::SiteUp { site });
            }
            Event::SiteUp { site } => {
                if !self.up.contains(site) && self.obs.events.enabled() {
                    self.emit_obs(EventKind::Fault {
                        desc: format!("site-up:{site}"),
                    });
                }
                self.up.insert(site);
                if let Some(mttf) = self.config.mttf {
                    let fail = sample_exponential(mttf, &mut self.rng);
                    self.stoch_next_down[site] = self.now + fail;
                    self.schedule(fail, Event::SiteDown { site });
                }
            }
        }
    }

    fn drive(&mut self) {
        while let Some((t, _, e)) = self.queue.pop() {
            if t > self.config.duration {
                break;
            }
            // Snapshot boundaries crossed by this clock advance fire
            // before the event at `t` executes, so a snapshot reflects
            // exactly the state at its boundary time.
            self.fire_snapshots_through(t);
            self.now = t;
            self.dispatch(e);
            // Batched delivery: drain every remaining event at `t` —
            // including ones the handlers above schedule *at* `t` — before
            // re-entering the full dequeue path. `pop_at` keeps the exact
            // `(time, seq)` order, so this is pure amortization.
            while let Some((_, e)) = self.queue.pop_at(t) {
                self.dispatch(e);
            }
        }
        // Boundaries between the last event and the end of the run.
        self.fire_snapshots_through(self.config.duration);
        self.now = self.config.duration;
        // The stores must satisfy the lemmas at quiescence too (this is
        // what catches a Corrupt injection that no later read observed).
        if self.config.monitor {
            if let Err(v) = self.arena_check_memo() {
                self.record_violation_observed(format_args!("end-of-run: {v}"), None);
            }
        }
    }

    /// The probe's store re-check, memoized (see the `arena_check` field).
    /// Under dynamic quorums Lemma 8(1a)'s write quorum is evaluated over
    /// the committed membership.
    fn arena_check_memo(&mut self) -> Result<(), LemmaViolation> {
        match &self.arena_check {
            Some(r) => r.clone(),
            None => {
                let r = if self.config.reconfig.enabled {
                    let family = self.family.expect("checked in Simulation::new");
                    self.probe.check_arena_members(
                        &self.stores,
                        0,
                        self.n,
                        family,
                        self.cur_members,
                    )
                } else {
                    self.probe
                        .check_arena(&self.stores, 0, self.n, &*self.config.quorum)
                };
                self.arena_check = Some(r.clone());
                r
            }
        }
    }

    /// Emit every due snapshot with boundary time ≤ `t` (state as of the
    /// events processed so far).
    fn fire_snapshots_through(&mut self, t: SimTime) {
        loop {
            let due = match self.snap.as_mut() {
                Some(s) => s.next_due(t.as_micros()),
                None => return,
            };
            let Some(at_us) = due else { return };
            let snap = Snapshot {
                at_us,
                shard: self.shard_tag,
                ops_done: self.metrics.reads.successes + self.metrics.writes.successes,
                in_flight: self.pending.in_flight(),
                violations: self.metrics.lemma_violations,
                read_p50_us: self.metrics.reads.latency_hist().p50(),
                read_p99_us: self.metrics.reads.latency_hist().p99(),
                write_p50_us: self.metrics.writes.latency_hist().p50(),
                write_p99_us: self.metrics.writes.latency_hist().p99(),
            };
            self.obs.snapshots.push(snap);
            if self.obs.events.enabled() {
                self.obs.events.emit(ObsEvent {
                    at_us,
                    shard: self.shard_tag,
                    kind: EventKind::Snapshot(snap),
                });
            }
        }
    }

    /// Log a structured event at the current simulated instant.
    fn emit_obs(&mut self, kind: EventKind) {
        let at_us = self.now.as_micros();
        self.obs.events.emit(ObsEvent {
            at_us,
            shard: self.shard_tag,
            kind,
        });
    }

    /// Record a lemma violation in the metrics and, when the event log is
    /// enabled, as a structured event carrying the offending op (if the
    /// violation was detected at an op's commit).
    ///
    /// Takes pre-formatted arguments, not a `String`: the description is
    /// rendered only where it is actually retained (the capped metrics
    /// list, the event log), so no call path is forced to allocate first.
    fn record_violation_observed(&mut self, description: fmt::Arguments<'_>, op: Option<OpRef>) {
        if self.obs.events.enabled() {
            let desc = description.to_string();
            self.emit_obs(EventKind::Violation {
                desc: desc.clone(),
                op,
            });
            self.metrics.record_violation(desc);
        } else {
            self.metrics.record_violation_args(description);
        }
    }

    fn handle_plan_fault(&mut self, idx: usize) {
        self.metrics.injected_faults += 1;
        if self.obs.events.enabled() {
            let (at, e) = self.config.faults.events()[idx];
            let desc = e.text(at);
            self.emit_obs(EventKind::Fault { desc });
        }
        match self.config.faults.events()[idx].1 {
            FaultEvent::Crash { site } => {
                if self.up.contains(site) {
                    self.up.remove(site);
                    self.metrics.site_failures += 1;
                }
            }
            FaultEvent::Recover { site } => {
                self.up.insert(site);
            }
            FaultEvent::AbortClient { client } => {
                self.abort_flag[client] = true;
            }
            FaultEvent::Corrupt { site, vn, value } => {
                self.stores.set(site, vn, value);
                self.arena_check = None;
                // Sweep immediately: a later write's install can overwrite
                // the corrupted entry before any committed operation (or
                // the end-of-run sweep) would look at it, so detection at
                // injection time is the only seed-independent guarantee.
                if self.config.monitor {
                    if let Err(v) = self.arena_check_memo() {
                        let now = self.now;
                        self.record_violation_observed(
                            format_args!("t={now} corrupt injection: {v}"),
                            None,
                        );
                    }
                }
            }
            // Windows act at message time via drop_permille_at /
            // delay_extra_at; nothing to do when they open.
            FaultEvent::DropWindow { .. } | FaultEvent::DelayWindow { .. } => {}
            FaultEvent::Reconfig { target } => self.try_reconfigure(target, true),
            // Rejected at construction: the single-item simulator has no
            // shards to migrate between.
            FaultEvent::Migrate { .. } => unreachable!("rejected by Simulation::new"),
        }
    }

    /// The reactive trigger (see [`ReconfigPolicy`]): compare the failure
    /// signal — timeout + unavailable classifications — against the last
    /// poll, and reconfigure to the live membership when sites outside the
    /// membership recovered (grow) or member failures are causing op
    /// failures (shrink).
    fn spy_check(&mut self) {
        let signal = self.metrics.reads.timeouts
            + self.metrics.reads.unavailable
            + self.metrics.writes.timeouts
            + self.metrics.writes.unavailable;
        let delta = signal - self.last_failure_signal;
        self.last_failure_signal = signal;
        let live = self.live_set();
        let grow = !live.difference(self.cur_members).is_empty();
        let shrink = delta > 0 && !self.cur_members.difference(live).is_empty();
        if grow || shrink {
            self.try_reconfigure(ReconfigTarget::Live, false);
        }
        self.schedule(self.config.reconfig.poll, Event::SpyCheck);
    }

    /// Execute one reconfigure op if it is warranted and feasible.
    ///
    /// The op follows Goldman–Lynch §4 with the control plane taken as
    /// reliable: discovery reads the `(configuration, generation)` pair
    /// and the data state at a configuration read quorum of the *old*
    /// members, the new configuration is installed at a configuration
    /// write quorum of the old members (plus every live new member, so
    /// later configuration reads of the new membership see it), and the
    /// discovered data state is refreshed at a data write quorum of the
    /// *new* members. It completes at one instant, sends no messages, and
    /// draws nothing from the RNG stream, so enabling tracing or changing
    /// the thread count cannot perturb a reconfiguring run.
    fn try_reconfigure(&mut self, target: ReconfigTarget, scripted: bool) {
        let Some(family) = self.family else {
            if scripted {
                self.metrics.reconfig_failures += 1;
            }
            return;
        };
        let pol = self.config.reconfig;
        if !scripted {
            if self.reconfigs_used >= pol.max_reconfigs {
                return;
            }
            if self.reconfigs_used > 0 && self.now - self.last_reconfig < pol.cooldown {
                return;
            }
        }
        let live = self.live_set();
        let new_members = match target {
            ReconfigTarget::Live => live,
            ReconfigTarget::Members(m) => m,
        };
        if new_members.len() < pol.min_members || new_members == self.cur_members {
            return;
        }
        let old = self.cur_members;
        let discovery = live.intersection(old);
        let refresh = live.intersection(new_members);
        let feasible = discovery.len() >= QuorumFamily::config_quorum_size(old.len())
            && discovery.len() >= family.read_size(old.len())
            && refresh.len() >= family.write_size(new_members.len());
        if !feasible {
            if scripted {
                self.metrics.reconfig_failures += 1;
            }
            return;
        }
        let new_gen = self.cur_gen + 1;
        let (dvn, dval) = self.stores.discover(0, discovery);
        let install = discovery.union(refresh);
        if self.probe.has_sink() {
            let tid = TraceTid {
                client: u32::MAX,
                op: self.metrics.reconfigurations,
                attempt: 1,
            };
            let faulted = self.faulted_now();
            self.emit(
                tid,
                TraceAction::Create {
                    kind: TmKind::Reconfig,
                },
                faulted,
            );
            for s in discovery {
                let gen = self.stores.cfg_gen(s);
                self.emit(tid, TraceAction::ReadCfg { site: s, gen }, faulted);
            }
            for s in discovery {
                let (vn, value) = self.stores.get(s);
                self.emit(tid, TraceAction::ReadDm { site: s, vn, value }, faulted);
            }
            for s in install {
                self.emit(
                    tid,
                    TraceAction::WriteCfg {
                        site: s,
                        gen: new_gen,
                        members: new_members,
                    },
                    faulted,
                );
            }
            for s in refresh {
                self.emit(
                    tid,
                    TraceAction::WriteDm {
                        site: s,
                        vn: dvn,
                        value: dval,
                    },
                    faulted,
                );
            }
            self.emit(
                tid,
                TraceAction::RequestCommit {
                    vn: new_gen,
                    value: new_members.bits() as u64,
                },
                faulted,
            );
            self.emit(tid, TraceAction::Commit, faulted);
        }
        for s in install {
            self.stores.set_cfg(s, new_gen, new_members);
        }
        for s in refresh {
            self.stores.set(s, dvn, dval);
        }
        self.cur_gen = new_gen;
        self.cur_members = new_members;
        self.arena_check = None;
        if self.config.obs.spans {
            // The reconfigure op completes at one instant (reliable
            // control plane), so the fence is a zero-duration marker —
            // counted like vn_resolve/commit_round to keep the phase
            // counts meaningful.
            self.obs.spans.record(Phase::ReconfigFence, 0);
        }
        self.metrics.reconfigurations += 1;
        self.reconfigs_used += 1;
        self.last_reconfig = self.now;
        if self.obs.events.enabled() {
            self.emit_obs(EventKind::Fault {
                desc: format!("reconfig:gen{new_gen}:{new_members}"),
            });
        }
        if self.config.monitor {
            if let Err(v) = self.arena_check_memo() {
                let now = self.now;
                self.record_violation_observed(
                    format_args!("t={now} reconfig gen {new_gen}: {v}"),
                    None,
                );
            }
        }
    }

    fn live_set(&self) -> ReplicaSet {
        self.up
    }

    /// Whether any fault condition is active right now — a site down, or
    /// an open drop/delay window. Trace events are tagged with this so a
    /// reader can separate healthy-period actions from faulted-period
    /// ones.
    fn faulted_now(&self) -> bool {
        self.up != ReplicaSet::full(self.n)
            || self.config.faults.drop_permille_at(self.now) > 0
            || self.config.faults.delay_extra_at(self.now) > SimTime::ZERO
    }

    /// Whether `site` (up now) crashes at or before `t` — the straddle
    /// check: a response arriving at `t` is lost if the site's next
    /// stochastic or planned crash lands first.
    fn site_crashes_by(&self, site: usize, t: SimTime) -> bool {
        if self.stoch_next_down[site] <= t {
            return true;
        }
        let planned = &self.plan_crashes[site];
        let i = planned.partition_point(|&c| c <= self.now);
        i < planned.len() && planned[i] <= t
    }

    /// Simulate one quorum-gathering phase from the current site state
    /// (`write_phase` selects the quorum predicate).
    ///
    /// `targets` are contacted (one request + one response each if live;
    /// requests to dead sites are sent and lost); the phase completes at
    /// the earliest time the responder set satisfies the quorum predicate.
    /// Messages may be dropped by an active drop window, delayed by an
    /// active delay window, and responses are lost when the site crashes
    /// before the response would arrive.
    fn phase(
        &mut self,
        targets: ReplicaSet,
        client: usize,
        op_index: u64,
        attempt: u32,
        write_phase: bool,
    ) -> PhaseOutcome {
        let phase_no: u8 = if write_phase { 2 } else { 1 };
        let drop_permille = self.config.faults.drop_permille_at(self.now);
        let delay_extra = self.config.faults.delay_extra_at(self.now);
        let seed = self.config.seed;
        let mut responses = std::mem::take(&mut self.scratch);
        responses.clear();
        let mut messages = 0u64;
        for s in targets {
            messages += 1; // request
            if !self.up.contains(s) {
                continue;
            }
            if message_dropped(seed, client, op_index, attempt, phase_no, s, false, drop_permille)
            {
                self.metrics.dropped_messages += 1;
                continue;
            }
            let rtt = self.config.latency.sample(&mut self.rng)
                + self.config.latency.sample(&mut self.rng)
                + delay_extra
                + delay_extra;
            if self.site_crashes_by(s, self.now + rtt) {
                // The site dies before its response completes.
                continue;
            }
            messages += 1; // response
            if message_dropped(seed, client, op_index, attempt, phase_no, s, true, drop_permille)
            {
                self.metrics.dropped_messages += 1;
                continue;
            }
            responses.push((rtt, s));
        }
        // `(rtt, site)` pairs are distinct (sites differ), so an unstable
        // sort orders them exactly as a stable one would.
        responses.sort_unstable();
        let mut have = ReplicaSet::new();
        let mut outcome = PhaseOutcome {
            elapsed: self.config.timeout,
            messages,
            responders: ReplicaSet::new(),
            ok: false,
        };
        for &(t, s) in &responses {
            if t > self.config.timeout {
                break;
            }
            have.insert(s);
            if self.is_quorum(have, write_phase) {
                outcome = PhaseOutcome {
                    elapsed: t,
                    messages,
                    responders: have,
                    ok: true,
                };
                break;
            }
        }
        self.scratch = responses;
        outcome
    }

    /// Whether `have` includes the relevant quorum: the phase loop's
    /// membership probe, taken through [`Thresholds`] as a popcount when
    /// the quorum system has one (it agrees exactly with the predicates —
    /// asserted exhaustively in the quorum crate).
    #[inline]
    fn is_quorum(&self, have: ReplicaSet, write: bool) -> bool {
        // A dynamic attempt's quorums are over its cached membership; the
        // read side also demands a configuration read quorum so the
        // attempt can prove its generation is current.
        if let Some((members, rk, wk)) = self.dyn_quorum {
            let k = have.intersection(members).len();
            return k >= if write { wk } else { rk };
        }
        match self.th {
            Some(t) => {
                let k = have.intersection(ReplicaSet::full(t.n)).len();
                k >= if write { t.write_size } else { t.read_size }
            }
            None if write => self.config.quorum.is_write_quorum_bits(have),
            None => self.config.quorum.is_read_quorum_bits(have),
        }
    }

    /// Minimal quorum inside `available`, matching
    /// `find_*_quorum_bits` bit-for-bit: for threshold systems the greedy
    /// ascending-drop shrink keeps exactly the highest `k` live members.
    #[inline]
    fn find_quorum(&self, available: ReplicaSet, write: bool) -> Option<ReplicaSet> {
        match self.th {
            Some(t) => {
                let k = if write { t.write_size } else { t.read_size };
                let live = available.intersection(ReplicaSet::full(t.n));
                (live.len() >= k).then(|| live.keep_highest(k))
            }
            None if write => self.config.quorum.find_write_quorum_bits(available),
            None => self.config.quorum.find_read_quorum_bits(available),
        }
    }

    fn read_targets(&mut self) -> Option<ReplicaSet> {
        let live = self.live_set();
        if let Some((members, rk, _)) = self.dyn_quorum {
            // Contact live members even when they cannot assemble the
            // quorum: any single response can reveal a newer generation,
            // which is how a client with a stale cache ever recovers.
            let livem = live.intersection(members);
            return Some(match self.config.contact {
                ContactPolicy::AllLive => livem,
                ContactPolicy::MinimalQuorum if livem.len() >= rk => livem.keep_highest(rk),
                ContactPolicy::MinimalQuorum => livem,
            });
        }
        match self.config.contact {
            // Contacting a site known to be down buys nothing: it cannot
            // respond, so it can never help assemble the quorum.
            ContactPolicy::AllLive => Some(live),
            ContactPolicy::MinimalQuorum => self.find_quorum(live, false),
        }
    }

    fn write_targets(&mut self) -> Option<ReplicaSet> {
        let live = self.live_set();
        if let Some((members, _, wk)) = self.dyn_quorum {
            let livem = live.intersection(members);
            return (livem.len() >= wk).then(|| match self.config.contact {
                ContactPolicy::AllLive => livem,
                ContactPolicy::MinimalQuorum => livem.keep_highest(wk),
            });
        }
        match self.config.contact {
            ContactPolicy::AllLive => Some(live),
            ContactPolicy::MinimalQuorum => self.find_quorum(live, true),
        }
    }

    /// Start a fresh logical operation for `client`.
    fn handle_op(&mut self, client: usize) {
        let is_read = self.rng.gen_bool(self.config.read_fraction);
        let op_index = self.op_counter[client];
        self.op_counter[client] += 1;
        // A value unique across the run, so histories identify writes.
        let value = client as u64 * 1_000_000 + op_index + 1;
        self.pending
            .put(client, PendingOp::begin(0, is_read, value, op_index, self.now));
        self.attempt_op(client);
    }

    /// Run one attempt of `client`'s pending operation.
    fn attempt_op(&mut self, client: usize) {
        let mut op = match self.pending.take(client) {
            Some(op) => op,
            None => return,
        };

        // A forced abort (the paper's transaction-abort model): the
        // operation stops with no visible effect.
        if self.abort_flag[client] {
            self.abort_flag[client] = false;
            self.metrics.forced_aborts += 1;
            if self.probe.has_sink() {
                let kind = if op.read { TmKind::Read } else { TmKind::Write };
                self.emit(
                    trace_tid(client, &op),
                    TraceAction::Abort {
                        kind,
                        reason: AbortReason::Forced,
                    },
                    true,
                );
            }
            let stats = if op.read {
                &mut self.metrics.reads
            } else {
                &mut self.metrics.writes
            };
            stats.record_abort();
            self.causal_finish(client, &op, Some(AbortCause::Forced));
            self.schedule(self.config.think_time, Event::OpStart { client });
            return;
        }

        if self.config.reconfig.enabled {
            let family = self.family.expect("checked in Simulation::new");
            self.attempt_op_dynamic(client, op, family);
            return;
        }

        // Fail fast when the live sites cannot possibly hold the quorums
        // this operation needs (writes also need a read quorum for
        // version discovery).
        let feasible = match self.th {
            Some(t) => {
                let k = self.live_set().intersection(ReplicaSet::full(t.n)).len();
                if op.read {
                    k >= t.read_size
                } else {
                    k >= t.read_size && k >= t.write_size
                }
            }
            None => {
                let health = self.config.quorum.quorum_health(self.live_set());
                if op.read {
                    health.can_read()
                } else {
                    health.can_read() && health.can_write()
                }
            }
        };
        if !feasible {
            self.finish_failed_attempt(client, op, SimTime::ZERO, 0, true);
            return;
        }

        // Phase 1 (both kinds): version-number discovery at a read-quorum.
        let out1 = match self.read_targets() {
            Some(targets) => self.phase(targets, client, op.op_index, op.attempt, false),
            None => {
                self.finish_failed_attempt(client, op, SimTime::ZERO, 0, true);
                return;
            }
        };
        // Phase-span accounting (exact): every executed gather phase is
        // read_gather time, whether or not the attempt goes on to commit.
        op.gather_us += out1.elapsed.as_micros();
        self.causal_push(client, EdgeKind::ReadGather, out1.elapsed);
        if !out1.ok {
            self.finish_failed_attempt(client, op, out1.elapsed, out1.messages, false);
            return;
        }
        let (dvn, dval) = self.stores.discover(0, out1.responders);

        if op.read {
            if self.probe.has_sink() {
                let tid = trace_tid(client, &op);
                let faulted = self.faulted_now();
                self.emit(tid, TraceAction::Create { kind: TmKind::Read }, faulted);
                for s in out1.responders {
                    let (vn, value) = self.stores.get(s);
                    self.emit(tid, TraceAction::ReadDm { site: s, vn, value }, faulted);
                }
                self.emit(tid, TraceAction::RequestCommit { vn: dvn, value: dval }, faulted);
                self.emit(tid, TraceAction::Commit, faulted);
            }
            self.commit_op(client, op, out1.elapsed, out1.messages, dvn, dval);
            return;
        }

        // Phase 2 (writes): install at a write-quorum. A failed phase
        // installs nothing (atomic commit round).
        let out2 = match self.write_targets() {
            Some(targets) => self.phase(targets, client, op.op_index, op.attempt, true),
            None => {
                self.finish_failed_attempt(client, op, out1.elapsed, out1.messages, true);
                return;
            }
        };
        op.install_us += out2.elapsed.as_micros();
        self.causal_push(client, EdgeKind::WriteInstall, out2.elapsed);
        let elapsed = out1.elapsed + out2.elapsed;
        let messages = out1.messages + out2.messages;
        if !out2.ok {
            self.finish_failed_attempt(client, op, elapsed, messages, false);
            return;
        }
        let new_vn = dvn + 1;
        // Trace the block before the install loop so the READ-DM events
        // carry the pre-install store contents the discovery actually saw.
        if self.probe.has_sink() {
            let tid = trace_tid(client, &op);
            let faulted = self.faulted_now();
            self.emit(tid, TraceAction::Create { kind: TmKind::Write }, faulted);
            for s in out1.responders {
                let (vn, value) = self.stores.get(s);
                self.emit(tid, TraceAction::ReadDm { site: s, vn, value }, faulted);
            }
            for s in out2.responders {
                self.emit(
                    tid,
                    TraceAction::WriteDm {
                        site: s,
                        vn: new_vn,
                        value: op.value,
                    },
                    faulted,
                );
            }
            self.emit(
                tid,
                TraceAction::RequestCommit {
                    vn: new_vn,
                    value: op.value,
                },
                faulted,
            );
            self.emit(tid, TraceAction::Commit, faulted);
        }
        for s in out2.responders {
            self.stores.set(s, new_vn, op.value);
        }
        self.arena_check = None;
        self.commit_op(client, op, elapsed, messages, new_vn, op.value);
    }

    /// One attempt of a pending operation under dynamic quorums: the
    /// Gifford phases run over the client's *cached* `(generation,
    /// members)` pair, phase 1 doubles as the generation-currency check (a
    /// configuration read quorum of the cached members either confirms the
    /// generation or reveals the newer one), and a stale attempt aborts
    /// with [`AbortReason::Stale`] and retries under the adopted
    /// configuration without spending its retry budget.
    fn attempt_op_dynamic(&mut self, client: usize, mut op: PendingOp, family: QuorumFamily) {
        let (cgen, members) = self.client_cfg[client];
        let m = members.len();
        let rk = family
            .read_size(m)
            .max(QuorumFamily::config_quorum_size(m));
        let wk = family.write_size(m);
        self.dyn_quorum = Some((members, rk, wk));
        let livem = self.live_set().intersection(members);
        if livem.is_empty() {
            // Nothing to contact: no response could even reveal a newer
            // generation.
            self.finish_failed_attempt(client, op, SimTime::ZERO, 0, true);
            return;
        }
        let targets = self.read_targets().expect("dynamic read targets are always Some");
        let out1 = self.phase(targets, client, op.op_index, op.attempt, false);
        op.gather_us += out1.elapsed.as_micros();
        self.causal_push(client, EdgeKind::ReadGather, out1.elapsed);
        // Generation currency: any in-time response carrying a newer
        // generation supersedes this attempt, whether or not the phase
        // assembled its quorum.
        let seen = if out1.ok {
            out1.responders
        } else {
            self.responders_within_timeout()
        };
        let (sgen, smembers) = self.stores.discover_cfg(0, seen);
        if sgen > cgen {
            self.client_cfg[client] = (sgen, smembers);
            self.finish_stale_attempt(client, op, out1.elapsed, out1.messages);
            return;
        }
        if !out1.ok {
            // Structurally impossible (too few live members) counts as
            // unavailable; a quorum that exists but did not assemble in
            // time is a timeout.
            self.finish_failed_attempt(client, op, out1.elapsed, out1.messages, livem.len() < rk);
            return;
        }
        // The responders cover a configuration read quorum of the cached
        // members at generation `cgen`: had a newer configuration
        // committed, its install set would intersect them (both are
        // configuration majorities of the same membership), so `cgen` is
        // current and the data quorums below are over the right members.
        let (dvn, dval) = self.stores.discover(0, out1.responders);

        if op.read {
            if self.probe.has_sink() {
                let tid = trace_tid(client, &op);
                let faulted = self.faulted_now();
                self.emit(tid, TraceAction::Create { kind: TmKind::Read }, faulted);
                for s in out1.responders {
                    let gen = self.stores.cfg_gen(s);
                    self.emit(tid, TraceAction::ReadCfg { site: s, gen }, faulted);
                }
                for s in out1.responders {
                    let (vn, value) = self.stores.get(s);
                    self.emit(tid, TraceAction::ReadDm { site: s, vn, value }, faulted);
                }
                self.emit(tid, TraceAction::RequestCommit { vn: dvn, value: dval }, faulted);
                self.emit(tid, TraceAction::Commit, faulted);
            }
            self.commit_op(client, op, out1.elapsed, out1.messages, dvn, dval);
            return;
        }

        let out2 = match self.write_targets() {
            Some(targets) => self.phase(targets, client, op.op_index, op.attempt, true),
            None => {
                self.finish_failed_attempt(client, op, out1.elapsed, out1.messages, true);
                return;
            }
        };
        op.install_us += out2.elapsed.as_micros();
        self.causal_push(client, EdgeKind::WriteInstall, out2.elapsed);
        let elapsed = out1.elapsed + out2.elapsed;
        let messages = out1.messages + out2.messages;
        if !out2.ok {
            self.finish_failed_attempt(client, op, elapsed, messages, false);
            return;
        }
        let new_vn = dvn + 1;
        if self.probe.has_sink() {
            let tid = trace_tid(client, &op);
            let faulted = self.faulted_now();
            self.emit(tid, TraceAction::Create { kind: TmKind::Write }, faulted);
            for s in out1.responders {
                let gen = self.stores.cfg_gen(s);
                self.emit(tid, TraceAction::ReadCfg { site: s, gen }, faulted);
            }
            for s in out1.responders {
                let (vn, value) = self.stores.get(s);
                self.emit(tid, TraceAction::ReadDm { site: s, vn, value }, faulted);
            }
            for s in out2.responders {
                self.emit(
                    tid,
                    TraceAction::WriteDm {
                        site: s,
                        vn: new_vn,
                        value: op.value,
                    },
                    faulted,
                );
            }
            self.emit(
                tid,
                TraceAction::RequestCommit {
                    vn: new_vn,
                    value: op.value,
                },
                faulted,
            );
            self.emit(tid, TraceAction::Commit, faulted);
        }
        for s in out2.responders {
            self.stores.set(s, new_vn, op.value);
        }
        self.arena_check = None;
        self.commit_op(client, op, elapsed, messages, new_vn, op.value);
    }

    /// The sites whose responses to the last phase arrived within the
    /// timeout — the failed-phase view used for generation discovery.
    fn responders_within_timeout(&self) -> ReplicaSet {
        let mut set = ReplicaSet::new();
        for &(t, s) in &self.scratch {
            if t <= self.config.timeout {
                set.insert(s);
            }
        }
        set
    }

    /// Whether the causal flight recorder is on for this run.
    fn causal_on(&self) -> bool {
        self.config.obs.causal.enabled
    }

    /// Append a causal segment to the client's in-flight op. Zero
    /// durations are dropped — the trace only carries time that was
    /// actually spent, and the phase accumulators skip zeros the same
    /// way the segment list does, so the two stay in lockstep.
    fn causal_push(&mut self, client: usize, kind: EdgeKind, dur: SimTime) {
        if self.causal_on() && dur > SimTime::ZERO {
            self.causal_segs[client].push((kind, dur.as_micros()));
        }
    }

    /// Mirror `finish_stale_attempt`'s accumulator reclassification in
    /// the causal segment list: pop the stale attempt's gather segment
    /// (the attempt ran phase 1 only — a stale rejection happens at
    /// version resolution) and replace it with a `StaleRetry` segment
    /// covering the whole retry delay.
    fn causal_stale(&mut self, client: usize, attempt_elapsed: SimTime, delay: SimTime) {
        if !self.causal_on() {
            return;
        }
        let segs = &mut self.causal_segs[client];
        if attempt_elapsed > SimTime::ZERO {
            let popped = segs.pop();
            debug_assert_eq!(
                popped,
                Some((EdgeKind::ReadGather, attempt_elapsed.as_micros())),
                "stale attempt must end with its own gather segment"
            );
        }
        if delay > SimTime::ZERO {
            segs.push((EdgeKind::StaleRetry, delay.as_micros()));
        }
    }

    /// Build and record the causal trace for a finished (committed or
    /// terminally aborted) operation: a single `Access` root span whose
    /// segments are the client's accumulated causal history, laid
    /// back-to-back from the op's start. The segment sum equals the
    /// phase-accumulator sum by construction, so the trace reconciles
    /// exactly with end-to-end latency.
    #[allow(clippy::cast_possible_truncation)]
    fn causal_finish(&mut self, client: usize, op: &PendingOp, cause: Option<AbortCause>) {
        if !self.causal_on() {
            return;
        }
        let segs = std::mem::take(&mut self.causal_segs[client]);
        debug_assert_eq!(
            segs.iter().map(|&(_, d)| d).sum::<u64>(),
            op.gather_us + op.install_us + op.backoff_us,
            "causal segments must mirror the phase accumulators exactly"
        );
        let id = CausalTxnRef {
            client: client as u32,
            epoch: op.op_index as u32,
        };
        let mut trace = TxnTrace::new(id, self.shard_tag, op.started.as_micros());
        let root = trace.add_span(
            NO_SPAN,
            SpanKind::Access {
                item: op.item as u64,
                write: !op.read,
            },
        );
        let mut at = op.started.as_micros();
        trace.start_span(root, at);
        for (kind, dur) in segs {
            trace.push_seg(root, kind, at, dur, None);
            at += dur;
        }
        if let Some(c) = cause {
            trace.abort_span(root, at, c);
            trace.seal(at, false, root, cause);
        } else {
            trace.finish_span(root, at);
            trace.seal(at, true, NO_SPAN, None);
        }
        self.obs.causal.record(trace);
    }

    /// A stale-generation rejection: the attempt aborts with no visible
    /// effect and the operation retries immediately under the newly
    /// adopted configuration. The retry budget is untouched — the cached
    /// generation strictly increased, so these retries are bounded by the
    /// run's reconfiguration count — and the op's failure statistics don't
    /// move (only terminal outcomes count attempts).
    fn finish_stale_attempt(
        &mut self,
        client: usize,
        mut op: PendingOp,
        attempt_elapsed: SimTime,
        attempt_messages: u64,
    ) {
        self.metrics.stale_rejections += 1;
        if self.probe.has_sink() {
            let kind = if op.read { TmKind::Read } else { TmKind::Write };
            let faulted = self.faulted_now();
            self.emit(
                trace_tid(client, &op),
                TraceAction::Abort {
                    kind,
                    reason: AbortReason::Stale,
                },
                faulted,
            );
        }
        op.messages += attempt_messages;
        // A fresh attempt number keeps trace transaction names unique.
        op.attempt += 1;
        let delay = attempt_elapsed.max(SimTime(1));
        // The burned gather time is retry overhead, not useful gather
        // work: reclassify the stale attempt's elapsed (accumulated into
        // `gather_us` when phase 1 ran) as retry_backoff. The phase sum
        // still equals end-to-end latency exactly.
        op.gather_us -= attempt_elapsed.as_micros();
        op.backoff_us += delay.as_micros();
        self.causal_stale(client, attempt_elapsed, delay);
        self.pending.put(client, op);
        self.schedule(delay, Event::Retry { client });
    }

    /// Record one trace action at the current instant (no-op without an
    /// attached sink). Tracing never touches the RNG stream, so traced and
    /// untraced runs are event-for-event identical.
    fn emit(&mut self, tid: TraceTid, action: TraceAction, faulted: bool) {
        let now = self.now;
        if let Some(sink) = self.probe.sink_mut() {
            sink.record(now, tid, action, faulted);
        }
    }

    /// Commit the pending operation: record metrics/history, assert the
    /// lemmas, schedule the client's next operation.
    fn commit_op(
        &mut self,
        client: usize,
        op: PendingOp,
        attempt_elapsed: SimTime,
        attempt_messages: u64,
        vn: u64,
        value: u64,
    ) {
        let total = (self.now - op.started) + attempt_elapsed;
        let messages = op.messages + attempt_messages;
        let stats = if op.read {
            &mut self.metrics.reads
        } else {
            &mut self.metrics.writes
        };
        stats.record_success(total, messages);
        if self.config.obs.spans {
            // Exact reconciliation: gather + install + backoff == total by
            // construction (see the PendingOp accumulator docs). The
            // vn_resolve and commit_round phases take zero *simulated*
            // time in this simulator — version resolution happens when the
            // gather completes and the commit round is atomic — so they
            // are recorded as zero-duration spans, one per committed op,
            // keeping phase counts meaningful (DESIGN.md §5.4).
            debug_assert_eq!(
                op.gather_us + op.install_us + op.backoff_us,
                total.as_micros(),
                "phase spans must reconcile exactly with end-to-end latency"
            );
            self.obs.spans.record(Phase::ReadGather, op.gather_us);
            self.obs.spans.record(Phase::VnResolve, 0);
            if !op.read {
                self.obs.spans.record(Phase::WriteInstall, op.install_us);
            }
            self.obs.spans.record(Phase::CommitRound, 0);
            if op.backoff_us > 0 {
                self.obs.spans.record(Phase::RetryBackoff, op.backoff_us);
            }
        }
        self.causal_finish(client, &op, None);
        if self.config.record_history {
            self.metrics.history.push(CommitRecord {
                client,
                read: op.read,
                vn,
                value,
            });
        }
        if self.config.monitor {
            // Same clauses and first-offender order as the probe's
            // `on_{read,write}_commit_arena`, with the store re-check
            // memoized: a committed read mutates nothing, so between
            // writes every read replays the last outcome. A committed
            // write digests into the history first (dropping the memo —
            // its inputs changed) and re-scans.
            let check = if op.read {
                self.probe.check_read_value(value)
            } else {
                self.arena_check = None;
                self.probe.commit_write_digest(vn, value)
            }
            .and_then(|()| self.arena_check_memo());
            if let Err(v) = check {
                let kind = if op.read { "read" } else { "write" };
                let op_ref = OpRef {
                    client: client as u64,
                    op: op.op_index,
                    attempt: op.attempt,
                    kind,
                    vn,
                    value,
                };
                let now = self.now;
                self.record_violation_observed(
                    format_args!("t={now} client={client} {kind}: {v}"),
                    Some(op_ref),
                );
            }
        }
        self.schedule(
            attempt_elapsed + self.config.think_time,
            Event::OpStart { client },
        );
    }

    /// A failed attempt: retry with backoff if the policy allows, else
    /// record the failure and move the client on.
    fn finish_failed_attempt(
        &mut self,
        client: usize,
        mut op: PendingOp,
        attempt_elapsed: SimTime,
        attempt_messages: u64,
        unavailable: bool,
    ) {
        // Each attempt is its own transaction in the paper's sense; a
        // failed one was "never created" and appears only as an ABORT.
        if self.probe.has_sink() {
            let kind = if op.read { TmKind::Read } else { TmKind::Write };
            let reason = if unavailable {
                AbortReason::Unavailable
            } else {
                AbortReason::Timeout
            };
            let faulted = self.faulted_now();
            self.emit(trace_tid(client, &op), TraceAction::Abort { kind, reason }, faulted);
        }
        op.messages += attempt_messages;
        if op.attempt < self.config.retry.attempts {
            op.attempt += 1;
            let stats = if op.read {
                &mut self.metrics.reads
            } else {
                &mut self.metrics.writes
            };
            stats.record_retry();
            // Never reschedule at the current instant: a fail-fast
            // unavailable attempt takes zero sim time, and with a zero
            // backoff/think time the client would spin forever at one
            // timestamp against the same dead sites.
            let delay = (attempt_elapsed + self.config.retry.backoff_before(op.attempt))
                .max(SimTime(1));
            // The attempt's own phase time is already in gather/install;
            // only the extra sleep (including the 1 µs floor) is backoff.
            op.backoff_us += (delay - attempt_elapsed).as_micros();
            self.causal_push(client, EdgeKind::RetryBackoff, delay - attempt_elapsed);
            self.pending.put(client, op);
            self.schedule(delay, Event::Retry { client });
            return;
        }
        let stats = if op.read {
            &mut self.metrics.reads
        } else {
            &mut self.metrics.writes
        };
        if unavailable {
            stats.record_unavailable(op.messages);
        } else {
            stats.record_failure(op.messages);
        }
        self.causal_finish(client, &op, Some(AbortCause::QuorumUnavailable));
        // Same zero-time guard as the retry path above.
        self.schedule(
            (attempt_elapsed + self.config.think_time).max(SimTime(1)),
            Event::OpStart { client },
        );
    }
}

/// The trace name of one attempt: each attempt of each logical operation
/// is a fresh transaction.
fn trace_tid(client: usize, op: &PendingOp) -> TraceTid {
    TraceTid {
        client: client as u32,
        op: op.op_index,
        attempt: op.attempt,
    }
}

/// Convenience: build and run in one call.
pub fn run(config: SimConfig) -> Metrics {
    Simulation::new(config).run()
}

/// Convenience: build and run with schedule tracing in one call.
pub fn run_traced(config: SimConfig) -> (Metrics, ScheduleTrace) {
    Simulation::new(config).run_traced()
}

/// Convenience: build and run with observability recording in one call.
pub fn run_observed(config: SimConfig) -> (Metrics, ObsReport) {
    Simulation::new(config).run_observed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum::{Majority, Rowa};

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
        assert!(m.writes.availability() < 0.9, "writes {}", m.writes.availability());
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
        assert!(m.reads.availability() > 0.97, "reads {}", m.reads.availability());
        assert!(m.writes.availability() > 0.95, "writes {}", m.writes.availability());
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
    fn all_live_skips_down_sites() {
        let mut sim = Simulation::new(base(Arc::new(Majority::new(5))));
        sim.up.remove(0);
        sim.up.remove(3);
        let targets = sim.read_targets().unwrap();
        assert_eq!(targets.iter().collect::<Vec<_>>(), vec![1, 2, 4]);
        // 3 requests + 3 responses — no messages wasted on dead sites.
        let out = sim.phase(targets, 0, 0, 1, false);
        assert!(out.ok);
        assert_eq!(out.messages, 6);
        assert_eq!(out.responders.len(), 3);
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
    fn straddled_crash_loses_the_response() {
        // Site 2 crashes at t = 100 µs. A phase started just before, whose
        // responses land after the crash, must not count site 2.
        let mut c = base(Arc::new(Majority::new(3)));
        c.latency = LatencyModel::Fixed(SimTime(300));
        c.faults = FaultPlan::new().crash_at(SimTime(100), 2);
        let mut sim = Simulation::new(c);
        sim.now = SimTime(50);
        let out = sim.phase(ReplicaSet::full(3), 0, 0, 1, false);
        // Sites 0 and 1 respond (quorum); site 2's response is lost.
        assert!(out.ok);
        assert!(!out.responders.contains(2));
        // 3 requests + 2 responses.
        assert_eq!(out.messages, 5);
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
        assert!(d.reconfigurations >= 2, "reconfigurations {}", d.reconfigurations);
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
        c.faults = FaultPlan::new()
            .reconfig_at(SimTime::from_secs(1), ReconfigTarget::Members(shrunk));
        c.reconfig = ReconfigPolicy::scripted_only();
        let mut sim = Simulation::new(c);
        sim.drive();
        assert_eq!(sim.cur_gen, 1);
        assert_eq!(sim.cur_members, shrunk);
        assert_eq!(sim.metrics.reconfigurations, 1);
        assert_eq!(sim.metrics.reconfig_failures, 0);
        // Ops ran before and after the switch; stale rejections happen at
        // the boundary (each client's first post-switch attempt).
        assert!(sim.metrics.stale_rejections > 0);
        assert_eq!(sim.metrics.lemma_violations, 0, "{:?}", sim.metrics.violations);
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
