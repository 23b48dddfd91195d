//! The quorum-consensus protocol, written once.
//!
//! Theorem 11 is the paper's modularity result: the replication algorithm
//! is *one* component, and it composes with any copy-level concurrency
//! control. This module is that component; the three drivers (`sim.rs`,
//! `shard.rs`, `txn_workload.rs`) are event loops around it. It has two
//! layers.
//!
//! **Item level — [`Cluster`], under all three drivers.** The sites one
//! event loop simulates (live set, its view of the fault plan, planned and
//! stochastic crash times), the DM arena, the table of configurations its
//! slots name, and one record per item slot beside its DM block
//! ([`ItemMeta`]): the Lemma 7/8 checker and its known-Ok bit, the
//! committed configuration, the reconfigure budget — and the event loop's
//! observer ([`Observe`]), which the cluster hands every closed TM block of
//! an item's β ([`Block`]). On them: the quorum-gathering
//! [phase](Cluster::phase), the quorum / feasibility / contact-target
//! rule, [`FaultEvent`] application, the
//! Goldman–Lynch §4 [reconfigure op](Cluster::reconfigure), the one
//! Gifford [attempt](Cluster::attempt), and the one [attempt
//! step](Cluster::step) that every client-issued attempt of every driver
//! runs: it consumes the client's forced-abort flag, runs the attempt,
//! applies the one retry rule and reports where the attempt's time went as
//! `(EdgeKind, µs)` segments ([`Step::segs`]). Outcomes are small `Copy`
//! return values: this layer knows nothing of `Metrics`, `TxnStats`, event
//! queues or span trees, which is what lets the nested-transaction driver
//! run it under a lock table. The lemma monitor's verdict is asked for by
//! the caller ([`Cluster::commit_check`], [`Cluster::check_item`]), never
//! carried in a per-attempt return.
//!
//! **The ledger — [`Clients`].** Under all three drivers: planned faults,
//! reconfigurations, lemma violations (their texts included) and the
//! end-of-run sweep, counted in [`Metrics`] and told to the observer
//! ([`Observe::mark`]). Under the two flat drivers also what a logical
//! operation costs across its attempts and leaves behind: the accounting
//! on each step's [`Verdict`] over [`Metrics`] and the [`OpSlab`]. It
//! tells the observer what each attempt spent ([`Observe::attempt`]) and
//! when an op finished ([`Observe::op_done`]); what to keep of that is the
//! observer's. It returns what to schedule ([`Then`]) and never schedules.
//! The nested driver accounts for its own leaf verdicts over `TxnStats`,
//! asks the ledger to check each commit ([`Clients::check_commit`]), and
//! tells its observer about its program trees.
//!
//! Every name an observer can see is the driver's to supply: the
//! coordinator and item of an operation ([`OpId`]), whether an item is
//! named at all in violation and event texts (the single-item driver's one
//! item is anonymous), and the reconfigure-TM's operation number.
//!
//! # Protocol fidelity
//!
//! Quorum membership is decided by a [`QuorumSpec`] predicate, so every
//! quorum system of the `quorum` crate plugs in directly. A system with a
//! threshold form has a [`Thresholds`] rule: every quorum question then
//! runs as a popcount, and under dynamic quorums the same rule, resized to
//! a configuration's members ([`Thresholds::over`]), answers it for that
//! configuration.
//!
//! **Crash visibility.** A phase checks, per contacted site, whether the
//! site's next scheduled crash (stochastic or planned) lands before the
//! response would complete; if so the response is lost and the quorum must
//! be assembled from the surviving sites or the attempt times out. Sampling
//! site state once at operation start would be unsound once operations
//! retry across repair intervals.
//!
//! **Atomic commit rounds.** A phase either assembles its quorum — and, for
//! writes, installs the new version at exactly the responding quorum — or
//! installs nothing. This is the simulation analogue of the paper's
//! transaction-abort semantics: a failed attempt has no visible effect, so
//! every committed point of the run is an "even point" of the access
//! sequence and Lemmas 7 and 8 must hold there.
//!
//! **Failure classification.** An attempt that cannot possibly succeed —
//! the live sites contain no read (for reads) or no read+write quorum (for
//! writes) — fails fast as *unavailable* without sending messages; one
//! whose quorum exists but does not assemble within the timeout is a
//! *timeout*. An attempt under a *cached* configuration (§4) is the
//! exception to failing fast: it contacts whatever members are live,
//! because a single reply can reveal the newer generation.
//!
//! The protocol's only RNG use is two latency samples per live, undropped
//! target, in ascending site order.

use std::fmt;
use std::sync::Arc;

use qc_obs::causal::{AbortCause, EdgeKind};
use qc_obs::OpRef;
use qc_replication::{AbortReason, LemmaChecker, LemmaViolation, TmKind, TraceAction, TraceTid};
use quorum::{QuorumSpec, ReplicaSet, Thresholds};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::arena::{CfgId, CfgTable, DmArena, SlotState};
use crate::faults::{message_dropped, FaultEvent, FaultPlan, ReconfigTarget, RetryPolicy};
use crate::latency::LatencyModel;
use crate::metrics::{Metrics, OpStats};
use crate::observe::{Mark, Observe, OpDone};
use crate::slab::{OpSlab, PendingOp};
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

/// When and how a simulator issues reconfigure ops (the paper's §4
/// dynamic-quorum scheme).
///
/// Dynamic quorums are strictly **opt-in**: with the default
/// ([`ReconfigPolicy::off`]) a run is the static protocol, byte for byte.
/// When enabled, replica slots carry a `(configuration, generation)` pair,
/// data ops validate their cached generation against a configuration read
/// quorum, and reconfigure ops — scripted via the fault plan's
/// `reconfig@t:spec` verb and/or issued by the reactive trigger — install
/// new configurations mid-run following Goldman–Lynch: the new
/// configuration is written to a write quorum of the *old* configuration,
/// after which ops at stale generations are rejected and retried under the
/// new one.
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

/// The check list every driver's `validate` shares, one wording per
/// mistake: the client count (`groups × per_group`) must fit a `usize`,
/// dynamic quorums need a resizable family, scripted `reconfig@` events
/// need the policy enabled, `migrate@` events need a driver that
/// `migrates`, the plan's sites and clients must be in range, and a flat
/// driver's `read_fraction` must be a probability (anything else — NaN
/// included — would panic in `gen_bool` at the first operation).
pub(crate) fn validate(
    quorum: &dyn QuorumSpec,
    faults: &FaultPlan,
    reconfig: &ReconfigPolicy,
    (groups, per_group): (usize, usize),
    migrates: bool,
    read_fraction: Option<f64>,
) -> Result<(), String> {
    let clients = groups
        .checked_mul(per_group)
        .ok_or_else(|| format!("{groups} x {per_group} clients overflows usize"))?;
    let scripts = |is: fn(&FaultEvent) -> bool| faults.events().iter().any(|(_, e)| is(e));
    if let Some(f) = read_fraction {
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("read_fraction must be in [0, 1], got {f}"));
        }
    }
    if reconfig.enabled {
        if !quorum.thresholds().is_some_and(Thresholds::resizable) {
            return Err(format!(
                "dynamic quorums require a ROWA or majority quorum system, got {}",
                quorum.label()
            ));
        }
    } else if scripts(|e| matches!(e, FaultEvent::Reconfig { .. })) {
        return Err(
            "fault plan contains reconfig events but the reconfig policy is disabled".into(),
        );
    }
    if !migrates && scripts(|e| matches!(e, FaultEvent::Migrate { .. })) {
        return Err(
            "fault plan contains migrate events, which need the sharded simulator's elastic \
             placement"
                .into(),
        );
    }
    faults.validate(quorum.n(), clients)
}

/// The longest span a time knob may hold. An event's delay sums a few
/// knobs (timeouts, think time, backoff, latency samples, lock timeouts)
/// onto a clock that is itself at most one (the run's duration), so every
/// instant a driver computes stays far inside a `u64`.
const LONGEST_SPAN: SimTime = SimTime(u64::MAX / 64);

/// The time knobs every driver's `validate` checks, one wording: the
/// driver's named `spans`, the largest latency sample, the longest retry
/// backoff and the reactive trigger's poll are each at most
/// [`LONGEST_SPAN`]. A latency that is always zero would let a flat client
/// with no think time commit forever at one instant, and a zero poll would
/// poll forever at one instant.
pub(crate) fn validate_times(
    latency: &LatencyModel,
    retry: &RetryPolicy,
    reconfig: &ReconfigPolicy,
    spans: &[(&str, SimTime)],
) -> Result<(), String> {
    let sample = match *latency {
        LatencyModel::Fixed(t) => t,
        LatencyModel::Uniform { lo, hi } if lo <= hi => hi,
        LatencyModel::Uniform { lo, hi } => {
            return Err(format!("latency range {lo}..={hi} is empty"));
        }
        // Samples are clamped to [1 µs, 1 min].
        LatencyModel::LogNormal { .. } => SimTime(1),
    };
    let common = [
        ("latency", sample),
        ("retry.max_backoff", retry.max_backoff),
    ];
    if let Some((name, t)) = spans.iter().chain(&common).find(|(_, t)| *t > LONGEST_SPAN) {
        return Err(format!("{name} must be at most {LONGEST_SPAN}, got {t}"));
    }
    if sample == SimTime::ZERO {
        return Err("latency must be able to exceed zero".into());
    }
    let polls = reconfig.enabled && reconfig.reactive;
    if polls && !(SimTime(1)..=LONGEST_SPAN).contains(&reconfig.poll) {
        return Err(format!("reconfig.poll must be in 1µs..={LONGEST_SPAN}"));
    }
    Ok(())
}

/// Sentinel for "no stochastic crash scheduled".
pub(crate) const NO_CRASH: SimTime = SimTime(u64::MAX);

/// The outcome of one simulated phase.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhaseOutcome {
    /// Completion time offset (the timeout when the phase failed).
    pub elapsed: SimTime,
    /// Requests sent plus responses that left a live site undropped.
    pub messages: u64,
    /// Messages lost to the drop window.
    pub dropped: u64,
    /// The responding quorum when `ok`; otherwise every site whose response
    /// arrived within the timeout (too few to satisfy the rule).
    pub responders: ReplicaSet,
    pub ok: bool,
}

/// How one Gifford attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// No quorum could exist among the live sites.
    Unavailable,
    /// A quorum exists but did not assemble within the timeout.
    Timeout,
    /// A response carried a generation newer than the coordinator's cache,
    /// which has adopted it. Nothing was installed.
    Stale,
    /// Committed `(vn, value)` over the logical value `prev`; the caller
    /// owes the lemma monitor a [`Cluster::commit_check`].
    Committed { vn: u64, value: u64, prev: u64 },
}

/// What one Gifford attempt cost, however it ended.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Cost {
    /// Simulated time of the phases that ran (gather + install).
    pub elapsed: SimTime,
    /// Phase 1's share of `elapsed`.
    pub gather: SimTime,
    pub messages: u64,
    pub dropped: u64,
}

/// What the attempt step decided; the drivers account for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The client's forced-abort flag was set: nothing ran, and the trace
    /// holds the attempt's `Forced` ABORT.
    Forced,
    /// Committed `(vn, value)` over the logical value `prev`; the caller
    /// owes the lemma monitor a [`Cluster::commit_check`].
    Committed { vn: u64, value: u64, prev: u64 },
    /// Run the next attempt `delay` from now — a stale one at once (off
    /// the budget), a failed one after its backoff.
    Retry { delay: SimTime, stale: bool },
    /// Failed with the retry budget spent.
    Failed { unavailable: bool },
}

/// One client-issued attempt as the attempt step ran it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Step {
    pub verdict: Verdict,
    pub cost: Cost,
    write: bool,
}

impl Step {
    /// Where the attempt's time went, as `(edge kind, µs)` in causal order
    /// (zero durations included), up to `end`: the offset from the decision
    /// instant at which the driver schedules what follows — the retry, the
    /// completion, or nothing. Every executed phase is gather or install
    /// time, cut at `end`. Time past the phases is a retry's backoff, or a
    /// committed attempt's scheduling floor folded into its trailing
    /// phase; a stale attempt's whole delay is one stale-retry segment
    /// (its gather time burned at version resolution is retry overhead).
    pub fn segs(&self, end: SimTime) -> [(EdgeKind, u64); 3] {
        let (gather, elapsed) = (self.cost.gather.min(end), self.cost.elapsed.min(end));
        let mut phases = [gather.as_micros(), (elapsed - gather).as_micros()];
        let mut tail = (EdgeKind::RetryBackoff, (end - elapsed).as_micros());
        match self.verdict {
            Verdict::Retry { stale: true, .. } => {
                (phases, tail) = ([0, 0], (EdgeKind::StaleRetry, end.as_micros()));
            }
            Verdict::Committed { .. } => {
                phases[usize::from(self.write)] += tail.1;
                tail.1 = 0;
            }
            Verdict::Forced | Verdict::Retry { .. } | Verdict::Failed { .. } => {}
        }
        [
            (EdgeKind::ReadGather, phases[0]),
            (EdgeKind::WriteInstall, phases[1]),
            tail,
        ]
    }
}

/// What a reconfigure op did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reconfigured {
    /// Not warranted: over budget, cooling down, below `min_members`, or
    /// the membership would not change.
    Skipped,
    /// Scripted, but the live sites cannot carry it.
    Failed,
    /// Generation `gen` with `members` is committed; the caller owes the
    /// lemma monitor a [`Cluster::check_item`].
    Installed { gen: u64, members: ReplicaSet },
}

/// What applying a planned [`FaultEvent`] asks of the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultEffect {
    None,
    /// A live site went down.
    SiteDown,
    /// Slot 0's stores were scribbled on; the caller owes the lemma
    /// monitor a [`Cluster::check_item`] *now*: a later write's install can
    /// overwrite the corrupted entry before any committed operation (or
    /// the end-of-run sweep) would look at it, so detection at injection
    /// time is the only seed-independent guarantee.
    Corrupted,
    /// Reconfigure every owned item towards `target`.
    Reconfig(ReconfigTarget),
}

/// What a cluster keeps per item slot beside the item's DM block. The
/// default is an item as it starts a run: an empty history at generation 0
/// of the full membership, with an unspent reconfigure budget.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ItemMeta {
    /// The lemma checker over the item's committed history.
    checker: LemmaChecker<u64>,
    /// Committed configuration generation (0 = the initial full
    /// membership; only reconfigure ops advance it).
    gen: u64,
    /// The reactive trigger's cooldown and budget: instant of the last
    /// reconfiguration, and how many so far.
    last_reconfig: SimTime,
    reconfigs_used: u32,
    /// The committed configuration's member set.
    cfg: CfgId,
    /// Whether the store re-check (Lemmas 7/8(1a)/8(1b)) is known to pass.
    /// The check is a pure function of the item's history digest,
    /// committed membership and store slots, so between mutations of those
    /// an `Ok` is replayed, not re-scanned; an `Err` is recomputed, which
    /// yields the same violation. Cleared at every mutation site (write
    /// installs, corrupt injections, committed-write digests,
    /// reconfigurations, imports).
    known_ok: bool,
}

// The record is a slot's whole per-item cost beside its DM block.
const _: () = assert!(std::mem::size_of::<ItemMeta>() <= 48);

/// One item in flight between two clusters at a migration barrier: its `n`
/// DM slots and its record, every configuration a member set. The record's
/// `cfg` is the exporting cluster's id; the importer re-interns `members`.
#[derive(Debug, PartialEq)]
pub(crate) struct ItemExport {
    slots: Vec<SlotState>,
    meta: ItemMeta,
    members: ReplicaSet,
}

/// An item as the cluster addresses it and as observers name it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Item {
    /// The cluster slot holding the item.
    pub slot: usize,
    /// The item's global id (0 for the single-item driver's one item).
    pub name: usize,
}

/// One transaction-manager block of the schedule trace, CREATE to COMMIT.
#[derive(Clone, Copy, Debug)]
struct TmBlock {
    kind: TmKind,
    /// Whether the TM also read the configuration at `reads`.
    read_cfg: bool,
    reads: ReplicaSet,
    /// `(sites, gen, members)` of the configuration installs.
    cfg_writes: Option<(ReplicaSet, u64, ReplicaSet)>,
    /// `(sites, vn, value)` of the data installs.
    dm_writes: Option<(ReplicaSet, u64, u64)>,
    /// REQUEST-COMMIT's `(vn, value)`.
    commit: (u64, u64),
}

/// What a [`Block`] holds.
#[derive(Clone, Copy, Debug)]
enum Body {
    Tm(TmBlock),
    /// The attempt was never created.
    Abort {
        kind: TmKind,
        reason: AbortReason,
    },
}

/// One closed block of an item's β as its cluster ran it, at one instant
/// under one transaction name: a TM's CREATE … COMMIT, or the ABORT of an
/// attempt that was never created ([`Observe::block`]). Its actions read
/// the stores as the block saw them: the cluster emits a block before it
/// installs anything.
pub struct Block<'a> {
    /// The item's global id (0 for the single-item driver's one item).
    pub item: usize,
    /// The instant the block ran at.
    pub at: SimTime,
    /// The block's transaction name.
    pub tid: TraceTid,
    body: Body,
    stores: &'a DmArena,
    /// The item's first store slot.
    base: usize,
    plan: &'a FaultPlan,
    up: ReplicaSet,
    n: usize,
}

impl Block<'_> {
    /// Whether any fault condition was active — a site down, or an open
    /// drop/delay window — so a reader can separate healthy-period actions
    /// from faulted-period ones. A forced abort is a fault by definition.
    #[must_use]
    pub fn faulted(&self) -> bool {
        matches!(
            self.body,
            Body::Abort {
                reason: AbortReason::Forced,
                ..
            }
        ) || self.up != ReplicaSet::full(self.n)
            || self.plan.drop_permille_at(self.at) > 0
            || self.plan.delay_extra_at(self.at) > SimTime::ZERO
    }

    /// The block's actions in schedule order.
    pub fn actions(&self, mut emit: impl FnMut(TraceAction)) {
        let b = match self.body {
            Body::Tm(b) => b,
            Body::Abort { kind, reason } => return emit(TraceAction::Abort { kind, reason }),
        };
        let (base, stores) = (self.base, self.stores);
        // A `ReplicaSet` holds sites below 128, so each fits a trace's `u8`.
        let site_u8 = |site: usize| site as u8;
        emit(TraceAction::Create { kind: b.kind });
        if b.read_cfg {
            for site in b.reads {
                let gen = stores.cfg_gen(base + site);
                emit(TraceAction::ReadCfg {
                    site: site_u8(site),
                    gen,
                });
            }
        }
        // Emitted before any install, so the READ-DM events carry the
        // store contents the discovery actually saw.
        for site in b.reads {
            let (vn, value) = stores.get(base + site);
            emit(TraceAction::ReadDm {
                site: site_u8(site),
                vn,
                value,
            });
        }
        if let Some((sites, gen, members)) = b.cfg_writes {
            for site in sites {
                emit(TraceAction::WriteCfg {
                    site: site_u8(site),
                    gen,
                    members,
                });
            }
        }
        if let Some((sites, vn, value)) = b.dm_writes {
            for site in sites {
                emit(TraceAction::WriteDm {
                    site: site_u8(site),
                    vn,
                    value,
                });
            }
        }
        let (vn, value) = b.commit;
        emit(TraceAction::RequestCommit { vn, value });
        emit(TraceAction::Commit);
    }
}

/// What a driver configures a [`Cluster`] with.
pub(crate) struct ClusterSpec {
    pub quorum: Arc<dyn QuorumSpec + Send + Sync>,
    pub latency: LatencyModel,
    pub contact: ContactPolicy,
    pub timeout: SimTime,
    /// The run's master seed: drop coins and trace headers.
    pub seed: u64,
    /// The seed of this event loop's private RNG stream.
    pub rng_seed: u64,
    /// This event loop's view of the fault plan.
    pub plan: FaultPlan,
    pub reconfig: ReconfigPolicy,
    /// The retry rule of client-issued attempts ([`Cluster::step`]).
    pub retry: RetryPolicy,
    pub monitor: bool,
    /// Item slots to start with.
    pub slots: usize,
}

/// The replicated store one event loop drives: sites, fault weather, DM
/// arena, per-item protocol state. Items are addressed by slot; the block
/// of slot `i` is `stores[i·n .. (i+1)·n]`, and its record is `items[i]`.
///
/// # Configurations
///
/// Every configuration the cluster holds — each DM slot's, each item's
/// committed one, and the coordinators' caches the drivers keep — is a
/// [`CfgId`] into the cluster's [`CfgTable`]: an append-only table of
/// member sets, each with its quorum rule. Id [`CfgId::FULL`] is the full
/// membership, so a static run never appends to it; a reconfiguration
/// interns its target. The ids are private to this cluster: an
/// [`ItemExport`] carries member sets, which [`import`](Self::import)
/// re-interns, and traces and reports see only member sets.
pub(crate) struct Cluster<O> {
    pub cfg: ClusterSpec,
    /// The event loop's observer.
    pub obs: O,
    /// Sites per item (`quorum.n()`).
    pub n: usize,
    /// The member sets the cluster's configurations name, each with the
    /// quorum system's rule resized to it, when the system has a threshold
    /// form (ROWA and majority do). Where a rule is an
    /// `Option<Thresholds>`, `None` means the system's own predicates
    /// decide (grid, tree and weighted systems, which have one
    /// configuration).
    table: CfgTable,
    /// Planned crash times per site, ascending (for straddle detection).
    plan_crashes: Vec<Vec<SimTime>>,
    /// Next scheduled stochastic crash per site ([`NO_CRASH`] when none;
    /// only the single-item driver has a stochastic failure process).
    pub stoch_next_down: Vec<SimTime>,
    pub rng: ChaCha8Rng,
    pub now: SimTime,
    /// Live sites, as a bitset (`full(n)` when healthy).
    pub up: ReplicaSet,
    /// Flat per-item DM arena, SoA layout: `item slot·n + site`.
    stores: DmArena,
    /// One record per item slot.
    items: Vec<ItemMeta>,
    /// Phase response buffer, reused so the hot path allocates nothing.
    scratch: Vec<(SimTime, usize)>,
    /// A pending forced abort per driver-local client (grown on demand by
    /// the plan's `abort@` events), consumed by that client's next step.
    forced: Vec<bool>,
}

impl<O: Observe> Cluster<O> {
    pub fn new(cfg: ClusterSpec, obs: O) -> Self {
        let n = cfg.quorum.n();
        let slots = cfg.slots;
        Cluster {
            n,
            table: CfgTable::new(n, cfg.quorum.thresholds()),
            plan_crashes: (0..n)
                .map(|s| cfg.plan.crash_times_for(s).collect())
                .collect(),
            stoch_next_down: vec![NO_CRASH; n],
            rng: ChaCha8Rng::seed_from_u64(cfg.rng_seed),
            now: SimTime::ZERO,
            up: ReplicaSet::full(n),
            stores: DmArena::new_configured(slots * n, n),
            items: vec![ItemMeta::default(); slots],
            scratch: Vec::new(),
            forced: Vec::new(),
            cfg,
            obs,
        }
    }

    /// Committed configuration generation of the item in `slot`.
    pub fn gen(&self, slot: usize) -> u64 {
        self.items[slot].gen
    }

    /// Committed membership of the item in `slot`.
    pub fn members(&self, slot: usize) -> ReplicaSet {
        self.table.members(self.items[slot].cfg)
    }

    /// `current-vn` of the committed history of the item in `slot`.
    pub fn current_vn(&self, slot: usize) -> u64 {
        self.items[slot].checker.current_vn()
    }

    // ----- what the observer sees --------------------------------------

    /// Hand the observer one closed block of `item`'s β at the current
    /// instant — the one emitter of data TMs, the reconfigure-TM and
    /// ABORTs alike.
    fn emit(&mut self, item: Item, tid: TraceTid, body: Body) {
        self.obs.block(&Block {
            item: item.name,
            at: self.now,
            tid,
            body,
            stores: &self.stores,
            base: item.slot * self.n,
            plan: &self.cfg.plan,
            up: self.up,
            n: self.n,
        });
    }

    /// The ABORT of an attempt that was never created: a driver's forced
    /// or fenced abort; a failed attempt emits its own.
    fn emit_abort(&mut self, item: Item, tid: TraceTid, write: bool, reason: AbortReason) {
        let kind = if write { TmKind::Write } else { TmKind::Read };
        self.emit(item, tid, Body::Abort { kind, reason });
    }

    // ----- sites and weather ---------------------------------------------

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

    /// Apply planned fault `idx` to the sites, the stores and the clients'
    /// forced-abort flags; what concerns the monitor or whole keyspaces
    /// comes back as a [`FaultEffect`].
    pub fn apply_fault(&mut self, idx: usize) -> FaultEffect {
        match self.cfg.plan.events()[idx].1 {
            FaultEvent::Crash { site } => {
                if self.up.contains(site) {
                    self.up.remove(site);
                    return FaultEffect::SiteDown;
                }
            }
            FaultEvent::Recover { site } => self.up.insert(site),
            FaultEvent::AbortClient { client } => {
                self.forced.resize(self.forced.len().max(client + 1), false);
                self.forced[client] = true;
            }
            FaultEvent::Corrupt { site, vn, value } => {
                // The plan view routes Corrupt to the loop owning global
                // item 0, which is slot 0 there.
                self.stores.set(site, vn, value);
                self.items[0].known_ok = false;
                return FaultEffect::Corrupted;
            }
            FaultEvent::Reconfig { target } => return FaultEffect::Reconfig(target),
            // Windows act at message time via drop_permille_at /
            // delay_extra_at; migrations are consumed by the elastic
            // control plane at its barriers (stripped from every plan
            // view, rejected by the other drivers' validate).
            FaultEvent::DropWindow { .. }
            | FaultEvent::DelayWindow { .. }
            | FaultEvent::Migrate { .. } => {}
        }
        FaultEffect::None
    }

    // ----- the quorum rule -----------------------------------------------

    /// Whether `have` includes the relevant quorum under `rule`.
    #[inline]
    fn is_quorum(&self, have: ReplicaSet, write: bool, rule: Option<Thresholds>) -> bool {
        quorum::is_quorum(&*self.cfg.quorum, rule, have, write)
    }

    /// Whether the live sites hold the quorums an operation needs (writes
    /// also need a read quorum, for version discovery).
    #[inline]
    fn feasible(&self, write: bool, rule: Option<Thresholds>) -> bool {
        match rule {
            Some(r) => r.feasible(self.up, write),
            None => {
                let can = |write| self.is_quorum(self.up, write, None);
                can(false) && (!write || can(true))
            }
        }
    }

    /// The sites a phase contacts, or `None` when the live sites hold no
    /// such quorum. Contacting a site known to be down buys nothing: it
    /// cannot respond. A minimal quorum matches `find_*_quorum_bits` bit
    /// for bit (the `thresholds()` contract).
    #[inline]
    fn targets(&self, write: bool, rule: Option<Thresholds>) -> Option<ReplicaSet> {
        let minimal = self.cfg.contact == ContactPolicy::MinimalQuorum;
        let Some(r) = rule else {
            return match (minimal, write) {
                (false, _) => Some(self.up),
                (true, true) => self.cfg.quorum.find_write_quorum_bits(self.up),
                (true, false) => self.cfg.quorum.find_read_quorum_bits(self.up),
            };
        };
        let live = self.up.intersection(r.members());
        if !r.is_quorum(live, write) {
            // A read still contacts whoever is live: any single response
            // can reveal a newer generation, which is how a coordinator
            // with a stale cache ever recovers. (Only an attempt under a
            // cached configuration gets here; the others fail fast.)
            return (!write).then_some(live);
        }
        if minimal {
            r.find_quorum(live, write)
        } else {
            Some(live)
        }
    }

    // ----- the phase and the attempt -------------------------------------

    /// Simulate one quorum-gathering phase from the current site state
    /// (`write_phase` selects the side of `rule`).
    ///
    /// `targets` are contacted (one request + one response each if live;
    /// requests to dead sites are sent and lost); the phase completes at
    /// the earliest time the responder set satisfies the quorum rule.
    /// Messages may be dropped by an active drop window, delayed by an
    /// active delay window, and responses are lost when the site crashes
    /// before the response would arrive. The per-message drop coins are
    /// keyed by `coin_client` and `tid`'s operation and attempt numbers.
    fn phase(
        &mut self,
        targets: ReplicaSet,
        (coin_client, tid): (usize, TraceTid),
        write_phase: bool,
        rule: Option<Thresholds>,
    ) -> PhaseOutcome {
        let phase_no: u8 = if write_phase { 2 } else { 1 };
        let drop_permille = self.cfg.plan.drop_permille_at(self.now);
        let delay_extra = self.cfg.plan.delay_extra_at(self.now);
        let (client, op_index, attempt) = (coin_client, tid.op, tid.attempt);
        let seed = self.cfg.seed;
        let mut responses = std::mem::take(&mut self.scratch);
        responses.clear();
        let (mut messages, mut dropped) = (0u64, 0u64);
        for s in targets {
            messages += 1; // request
            if !self.up.contains(s) {
                continue;
            }
            if message_dropped(
                seed,
                client,
                op_index,
                attempt,
                phase_no,
                s,
                false,
                drop_permille,
            ) {
                dropped += 1;
                continue;
            }
            let rtt = self.cfg.latency.sample(&mut self.rng)
                + self.cfg.latency.sample(&mut self.rng)
                + delay_extra
                + delay_extra;
            if self.site_crashes_by(s, self.now + rtt) {
                // The site dies before its response completes.
                continue;
            }
            messages += 1; // response
            if message_dropped(
                seed,
                client,
                op_index,
                attempt,
                phase_no,
                s,
                true,
                drop_permille,
            ) {
                dropped += 1;
                continue;
            }
            responses.push((rtt, s));
        }
        // `(rtt, site)` pairs are distinct (sites differ), so an unstable
        // sort orders them exactly as a stable one would.
        responses.sort_unstable();
        let mut have = ReplicaSet::new();
        let mut done = None;
        for &(t, s) in &responses {
            if t > self.cfg.timeout {
                break;
            }
            have.insert(s);
            if self.is_quorum(have, write_phase, rule) {
                done = Some(t);
                break;
            }
        }
        self.scratch = responses;
        PhaseOutcome {
            elapsed: done.unwrap_or(self.cfg.timeout),
            messages,
            dropped,
            responders: have,
            ok: done.is_some(),
        }
    }

    /// One Gifford attempt against `item`, decided at the current instant:
    /// phase 1 gathers a read quorum and resolves the version; a read
    /// commits there; a write (`Some(value)`) gathers a write quorum and
    /// installs `value` at `vn + 1` at exactly the responders. `tid` names
    /// the attempt in the trace — its TM block when it commits, its ABORT
    /// when it does not — and, with `coin_client`, in its drop coins (a
    /// compensation is the same attempt under a system identity).
    ///
    /// The quorums are the static system's unless dynamic quorums are on.
    /// Then phase 1 also demands a configuration read quorum, since its TM
    /// block reads the configuration from the responders. With
    /// `cache = Some((gen, id))` — a flat driver's coordinator cache, `id`
    /// naming a member set in this cluster's table — the quorums are over
    /// the cached members, and phase 1 doubles as the generation currency
    /// check: a responder at a newer generation makes the attempt
    /// [`Outcome::Stale`], whether or not the quorum assembled, and the
    /// cache adopts what it saw. With `cache = None` they are over the
    /// item's *committed* membership, which cannot be stale and needs no
    /// proof of currency (the nested-transaction driver, whose accesses
    /// are decided at the one instant they read the membership).
    pub fn attempt(
        &mut self,
        item: Item,
        tid: TraceTid,
        coin_client: usize,
        write: Option<u64>,
        cache: Option<&mut (u64, CfgId)>,
    ) -> (Outcome, Cost) {
        let coin = (coin_client, tid);
        let base = item.slot * self.n;
        let mut cost = Cost::default();
        let cached = cache.as_ref().map(|c| c.1);
        let rule = self.table.rule(cached.unwrap_or(self.items[item.slot].cfg));
        // Under dynamic quorums phase 1 also reads the configuration, cached
        // or not: its TM block records `READ-CFG` from the responders.
        let dynamic = self.cfg.reconfig.enabled;
        let rule = rule.map(|r| if dynamic { r.with_config_reads() } else { r });
        let reachable = match cached {
            // A cached attempt gives up before sending only when there is
            // nothing to contact: no response could even reveal a newer
            // generation.
            Some(id) => !self.up.intersection(self.table.members(id)).is_empty(),
            None => self.feasible(write.is_some(), rule),
        };
        let outcome = 'attempt: {
            if !reachable {
                break 'attempt Outcome::Unavailable;
            }
            let Some(targets) = self.targets(false, rule) else {
                break 'attempt Outcome::Unavailable;
            };
            let p1 = self.phase(targets, coin, false, rule);
            cost = Cost {
                elapsed: p1.elapsed,
                gather: p1.elapsed,
                messages: p1.messages,
                dropped: p1.dropped,
            };
            if let Some(cache) = cache {
                // Generation currency: any in-time response carrying a
                // newer generation supersedes this attempt, whether or not
                // the phase assembled its quorum. No site is ahead of the
                // item's committed generation, so a cache at it cannot be
                // superseded and the fold is skipped.
                let seen = if cache.0 < self.items[item.slot].gen {
                    self.stores.discover_cfg(base, p1.responders)
                } else {
                    debug_assert!(self
                        .stores
                        .discover_cfg(base, p1.responders)
                        .is_none_or(|(gen, _)| gen <= cache.0));
                    None
                };
                if let Some(seen) = seen.filter(|&(gen, _)| gen > cache.0) {
                    *cache = seen;
                    break 'attempt Outcome::Stale;
                }
            }
            if !p1.ok {
                // Structurally impossible (too few live members — only a
                // cached attempt gets this far that way) is unavailable; a
                // quorum that exists but did not assemble in time is a
                // timeout.
                let exists = rule.is_none_or(|r| r.is_quorum(self.up, false));
                break 'attempt if exists {
                    Outcome::Timeout
                } else {
                    Outcome::Unavailable
                };
            }
            // Under a cached configuration the responders cover a
            // configuration read quorum of the cached members at the cached
            // generation: had a newer configuration committed, its install
            // set would intersect them (both are configuration majorities
            // of the same membership), so the generation is current and the
            // data quorums are over the right members.
            let (dvn, dval) = self.stores.discover(base, p1.responders);
            let (vn, value, installs) = match write {
                None => (dvn, dval, None),
                Some(value) => {
                    let Some(targets) = self.targets(true, rule) else {
                        break 'attempt Outcome::Unavailable;
                    };
                    let p2 = self.phase(targets, coin, true, rule);
                    cost.elapsed += p2.elapsed;
                    cost.messages += p2.messages;
                    cost.dropped += p2.dropped;
                    if !p2.ok {
                        break 'attempt Outcome::Timeout;
                    }
                    (dvn + 1, value, Some(p2.responders))
                }
            };
            let block = TmBlock {
                kind: if write.is_some() {
                    TmKind::Write
                } else {
                    TmKind::Read
                },
                read_cfg: dynamic,
                reads: p1.responders,
                cfg_writes: None,
                dm_writes: installs.map(|sites| (sites, vn, value)),
                commit: (vn, value),
            };
            self.emit(item, tid, Body::Tm(block));
            if let Some(sites) = installs {
                for s in sites {
                    self.stores.set(base + s, vn, value);
                }
                self.items[item.slot].known_ok = false;
            }
            Outcome::Committed {
                vn,
                value,
                prev: dval,
            }
        };
        // Each attempt is its own transaction in the paper's sense; a
        // failed one was "never created" and appears only as an ABORT.
        let aborted = match outcome {
            Outcome::Committed { .. } => return (outcome, cost),
            Outcome::Unavailable => AbortReason::Unavailable,
            Outcome::Timeout => AbortReason::Timeout,
            Outcome::Stale => AbortReason::Stale,
        };
        self.emit_abort(item, tid, write.is_some(), aborted);
        (outcome, cost)
    }

    /// The attempt step: one client-issued attempt, under any driver.
    /// Driver-local `client`'s pending forced abort (the paper's
    /// transaction-abort model) is consumed first: the attempt stops with
    /// no visible effect but its `Forced` ABORT. Otherwise the Gifford
    /// [attempt](Self::attempt) runs, its drop coins keyed by `tid`'s
    /// client, and the one retry rule ([`RetryPolicy::retry_delay`])
    /// decides what a failure leads to. A stale attempt retries at once
    /// under the configuration it just adopted, off the retry budget: the
    /// cached generation strictly increased, so such retries are bounded
    /// by the run's reconfiguration count.
    pub fn step(
        &mut self,
        client: usize,
        item: Item,
        tid: TraceTid,
        write: Option<u64>,
        cache: Option<&mut (u64, CfgId)>,
    ) -> Step {
        let w = write.is_some();
        if self.forced.get_mut(client).is_some_and(std::mem::take) {
            self.emit_abort(item, tid, w, AbortReason::Forced);
            let (verdict, cost) = (Verdict::Forced, Cost::default());
            return Step {
                verdict,
                cost,
                write: w,
            };
        }
        let (outcome, cost) = self.attempt(item, tid, tid.client as usize, write, cache);
        let verdict = match outcome {
            Outcome::Committed { vn, value, prev } => Verdict::Committed { vn, value, prev },
            Outcome::Stale => Verdict::Retry {
                delay: cost.elapsed.max(SimTime(1)),
                stale: true,
            },
            failed => match self.cfg.retry.retry_delay(tid.attempt, cost.elapsed) {
                Some(delay) => Verdict::Retry {
                    delay,
                    stale: false,
                },
                None => Verdict::Failed {
                    unavailable: failed == Outcome::Unavailable,
                },
            },
        };
        Step {
            verdict,
            cost,
            write: w,
        }
    }

    // ----- the lemma monitor ---------------------------------------------

    /// Assert Lemmas 7 and 8(1a)/8(1b) against one item's stores (`Ok` when
    /// the monitor is off, or when the item is known to pass: see
    /// [`ItemMeta`]'s `known_ok`). Lemma 8(1a)'s write quorum is the one of
    /// the item's committed configuration.
    pub fn check_item(&mut self, item: usize) -> Result<(), LemmaViolation> {
        if !self.cfg.monitor || self.items[item].known_ok {
            return Ok(());
        }
        let r = self.check_states(item);
        self.items[item].known_ok = r.is_ok();
        r
    }

    /// The store re-check of `item`, un-memoized.
    fn check_states(&self, item: usize) -> Result<(), LemmaViolation> {
        let states = self.stores.states(item * self.n..(item + 1) * self.n);
        let meta = &self.items[item];
        let (spec, rule) = (&*self.cfg.quorum, self.table.rule(meta.cfg));
        meta.checker.check_states(states, true, |holders| {
            quorum::is_quorum(spec, rule, holders, true)
        })
    }

    /// The monitor at a commit point (`Ok` when it is off): Lemma 8(2) for
    /// a read; for a write, digest it into the history (`current-vn` must
    /// advance by exactly one), which clears the known-Ok bit — the
    /// check's inputs changed; then the store re-check. A committed read
    /// mutates nothing, so between writes every read replays a pass.
    pub fn commit_check(
        &mut self,
        item: usize,
        write: bool,
        vn: u64,
        value: u64,
    ) -> Result<(), LemmaViolation> {
        if !self.cfg.monitor {
            return Ok(());
        }
        let meta = &mut self.items[item];
        if write {
            meta.known_ok = false;
            meta.checker.commit_write(vn, value)
        } else {
            meta.checker.check_read(&value)
        }
        .and_then(|()| self.check_item(item))
    }

    // ----- reconfiguration (§4) ------------------------------------------

    /// Whether the reactive trigger wants `item` moved to the live
    /// membership: sites outside its membership recovered (grow), or the
    /// loop's operations are `failing` and members are down (shrink).
    pub fn wants_reconfig(&self, item: usize, failing: bool) -> bool {
        self.wants_members(self.members(item), failing)
    }

    /// [`wants_reconfig`](Self::wants_reconfig) for an item still at the
    /// initial full membership, which a driver has given no slot yet.
    pub fn wants_reconfig_initial(&self, failing: bool) -> bool {
        self.wants_members(ReplicaSet::full(self.n), failing)
    }

    fn wants_members(&self, members: ReplicaSet, failing: bool) -> bool {
        !self.up.difference(members).is_empty()
            || (failing && !members.difference(self.up).is_empty())
    }

    /// Execute one reconfigure op against `item` if it is warranted and
    /// feasible; `tm_op` is the operation number the driver names the
    /// reconfigure-TM by in the item's β.
    ///
    /// The op follows Goldman–Lynch §4 with the control plane taken as
    /// reliable: discovery reads the `(configuration, generation)` pair
    /// and the data state at a configuration read quorum of the *old*
    /// members, the new configuration is installed at a configuration
    /// write quorum of the old members (plus every live new member, so
    /// later configuration reads of the new membership see it), and the
    /// discovered data state is refreshed at a data write quorum of the
    /// *new* members. It completes at one instant, sends no messages, and
    /// draws nothing from the RNG stream, so observing it or changing the
    /// thread count cannot perturb a reconfiguring run.
    ///
    /// A `scripted` op ignores the reactive trigger's budget and cooldown
    /// and counts as [`Reconfigured::Failed`] when infeasible. `allow_same`
    /// lets the generation advance over an *unchanged* membership — the
    /// fence a migration needs every coordinator to observe (stale-abort
    /// and re-adopt) before the item serves from its new shard.
    pub fn reconfigure(
        &mut self,
        item: Item,
        tm_op: u64,
        target: ReconfigTarget,
        scripted: bool,
        allow_same: bool,
    ) -> Reconfigured {
        let infeasible = if scripted {
            Reconfigured::Failed
        } else {
            Reconfigured::Skipped
        };
        let pol = self.cfg.reconfig;
        let slot = item.slot;
        let meta = &self.items[slot];
        let used = meta.reconfigs_used;
        let cooling = used > 0 && self.now - meta.last_reconfig < pol.cooldown;
        if !scripted && (used >= pol.max_reconfigs || cooling) {
            return Reconfigured::Skipped;
        }
        let live = self.up;
        let members = match target {
            ReconfigTarget::Live => live,
            ReconfigTarget::Members(m) => m,
        };
        let (old, gen) = (meta.cfg, meta.gen + 1);
        let old_members = self.table.members(old);
        if members.len() < pol.min_members || (!allow_same && members == old_members) {
            return Reconfigured::Skipped;
        }
        let new = self.table.intern(members);
        let discovery = live.intersection(old_members);
        let refresh = live.intersection(members);
        // Discovery reads the configuration and the data at the old
        // members; the refresh writes the data at the new ones.
        let reads = self.table.rule(old).map(Thresholds::with_config_reads);
        let feasible = reads.is_some_and(|r| r.is_quorum(discovery, false))
            && self
                .table
                .rule(new)
                .is_some_and(|r| r.is_quorum(refresh, true));
        if !feasible {
            return infeasible;
        }
        let base = slot * self.n;
        let (dvn, dval) = self.stores.discover(base, discovery);
        let install = discovery.union(refresh);
        let tid = TraceTid {
            client: u32::MAX,
            op: tm_op,
            attempt: 1,
        };
        let block = TmBlock {
            kind: TmKind::Reconfig,
            read_cfg: true,
            reads: discovery,
            cfg_writes: Some((install, gen, members)),
            dm_writes: Some((refresh, dvn, dval)),
            commit: (gen, members.bits() as u64),
        };
        self.emit(item, tid, Body::Tm(block));
        for s in install {
            self.stores.set_cfg(base + s, gen, new);
        }
        for s in refresh {
            self.stores.set(base + s, dvn, dval);
        }
        let meta = &mut self.items[slot];
        meta.gen = gen;
        meta.cfg = new;
        meta.known_ok = false;
        meta.reconfigs_used += 1;
        meta.last_reconfig = self.now;
        Reconfigured::Installed { gen, members }
    }

    // ----- migration -----------------------------------------------------

    /// Append one fresh item slot (the DM arena grows when a block is
    /// imported into it).
    pub fn push_slot(&mut self) {
        self.items.push(ItemMeta::default());
    }

    /// Copy the item in `slot` out, its configurations decoded to member
    /// sets. The slot keeps its stale contents until
    /// [`import`](Self::import) overwrites them.
    pub fn export(&self, slot: usize) -> ItemExport {
        ItemExport {
            slots: self.stores.read_block(slot * self.n, &self.table),
            meta: self.items[slot].clone(),
            members: self.members(slot),
        }
    }

    /// An item as it starts a run: every store at `(vn 0, value 0)` under
    /// generation 0 of the full membership, and the initial record — what
    /// [`import`](Self::import) writes into a slot to give an item its
    /// first one mid-run.
    pub fn initial_export(&self) -> ItemExport {
        let full = ReplicaSet::full(self.n);
        ItemExport {
            slots: vec![(0, 0, 0, full); self.n],
            meta: ItemMeta::default(),
            members: full,
        }
    }

    /// Write an exported item into `slot`, interning its member sets into
    /// this cluster's table.
    pub fn import(&mut self, slot: usize, item: ItemExport) {
        self.stores
            .write_block(slot * self.n, &item.slots, &mut self.table);
        let cfg = self.table.intern(item.members);
        self.items[slot] = ItemMeta {
            cfg,
            known_ok: false,
            ..item.meta
        };
    }
}

/// How violation text names an item: the single-item driver's one item is
/// anonymous (`None`), the others name the global id.
struct ItemTag(Option<usize>);

impl fmt::Display for ItemTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(g) => write!(f, " item={g}"),
            None => Ok(()),
        }
    }
}

/// Who runs an operation, in the names observers see.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpId {
    /// The coordinator's global identity (drop coins, trace transaction
    /// names, causal ids, violation op-refs).
    pub coord: usize,
    /// The op's global item id; `None` in the single-item driver.
    pub item: Option<usize>,
}

impl OpId {
    /// The op's item, its slot named by its global id (0 when anonymous).
    fn item(self, op: &PendingOp) -> Item {
        Item {
            slot: op.item,
            name: self.item.unwrap_or(0),
        }
    }

    fn tid(self, op: &PendingOp) -> TraceTid {
        TraceTid {
            client: self.coord as u32,
            op: op.op_index,
            attempt: op.attempt,
        }
    }
}

/// What the driver schedules after an attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Then {
    /// The op is parked in the slab; run its next attempt after `delay`.
    Retry { delay: SimTime },
    /// The op is over — committed as `(vn, value)` when `commit` is set.
    /// Closed-loop pacing starts the coordinator's next op
    /// `max(after + think, floor)` from now; the floor keeps a zero-time
    /// failure with zero think time from spinning at one instant.
    Next {
        after: SimTime,
        floor: SimTime,
        commit: Option<(u64, u64)>,
    },
}

/// The drivers' ledger. Under all three it accounts, in [`Metrics`], for
/// planned faults, reconfigurations, lemma violations and the end-of-run
/// sweep, and tells the observer of each. Under the two flat drivers it
/// also runs their logical operations: one coordinator slot per client
/// (or per item slot under the routed workload).
pub(crate) struct Clients {
    pub metrics: Metrics,
    /// Per-coordinator in-flight operation, interned for the whole run.
    pub pending: OpSlab,
    /// The failure signal (timeouts + unavailable) at the last spy poll.
    last_failure_signal: u64,
}

impl Clients {
    pub fn new(coords: usize) -> Self {
        Clients {
            metrics: Metrics::default(),
            pending: OpSlab::new(coords),
            last_failure_signal: 0,
        }
    }

    fn stats(&mut self, read: bool) -> &mut OpStats {
        if read {
            &mut self.metrics.reads
        } else {
            &mut self.metrics.writes
        }
    }

    // ----- observation ---------------------------------------------------

    /// Tell the observer the clock is about to advance to `t`. Drivers call
    /// this before the event at `t` executes, so a snapshot reflects
    /// exactly its boundary instant.
    #[inline]
    pub fn clock<O: Observe>(&self, cluster: &mut Cluster<O>, t: SimTime) {
        cluster
            .obs
            .clock(t, &self.metrics, self.pending.in_flight());
    }

    /// Record a lemma violation in the metrics and tell the observer, with
    /// the offending op if the violation was detected at an op's commit.
    ///
    /// Takes pre-formatted arguments, not a `String`: the description is
    /// rendered only where it is actually retained (the capped metrics
    /// list, an observer's log), so no call path is forced to allocate.
    pub fn violation<O: Observe>(
        &mut self,
        cluster: &mut Cluster<O>,
        desc: fmt::Arguments<'_>,
        op: Option<OpRef>,
    ) {
        cluster.obs.mark(cluster.now, &Mark::Violation(desc, op));
        self.metrics.record_violation_args(desc);
    }

    // ----- faults, reconfiguration, the quiescent sweep ------------------

    /// A planned fault fires: count it, tell the observer, apply it. A
    /// scripted reconfiguration comes back for the driver to run, in the
    /// order observers see, over every item it owns.
    pub fn plan_fault<O: Observe>(
        &mut self,
        cluster: &mut Cluster<O>,
        idx: usize,
    ) -> Option<ReconfigTarget> {
        self.metrics.injected_faults += 1;
        let now = cluster.now;
        let (at, event) = cluster.cfg.plan.events()[idx];
        cluster.obs.mark(now, &Mark::Fault(at, event));
        match cluster.apply_fault(idx) {
            FaultEffect::None => {}
            FaultEffect::SiteDown => self.metrics.site_failures += 1,
            FaultEffect::Corrupted => {
                if let Err(v) = cluster.check_item(0) {
                    self.violation(
                        cluster,
                        format_args!("t={now} corrupt injection: {v}"),
                        None,
                    );
                }
            }
            FaultEffect::Reconfig(target) => return Some(target),
        }
        None
    }

    /// The reactive trigger's failure signal (see [`ReconfigPolicy`]):
    /// whether timeout + unavailable classifications rose since the last
    /// poll. The signal is per event loop; the membership comparison
    /// ([`Cluster::wants_reconfig`]), cooldown and budget are per item.
    pub fn failure_signal_rose(&mut self) -> bool {
        let signal = self.metrics.reads.timeouts
            + self.metrics.reads.unavailable
            + self.metrics.writes.timeouts
            + self.metrics.writes.unavailable;
        let rose = signal > self.last_failure_signal;
        self.last_failure_signal = signal;
        rose
    }

    /// Run [`Cluster::reconfigure`] and account for it; whether it
    /// installed. `global` names the item to observers and in violations.
    #[allow(clippy::too_many_arguments)]
    pub fn run_reconfigure<O: Observe>(
        &mut self,
        cluster: &mut Cluster<O>,
        slot: usize,
        global: Option<usize>,
        tm_op: u64,
        target: ReconfigTarget,
        scripted: bool,
        allow_same: bool,
    ) -> bool {
        let item = Item {
            slot,
            name: global.unwrap_or(0),
        };
        let (gen, members) = match cluster.reconfigure(item, tm_op, target, scripted, allow_same) {
            Reconfigured::Skipped => return false,
            Reconfigured::Failed => {
                self.metrics.reconfig_failures += 1;
                return false;
            }
            Reconfigured::Installed { gen, members } => (gen, members),
        };
        self.metrics.reconfigurations += 1;
        let now = cluster.now;
        cluster.obs.mark(now, &Mark::Reconfig(global, gen, members));
        if let Err(v) = cluster.check_item(slot) {
            let tag = ItemTag(global);
            self.violation(
                cluster,
                format_args!("t={now}{tag} reconfig gen {gen}: {v}"),
                None,
            );
        }
        true
    }

    /// The stores must satisfy the lemmas at quiescence too (this is what
    /// catches a Corrupt injection that no later read observed).
    pub fn final_check<O: Observe>(
        &mut self,
        cluster: &mut Cluster<O>,
        slot: usize,
        global: Option<usize>,
    ) {
        if let Err(v) = cluster.check_item(slot) {
            let tag = ItemTag(global);
            self.violation(cluster, format_args!("end-of-run{tag}: {v}"), None);
        }
    }

    // ----- one attempt of a logical operation ----------------------------

    /// Run one attempt step of coordinator `key`'s operation `op` (taken
    /// from the slab by the driver) and account for its verdict. `cache`
    /// is the coordinator's cached configuration of the op's item under
    /// dynamic quorums; a stale attempt adopts the newer one into it.
    pub fn run_attempt<O: Observe>(
        &mut self,
        cluster: &mut Cluster<O>,
        key: usize,
        id: OpId,
        mut op: PendingOp,
        cache: Option<&mut (u64, CfgId)>,
    ) -> Then {
        let write = (!op.read).then_some(op.value);
        let step = cluster.step(key, id.item(&op), id.tid(&op), write, cache);
        let elapsed = step.cost.elapsed;
        self.metrics.dropped_messages += step.cost.dropped;
        op.messages += step.cost.messages;
        // The op's time runs on to the retry, or ends with the attempt.
        let end = match step.verdict {
            Verdict::Retry { delay, .. } => delay,
            _ => elapsed,
        };
        cluster.obs.attempt(key, step.segs(end));
        match step.verdict {
            Verdict::Forced => {
                self.metrics.forced_aborts += 1;
                self.stats(op.read).record_abort();
                finish_op(cluster, key, id, &op, Err(AbortCause::Forced));
                Then::Next {
                    after: SimTime::ZERO,
                    floor: SimTime::ZERO,
                    commit: None,
                }
            }
            Verdict::Committed { vn, value, .. } => {
                self.commit(cluster, key, id, op, elapsed, (vn, value))
            }
            // Only terminal outcomes count attempts in the op's statistics;
            // a stale rejection leaves them alone.
            Verdict::Retry { delay, stale } => {
                if stale {
                    self.metrics.stale_rejections += 1;
                } else {
                    self.stats(op.read).record_retry();
                }
                // A fresh attempt number keeps trace transaction names unique.
                op.attempt += 1;
                self.pending.put(key, op);
                Then::Retry { delay }
            }
            Verdict::Failed { unavailable } => {
                let stats = self.stats(op.read);
                if unavailable {
                    stats.record_unavailable(op.messages);
                } else {
                    stats.record_failure(op.messages);
                }
                finish_op(cluster, key, id, &op, Err(AbortCause::QuorumUnavailable));
                Then::Next {
                    after: elapsed,
                    floor: SimTime(1),
                    commit: None,
                }
            }
        }
    }

    /// The operation committed: record its metrics, tell the observer,
    /// assert the lemmas.
    fn commit<O: Observe>(
        &mut self,
        cluster: &mut Cluster<O>,
        key: usize,
        id: OpId,
        op: PendingOp,
        elapsed: SimTime,
        (vn, value): (u64, u64),
    ) -> Then {
        let total = (cluster.now - op.started) + elapsed;
        self.stats(op.read).record_success(total, op.messages);
        finish_op(cluster, key, id, &op, Ok(total));
        let tid = id.tid(&op);
        self.check_commit(cluster, id, op.item, tid, op.read, (vn, value));
        Then::Next {
            after: elapsed,
            floor: SimTime::ZERO,
            commit: Some((vn, value)),
        }
    }

    /// Assert the lemmas over coordinator `id`'s attempt `tid`, which
    /// committed `(vn, value)` on the item in `slot`; a violation names
    /// the op.
    pub fn check_commit<O: Observe>(
        &mut self,
        cluster: &mut Cluster<O>,
        id: OpId,
        slot: usize,
        tid: TraceTid,
        read: bool,
        (vn, value): (u64, u64),
    ) {
        if let Err(v) = cluster.commit_check(slot, !read, vn, value) {
            let kind = if read { "read" } else { "write" };
            let (now, tag, client) = (cluster.now, ItemTag(id.item), id.coord);
            let op_ref = OpRef {
                client: client as u64,
                op: tid.op,
                attempt: tid.attempt,
                kind,
                vn,
                value,
            };
            self.violation(
                cluster,
                format_args!("t={now}{tag} client={client} {kind}: {v}"),
                Some(op_ref),
            );
        }
    }

    /// Abort coordinator `key`'s parked op, if it has one, at a migration
    /// barrier with a stale rejection: the generation bump just installed
    /// supersedes it. The abandoned op leaves no `OpStats` record (it
    /// neither committed nor exhausted its budget).
    pub fn fence_parked<O: Observe>(&mut self, cluster: &mut Cluster<O>, key: usize, id: OpId) {
        let Some(op) = self.pending.take(key) else {
            return;
        };
        self.metrics.stale_rejections += 1;
        cluster.emit_abort(id.item(&op), id.tid(&op), !op.read, AbortReason::Stale);
        finish_op(cluster, key, id, &op, Err(AbortCause::Fence));
    }
}

/// Tell the observer coordinator `key`'s op is over: committed with its
/// end-to-end latency, or terminally aborted.
fn finish_op<O: Observe>(
    cluster: &mut Cluster<O>,
    key: usize,
    id: OpId,
    op: &PendingOp,
    end: Result<SimTime, AbortCause>,
) {
    cluster.obs.op_done(&OpDone {
        now: cluster.now,
        key,
        coord: id.coord,
        item: id.item,
        op: op.op_index,
        started: op.started,
        read: op.read,
        end,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::Traces;
    use proptest::prelude::*;
    use qc_replication::ScheduleTrace;
    use quorum::{Majority, Rowa, Weighted};

    /// Every test cluster records its items' traces.
    type TestCluster = Cluster<Traces>;

    fn cluster(spec: ClusterSpec) -> TestCluster {
        let traces = Traces::new(&*spec.quorum, spec.seed, spec.slots);
        Cluster::new(spec, traces)
    }

    /// The trace of item 0 since the last take.
    fn take_trace(c: &mut TestCluster) -> ScheduleTrace {
        let fresh = c.obs.fork(0);
        std::mem::replace(&mut c.obs, fresh)
            .into_traces()
            .swap_remove(0)
    }

    /// Slot `slot`, named by its slot number.
    fn it(slot: usize) -> Item {
        Item { slot, name: slot }
    }

    const TID: TraceTid = TraceTid {
        client: 0,
        op: 0,
        attempt: 1,
    };
    const COIN: (usize, TraceTid) = (0, TID);

    fn spec(quorum: Arc<dyn QuorumSpec + Send + Sync>) -> ClusterSpec {
        ClusterSpec {
            quorum,
            latency: LatencyModel::lan(),
            contact: ContactPolicy::AllLive,
            timeout: SimTime::from_millis(50),
            seed: 9,
            rng_seed: 9,
            plan: FaultPlan::new(),
            reconfig: ReconfigPolicy::off(),
            retry: RetryPolicy::default(),
            monitor: true,
            slots: 1,
        }
    }

    #[test]
    fn all_live_skips_down_sites() {
        let mut c = cluster(spec(Arc::new(Majority::new(5))));
        c.up.remove(0);
        c.up.remove(3);
        let rule = c.table.rule(CfgId::FULL);
        let targets = c.targets(false, rule).unwrap();
        assert_eq!(targets.iter().collect::<Vec<_>>(), vec![1, 2, 4]);
        // 3 requests + 3 responses — no messages wasted on dead sites.
        let out = c.phase(targets, COIN, false, rule);
        assert!(out.ok);
        assert_eq!(out.messages, 6);
        assert_eq!(out.responders.len(), 3);
    }

    #[test]
    fn straddled_crash_loses_the_response() {
        // Site 2 crashes at t = 100 µs. A phase started just before, whose
        // responses land after the crash, must not count site 2.
        let mut c = cluster(ClusterSpec {
            latency: LatencyModel::Fixed(SimTime(300)),
            plan: FaultPlan::new().crash_at(SimTime(100), 2),
            ..spec(Arc::new(Majority::new(3)))
        });
        c.now = SimTime(50);
        let out = c.phase(ReplicaSet::full(3), COIN, false, c.table.rule(CfgId::FULL));
        // Sites 0 and 1 respond (quorum); site 2's response is lost.
        assert!(out.ok);
        assert!(!out.responders.contains(2));
        // 3 requests + 2 responses.
        assert_eq!(out.messages, 5);
    }

    /// A cluster over `Majority(3)` with site 2 down, after one committed
    /// and digested write of 7 — installed at the quorum {0, 1}.
    fn after_one_write(plan: FaultPlan) -> TestCluster {
        let mut c = cluster(ClusterSpec {
            plan,
            ..spec(Arc::new(Majority::new(3)))
        });
        c.check_item(0).unwrap();
        c.up.remove(2);
        let (write, _) = c.attempt(it(0), TID, 0, Some(7), None);
        let committed = Outcome::Committed {
            vn: 1,
            value: 7,
            prev: 0,
        };
        assert_eq!(write, committed);
        let stores: Vec<_> = (0..3).map(|s| c.stores.get(s)).collect();
        assert_eq!(stores, vec![(1, 7), (1, 7), (0, 0)]);
        c.commit_check(0, true, 1, 7).unwrap();
        c
    }

    /// The attempt step consumes a forced abort exactly once, applies the
    /// retry rule until the budget is spent, and classifies an attempt's
    /// time up to the instant the driver schedules.
    #[test]
    fn step_consumes_forced_aborts_and_classifies_time() {
        use EdgeKind::{ReadGather, RetryBackoff, WriteInstall};
        let mut c = cluster(ClusterSpec {
            latency: LatencyModel::Fixed(SimTime(50)),
            plan: FaultPlan::new().abort_at(SimTime::ZERO, 1),
            retry: RetryPolicy::retries(2, SimTime(1_000)),
            ..spec(Arc::new(Majority::new(3)))
        });
        assert_eq!(c.apply_fault(0), FaultEffect::None);
        let forced = c.step(1, it(0), TID, Some(7), None);
        assert_eq!(forced.verdict, Verdict::Forced);
        assert_eq!(forced.segs(SimTime::ZERO).map(|s| s.1), [0, 0, 0]);
        let write = c.step(1, it(0), TID, Some(7), None);
        assert_eq!(
            write.verdict,
            Verdict::Committed {
                vn: 1,
                value: 7,
                prev: 0
            }
        );
        // Two round trips per phase; a scheduling floor joins the install.
        let expect = [(ReadGather, 100), (WriteInstall, 100), (RetryBackoff, 0)];
        assert_eq!(write.segs(SimTime(200)), expect);
        assert_eq!(write.segs(SimTime(201))[1], (WriteInstall, 101));
        let read = c.step(0, it(0), TID, None, None);
        assert_eq!(read.segs(SimTime(101))[0], (ReadGather, 101));
        c.up.remove(0);
        c.up.remove(1);
        let retry = c.step(0, it(0), TID, None, None);
        let delay = SimTime(1_000);
        assert_eq!(
            retry.verdict,
            Verdict::Retry {
                delay,
                stale: false
            }
        );
        assert_eq!(
            retry.segs(delay),
            [(ReadGather, 0), (WriteInstall, 0), (RetryBackoff, 1_000)]
        );
        // An abandoned attempt ends where the driver says: no time at all.
        let last = TraceTid { attempt: 2, ..TID };
        let failed = c.step(0, it(0), last, None, None);
        assert_eq!(failed.verdict, Verdict::Failed { unavailable: true });
        assert_eq!(failed.segs(SimTime::ZERO).map(|s| s.1), [0, 0, 0]);
    }

    #[test]
    fn monitor_follows_a_faithful_run() {
        let mut c = after_one_write(FaultPlan::new());
        let (read, _) = c.attempt(it(0), TID, 0, None, None);
        let committed = Outcome::Committed {
            vn: 1,
            value: 7,
            prev: 7,
        };
        assert_eq!(read, committed);
        c.commit_check(0, false, 1, 7).unwrap();
        assert_eq!(c.current_vn(0), 1);
        assert_eq!(*c.items[0].checker.logical_state(), 7);
    }

    #[test]
    fn monitor_fires_on_corruption_and_wrong_reads() {
        let mut c = after_one_write(FaultPlan::new().corrupt_at(SimTime(7), 2, 99, 3));
        // Wrong read value.
        assert!(c.commit_check(0, false, 1, 9).is_err());
        // Corrupted store: version beyond current-vn.
        assert!(c.check_item(0).is_ok());
        assert_eq!(c.apply_fault(0), FaultEffect::Corrupted);
        assert!(c.check_item(0).is_err());
    }

    #[test]
    fn blocks_reach_the_observer() {
        let mut c = cluster(spec(Arc::new(Majority::new(3))));
        c.now = SimTime::from_millis(1);
        let (read, _) = c.attempt(it(0), TID, 0, None, None);
        assert!(matches!(read, Outcome::Committed { .. }));
        c.emit_abort(it(0), TID, true, AbortReason::Forced);
        let trace = take_trace(&mut c);
        assert_eq!((trace.seed, trace.sites), (9, 3));
        let create = TraceAction::Create { kind: TmKind::Read };
        let first = trace.events.get(0).unwrap();
        assert_eq!(
            (first.at_us, first.action, first.faulted),
            (1_000, create, false)
        );
        let last = trace.events.iter().next_back().unwrap();
        let abort = TraceAction::Abort {
            kind: TmKind::Write,
            reason: AbortReason::Forced,
        };
        assert_eq!(last.action, abort);
        assert!(last.faulted, "a forced abort is a fault by definition");
        assert!(take_trace(&mut c).events.is_empty());
    }

    /// The stores and configurations of item 0, site by site.
    fn snapshot(c: &TestCluster) -> Vec<((u64, u64), (u64, CfgId))> {
        (0..c.n)
            .map(|s| (c.stores.get(s), c.stores.cfg(s)))
            .collect()
    }

    /// The per-item layout before configurations were interned, kept as the
    /// reference: a member set per DM slot and per item, whose rule is
    /// resized by [`Thresholds::over`] whenever it is asked for.
    struct Reference {
        /// `(gen, members)` per DM slot, `item·n + site`.
        sites: Vec<(u64, ReplicaSet)>,
        /// The committed `(gen, members)` per item slot.
        committed: Vec<(u64, ReplicaSet)>,
    }

    impl Reference {
        fn new(slots: usize, n: usize) -> Self {
            let full = (0, ReplicaSet::full(n));
            Reference {
                sites: vec![full; slots * n],
                committed: vec![full; slots],
            }
        }

        /// The old discovery fold: the last maximum generation among
        /// `sites` of item `slot`.
        fn discover_cfg(
            &self,
            n: usize,
            slot: usize,
            sites: ReplicaSet,
        ) -> Option<(u64, ReplicaSet)> {
            let mut seen: Option<(u64, ReplicaSet)> = None;
            for s in sites {
                let cfg = self.sites[slot * n + s];
                if seen.is_none_or(|(gen, _)| cfg.0 >= gen) {
                    seen = Some(cfg);
                }
            }
            seen
        }

        /// What a scripted reconfigure of `slot` to `members` over the live
        /// sites `up` does, computed over the old columns.
        fn reconfigure(
            &mut self,
            (n, rule): (usize, Option<Thresholds>),
            (slot, up, members, allow_same): (usize, ReplicaSet, ReplicaSet, bool),
        ) -> Reconfigured {
            let (gen, old) = self.committed[slot];
            if members.is_empty() || (!allow_same && members == old) {
                return Reconfigured::Skipped;
            }
            let (discovery, refresh) = (up.intersection(old), up.intersection(members));
            let reads = rule
                .and_then(|r| r.over(old))
                .map(Thresholds::with_config_reads);
            let writes = rule.and_then(|r| r.over(members));
            if !(reads.is_some_and(|r| r.is_quorum(discovery, false))
                && writes.is_some_and(|r| r.is_quorum(refresh, true)))
            {
                return Reconfigured::Failed;
            }
            for s in discovery.union(refresh) {
                self.sites[slot * n + s] = (gen + 1, members);
            }
            self.committed[slot] = (gen + 1, members);
            Reconfigured::Installed {
                gen: gen + 1,
                members,
            }
        }

        /// Move item `from` of `self` and item `to` of `other` into each
        /// other's slots.
        fn swap(&mut self, n: usize, from: usize, other: &mut Reference, to: usize) {
            for s in 0..n {
                std::mem::swap(&mut self.sites[from * n + s], &mut other.sites[to * n + s]);
            }
            std::mem::swap(&mut self.committed[from], &mut other.committed[to]);
        }
    }

    /// Every slot of `c` against `r`: decoded configurations, the rule
    /// lookup, a table with no member set twice, the discovery fold over
    /// `probe`, and the known-Ok bit against an un-memoized check under the
    /// reference rule. Ends by running the monitor's check on every slot.
    fn agrees(c: &mut TestCluster, r: &Reference, probe: ReplicaSet) -> Result<(), TestCaseError> {
        let n = c.n;
        let decode = |c: &TestCluster, (gen, id): (u64, CfgId)| (gen, c.table.members(id));
        let sets = c.table.member_sets();
        for (i, set) in sets.iter().enumerate() {
            prop_assert!(!sets[..i].contains(set), "{} twice in the table", set);
        }
        let spec = Arc::clone(&c.cfg.quorum);
        for slot in 0..r.committed.len() {
            for s in 0..n {
                prop_assert_eq!(decode(c, c.stores.cfg(slot * n + s)), r.sites[slot * n + s]);
            }
            let (gen, members) = r.committed[slot];
            prop_assert_eq!((c.gen(slot), c.members(slot)), (gen, members));
            let rule = spec.thresholds().and_then(|t| t.over(members));
            prop_assert_eq!(c.table.rule(c.items[slot].cfg), rule);
            let seen = c
                .stores
                .discover_cfg(slot * n, probe)
                .map(|cfg| decode(c, cfg));
            prop_assert_eq!(seen, r.discover_cfg(n, slot, probe));
            let states = c.stores.states(slot * n..(slot + 1) * n);
            let fresh = c.items[slot]
                .checker
                .check_states(states, true, |h| quorum::is_quorum(&*spec, rule, h, true));
            prop_assert!(
                !c.items[slot].known_ok || fresh.is_ok(),
                "a stale known-Ok bit: {:?}",
                fresh
            );
            prop_assert_eq!(c.check_item(slot), fresh.clone());
            prop_assert_eq!(c.items[slot].known_ok, fresh.is_ok());
        }
        Ok(())
    }

    proptest! {
        /// The interned layout against the old one over random sequences of
        /// reconfigurations (scripted, to any member set, the same one
        /// included), site crashes and recoveries, writes, cached reads,
        /// migrations between two clusters whose tables intern in different
        /// orders, and corrupt injections and lost writes that make the
        /// monitor fail.
        #[test]
        fn interned_configurations_match_the_member_set_layout(
            n in 3usize..=5,
            rowa in 0u8..2,
            corrupts in prop::collection::vec((0usize..5, 0u64..4, 0u64..3), 1..4),
            ops in prop::collection::vec((0u8..7, 0usize..2, 0usize..3, 0u64..64), 1..40),
        ) {
            const SLOTS: usize = 3;
            let quorum: Arc<dyn QuorumSpec + Send + Sync> = if rowa == 1 {
                Arc::new(Rowa::new(n))
            } else {
                Arc::new(Majority::new(n))
            };
            let mut plan = FaultPlan::new();
            for (k, &(site, vn, value)) in corrupts.iter().enumerate() {
                plan = plan.corrupt_at(SimTime(k as u64 + 1), site % n, vn, value);
            }
            let build = |plan: FaultPlan| cluster(ClusterSpec {
                plan,
                reconfig: ReconfigPolicy::scripted_only(),
                slots: SLOTS,
                ..spec(Arc::clone(&quorum))
            });
            let mut cs = [build(plan), build(FaultPlan::new())];
            let mut refs = [Reference::new(SLOTS, n), Reference::new(SLOTS, n)];
            let mut caches = [[(0, CfgId::FULL); SLOTS]; 2];
            let (full, rule) = (ReplicaSet::full(n), quorum.thresholds());
            let set = |mask: u64| ReplicaSet::from_bits(u128::from(mask)).intersection(full);
            for (step, &(kind, x, slot, mask)) in ops.iter().enumerate() {
                let tid = TraceTid { op: step as u64, ..TID };
                let c = &mut cs[x];
                c.now = SimTime(1_000 * (step as u64 + 1));
                match kind {
                    0 => c.up = full.difference(set(mask >> 1)),
                    1 => {
                        let (members, allow_same) = (set(mask >> 1), mask & 1 == 1);
                        let target = ReconfigTarget::Members(members);
                        let expect = refs[x].reconfigure((n, rule), (slot, c.up, members, allow_same));
                        let got = c.reconfigure(it(slot), 0, target, true, allow_same);
                        prop_assert_eq!(got, expect);
                    }
                    2 => {
                        let (outcome, _) = c.attempt(it(slot), tid, 0, Some(mask + 1), None);
                        // Installed in the stores, not yet in the history.
                        agrees(c, &refs[x], set(mask))?;
                        if let Outcome::Committed { vn, value, .. } = outcome {
                            let _ = c.commit_check(slot, true, vn, value);
                        }
                    }
                    3 => {
                        let cache = &mut caches[x][slot];
                        let (outcome, _) = c.attempt(it(slot), tid, 0, None, Some(cache));
                        if outcome == Outcome::Stale {
                            // What a responder holds, decoded.
                            let adopted = (cache.0, c.table.members(cache.1));
                            let sites = &refs[x].sites[slot * n..(slot + 1) * n];
                            prop_assert!(sites.contains(&adopted));
                        }
                        if let Outcome::Committed { vn, value, .. } = outcome {
                            let _ = c.commit_check(slot, false, vn, value);
                        }
                    }
                    4 => {
                        // Item `slot` of cluster x trades places with item
                        // `mask % SLOTS` of the other cluster.
                        let (to, [a, b]) = (mask as usize % SLOTS, &mut cs);
                        let (from_c, to_c) = if x == 0 { (a, b) } else { (b, a) };
                        let (out, back) = (from_c.export(slot), to_c.export(to));
                        to_c.import(to, out);
                        from_c.import(slot, back);
                        let [ra, rb] = &mut refs;
                        let (from_r, to_r) = if x == 0 { (ra, rb) } else { (rb, ra) };
                        from_r.swap(n, slot, to_r, to);
                        caches[x][slot] = (0, CfgId::FULL);
                        caches[1 - x][to] = (0, CfgId::FULL);
                    }
                    5 => {
                        let idx = mask as usize % corrupts.len();
                        prop_assert_eq!(cs[0].apply_fault(idx), FaultEffect::Corrupted);
                    }
                    _ => {
                        // A committed write no store saw.
                        let _ = c.commit_check(slot, true, c.current_vn(slot) + 1, mask);
                    }
                }
                for (c, r) in cs.iter_mut().zip(&refs) {
                    agrees(c, r, set(mask))?;
                }
            }
        }

        /// A slot pushed onto a cluster built without it and filled by
        /// `import(initial_export())` — how a shard gives an item nothing
        /// had reached its first slot — behaves like a slot the cluster was
        /// built with: over the same drawn site changes, writes, committed
        /// and cached reads, scripted and reactive reconfigurations,
        /// corrupt injections and committed writes no store saw, the two
        /// give equal verdicts and exports after every step, and equal
        /// traces.
        #[test]
        fn a_slot_from_initial_export_behaves_like_a_constructed_one(
            n in 3usize..=5,
            rowa in 0u8..2,
            corrupts in prop::collection::vec((0usize..5, 0u64..4, 0u64..3), 1..4),
            ops in prop::collection::vec((0u8..7, 0u64..64), 1..40),
        ) {
            let quorum: Arc<dyn QuorumSpec + Send + Sync> = if rowa == 1 {
                Arc::new(Rowa::new(n))
            } else {
                Arc::new(Majority::new(n))
            };
            let mut plan = FaultPlan::new();
            for (k, &(site, vn, value)) in corrupts.iter().enumerate() {
                plan = plan.corrupt_at(SimTime(k as u64 + 1), site % n, vn, value);
            }
            // A short cooldown and budget, so reactive reconfigurations
            // are both taken and refused.
            let reconfig = ReconfigPolicy {
                cooldown: SimTime(2_500),
                max_reconfigs: 3,
                ..ReconfigPolicy::scripted_only()
            };
            // Both observers keep one item's trace.
            let build = |slots| {
                let traces = Traces::new(&*quorum, 9, 1);
                let spec = ClusterSpec {
                    plan: plan.clone(),
                    reconfig,
                    slots,
                    ..spec(Arc::clone(&quorum))
                };
                Cluster::new(spec, traces)
            };
            let mut built = build(1);
            let mut pushed = build(0);
            pushed.push_slot();
            let initial = pushed.initial_export();
            pushed.import(0, initial);
            prop_assert_eq!(pushed.export(0), built.export(0));
            let full = ReplicaSet::full(n);
            let set = |mask: u64| ReplicaSet::from_bits(u128::from(mask)).intersection(full);
            let mut caches = [(0, CfgId::FULL); 2];
            for (step, &(kind, mask)) in ops.iter().enumerate() {
                let tid = TraceTid { op: step as u64, ..TID };
                let mut seen = Vec::new();
                for (c, cache) in [&mut built, &mut pushed].into_iter().zip(&mut caches) {
                    c.now = SimTime(1_000 * (step as u64 + 1));
                    let verdict = match kind {
                        0 => {
                            c.up = full.difference(set(mask >> 1));
                            String::new()
                        }
                        1 => {
                            let target = ReconfigTarget::Members(set(mask >> 1));
                            format!("{:?}", c.reconfigure(it(0), 0, target, true, mask & 1 == 1))
                        }
                        2 => {
                            let wants = c.wants_reconfig(0, mask & 1 == 1);
                            let got = c.reconfigure(it(0), 0, ReconfigTarget::Live, false, false);
                            format!("{wants} {got:?}")
                        }
                        3 | 4 => {
                            let (write, cache) = if kind == 3 {
                                (Some(mask + 1), None)
                            } else {
                                (None, Some(&mut *cache))
                            };
                            let (outcome, cost) = c.attempt(it(0), tid, 0, write, cache);
                            let check = match outcome {
                                Outcome::Committed { vn, value, .. } => {
                                    Some(c.commit_check(0, write.is_some(), vn, value))
                                }
                                _ => None,
                            };
                            format!("{outcome:?} {cost:?} {check:?}")
                        }
                        5 => {
                            let effect = c.apply_fault(mask as usize % corrupts.len());
                            format!("{effect:?} {:?}", c.check_item(0))
                        }
                        _ => {
                            let vn = c.current_vn(0) + 1;
                            format!("{:?}", c.commit_check(0, true, vn, mask))
                        }
                    };
                    seen.push((verdict, *cache, c.export(0)));
                }
                prop_assert_eq!(&seen[0], &seen[1], "step {}", step);
            }
            prop_assert_eq!(take_trace(&mut built), take_trace(&mut pushed));
        }

        /// One phase and one attempt from an arbitrary site state: live
        /// set, drop and delay windows, planned crashes (some straddling
        /// the round trip), contact policy, and the static system or a
        /// membership rule — cached (possibly stale) or committed.
        #[test]
        fn a_phase_and_an_attempt_obey_their_laws(
            n in 3usize..=6,
            masks in (0u64..64, 0u64..64, 0u64..64, 1u64..64),
            weather in (0u32..=600, 0u64..300, 0u64..64, 900u64..2_600),
            latency in 0u64..450,
            mode in (0u8..5, 0u8..2, 0u8..2, 0u8..2),
            calm in (0u8..2, 0u8..2),
        ) {
            // Two masks and-ed: a quarter of the sites down or crashing.
            let (down, sparse, target_mask, member_mask) = masks;
            let (permille, delay, crash_mask, crash_at) = weather;
            let (permille, delay) = (permille * u32::from(calm.0), delay * u64::from(calm.1));
            let (system, minimal, write, reconfigured) = mode;
            let full = ReplicaSet::full(n);
            let set = |mask: u64| ReplicaSet::from_bits(u128::from(mask)).intersection(full);
            let quorum: Arc<dyn QuorumSpec + Send + Sync> = match system {
                0 => Arc::new(Rowa::new(n)),
                // One heavy site: n + 1 votes (a majority of them to write,
                // the rest plus one to read), no threshold form.
                1 => {
                    let mut votes = vec![1; n];
                    votes[0] = 2;
                    let total = n as u32 + 1;
                    let write = total / 2 + 1;
                    Arc::new(Weighted::new(votes, total + 1 - write, write))
                }
                _ => Arc::new(Majority::new(n)),
            };
            // Systems 3 and 4 run majority under a membership rule.
            let dynamic = system >= 3;
            let (window, long) = (SimTime(500), SimTime::from_secs(10));
            let mut plan = FaultPlan::new();
            if permille > 0 {
                plan = plan.drop_window(window, long, permille);
            }
            if delay > 0 {
                plan = plan.delay_window(window, long, SimTime(delay));
            }
            let crashing = set(crash_mask & sparse);
            for s in crashing {
                plan = plan.crash_at(SimTime(crash_at), s);
            }
            let timeout = SimTime(1_000);
            let mut c = cluster(ClusterSpec {
                latency: LatencyModel::Fixed(SimTime(latency)),
                contact: [ContactPolicy::AllLive, ContactPolicy::MinimalQuorum][minimal as usize],
                timeout,
                plan: plan.clone(),
                reconfig: ReconfigPolicy { enabled: dynamic, ..ReconfigPolicy::off() },
                ..spec(quorum)
            });
            // A healthy history first (t = 0, before any weather), so the
            // attempt below has a version to discover and a value to keep.
            let (first, _) = c.attempt(it(0), TID, 0, Some(7), None);
            prop_assert_eq!(first, Outcome::Committed { vn: 1, value: 7, prev: 0 });
            prop_assert!(c.commit_check(0, true, 1, 7).is_ok());
            if dynamic && reconfigured == 1 {
                let target = ReconfigTarget::Members(set(member_mask).union(set(1)));
                c.reconfigure(it(0), 0, target, true, true);
                prop_assert_eq!(c.gen(0), 1);
            }
            let (now, up) = (SimTime(1_000), full.difference(set(down & sparse)));
            (c.now, c.up) = (now, up);

            // ----- the phase -----
            // System 3's phase gathers under a cached ROWA rule.
            let rule = match system {
                3 => Rowa::new(n)
                    .thresholds()
                    .and_then(|r| r.over(set(member_mask)))
                    .map(Thresholds::with_config_reads),
                _ => c.table.rule(CfgId::FULL),
            };
            let targets = set(target_mask);
            let rtt = SimTime(2 * latency + 2 * delay);
            let straddles = now < SimTime(crash_at) && SimTime(crash_at) <= now + rtt;
            let (mut sent, mut dropped, mut arrive) = (0, 0, ReplicaSet::new());
            for s in targets.intersection(up) {
                if message_dropped(9, 0, 0, 1, 1, s, false, permille) {
                    dropped += 1;
                } else if !(straddles && crashing.contains(s)) {
                    sent += 1;
                    if message_dropped(9, 0, 0, 1, 1, s, true, permille) {
                        dropped += 1;
                    } else {
                        arrive.insert(s);
                    }
                }
            }
            let out = c.phase(targets, COIN, false, rule);
            // Requests, plus a response from every site the request reached
            // that outlives the round trip.
            prop_assert_eq!((out.messages, out.dropped), (targets.len() as u64 + sent, dropped));
            prop_assert_eq!(out.ok, rtt <= timeout && c.is_quorum(arrive, false, rule));
            prop_assert!(out.responders.is_subset(arrive));
            if out.ok {
                prop_assert!(c.is_quorum(out.responders, false, rule));
                prop_assert_eq!(out.elapsed, rtt);
            } else {
                prop_assert_eq!(out.elapsed, timeout);
                let in_time = if rtt <= timeout { arrive } else { ReplicaSet::new() };
                prop_assert_eq!(out.responders, in_time);
            }

            // ----- the attempt -----
            let before = snapshot(&c);
            // System 3 acts on a cache that a reconfiguration made stale.
            let mut cache = (system == 3).then_some((0, CfgId::FULL));
            take_trace(&mut c);
            let value = (write == 1).then_some(42);
            let (outcome, cost) = c.attempt(it(0), TID, 0, value, cache.as_mut());
            prop_assert!(cost.gather <= cost.elapsed && cost.dropped <= cost.messages);
            // The attempt's last word in the trace: COMMIT, or its own ABORT.
            let trace = take_trace(&mut c);
            let reason = match outcome {
                Outcome::Committed { .. } => None,
                Outcome::Unavailable => Some(AbortReason::Unavailable),
                Outcome::Timeout => Some(AbortReason::Timeout),
                Outcome::Stale => Some(AbortReason::Stale),
            };
            let kind = if write == 1 { TmKind::Write } else { TmKind::Read };
            let last = reason.map_or(TraceAction::Commit, |reason| TraceAction::Abort { kind, reason });
            prop_assert_eq!(trace.events.iter().next_back().map(|e| e.action), Some(last));
            prop_assert!(reason.is_none() || trace.events.len() == 1);
            match outcome {
                Outcome::Committed { vn, value, prev } if write == 1 => {
                    prop_assert_eq!((vn, value, prev), (2, 42, 7));
                    // Exactly the installs changed, and they leave the
                    // lemmas intact (8(1a): at a write quorum).
                    for (s, old) in before.iter().enumerate() {
                        prop_assert_eq!(c.stores.cfg(s), old.1);
                        prop_assert!(c.stores.get(s) == old.0 || c.stores.get(s) == (2, 42));
                    }
                    prop_assert!(c.commit_check(0, true, vn, value).is_ok());
                }
                Outcome::Committed { vn, value, .. } => {
                    prop_assert_eq!((vn, value), (1, 7));
                    prop_assert_eq!(snapshot(&c), before.clone());
                    prop_assert!(c.commit_check(0, false, vn, value).is_ok());
                }
                Outcome::Stale => {
                    // Only a cache behind a reconfiguration, which it adopts.
                    prop_assert!(reconfigured == 1);
                    let adopted = cache.map(|(gen, id)| (gen, c.table.members(id)));
                    prop_assert_eq!(adopted, Some((c.gen(0), c.members(0))));
                    prop_assert_eq!(snapshot(&c), before.clone());
                }
                Outcome::Unavailable | Outcome::Timeout => {
                    prop_assert!(outcome == Outcome::Unavailable || cost.elapsed >= timeout);
                    prop_assert_eq!(snapshot(&c), before.clone());
                }
            }
            if let (Outcome::Committed { .. }, Some((gen, _))) = (outcome, cache) {
                // Committing under a cache proves the cache current.
                prop_assert_eq!(gen, c.gen(0));
            }
            prop_assert!(c.check_item(0).is_ok());
        }
    }
}
