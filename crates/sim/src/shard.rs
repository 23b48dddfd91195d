//! Sharded multi-item simulation: deterministic parallel event loops over
//! a keyspace of independently replicated items.
//!
//! The single-item simulator (`sim.rs`) models one replicated object. Real
//! deployments replicate many objects over the same sites, and the paper's
//! per-object correctness argument (Lemmas 7/8 hold for each object's
//! access sequence independently) is exactly what makes the workload
//! *shardable*: items never interact, so the keyspace can be partitioned
//! into shards, each shard driven by its own event loop, and the shards
//! executed on however many OS threads are available.
//!
//! # Determinism contract
//!
//! The metrics digest of a sharded run is **bit-identical for any thread
//! count**. Three design rules make that hold:
//!
//! 1. **The shard list is a function of the configuration, never of the
//!    thread count.** [`MultiConfig::shards`] fixes the partition; threads
//!    only decide which OS thread executes which shard.
//! 2. **Each shard owns a private RNG stream** derived from
//!    `(seed, shard)` by a SplitMix64 finalizer, so no shard ever observes
//!    another shard's draws.
//! 3. **Per-shard results are reduced in shard-index order** (via
//!    [`par_map`]'s input-order results) with the commutative,
//!    order-insensitive [`Metrics::merge`].
//!
//! # Partition
//!
//! Item ownership is a [`PlacementDirectory`]: under the default
//! [`PlacementPolicy::Static`] it is the round-robin layout (`shard s owns
//! {g : g % shards == s}`) fixed for the whole run — byte-identical to the
//! hardwired assignment it replaced, which is what keeps every pinned
//! digest valid. [`PlacementPolicy::Seeded`] starts from another layout
//! (e.g. contiguous ranges), and [`PlacementPolicy::Elastic`] additionally
//! migrates hot items between shards at simulated-time epoch barriers via
//! the paper's §4 reconfiguration path (see `placement.rs`). Clients come
//! in contiguous blocks: shard `s` drives global clients
//! `[s·cps, (s+1)·cps)`. Each shard's clients draw items from the shard's
//! own slice of the keyspace, weighted by the global [`ItemDist`]
//! restricted to that slice — under [`ItemDist::Zipfian`] the round-robin
//! assignment spreads the hot head of the distribution evenly across
//! shards. The [`Workload::Routed`] mode instead gives every *item* its
//! own deterministic arrival stream (rate proportional to its weight),
//! which routes with the item when it migrates.
//!
//! # Faults
//!
//! A single global [`FaultPlan`] describes the run; each shard applies its
//! [`FaultPlan::shard_view`]: site crashes/recoveries and drop/delay
//! windows replay in *every* shard (shared cluster weather), client aborts
//! go to the owning shard only, and the `Corrupt` negative control is
//! applied by the shard owning item 0 (to item 0).
//!
//! # Hot path
//!
//! Each shard's event loop runs on the same machinery as the single-item
//! simulator: the calendar [`EventQueue`] (heap oracle under
//! `queue = QueueKind::Heap`) with batched same-instant delivery, the SoA
//! [`DmArena`] (`item slot·n + site`), the interned [`OpSlab`], the
//! `u128` live-site bitset, and the reused phase response buffer — no
//! hashing, no per-operation allocation, no `Arc` traffic per operation.

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
use qc_replication::{
    AbortReason, LemmaChecker, LemmaViolation, ScheduleTrace, TmKind, TraceAction, TraceTid,
};

use crate::arena::{DmArena, SlotState};
use crate::faults::{message_dropped, FaultEvent, FaultPlan, ReconfigTarget, RetryPolicy};
use crate::latency::LatencyModel;
use crate::metrics::Metrics;
use crate::par::par_map;
use crate::placement::{
    plan_moves, ElasticPolicy, EpochSample, Migration, PlacementDirectory, PlacementPolicy,
    PlacementReport,
};
use crate::queue::{EventQueue, QueueImpl, QueueKind};
use crate::sim::{ContactPolicy, ReconfigPolicy};
use crate::slab::{OpSlab, PendingOp};
use crate::time::SimTime;
use crate::trace::TraceRecorder;

/// How clients pick the item of each operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ItemDist {
    /// Every item equally likely.
    Uniform,
    /// Item `g` drawn with weight `1 / (g+1)^theta` — the standard
    /// skewed-popularity model (`theta ≈ 0.99` is the YCSB default).
    Zipfian {
        /// Skew exponent (0 degenerates to uniform).
        theta: f64,
    },
}

/// How clients pace their operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: the next operation starts `think` after the previous
    /// one completes.
    Closed {
        /// Think time between operations.
        think: SimTime,
    },
    /// Open loop: operations arrive every `interarrival`, independent of
    /// completion. An arrival that finds the client still retrying a
    /// previous operation is absorbed by it (the client is saturated).
    Open {
        /// Time between successive arrivals.
        interarrival: SimTime,
    },
    /// Open-loop arrivals routed *per item*: item `g` receives its own
    /// deterministic arrival stream at rate `w_g / (W · interarrival)`
    /// (`w_g` its [`ItemDist`] weight, `W` the keyspace total), so the
    /// aggregate arrival rate is `1 / interarrival` and the per-item split
    /// follows the distribution exactly. Each stream is a phased
    /// arithmetic sequence computable in O(1) from `(seed, item, t)` — no
    /// RNG state — so a migrated item's stream continues bit-identically
    /// on its new shard. An arrival that finds the item's previous
    /// operation still retrying is absorbed (the item is saturated).
    /// `clients_per_shard` is ignored (operations are keyed by item).
    Routed {
        /// Mean time between successive arrivals, aggregated over the
        /// whole keyspace.
        interarrival: SimTime,
    },
}

/// Configuration of one sharded multi-item run.
#[derive(Clone)]
pub struct MultiConfig {
    /// The quorum system, shared by every item (over sites `0..n`).
    pub quorum: Arc<dyn QuorumSpec + Send + Sync>,
    /// One-way message latency model.
    pub latency: LatencyModel,
    /// Coordinator contact policy.
    pub contact: ContactPolicy,
    /// Number of logical items in the keyspace.
    pub items: usize,
    /// Number of shards the keyspace is partitioned into. Fixed by the
    /// configuration — **never derived from the thread count** — so the
    /// result is thread-count independent.
    pub shards: usize,
    /// Closed- or open-loop clients per shard.
    pub clients_per_shard: usize,
    /// Fraction of operations that are logical reads.
    pub read_fraction: f64,
    /// Item-popularity distribution.
    pub dist: ItemDist,
    /// Client pacing.
    pub workload: Workload,
    /// Per-phase quorum-assembly timeout.
    pub timeout: SimTime,
    /// Simulated duration.
    pub duration: SimTime,
    /// RNG seed (each shard derives its own stream from this).
    pub seed: u64,
    /// Global fault plan; shards apply their [`FaultPlan::shard_view`].
    /// Client indices are *global* (`0..shards·clients_per_shard`).
    pub faults: FaultPlan,
    /// Coordinator retry/backoff policy.
    pub retry: RetryPolicy,
    /// Assert Lemmas 7/8 per item after every committed operation.
    pub monitor: bool,
    /// Observability options. Each shard records privately (events and
    /// snapshots tagged with the shard index) and the per-shard reports
    /// are merged in shard-index order, so the aggregate
    /// [`ShardReport::obs`] is bit-identical for any thread count.
    pub obs: ObsOptions,
    /// Event-queue implementation per shard (the calendar queue by
    /// default; both pop in identical order, so this never changes
    /// results — only wall-clock speed).
    pub queue: QueueKind,
    /// Dynamic-quorum reconfiguration policy, applied *per item*: each
    /// item carries its own `(configuration, generation)` state, scripted
    /// `reconfig@t` events reconfigure every item a shard owns, and the
    /// reactive trigger's cooldown/budget are tracked item by item. Off by
    /// default; requires a ROWA or majority quorum system when enabled.
    pub reconfig: ReconfigPolicy,
    /// Item→shard placement policy. The default ([`PlacementPolicy::Static`])
    /// is the fixed round-robin layout of PR 4; elastic policies migrate
    /// hot items between shards at simulated-time epochs (requires
    /// [`MultiConfig::reconfig`] enabled — a migration *is* a
    /// reconfiguration).
    pub placement: PlacementPolicy,
}

impl std::fmt::Debug for MultiConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiConfig")
            .field("quorum", &self.quorum.label())
            .field("items", &self.items)
            .field("shards", &self.shards)
            .field("clients_per_shard", &self.clients_per_shard)
            .finish_non_exhaustive()
    }
}

impl MultiConfig {
    /// A reasonable default: 8 items over 4 shards, 2 clients per shard,
    /// 90% reads, uniform items, closed loop with 1 ms think time, LAN
    /// latencies, no faults, no retries, monitoring on, 10 simulated
    /// seconds.
    pub fn new(quorum: Arc<dyn QuorumSpec + Send + Sync>) -> Self {
        MultiConfig {
            quorum,
            latency: LatencyModel::lan(),
            contact: ContactPolicy::AllLive,
            items: 8,
            shards: 4,
            clients_per_shard: 2,
            read_fraction: 0.9,
            dist: ItemDist::Uniform,
            workload: Workload::Closed {
                think: SimTime::from_millis(1),
            },
            timeout: SimTime::from_millis(50),
            duration: SimTime::from_secs(10),
            seed: 0,
            faults: FaultPlan::new(),
            retry: RetryPolicy::default(),
            monitor: true,
            obs: ObsOptions::disabled(),
            queue: QueueKind::default(),
            reconfig: ReconfigPolicy::off(),
            placement: PlacementPolicy::Static,
        }
    }

    /// Total client count across all shards.
    #[must_use]
    pub fn clients(&self) -> usize {
        self.shards * self.clients_per_shard
    }

    /// Check the configuration is runnable.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistency (empty keyspace, more
    /// shards than items, no clients, or an out-of-range fault plan).
    pub fn validate(&self) -> Result<(), String> {
        if self.items == 0 {
            return Err("a sharded run needs at least one item".into());
        }
        if self.shards == 0 || self.shards > self.items {
            return Err(format!(
                "shard count must be in 1..={} (one per item), got {}",
                self.items, self.shards
            ));
        }
        if self.clients_per_shard == 0 {
            return Err("each shard needs at least one client".into());
        }
        if self.reconfig.enabled {
            if QuorumFamily::of(&*self.quorum).is_none() {
                return Err(format!(
                    "dynamic quorums require a ROWA or majority quorum system, got {}",
                    self.quorum.label()
                ));
            }
        } else if self
            .faults
            .events()
            .iter()
            .any(|(_, e)| matches!(e, FaultEvent::Reconfig { .. }))
        {
            return Err(
                "fault plan contains reconfig events but MultiConfig::reconfig is disabled".into(),
            );
        }
        let migrates: Vec<(usize, usize)> = self
            .faults
            .events()
            .iter()
            .filter_map(|&(_, e)| match e {
                FaultEvent::Migrate { item, to } => Some((item, to)),
                _ => None,
            })
            .collect();
        if !self.placement.is_elastic() {
            if !migrates.is_empty() {
                return Err(
                    "fault plan contains migrate events but MultiConfig::placement is not \
                     elastic"
                        .into(),
                );
            }
        } else {
            if !self.reconfig.enabled {
                return Err(
                    "elastic placement installs migrations as reconfigurations; enable \
                     MultiConfig::reconfig"
                        .into(),
                );
            }
            if self
                .faults
                .events()
                .iter()
                .any(|(_, e)| matches!(e, FaultEvent::Corrupt { .. }))
            {
                return Err(
                    "corrupt injection targets item 0's owner at startup, which elastic \
                     placement may move mid-run"
                        .into(),
                );
            }
            for (item, to) in migrates {
                if item >= self.items {
                    return Err(format!(
                        "migrate references item {item}, but there are {} items",
                        self.items
                    ));
                }
                if to >= self.shards {
                    return Err(format!(
                        "migrate references shard {to}, but there are {} shards",
                        self.shards
                    ));
                }
            }
            if let PlacementPolicy::Elastic(pol) = &self.placement {
                if pol.epoch == SimTime::ZERO {
                    return Err("the rebalancing epoch must be positive".into());
                }
            }
        }
        if matches!(self.workload, Workload::Routed { .. })
            && self
                .faults
                .events()
                .iter()
                .any(|(_, e)| matches!(e, FaultEvent::AbortClient { .. }))
        {
            return Err(
                "abort@ events reference clients, but the routed workload has none".into(),
            );
        }
        self.faults.validate(self.quorum.n(), self.clients())
    }
}

/// Aggregate result of a sharded run: merged metrics plus per-item tallies
/// (kept *outside* [`Metrics`] so the single-item simulator's pinned
/// metric digests are untouched).
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Metrics merged over all shards in shard-index order.
    pub metrics: Metrics,
    /// Committed operations per global item.
    pub item_commits: Vec<u64>,
    /// Final committed version number per global item.
    pub item_vns: Vec<u64>,
    /// Observability recordings merged in shard-index order (empty unless
    /// [`MultiConfig::obs`] enables something). Not part of
    /// [`ShardReport::digest`], which hashes committed behaviour only;
    /// [`ObsReport::digest`] covers the recordings themselves.
    pub obs: ObsReport,
}

impl ShardReport {
    /// FNV-1a digest over the merged metrics *and* the per-item tallies —
    /// the value the cross-thread-count determinism suite pins. Equal
    /// digests mean the sharded run committed exactly the same operations
    /// with the same latencies on the same items.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let s = format!(
            "{:?}|{:?}|{:?}",
            self.metrics, self.item_commits, self.item_vns
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// SplitMix64 finalizer used to derive independent per-shard seeds.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of shard `s`'s private RNG stream.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    splitmix(seed ^ splitmix(0x5A4D_0000 ^ shard as u64))
}

/// The arrival-stream phase of global item `g` in `[0, 1)` — a pure
/// function of `(seed, g)`, so whichever shard owns the item re-derives
/// the identical stream (53 uniform bits, the full `f64` mantissa).
fn arrival_phase(seed: u64, g: usize) -> f64 {
    (splitmix(seed ^ splitmix(0x0A22_17A1 ^ g as u64)) >> 11) as f64 / (1u64 << 53) as f64
}

/// `interarrival · W` for a [`Workload::Routed`] run — the numerator of
/// every item's arrival period, with `W` the [`ItemDist`] weight of the
/// whole keyspace (a `powf` per item, so summed once per run, not once per
/// shard); `0` for client-paced workloads, which have no arrival streams.
fn routed_step_scale(config: &MultiConfig) -> f64 {
    let Workload::Routed { interarrival } = config.workload else {
        return 0.0;
    };
    let keyspace_weight: f64 = (0..config.items).map(|g| item_weight(g, config.dist)).sum();
    interarrival.as_micros() as f64 * keyspace_weight
}

/// The routed arrival period of global item `g` in µs:
/// `interarrival · W / w_g`, at least one tick.
fn arrival_step(step_scale: f64, g: usize, dist: ItemDist) -> f64 {
    (step_scale / item_weight(g, dist)).max(1.0)
}

/// The [`ItemDist`] weight of global item `g` (`1` uniform,
/// `1/(g+1)^theta` zipfian).
#[inline]
#[must_use]
pub fn item_weight(g: usize, dist: ItemDist) -> f64 {
    match dist {
        ItemDist::Uniform => 1.0,
        ItemDist::Zipfian { theta } => (g as f64 + 1.0).powf(-theta),
    }
}

/// The cumulative weight table of `global_items` under `dist`:
/// `table[i]` is the total weight of items `0..=i`, and the second value
/// is the grand total — the one-draw item-selection structure each shard
/// builds over its slice of the keyspace (`θ = 0` degenerates to uniform;
/// large `θ` concentrates almost all weight on the first item).
#[must_use]
pub fn cum_weight_table(global_items: &[usize], dist: ItemDist) -> (Vec<f64>, f64) {
    let mut cum_weights = Vec::with_capacity(global_items.len());
    let mut total = 0.0f64;
    for &g in global_items {
        total += item_weight(g, dist);
        cum_weights.push(total);
    }
    (cum_weights, total)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    OpStart { client: usize },
    PlanFault { idx: usize },
    /// Retry of a parked operation. The low 32 bits of `key` are the
    /// shard-local client index in client-paced modes and the **global**
    /// item id under [`Workload::Routed`]; the high 32 bits carry the
    /// coordinator's retry epoch at scheduling time. A migration aborts
    /// the in-flight op and bumps the epoch, so a retry queued before the
    /// barrier tombstones instead of prodding whatever op parks there
    /// next.
    Retry { key: usize },
    SpyCheck,
    /// A routed arrival for global item `item`. Arrivals for items this
    /// shard no longer owns are tombstones (the new owner re-derives the
    /// same stream from `(seed, item, t)`).
    Arrival { item: usize },
}

// `(time, seq)` alone orders queue entries, so the payload needs no `Ord`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EventBox(u8, usize);

impl EventBox {
    fn pack(e: Event) -> Self {
        match e {
            Event::OpStart { client } => EventBox(0, client),
            Event::PlanFault { idx } => EventBox(1, idx),
            Event::Retry { key } => EventBox(2, key),
            Event::SpyCheck => EventBox(3, 0),
            Event::Arrival { item } => EventBox(4, item),
        }
    }

    fn unpack(self) -> Event {
        match self.0 {
            0 => Event::OpStart { client: self.1 },
            1 => Event::PlanFault { idx: self.1 },
            2 => Event::Retry { key: self.1 },
            3 => Event::SpyCheck,
            _ => Event::Arrival { item: self.1 },
        }
    }
}

struct PhaseOutcome {
    elapsed: SimTime,
    messages: u64,
    responders: ReplicaSet,
    ok: bool,
}

/// What one shard hands back to the merge step.
struct ShardOutcome {
    metrics: Metrics,
    /// `(global item id, commits, final vn)` per owned item.
    items: Vec<(usize, u64, u64)>,
    /// Per-owned-item schedule traces (same order as `items`), when traced.
    traces: Option<Vec<(usize, ScheduleTrace)>>,
    /// This shard's observability recordings.
    obs: ObsReport,
}

/// `slot_global` marker of a vacant item slot.
const FREE: usize = usize::MAX;
/// `slot_of` marker of an item this shard does not own.
const NO_SLOT: u32 = u32::MAX;
/// `arrived_at` marker of a slot that has processed no arrival yet.
const NEVER: SimTime = SimTime(u64::MAX);

/// One shard's event loop over its slice of the keyspace.
///
/// # Item slots
///
/// Every owned item lives in a **stable slot**: all per-item columns
/// below are indexed by a slot number that never shifts for as long as
/// the item stays on this shard. Exporting an item copies its state out
/// and pushes the slot on `free`; importing pops a free slot (or appends
/// one) and writes the state in — nothing else on the shard moves, so a
/// migration barrier costs O(moves). Without migrations slot order equals
/// ascending global id; after one it does not, so every walk whose order
/// is observable goes through `walk` (ascending global id) instead.
struct ShardSim<'a> {
    config: &'a MultiConfig,
    /// Sites per item (`quorum.n()`).
    n: usize,
    /// Global client id of this shard's first client.
    client_base: usize,
    /// This shard's private Arc handle (cloned once, at construction).
    quorum: Arc<dyn QuorumSpec + Send + Sync>,
    rng: ChaCha8Rng,
    now: SimTime,
    queue: QueueImpl<EventBox>,
    seq: u64,
    /// Live sites, as a bitset (`full(n)` when healthy).
    up: ReplicaSet,
    /// Flat per-item DM arena, SoA layout: `item slot·n + site`.
    stores: DmArena,
    /// One lemma checker per item slot.
    checkers: Vec<LemmaChecker<u64>>,
    /// Per-item memoized store re-check outcome (Lemmas 7/8(1a)/8(1b)):
    /// a pure function of the item's history digest and store slots, so
    /// between mutations of either it is replayed, not re-scanned.
    /// Cleared per item at every mutation site (write installs, corrupt
    /// injections, committed-write digests).
    arena_checks: Vec<Option<Result<(), LemmaViolation>>>,
    /// Threshold form of the quorum system, when it has one: quorum
    /// membership and contact selection as inline popcounts (see
    /// `Simulation::is_quorum`); `None` falls back to the dyn predicates.
    th: Option<Thresholds>,
    /// Resizable family of the quorum system (`Some` for ROWA/majority);
    /// required when `config.reconfig.enabled`.
    family: Option<QuorumFamily>,
    /// Committed configuration generation per item slot.
    cur_gens: Vec<u64>,
    /// Committed membership per item slot.
    cur_members: Vec<ReplicaSet>,
    /// Cached `(generation, members)` per coordinator per item slot:
    /// indexed `slot · clients_per_shard + client` in client-paced modes
    /// (so a fresh slot appends one row), and just `slot` under
    /// [`Workload::Routed`] (one coordinator per item).
    /// A migrated-in item starts at `(0, full)`, so its first operation at
    /// the new owner is stale-rejected and adopts the current generation —
    /// the §4 stale-retry made visible to the conformance checker.
    client_cfg: Vec<(u64, ReplicaSet)>,
    /// The in-flight dynamic attempt's `(members, read k, write k)`; the
    /// phase loop's quorum probe uses it when set.
    dyn_quorum: Option<(ReplicaSet, usize, usize)>,
    /// Instant of the last reactive reconfiguration per item slot.
    last_reconfig: Vec<SimTime>,
    /// Reactive reconfigurations spent per item slot.
    reconfigs_used: Vec<u32>,
    /// The failure signal (timeouts + unavailable) at the last spy poll.
    last_failure_signal: u64,
    /// Global id of each slot's item ([`FREE`] when vacant).
    slot_global: Vec<usize>,
    /// Global id → slot, dense over the whole keyspace ([`NO_SLOT`] for
    /// items owned elsewhere): the O(1) lookup behind routed arrivals,
    /// retries and exports.
    slot_of: Vec<u32>,
    /// Vacant slots, reused last-freed-first.
    free: Vec<u32>,
    /// The occupied slots in ascending global-id order — the order of
    /// every walk an observer can see (scripted `reconfig@` fan-out and
    /// the reactive poll in the event log, the end-of-run lemma sweep) and
    /// the index space of the client-paced draw table. Rebuilt on demand
    /// after a migration (see [`refresh_walk`](Self::refresh_walk)).
    walk: Vec<u32>,
    walk_stale: bool,
    /// Cumulative item weights over `walk` (`cum_weights[i]` = weight of
    /// `walk[0..=i]`), for one-draw item selection in client-paced modes
    /// (empty under [`Workload::Routed`], which never draws).
    cum_weights: Vec<f64>,
    total_weight: f64,
    /// Whether the workload is [`Workload::Routed`] (operations keyed by
    /// item instead of by client).
    routed: bool,
    /// Routed arrival period per item slot, in µs (empty otherwise):
    /// [`arrival_step`] of the slot's item, computed once when the shard
    /// is built and carried along when the item migrates.
    step: Vec<f64>,
    /// Instant of the last routed arrival each item slot processed
    /// ([`NEVER`] before the first; empty in client-paced modes) — what
    /// lets [`handle_arrival`](Self::handle_arrival) drop a bounced
    /// item's twin.
    arrived_at: Vec<SimTime>,
    /// Cumulative commits per item slot as of the last barrier sample
    /// (see [`sample_epoch`](Self::sample_epoch)).
    prev_commits: Vec<u64>,
    /// This shard's view of the global fault plan (local client ids).
    plan: FaultPlan,
    plan_crashes: Vec<Vec<SimTime>>,
    abort_flag: Vec<bool>,
    /// In-flight operation state, interned for the whole run: one slot per
    /// client in client-paced modes, one per item slot under Routed.
    pending: OpSlab,
    op_counter: Vec<u64>,
    /// Per-coordinator retry epoch (see [`Event::Retry`]); bumped when a
    /// barrier abort invalidates the coordinator's parked retry.
    retry_epoch: Vec<u32>,
    /// Per-coordinator causal segment history of the in-flight op, in
    /// causal order (`(edge kind, µs)`); only written when
    /// `config.obs.causal` is enabled. Mirrors the `PendingOp` phase
    /// accumulators exactly (see the single-item simulator's
    /// `causal_finish`); under Routed the slots are per item and migrate
    /// with it (always empty at a barrier — parked ops are fenced first).
    causal_segs: Vec<Vec<(EdgeKind, u64)>>,
    /// Reused phase response buffer (no per-operation allocation).
    scratch: Vec<(SimTime, usize)>,
    /// One trace recorder per item slot, when tracing.
    recorders: Option<Vec<TraceRecorder>>,
    metrics: Metrics,
    item_commits: Vec<u64>,
    /// This shard's index, stamped on events and snapshots.
    shard: u32,
    /// Observability recordings (per `config.obs`).
    obs: ObsReport,
    /// Periodic snapshot schedule, when enabled.
    snap: Option<SnapshotExporter>,
}

impl<'a> ShardSim<'a> {
    /// A shard owning `global_items` (ascending), one slot per item in
    /// that order. `step_scale` is the per-run constant of
    /// [`routed_step_scale`].
    fn new(
        config: &'a MultiConfig,
        shard: usize,
        global_items: Vec<usize>,
        traced: bool,
        step_scale: f64,
    ) -> Self {
        let n = config.quorum.n();
        let cps = config.clients_per_shard;
        let client_base = shard * cps;
        let local = global_items.len();
        // An elastic shard starts with a sixteenth of spare vacant slots
        // on its free list, so a typical run's imports land in columns
        // sized once, here (growing fifteen columns mid-run leaves a
        // freed copy of each behind in the allocator).
        let slots = if config.placement.is_elastic() {
            local + local / 16 + 16
        } else {
            local
        };
        let routed = matches!(config.workload, Workload::Routed { .. });
        // Routed shards never draw items; client-paced ones have no
        // arrival periods.
        let (cum_weights, total) = if routed {
            (Vec::new(), 0.0)
        } else {
            cum_weight_table(&global_items, config.dist)
        };
        let step: Vec<f64> = if routed {
            let owned = global_items.iter().map(|&g| arrival_step(step_scale, g, config.dist));
            owned.chain(std::iter::repeat(0.0)).take(slots).collect()
        } else {
            Vec::new()
        };
        let mut slot_of = vec![NO_SLOT; config.items];
        for (slot, &g) in global_items.iter().enumerate() {
            slot_of[g] = slot as u32;
        }
        // Coordinator slots: one per client in client modes, one per item
        // slot under Routed.
        let coords = if routed { slots } else { cps };
        // The corruption target is item 0; validate() forbids Corrupt under
        // elastic placement, so the time-zero owner keeps it for the run.
        let owns_item0 = global_items.first() == Some(&0);
        let plan = config.faults.shard_view(client_base, client_base + cps, owns_item0);
        let plan_crashes = (0..n).map(|s| plan.crash_times_for(s).collect()).collect();
        let recorders = traced.then(|| {
            (0..slots)
                .map(|_| TraceRecorder::new(config.quorum.label(), n, config.seed))
                .collect()
        });
        let slot_global: Vec<usize> =
            global_items.into_iter().chain(std::iter::repeat(FREE)).take(slots).collect();
        let mut walk = Vec::with_capacity(slots);
        walk.extend(0..local as u32);
        let mut sim = ShardSim {
            config,
            n,
            client_base,
            quorum: Arc::clone(&config.quorum),
            rng: ChaCha8Rng::seed_from_u64(shard_seed(config.seed, shard)),
            now: SimTime::ZERO,
            queue: QueueImpl::new(config.queue),
            seq: 0,
            up: ReplicaSet::full(n),
            stores: DmArena::new_configured(slots * n, n),
            checkers: (0..slots).map(|_| LemmaChecker::new(0)).collect(),
            arena_checks: vec![None; slots],
            th: config.quorum.thresholds(),
            family: QuorumFamily::of(&*config.quorum),
            cur_gens: vec![0; slots],
            cur_members: vec![ReplicaSet::full(n); slots],
            client_cfg: vec![(0, ReplicaSet::full(n)); if routed { slots } else { slots * cps }],
            dyn_quorum: None,
            last_reconfig: vec![SimTime::ZERO; slots],
            reconfigs_used: vec![0; slots],
            last_failure_signal: 0,
            slot_global,
            slot_of,
            // Popped from the back: spare slots fill in ascending order.
            free: (local as u32..slots as u32).rev().collect(),
            walk,
            walk_stale: false,
            cum_weights,
            total_weight: total,
            routed,
            step,
            arrived_at: vec![NEVER; if routed { slots } else { 0 }],
            prev_commits: vec![0; slots],
            plan,
            plan_crashes,
            abort_flag: vec![false; coords],
            pending: OpSlab::new(coords),
            op_counter: vec![0; coords],
            retry_epoch: vec![0; coords],
            causal_segs: vec![Vec::new(); coords],
            scratch: Vec::new(),
            recorders,
            metrics: Metrics::default(),
            item_commits: vec![0; slots],
            shard: shard as u32,
            obs: ObsReport::new(&config.obs),
            snap: config.obs.snapshot_every_us.map(SnapshotExporter::new),
        };
        if routed {
            // Every owned item carries its own arrival stream; the phase
            // offsets stagger the streams, so no start jitter is needed
            // (and no RNG is drawn, keeping streams placement-independent).
            for slot in 0..local {
                if let Some(at) = sim.next_arrival_at_or_after(slot, SimTime::ZERO) {
                    let item = sim.slot_global[slot];
                    sim.schedule(at, Event::Arrival { item });
                }
            }
        } else {
            for c in 0..cps {
                // Stagger client starts to avoid phase lock (same policy as
                // the single-item simulator).
                let jitter = SimTime(sim.rng.gen_range(0..1_000));
                sim.schedule(jitter, Event::OpStart { client: c });
            }
        }
        for idx in 0..sim.plan.len() {
            let at = sim.plan.events()[idx].0;
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

    fn dispatch(&mut self, e: EventBox) {
        match e.unpack() {
            Event::OpStart { client } => self.handle_op(client),
            Event::Retry { key } => self.handle_retry(key),
            Event::PlanFault { idx } => self.handle_plan_fault(idx),
            Event::SpyCheck => self.spy_check(),
            Event::Arrival { item } => self.handle_arrival(item),
        }
    }

    /// A queued retry fires. Unpack the `(coordinate, epoch)` key; a
    /// stale epoch — or, under Routed, an item that migrated away —
    /// tombstones (the op it named was aborted at a barrier).
    fn handle_retry(&mut self, packed: usize) {
        let key = packed & 0xFFFF_FFFF;
        let epoch = (packed >> 32) as u32;
        let slot = if self.routed {
            match self.slot_of[key] {
                NO_SLOT => return,
                slot => slot as usize,
            }
        } else {
            key
        };
        if self.retry_epoch[slot] != epoch {
            return;
        }
        self.attempt_op(slot);
    }

    /// Advance the event loop through every event at `t ≤ limit` (events
    /// at exactly `limit` fire). The first event past the limit is
    /// re-pushed under its original `(time, seq)`, so resuming the loop
    /// preserves the total order exactly.
    fn run_to(&mut self, limit: SimTime) {
        while let Some((t, seq, e)) = self.queue.pop() {
            if t > limit {
                self.queue.push(t, seq, e);
                break;
            }
            // Snapshot boundaries fire before the event at `t`, exactly as
            // in the single-item simulator.
            self.fire_snapshots_through(t);
            self.now = t;
            self.dispatch(e);
            // Batched delivery: drain every remaining event at `t` in
            // `(time, seq)` order before re-entering the full dequeue path.
            while let Some((_, e)) = self.queue.pop_at(t) {
                self.dispatch(e);
            }
        }
    }

    /// Park the shard at barrier instant `t`: all events ≤ `t` have
    /// already fired via [`run_to`](Self::run_to), so only the clock and
    /// any due snapshot boundaries move. Migrations applied while parked
    /// are stamped at the barrier.
    fn sync_to(&mut self, t: SimTime) {
        self.fire_snapshots_through(t);
        self.now = t;
        // `run_to` peeked one event past the barrier, advancing the
        // calendar queue's scan cursor beyond `t`; migrations arriving at
        // this barrier schedule events from `t + 1`, so re-open the
        // window (every event ≤ `t` has already been drained).
        self.queue.rewind(t);
    }

    /// Pending-event count (the queue-depth load signal at a barrier).
    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The commit load signal at a barrier, in one pass over the slots:
    /// write each owned item's commits since the previous barrier into
    /// the keyspace-sized `deltas` (every item has exactly one owner, so
    /// the shards between them overwrite every entry) and return this
    /// shard's total — commits are attributed to the owner at sample time.
    fn sample_epoch(&mut self, deltas: &mut [u64]) -> u64 {
        let mut total = 0;
        for (slot, &g) in self.slot_global.iter().enumerate() {
            if g == FREE {
                continue;
            }
            let d = self.item_commits[slot] - self.prev_commits[slot];
            self.prev_commits[slot] = self.item_commits[slot];
            deltas[g] = d;
            total += d;
        }
        total
    }

    /// Number of items this shard owns.
    fn owned(&self) -> usize {
        self.slot_global.len() - self.free.len()
    }

    /// Bring `walk` up to date after a migration: the occupied slots,
    /// ascending by global id.
    fn refresh_walk(&mut self) {
        if !self.walk_stale {
            return;
        }
        self.walk_stale = false;
        let globals = &self.slot_global;
        self.walk.clear();
        self.walk
            .extend((0..globals.len() as u32).filter(|&s| globals[s as usize] != FREE));
        self.walk.sort_unstable_by_key(|&s| globals[s as usize]);
    }

    fn run(mut self) -> ShardOutcome {
        self.run_to(self.config.duration);
        self.finish()
    }

    /// The end-of-run tail: final snapshot boundaries, the quiescent
    /// lemma sweep, and result assembly.
    fn finish(mut self) -> ShardOutcome {
        self.fire_snapshots_through(self.config.duration);
        self.now = self.config.duration;
        // Every owned item's stores must satisfy the lemmas at quiescence.
        self.refresh_walk();
        if self.config.monitor {
            for i in 0..self.walk.len() {
                let item = self.walk[i] as usize;
                if let Err(v) = self.check_item_memo(item) {
                    let g = self.slot_global[item];
                    self.record_violation_observed(
                        format_args!("end-of-run item={g}: {v}"),
                        None,
                    );
                }
            }
        }
        let items = self
            .walk
            .iter()
            .map(|&s| {
                let s = s as usize;
                (self.slot_global[s], self.item_commits[s], self.checkers[s].current_vn())
            })
            .collect();
        let traces = self.recorders.map(|recorders| {
            self.slot_global
                .iter()
                .zip(recorders)
                .filter(|(&g, _)| g != FREE)
                .map(|(&g, r)| (g, r.finish()))
                .collect()
        });
        ShardOutcome {
            metrics: self.metrics,
            items,
            traces,
            obs: self.obs,
        }
    }

    /// Emit every due snapshot with boundary time ≤ `t`.
    fn fire_snapshots_through(&mut self, t: SimTime) {
        loop {
            let due = match self.snap.as_mut() {
                Some(s) => s.next_due(t.as_micros()),
                None => return,
            };
            let Some(at_us) = due else { return };
            let snap = Snapshot {
                at_us,
                shard: self.shard,
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
                    shard: self.shard,
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
            shard: self.shard,
            kind,
        });
    }

    /// Record a lemma violation in the metrics and the event log (taking
    /// pre-formatted arguments so the hot path never allocates; see
    /// `Metrics::record_violation_args`).
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

    /// Assert Lemmas 7 and 8(1a)/8(1b) against one item's stores. Under
    /// dynamic quorums Lemma 8(1a)'s write quorum is evaluated over the
    /// item's committed membership.
    fn check_item(&self, item: usize) -> Result<(), LemmaViolation> {
        let states = self.stores.states(item * self.n..(item + 1) * self.n);
        if self.config.reconfig.enabled {
            let family = self.family.expect("checked in MultiConfig::validate");
            let members = self.cur_members[item];
            self.checkers[item].check_states(states, true, |holders| {
                holders.intersection(members).len() >= family.write_size(members.len())
            })
        } else {
            let quorum: &dyn QuorumSpec = &*self.quorum;
            self.checkers[item]
                .check_states(states, true, |holders| quorum.is_write_quorum_bits(holders))
        }
    }

    /// [`check_item`](Self::check_item), memoized per item (see the
    /// `arena_checks` field).
    fn check_item_memo(&mut self, item: usize) -> Result<(), LemmaViolation> {
        match &self.arena_checks[item] {
            Some(r) => r.clone(),
            None => {
                let r = self.check_item(item);
                self.arena_checks[item] = Some(r.clone());
                r
            }
        }
    }

    fn handle_plan_fault(&mut self, idx: usize) {
        self.metrics.injected_faults += 1;
        let (at, event) = self.plan.events()[idx];
        if self.obs.events.enabled() {
            let desc = event.text(at);
            self.emit_obs(EventKind::Fault { desc });
        }
        match event {
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
                // shard_view routes Corrupt to the shard owning item 0;
                // local index 0 is global item 0 there.
                self.stores.set(site, vn, value);
                self.arena_checks[0] = None;
                if self.config.monitor {
                    if let Err(v) = self.check_item_memo(0) {
                        let now = self.now;
                        self.record_violation_observed(
                            format_args!("t={now} corrupt injection: {v}"),
                            None,
                        );
                    }
                }
            }
            FaultEvent::DropWindow { .. } | FaultEvent::DelayWindow { .. } => {}
            FaultEvent::Reconfig { target } => {
                // A scripted reconfiguration applies to every item; shards
                // execute it for the items they own, in item order.
                self.refresh_walk();
                for i in 0..self.walk.len() {
                    self.try_reconfigure(self.walk[i] as usize, target, true);
                }
            }
            // Migrations are consumed by the elastic control plane at the
            // epoch barrier (and stripped from shard views); the shard
            // loop never sees one.
            FaultEvent::Migrate { .. } => {}
        }
    }

    /// The reactive trigger, per owned item (see
    /// [`ReconfigPolicy`](crate::ReconfigPolicy) and the single-item
    /// `spy_check`): the failure-signal delta is shard-wide, the
    /// membership comparison, cooldown, and budget are per item.
    fn spy_check(&mut self) {
        let signal = self.metrics.reads.timeouts
            + self.metrics.reads.unavailable
            + self.metrics.writes.timeouts
            + self.metrics.writes.unavailable;
        let delta = signal - self.last_failure_signal;
        self.last_failure_signal = signal;
        let live = self.live_set();
        self.refresh_walk();
        for i in 0..self.walk.len() {
            let item = self.walk[i] as usize;
            let members = self.cur_members[item];
            let grow = !live.difference(members).is_empty();
            let shrink = delta > 0 && !members.difference(live).is_empty();
            if grow || shrink {
                self.try_reconfigure(item, ReconfigTarget::Live, false);
            }
        }
        self.schedule(self.config.reconfig.poll, Event::SpyCheck);
    }

    /// Execute one reconfigure op against `item` if warranted and
    /// feasible — the per-item mirror of the single-item simulator's
    /// `try_reconfigure` (Goldman–Lynch §4: discovery at a configuration
    /// read quorum of the old members, install at a configuration write
    /// quorum of the old members plus every live new member, data refresh
    /// at a data write quorum of the new members; one instant, no
    /// messages, no RNG draws).
    fn try_reconfigure(&mut self, item: usize, target: ReconfigTarget, scripted: bool) {
        self.reconfigure(item, target, scripted, false);
    }

    /// [`try_reconfigure`](Self::try_reconfigure) with an explicit
    /// same-membership escape hatch and a success flag. Migration uses
    /// `allow_same = true`: moving an item bumps its generation over an
    /// *unchanged* membership — the epoch fence every coordinator must
    /// observe (stale-abort and re-adopt) before the item serves from its
    /// new shard.
    fn reconfigure(
        &mut self,
        item: usize,
        target: ReconfigTarget,
        scripted: bool,
        allow_same: bool,
    ) -> bool {
        let Some(family) = self.family else {
            if scripted {
                self.metrics.reconfig_failures += 1;
            }
            return false;
        };
        let pol = self.config.reconfig;
        if !scripted {
            if self.reconfigs_used[item] >= pol.max_reconfigs {
                return false;
            }
            if self.reconfigs_used[item] > 0 && self.now - self.last_reconfig[item] < pol.cooldown
            {
                return false;
            }
        }
        let live = self.live_set();
        let new_members = match target {
            ReconfigTarget::Live => live,
            ReconfigTarget::Members(m) => m,
        };
        if new_members.len() < pol.min_members
            || (!allow_same && new_members == self.cur_members[item])
        {
            return false;
        }
        let old = self.cur_members[item];
        let discovery = live.intersection(old);
        let refresh = live.intersection(new_members);
        let feasible = discovery.len() >= QuorumFamily::config_quorum_size(old.len())
            && discovery.len() >= family.read_size(old.len())
            && refresh.len() >= family.write_size(new_members.len());
        if !feasible {
            if scripted {
                self.metrics.reconfig_failures += 1;
            }
            return false;
        }
        let base = item * self.n;
        let new_gen = self.cur_gens[item] + 1;
        let (dvn, dval) = self.stores.discover(base, discovery);
        let install = discovery.union(refresh);
        if self.recorders.is_some() {
            // `new_gen` is monotone per item, so the reconfig-TM names in
            // an item's trace stay unique even when migrations splice the
            // trace across shards (a per-shard counter would not).
            let tid = TraceTid {
                client: u32::MAX,
                op: new_gen,
                attempt: 1,
            };
            let faulted = self.faulted_now();
            self.emit_item(
                item,
                tid,
                TraceAction::Create {
                    kind: TmKind::Reconfig,
                },
                faulted,
            );
            for s in discovery {
                let gen = self.stores.cfg_gen(base + s);
                self.emit_item(item, tid, TraceAction::ReadCfg { site: s, gen }, faulted);
            }
            for s in discovery {
                let (vn, value) = self.stores.get(base + s);
                self.emit_item(item, tid, TraceAction::ReadDm { site: s, vn, value }, faulted);
            }
            for s in install {
                self.emit_item(
                    item,
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
                self.emit_item(
                    item,
                    tid,
                    TraceAction::WriteDm {
                        site: s,
                        vn: dvn,
                        value: dval,
                    },
                    faulted,
                );
            }
            self.emit_item(
                item,
                tid,
                TraceAction::RequestCommit {
                    vn: new_gen,
                    value: new_members.bits() as u64,
                },
                faulted,
            );
            self.emit_item(item, tid, TraceAction::Commit, faulted);
        }
        for s in install {
            self.stores.set_cfg(base + s, new_gen, new_members);
        }
        for s in refresh {
            self.stores.set(base + s, dvn, dval);
        }
        self.cur_gens[item] = new_gen;
        self.cur_members[item] = new_members;
        self.arena_checks[item] = None;
        if self.config.obs.spans {
            // Instantaneous (reliable control plane): a zero-duration
            // marker, counted like vn_resolve/commit_round so fence
            // frequency shows up in the phase profile.
            self.obs.spans.record(Phase::ReconfigFence, 0);
        }
        self.metrics.reconfigurations += 1;
        self.reconfigs_used[item] += 1;
        self.last_reconfig[item] = self.now;
        if self.obs.events.enabled() {
            let g = self.slot_global[item];
            self.emit_obs(EventKind::Fault {
                desc: format!("reconfig:item{g}:gen{new_gen}:{new_members}"),
            });
        }
        if self.config.monitor {
            if let Err(v) = self.check_item_memo(item) {
                let g = self.slot_global[item];
                let now = self.now;
                self.record_violation_observed(
                    format_args!("t={now} item={g} reconfig gen {new_gen}: {v}"),
                    None,
                );
            }
        }
        true
    }

    fn live_set(&self) -> ReplicaSet {
        self.up
    }

    fn faulted_now(&self) -> bool {
        self.up != ReplicaSet::full(self.n)
            || self.plan.drop_permille_at(self.now) > 0
            || self.plan.delay_extra_at(self.now) > SimTime::ZERO
    }

    /// Whether `site` (up now) crashes at or before `t` (straddle check;
    /// sharded runs use planned faults only, so no stochastic component).
    fn site_crashes_by(&self, site: usize, t: SimTime) -> bool {
        let planned = &self.plan_crashes[site];
        let i = planned.partition_point(|&c| c <= self.now);
        i < planned.len() && planned[i] <= t
    }

    /// One quorum-gathering phase (`write_phase` selects the predicate).
    /// Identical semantics to the single-item simulator's phase; the
    /// quorum predicate is dispatched inline, so no per-call closure or
    /// `Arc` clone.
    fn phase(
        &mut self,
        targets: ReplicaSet,
        client: usize,
        op_index: u64,
        attempt: u32,
        write_phase: bool,
    ) -> PhaseOutcome {
        let phase_no: u8 = if write_phase { 2 } else { 1 };
        let drop_permille = self.plan.drop_permille_at(self.now);
        let delay_extra = self.plan.delay_extra_at(self.now);
        let seed = self.config.seed;
        let global_client = self.coord(client);
        let mut responses = std::mem::take(&mut self.scratch);
        responses.clear();
        let mut messages = 0u64;
        for s in targets {
            messages += 1; // request
            if !self.up.contains(s) {
                continue;
            }
            if message_dropped(
                seed,
                global_client,
                op_index,
                attempt,
                phase_no,
                s,
                false,
                drop_permille,
            ) {
                self.metrics.dropped_messages += 1;
                continue;
            }
            let rtt = self.config.latency.sample(&mut self.rng)
                + self.config.latency.sample(&mut self.rng)
                + delay_extra
                + delay_extra;
            if self.site_crashes_by(s, self.now + rtt) {
                continue;
            }
            messages += 1; // response
            if message_dropped(
                seed,
                global_client,
                op_index,
                attempt,
                phase_no,
                s,
                true,
                drop_permille,
            ) {
                self.metrics.dropped_messages += 1;
                continue;
            }
            responses.push((rtt, s));
        }
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

    /// Whether `have` includes the relevant quorum — a popcount when the
    /// quorum system has a [`Thresholds`] form (agrees exactly with the
    /// predicates; asserted exhaustively in the quorum crate).
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
            None if write => self.quorum.is_write_quorum_bits(have),
            None => self.quorum.is_read_quorum_bits(have),
        }
    }

    /// Minimal quorum inside `available`, matching `find_*_quorum_bits`
    /// bit-for-bit (threshold shrink keeps the highest `k` live members).
    #[inline]
    fn find_quorum(&self, available: ReplicaSet, write: bool) -> Option<ReplicaSet> {
        match self.th {
            Some(t) => {
                let k = if write { t.write_size } else { t.read_size };
                let live = available.intersection(ReplicaSet::full(t.n));
                (live.len() >= k).then(|| live.keep_highest(k))
            }
            None if write => self.quorum.find_write_quorum_bits(available),
            None => self.quorum.find_read_quorum_bits(available),
        }
    }

    /// Draw the item (slot) of the next operation from the shard's slice
    /// of the keyspace (one uniform draw + binary search on the cumulative
    /// weights, which run over `walk`).
    fn draw_item(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(0.0..self.total_weight);
        let i = self.cum_weights.partition_point(|&c| c <= u);
        self.walk[i.min(self.cum_weights.len() - 1)] as usize
    }

    /// The coordinator's *global* identity, used for drop coins, trace
    /// transaction names, and violation op-refs: the global client id in
    /// client-paced modes, the global item id under Routed (deterministic
    /// across placements — a migrated item keeps its coordinate).
    #[inline]
    fn coord(&self, key: usize) -> usize {
        if self.routed {
            self.slot_global[key]
        } else {
            self.client_base + key
        }
    }

    /// The packed key a queued [`Event::Retry`] carries for coordinator
    /// `key`: the coordinate (global item id under Routed) in the low 32
    /// bits, the coordinator's current retry epoch in the high 32.
    #[inline]
    fn retry_key(&self, key: usize) -> usize {
        let coord = if self.routed { self.slot_global[key] } else { key };
        coord | ((self.retry_epoch[key] as usize) << 32)
    }

    /// Index into `client_cfg` of coordinator `key`'s cached configuration
    /// for the item in slot `item`.
    #[inline]
    fn cfg_idx(&self, key: usize, item: usize) -> usize {
        if self.routed {
            item
        } else {
            item * self.config.clients_per_shard + key
        }
    }

    /// The next arrival of the routed stream of the item in `slot` at or
    /// after `t`, or `None` past the run's end. The stream is the phased
    /// arithmetic sequence `round((φ_g + k) · step_g)` with
    /// `step_g = interarrival · W / w_g` (the slot's `step` entry) — O(1)
    /// from `(seed, g, t)`, no RNG state, so a migrated item's stream
    /// continues bit-identically on its new shard.
    fn next_arrival_at_or_after(&self, slot: usize, t: SimTime) -> Option<SimTime> {
        let step = self.step[slot];
        let phi = arrival_phase(self.config.seed, self.slot_global[slot]);
        let t_us = t.as_micros();
        // Start a couple of periods early to absorb rounding, then walk
        // forward to the first arrival at or after `t` (a bounded loop:
        // at most a handful of iterations).
        let mut k = ((t_us as f64 / step) - phi).floor() as i64 - 2;
        if k < 0 {
            k = 0;
        }
        loop {
            let at = ((phi + k as f64) * step).round() as u64;
            if at >= t_us {
                return (at <= self.config.duration.as_micros()).then_some(SimTime(at));
            }
            k += 1;
        }
    }

    /// A routed arrival for global item `g`: begin an operation keyed by
    /// the item (or let a still-retrying one absorb it — the item is
    /// saturated), then schedule the stream's successor. Arrivals for
    /// items this shard no longer owns are tombstones.
    fn handle_arrival(&mut self, g: usize) {
        let slot = match self.slot_of[g] {
            NO_SLOT => return,
            slot => slot as usize,
        };
        // An item that left and came back before its queued arrival fired
        // has two arrivals for the same tick here: the one queued before
        // it left and the one rescheduled at import. The second is a
        // tombstone too — it starts no op and schedules no successor,
        // or the item's stream would run twice from here on.
        if self.arrived_at[slot] == self.now {
            return;
        }
        self.arrived_at[slot] = self.now;
        // Arrivals are unconditional (open loop): schedule the successor
        // before deciding what to do with this one.
        if let Some(at) = self.next_arrival_at_or_after(slot, self.now + SimTime(1)) {
            let delay = at - self.now;
            self.schedule(delay, Event::Arrival { item: g });
        }
        if self.pending.is_live(slot) {
            return;
        }
        let is_read = self.rng.gen_bool(self.config.read_fraction);
        let op_index = self.op_counter[slot];
        self.op_counter[slot] += 1;
        // Values are unique per item across the whole run: the counter
        // migrates with the item, and the prefix is its global id.
        let value = g as u64 * 1_000_000 + op_index + 1;
        self.pending
            .put(slot, PendingOp::begin(slot, is_read, value, op_index, self.now));
        self.attempt_op(slot);
    }

    /// Start a fresh logical operation for local `client`.
    fn handle_op(&mut self, client: usize) {
        if let Workload::Open { interarrival } = self.config.workload {
            // Arrivals are unconditional in an open loop; schedule the next
            // one before deciding what to do with this one.
            self.schedule(interarrival.max(SimTime(1)), Event::OpStart { client });
            if self.pending.is_live(client) {
                // Client still retrying a previous operation: it absorbs
                // this arrival (saturation).
                return;
            }
        }
        if self.owned() == 0 {
            // Every item migrated away; park the client until one arrives
            // (open-loop arrivals keep polling on their own).
            if let Workload::Closed { think } = self.config.workload {
                self.schedule(think.max(SimTime(1)), Event::OpStart { client });
            }
            return;
        }
        let item = self.draw_item();
        let is_read = self.rng.gen_bool(self.config.read_fraction);
        let op_index = self.op_counter[client];
        self.op_counter[client] += 1;
        // A value unique across the whole run (all shards), so per-item
        // histories identify writes.
        let value = (self.client_base + client) as u64 * 1_000_000 + op_index + 1;
        self.pending
            .put(client, PendingOp::begin(item, is_read, value, op_index, self.now));
        self.attempt_op(client);
    }

    fn trace_tid(&self, client: usize, op: &PendingOp) -> TraceTid {
        TraceTid {
            client: self.coord(client) as u32,
            op: op.op_index,
            attempt: op.attempt,
        }
    }

    /// Record one trace action against `op`'s item (no-op when untraced).
    fn emit(&mut self, client: usize, op: &PendingOp, action: TraceAction, faulted: bool) {
        let tid = self.trace_tid(client, op);
        self.emit_item(op.item, tid, action, faulted);
    }

    /// Record one trace action against `item` under an explicit tid (the
    /// reconfigure op has no client).
    fn emit_item(&mut self, item: usize, tid: TraceTid, action: TraceAction, faulted: bool) {
        let now = self.now;
        if let Some(recorders) = self.recorders.as_mut() {
            recorders[item].record(now, tid, action, faulted);
        }
    }

    /// Run one attempt of local `client`'s pending operation.
    fn attempt_op(&mut self, client: usize) {
        let mut op = match self.pending.take(client) {
            Some(op) => op,
            None => return,
        };

        if self.abort_flag[client] {
            self.abort_flag[client] = false;
            self.metrics.forced_aborts += 1;
            if self.recorders.is_some() {
                let kind = if op.read { TmKind::Read } else { TmKind::Write };
                self.emit(
                    client,
                    &op,
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
            if let Workload::Closed { think } = self.config.workload {
                self.schedule(think, Event::OpStart { client });
            }
            return;
        }

        if self.config.reconfig.enabled {
            let family = self.family.expect("checked in MultiConfig::validate");
            self.attempt_op_dynamic(client, op, family);
            return;
        }

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
                let health = self.quorum.quorum_health(self.live_set());
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

        // Phase 1 (both kinds): version discovery at a read quorum.
        let live = self.live_set();
        let targets1 = match self.config.contact {
            ContactPolicy::AllLive => Some(live),
            ContactPolicy::MinimalQuorum => self.find_quorum(live, false),
        };
        let out1 = match targets1 {
            Some(targets) => self.phase(targets, client, op.op_index, op.attempt, false),
            None => {
                self.finish_failed_attempt(client, op, SimTime::ZERO, 0, true);
                return;
            }
        };
        op.gather_us += out1.elapsed.as_micros();
        self.causal_push(client, EdgeKind::ReadGather, out1.elapsed);
        if !out1.ok {
            self.finish_failed_attempt(client, op, out1.elapsed, out1.messages, false);
            return;
        }
        let base = op.item * self.n;
        let (dvn, dval) = self.stores.discover(base, out1.responders);

        if op.read {
            if self.recorders.is_some() {
                let faulted = self.faulted_now();
                self.emit(client, &op, TraceAction::Create { kind: TmKind::Read }, faulted);
                for s in out1.responders {
                    let (vn, value) = self.stores.get(base + s);
                    self.emit(client, &op, TraceAction::ReadDm { site: s, vn, value }, faulted);
                }
                self.emit(
                    client,
                    &op,
                    TraceAction::RequestCommit { vn: dvn, value: dval },
                    faulted,
                );
                self.emit(client, &op, TraceAction::Commit, faulted);
            }
            self.commit_op(client, op, out1.elapsed, out1.messages, dvn, dval);
            return;
        }

        // Phase 2 (writes): install at a write quorum, atomically.
        let live = self.live_set();
        let targets2 = match self.config.contact {
            ContactPolicy::AllLive => Some(live),
            ContactPolicy::MinimalQuorum => self.find_quorum(live, true),
        };
        let out2 = match targets2 {
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
        if self.recorders.is_some() {
            let faulted = self.faulted_now();
            self.emit(client, &op, TraceAction::Create { kind: TmKind::Write }, faulted);
            for s in out1.responders {
                let (vn, value) = self.stores.get(base + s);
                self.emit(client, &op, TraceAction::ReadDm { site: s, vn, value }, faulted);
            }
            for s in out2.responders {
                self.emit(
                    client,
                    &op,
                    TraceAction::WriteDm {
                        site: s,
                        vn: new_vn,
                        value: op.value,
                    },
                    faulted,
                );
            }
            self.emit(
                client,
                &op,
                TraceAction::RequestCommit {
                    vn: new_vn,
                    value: op.value,
                },
                faulted,
            );
            self.emit(client, &op, TraceAction::Commit, faulted);
        }
        for s in out2.responders {
            self.stores.set(base + s, new_vn, op.value);
        }
        self.arena_checks[op.item] = None;
        self.commit_op(client, op, elapsed, messages, new_vn, op.value);
    }

    /// One attempt of a pending operation under dynamic quorums — the
    /// per-item mirror of the single-item simulator's
    /// `attempt_op_dynamic`: the Gifford phases run over the client's
    /// cached `(generation, members)` pair for the op's item, phase 1
    /// doubles as the generation-currency check, and a stale attempt
    /// aborts with [`AbortReason::Stale`] and retries under the adopted
    /// configuration without spending its retry budget.
    fn attempt_op_dynamic(&mut self, client: usize, mut op: PendingOp, family: QuorumFamily) {
        let idx = self.cfg_idx(client, op.item);
        let (cgen, members) = self.client_cfg[idx];
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
        // Contact live members even when they cannot assemble the quorum:
        // any single response can reveal a newer generation, which is how
        // a client with a stale cache ever recovers.
        let targets = match self.config.contact {
            ContactPolicy::AllLive => livem,
            ContactPolicy::MinimalQuorum if livem.len() >= rk => livem.keep_highest(rk),
            ContactPolicy::MinimalQuorum => livem,
        };
        let out1 = self.phase(targets, client, op.op_index, op.attempt, false);
        op.gather_us += out1.elapsed.as_micros();
        self.causal_push(client, EdgeKind::ReadGather, out1.elapsed);
        let base = op.item * self.n;
        // Generation currency: any in-time response carrying a newer
        // generation supersedes this attempt, whether or not the phase
        // assembled its quorum.
        let seen = if out1.ok {
            out1.responders
        } else {
            self.responders_within_timeout()
        };
        let (sgen, smembers) = self.stores.discover_cfg(base, seen);
        if sgen > cgen {
            self.client_cfg[idx] = (sgen, smembers);
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
        let (dvn, dval) = self.stores.discover(base, out1.responders);

        if op.read {
            if self.recorders.is_some() {
                let faulted = self.faulted_now();
                self.emit(client, &op, TraceAction::Create { kind: TmKind::Read }, faulted);
                for s in out1.responders {
                    let gen = self.stores.cfg_gen(base + s);
                    self.emit(client, &op, TraceAction::ReadCfg { site: s, gen }, faulted);
                }
                for s in out1.responders {
                    let (vn, value) = self.stores.get(base + s);
                    self.emit(client, &op, TraceAction::ReadDm { site: s, vn, value }, faulted);
                }
                self.emit(
                    client,
                    &op,
                    TraceAction::RequestCommit { vn: dvn, value: dval },
                    faulted,
                );
                self.emit(client, &op, TraceAction::Commit, faulted);
            }
            self.commit_op(client, op, out1.elapsed, out1.messages, dvn, dval);
            return;
        }

        // Phase 2 (writes): install at a data write quorum of the cached
        // members, atomically.
        let livem2 = self.live_set().intersection(members);
        if livem2.len() < wk {
            self.finish_failed_attempt(client, op, out1.elapsed, out1.messages, true);
            return;
        }
        let targets2 = match self.config.contact {
            ContactPolicy::AllLive => livem2,
            ContactPolicy::MinimalQuorum => livem2.keep_highest(wk),
        };
        let out2 = self.phase(targets2, client, op.op_index, op.attempt, true);
        op.install_us += out2.elapsed.as_micros();
        self.causal_push(client, EdgeKind::WriteInstall, out2.elapsed);
        let elapsed = out1.elapsed + out2.elapsed;
        let messages = out1.messages + out2.messages;
        if !out2.ok {
            self.finish_failed_attempt(client, op, elapsed, messages, false);
            return;
        }
        let new_vn = dvn + 1;
        if self.recorders.is_some() {
            let faulted = self.faulted_now();
            self.emit(
                client,
                &op,
                TraceAction::Create {
                    kind: TmKind::Write,
                },
                faulted,
            );
            for s in out1.responders {
                let gen = self.stores.cfg_gen(base + s);
                self.emit(client, &op, TraceAction::ReadCfg { site: s, gen }, faulted);
            }
            for s in out1.responders {
                let (vn, value) = self.stores.get(base + s);
                self.emit(client, &op, TraceAction::ReadDm { site: s, vn, value }, faulted);
            }
            for s in out2.responders {
                self.emit(
                    client,
                    &op,
                    TraceAction::WriteDm {
                        site: s,
                        vn: new_vn,
                        value: op.value,
                    },
                    faulted,
                );
            }
            self.emit(
                client,
                &op,
                TraceAction::RequestCommit {
                    vn: new_vn,
                    value: op.value,
                },
                faulted,
            );
            self.emit(client, &op, TraceAction::Commit, faulted);
        }
        for s in out2.responders {
            self.stores.set(base + s, new_vn, op.value);
        }
        self.arena_checks[op.item] = None;
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

    /// Append a causal segment to the coordinator's in-flight op (see
    /// the single-item simulator's `causal_push`).
    fn causal_push(&mut self, client: usize, kind: EdgeKind, dur: SimTime) {
        if self.causal_on() && dur > SimTime::ZERO {
            self.causal_segs[client].push((kind, dur.as_micros()));
        }
    }

    /// Mirror `finish_stale_attempt`'s accumulator reclassification in
    /// the causal segment list (see the single-item simulator's
    /// `causal_stale`).
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
    /// segments are the coordinator's accumulated causal history, laid
    /// back-to-back from the op's start (see the single-item simulator's
    /// `causal_finish`). Identity is the global coordinator — client id
    /// in client-paced modes, global item id under Routed — so a trace
    /// stream stays coherent when items migrate between shards.
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
            client: self.coord(client) as u32,
            epoch: op.op_index as u32,
        };
        let mut trace = TxnTrace::new(id, self.shard, op.started.as_micros());
        let root = trace.add_span(
            NO_SPAN,
            SpanKind::Access {
                item: self.slot_global[op.item] as u64,
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

    /// Record the causal trace of an op killed *mid-backoff* by a
    /// migration fence: its segment chain extends to the parked retry
    /// instant, so the chain is truncated at the fence (`now`) and the
    /// abort is attributed to [`AbortCause::Fence`].
    #[allow(clippy::cast_possible_truncation)]
    fn causal_fence(&mut self, slot: usize, op: &PendingOp) {
        if !self.causal_on() {
            return;
        }
        let segs = std::mem::take(&mut self.causal_segs[slot]);
        let id = CausalTxnRef {
            client: self.coord(slot) as u32,
            epoch: op.op_index as u32,
        };
        let now_us = self.now.as_micros();
        let mut trace = TxnTrace::new(id, self.shard, op.started.as_micros());
        let root = trace.add_span(
            NO_SPAN,
            SpanKind::Access {
                item: self.slot_global[op.item] as u64,
                write: !op.read,
            },
        );
        let mut at = op.started.as_micros();
        trace.start_span(root, at);
        for (kind, dur) in segs {
            if at >= now_us {
                break;
            }
            let dur = dur.min(now_us - at);
            trace.push_seg(root, kind, at, dur, None);
            at += dur;
        }
        // Zero-duration marker naming the barrier that killed the op.
        trace.push_seg(root, EdgeKind::Fence, at, 0, None);
        trace.abort_span(root, at, AbortCause::Fence);
        trace.seal(at, false, root, Some(AbortCause::Fence));
        self.obs.causal.record(trace);
    }

    /// A stale-generation rejection: the attempt aborts with no visible
    /// effect and the operation retries immediately under the newly
    /// adopted configuration, without spending the retry budget (bounded
    /// by the run's reconfiguration count — see the single-item
    /// simulator's `finish_stale_attempt`).
    fn finish_stale_attempt(
        &mut self,
        client: usize,
        mut op: PendingOp,
        attempt_elapsed: SimTime,
        attempt_messages: u64,
    ) {
        self.metrics.stale_rejections += 1;
        if self.recorders.is_some() {
            let kind = if op.read { TmKind::Read } else { TmKind::Write };
            let faulted = self.faulted_now();
            self.emit(
                client,
                &op,
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
        // As in the single-item simulator: a stale attempt's gather time
        // is retry overhead, reclassified from `gather_us` into
        // retry_backoff with the phase sum preserved.
        op.gather_us -= attempt_elapsed.as_micros();
        op.backoff_us += delay.as_micros();
        self.causal_stale(client, attempt_elapsed, delay);
        self.pending.put(client, op);
        self.schedule(delay, Event::Retry { key: self.retry_key(client) });
    }

    /// Commit the pending operation against its item.
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
            // Exact reconciliation, as in the single-item simulator
            // (see sim.rs `commit_op` and DESIGN.md §5.4).
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
        self.item_commits[op.item] += 1;
        if self.config.monitor {
            // Same clauses and first-offender order as before, with the
            // store re-check memoized per item: committed reads mutate
            // nothing, so between writes to an item every read of it
            // replays the last outcome. A committed write digests into
            // the history first (dropping the memo — its inputs changed)
            // and re-scans.
            let check = if op.read {
                self.checkers[op.item].check_read(&value)
            } else {
                self.arena_checks[op.item] = None;
                self.checkers[op.item].commit_write(vn, value)
            }
            .and_then(|()| self.check_item_memo(op.item));
            if let Err(v) = check {
                let kind = if op.read { "read" } else { "write" };
                let g = self.slot_global[op.item];
                let c = self.coord(client);
                let op_ref = OpRef {
                    client: c as u64,
                    op: op.op_index,
                    attempt: op.attempt,
                    kind,
                    vn,
                    value,
                };
                let now = self.now;
                self.record_violation_observed(
                    format_args!("t={now} item={g} client={c} {kind}: {v}"),
                    Some(op_ref),
                );
            }
        }
        if let Workload::Closed { think } = self.config.workload {
            self.schedule(attempt_elapsed + think, Event::OpStart { client });
        }
    }

    /// A failed attempt: retry with backoff if the policy allows, else
    /// record the failure and (closed loop) move the client on.
    fn finish_failed_attempt(
        &mut self,
        client: usize,
        mut op: PendingOp,
        attempt_elapsed: SimTime,
        attempt_messages: u64,
        unavailable: bool,
    ) {
        if self.recorders.is_some() {
            let kind = if op.read { TmKind::Read } else { TmKind::Write };
            let reason = if unavailable {
                AbortReason::Unavailable
            } else {
                AbortReason::Timeout
            };
            let faulted = self.faulted_now();
            self.emit(client, &op, TraceAction::Abort { kind, reason }, faulted);
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
            // Never reschedule at the current instant (see sim.rs).
            let delay = (attempt_elapsed + self.config.retry.backoff_before(op.attempt))
                .max(SimTime(1));
            // Everything past the attempt's own elapsed time is backoff
            // (including the SimTime(1) floor), so phase spans reconcile
            // exactly with end-to-end latency on eventual commit.
            op.backoff_us += (delay - attempt_elapsed).as_micros();
            self.causal_push(client, EdgeKind::RetryBackoff, delay - attempt_elapsed);
            self.pending.put(client, op);
            self.schedule(delay, Event::Retry { key: self.retry_key(client) });
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
        if let Workload::Closed { think } = self.config.workload {
            self.schedule((attempt_elapsed + think).max(SimTime(1)), Event::OpStart { client });
        }
    }

    /// Abort coordinator `slot`'s parked op at a migration barrier with a
    /// stale rejection: the generation bump just installed supersedes the
    /// attempt. Bumping the retry epoch tombstones the op's queued retry;
    /// the abandoned op leaves no `OpStats` record (it neither committed
    /// nor exhausted its budget). A closed-loop client moves on.
    fn abort_parked(&mut self, slot: usize) {
        let Some(op) = self.pending.take(slot) else { return };
        self.metrics.stale_rejections += 1;
        self.retry_epoch[slot] += 1;
        if self.recorders.is_some() {
            let kind = if op.read { TmKind::Read } else { TmKind::Write };
            let faulted = self.faulted_now();
            self.emit(
                slot,
                &op,
                TraceAction::Abort {
                    kind,
                    reason: AbortReason::Stale,
                },
                faulted,
            );
        }
        self.causal_fence(slot, &op);
        if let Workload::Closed { think } = self.config.workload {
            self.schedule(think.max(SimTime(1)), Event::OpStart { client: slot });
        }
    }

    /// Export the global items `gs` to other shards in one batch: install
    /// the §4 generation bump over each item's *unchanged* membership (the
    /// migration fence every coordinator must observe) in planner order,
    /// abort any parked op on a fenced item, then copy each fenced item's
    /// state out of its slot and free the slot. Returns the states
    /// (ascending by global id) plus the number of items whose fence was
    /// infeasible under the current fault state — those stay put, their
    /// failures already counted by [`reconfigure`](Self::reconfigure).
    ///
    /// Nothing but the exported slots is touched, so the cost is O(moves)
    /// however many items stay behind.
    fn migrate_out_many(&mut self, gs: &[usize]) -> (Vec<ItemState>, u64) {
        // Phase 1: the §4 fences, one per item, in the order the planner
        // named them.
        let mut slots: Vec<usize> = Vec::with_capacity(gs.len());
        let mut failures = 0u64;
        for &g in gs {
            let slot = self.slot_of[g];
            assert_ne!(slot, NO_SLOT, "the directory says this shard owns item {g}");
            let slot = slot as usize;
            let members = self.cur_members[slot];
            if self.reconfigure(slot, ReconfigTarget::Members(members), true, true) {
                if self.config.obs.spans {
                    // One marker per item actually fenced for export (the
                    // fence itself was counted as reconfig_fence above).
                    self.obs.spans.record(Phase::Migration, 0);
                }
                slots.push(slot);
            } else {
                failures += 1;
            }
        }
        if slots.is_empty() {
            return (Vec::new(), failures);
        }
        // Ascending global id from here on: the order parked ops are
        // fenced in shows in the causal log.
        slots.sort_unstable_by_key(|&slot| self.slot_global[slot]);
        // Phase 2: abort parked ops on the fenced items, while their
        // slots are still occupied.
        if self.routed {
            for &slot in &slots {
                self.abort_parked(slot);
            }
        } else {
            for c in 0..self.config.clients_per_shard {
                if self.pending.get(c).is_some_and(|op| slots.contains(&op.item)) {
                    self.abort_parked(c);
                }
            }
        }
        // Phase 3: copy every fenced item's state out and free its slot.
        let states = slots.iter().map(|&slot| self.vacate(slot)).collect();
        self.rebuild_draw_table();
        (states, failures)
    }

    /// Copy the state of the item in `slot` out and put the slot on the
    /// free list. The slot's columns keep their stale contents until
    /// [`occupy`](Self::occupy) overwrites them; queued events that name
    /// the departed item tombstone through `slot_of`.
    fn vacate(&mut self, slot: usize) -> ItemState {
        let global = std::mem::replace(&mut self.slot_global[slot], FREE);
        self.slot_of[global] = NO_SLOT;
        self.free.push(slot as u32);
        self.walk_stale = true;
        // Per-coordinator state is per *item* under routing and travels
        // with it; `abort_parked` has already emptied the slab slot and
        // the causal segments.
        debug_assert!(!self.routed || !self.pending.is_live(slot));
        debug_assert!(!self.routed || self.causal_segs[slot].is_empty());
        let (n, seed) = (self.n, self.config.seed);
        ItemState {
            global,
            slots: self.stores.read_block(slot * n, n),
            checker: self.checkers[slot].clone(),
            commits: self.item_commits[slot],
            cur_gen: self.cur_gens[slot],
            cur_members: self.cur_members[slot],
            last_reconfig: self.last_reconfig[slot],
            reconfigs_used: self.reconfigs_used[slot],
            op_count: if self.routed { self.op_counter[slot] } else { 0 },
            retry_epoch: if self.routed { self.retry_epoch[slot] } else { 0 },
            step: if self.routed { self.step[slot] } else { 0.0 },
            recorder: self
                .recorders
                .as_mut()
                .map(|r| std::mem::replace(&mut r[slot], TraceRecorder::new("", n, seed))),
        }
    }

    /// Append one vacant slot to every per-slot column and return its
    /// index (the caller occupies it at once; the DM arena grows when the
    /// block is written).
    fn push_slot(&mut self) -> usize {
        let slot = self.slot_global.len();
        let n = self.n;
        self.slot_global.push(FREE);
        self.checkers.push(LemmaChecker::new(0));
        self.arena_checks.push(None);
        self.item_commits.push(0);
        self.prev_commits.push(0);
        self.cur_gens.push(0);
        self.cur_members.push(ReplicaSet::full(n));
        self.last_reconfig.push(SimTime::ZERO);
        self.reconfigs_used.push(0);
        if let Some(recorders) = self.recorders.as_mut() {
            recorders.push(TraceRecorder::new("", n, self.config.seed));
        }
        if self.routed {
            self.client_cfg.push((0, ReplicaSet::full(n)));
            self.step.push(0.0);
            self.arrived_at.push(NEVER);
            self.abort_flag.push(false);
            self.op_counter.push(0);
            self.retry_epoch.push(0);
            self.causal_segs.push(Vec::new());
            self.pending.push_empty();
        } else {
            let row = self.client_cfg.len() + self.config.clients_per_shard;
            self.client_cfg.resize(row, (0, ReplicaSet::full(n)));
        }
        slot
    }

    /// Write an imported item into a free slot (the last one freed, or a
    /// fresh one when none is) and return the slot. Every coordinator's
    /// cache for it starts at `(0, full)`, so the first op at the new
    /// owner stale-rejects, adopts the item's real generation, and
    /// retries — the §4 currency check doing the fencing.
    fn occupy(&mut self, st: ItemState) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => self.push_slot(),
        };
        let n = self.n;
        self.slot_global[slot] = st.global;
        self.slot_of[st.global] = slot as u32;
        self.walk_stale = true;
        self.stores.write_block(slot * n, &st.slots);
        self.checkers[slot] = st.checker;
        self.arena_checks[slot] = None;
        self.item_commits[slot] = st.commits;
        // The barrier sampled before it moved anything.
        self.prev_commits[slot] = st.commits;
        self.cur_gens[slot] = st.cur_gen;
        self.cur_members[slot] = st.cur_members;
        self.last_reconfig[slot] = st.last_reconfig;
        self.reconfigs_used[slot] = st.reconfigs_used;
        if let Some(recorders) = self.recorders.as_mut() {
            recorders[slot] = st.recorder.expect("a traced run migrates traced items");
        }
        if self.routed {
            self.client_cfg[slot] = (0, ReplicaSet::full(n));
            self.step[slot] = st.step;
            self.arrived_at[slot] = NEVER;
            // `abort_flag[slot]` is false for every tenant: Routed forbids
            // AbortClient.
            self.op_counter[slot] = st.op_count;
            self.retry_epoch[slot] = st.retry_epoch;
        } else {
            let cps = self.config.clients_per_shard;
            self.client_cfg[slot * cps..(slot + 1) * cps].fill((0, ReplicaSet::full(n)));
        }
        slot
    }

    /// Rebuild the client draw table after the local keyspace changed.
    /// Routed shards never draw from it — arrivals are per-item streams —
    /// so they skip the per-item `powf` rebuild entirely.
    fn rebuild_draw_table(&mut self) {
        if self.routed {
            return;
        }
        self.refresh_walk();
        let globals: Vec<usize> = self.walk.iter().map(|&s| self.slot_global[s as usize]).collect();
        let (cw, total) = cum_weight_table(&globals, self.config.dist);
        self.cum_weights = cw;
        self.total_weight = total;
    }

    /// Import a batch of items exported by other shards'
    /// [`migrate_out_many`](Self::migrate_out_many) at the same barrier
    /// instant (`sts` ascending by global id, which fixes the order the
    /// imported arrival streams are rescheduled in). O(moves), like the
    /// export path.
    fn migrate_in_many(&mut self, sts: Vec<ItemState>) {
        debug_assert!(sts.windows(2).all(|w| w[0].global < w[1].global));
        for st in sts {
            let item = st.global;
            let slot = self.occupy(st);
            if !self.routed {
                continue;
            }
            // The item's arrival stream continues here from the first
            // tick strictly after the barrier — the old owner processed
            // every arrival ≤ the barrier, and any it had queued beyond
            // it tombstone, so no arrival is lost or duplicated.
            if let Some(at) = self.next_arrival_at_or_after(slot, self.now + SimTime(1)) {
                let delay = at - self.now;
                self.schedule(delay, Event::Arrival { item });
            }
        }
        self.rebuild_draw_table();
    }
}

/// One item's complete simulation state, in flight between two shards at
/// a migration barrier.
struct ItemState {
    /// Global item id.
    global: usize,
    /// The item's `n` DM slots (`(vn, value, cfg_gen, cfg_members)`).
    slots: Vec<SlotState>,
    /// The item's Lemma 7/8 monitor, with its full history digest.
    checker: LemmaChecker<u64>,
    /// Committed operations so far (feeds the cumulative load tallies).
    commits: u64,
    cur_gen: u64,
    cur_members: ReplicaSet,
    last_reconfig: SimTime,
    reconfigs_used: u32,
    /// Routed-mode per-item operation counter (0 in client modes).
    op_count: u64,
    /// Routed-mode retry epoch (0 in client modes).
    retry_epoch: u32,
    /// Routed-mode arrival period in µs (0 in client modes).
    step: f64,
    /// The item's schedule-trace recorder, when tracing.
    recorder: Option<TraceRecorder>,
}

fn merge_outcomes(
    config: &MultiConfig,
    outcomes: Vec<ShardOutcome>,
) -> (ShardReport, Option<Vec<ScheduleTrace>>) {
    let mut metrics = Metrics::default();
    let mut item_commits = vec![0u64; config.items];
    let mut item_vns = vec![0u64; config.items];
    let mut traces: Option<Vec<Option<ScheduleTrace>>> = None;
    // `par_map` returns outcomes in input (shard-index) order regardless
    // of thread count, so absorbing in iteration order keeps the merged
    // ObsReport bit-identical across thread counts.
    let mut obs = ObsReport::new(&config.obs);
    for out in outcomes {
        metrics.merge(&out.metrics);
        obs.absorb(out.obs);
        for (g, commits, vn) in out.items {
            item_commits[g] = commits;
            item_vns[g] = vn;
        }
        if let Some(shard_traces) = out.traces {
            let slots = traces.get_or_insert_with(|| (0..config.items).map(|_| None).collect());
            for (g, t) in shard_traces {
                slots[g] = Some(t);
            }
        }
    }
    let traces = traces.map(|slots| {
        slots
            .into_iter()
            .map(|t| t.expect("every item belongs to exactly one shard"))
            .collect()
    });
    (
        ShardReport {
            metrics,
            item_commits,
            item_vns,
            obs,
        },
        traces,
    )
}

/// The simulated instants at which the elastic control plane parks every
/// shard: each positive multiple of the epoch below the duration, plus
/// every scripted `migrate@` instant (merged — a coinciding barrier both
/// plans and applies scripted moves). The flag marks epoch barriers,
/// where the rebalancer plans.
fn barrier_schedule(config: &MultiConfig, pol: &ElasticPolicy) -> Vec<(SimTime, bool)> {
    let mut barriers: Vec<(SimTime, bool)> = Vec::new();
    let mut t = pol.epoch;
    while t < config.duration {
        barriers.push((t, true));
        t += pol.epoch;
    }
    for &(at, e) in config.faults.events() {
        if matches!(e, FaultEvent::Migrate { .. }) && at < config.duration {
            if let Err(i) = barriers.binary_search_by_key(&at, |b| b.0) {
                barriers.insert(i, (at, false));
            }
        }
    }
    barriers
}

/// Drive an elastic run: execute every shard to each barrier in parallel,
/// park them all at the same simulated instant, sample loads, apply
/// scripted and planned migrations through the §4 reconfiguration path,
/// and continue. Every rebalancing input is a function of simulated time,
/// so the result is bit-identical for any thread count; the per-segment
/// wall-clock durations feed the perf experiment only.
fn run_elastic(
    config: &MultiConfig,
    threads: usize,
    traced: bool,
    dir: &mut PlacementDirectory,
    pol: &ElasticPolicy,
    step_scale: f64,
) -> (Vec<ShardOutcome>, PlacementReport) {
    let mut sims: Vec<ShardSim<'_>> = (0..config.shards)
        .map(|s| ShardSim::new(config, s, dir.owned_by(s), traced, step_scale))
        .collect();
    let mut report = PlacementReport::default();
    let scripted: Vec<(SimTime, usize, usize)> = config
        .faults
        .events()
        .iter()
        .filter_map(|&(at, e)| match e {
            FaultEvent::Migrate { item, to } => Some((at, item, to)),
            _ => None,
        })
        .collect();
    // Per-item commits since the previous barrier; every shard rewrites
    // its own items' entries at every barrier.
    let mut deltas = vec![0u64; config.items];
    let mut barriers = barrier_schedule(config, pol);
    // The run's end is sampled like a barrier (moves are pointless there).
    barriers.push((config.duration, false));
    for (t, is_epoch) in barriers {
        let start = std::time::Instant::now();
        sims = par_map(sims, threads, |_, mut s| {
            s.run_to(t);
            s
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let mut shard_commits = Vec::with_capacity(config.shards);
        let mut queue_depths = Vec::with_capacity(config.shards);
        for s in &mut sims {
            s.sync_to(t);
            shard_commits.push(s.sample_epoch(&mut deltas));
            queue_depths.push(s.queue_len() as u64);
        }
        let mut moves: Vec<Migration> = scripted
            .iter()
            .filter(|&&(at, _, _)| at == t)
            .map(|&(_, item, to)| Migration {
                item,
                from: dir.owner_of(item),
                to,
            })
            .collect();
        if is_epoch {
            moves.extend(plan_moves(&deltas, dir, pol));
        }
        let mut applied = 0u64;
        let mut failures = 0u64;
        // Dedupe by item (first mention wins — scripted moves precede
        // planned ones), resolve sources, and drop no-ops; then group by
        // source shard so each shard fences its exports in one batch.
        let mut batch: Vec<Migration> = Vec::new();
        for m in moves {
            if batch.iter().any(|b| b.item == m.item) {
                continue;
            }
            let from = dir.owner_of(m.item);
            if from == m.to {
                continue;
            }
            batch.push(Migration { item: m.item, from, to: m.to });
        }
        if !batch.is_empty() {
            // Stable by source: within one shard, fences run in planner
            // order.
            batch.sort_by_key(|m| m.from);
            let mut dest: Vec<(usize, usize)> = batch.iter().map(|m| (m.item, m.to)).collect();
            dest.sort_unstable();
            let mut incoming: Vec<Vec<ItemState>> =
                (0..config.shards).map(|_| Vec::new()).collect();
            let mut i = 0;
            while i < batch.len() {
                let from = batch[i].from;
                let mut gs = Vec::new();
                while i < batch.len() && batch[i].from == from {
                    gs.push(batch[i].item);
                    i += 1;
                }
                let (states, failed) = sims[from].migrate_out_many(&gs);
                failures += failed;
                for st in states {
                    let d = dest
                        .binary_search_by_key(&st.global, |&(g, _)| g)
                        .expect("every exported item was planned");
                    let to = dest[d].1;
                    dir.set_owner(st.global, to);
                    applied += 1;
                    incoming[to].push(st);
                }
            }
            for (s, mut sts) in incoming.into_iter().enumerate() {
                if sts.is_empty() {
                    continue;
                }
                sts.sort_by_key(|st| st.global);
                sims[s].migrate_in_many(sts);
            }
        }
        report.migrations += applied;
        report.migration_failures += failures;
        report.epochs.push(EpochSample {
            at: t,
            shard_commits,
            queue_depths,
            moves: applied,
            move_failures: failures,
            wall_ns,
        });
    }
    report.final_counts = dir.counts();
    let outcomes = sims.into_iter().map(ShardSim::finish).collect();
    (outcomes, report)
}

fn run_sharded_inner(
    config: &MultiConfig,
    threads: usize,
    traced: bool,
) -> (ShardReport, Option<Vec<ScheduleTrace>>, PlacementReport) {
    config.validate().expect("invalid sharded configuration");
    let mut dir = PlacementDirectory::seed(
        config.items,
        config.shards,
        config.placement.seed_placement(),
    );
    let step_scale = routed_step_scale(config);
    let (outcomes, placement) = if let PlacementPolicy::Elastic(pol) = config.placement {
        run_elastic(config, threads, traced, &mut dir, &pol, step_scale)
    } else {
        // Fixed placement: one uninterrupted leg per shard — byte-for-byte
        // the pre-placement behaviour under `Static` (round-robin).
        let outcomes = par_map((0..config.shards).collect(), threads, |_, s| {
            ShardSim::new(config, s, dir.owned_by(s), traced, step_scale).run()
        });
        let placement = PlacementReport {
            final_counts: dir.counts(),
            ..PlacementReport::default()
        };
        (outcomes, placement)
    };
    let (report, traces) = merge_outcomes(config, outcomes);
    (report, traces, placement)
}

/// Run a sharded multi-item simulation on up to `threads` OS threads.
///
/// The result is bit-identical for every `threads` value (see the module
/// docs for the determinism contract).
///
/// # Panics
///
/// Panics if the configuration fails [`MultiConfig::validate`].
#[must_use]
pub fn run_sharded(config: &MultiConfig, threads: usize) -> ShardReport {
    run_sharded_inner(config, threads, false).0
}

/// Run a sharded simulation with per-item schedule tracing: returns the
/// report plus one single-item [`ScheduleTrace`] per global item (indexed
/// by item id), each independently checkable with
/// [`check_trace`](qc_replication::check_trace).
///
/// Tracing is observational — it draws nothing from any shard's RNG
/// stream — so the report is identical to [`run_sharded`]'s.
///
/// # Panics
///
/// Panics if the configuration fails [`MultiConfig::validate`].
#[must_use]
pub fn run_sharded_traced(config: &MultiConfig, threads: usize) -> (ShardReport, Vec<ScheduleTrace>) {
    let (report, traces, _) = run_sharded_inner(config, threads, true);
    (report, traces.expect("tracing was requested for every shard"))
}

/// [`run_sharded`] plus the elastic control plane's [`PlacementReport`]
/// (barrier load samples, migrations, per-segment wall clock). With a
/// non-elastic [`MultiConfig::placement`] the report carries only the
/// final per-shard item counts.
///
/// # Panics
///
/// Panics if the configuration fails [`MultiConfig::validate`].
#[must_use]
pub fn run_sharded_elastic(config: &MultiConfig, threads: usize) -> (ShardReport, PlacementReport) {
    let (report, _, placement) = run_sharded_inner(config, threads, false);
    (report, placement)
}

/// [`run_sharded_traced`] plus the [`PlacementReport`] — the form the
/// migration conformance suite drives: every migrated item's spliced
/// trace must still pass the generation-aware Theorem 10 checker.
///
/// # Panics
///
/// Panics if the configuration fails [`MultiConfig::validate`].
#[must_use]
pub fn run_sharded_elastic_traced(
    config: &MultiConfig,
    threads: usize,
) -> (ShardReport, Vec<ScheduleTrace>, PlacementReport) {
    let (report, traces, placement) = run_sharded_inner(config, threads, true);
    (
        report,
        traces.expect("tracing was requested for every shard"),
        placement,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum::Majority;

    fn base() -> MultiConfig {
        let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
        c.duration = SimTime::from_secs(2);
        c.seed = 7;
        c
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut c = base();
        c.items = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.shards = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.items = 3;
        c.shards = 4;
        assert!(c.validate().is_err());
        let mut c = base();
        c.clients_per_shard = 0;
        assert!(c.validate().is_err());
        // Fault plans use *global* client ids.
        let mut c = base();
        c.faults = FaultPlan::new().abort_at(SimTime::from_millis(1), c.clients());
        assert!(c.validate().is_err());
        assert!(base().validate().is_ok());
    }

    #[test]
    fn healthy_sharded_run_commits_on_every_item() {
        let report = run_sharded(&base(), 1);
        assert_eq!(report.metrics.lemma_violations, 0);
        assert_eq!(report.metrics.reads.availability(), 1.0);
        assert!(report.item_commits.iter().all(|&c| c > 0), "{:?}", report.item_commits);
        // Writes happened somewhere, so some item's version advanced.
        assert!(report.item_vns.iter().any(|&vn| vn > 0));
        assert_eq!(report.item_commits.len(), base().items);
    }

    #[test]
    fn zipfian_skews_commits_toward_the_head() {
        let mut c = base();
        c.items = 16;
        c.shards = 4;
        c.dist = ItemDist::Zipfian { theta: 0.99 };
        let report = run_sharded(&c, 1);
        assert_eq!(report.metrics.lemma_violations, 0);
        // Item 0 is the hottest; the tail item must see strictly less.
        assert!(
            report.item_commits[0] > 2 * report.item_commits[15],
            "head {} tail {}",
            report.item_commits[0],
            report.item_commits[15]
        );
    }

    #[test]
    fn open_loop_issues_ops_at_the_configured_rate() {
        let mut c = base();
        c.workload = Workload::Open {
            interarrival: SimTime::from_millis(10),
        };
        let report = run_sharded(&c, 1);
        // 2 s / 10 ms = ~200 arrivals per client, 8 clients.
        let attempts = report.metrics.reads.attempts + report.metrics.writes.attempts;
        assert!((1_400..=1_700).contains(&attempts), "attempts {attempts}");
        assert_eq!(report.metrics.lemma_violations, 0);
    }

    #[test]
    fn corrupt_fires_the_monitor_exactly_once_across_shards() {
        let mut c = base();
        c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(1), 0, 999, 123);
        let report = run_sharded(&c, 2);
        // One detection at injection time on the owning shard — not one
        // per shard.
        assert!(report.metrics.lemma_violations >= 1);
        assert!(report
            .metrics
            .violations
            .iter()
            .any(|v| v.contains("corrupt injection")));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let c = base();
        let plain = run_sharded(&c, 1);
        let (traced, traces) = run_sharded_traced(&c, 1);
        assert_eq!(plain.digest(), traced.digest());
        assert_eq!(traces.len(), c.items);
        // Per-item traces carry only that item's operations: commits seen
        // in the trace match the report's per-item tally.
        for (g, trace) in traces.iter().enumerate() {
            let commits = trace
                .events
                .iter()
                .filter(|e| matches!(e.action, TraceAction::Commit))
                .count() as u64;
            assert_eq!(commits, plain.item_commits[g], "item {g}");
        }
    }

    #[test]
    fn heap_oracle_matches_calendar_queue_across_threads() {
        let mut cal = base();
        cal.queue = QueueKind::Calendar;
        let mut heap = base();
        heap.queue = QueueKind::Heap;
        let reference = run_sharded(&cal, 1).digest();
        for threads in [1, 2, 4] {
            assert_eq!(run_sharded(&cal, threads).digest(), reference, "calendar t={threads}");
            assert_eq!(run_sharded(&heap, threads).digest(), reference, "heap t={threads}");
        }
    }

    #[test]
    fn validate_gates_dynamic_quorums() {
        use quorum::Weighted;
        // Scripted reconfig events require the policy enabled.
        let mut c = base();
        c.faults = FaultPlan::new().reconfig_at(SimTime::from_secs(1), ReconfigTarget::Live);
        assert!(c.validate().is_err());
        c.reconfig = ReconfigPolicy::scripted_only();
        assert!(c.validate().is_ok());
        // Dynamic quorums need a resizable (ROWA/majority) family.
        let mut c = MultiConfig::new(Arc::new(Weighted::new(vec![2, 1, 1], 3, 2)));
        c.reconfig = ReconfigPolicy::reactive();
        assert!(c.validate().is_err());
    }

    #[test]
    fn scripted_reconfig_applies_to_every_item() {
        use quorum::Rowa;
        let shrunk: ReplicaSet = [0usize, 1, 2].into_iter().collect();
        let mut c = MultiConfig::new(Arc::new(Rowa::new(5)));
        c.duration = SimTime::from_secs(2);
        c.seed = 7;
        c.read_fraction = 0.5;
        c.reconfig = ReconfigPolicy::scripted_only();
        c.faults = FaultPlan::new()
            .reconfig_at(SimTime::from_secs(1), ReconfigTarget::Members(shrunk));
        let report = run_sharded(&c, 2);
        // One reconfigure op per item.
        assert_eq!(report.metrics.reconfigurations, c.items as u64);
        assert_eq!(report.metrics.reconfig_failures, 0);
        assert!(report.metrics.stale_rejections > 0);
        assert_eq!(report.metrics.lemma_violations, 0, "{:?}", report.metrics.violations);
        assert!(report.item_commits.iter().all(|&n| n > 0));
    }

    #[test]
    fn reactive_reconfiguring_run_is_thread_count_invariant() {
        use quorum::Rowa;
        let mut c = MultiConfig::new(Arc::new(Rowa::new(5)));
        c.duration = SimTime::from_secs(4);
        c.seed = 11;
        c.read_fraction = 0.5;
        c.reconfig = ReconfigPolicy::reactive();
        c.faults = FaultPlan::new()
            .crash_at(SimTime::from_secs(1), 4)
            .recover_at(SimTime::from_secs(3), 4);
        let reference = run_sharded(&c, 1);
        assert!(reference.metrics.reconfigurations > 0);
        assert_eq!(
            reference.metrics.lemma_violations,
            0,
            "{:?}",
            reference.metrics.violations
        );
        let mut heap = c.clone();
        heap.queue = QueueKind::Heap;
        for threads in [2, 4] {
            assert_eq!(run_sharded(&c, threads).digest(), reference.digest(), "t={threads}");
        }
        assert_eq!(run_sharded(&heap, 1).digest(), reference.digest(), "heap");
    }

    #[test]
    fn shard_seeds_are_pairwise_distinct() {
        let seeds: Vec<u64> = (0..64).map(|s| shard_seed(42, s)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn static_placement_matches_explicit_round_robin_seed() {
        // `Static` is the digest-compat oracle: an explicit round-robin
        // seed with no rebalancing must be byte-identical to it.
        let fixed = run_sharded(&base(), 2);
        let mut seeded = base();
        seeded.placement = PlacementPolicy::Seeded(crate::placement::SeedPlacement::RoundRobin);
        assert_eq!(run_sharded(&seeded, 2).digest(), fixed.digest());
    }

    #[test]
    fn routed_workload_commits_at_the_aggregate_rate() {
        let mut c = base();
        c.items = 16;
        c.shards = 4;
        c.workload = Workload::Routed {
            interarrival: SimTime::from_millis(2),
        };
        let report = run_sharded(&c, 1);
        assert_eq!(report.metrics.lemma_violations, 0);
        // 2 s / 2 ms ≈ 1000 arrivals over the whole keyspace.
        let attempts = report.metrics.reads.attempts + report.metrics.writes.attempts;
        assert!((850..=1_050).contains(&attempts), "attempts {attempts}");
        assert!(report.item_commits.iter().all(|&n| n > 0), "{:?}", report.item_commits);
    }

    #[test]
    fn routed_zipfian_splits_arrivals_by_weight() {
        let mut c = base();
        c.items = 16;
        c.shards = 4;
        c.dist = ItemDist::Zipfian { theta: 0.99 };
        c.workload = Workload::Routed {
            interarrival: SimTime::from_millis(1),
        };
        let report = run_sharded(&c, 2);
        assert_eq!(report.metrics.lemma_violations, 0);
        assert!(
            report.item_commits[0] > 4 * report.item_commits[15],
            "head {} tail {}",
            report.item_commits[0],
            report.item_commits[15]
        );
    }

    #[test]
    fn validate_gates_elastic_placement() {
        use quorum::Rowa;
        // migrate@ events require elastic placement…
        let mut c = base();
        c.faults = FaultPlan::new().migrate_at(SimTime::from_secs(1), 1, 2);
        assert!(c.validate().is_err());
        // …and elastic placement requires reconfiguration enabled.
        c.placement = PlacementPolicy::Elastic(ElasticPolicy::new());
        assert!(c.validate().is_err());
        let mut c = MultiConfig::new(Arc::new(Rowa::new(5)));
        c.reconfig = ReconfigPolicy::scripted_only();
        c.placement = PlacementPolicy::Elastic(ElasticPolicy::new());
        c.faults = FaultPlan::new().migrate_at(SimTime::from_secs(1), 1, 2);
        assert!(c.validate().is_ok());
        // Out-of-range migrations are rejected.
        c.faults = FaultPlan::new().migrate_at(SimTime::from_secs(1), 99, 2);
        assert!(c.validate().is_err());
        c.faults = FaultPlan::new().migrate_at(SimTime::from_secs(1), 1, 99);
        assert!(c.validate().is_err());
        // The Corrupt negative control targets item 0's startup owner.
        c.faults = FaultPlan::new().corrupt_at(SimTime::from_secs(1), 0, 9, 9);
        assert!(c.validate().is_err());
        // A zero epoch would park the run forever.
        c.faults = FaultPlan::new();
        c.placement = PlacementPolicy::Elastic(ElasticPolicy {
            epoch: SimTime::ZERO,
            ..ElasticPolicy::new()
        });
        assert!(c.validate().is_err());
        // Routed workloads have no clients to abort.
        let mut c = base();
        c.workload = Workload::Routed {
            interarrival: SimTime::from_millis(1),
        };
        c.faults = FaultPlan::new().abort_at(SimTime::from_secs(1), 0);
        assert!(c.validate().is_err());
    }

    fn elastic_routed() -> MultiConfig {
        use quorum::Rowa;
        let mut c = MultiConfig::new(Arc::new(Rowa::new(5)));
        c.duration = SimTime::from_secs(2);
        c.seed = 7;
        c.items = 32;
        c.shards = 4;
        c.read_fraction = 0.5;
        c.dist = ItemDist::Zipfian { theta: 0.99 };
        c.workload = Workload::Routed {
            interarrival: SimTime(200),
        };
        c.reconfig = ReconfigPolicy::scripted_only();
        c.placement = PlacementPolicy::Elastic(ElasticPolicy {
            min_epoch_commits: 16,
            ..ElasticPolicy::new()
        });
        c
    }

    #[test]
    fn elastic_rebalancer_migrates_and_flattens_a_hot_range() {
        let (report, placement) = run_sharded_elastic(&elastic_routed(), 2);
        assert_eq!(report.metrics.lemma_violations, 0, "{:?}", report.metrics.violations);
        assert!(placement.migrations > 0, "{placement:?}");
        // The range seed starts shard 0 with the entire zipf head; moves
        // must spread ownership out.
        assert!(
            placement.final_counts.iter().all(|&n| n > 0),
            "final {:?}",
            placement.final_counts
        );
        let first = &placement.epochs[0];
        let last = placement.epochs.last().unwrap();
        let imbalance = |s: &EpochSample| {
            let max = *s.shard_commits.iter().max().unwrap() as f64;
            let total: u64 = s.shard_commits.iter().sum();
            max * s.shard_commits.len() as f64 / total.max(1) as f64
        };
        assert!(
            imbalance(last) < imbalance(first),
            "first {:?} last {:?}",
            first.shard_commits,
            last.shard_commits
        );
        // Each migration is a same-membership generation bump, observed by
        // coordinators as stale-generation retries.
        assert_eq!(report.metrics.reconfigurations, placement.migrations);
        assert!(report.metrics.stale_rejections > 0);
    }

    #[test]
    fn elastic_run_is_thread_and_queue_invariant() {
        let c = elastic_routed();
        let (reference, placement_ref) = run_sharded_elastic(&c, 1);
        assert!(placement_ref.migrations > 0);
        let mut heap = c.clone();
        heap.queue = QueueKind::Heap;
        for threads in [2, 4] {
            let (r, p) = run_sharded_elastic(&c, threads);
            assert_eq!(r.digest(), reference.digest(), "t={threads}");
            assert_eq!(p.digest(), placement_ref.digest(), "placement t={threads}");
        }
        let (r, p) = run_sharded_elastic(&heap, 1);
        assert_eq!(r.digest(), reference.digest(), "heap");
        assert_eq!(p.digest(), placement_ref.digest(), "placement heap");
    }

    #[test]
    fn scripted_migration_moves_exactly_the_named_item() {
        use quorum::Rowa;
        let mut c = MultiConfig::new(Arc::new(Rowa::new(5)));
        c.duration = SimTime::from_secs(2);
        c.seed = 7;
        c.items = 8;
        c.shards = 4;
        c.read_fraction = 0.5;
        c.reconfig = ReconfigPolicy::scripted_only();
        // Rebalancing off: only the scripted move fires at its barrier.
        c.placement = PlacementPolicy::Elastic(ElasticPolicy {
            seed: crate::placement::SeedPlacement::RoundRobin,
            max_moves_per_epoch: 0,
            ..ElasticPolicy::new()
        });
        c.faults = FaultPlan::new().migrate_at(SimTime::from_secs(1), 0, 3);
        let (report, placement) = run_sharded_elastic(&c, 2);
        assert_eq!(placement.migrations, 1, "{placement:?}");
        assert_eq!(placement.migration_failures, 0);
        // Item 0 left shard 0 (round-robin owner) for shard 3.
        assert_eq!(placement.final_counts, vec![1, 2, 2, 3]);
        assert_eq!(report.metrics.reconfigurations, 1);
        assert_eq!(report.metrics.lemma_violations, 0, "{:?}", report.metrics.violations);
        // Commits keep flowing to the item on its new shard.
        assert!(report.item_commits[0] > 0);
    }

    /// Slot reuse: item A is exported while its next `Arrival` and a
    /// `Retry` keyed to it are still queued, and item B is imported into
    /// the slot A vacated. Both of A's events must tombstone — B's
    /// counters stay untouched until B's own first arrival.
    #[test]
    fn events_of_a_departed_item_never_reach_the_slots_next_tenant() {
        let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
        c.items = 4;
        c.shards = 2;
        c.seed = 5;
        c.dist = ItemDist::Zipfian { theta: 0.99 };
        c.workload = Workload::Routed {
            interarrival: SimTime::from_millis(25),
        };
        c.duration = SimTime::from_secs(2);
        c.reconfig = ReconfigPolicy::scripted_only();
        c.placement = PlacementPolicy::Elastic(ElasticPolicy {
            seed: crate::placement::SeedPlacement::RoundRobin,
            max_moves_per_epoch: 0,
            ..ElasticPolicy::new()
        });
        // Every message is lost, so every attempt times out and parks
        // behind a queued retry (fences need no messages and still work).
        c.faults = FaultPlan::new().drop_window(SimTime::ZERO, c.duration, 1000);
        c.timeout = SimTime::from_millis(10);
        c.retry = RetryPolicy::retries(8, SimTime::from_millis(5));
        let step_scale = routed_step_scale(&c);
        let mut home = ShardSim::new(&c, 0, vec![0, 2], false, step_scale);
        let mut away = ShardSim::new(&c, 1, vec![1, 3], false, step_scale);
        // A is the hot item 0 (slot 0 at home), B the cold item 3.
        let (a, b) = (0usize, 3usize);
        let a_first = home.next_arrival_at_or_after(0, SimTime::ZERO).unwrap();
        home.run_to(a_first);
        home.sync_to(a_first);
        away.run_to(a_first);
        away.sync_to(a_first);
        assert!(home.pending.is_live(0), "A's first op is parked behind its retry");
        let a_next = home.next_arrival_at_or_after(0, a_first + SimTime(1)).unwrap();
        let a_retry = a_first + c.timeout + c.retry.backoff_before(2);
        assert!(a_retry < a_next, "the retry fires inside the window below");
        let queued = home.queue_len();

        let (exported, failed) = home.migrate_out_many(&[a]);
        assert_eq!((exported.len(), failed), (1, 0));
        assert_eq!(home.slot_of[a], NO_SLOT);
        assert_eq!(home.free.last(), Some(&0));
        // Exporting removed nothing from the queue: A's retry and next
        // arrival are still in it.
        assert_eq!(home.queue_len(), queued);
        let (imported, _) = away.migrate_out_many(&[b]);
        home.migrate_in_many(imported);
        assert_eq!(home.slot_of[b], 0, "B took the slot A vacated");
        assert_eq!(home.slot_global[0], b);
        let b_first = home.next_arrival_at_or_after(0, a_first + SimTime(1)).unwrap();
        assert!(
            b_first > a_next + SimTime::from_millis(1),
            "pick a seed whose cold item's next tick follows the hot item's: {b_first} vs {a_next}"
        );

        // Past A's retry and A's next arrival, short of B's first: both
        // of A's events are consumed, neither schedules anything.
        let reconfigs = home.metrics.reconfigurations;
        home.run_to(a_retry - SimTime(1));
        let before = home.queue_len();
        home.run_to(a_retry);
        assert_eq!(home.queue_len(), before - 1, "the retry tombstoned");
        home.run_to(a_next - SimTime(1));
        let before = home.queue_len();
        home.run_to(a_next);
        assert_eq!(home.queue_len(), before - 1, "the arrival tombstoned, no successor");
        home.run_to(a_next + SimTime::from_millis(1));
        assert!(!home.pending.is_live(0), "A's retry prodded B's slot");
        assert_eq!(home.op_counter[0], 0, "A's arrival started an op for B");
        assert_eq!(home.item_commits[0], 0);
        assert_eq!(home.arrived_at[0], NEVER);
        assert_eq!(home.metrics.reconfigurations, reconfigs);
        // B's own stream is intact.
        home.run_to(b_first);
        assert_eq!(home.op_counter[0], 1);
        assert_eq!(home.arrived_at[0], b_first);
        // And A went on elsewhere with its history.
        away.migrate_in_many(exported);
        let slot = away.slot_of[a] as usize;
        assert_eq!(away.op_counter[slot], 1, "A's op counter travels with it");
        assert_eq!(away.cur_gens[slot], 1, "one migration fence");
    }

    #[test]
    fn migrated_traces_pass_the_generation_aware_checker() {
        use qc_replication::check_trace;
        let c = elastic_routed();
        let (report, traces, placement) = run_sharded_elastic_traced(&c, 2);
        assert!(placement.migrations > 0);
        let (plain, placement_plain) = run_sharded_elastic(&c, 2);
        assert_eq!(report.digest(), plain.digest(), "tracing perturbed the run");
        assert_eq!(placement.digest(), placement_plain.digest());
        for (g, t) in traces.iter().enumerate() {
            if let Err(d) = check_trace(t, &*c.quorum) {
                panic!("item {g} failed Theorem 10 conformance: {d}");
            }
        }
    }
}
