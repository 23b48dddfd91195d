//! The sharded driver: deterministic parallel event loops over a keyspace
//! of independently replicated items.
//!
//! The single-item driver (`sim.rs`) models one replicated object. Real
//! deployments replicate many objects over the same sites, and the paper's
//! per-object correctness argument (Lemmas 7/8 hold for each object's
//! access sequence independently) is exactly what makes the workload
//! *shardable*: items never interact, so the keyspace can be partitioned
//! into shards, each shard driven by its own event loop, and the shards
//! executed on however many OS threads are available.
//!
//! The protocol — phases, quorum rule, fault application, reconfiguration,
//! the lemma monitor, the per-operation bookkeeping — is
//! [`crate::protocol`]'s, the same code the single-item driver runs with
//! one item. What is here is what only this driver has: [`MultiConfig`],
//! the event enum and its dispatch, item choice and the closed / open / routed
//! workloads, stable item slots and `walk`, migration and the elastic
//! barriers, and the merge of per-shard results.
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
//! Each shard's event loop is the single-item driver's: `pop_until(limit)`
//! on the calendar queue (heap oracle under `queue = QueueKind::Heap`),
//! the limit being the run's end or, under elastic placement, the next
//! barrier. At a barrier the queue answers `None` without taking the event
//! past it and accepts the migrations' pushes from the barrier on, so
//! parking a shard only moves its clock. Around it: the SoA
//! [`DmArena`](crate::DmArena) (`item slot·n + site`), the interned
//! `OpSlab`, the `u128` live-site bitset, and the reused phase response
//! buffer — no hashing, no per-operation allocation, no `Arc` traffic per
//! operation.

use std::fmt::Write as _;
use std::sync::Arc;

use quorum::{QuorumSpec, ReplicaSet};
use rand::Rng;

use qc_obs::{ObsOptions, ObsReport, Phase};
use qc_replication::ScheduleTrace;

use crate::faults::{FaultEvent, FaultPlan, ReconfigTarget, RetryPolicy};
use crate::latency::LatencyModel;
use crate::metrics::{report_digest, Metrics};
use crate::par::par_map;
use crate::placement::{
    plan_moves, ElasticPolicy, EpochSample, Migration, PlacementDirectory, PlacementPolicy,
    PlacementReport,
};
use crate::protocol::{
    validate, validate_times, Clients, Cluster, ClusterSpec, ContactPolicy, ItemExport, OpId,
    ReconfigPolicy, Then,
};
use crate::queue::{Events, QueueKind};
use crate::slab::PendingOp;
use crate::time::SimTime;

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

/// The most epoch barriers an elastic run may plan: [`MultiConfig::validate`]
/// rejects a duration / epoch ratio above it, since every barrier is an
/// entry in a list built up front and a parallel round over the shards.
pub const MAX_EPOCH_BARRIERS: u64 = 1_000_000;

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
        if let ItemDist::Zipfian { theta } = self.dist {
            if !(theta.is_finite() && theta >= 0.0) {
                return Err(format!("zipfian theta must be finite and >= 0, got {theta}"));
            }
        }
        let elastic = self.placement.is_elastic();
        let (quorum, clients) = (&*self.quorum, (self.shards, self.clients_per_shard));
        validate(quorum, &self.faults, &self.reconfig, clients, elastic, Some(self.read_fraction))?;
        let (Workload::Closed { think: pace }
        | Workload::Open { interarrival: pace }
        | Workload::Routed { interarrival: pace }) = self.workload;
        let spans = [("pace", pace), ("timeout", self.timeout), ("duration", self.duration)];
        validate_times(&self.latency, &self.retry, &self.reconfig, &spans)?;
        if elastic {
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
            for &(_, e) in self.faults.events() {
                let FaultEvent::Migrate { item, to } = e else { continue };
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
                let barriers = self.duration.0 / pol.epoch.0;
                if barriers > MAX_EPOCH_BARRIERS {
                    return Err(format!(
                        "duration {} over a rebalancing epoch of {} is {barriers} epoch \
                         barriers; at most {MAX_EPOCH_BARRIERS} fit",
                        self.duration, pol.epoch
                    ));
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
        Ok(())
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
        report_digest(|h| {
            write!(
                h,
                "{:?}|{:?}|{:?}",
                self.metrics, self.item_commits, self.item_vns
            )
        })
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
    /// Retry of a parked operation. `coord` is the shard-local client
    /// index in client-paced modes and the **global** item id under
    /// [`Workload::Routed`]; `epoch` is the coordinator's retry epoch at
    /// scheduling time. A migration aborts the in-flight op and bumps the
    /// epoch, so a retry queued before the barrier tombstones instead of
    /// prodding whatever op parks there next.
    Retry { coord: u32, epoch: u32 },
    SpyCheck,
    /// A routed arrival for global item `item`. Arrivals for items this
    /// shard no longer owns are tombstones (the new owner re-derives the
    /// same stream from `(seed, item, t)`).
    Arrival { item: usize },
}

// The queue stores events as they are: keep them two words.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

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
/// Every owned item lives in a **stable slot**: the cluster's per-item
/// columns and all per-item columns below are indexed by a slot number
/// that never shifts for as long as the item stays on this shard.
/// Exporting an item copies its state out and pushes the slot on `free`;
/// importing pops a free slot (or appends one) and writes the state in —
/// nothing else on the shard moves, so a migration barrier costs O(moves).
/// Without migrations slot order equals ascending global id; after one it
/// does not, so every walk whose order is observable goes through `walk`
/// (ascending global id) instead.
struct ShardSim<'a> {
    config: &'a MultiConfig,
    /// Global client id of this shard's first client.
    client_base: usize,
    events: Events<Event>,
    /// The sites and this shard's items, one cluster slot per item slot.
    cluster: Cluster,
    /// The coordinators' operations: one coordinator per client in
    /// client-paced modes, one per item slot under [`Workload::Routed`].
    ops: Clients,
    /// Cached `(generation, members)` per coordinator per item slot:
    /// indexed `slot · clients_per_shard + client` in client-paced modes
    /// (so a fresh slot appends one row), and just `slot` under
    /// [`Workload::Routed`] (one coordinator per item).
    /// A migrated-in item starts at `(0, full)`, so its first operation at
    /// the new owner is stale-rejected and adopts the current generation —
    /// the §4 stale-retry made visible to the conformance checker.
    client_cfg: Vec<(u64, ReplicaSet)>,
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
    item_commits: Vec<u64>,
    op_counter: Vec<u64>,
    /// Per-coordinator retry epoch (see [`Event::Retry`]); bumped when a
    /// barrier abort invalidates the coordinator's parked retry.
    retry_epoch: Vec<u32>,
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
        let mut cluster = Cluster::new(ClusterSpec {
            quorum: Arc::clone(&config.quorum),
            latency: config.latency,
            contact: config.contact,
            timeout: config.timeout,
            seed: config.seed,
            rng_seed: shard_seed(config.seed, shard),
            plan: config.faults.shard_view(client_base, client_base + cps, owns_item0),
            reconfig: config.reconfig,
            retry: config.retry,
            monitor: config.monitor,
            slots,
        });
        if traced {
            cluster.attach_recorders();
        }
        let slot_global: Vec<usize> =
            global_items.into_iter().chain(std::iter::repeat(FREE)).take(slots).collect();
        let mut walk = Vec::with_capacity(slots);
        walk.extend(0..local as u32);
        let mut sim = ShardSim {
            config,
            client_base,
            events: Events::new(config.queue),
            cluster,
            ops: Clients::new(coords, &config.obs, shard as u32),
            client_cfg: vec![(0, ReplicaSet::full(n)); if routed { slots } else { slots * cps }],
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
            item_commits: vec![0; slots],
            op_counter: vec![0; coords],
            retry_epoch: vec![0; coords],
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
                // Stagger client starts to avoid phase lock.
                let jitter = SimTime(sim.cluster.rng.gen_range(0..1_000));
                sim.schedule(jitter, Event::OpStart { client: c });
            }
        }
        for idx in 0..sim.cluster.cfg.plan.len() {
            let at = sim.cluster.cfg.plan.events()[idx].0;
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

    fn dispatch(&mut self, e: Event) {
        match e {
            Event::OpStart { client } => self.handle_op(client),
            Event::Retry { coord, epoch } => self.handle_retry(coord as usize, epoch),
            Event::PlanFault { idx } => {
                // A scripted reconfiguration applies to every item; shards
                // execute it for the items they own, in item order.
                if let Some(target) = self.ops.plan_fault(&mut self.cluster, idx) {
                    self.refresh_walk();
                    for i in 0..self.walk.len() {
                        self.reconfigure_slot(self.walk[i] as usize, target, true, false);
                    }
                }
            }
            Event::SpyCheck => {
                let failing = self.ops.failure_signal_rose();
                self.refresh_walk();
                for i in 0..self.walk.len() {
                    let slot = self.walk[i] as usize;
                    if self.cluster.wants_reconfig(slot, failing) {
                        self.reconfigure_slot(slot, ReconfigTarget::Live, false, false);
                    }
                }
                self.schedule(self.config.reconfig.poll, Event::SpyCheck);
            }
            Event::Arrival { item } => self.handle_arrival(item),
        }
    }

    /// One reconfigure op on the item in `slot`; whether it installed. Its
    /// TM is named by the new generation, which is monotone per item, so
    /// the names in an item's trace stay unique even when migrations
    /// splice the trace across shards (a per-shard counter would not).
    fn reconfigure_slot(
        &mut self,
        slot: usize,
        target: ReconfigTarget,
        scripted: bool,
        allow_same: bool,
    ) -> bool {
        let (global, tm_op) = (Some(self.slot_global[slot]), self.cluster.gen(slot) + 1);
        self.ops.run_reconfigure(&mut self.cluster, slot, global, tm_op, target, scripted, allow_same)
    }

    /// A queued retry of coordinate `coord` fires; a stale epoch — or,
    /// under Routed, an item that migrated away — tombstones (the op it
    /// named was aborted at a barrier).
    fn handle_retry(&mut self, coord: usize, epoch: u32) {
        let slot = if self.routed {
            match self.slot_of[coord] {
                NO_SLOT => return,
                slot => slot as usize,
            }
        } else {
            coord
        };
        if self.retry_epoch[slot] != epoch {
            return;
        }
        self.attempt_op(slot);
    }

    /// Fire every event at `t ≤ limit` (events at exactly `limit` fire),
    /// in `(time, seq)` order; the queue keeps everything later.
    fn run_to(&mut self, limit: SimTime) {
        while let Some((t, e)) = self.events.pop_until(limit) {
            // Snapshot boundaries fire before the event at `t`.
            self.ops.fire_snapshots_through(t);
            self.cluster.now = t;
            self.dispatch(e);
        }
    }

    /// Park the shard at barrier instant `t`: all events ≤ `t` have
    /// already fired via [`run_to`](Self::run_to), so only the clock and
    /// any due snapshot boundaries move. Migrations applied while parked
    /// are stamped at the barrier.
    fn sync_to(&mut self, t: SimTime) {
        self.ops.fire_snapshots_through(t);
        self.cluster.now = t;
    }

    /// Pending-event count (the queue-depth load signal at a barrier).
    fn queue_len(&self) -> usize {
        self.events.len()
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
        self.ops.fire_snapshots_through(self.config.duration);
        self.cluster.now = self.config.duration;
        // Every owned item's stores must satisfy the lemmas at quiescence.
        self.refresh_walk();
        for &slot in &self.walk {
            let slot = slot as usize;
            self.ops.final_check(&mut self.cluster, slot, Some(self.slot_global[slot]));
        }
        let items = self
            .walk
            .iter()
            .map(|&s| {
                let s = s as usize;
                (self.slot_global[s], self.item_commits[s], self.cluster.current_vn(s))
            })
            .collect();
        let traces = self.cluster.take_recorders().map(|recorders| {
            self.slot_global
                .iter()
                .zip(recorders)
                .filter(|(&g, _)| g != FREE)
                .map(|(&g, r)| (g, r.finish()))
                .collect()
        });
        ShardOutcome {
            metrics: self.ops.metrics,
            items,
            traces,
            obs: self.ops.obs,
        }
    }

    /// Draw the item (slot) of the next operation from the shard's slice
    /// of the keyspace (one uniform draw + binary search on the cumulative
    /// weights, which run over `walk`).
    fn draw_item(&mut self) -> usize {
        let u: f64 = self.cluster.rng.gen_range(0.0..self.total_weight);
        let i = self.cum_weights.partition_point(|&c| c <= u);
        self.walk[i.min(self.cum_weights.len() - 1)] as usize
    }

    /// Coordinator `key`'s operation on the item in slot `item`, in the
    /// names observers see. The coordinator's *global* identity — drop
    /// coins, trace transaction names, causal ids, violation op-refs — is
    /// the global client id in client-paced modes and the global item id
    /// under Routed (deterministic across placements — a migrated item
    /// keeps its coordinate).
    #[inline]
    fn op_id(&self, key: usize, item: usize) -> OpId {
        let coord = if self.routed { self.slot_global[key] } else { self.client_base + key };
        OpId { coord, item: Some(self.slot_global[item]) }
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
        let now = self.cluster.now;
        // An item that left and came back before its queued arrival fired
        // has two arrivals for the same tick here: the one queued before
        // it left and the one rescheduled at import. The second is a
        // tombstone too — it starts no op and schedules no successor,
        // or the item's stream would run twice from here on.
        if self.arrived_at[slot] == now {
            return;
        }
        self.arrived_at[slot] = now;
        // Arrivals are unconditional (open loop): schedule the successor
        // before deciding what to do with this one.
        if let Some(at) = self.next_arrival_at_or_after(slot, now + SimTime(1)) {
            self.schedule(at - now, Event::Arrival { item: g });
        }
        if self.ops.pending.is_live(slot) {
            return;
        }
        let is_read = self.cluster.rng.gen_bool(self.config.read_fraction);
        let op_index = self.op_counter[slot];
        self.op_counter[slot] += 1;
        // Values are unique per item across the whole run: the counter
        // migrates with the item, and the prefix is its global id.
        let value = g as u64 * 1_000_000 + op_index + 1;
        self.ops.pending.put(slot, PendingOp::begin(slot, is_read, value, op_index, now));
        self.attempt_op(slot);
    }

    /// Start a fresh logical operation for local `client`.
    fn handle_op(&mut self, client: usize) {
        if let Workload::Open { interarrival } = self.config.workload {
            // Arrivals are unconditional in an open loop; schedule the next
            // one before deciding what to do with this one.
            self.schedule(interarrival.max(SimTime(1)), Event::OpStart { client });
            if self.ops.pending.is_live(client) {
                // Client still retrying a previous operation: it absorbs
                // this arrival (saturation).
                return;
            }
        }
        if self.owned() == 0 {
            // Every item migrated away; park the client until one arrives
            // (open-loop arrivals keep polling on their own).
            self.next_op(client, SimTime::ZERO, SimTime(1));
            return;
        }
        let item = self.draw_item();
        let is_read = self.cluster.rng.gen_bool(self.config.read_fraction);
        let op_index = self.op_counter[client];
        self.op_counter[client] += 1;
        // A value unique across the whole run (all shards), so per-item
        // histories identify writes.
        let value = (self.client_base + client) as u64 * 1_000_000 + op_index + 1;
        let op = PendingOp::begin(item, is_read, value, op_index, self.cluster.now);
        self.ops.pending.put(client, op);
        self.attempt_op(client);
    }

    /// Closed-loop pacing: the coordinator's next operation starts
    /// `max(after + think, floor)` from now. Open-loop arrivals are
    /// unconditional, so there is nothing to schedule for them here.
    fn next_op(&mut self, client: usize, after: SimTime, floor: SimTime) {
        if let Workload::Closed { think } = self.config.workload {
            self.schedule((after + think).max(floor), Event::OpStart { client });
        }
    }

    /// Run one attempt of coordinator `key`'s pending operation and
    /// schedule what follows it.
    fn attempt_op(&mut self, key: usize) {
        let Some(op) = self.ops.pending.take(key) else { return };
        let id = self.op_id(key, op.item);
        let idx = self.cfg_idx(key, op.item);
        let cache = self.config.reconfig.enabled.then(|| &mut self.client_cfg[idx]);
        match self.ops.run_attempt(&mut self.cluster, key, id, op, cache) {
            Then::Retry { delay } => {
                // The coordinate a retry names survives a migration: the
                // global item id under Routed.
                let coord = if self.routed { self.slot_global[key] } else { key };
                let epoch = self.retry_epoch[key];
                self.schedule(delay, Event::Retry { coord: coord as u32, epoch });
            }
            Then::Next { after, floor, commit } => {
                if commit.is_some() {
                    self.item_commits[op.item] += 1;
                }
                self.next_op(key, after, floor);
            }
        }
    }

    /// Abort coordinator `key`'s parked op at a migration barrier (see
    /// [`Clients::fence_parked`]). Bumping the retry epoch tombstones the
    /// op's queued retry; a closed-loop client moves on.
    fn abort_parked(&mut self, key: usize) {
        let Some(item) = self.ops.pending.get(key).map(|op| op.item) else { return };
        let id = self.op_id(key, item);
        self.ops.fence_parked(&mut self.cluster, key, id);
        self.retry_epoch[key] += 1;
        self.next_op(key, SimTime::ZERO, SimTime(1));
    }

    /// Export the global items `gs` to other shards in one batch: install
    /// the §4 generation bump over each item's *unchanged* membership (the
    /// migration fence every coordinator must observe) in planner order,
    /// abort any parked op on a fenced item, then copy each fenced item's
    /// state out of its slot and free the slot. Returns the states
    /// (ascending by global id) plus the number of items whose fence was
    /// infeasible under the current fault state — those stay put, their
    /// failures already counted by [`reconfigure_slot`](Self::reconfigure_slot).
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
            let members = self.cluster.members(slot);
            if self.reconfigure_slot(slot, ReconfigTarget::Members(members), true, true) {
                if self.config.obs.spans {
                    // One marker per item actually fenced for export (the
                    // fence itself was counted as reconfig_fence above).
                    self.ops.obs.spans.record(Phase::Migration, 0);
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
                if self.ops.pending.get(c).is_some_and(|op| slots.contains(&op.item)) {
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
        debug_assert!(!self.routed || self.ops.is_idle(slot));
        ItemState {
            global,
            core: self.cluster.export(slot),
            commits: self.item_commits[slot],
            op_count: if self.routed { self.op_counter[slot] } else { 0 },
            retry_epoch: if self.routed { self.retry_epoch[slot] } else { 0 },
            step: if self.routed { self.step[slot] } else { 0.0 },
        }
    }

    /// Append one vacant slot to every per-slot column and return its
    /// index (the caller occupies it at once; the DM arena grows when the
    /// block is written).
    fn push_slot(&mut self) -> usize {
        let slot = self.slot_global.len();
        let n = self.cluster.n;
        self.slot_global.push(FREE);
        self.cluster.push_slot();
        self.item_commits.push(0);
        self.prev_commits.push(0);
        if self.routed {
            self.client_cfg.push((0, ReplicaSet::full(n)));
            self.step.push(0.0);
            self.arrived_at.push(NEVER);
            self.op_counter.push(0);
            self.retry_epoch.push(0);
            self.ops.push_coord();
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
        let n = self.cluster.n;
        self.slot_global[slot] = st.global;
        self.slot_of[st.global] = slot as u32;
        self.walk_stale = true;
        self.cluster.import(slot, st.core);
        self.item_commits[slot] = st.commits;
        // The barrier sampled before it moved anything.
        self.prev_commits[slot] = st.commits;
        if self.routed {
            self.client_cfg[slot] = (0, ReplicaSet::full(n));
            self.step[slot] = st.step;
            self.arrived_at[slot] = NEVER;
            // No forced-abort flag names a routed slot: Routed forbids
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
            let now = self.cluster.now;
            if let Some(at) = self.next_arrival_at_or_after(slot, now + SimTime(1)) {
                self.schedule(at - now, Event::Arrival { item });
            }
        }
        self.rebuild_draw_table();
    }
}

/// One item's complete simulation state, in flight between two shards at
/// a migration barrier: what the protocol knows about it, plus what this
/// driver keeps per item.
struct ItemState {
    /// Global item id.
    global: usize,
    /// The item's DM slots, lemma monitor, committed configuration,
    /// reconfigure budget and trace recorder.
    core: ItemExport,
    /// Committed operations so far (feeds the cumulative load tallies).
    commits: u64,
    /// Routed-mode per-item operation counter (0 in client modes).
    op_count: u64,
    /// Routed-mode retry epoch (0 in client modes).
    retry_epoch: u32,
    /// Routed-mode arrival period in µs (0 in client modes).
    step: f64,
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
        use qc_replication::TraceAction;
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
        assert!(home.ops.pending.is_live(0), "A's first op is parked behind its retry");
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
        let reconfigs = home.ops.metrics.reconfigurations;
        home.run_to(a_retry - SimTime(1));
        let before = home.queue_len();
        home.run_to(a_retry);
        assert_eq!(home.queue_len(), before - 1, "the retry tombstoned");
        home.run_to(a_next - SimTime(1));
        let before = home.queue_len();
        home.run_to(a_next);
        assert_eq!(home.queue_len(), before - 1, "the arrival tombstoned, no successor");
        home.run_to(a_next + SimTime::from_millis(1));
        assert!(!home.ops.pending.is_live(0), "A's retry prodded B's slot");
        assert_eq!(home.op_counter[0], 0, "A's arrival started an op for B");
        assert_eq!(home.item_commits[0], 0);
        assert_eq!(home.arrived_at[0], NEVER);
        assert_eq!(home.ops.metrics.reconfigurations, reconfigs);
        // B's own stream is intact.
        home.run_to(b_first);
        assert_eq!(home.op_counter[0], 1);
        assert_eq!(home.arrived_at[0], b_first);
        // And A went on elsewhere with its history.
        away.migrate_in_many(exported);
        let slot = away.slot_of[a] as usize;
        assert_eq!(away.op_counter[slot], 1, "A's op counter travels with it");
        assert_eq!(away.cluster.gen(slot), 1, "one migration fence");
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
