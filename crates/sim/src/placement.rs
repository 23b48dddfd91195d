//! Elastic placement control plane for the sharded simulator: a placement
//! directory (item → shard), simulated-time load samples, and a
//! deterministic epoch rebalancer that migrates hot items between shards.
//!
//! # Why placement is a first-class object
//!
//! The sharded simulator scales linearly only while every shard's event
//! loop carries a comparable share of the arrival stream. A *routed*
//! zipfian workload over a *range* seed placement (contiguous key blocks,
//! the classic range-sharded store layout) concentrates the hot head of
//! the distribution on one shard: at θ = 0.9 over 10⁵ items, shard 0 of 8
//! receives ≈ 74% of all arrivals and the aggregate wall-clock throughput
//! collapses toward single-shard speed. The fix is the paper's own §4
//! machinery used as a performance tool — migrating an item from one
//! shard's DMs to another's **is** a reconfiguration (generation bump
//! installed at a configuration write quorum of the old configuration,
//! data refreshed at a write quorum of the new), so every move stays
//! visible to the generation-aware Theorem 10 checker and the Lemma 7/8
//! monitors.
//!
//! # Determinism contract
//!
//! Everything the rebalancer reads is a pure function of simulated time
//! and the configuration:
//!
//! * load samples are per-item commit deltas and per-shard queue depths
//!   taken at **simulated-time barriers** (epoch multiples and scripted
//!   `migrate@` times) — never wall-clock readings;
//! * the greedy move planner breaks every tie deterministically (lowest
//!   shard index, then highest delta, then lowest item id);
//! * migrations happen *between* epochs, with every shard parked at the
//!   same simulated instant, so the event order inside each shard is
//!   untouched by the thread count or queue implementation.
//!
//! Wall-clock durations are recorded per epoch for the perf experiment,
//! but they live outside [`PlacementReport::digest`], which hashes the
//! deterministic fields only.

use std::fmt::Write as _;

use crate::metrics::report_digest;
use crate::time::SimTime;

/// How the keyspace is laid out at simulated time zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedPlacement {
    /// Item `g` starts on shard `g % shards` — spreads a zipfian head
    /// evenly (the PR 4 behaviour, and the digest-compat oracle).
    RoundRobin,
    /// Contiguous blocks: shard `s` owns one range of consecutive ids
    /// (sized as evenly as the remainder allows). Under a zipfian routed
    /// workload this is the classic hot-range layout that collapses onto
    /// the shard owning the head.
    Range,
}

/// Parameters of the deterministic epoch rebalancer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElasticPolicy {
    /// Seed placement at time zero.
    pub seed: SeedPlacement,
    /// Rebalancing epoch: load is sampled and moves are planned at every
    /// multiple of this simulated interval.
    pub epoch: SimTime,
    /// Upper bound on items migrated per epoch (0 disables rebalancing
    /// while keeping the epoch barriers — the "rebalancing off" control
    /// arm of the experiments).
    pub max_moves_per_epoch: usize,
    /// Keep moving while the hottest shard's epoch load exceeds this
    /// multiple of the mean (1.05 = stop within 5% of flat).
    pub hot_ratio: f64,
    /// Epochs whose total commit delta is below this floor are ignored
    /// (no signal, no moves).
    pub min_epoch_commits: u64,
}

impl ElasticPolicy {
    /// Range seeding, 250 ms epochs, up to 64 moves per epoch, stop
    /// within 10% of flat, 64-commit noise floor.
    #[must_use]
    pub fn new() -> Self {
        ElasticPolicy {
            seed: SeedPlacement::Range,
            epoch: SimTime::from_millis(250),
            max_moves_per_epoch: 64,
            hot_ratio: 1.1,
            min_epoch_commits: 64,
        }
    }
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy::new()
    }
}

/// Item→shard placement policy of a sharded run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlacementPolicy {
    /// Round-robin, fixed for the whole run — byte-for-byte the PR 4
    /// behaviour, which every pinned digest and golden trace runs under.
    Static,
    /// A fixed seed layout with no rebalancing (e.g. `Range`, to record
    /// the skew-collapse baseline).
    Seeded(SeedPlacement),
    /// Seed layout plus the deterministic epoch rebalancer.
    Elastic(ElasticPolicy),
}

impl PlacementPolicy {
    /// The time-zero layout this policy starts from.
    #[must_use]
    pub fn seed_placement(&self) -> SeedPlacement {
        match *self {
            PlacementPolicy::Static => SeedPlacement::RoundRobin,
            PlacementPolicy::Seeded(s) => s,
            PlacementPolicy::Elastic(pol) => pol.seed,
        }
    }

    /// Whether items can move after time zero.
    #[must_use]
    pub fn is_elastic(&self) -> bool {
        matches!(self, PlacementPolicy::Elastic(_))
    }
}

/// The item→shard map: one `u32` owner per item, O(1) lookup on the
/// dispatch path (`benchmark/run.sh` times it as `placement.owner_of_ns`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementDirectory {
    shards: usize,
    owners: Vec<u32>,
}

impl PlacementDirectory {
    /// The directory seeded by `layout` over `items` items and `shards`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `items`.
    #[must_use]
    pub fn seed(items: usize, shards: usize, layout: SeedPlacement) -> Self {
        assert!(shards > 0 && shards <= items, "shards must be in 1..=items");
        let owners = match layout {
            SeedPlacement::RoundRobin => (0..items).map(|g| (g % shards) as u32).collect(),
            SeedPlacement::Range => {
                let base = items / shards;
                let rem = items % shards;
                let mut owners = Vec::with_capacity(items);
                for s in 0..shards {
                    let len = base + usize::from(s < rem);
                    owners.extend(std::iter::repeat_n(s as u32, len));
                }
                owners
            }
        };
        PlacementDirectory { shards, owners }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of items.
    #[must_use]
    pub fn items(&self) -> usize {
        self.owners.len()
    }

    /// The shard owning `item`.
    #[inline]
    #[must_use]
    pub fn owner_of(&self, item: usize) -> usize {
        self.owners[item] as usize
    }

    /// Reassign `item` to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn set_owner(&mut self, item: usize, shard: usize) {
        assert!(shard < self.shards, "shard {shard} out of range");
        self.owners[item] = shard as u32;
    }

    /// The items `shard` owns, ascending.
    #[must_use]
    pub fn owned_by(&self, shard: usize) -> Vec<usize> {
        self.owners
            .iter()
            .enumerate()
            .filter_map(|(g, &o)| (o as usize == shard).then_some(g))
            .collect()
    }

    /// Items per shard.
    #[must_use]
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards];
        for &o in &self.owners {
            counts[o as usize] += 1;
        }
        counts
    }

    /// The raw owner array (one entry per item).
    #[must_use]
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }
}

/// One planned item move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Global item id.
    pub item: usize,
    /// Shard the item leaves.
    pub from: usize,
    /// Shard the item joins.
    pub to: usize,
}

/// Plan this epoch's migrations: greedily move the hottest item of the
/// hottest shard to the coldest shard while that strictly lowers the
/// hottest shard's load, bounded by [`ElasticPolicy::max_moves_per_epoch`].
///
/// Deterministic by construction: loads are integers, shard ties resolve
/// to the lowest index, item ties to the lowest id, and the candidate
/// scan order is fixed by the directory — the same `(deltas, directory,
/// policy)` triple always yields the same move list.
///
/// # Panics
///
/// Panics if `deltas` has a different length than the directory.
#[must_use]
pub fn plan_moves(deltas: &[u64], dir: &PlacementDirectory, pol: &ElasticPolicy) -> Vec<Migration> {
    assert_eq!(
        deltas.len(),
        dir.items(),
        "delta vector must cover the keyspace"
    );
    let shards = dir.shards();
    let total: u64 = deltas.iter().sum();
    if pol.max_moves_per_epoch == 0 || total < pol.min_epoch_commits.max(1) {
        return Vec::new();
    }
    let mut load = vec![0u64; shards];
    for (g, &d) in deltas.iter().enumerate() {
        load[dir.owner_of(g)] += d;
    }
    let flat_target = pol.hot_ratio.max(1.0) * total as f64 / shards as f64;
    // Per-shard move candidates, hottest first (ties: lowest id first).
    let mut cands: Vec<Vec<(u64, usize)>> = vec![Vec::new(); shards];
    for (g, &d) in deltas.iter().enumerate() {
        if d > 0 {
            cands[dir.owner_of(g)].push((d, g));
        }
    }
    for list in &mut cands {
        list.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    }
    let mut cursor = vec![0usize; shards];
    let mut moves = Vec::new();
    while moves.len() < pol.max_moves_per_epoch {
        let (h, &hot) = load
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .expect("at least one shard");
        if (hot as f64) <= flat_target {
            break;
        }
        let (c, &cold) = load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
            .expect("at least one shard");
        // The hottest item on `h` that still fits under the hot shard's
        // load once landed on the coldest shard. Skipped items only get
        // harder to place as the spread narrows, so the cursor never
        // rewinds.
        let mut chosen = None;
        while let Some(&(d, g)) = cands[h].get(cursor[h]) {
            cursor[h] += 1;
            if cold + d < hot {
                chosen = Some((d, g));
                break;
            }
        }
        let Some((d, g)) = chosen else { break };
        load[h] -= d;
        load[c] += d;
        moves.push(Migration {
            item: g,
            from: h,
            to: c,
        });
    }
    moves
}

/// One load sample at a simulated-time barrier.
#[derive(Clone, Debug)]
pub struct EpochSample {
    /// The barrier's simulated instant.
    pub at: SimTime,
    /// Commits per shard since the previous barrier (attributed to the
    /// owner at sample time, before this barrier's moves).
    pub shard_commits: Vec<u64>,
    /// Pending-event count per shard at the barrier.
    pub queue_depths: Vec<u64>,
    /// Migrations applied at this barrier.
    pub moves: u64,
    /// Migrations that failed (reconfiguration infeasible) at this
    /// barrier; the item stays put and may be retried next epoch.
    pub move_failures: u64,
    /// Wall-clock nanoseconds the segment ending at this barrier took to
    /// execute. **Not** part of [`PlacementReport::digest`].
    pub wall_ns: u64,
}

/// What the elastic control plane did over a run.
#[derive(Clone, Debug, Default)]
pub struct PlacementReport {
    /// One sample per barrier, in simulated-time order (plus a final
    /// sample at the run's end).
    pub epochs: Vec<EpochSample>,
    /// Total migrations applied.
    pub migrations: u64,
    /// Total migration failures.
    pub migration_failures: u64,
    /// Items per shard at the end of the run.
    pub final_counts: Vec<usize>,
}

impl PlacementReport {
    /// FNV-1a digest over the deterministic fields (everything except the
    /// per-epoch wall-clock durations) — pinned by the elastic
    /// determinism suite next to [`ShardReport::digest`].
    ///
    /// [`ShardReport::digest`]: crate::ShardReport::digest
    #[must_use]
    pub fn digest(&self) -> u64 {
        report_digest(|h| {
            for e in &self.epochs {
                write!(
                    h,
                    "{}|{:?}|{:?}|{}|{};",
                    e.at.as_micros(),
                    e.shard_commits,
                    e.queue_depths,
                    e.moves,
                    e.move_failures
                )?;
            }
            write!(
                h,
                "#{}|{}|{:?}",
                self.migrations, self.migration_failures, self.final_counts
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_seed_matches_the_hardwired_modulo() {
        let dir = PlacementDirectory::seed(17, 4, SeedPlacement::RoundRobin);
        for g in 0..17 {
            assert_eq!(dir.owner_of(g), g % 4);
        }
        assert_eq!(dir.owned_by(1), vec![1, 5, 9, 13]);
    }

    #[test]
    fn range_seed_is_contiguous_and_covers_the_keyspace() {
        let dir = PlacementDirectory::seed(10, 3, SeedPlacement::Range);
        assert_eq!(dir.owned_by(0), vec![0, 1, 2, 3]);
        assert_eq!(dir.owned_by(1), vec![4, 5, 6]);
        assert_eq!(dir.owned_by(2), vec![7, 8, 9]);
        assert_eq!(dir.counts().iter().sum::<usize>(), 10);
    }

    #[test]
    fn plan_moves_flattens_a_hot_range() {
        // Shard 0 owns items 0..4 and carries nearly all the load.
        let dir = PlacementDirectory::seed(8, 2, SeedPlacement::Range);
        let deltas = [50, 30, 20, 10, 1, 1, 1, 1];
        let pol = ElasticPolicy {
            max_moves_per_epoch: 8,
            min_epoch_commits: 1,
            ..ElasticPolicy::new()
        };
        let moves = plan_moves(&deltas, &dir, &pol);
        assert!(!moves.is_empty());
        let mut load = [0u64; 2];
        let owner = |g: usize| {
            moves
                .iter()
                .find(|m| m.item == g)
                .map_or(dir.owner_of(g), |m| m.to)
        };
        for (g, &d) in deltas.iter().enumerate() {
            load[owner(g)] += d;
        }
        let spread = load.iter().max().unwrap() - load.iter().min().unwrap();
        assert!(spread <= 30, "load {load:?} after {moves:?}");
    }

    #[test]
    fn plan_moves_respects_caps_and_floors() {
        let dir = PlacementDirectory::seed(8, 2, SeedPlacement::Range);
        let deltas = [50, 30, 20, 10, 1, 1, 1, 1];
        let mut pol = ElasticPolicy {
            max_moves_per_epoch: 1,
            min_epoch_commits: 1,
            ..ElasticPolicy::new()
        };
        assert_eq!(plan_moves(&deltas, &dir, &pol).len(), 1);
        pol.max_moves_per_epoch = 0;
        assert!(plan_moves(&deltas, &dir, &pol).is_empty());
        pol.max_moves_per_epoch = 8;
        pol.min_epoch_commits = 1_000;
        assert!(
            plan_moves(&deltas, &dir, &pol).is_empty(),
            "below the noise floor"
        );
    }

    #[test]
    fn plan_moves_is_deterministic_and_leaves_balance_alone() {
        let dir = PlacementDirectory::seed(8, 4, SeedPlacement::RoundRobin);
        let deltas = [10, 10, 10, 10, 10, 10, 10, 10];
        let pol = ElasticPolicy {
            min_epoch_commits: 1,
            ..ElasticPolicy::new()
        };
        assert!(plan_moves(&deltas, &dir, &pol).is_empty(), "already flat");
        let dir = PlacementDirectory::seed(8, 2, SeedPlacement::Range);
        let deltas = [50, 30, 20, 10, 1, 1, 1, 1];
        let a = plan_moves(&deltas, &dir, &pol);
        let b = plan_moves(&deltas, &dir, &pol);
        assert_eq!(a, b);
    }

    #[test]
    fn placement_report_digest_ignores_wall_clock() {
        let mut a = PlacementReport {
            epochs: vec![EpochSample {
                at: SimTime::from_millis(250),
                shard_commits: vec![10, 2],
                queue_depths: vec![3, 1],
                moves: 1,
                move_failures: 0,
                wall_ns: 12345,
            }],
            migrations: 1,
            migration_failures: 0,
            final_counts: vec![3, 5],
        };
        let d = a.digest();
        a.epochs[0].wall_ns = 99999;
        assert_eq!(a.digest(), d, "wall clock must stay out of the digest");
        a.epochs[0].moves = 2;
        assert_ne!(a.digest(), d);
    }
}
