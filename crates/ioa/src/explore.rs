//! Exhaustive exploration of a system's executions (small-scope model
//! checking).
//!
//! Random execution ([`Executor`](crate::Executor)) samples the schedule
//! space; [`explore`] enumerates it completely up to a depth bound, by
//! depth-first search over the enabled output operations of every state.
//! For small system instances this visits *every* reachable schedule, so a
//! property checked at every step is verified over the whole bounded
//! behaviour — the strongest executable form of the paper's theorems.
//!
//! State reconstruction on backtrack is checkpointed: the explorer
//! snapshots the system (via [`Component::clone_boxed`]) every *k* levels
//! and rebuilds intermediate states by replaying at most *k* operations
//! from the nearest snapshot, for ~O(b^d) total work for branching factor
//! `b`. The legacy strategy — replaying the whole path on a fresh system
//! from the caller-supplied factory, O(b^d · d) — remains available through
//! [`ReplayStrategy::FullReplay`] as a differential-testing oracle; both
//! strategies visit the same schedules and produce identical
//! [`ExploreStats`].
//!
//! [`Component::clone_boxed`]: crate::Component::clone_boxed

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::IoaError;
use crate::schedule::Schedule;
use crate::system::System;

/// Statistics from an exhaustive exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Schedules visited (every prefix counts once).
    pub schedules: u64,
    /// Maximal schedules reached (quiescent or at the depth bound).
    pub maximal: u64,
    /// Quiescent schedules (no output enabled at the end).
    pub quiescent: u64,
    /// Whether the depth bound was ever hit (if `false`, the enumeration
    /// covered the system's entire finite behaviour).
    pub truncated: bool,
}

/// Bounds for [`explore`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreLimits {
    /// Maximum schedule length.
    pub max_depth: usize,
    /// Abort the exploration after this many visited schedules.
    pub max_schedules: u64,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_depth: 40,
            max_schedules: 2_000_000,
        }
    }
}

/// How the explorer reconstructs the system state when it backtracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayStrategy {
    /// Rebuild from scratch: fresh system from the factory, replay the whole
    /// path. O(depth) steps per backtrack. Kept as the oracle for
    /// differential tests.
    FullReplay,
    /// Snapshot the system every `every` levels and replay at most
    /// `every - 1` operations from the nearest snapshot.
    Checkpoint {
        /// Snapshot interval in levels (≥ 1; 1 means snapshot every state
        /// and never replay).
        every: usize,
    },
}

impl Default for ReplayStrategy {
    /// Checkpoint every 4 levels: snapshots are O(state) like replayed
    /// steps, so a small interval amortises the snapshot cost while capping
    /// replay at 3 operations per backtrack.
    fn default() -> Self {
        ReplayStrategy::Checkpoint { every: 4 }
    }
}

/// Work counters from an exploration — how much effort went into state
/// reconstruction, for comparing [`ReplayStrategy`] choices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreProfile {
    /// Operations re-executed solely to rebuild state after backtracking
    /// (not counting first-visit steps).
    pub replayed_steps: u64,
    /// Snapshots taken (checkpoint strategy only).
    pub checkpoints_taken: u64,
    /// Snapshots restored (one per backtrack in checkpoint mode; fresh
    /// factory systems built in full-replay mode).
    pub restores: u64,
}

/// Why an exploration stopped early.
#[derive(Debug)]
pub enum ExploreError<E> {
    /// The property failed on some schedule.
    Property {
        /// The failing schedule.
        schedule: Vec<String>,
        /// The property's error.
        error: E,
    },
    /// A system step failed (composition error).
    Step(IoaError),
    /// The schedule budget was exhausted.
    Budget,
}

impl<E: fmt::Display> fmt::Display for ExploreError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Property { schedule, error } => {
                writeln!(f, "property failed: {error}")?;
                writeln!(f, "on schedule:")?;
                for (i, op) in schedule.iter().enumerate() {
                    writeln!(f, "  {i:>3}: {op}")?;
                }
                Ok(())
            }
            ExploreError::Step(e) => write!(f, "step failed during exploration: {e}"),
            ExploreError::Budget => write!(f, "schedule budget exhausted"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for ExploreError<E> {}

/// Exhaustively enumerate schedules of the system produced by `factory`,
/// invoking `check` on every visited schedule (including non-maximal
/// prefixes, with the live system state available).
///
/// `check` receives the system *after* the schedule has been performed and
/// a flag that is `true` when the schedule is maximal (quiescent or at the
/// depth bound).
///
/// # Errors
///
/// The first property failure (with its witness schedule), a step error,
/// or budget exhaustion.
pub fn explore<Op, E, F, C>(
    factory: F,
    limits: ExploreLimits,
    check: C,
) -> Result<ExploreStats, ExploreError<E>>
where
    Op: Clone + fmt::Debug,
    F: FnMut() -> System<Op>,
    C: FnMut(&System<Op>, &Schedule<Op>, bool) -> Result<(), E>,
{
    explore_pruned(factory, limits, |_| true, check)
}

/// Like [`explore`], but only following candidate operations that satisfy
/// `keep`. Pruning restricts the enumerated behaviour (e.g. dropping the
/// serial scheduler's spontaneous `ABORT`s tames the branching factor);
/// coverage claims then apply to the pruned behaviour.
///
/// # Errors
///
/// As for [`explore`].
pub fn explore_pruned<Op, E, F, P, C>(
    factory: F,
    limits: ExploreLimits,
    keep: P,
    check: C,
) -> Result<ExploreStats, ExploreError<E>>
where
    Op: Clone + fmt::Debug,
    F: FnMut() -> System<Op>,
    P: FnMut(&Op) -> bool,
    C: FnMut(&System<Op>, &Schedule<Op>, bool) -> Result<(), E>,
{
    explore_profiled(factory, limits, ReplayStrategy::default(), keep, check)
        .map(|(stats, _)| stats)
}

/// Rebuild `system` to the state after `path`, using the cheapest route the
/// strategy allows, and account the work in `profile`.
fn restore<Op, F>(
    system: &mut System<Op>,
    factory: &mut F,
    path: &[Op],
    strategy: ReplayStrategy,
    checkpoints: &mut Vec<(usize, System<Op>)>,
    profile: &mut ExploreProfile,
) -> Result<(), IoaError>
where
    Op: Clone + fmt::Debug,
    F: FnMut() -> System<Op>,
{
    let replay_from = match strategy {
        ReplayStrategy::FullReplay => {
            *system = factory();
            system.reset();
            0
        }
        ReplayStrategy::Checkpoint { .. } => {
            // Drop snapshots deeper than the restored depth; the shallowest
            // survivor is the depth-0 base, so `last()` always exists.
            while checkpoints.last().is_some_and(|&(d, _)| d > path.len()) {
                checkpoints.pop();
            }
            let (depth, snap) = checkpoints.last().expect("base checkpoint");
            *system = snap.snapshot();
            *depth
        }
    };
    profile.restores += 1;
    for op in &path[replay_from..] {
        system.step(op)?;
        profile.replayed_steps += 1;
    }
    Ok(())
}

/// [`explore_pruned`] with an explicit [`ReplayStrategy`], also returning
/// the state-reconstruction work counters. The strategy affects only *how*
/// states are rebuilt; the visited schedules, `check` invocations, and
/// resulting [`ExploreStats`] are identical across strategies.
///
/// # Errors
///
/// As for [`explore`].
pub fn explore_profiled<Op, E, F, P, C>(
    factory: F,
    limits: ExploreLimits,
    strategy: ReplayStrategy,
    keep: P,
    check: C,
) -> Result<(ExploreStats, ExploreProfile), ExploreError<E>>
where
    Op: Clone + fmt::Debug,
    F: FnMut() -> System<Op>,
    P: FnMut(&Op) -> bool,
    C: FnMut(&System<Op>, &Schedule<Op>, bool) -> Result<(), E>,
{
    explore_inner(factory, &[], limits, strategy, keep, check)
}

/// DFS over the subtree of schedules extending `prefix` (the whole tree
/// when `prefix` is empty). The prefix schedule itself counts as the
/// subtree's root: it is visited, checked, and included in the stats, so
/// the full tree's stats are `1` (empty schedule) plus the sum over the
/// root branches' subtrees.
fn explore_inner<Op, E, F, P, C>(
    mut factory: F,
    prefix: &[Op],
    limits: ExploreLimits,
    strategy: ReplayStrategy,
    mut keep: P,
    mut check: C,
) -> Result<(ExploreStats, ExploreProfile), ExploreError<E>>
where
    Op: Clone + fmt::Debug,
    F: FnMut() -> System<Op>,
    P: FnMut(&Op) -> bool,
    C: FnMut(&System<Op>, &Schedule<Op>, bool) -> Result<(), E>,
{
    if let ReplayStrategy::Checkpoint { every } = strategy {
        assert!(every >= 1, "checkpoint interval must be at least 1");
    }
    let mut stats = ExploreStats::default();
    let mut profile = ExploreProfile::default();
    let mut system = factory();
    system.reset();
    let mut path: Vec<Op> = prefix.to_vec();
    for op in prefix {
        system.step(op).map_err(ExploreError::Step)?;
    }
    // Snapshots along the current path. The base at the prefix depth always
    // survives: backtracking never descends below the prefix.
    let mut checkpoints: Vec<(usize, System<Op>)> = Vec::new();
    if matches!(strategy, ReplayStrategy::Checkpoint { .. }) {
        checkpoints.push((path.len(), system.snapshot()));
        profile.checkpoints_taken += 1;
    }
    let outs0: Vec<Op> = system
        .enabled_outputs()
        .into_iter()
        .filter(|o| keep(o))
        .collect();
    // Each stack frame: the candidate ops at this depth and the next index
    // to try.
    let mut stack: Vec<(Vec<Op>, usize)> = vec![(outs0, 0)];
    // Check the subtree's root schedule (empty when there is no prefix).
    stats.schedules += 1;
    let root_sched: Schedule<Op> = path.clone().into();
    let at_bound = path.len() >= limits.max_depth;
    let root_maximal = stack[0].0.is_empty() || at_bound;
    check(&system, &root_sched, root_maximal).map_err(|error| ExploreError::Property {
        schedule: path.iter().map(|op| format!("{op:?}")).collect(),
        error,
    })?;
    if root_maximal {
        stats.maximal += 1;
        if stack[0].0.is_empty() {
            stats.quiescent += 1;
        } else {
            stats.truncated = true;
        }
        return Ok((stats, profile));
    }

    while let Some((candidates, next)) = stack.last_mut() {
        if *next >= candidates.len() {
            // Exhausted this node; backtrack (never below the prefix).
            stack.pop();
            if path.len() > prefix.len() {
                path.pop();
                restore(
                    &mut system,
                    &mut factory,
                    &path,
                    strategy,
                    &mut checkpoints,
                    &mut profile,
                )
                .map_err(ExploreError::Step)?;
            }
            continue;
        }
        let op = candidates[*next].clone();
        *next += 1;
        system.step(&op).map_err(ExploreError::Step)?;
        path.push(op);
        stats.schedules += 1;
        if stats.schedules > limits.max_schedules {
            return Err(ExploreError::Budget);
        }

        let outs: Vec<Op> = system
            .enabled_outputs()
            .into_iter()
            .filter(|o| keep(o))
            .collect();
        let at_bound = path.len() >= limits.max_depth;
        let maximal = outs.is_empty() || at_bound;
        let sched: Schedule<Op> = path.clone().into();
        check(&system, &sched, maximal).map_err(|error| ExploreError::Property {
            schedule: path.iter().map(|op| format!("{op:?}")).collect(),
            error,
        })?;
        if maximal {
            stats.maximal += 1;
            if outs.is_empty() {
                stats.quiescent += 1;
            } else {
                stats.truncated = true;
            }
            // Leaf: undo this step.
            path.pop();
            restore(
                &mut system,
                &mut factory,
                &path,
                strategy,
                &mut checkpoints,
                &mut profile,
            )
            .map_err(ExploreError::Step)?;
        } else {
            if let ReplayStrategy::Checkpoint { every } = strategy {
                // Only interior nodes are worth snapshotting: a leaf is
                // undone immediately.
                if path.len().is_multiple_of(every) {
                    checkpoints.push((path.len(), system.snapshot()));
                    profile.checkpoints_taken += 1;
                }
            }
            stack.push((outs, 0));
        }
    }
    Ok((stats, profile))
}

/// [`explore_profiled`], parallelised by fanning the root branches of the
/// schedule tree across `threads` OS threads (`std::thread::scope`; no
/// thread-pool dependency). Each root-enabled operation defines an
/// independent subtree, explored by [`explore_profiled`]'s machinery with
/// that operation as a fixed prefix; per-branch results land at the
/// branch's index, so the merged [`ExploreStats`] / [`ExploreProfile`] are
/// deterministic — identical to the serial explorer's stats — regardless
/// of thread timing or count.
///
/// Because each worker needs its own system factory and property-checker
/// state, the caller passes *builders* (`factory_builder`, `check_builder`)
/// rather than the closures themselves; `keep` is shared read-only.
///
/// `limits.max_schedules` bounds each root subtree separately (a global
/// shared budget would make the outcome depend on thread timing).
///
/// # Errors
///
/// As for [`explore`]; when several branches fail, the error from the
/// lowest branch index is reported, mirroring serial DFS order.
pub fn explore_parallel<Op, E, FB, F, P, CB, C>(
    factory_builder: FB,
    limits: ExploreLimits,
    strategy: ReplayStrategy,
    keep: P,
    check_builder: CB,
    threads: usize,
) -> Result<(ExploreStats, ExploreProfile), ExploreError<E>>
where
    Op: Clone + fmt::Debug + Send,
    E: Send,
    FB: Fn() -> F + Sync,
    F: FnMut() -> System<Op>,
    P: Fn(&Op) -> bool + Sync,
    CB: Fn() -> C + Sync,
    C: FnMut(&System<Op>, &Schedule<Op>, bool) -> Result<(), E>,
{
    let threads = threads.max(1);
    // Visit the root (empty schedule) on the calling thread and collect
    // the branch operations.
    let mut factory = factory_builder();
    let mut system = factory();
    system.reset();
    let branches: Vec<Op> = system
        .enabled_outputs()
        .into_iter()
        .filter(|o| keep(o))
        .collect();
    let mut stats = ExploreStats {
        schedules: 1,
        ..ExploreStats::default()
    };
    let mut profile = ExploreProfile::default();
    let root_maximal = branches.is_empty();
    let mut check = check_builder();
    check(&system, &Schedule::new(), root_maximal).map_err(|error| ExploreError::Property {
        schedule: Vec::new(),
        error,
    })?;
    if root_maximal {
        stats.maximal += 1;
        stats.quiescent += 1;
        return Ok((stats, profile));
    }
    drop(check);
    drop(system);

    // Fan the branches over scoped workers. A shared atomic cursor hands
    // out branch indices; each worker writes its result into the slot for
    // that index, so merge order below is fixed by the branch order.
    let n = branches.len();
    type BranchResult<E> = Result<(ExploreStats, ExploreProfile), ExploreError<E>>;
    let work: Vec<Mutex<Option<Op>>> = branches
        .into_iter()
        .map(|op| Mutex::new(Some(op)))
        .collect();
    let results: Vec<Mutex<Option<BranchResult<E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let factory_builder = &factory_builder;
    let check_builder = &check_builder;
    let keep = &keep;
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let op = work[i]
                    .lock()
                    .expect("branch mutex")
                    .take()
                    .expect("each branch is claimed exactly once");
                let outcome = explore_inner(
                    factory_builder(),
                    std::slice::from_ref(&op),
                    limits,
                    strategy,
                    |o: &Op| keep(o),
                    check_builder(),
                );
                *results[i].lock().expect("result mutex") = Some(outcome);
            });
        }
    });

    for slot in results {
        let (s, p) = slot
            .into_inner()
            .expect("result mutex")
            .expect("every branch was processed")?;
        stats.schedules += s.schedules;
        stats.maximal += s.maximal;
        stats.quiescent += s.quiescent;
        stats.truncated |= s.truncated;
        profile.replayed_steps += p.replayed_steps;
        profile.checkpoints_taken += p.checkpoints_taken;
        profile.restores += p.restores;
    }
    Ok((stats, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{Channel, Producer, ToyOp};

    fn factory(n: u32, cap: usize) -> impl FnMut() -> System<ToyOp> {
        move || {
            let mut s = System::new();
            s.push(Box::new(Producer::new(n)));
            s.push(Box::new(Channel::new(cap)));
            s
        }
    }

    #[test]
    fn enumerates_all_interleavings() {
        // Producer of 2 items, channel cap 2: schedules are interleavings
        // of sends and deliveries with FIFO constraints. Complete behaviour
        // (depth bound generous): Catalan-like counting; just assert
        // exhaustiveness and sanity.
        let stats = explore(factory(2, 2), ExploreLimits::default(), |_, _, _| {
            Ok::<(), String>(())
        })
        .unwrap();
        assert!(!stats.truncated, "behaviour is finite");
        assert!(stats.quiescent >= 1);
        // s0 s1 d0 d1 / s0 d0 s1 d1: exactly 2 maximal interleavings.
        assert_eq!(stats.maximal, 2);
        assert_eq!(stats.quiescent, 2);
    }

    #[test]
    fn property_failure_reports_witness() {
        // Claim: the channel never delivers item 1. Exploration must find
        // the counterexample and report its schedule.
        let err = explore(factory(2, 2), ExploreLimits::default(), |_, sched, _| {
            if sched.iter().any(|op| matches!(op, ToyOp::Deliver(1))) {
                Err("item 1 delivered".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        match err {
            ExploreError::Property { schedule, error } => {
                assert_eq!(error, "item 1 delivered");
                assert!(schedule.iter().any(|s| s.contains("Deliver(1)")));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn depth_bound_truncates() {
        let stats = explore(
            factory(10, 10),
            ExploreLimits {
                max_depth: 3,
                max_schedules: 100_000,
            },
            |_, _, _| Ok::<(), String>(()),
        )
        .unwrap();
        assert!(stats.truncated);
        assert_eq!(stats.quiescent, 0);
    }

    #[test]
    fn budget_is_enforced() {
        let err = explore(
            factory(6, 6),
            ExploreLimits {
                max_depth: 12,
                max_schedules: 5,
            },
            |_, _, _| Ok::<(), String>(()),
        )
        .unwrap_err();
        assert!(matches!(err, ExploreError::Budget));
    }

    #[test]
    fn checkpointed_stats_match_full_replay() {
        for (n, cap) in [(2, 2), (3, 2), (4, 3)] {
            let (oracle, oracle_prof) = explore_profiled(
                factory(n, cap),
                ExploreLimits::default(),
                ReplayStrategy::FullReplay,
                |_| true,
                |_, _, _| Ok::<(), String>(()),
            )
            .unwrap();
            for every in [1, 2, 4, 7] {
                let (stats, prof) = explore_profiled(
                    factory(n, cap),
                    ExploreLimits::default(),
                    ReplayStrategy::Checkpoint { every },
                    |_| true,
                    |_, _, _| Ok::<(), String>(()),
                )
                .unwrap();
                assert_eq!(stats, oracle, "n={n} cap={cap} every={every}");
                // Checkpointing never replays more than full replay, and
                // strictly less whenever a snapshot lands inside the tree
                // (interval shorter than the tree depth).
                assert!(
                    prof.replayed_steps <= oracle_prof.replayed_steps,
                    "every={every}: {} replayed vs oracle {}",
                    prof.replayed_steps,
                    oracle_prof.replayed_steps
                );
                if every < 2 * n as usize {
                    assert!(
                        prof.replayed_steps < oracle_prof.replayed_steps,
                        "every={every}: {} replayed vs oracle {}",
                        prof.replayed_steps,
                        oracle_prof.replayed_steps
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoint_every_one_never_replays() {
        let (_, prof) = explore_profiled(
            factory(3, 3),
            ExploreLimits::default(),
            ReplayStrategy::Checkpoint { every: 1 },
            |_| true,
            |_, _, _| Ok::<(), String>(()),
        )
        .unwrap();
        assert_eq!(prof.replayed_steps, 0);
        assert!(prof.checkpoints_taken > 0);
    }

    #[test]
    fn default_explore_uses_checkpointing() {
        // explore() delegates to the default strategy; its stats must match
        // the full-replay oracle on the same system.
        let stats = explore(factory(3, 2), ExploreLimits::default(), |_, _, _| {
            Ok::<(), String>(())
        })
        .unwrap();
        let (oracle, _) = explore_profiled(
            factory(3, 2),
            ExploreLimits::default(),
            ReplayStrategy::FullReplay,
            |_| true,
            |_, _, _| Ok::<(), String>(()),
        )
        .unwrap();
        assert_eq!(stats, oracle);
    }

    #[test]
    fn parallel_matches_serial_stats() {
        for (n, cap) in [(2, 2), (3, 2), (4, 3)] {
            let (serial, _) = explore_profiled(
                factory(n, cap),
                ExploreLimits::default(),
                ReplayStrategy::default(),
                |_| true,
                |_, _, _| Ok::<(), String>(()),
            )
            .unwrap();
            for threads in [1, 2, 4] {
                for strategy in [ReplayStrategy::FullReplay, ReplayStrategy::default()] {
                    let (par, _) = explore_parallel(
                        || factory(n, cap),
                        ExploreLimits::default(),
                        strategy,
                        |_: &ToyOp| true,
                        || |_: &System<ToyOp>, _: &Schedule<ToyOp>, _| Ok::<(), String>(()),
                        threads,
                    )
                    .unwrap();
                    assert_eq!(
                        par, serial,
                        "n={n} cap={cap} threads={threads} strategy={strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_bounded_matches_serial_stats() {
        // Depth truncation must merge identically too.
        let limits = ExploreLimits {
            max_depth: 4,
            max_schedules: 1_000_000,
        };
        let (serial, _) = explore_profiled(
            factory(6, 4),
            limits,
            ReplayStrategy::default(),
            |_| true,
            |_, _, _| Ok::<(), String>(()),
        )
        .unwrap();
        assert!(serial.truncated);
        let (par, _) = explore_parallel(
            || factory(6, 4),
            limits,
            ReplayStrategy::default(),
            |_: &ToyOp| true,
            || |_: &System<ToyOp>, _: &Schedule<ToyOp>, _| Ok::<(), String>(()),
            3,
        )
        .unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn parallel_reports_property_failure() {
        let err = explore_parallel(
            || factory(2, 2),
            ExploreLimits::default(),
            ReplayStrategy::default(),
            |_: &ToyOp| true,
            || {
                |_: &System<ToyOp>, sched: &Schedule<ToyOp>, _| {
                    if sched.iter().any(|op| matches!(op, ToyOp::Deliver(1))) {
                        Err("item 1 delivered".to_string())
                    } else {
                        Ok(())
                    }
                }
            },
            4,
        )
        .unwrap_err();
        match err {
            ExploreError::Property { schedule, error } => {
                assert_eq!(error, "item 1 delivered");
                assert!(schedule.iter().any(|s| s.contains("Deliver(1)")));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn quiescent_empty_system() {
        let stats = explore(
            System::<ToyOp>::new,
            ExploreLimits::default(),
            |_, _, maximal| {
                assert!(maximal);
                Ok::<(), String>(())
            },
        )
        .unwrap();
        assert_eq!(stats.schedules, 1);
        assert_eq!(stats.maximal, 1);
    }
}
