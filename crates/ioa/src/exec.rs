//! Seeded nondeterministic execution of a system, with invariant monitors.

use std::fmt;

use rand::Rng;

use crate::error::{IoaError, MonitorViolation};
use crate::schedule::Schedule;
use crate::system::System;

/// The result of running a system: the schedule that was performed.
///
/// (The underlying execution — the alternating state/operation sequence — is
/// recoverable for state-deterministic systems by replaying the schedule, so
/// we do not store state snapshots.)
#[derive(Clone, Debug)]
pub struct Execution<Op> {
    schedule: Schedule<Op>,
    quiescent: bool,
}

impl<Op> Execution<Op> {
    /// The schedule of this execution.
    pub fn schedule(&self) -> &Schedule<Op> {
        &self.schedule
    }

    /// Consume, yielding the schedule.
    pub fn into_schedule(self) -> Schedule<Op> {
        self.schedule
    }

    /// Whether the run ended because no output operation was enabled
    /// (as opposed to hitting the step bound).
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }
}

/// A policy selecting which enabled output operation fires next.
///
/// This is where the model's nondeterminism lives. The paper stresses that
/// its automata are deliberately loose (§3.1: a read-TM "simply invokes any
/// number of accesses to any of the DMs"); a policy may restrict the choice
/// (e.g. target one quorum) without affecting correctness, because every
/// operation performed still satisfies the automaton's preconditions.
pub trait Policy<Op> {
    /// Choose an index into `candidates` (non-empty), or `None` to stop the
    /// run early.
    fn choose(&mut self, candidates: &[Op], rng: &mut dyn rand::RngCore) -> Option<usize>;
}

/// Chooses uniformly at random among all enabled outputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformPolicy;

impl<Op> Policy<Op> for UniformPolicy {
    fn choose(&mut self, candidates: &[Op], rng: &mut dyn rand::RngCore) -> Option<usize> {
        Some(rng.gen_range(0..candidates.len()))
    }
}

/// Chooses according to caller-supplied weights.
///
/// Each candidate is weighted by a closure; a candidate of weight 0 is never
/// chosen unless all weights are 0 (in which case the choice is uniform).
/// Used, e.g., to make the serial scheduler's spontaneous `ABORT`s rare but
/// present.
pub struct WeightedPolicy<Op> {
    weight: Box<dyn FnMut(&Op) -> u32>,
}

impl<Op> fmt::Debug for WeightedPolicy<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeightedPolicy").finish_non_exhaustive()
    }
}

impl<Op> WeightedPolicy<Op> {
    /// Create a policy from a weight function.
    pub fn new(weight: impl FnMut(&Op) -> u32 + 'static) -> Self {
        WeightedPolicy {
            weight: Box::new(weight),
        }
    }
}

impl<Op> Policy<Op> for WeightedPolicy<Op> {
    fn choose(&mut self, candidates: &[Op], rng: &mut dyn rand::RngCore) -> Option<usize> {
        let weights: Vec<u64> = candidates.iter().map(|c| (self.weight)(c) as u64).collect();
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return Some(rng.gen_range(0..candidates.len()));
        }
        let mut t = rng.gen_range(0..total);
        for (i, w) in weights.iter().enumerate() {
            if t < *w {
                return Some(i);
            }
            t -= w;
        }
        unreachable!("weights sum to total")
    }
}

/// An invariant monitor, consulted after every step of a run.
///
/// Monitors turn the paper's lemmas into executable checks: after each step
/// they may inspect the whole system state (via downcasting) and the
/// schedule so far.
pub trait Monitor<Op> {
    /// Name for diagnostics.
    fn name(&self) -> String;

    /// Check the invariant after the step at index `step` (the last
    /// operation of `so_far`) has been performed on `system`.
    ///
    /// # Errors
    ///
    /// A description of the violation.
    fn check(
        &mut self,
        system: &System<Op>,
        so_far: &Schedule<Op>,
        step: usize,
    ) -> Result<(), String>;
}

/// A monitor built from a name and a closure.
pub struct FnMonitor<Op> {
    name: String,
    #[allow(clippy::type_complexity)]
    f: Box<dyn FnMut(&System<Op>, &Schedule<Op>, usize) -> Result<(), String>>,
}

impl<Op> fmt::Debug for FnMonitor<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnMonitor")
            .field("name", &self.name)
            .finish()
    }
}

impl<Op> FnMonitor<Op> {
    /// Create a monitor from a closure.
    pub fn new(
        name: impl Into<String>,
        f: impl FnMut(&System<Op>, &Schedule<Op>, usize) -> Result<(), String> + 'static,
    ) -> Self {
        FnMonitor {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl<Op> Monitor<Op> for FnMonitor<Op> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn check(
        &mut self,
        system: &System<Op>,
        so_far: &Schedule<Op>,
        step: usize,
    ) -> Result<(), String> {
        (self.f)(system, so_far, step)
    }
}

/// Runs a system by repeatedly selecting one enabled output operation.
///
/// The run stops when the system is quiescent (no output enabled), when the
/// step bound is reached, or when the policy declines to choose.
pub struct Executor<Op> {
    max_steps: usize,
    policy: Box<dyn Policy<Op>>,
    monitors: Vec<Box<dyn Monitor<Op>>>,
    reset_first: bool,
}

impl<Op> fmt::Debug for Executor<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("max_steps", &self.max_steps)
            .field("monitors", &self.monitors.len())
            .finish_non_exhaustive()
    }
}

impl<Op: Clone + fmt::Debug> Executor<Op> {
    /// A fresh executor: uniform policy, 10 000-step bound, reset on start.
    pub fn new() -> Self {
        Executor {
            max_steps: 10_000,
            policy: Box::new(UniformPolicy),
            monitors: Vec::new(),
            reset_first: true,
        }
    }

    /// Set the maximum number of steps to perform.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Replace the selection policy.
    pub fn policy(mut self, p: impl Policy<Op> + 'static) -> Self {
        self.policy = Box::new(p);
        self
    }

    /// Add an invariant monitor, checked after every step.
    pub fn monitor(mut self, m: impl Monitor<Op> + 'static) -> Self {
        self.monitors.push(Box::new(m));
        self
    }

    /// Continue from the system's current state instead of resetting first.
    pub fn resume(mut self) -> Self {
        self.reset_first = false;
        self
    }

    /// Run the system, returning the execution performed.
    ///
    /// # Errors
    ///
    /// * Step errors surfaced by the system (composition violations).
    /// * [`IoaError::Monitor`] as soon as any monitor's invariant fails.
    pub fn run(
        mut self,
        system: &mut System<Op>,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Execution<Op>, IoaError> {
        if self.reset_first {
            system.reset();
        }
        let mut schedule = Schedule::new();
        let mut quiescent = false;
        for step in 0..self.max_steps {
            let candidates = system.enabled_outputs();
            if candidates.is_empty() {
                quiescent = true;
                break;
            }
            let Some(i) = self.policy.choose(&candidates, rng) else {
                break;
            };
            let op = candidates[i].clone();
            system.step(&op)?;
            schedule.push(op);
            for m in &mut self.monitors {
                m.check(system, &schedule, step).map_err(|message| {
                    IoaError::Monitor(MonitorViolation {
                        monitor: m.name(),
                        step,
                        message,
                    })
                })?;
            }
        }
        Ok(Execution {
            schedule,
            quiescent,
        })
    }
}

impl<Op: Clone + fmt::Debug> Default for Executor<Op> {
    fn default() -> Self {
        Self::new()
    }
}
