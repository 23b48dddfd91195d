//! Composition of I/O automata into a system.

use std::any::Any;
use std::fmt;

use crate::component::{Component, OpClass};
use crate::error::IoaError;
use crate::schedule::Schedule;

/// A system: the composition of a set of I/O automata (§2.1).
///
/// The composition requirement is that the components' output-operation sets
/// be disjoint, so every output operation of the system is triggered by
/// exactly one component. A state of the composition is the tuple of
/// component states; an operation `π` is performed by every component that
/// has `π` in its signature, while the rest stay put.
///
/// `System` holds the composed automaton's *current* state (as the tuple of
/// its components' current states) and offers stepping, random execution via
/// [`Executor`](crate::Executor), and schedule-membership checking
/// ([`System::replay`]).
pub struct System<Op> {
    components: Vec<Box<dyn Component<Op>>>,
    /// Each component's [`name`](Component::name), read once when it is
    /// pushed, so a lookup by name allocates nothing.
    names: Vec<String>,
    /// Scratch for [`System::step`]: each component's classification of
    /// the operation being performed. Not part of the state.
    classes: Vec<OpClass>,
}

impl<Op> fmt::Debug for System<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("components", &self.names)
            .finish()
    }
}

impl<Op: Clone + fmt::Debug> System<Op> {
    /// Create an empty system.
    pub fn new() -> Self {
        System {
            components: Vec::new(),
            names: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// Add a component automaton to the composition.
    pub fn push(&mut self, c: Box<dyn Component<Op>>) {
        self.names.push(c.name());
        self.components.push(c);
    }

    /// Number of component automata.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the system has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Where the component called `name` is, if present.
    fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Borrow a component by name, if present.
    pub fn component(&self, name: &str) -> Option<&dyn Component<Op>> {
        self.position(name).map(|i| self.components[i].as_ref())
    }

    /// Borrow and downcast a component's concrete type by name.
    ///
    /// Used by invariant monitors that inspect concrete automaton states
    /// (e.g. every data manager's version number, for Lemma 7).
    pub fn component_as<T: Any>(&self, name: &str) -> Option<&T> {
        self.component(name).and_then(|c| c.as_any().downcast_ref())
    }

    /// Mutably borrow and downcast a component's concrete type by name:
    /// the counterpart of [`component_as`](System::component_as), for a
    /// caller that drives the automaton's own methods between steps.
    pub fn component_as_mut<T: Any>(&mut self, name: &str) -> Option<&mut T> {
        let i = self.position(name)?;
        self.components[i].as_any_mut().downcast_mut()
    }

    /// Iterate over components together with their downcast states.
    pub fn components_as<T: Any>(&self) -> impl Iterator<Item = (String, &T)> {
        self.components
            .iter()
            .filter_map(|c| c.as_any().downcast_ref().map(|t| (c.name(), t)))
    }

    /// A deep copy of the system in its current state, each component
    /// cloned via [`Component::clone_boxed`].
    ///
    /// Snapshots are what make checkpointed exploration
    /// ([`explore_pruned`](crate::explore_pruned)) replay-free: restoring a
    /// snapshot is O(state), independent of how many steps produced it.
    pub fn snapshot(&self) -> System<Op> {
        System {
            components: self.components.iter().map(|c| c.clone_boxed()).collect(),
            names: self.names.clone(),
            classes: Vec::new(),
        }
    }

    /// Return every component to its start state.
    pub fn reset(&mut self) {
        for c in &mut self.components {
            c.reset();
        }
    }

    /// All output operations enabled in the current state, over all
    /// components. Duplicates are possible only if the composition is
    /// ill-formed (overlapping output sets), which [`System::step`] reports.
    pub fn enabled_outputs(&self) -> Vec<Op> {
        let mut out = Vec::new();
        for c in &self.components {
            out.extend(c.enabled_outputs());
        }
        out
    }

    /// Perform one step of the composed automaton, labelled `op`.
    ///
    /// Every component that has `op` in its signature takes its step; the
    /// others stay in the same state. `op` must be the output of exactly one
    /// component (this crate works with *closed* systems, in which the
    /// environment is itself modelled as a component, so system inputs do
    /// not arise).
    ///
    /// # Errors
    ///
    /// * [`IoaError::NoOutputOwner`] / [`IoaError::AmbiguousOutput`] if the
    ///   output-disjointness requirement is violated.
    /// * [`IoaError::StepRefused`] if the owning component does not have the
    ///   operation enabled. The system state is left unchanged in this case.
    pub fn step(&mut self, op: &Op) -> Result<(), IoaError> {
        // One classification per component, kept for the delivery pass in
        // a buffer that lives as long as the system.
        self.classes.clear();
        self.classes
            .extend(self.components.iter().map(|c| c.classify(op)));
        let mut owners = (0..self.classes.len()).filter(|&i| self.classes[i].is_output());
        let Some(owner) = owners.next() else {
            return Err(IoaError::NoOutputOwner {
                op: format!("{op:?}"),
            });
        };
        if let Some(second) = owners.next() {
            return Err(IoaError::AmbiguousOutput {
                op: format!("{op:?}"),
                owners: [owner, second]
                    .into_iter()
                    .chain(owners)
                    .map(|i| self.components[i].name())
                    .collect(),
            });
        }
        let refused = |c: &dyn Component<Op>, reason| IoaError::StepRefused {
            component: c.name(),
            op: format!("{op:?}"),
            reason,
            at: None,
        };
        // Apply to the owner first so that a refusal leaves inputs unsent.
        let c = &mut self.components[owner];
        c.apply(op).map_err(|reason| refused(c.as_ref(), reason))?;
        for (i, c) in self.components.iter_mut().enumerate() {
            if i != owner && self.classes[i].is_mine() {
                // Input condition: inputs are enabled in every state.
                c.apply(op).map_err(|reason| refused(c.as_ref(), reason))?;
            }
        }
        Ok(())
    }

    /// Check whether `schedule` is a schedule of this system by resetting
    /// and replaying it step by step.
    ///
    /// For the state-deterministic systems in this workspace this decides
    /// schedule membership exactly; it is the executable form of the
    /// paper's simulation results (e.g. Theorem 10: the projection of every
    /// schedule of the replicated system **B** replays successfully on the
    /// non-replicated system **A**).
    ///
    /// On success the system is left in the state reached after the
    /// schedule, so callers can continue stepping or inspect states.
    ///
    /// # Errors
    ///
    /// The first failing step, annotated with its index in the schedule.
    pub fn replay(&mut self, schedule: &Schedule<Op>) -> Result<(), IoaError> {
        self.reset();
        for (i, op) in schedule.iter().enumerate() {
            self.step(op).map_err(|e| match e {
                IoaError::StepRefused {
                    component,
                    op,
                    reason,
                    ..
                } => IoaError::StepRefused {
                    component,
                    op,
                    reason,
                    at: Some(i),
                },
                other => other,
            })?;
        }
        Ok(())
    }
}

impl<Op: Clone + fmt::Debug> Default for System<Op> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{Channel, Producer, ToyOp};

    #[test]
    fn step_names_every_claimant_of_an_ambiguous_output() {
        let mut sys: System<ToyOp> = System::new();
        sys.push(Box::new(Producer::new(1)));
        sys.push(Box::new(Channel::new(1)));
        sys.push(Box::new(Producer::new(1)));
        sys.push(Box::new(Producer::new(1)));
        match sys.step(&ToyOp::Send(0)) {
            Err(IoaError::AmbiguousOutput { owners, .. }) => {
                assert_eq!(owners, ["producer", "producer", "producer"]);
            }
            other => panic!("expected an ambiguous output, got {other:?}"),
        }
        let unsent: &Channel = sys.component_as("channel").expect("pushed above");
        assert_eq!(unsent.enabled_outputs(), []);
    }

    #[test]
    fn step_without_an_owner_or_with_a_refusing_owner_changes_nothing() {
        let mut sys: System<ToyOp> = System::new();
        sys.push(Box::new(Producer::new(2)));
        assert!(matches!(
            sys.step(&ToyOp::Deliver(0)),
            Err(IoaError::NoOutputOwner { .. })
        ));
        sys.push(Box::new(Channel::new(1)));
        // The producer's next item is 0, so it refuses Send(1); the channel
        // (an input of Send) must not have seen it.
        match sys.step(&ToyOp::Send(1)) {
            Err(IoaError::StepRefused { component, .. }) => assert_eq!(component, "producer"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(sys.enabled_outputs(), [ToyOp::Send(0)]);
        sys.step(&ToyOp::Send(0)).expect("enabled");
        assert_eq!(sys.enabled_outputs(), [ToyOp::Send(1), ToyOp::Deliver(0)]);
    }
}
