//! The [`Component`] trait: an I/O automaton holding its current state.

use std::any::Any;
use std::fmt;

/// How an operation relates to a component's operation signature.
///
/// In the I/O automaton model, the operations of an automaton `A` partition
/// into output operations `out(A)` (triggered by `A` itself) and input
/// operations `in(A)` (triggered by `A`'s environment); operations outside
/// `ops(A)` do not involve `A` at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// The operation is not an operation of this automaton.
    NotMine,
    /// The operation is an input operation of this automaton.
    Input,
    /// The operation is an output operation of this automaton.
    Output,
}

impl OpClass {
    /// Whether the operation belongs to the automaton's signature at all.
    pub fn is_mine(self) -> bool {
        !matches!(self, OpClass::NotMine)
    }

    /// Whether the operation is an output of the automaton.
    pub fn is_output(self) -> bool {
        matches!(self, OpClass::Output)
    }
}

/// An I/O automaton, represented by its current state.
///
/// The automata defined explicitly in the paper are *state-deterministic*
/// (§2.1): if `(s', π, s1)` and `(s', π, s2)` are both steps then `s1 = s2`,
/// and there is a unique start state. A `Component` therefore carries its
/// current state and applies operations to it; the representation loses no
/// generality for such automata, and nondeterministic *choice among enabled
/// outputs* is supplied externally by the executor.
///
/// # Contract
///
/// * [`classify`](Component::classify) describes the (static) operation
///   signature. For automata whose access-operation signature is determined
///   by a naming scheme carried inside operations (see the `nested-txn`
///   crate), classification of *input* operations may consult the current
///   state, exploiting the fact that well-formed schedules deliver a
///   `CREATE` before any later operation of the same access.
/// * Input operations must be enabled in every state (the model's *input
///   condition*); [`apply`](Component::apply) must accept them.
/// * [`enabled_outputs`](Component::enabled_outputs) returns exactly the set
///   of output operations enabled in the current state (possibly empty).
/// * [`apply`](Component::apply) performs the unique step labelled by the
///   operation, or reports an error if the operation is an output that is
///   not currently enabled.
pub trait Component<Op>: fmt::Debug {
    /// A human-readable name for diagnostics (e.g. `"serial-scheduler"`,
    /// `"dm(x0,3)"`).
    fn name(&self) -> String;

    /// Classify `op` with respect to this automaton's signature.
    fn classify(&self, op: &Op) -> OpClass;

    /// Return to the (unique) start state.
    fn reset(&mut self);

    /// The output operations enabled in the current state.
    fn enabled_outputs(&self) -> Vec<Op>;

    /// Perform the step labelled `op` from the current state.
    ///
    /// # Errors
    ///
    /// Returns the reason the step is impossible if `op` is an output
    /// operation of this automaton that is not enabled in the current state.
    /// Input operations never fail (input condition).
    fn apply(&mut self, op: &Op) -> Result<(), String>;

    /// Downcasting support, used by invariant monitors that inspect the
    /// concrete states of specific automata (e.g. reading every data
    /// manager's version number to check the paper's Lemma 7).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support, for the callers that drive a concrete
    /// automaton's own methods between steps (e.g. the Theorem 10 checker
    /// retiring the names its schedule will never use again).
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// A boxed deep copy of this automaton in its current state.
    ///
    /// This is the hook behind [`System::snapshot`](crate::System::snapshot):
    /// the explorer checkpoints system states every few levels so that
    /// backtracking restores a snapshot and replays a bounded suffix instead
    /// of rebuilding the whole path from the start state.
    fn clone_boxed(&self) -> Box<dyn Component<Op>>;
}
