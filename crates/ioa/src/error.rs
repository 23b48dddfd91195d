//! Error types for execution and schedule checking.

use std::error::Error;
use std::fmt;

/// A violation reported by an invariant [`Monitor`](crate::Monitor).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorViolation {
    /// Name of the monitor that failed.
    pub monitor: String,
    /// Index of the step (in the schedule) after which the violation held.
    pub step: usize,
    /// Description of the violated property.
    pub message: String,
}

impl fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "monitor '{}' violated after step {}: {}",
            self.monitor, self.step, self.message
        )
    }
}

/// Errors arising while stepping, executing, or replaying a system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoaError {
    /// An operation was offered that is an output of no component, so no
    /// component could trigger it.
    NoOutputOwner {
        /// Debug rendering of the operation.
        op: String,
    },
    /// An operation is an output of more than one component, violating the
    /// composition requirement that output sets be disjoint.
    AmbiguousOutput {
        /// Debug rendering of the operation.
        op: String,
        /// Names of the claiming components.
        owners: Vec<String>,
    },
    /// A component rejected a step.
    StepRefused {
        /// Name of the refusing component.
        component: String,
        /// Debug rendering of the operation.
        op: String,
        /// Reason given by the component.
        reason: String,
        /// Index of the offending operation within the replayed schedule,
        /// if the failure occurred during replay.
        at: Option<usize>,
    },
    /// An invariant monitor reported a violation.
    Monitor(MonitorViolation),
}

impl fmt::Display for IoaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoaError::NoOutputOwner { op } => {
                write!(f, "operation {op} is an output of no component")
            }
            IoaError::AmbiguousOutput { op, owners } => write!(
                f,
                "operation {op} is an output of multiple components: {owners:?}"
            ),
            IoaError::StepRefused {
                component,
                op,
                reason,
                at,
            } => match at {
                Some(i) => write!(
                    f,
                    "component '{component}' refused operation {op} at schedule index {i}: {reason}"
                ),
                None => write!(
                    f,
                    "component '{component}' refused operation {op}: {reason}"
                ),
            },
            IoaError::Monitor(v) => write!(f, "{v}"),
        }
    }
}

impl Error for IoaError {}

impl From<MonitorViolation> for IoaError {
    fn from(v: MonitorViolation) -> Self {
        IoaError::Monitor(v)
    }
}
