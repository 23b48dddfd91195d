//! Quorum systems for replicated data.
//!
//! Goldman & Lynch (PODC 1987) adopt the configuration strategy of Barbara &
//! Garcia-Molina: a *configuration* for a logical data item is a pair of a
//! set of *read-quorums* and a set of *write-quorums* — each quorum a set of
//! data-manager names — and a configuration is *legal* when every read-quorum
//! intersects every write-quorum. (Note: read/write intersection is the
//! *only* requirement; write-quorums need not intersect each other, because
//! a writer first consults a read-quorum to learn the current version
//! number.)
//!
//! This crate provides:
//!
//! * [`Configuration`]: explicit quorum sets with legality checking — the
//!   form used by the paper's transaction-manager automata;
//! * [`QuorumSpec`] and implementations ([`Rowa`], [`Majority`],
//!   [`Weighted`], [`Grid`], [`TreeQuorum`]): predicate-form quorum systems
//!   that scale to replica counts where explicit enumeration is infeasible
//!   — used by the evaluation substrate;
//! * [`Thresholds`]: the one quorum rule by sizes over a member set —
//!   what [`QuorumSpec::thresholds`] returns for ROWA and threshold
//!   systems, resized to a reconfigured membership by
//!   [`Thresholds::over`], and the answer to every read, write and
//!   configuration-majority quorum question the simulator and the
//!   Theorem 10 checker ask ([`is_quorum`] falls back to a system's own
//!   predicates when it has no rule);
//! * [`analysis`]: exact and Monte-Carlo availability, quorum sizes, and
//!   load, reproducing the classic quorum trade-off studies (experiments
//!   Q1–Q5 in `EXPERIMENTS.md`).
//!
//! # Example
//!
//! ```
//! use quorum::{Configuration, generators};
//!
//! // Majority quorums over five replicas.
//! let cfg: Configuration<u32> = generators::majority(&[0, 1, 2, 3, 4]);
//! assert!(cfg.is_legal());
//! assert!(cfg.is_usable());
//!
//! // Any three replicas contain a read quorum.
//! let avail: std::collections::BTreeSet<u32> = [1, 3, 4].into_iter().collect();
//! assert!(cfg.find_read_quorum(&avail).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod config;
pub mod generators;
pub mod replica_set;
mod spec;

pub use config::{CompiledConfiguration, Configuration, ConfigurationError};
pub use replica_set::ReplicaSet;
pub use spec::{
    is_quorum, to_configuration, Grid, Majority, QuorumSpec, Rowa, Thresholds, TreeQuorum, Weighted,
};
