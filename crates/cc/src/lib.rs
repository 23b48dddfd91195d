//! Concurrency control for nested transaction systems, and the executable
//! form of the paper's Theorem 11.
//!
//! The paper's modularity result: *any* concurrency-control algorithm that
//! guarantees serializability at the level of the individual data copies,
//! combined with the quorum-consensus replication algorithm, yields a
//! system that is serializable at the level of the logical data items —
//! "the effect is just like an execution on a single copy database".
//!
//! This crate supplies the pieces the theorem quantifies over:
//!
//! * [`ConcurrentScheduler`] — the serial scheduler minus its serializing
//!   preconditions: siblings interleave, and running transactions can be
//!   aborted (recovery / deadlock victims);
//! * [`LockingObject`] — Moss-style read/write locking with lock
//!   inheritance and version-stack recovery, the copy-level algorithm the
//!   paper cites via Moss \[19\] and Fekete–Lynch–Merritt–Weihl \[9\];
//! * [`serialize_return_order`] — the construction of the serial witness
//!   schedule σ from a concurrent schedule γ;
//! * [`check_theorem11`] — the end-to-end harness: run the concurrent
//!   system **C**, check σ against system **B** (the hypothesis), and check
//!   the Theorem 10 projection of σ against system **A** (the conclusion).
//!
//! # Example
//!
//! ```
//! use qc_cc::{check_theorem11, CcRunOptions};
//! use qc_replication::{ConfigChoice, ItemSpec, SystemSpec, UserSpec, UserStep};
//! use nested_txn::Value;
//!
//! let spec = SystemSpec {
//!     items: vec![ItemSpec {
//!         name: "x".into(),
//!         init: Value::Int(0),
//!         replicas: 3,
//!         config: ConfigChoice::Majority,
//!     }],
//!     plain: vec![],
//!     users: vec![
//!         UserSpec::new(vec![UserStep::Write(0, Value::Int(1)), UserStep::Read(0)]),
//!         UserSpec::new(vec![UserStep::Read(0)]),
//!     ],
//!     strategy: Default::default(),
//! };
//! let report = check_theorem11(&spec, CcRunOptions::default())?;
//! assert!(report.sigma_len <= report.gamma_len);
//! # Ok::<(), qc_cc::Theorem11Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lock_table;
mod locking;
mod scheduler;
mod serialize;
mod theorem11;

pub use lock_table::{Acquire, LockMode, LockTable, PathTid, MAX_PATH};
pub use locking::{LockGranularity, LockingObject};
pub use scheduler::ConcurrentScheduler;
pub use serialize::{non_orphans, serialize_return_order, SerializeError};
pub use theorem11::{
    check_theorem11, final_dm_values, run_concurrent, CcRunOptions, Theorem11Error, Theorem11Report,
};
