//! Quorum Consensus replication for nested transaction systems —
//! the core contribution of Goldman & Lynch, PODC 1987.
//!
//! Gifford's Quorum Consensus algorithm, generalized to (1) nested
//! transactions and (2) transaction failures (aborts), expressed in the
//! Lynch–Merritt I/O-automaton model and accompanied by *executable* forms
//! of the paper's correctness results:
//!
//! * [`ReadTm`] / [`WriteTm`] — the transaction-manager automata of §3.1,
//!   transcribed pre/postcondition by pre/postcondition;
//! * [`build_system_b`] — the replicated serial system **B** (data managers
//!   as versioned read-write objects, TMs as subtransactions of the user
//!   transactions);
//! * [`build_system_a`] — the corresponding non-replicated serial system
//!   **A** of §3.2, in which each logical item is a single read-write
//!   object whose accesses are the TM names;
//! * [`theorem10`] — the simulation result: erasing all replica-access
//!   operations from any schedule of **B** yields a schedule of **A**,
//!   identical at every user transaction and non-replica object;
//! * [`invariants`] — `access(x,β)`, `logical-state(x,β)`,
//!   `current-vn(x,β)` and runtime monitors for Lemma 7 and Lemma 8.
//!
//! # Quickstart
//!
//! ```
//! use qc_replication::{
//!     check_random, ConfigChoice, ItemSpec, RunOptions, SystemSpec, UserSpec, UserStep,
//! };
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
//!     users: vec![UserSpec::new(vec![
//!         UserStep::Write(0, Value::Int(42)),
//!         UserStep::Read(0),
//!     ])],
//!     strategy: Default::default(),
//! };
//! let report = check_random(&spec, RunOptions::default())?;
//! assert!(report.a_len <= report.b_len);
//! # Ok::<(), qc_replication::Theorem10Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
mod exhaustive;
pub mod genspec;
pub mod invariants;
mod item;
pub mod serializability;
mod spec;
pub mod theorem10;
mod tm;

pub use conformance::{
    check_trace, trace_from_schedule, AbortReason, ConformanceReport, Divergence, DivergenceKind,
    ScheduleTrace, TmKind, TraceAction, TraceEvent, TraceEvents, TraceTid,
};
pub use exhaustive::{verify_exhaustive, verify_exhaustive_with, ExhaustiveReport};
pub use genspec::{random_spec, GenParams};
pub use invariants::{
    access_sequence, current_vn, logical_state, LemmaChecker, LemmaMonitor, LemmaViolation,
};
pub use item::{ItemId, LogicalItem};
pub use serializability::{
    check_commit_order_serializable, AccessRecord, CommitLog, CommittedTxn, SerializabilityError,
};
pub use spec::{
    build_replicated_parts, build_system_a, build_system_b, user_spec_from_program,
    wf_monitor_for_a, BuiltSystem, Components, ConfigChoice, ItemLayout, ItemSpec, Layout,
    PlainObjectSpec, SystemSpec, TmRole, UserSpec, UserStep,
};
pub use theorem10::{
    check_projection, check_random, ops_of_transaction, project_to_a, run_system_b, RunOptions,
    Theorem10Error, Theorem10Report,
};
pub use tm::{ReadTm, TmStrategy, WriteTm};
