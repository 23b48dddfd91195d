//! Discrete-event simulation substrate for evaluating quorum-consensus
//! replication.
//!
//! Goldman & Lynch (PODC 1987) is a theory paper; its introduction
//! motivates replication by availability, reliability and performance.
//! This crate provides the testbed-stand-in used by the workspace's
//! quantitative experiments (`EXPERIMENTS.md`): replica sites with
//! exponential crash/repair processes and scripted fault plans, parametric
//! message latency (LAN / WAN / fixed), clients running the Gifford
//! protocol (read-quorum discovery, then write-quorum installation) with
//! the paper's §4 reconfiguration, and per-class metrics (latency
//! percentiles, message cost, availability, throughput).
//!
//! The protocol is written once (the private `protocol` module) and run
//! by three drivers, each an event loop of its own: the single-item
//! [`Simulation`], the sharded multi-item [`run_sharded`], and the
//! nested-transaction [`txn_workload`], which composes the same quorum
//! operations with a copy-level lock table (the paper's Theorem 11).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use qc_sim::{run, SimConfig, SimTime};
//! use quorum::Majority;
//!
//! let mut config = SimConfig::new(Arc::new(Majority::new(5)));
//! config.duration = SimTime::from_secs(2);
//! let metrics = run(config);
//! assert!(metrics.reads.availability() > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod faults;
mod latency;
mod metrics;
mod par;
pub mod placement;
mod protocol;
pub mod queue;
mod shard;
#[allow(clippy::module_inception)]
mod sim;
mod slab;
mod time;
pub mod trace;
pub mod txn_workload;

pub use arena::DmArena;
pub use faults::{message_dropped, FaultEvent, FaultPlan, ReconfigTarget, RetryPolicy};
pub use latency::{sample_exponential, LatencyModel};
pub use metrics::{CommitRecord, Metrics, OpStats, OpSummary, MAX_RECORDED_VIOLATIONS};
pub use queue::{CalendarQueue, EventQueue, HeapQueue, QueueKind};
pub use par::{default_threads, par_map, run_batch};
pub use placement::{
    plan_moves, ElasticPolicy, EpochSample, Migration, PlacementDirectory, PlacementPolicy,
    PlacementReport, SeedPlacement,
};
pub use protocol::{ContactPolicy, ReconfigPolicy};
pub use shard::{
    cum_weight_table, item_weight, run_sharded, run_sharded_elastic,
    run_sharded_elastic_traced, run_sharded_traced, ItemDist, MultiConfig, ShardReport, Workload,
    MAX_EPOCH_BARRIERS,
};
pub use qc_replication::{
    check_commit_order_serializable, check_trace, AbortReason, AccessRecord, CommittedTxn,
    ConformanceReport, Divergence, DivergenceKind, ScheduleTrace, SerializabilityError, TmKind,
    TraceAction, TraceEvent, TraceTid,
};
pub use qc_obs::{
    EventKind, EventLogMode, Histogram, ObsEvent, ObsOptions, ObsReport, OpRef, Phase,
    Snapshot, SpanRecorder, PHASES,
};
pub use sim::{run, run_observed, run_traced, SimConfig, Simulation};
pub use time::SimTime;
pub use trace::{trace_to_json, TraceRecorder};
pub use qc_obs::causal::{
    AbortCause, CausalOptions, CausalReport, CritProfile, EdgeKind, SpanKind, TxnTrace,
    ABORT_CAUSES, EDGE_KINDS,
};
pub use txn_workload::{
    run_txn, run_txn_causal, run_txn_committed, run_txn_traced, TxnConfig, TxnReport, TxnStats,
};
