//! Deterministic observability for the quorum-consensus workspace.
//!
//! Everything in this crate is keyed on **simulated time** (plain `u64`
//! microseconds, the unit of `qc_sim::SimTime`) and never reads a wall
//! clock or a random stream, so instrumented runs are bit-identical to
//! uninstrumented runs and recordings are bit-identical across OS
//! thread counts. Four pieces:
//!
//! - [`Histogram`] — log-bucketed HDR-style latency histogram with
//!   exact count/sum/min/max, p50/p90/p99/p999 accessors, an
//!   order-insensitive [`Histogram::merge`] for shard reduction, and a
//!   compact sparse JSON encoding.
//! - [`SpanRecorder`] — per-phase duration histograms over the
//!   protocol's named phases ([`Phase`]): `read_gather`, `vn_resolve`,
//!   `write_install`, `commit_round`, `retry_backoff`.
//! - [`EventLog`] — structured event log (fault firings, lemma
//!   violations, snapshots): off or unbounded, rendered as versioned
//!   JSONL.
//! - [`SnapshotExporter`] — periodic progress snapshots every N
//!   simulated microseconds.
//!
//! [`ObsOptions`] configures what a run records; [`ObsReport`] bundles
//! what it recorded and merges across shards in shard-index order.
//!
//! The [`causal`] module is the fifth piece: per-transaction causal
//! span trees mirroring the nested program tree, with critical-path
//! extraction that reconciles exactly against end-to-end latency,
//! abort-cause chains, and an order-insensitively mergeable
//! [`CritProfile`] — serialized as `span_tree` events in the
//! qc-events-v1 JSONL stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
mod event;
mod hist;
mod snapshot;
mod span;

pub use causal::{
    AbortCause, CausalOptions, CausalReport, CritPath, CritProfile, CritStep, EdgeKind, Seg, Span,
    SpanKind, SpanOutcome, TxnRef, TxnTrace, ABORT_CAUSES, EDGE_KINDS, NO_SPAN, NO_TIME,
};
pub use event::{EventKind, EventLog, EventLogMode, ObsEvent, OpRef, EVENTS_FORMAT};
pub use hist::Histogram;
pub use snapshot::{snapshots_json, Snapshot, SnapshotExporter};
pub use span::{Phase, SpanRecorder, NUM_PHASES, PHASES};

/// FNV-1a over raw bytes — the workspace's standard digest primitive
/// (stable across platforms and Rust versions, unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut sink = Fnv1a::new(FNV_PRIME);
    sink.update(bytes);
    sink.finish()
}

/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a as a [`std::fmt::Write`] sink: `write!(sink, "{x:?}")` hashes
/// exactly the bytes of `format!("{x:?}")` without building the string,
/// so a digest over a rendering of millions of samples costs no memory.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a {
    hash: u64,
    prime: u64,
}

impl Fnv1a {
    /// An empty digest (the FNV offset basis) that multiplies by `prime`:
    /// [`FNV_PRIME`] for FNV-1a proper, another value only to reproduce a
    /// digest pinned under it.
    pub fn new(prime: u64) -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            prime,
        }
    }

    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(self.prime);
        }
    }

    /// The digest of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// What a run should record. The default records nothing and adds no
/// observable cost to the hot path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Record per-phase spans into a [`SpanRecorder`].
    pub spans: bool,
    /// Event-log retention ([`EventLogMode::Null`] disables logging).
    pub events: EventLogMode,
    /// Emit a progress [`Snapshot`] every this many simulated
    /// microseconds (`None` disables the exporter). Snapshots fire only in
    /// the flat drivers' loops: the nested-transaction loop emits no clock
    /// fact, so a nested run's log holds none.
    pub snapshot_every_us: Option<u64>,
    /// Record causal span trees and critical paths into a
    /// [`CausalReport`].
    pub causal: CausalOptions,
}

impl ObsOptions {
    /// Record nothing (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Record everything: spans, a full event log, and snapshots every
    /// simulated second.
    pub fn full() -> Self {
        Self {
            spans: true,
            events: EventLogMode::Full,
            snapshot_every_us: Some(1_000_000),
            causal: CausalOptions::profile(),
        }
    }
}

/// Everything one run (or one shard) recorded. Shard reports are merged
/// in shard-index order, making the merged report independent of the OS
/// thread count that executed the shards.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsReport {
    /// Per-phase span histograms.
    pub spans: SpanRecorder,
    /// Retained structured events.
    pub events: EventLog,
    /// Progress snapshots in (shard, time) order.
    pub snapshots: Vec<Snapshot>,
    /// Causal span trees and the aggregated critical-path profile.
    pub causal: CausalReport,
}

impl ObsReport {
    /// An empty report configured for `options`.
    pub fn new(options: &ObsOptions) -> Self {
        Self {
            spans: SpanRecorder::new(),
            events: EventLog::new(options.events),
            snapshots: Vec::new(),
            causal: CausalReport::new(options.causal),
        }
    }

    /// Fold another shard's report into this one (call in shard-index
    /// order for canonical renderings).
    pub fn absorb(&mut self, other: ObsReport) {
        self.spans.merge(&other.spans);
        self.events.absorb(other.events);
        self.snapshots.extend(other.snapshots);
        self.causal.absorb(other.causal);
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.events.is_empty()
            && self.snapshots.is_empty()
            && self.causal.is_empty()
    }

    /// The retained events as versioned JSONL.
    pub fn events_jsonl(&self) -> String {
        self.events.to_jsonl()
    }

    /// The snapshots as a JSON array.
    pub fn snapshots_json(&self) -> String {
        snapshots_json(&self.snapshots)
    }

    /// FNV-1a digest over the spans JSON, the events JSONL, the
    /// snapshots JSON and the causal report — bit-identical across
    /// thread counts for the same seed and options.
    pub fn digest(&self) -> u64 {
        let mut text = self.spans.to_json();
        text.push('\n');
        text.push_str(&self.events_jsonl());
        text.push('\n');
        text.push_str(&self.snapshots_json());
        text.push('\n');
        text.push_str(&self.causal.profile().to_json());
        text.push_str(&self.causal.to_jsonl());
        fnv1a(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_sink_hashes_the_formatted_bytes() {
        use std::fmt::Write;
        let value = (vec![1u64, 20, 300], "x|y", Some(-4.5f64));
        let mut sink = Fnv1a::new(FNV_PRIME);
        write!(sink, "{value:?}|{}", 7).unwrap();
        assert_eq!(sink.finish(), fnv1a(format!("{value:?}|{}", 7).as_bytes()));
    }

    #[test]
    fn options_presets() {
        let off = ObsOptions::disabled();
        assert!(!off.spans && off.events == EventLogMode::Null);
        assert!(off.snapshot_every_us.is_none() && !off.causal.enabled);
        let full = ObsOptions::full();
        assert!(full.spans && full.events == EventLogMode::Full);
        assert!(full.snapshot_every_us.is_some() && full.causal.enabled);
    }

    #[test]
    fn report_absorb_and_digest() {
        let opts = ObsOptions::full();
        let mut a = ObsReport::new(&opts);
        a.spans.record(Phase::ReadGather, 11);
        let mut b = ObsReport::new(&opts);
        b.spans.record(Phase::ReadGather, 400);
        b.events.emit(ObsEvent {
            at_us: 5,
            shard: 1,
            kind: EventKind::Fault {
                desc: "crash@0:0".into(),
            },
        });

        let mut ab = ObsReport::new(&opts);
        ab.absorb(a.clone());
        ab.absorb(b.clone());
        assert!(!ab.is_empty());
        assert_eq!(ab.spans.hist(Phase::ReadGather).count(), 2);
        assert_eq!(ab.events.len(), 1);

        // Same shard order → same digest; content change → different.
        let mut ab2 = ObsReport::new(&opts);
        ab2.absorb(a);
        ab2.absorb(b);
        assert_eq!(ab.digest(), ab2.digest());
        ab2.spans.record(Phase::CommitRound, 0);
        assert_ne!(ab.digest(), ab2.digest());
    }

    #[test]
    fn empty_report() {
        let r = ObsReport::default();
        assert!(r.is_empty());
        assert!(r.events_jsonl().starts_with("{\"format\":\"qc-events-v1\""));
        assert_eq!(r.snapshots_json(), "[]");
    }
}
