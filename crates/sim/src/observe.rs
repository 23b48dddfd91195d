//! Observers: what a run records, composed with the run.
//!
//! In the paper's I/O automaton model (§2.1) an observer is an automaton
//! whose inputs are the system's outputs, composed with the system. Here
//! that is [`Observe`]: one method per fact the drivers emit, each with an
//! empty default body. A driver is generic over its observer (monomorphised,
//! never `dyn`), so under `()` every emission compiles away, and a tuple
//! hands every fact to each element in order.
//!
//! Facts arrive by value or shared reference, and no driver reads anything
//! back from its observer, so recording is pure observation by
//! construction: it draws nothing from an RNG stream, schedules nothing and
//! cannot change an outcome.
//!
//! Each event loop (the single-item run, a shard, a domain) records into
//! its own observer, [`fork`](Observe::fork)ed by loop index; the caller
//! [`absorb`](Observe::absorb)s the forks back in index order, so the
//! result is the same for every thread count. At a migration barrier the
//! control plane calls [`hand_over`](Observe::hand_over) from the source
//! shard's observer to the destination's, after the source recorded the
//! item's fence and before the destination records anything of it.

use std::fmt;

use qc_obs::causal::{AbortCause, EdgeKind, SpanKind, TxnRef, TxnTrace, NO_SPAN};
use qc_obs::{
    CausalOptions, CausalReport, EventKind, ObsEvent, ObsOptions, ObsReport, OpRef, Phase,
    Snapshot, SnapshotExporter,
};
use qc_replication::{CommitLog, ScheduleTrace, TraceEvent};
use quorum::{QuorumSpec, ReplicaSet};

use crate::faults::FaultEvent;
use crate::metrics::Metrics;
use crate::protocol::Block;
use crate::time::SimTime;
use crate::txn_workload::{Committed, TxnShape};

/// A fault, fence, migration or violation, as a driver saw it. All three
/// drivers mark planned faults, reconfigurations and violations; site
/// changes and migrations come from the flat drivers only.
#[derive(Clone, Copy, Debug)]
pub enum Mark<'a> {
    /// Planned fault `(at, event)` fired.
    Fault(SimTime, FaultEvent),
    /// The stochastic process took `(site, up)` down or up.
    Site(usize, bool),
    /// A §4 reconfiguration installed `(item, gen, members)`; the item is
    /// `None` in the single-item driver.
    Reconfig(Option<usize>, u64, ReplicaSet),
    /// An item was fenced for export at a migration barrier.
    Migration,
    /// A lemma violation `(description, offending op if caught at a commit)`.
    Violation(fmt::Arguments<'a>, Option<OpRef>),
}

/// A flat operation that just finished.
#[derive(Clone, Copy, Debug)]
pub struct OpDone {
    /// The decision instant.
    pub now: SimTime,
    /// The driver-local coordinator slot, as in [`Observe::attempt`].
    pub key: usize,
    /// The coordinator's global identity.
    pub coord: usize,
    /// The op's global item id (`None` in the single-item driver).
    pub item: Option<usize>,
    /// The coordinator's operation number.
    pub op: u64,
    /// When the op started.
    pub started: SimTime,
    /// Whether the op is a read.
    pub read: bool,
    /// End-to-end latency if it committed, else why it aborted.
    pub end: Result<SimTime, AbortCause>,
}

/// An attempt's time as `(edge kind, µs)` in causal order, zeros included.
pub type Segs = [(EdgeKind, u64); 3];

/// What happened to a nested-transaction client's current transaction.
/// Node numbers are flat program-tree indices (pre-order, root 0).
#[derive(Clone, Copy)]
pub enum TxnFact<'a> {
    /// The transaction began.
    Begin(&'a TxnShape<'a>),
    /// A node entered the running state (`CREATE`).
    SpanStart(usize),
    /// A leaf queued in the lock table behind the transaction the closure
    /// names, if any (looked up only when called).
    Queued(usize, &'a dyn Fn() -> Option<TxnRef>),
    /// A queued leaf got its lock.
    Granted(usize),
    /// A leaf's attempt spent these segments from now on.
    Attempt(usize, Segs),
    /// An abort at the node dooms the whole transaction.
    Doom(usize, AbortCause),
    /// A node returned to its parent: committed, or aborted with a cause.
    SpanEnd(usize, Option<AbortCause>),
    /// The transaction ended, committed or not.
    End(bool),
}

/// What a driver's event loop records into; see the module docs.
pub trait Observe: Send + Sized {
    /// A fresh observer for event loop `index` (shard or domain; 0 for the
    /// single-item driver).
    fn fork(&self, index: usize) -> Self;

    /// Fold a fork back in; callers absorb in loop-index order.
    fn absorb(&mut self, other: Self);

    /// Global item `item` moves to `to`'s loop at a migration barrier.
    fn hand_over(&mut self, _item: usize, _to: &mut Self) {}

    /// A closed TM block of an item's β, or the ABORT of an attempt that
    /// was never created.
    fn block(&mut self, _b: &Block<'_>) {}

    /// The clock is about to advance to `t` (snapshots).
    fn clock(&mut self, _t: SimTime, _metrics: &Metrics, _in_flight: u64) {}

    /// A fault, fence, migration or violation at `now`.
    fn mark(&mut self, _now: SimTime, _m: &Mark<'_>) {}

    /// Coordinator `key`'s attempt spent `segs` of its operation's time.
    fn attempt(&mut self, _key: usize, _segs: Segs) {}

    /// A flat operation finished.
    fn op_done(&mut self, _op: &OpDone) {}

    /// Local `client`'s transaction at `now`.
    fn txn(&mut self, _client: usize, _now: SimTime, _fact: TxnFact<'_>) {}

    /// A top-level transaction committed.
    fn committed(&mut self, _txn: &Committed<'_>) {}
}

impl Observe for () {
    fn fork(&self, _index: usize) -> Self {}

    fn absorb(&mut self, _other: Self) {}
}

/// A tuple hands every fact to each element in order.
macro_rules! tuple_observe {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Observe),+> Observe for ($($t,)+) {
            fn fork(&self, index: usize) -> Self {
                ($(self.$i.fork(index),)+)
            }

            fn absorb(&mut self, other: Self) {
                $(self.$i.absorb(other.$i);)+
            }

            fn hand_over(&mut self, item: usize, to: &mut Self) {
                $(self.$i.hand_over(item, &mut to.$i);)+
            }

            fn block(&mut self, b: &Block<'_>) {
                $(self.$i.block(b);)+
            }

            fn clock(&mut self, t: SimTime, metrics: &Metrics, in_flight: u64) {
                $(self.$i.clock(t, metrics, in_flight);)+
            }

            fn mark(&mut self, now: SimTime, m: &Mark<'_>) {
                $(self.$i.mark(now, m);)+
            }

            fn attempt(&mut self, key: usize, segs: Segs) {
                $(self.$i.attempt(key, segs);)+
            }

            fn op_done(&mut self, op: &OpDone) {
                $(self.$i.op_done(op);)+
            }

            fn txn(&mut self, client: usize, now: SimTime, fact: TxnFact<'_>) {
                $(self.$i.txn(client, now, fact);)+
            }

            fn committed(&mut self, txn: &Committed<'_>) {
                $(self.$i.committed(txn);)+
            }
        }
    };
}

tuple_observe!(A 0, B 1);
tuple_observe!(A 0, B 1, C 2);
tuple_observe!(A 0, B 1, C 2, D 3);

/// One schedule trace per item, keyed by global item id (so an item's
/// trace follows it across migration barriers): the input of
/// [`check_trace`](qc_replication::check_trace).
#[derive(Clone, Debug)]
pub struct Traces {
    /// An empty trace of the run: its header.
    empty: ScheduleTrace,
    items: usize,
    streams: Vec<Option<ScheduleTrace>>,
}

impl Traces {
    /// Record the `items` items of a run over `quorum` seeded with `seed`.
    #[must_use]
    pub fn new(quorum: &dyn QuorumSpec, seed: u64, items: usize) -> Self {
        let empty = ScheduleTrace::new(quorum.label(), quorum.n(), seed);
        Traces {
            empty,
            items,
            streams: Vec::new(),
        }
    }

    /// One trace per item, indexed by global item id.
    #[must_use]
    pub fn into_traces(mut self) -> Vec<ScheduleTrace> {
        self.streams.resize_with(self.items, || None);
        let empty = self.empty;
        self.streams
            .into_iter()
            .map(|t| t.unwrap_or_else(|| empty.clone()))
            .collect()
    }
}

/// `item`'s entry in a trace table.
fn slot(streams: &mut Vec<Option<ScheduleTrace>>, item: usize) -> &mut Option<ScheduleTrace> {
    if item >= streams.len() {
        streams.resize_with(item + 1, || None);
    }
    &mut streams[item]
}

impl Observe for Traces {
    fn fork(&self, _index: usize) -> Self {
        Traces {
            empty: self.empty.clone(),
            items: self.items,
            streams: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Self) {
        for (g, s) in other.streams.into_iter().enumerate() {
            if s.is_some() {
                let mine = slot(&mut self.streams, g);
                debug_assert!(mine.is_none(), "item {g} recorded by two loops");
                *mine = s;
            }
        }
    }

    fn hand_over(&mut self, item: usize, to: &mut Self) {
        *slot(&mut to.streams, item) = slot(&mut self.streams, item).take();
    }

    fn block(&mut self, b: &Block<'_>) {
        let (at_us, tid, faulted) = (b.at.as_micros(), b.tid, b.faulted());
        let empty = &self.empty;
        let trace = slot(&mut self.streams, b.item).get_or_insert_with(|| empty.clone());
        b.actions(|action| {
            trace.events.push(TraceEvent {
                at_us,
                tid,
                action,
                faulted,
            })
        });
    }
}

/// A run's [`ObsReport`] as [`ObsOptions`] say. Under every driver: the
/// event log of planned faults, reconfigurations and violations, and a
/// `reconfig_fence` span per installed reconfiguration. Under the flat
/// drivers also the other phase spans, periodic snapshots and one causal
/// trace per finished operation (the nested driver's span trees are
/// [`CausalRecorder`]'s). Spans and causal traces fold the operation's
/// segment chain: where its time went, as `(edge kind, µs)` in causal
/// order, zero durations left out, kept per coordinator only when one of
/// them is on.
#[derive(Clone, Debug)]
pub struct ObsRecorder {
    report: ObsReport,
    opts: ObsOptions,
    snap: Option<SnapshotExporter>,
    /// Shard tag stamped on events, snapshots and causal traces.
    shard: u32,
    segs: Vec<Vec<(EdgeKind, u64)>>,
}

impl ObsRecorder {
    /// A recorder of what `opts` enables.
    #[must_use]
    pub fn new(opts: ObsOptions) -> Self {
        let snap = opts.snapshot_every_us.map(SnapshotExporter::new);
        ObsRecorder {
            report: ObsReport::new(&opts),
            opts,
            snap,
            shard: 0,
            segs: Vec::new(),
        }
    }

    /// What was recorded, by value.
    #[must_use]
    pub fn into_report(self) -> ObsReport {
        self.report
    }

    fn emit(&mut self, at_us: u64, kind: EventKind) {
        let shard = self.shard;
        self.report.events.emit(ObsEvent { at_us, shard, kind });
    }

    /// The phase spans of a committed op, a fold of its chain, a stale
    /// retry counting as backoff. Version resolution and the commit round
    /// take zero simulated time, so they are zero-duration spans, one per
    /// committed op, keeping phase counts meaningful (DESIGN.md §5.4).
    fn record_spans(&mut self, read: bool, segs: &[(EdgeKind, u64)]) {
        let (mut gather, mut install, mut backoff) = (0, 0, 0);
        for &(kind, us) in segs {
            match kind {
                EdgeKind::ReadGather => gather += us,
                EdgeKind::WriteInstall => install += us,
                _ => backoff += us,
            }
        }
        let spans = &mut self.report.spans;
        spans.record(Phase::ReadGather, gather);
        spans.record(Phase::VnResolve, 0);
        if !read {
            spans.record(Phase::WriteInstall, install);
        }
        spans.record(Phase::CommitRound, 0);
        if backoff > 0 {
            spans.record(Phase::RetryBackoff, backoff);
        }
    }

    /// A finished op's causal trace: a single `Access` root span whose
    /// segments are the chain laid back to back from the op's start, so it
    /// reconciles exactly with end-to-end latency. An op a migration fence
    /// killed mid-backoff has a chain reaching its parked retry instant: it
    /// is cut at the barrier, where a zero-duration `Fence` marker names it.
    #[allow(clippy::cast_possible_truncation)]
    fn record_trace(&mut self, op: &OpDone, segs: &[(EdgeKind, u64)]) {
        let txn = TxnRef {
            client: op.coord as u32,
            epoch: op.op as u32,
        };
        let start = op.started.as_micros();
        let mut trace = TxnTrace::new(txn, self.shard, start);
        let access = SpanKind::Access {
            item: op.item.unwrap_or(0) as u64,
            write: !op.read,
        };
        let root = trace.add_span(NO_SPAN, access);
        trace.start_span(root, start);
        let fenced = op.end == Err(AbortCause::Fence);
        let end = if fenced { op.now.as_micros() } else { u64::MAX };
        let at = trace.lay_segs(root, start, end, segs.iter().copied());
        if fenced {
            trace.push_seg(root, EdgeKind::Fence, at, 0, None);
        }
        match op.end {
            Ok(_) => {
                trace.finish_span(root, at);
                trace.seal(at, true, NO_SPAN, None);
            }
            Err(cause) => {
                trace.abort_span(root, at, cause);
                trace.seal(at, false, root, Some(cause));
            }
        }
        self.report.causal.record(trace);
    }
}

impl Observe for ObsRecorder {
    fn fork(&self, index: usize) -> Self {
        ObsRecorder {
            shard: index as u32,
            ..ObsRecorder::new(self.opts)
        }
    }

    fn absorb(&mut self, other: Self) {
        self.report.absorb(other.report);
    }

    /// Every due snapshot with boundary time ≤ `t`: drivers advance the
    /// clock before the event at `t` runs, so a snapshot shows exactly its
    /// boundary instant.
    fn clock(&mut self, t: SimTime, metrics: &Metrics, in_flight: u64) {
        while let Some(at_us) = self.snap.as_mut().and_then(|s| s.next_due(t.as_micros())) {
            let (reads, writes) = (metrics.reads.latency_hist(), metrics.writes.latency_hist());
            let snap = Snapshot {
                at_us,
                shard: self.shard,
                ops_done: metrics.reads.successes + metrics.writes.successes,
                in_flight,
                violations: metrics.lemma_violations,
                read_p50_us: reads.p50(),
                read_p99_us: reads.p99(),
                write_p50_us: writes.p50(),
                write_p99_us: writes.p99(),
            };
            self.report.snapshots.push(snap);
            self.emit(at_us, EventKind::Snapshot(snap));
        }
    }

    fn mark(&mut self, now: SimTime, m: &Mark<'_>) {
        let spans = self.opts.spans;
        let desc = match *m {
            _ if !self.report.events.enabled() && !spans => return,
            Mark::Fault(at, event) => event.text(at),
            Mark::Site(site, up) => format!("site-{}:{site}", if up { "up" } else { "down" }),
            Mark::Reconfig(item, gen, members) => {
                // A fence installs at one instant (reliable control plane):
                // a zero-duration span, so fence frequency shows in the
                // phase profile.
                if spans {
                    self.report.spans.record(Phase::ReconfigFence, 0);
                }
                match item {
                    Some(g) => format!("reconfig:item{g}:gen{gen}:{members}"),
                    None => format!("reconfig:gen{gen}:{members}"),
                }
            }
            // One marker per item fenced for export (the fence itself
            // counts as reconfig_fence).
            Mark::Migration if spans => return self.report.spans.record(Phase::Migration, 0),
            Mark::Migration => return,
            Mark::Violation(desc, op) => {
                let desc = desc.to_string();
                return self.emit(now.as_micros(), EventKind::Violation { desc, op });
            }
        };
        self.emit(now.as_micros(), EventKind::Fault { desc });
    }

    fn attempt(&mut self, key: usize, segs: Segs) {
        if !(self.opts.spans || self.opts.causal.enabled) {
            return;
        }
        if key >= self.segs.len() {
            self.segs.resize_with(key + 1, Vec::new);
        }
        self.segs[key].extend(segs.into_iter().filter(|&(_, us)| us > 0));
    }

    /// Fold the op's chain into its spans (if it committed) and its causal
    /// trace, then clear the chain, keeping its capacity.
    fn op_done(&mut self, op: &OpDone) {
        let Some(chain) = self.segs.get_mut(op.key) else {
            return;
        };
        let mut segs = std::mem::take(chain);
        let tiled = |latency: SimTime| segs.iter().map(|&(_, us)| us).sum::<u64>() == latency.0;
        debug_assert!(
            op.end.map_or(true, tiled),
            "the chain must tile a committed op's latency"
        );
        if op.end.is_ok() && self.opts.spans {
            self.record_spans(op.read, &segs);
        }
        if self.opts.causal.enabled {
            self.record_trace(op, &segs);
        }
        segs.clear();
        self.segs[op.key] = segs;
    }
}

/// One in-flight transaction's causal trace under construction. The span
/// tree mirrors the flattened program tree 1:1 (span `i` is node `i`).
#[derive(Clone, Debug)]
struct TxnBuild {
    trace: TxnTrace,
    /// Per node: lock-wait start instant and proximate blocker, recorded
    /// when the leaf queues and consumed when the wait resolves.
    waits: Vec<(u64, Option<TxnRef>)>,
    /// Flat index of the span whose abort doomed the transaction.
    doomed: u32,
    cause: Option<AbortCause>,
}

/// The nested driver's causal flight recorder: one span tree per
/// top-level transaction, folded into a [`CausalReport`]. Facts arrive at
/// decision instants, so a leaf's segments tile its span exactly and the
/// critical path reconciles to the microsecond with end-to-end latency
/// (asserted by `CausalReport::record`). Compensating restore-writes are
/// system-issued, after the transaction's own story ended, and are not
/// part of the tree.
#[derive(Clone, Debug)]
pub struct CausalRecorder {
    rec: CausalReport,
    /// Domain tag stamped on every trace.
    shard: u32,
    /// One building trace per local client (None between transactions).
    cur: Vec<Option<TxnBuild>>,
}

impl CausalRecorder {
    /// A recorder keeping what `opts` says; options that record nothing
    /// mean the profile preset ([`CausalOptions::profile`]).
    #[must_use]
    pub fn new(opts: CausalOptions) -> Self {
        let opts = if opts.enabled {
            opts
        } else {
            CausalOptions::profile()
        };
        CausalRecorder {
            rec: CausalReport::new(opts),
            shard: 0,
            cur: Vec::new(),
        }
    }

    /// What was recorded, by value.
    #[must_use]
    pub fn into_report(self) -> CausalReport {
        self.rec
    }

    /// Build the span tree mirroring the program tree (parents come before
    /// children, so `add_span` reproduces child order).
    fn begin(&mut self, client: usize, now: u64, shape: &TxnShape<'_>) {
        let mut trace = TxnTrace::new(shape.id(), self.shard, now);
        shape.spans(|parent, kind| {
            trace.add_span(parent, kind);
        });
        if client >= self.cur.len() {
            self.cur.resize_with(client + 1, || None);
        }
        let waits = vec![(0, None); trace.spans.len()];
        let (doomed, cause) = (NO_SPAN, None);
        self.cur[client] = Some(TxnBuild {
            trace,
            waits,
            doomed,
            cause,
        });
    }

    /// Seal and record the trace of a transaction that just ended.
    fn end(&mut self, client: usize, now: u64, committed: bool) {
        let Some(mut b) = self.cur.get_mut(client).and_then(Option::take) else {
            return;
        };
        if committed {
            b.trace.finish_span(0, now);
            b.trace.seal(now, true, NO_SPAN, None);
        } else {
            let cause = b.cause.unwrap_or(AbortCause::Doomed);
            b.trace.seal(now, false, b.doomed, Some(cause));
        }
        self.rec.record(b.trace);
    }
}

impl Observe for CausalRecorder {
    fn fork(&self, index: usize) -> Self {
        let rec = CausalReport::new(self.rec.opts);
        CausalRecorder {
            rec,
            shard: index as u32,
            cur: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Self) {
        self.rec.absorb(other.rec);
    }

    fn txn(&mut self, client: usize, now: SimTime, fact: TxnFact<'_>) {
        let now = now.as_micros();
        let b = match fact {
            TxnFact::Begin(shape) => return self.begin(client, now, shape),
            TxnFact::End(committed) => return self.end(client, now, committed),
            _ => match self.cur.get_mut(client).and_then(Option::as_mut) {
                Some(b) => b,
                None => return,
            },
        };
        // Close a lock-wait edge that ends now.
        let wait_over = |b: &mut TxnBuild, node: usize| {
            let (ws, blocker) = b.waits[node];
            if now > ws {
                b.trace
                    .push_seg(node as u32, EdgeKind::LockWait, ws, now - ws, blocker);
            }
        };
        match fact {
            TxnFact::SpanStart(node) => b.trace.start_span(node as u32, now),
            TxnFact::Queued(node, blocker) => b.waits[node] = (now, blocker()),
            TxnFact::Granted(node) => wait_over(b, node),
            TxnFact::Attempt(node, segs) => {
                b.trace.lay_segs(node as u32, now, u64::MAX, segs);
            }
            TxnFact::Doom(node, cause) => {
                if cause == AbortCause::LockTimeout {
                    wait_over(b, node);
                }
                b.trace.abort_span(node as u32, now, cause);
                (b.doomed, b.cause) = (node as u32, Some(cause));
            }
            TxnFact::SpanEnd(node, None) => b.trace.finish_span(node as u32, now),
            TxnFact::SpanEnd(node, Some(cause)) => b.trace.abort_span(node as u32, now, cause),
            TxnFact::Begin(_) | TxnFact::End(_) => {}
        }
    }
}

/// The committed top-level transactions in commit order, the input of
/// [`check_commit_order_serializable`](qc_replication::check_commit_order_serializable).
/// Domains own disjoint items, so their logs concatenated in domain order
/// are a valid commit order for the whole run; each domain's segments are
/// moved in, not copied.
impl Observe for CommitLog {
    fn fork(&self, _index: usize) -> Self {
        CommitLog::new()
    }

    fn absorb(&mut self, other: Self) {
        self.append(other);
    }

    fn committed(&mut self, txn: &Committed<'_>) {
        self.push(txn.client(), txn.accesses());
    }
}
