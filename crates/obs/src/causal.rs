//! Causal span trees and critical-path extraction for nested
//! transactions — the flight recorder behind `qc-exp critpath` and `qc-trace`.
//!
//! The paper's central object is the *transaction tree*: quorum
//! reads/writes at the leaves, Moss-style commit decisions propagating
//! up through subtransactions (§3). The flat per-phase histograms of
//! [`SpanRecorder`](crate::SpanRecorder) cannot answer "why was this
//! transaction slow" or "why did this subtree abort", because both are
//! properties of the tree. This module records, per transaction, a
//! **span tree mirroring the nested program tree** — one [`Span`] per
//! program node (sequential/parallel subtransaction or per-item quorum
//! access) — whose leaves carry **causal edges** ([`Seg`]): contiguous,
//! typed time segments (quorum gather, write install, retry backoff,
//! stale-generation retry, copy-level lock wait, migration/reconfig
//! fence wait), each optionally naming the transaction that caused the
//! wait.
//!
//! Everything is keyed on simulated time and never reads a clock or an
//! RNG, so recording is pure observation: observed runs are
//! bit-identical to unobserved runs, and recordings are bit-identical
//! across OS thread counts (traces are merged in domain/shard-index
//! order, and the aggregate [`CritProfile`] is order-insensitive like
//! [`Histogram`]).
//!
//! # Exact critical paths
//!
//! Because the simulators dispatch synchronously at decision instants,
//! a transaction's wall time tiles exactly into its spans: sequential
//! children run back to back, parallel children all start at the parent's
//! instant and the parent ends when the last child returns, and a leaf
//! access is a gap-free chain of typed segments. [`TxnTrace::critical_path`]
//! exploits this to extract the longest causally-dependent chain from
//! txn start to commit/abort, and the chain's segment durations sum to
//! the end-to-end latency **exactly** — asserted in [`TxnTrace::verify`],
//! the test wall, and `qc-exp critpath`.
//!
//! Serialized span trees ride the qc-events-v1 JSONL stream as
//! `"event":"span_tree"` lines ([`TxnTrace::to_json_line`]); this module
//! also parses them back ([`TxnTrace::parse_json_line`]) for the
//! `qc-trace` query tool, since the vendored `serde_json` deliberately
//! ships no parser.

use crate::fnv1a;
use crate::hist::Histogram;

/// Sentinel span index: "no span" (a root's parent, "no doomed span").
pub const NO_SPAN: u32 = u32::MAX;

/// Sentinel simulated time: "never happened".
pub const NO_TIME: u64 = u64::MAX;

/// Identity of a transaction: global client index plus the client's
/// transaction epoch (the same pair that keys `PathTid` lock owners).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnRef {
    /// Global client index.
    pub client: u32,
    /// Per-client transaction epoch.
    pub epoch: u32,
}

impl TxnRef {
    /// `client.epoch` — the rendering used in tables and traces.
    pub fn label(self) -> String {
        format!("{}.{}", self.client, self.epoch)
    }
}

/// The kind of a causal edge: what a slice of a transaction's time was
/// spent on, and (for waits) what it was waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Phase 1 of Gifford's protocol: gather a read quorum's
    /// `(version-number, value)` responses.
    ReadGather = 0,
    /// Phase 2: install the new version at a write quorum.
    WriteInstall = 1,
    /// Sleeping between a failed quorum attempt and its retry.
    RetryBackoff = 2,
    /// A whole attempt thrown away by a §4 stale-generation rejection:
    /// the configuration moved underneath the op, so the attempt's
    /// elapsed time bought nothing.
    StaleRetry = 3,
    /// Queued on a copy-level lock (Moss 2PL); `blocker` names the
    /// conflicting holder at queue time, or is `None` when the item was
    /// latched by a pending compensation.
    LockWait = 4,
    /// Parked behind a migration/reconfiguration fence until the
    /// barrier completed.
    Fence = 5,
}

/// All edge kinds, in discriminant order.
pub const EDGE_KINDS: [EdgeKind; 6] = [
    EdgeKind::ReadGather,
    EdgeKind::WriteInstall,
    EdgeKind::RetryBackoff,
    EdgeKind::StaleRetry,
    EdgeKind::LockWait,
    EdgeKind::Fence,
];

impl EdgeKind {
    /// Stable wire name (JSONL and tables).
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::ReadGather => "read_gather",
            EdgeKind::WriteInstall => "write_install",
            EdgeKind::RetryBackoff => "retry_backoff",
            EdgeKind::StaleRetry => "stale_retry",
            EdgeKind::LockWait => "lock_wait",
            EdgeKind::Fence => "fence",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        EDGE_KINDS.into_iter().find(|k| k.name() == s)
    }
}

/// Root cause of an abort, reached by walking the dooming edge back
/// through the span tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortCause {
    /// Copy-level lock conflict: queued past the lock-wait budget.
    LockTimeout = 0,
    /// Could not assemble a quorum within the retry budget.
    QuorumUnavailable = 1,
    /// A fault-plan abort verb was consumed at an attempt.
    Forced = 2,
    /// Workload-scripted subtree doom (the program tree aborts here).
    Doomed = 3,
    /// A migration/reconfiguration fence killed the parked op.
    Fence = 4,
}

/// All abort causes, in discriminant order.
pub const ABORT_CAUSES: [AbortCause; 5] = [
    AbortCause::LockTimeout,
    AbortCause::QuorumUnavailable,
    AbortCause::Forced,
    AbortCause::Doomed,
    AbortCause::Fence,
];

impl AbortCause {
    /// Stable wire name (JSONL and tables).
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::LockTimeout => "lock_timeout",
            AbortCause::QuorumUnavailable => "quorum_unavailable",
            AbortCause::Forced => "forced",
            AbortCause::Doomed => "doomed",
            AbortCause::Fence => "fence",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        ABORT_CAUSES.into_iter().find(|c| c.name() == s)
    }
}

/// What a span is: a subtransaction running its children sequentially
/// or in parallel, or a per-item quorum access at a leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Children run back to back.
    Seq,
    /// Children all start at this span's start; the span ends when the
    /// last child returns.
    Par,
    /// A leaf quorum access on one item.
    Access {
        /// Global item index.
        item: u64,
        /// Write (`true`) or read (`false`).
        write: bool,
    },
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Seq => "seq",
            SpanKind::Par => "par",
            SpanKind::Access { .. } => "access",
        }
    }
}

/// How a span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Completed and returned to its parent.
    Ok,
    /// Aborted (the span itself was doomed — by script, timeout,
    /// exhausted retries, fault verb, or fence).
    Aborted,
    /// Still in flight when the whole transaction ended (an abort
    /// elsewhere cancelled it); `end_us` is clamped to the txn end.
    Cancelled,
    /// Never dispatched.
    Unstarted,
}

impl SpanOutcome {
    fn name(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Aborted => "aborted",
            SpanOutcome::Cancelled => "cancelled",
            SpanOutcome::Unstarted => "unstarted",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        [
            SpanOutcome::Ok,
            SpanOutcome::Aborted,
            SpanOutcome::Cancelled,
            SpanOutcome::Unstarted,
        ]
        .into_iter()
        .find(|o| o.name() == s)
    }
}

/// One causal edge: a typed, gap-free slice of a leaf access's time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seg {
    /// What the time was spent on.
    pub kind: EdgeKind,
    /// Absolute simulated start, microseconds.
    pub at_us: u64,
    /// Duration, microseconds (zero allowed).
    pub dur_us: u64,
    /// For lock waits: the conflicting holder at queue time.
    pub blocker: Option<TxnRef>,
}

/// One node of the span tree, mirroring one program-tree node.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Parent span index ([`NO_SPAN`] for the root).
    pub parent: u32,
    /// Node kind.
    pub kind: SpanKind,
    /// Dispatch instant ([`NO_TIME`] if never started).
    pub start_us: u64,
    /// Return/abort instant ([`NO_TIME`] while in flight).
    pub end_us: u64,
    /// How the span ended.
    pub outcome: SpanOutcome,
    /// Why it aborted, if it did.
    pub cause: Option<AbortCause>,
    /// Causal edges (leaf accesses only), in time order.
    pub segs: Vec<Seg>,
    /// Child span indices in program order (inner nodes only).
    pub children: Vec<u32>,
}

impl Span {
    fn new(parent: u32, kind: SpanKind) -> Self {
        Self {
            parent,
            kind,
            start_us: NO_TIME,
            end_us: NO_TIME,
            outcome: SpanOutcome::Unstarted,
            cause: None,
            segs: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// One step of an extracted critical path: a [`Seg`] plus the span (and
/// item) it came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CritStep {
    /// Span index the step belongs to.
    pub span: u32,
    /// Edge kind.
    pub kind: EdgeKind,
    /// Absolute simulated start, microseconds.
    pub at_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Item the owning access touches, if the span is a leaf.
    pub item: Option<u64>,
    /// Blocking transaction, for lock waits.
    pub blocker: Option<TxnRef>,
}

/// The longest causally-dependent chain from txn start to commit/abort.
/// For a well-formed trace, `total_us` equals the end-to-end latency
/// exactly (the chain is gap-free by construction).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CritPath {
    /// Steps in time order.
    pub steps: Vec<CritStep>,
    /// Sum of step durations, microseconds.
    pub total_us: u64,
}

/// One transaction's complete causal recording.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnTrace {
    /// Transaction identity.
    pub id: TxnRef,
    /// Producing shard/domain (0 for single-domain runs).
    pub shard: u32,
    /// Submission instant.
    pub start_us: u64,
    /// Commit/abort instant.
    pub end_us: u64,
    /// Committed (`true`) or aborted.
    pub committed: bool,
    /// Root cause, for aborted transactions.
    pub cause: Option<AbortCause>,
    /// The span whose abort ended the transaction ([`NO_SPAN`] if none
    /// or if the root itself was doomed after its children returned).
    pub doomed: u32,
    /// The span tree; `spans[0]` is the root and every span's parent
    /// index is smaller than its own.
    pub spans: Vec<Span>,
}

impl TxnTrace {
    /// A new in-flight trace with no spans yet.
    pub fn new(id: TxnRef, shard: u32, start_us: u64) -> Self {
        Self {
            id,
            shard,
            start_us,
            end_us: NO_TIME,
            committed: false,
            cause: None,
            doomed: NO_SPAN,
            spans: Vec::new(),
        }
    }

    /// Append a span under `parent` ([`NO_SPAN`] for the root) and
    /// return its index. Children must be added in program order.
    pub fn add_span(&mut self, parent: u32, kind: SpanKind) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span::new(parent, kind));
        if parent != NO_SPAN {
            self.spans[parent as usize].children.push(idx);
        }
        idx
    }

    /// Mark `span` dispatched at `now` (idempotent).
    pub fn start_span(&mut self, span: u32, now_us: u64) {
        let s = &mut self.spans[span as usize];
        if s.start_us == NO_TIME {
            s.start_us = now_us;
        }
    }

    /// Mark `span` returned OK at `now`.
    pub fn finish_span(&mut self, span: u32, now_us: u64) {
        let s = &mut self.spans[span as usize];
        s.end_us = now_us;
        s.outcome = SpanOutcome::Ok;
    }

    /// Mark `span` aborted at `now` with `cause`.
    pub fn abort_span(&mut self, span: u32, now_us: u64, cause: AbortCause) {
        let s = &mut self.spans[span as usize];
        s.end_us = now_us;
        s.outcome = SpanOutcome::Aborted;
        s.cause = Some(cause);
    }

    /// Append a causal edge to leaf `span`.
    pub fn push_seg(
        &mut self,
        span: u32,
        kind: EdgeKind,
        at_us: u64,
        dur_us: u64,
        blocker: Option<TxnRef>,
    ) {
        self.spans[span as usize].segs.push(Seg {
            kind,
            at_us,
            dur_us,
            blocker,
        });
    }

    /// Lay `segs` — `(kind, µs)` in causal order — on leaf `span` back to
    /// back from `at_us`, cut at `until_us`, leaving zero durations out;
    /// returns the instant the last one ends.
    pub fn lay_segs(
        &mut self,
        span: u32,
        mut at_us: u64,
        until_us: u64,
        segs: impl IntoIterator<Item = (EdgeKind, u64)>,
    ) -> u64 {
        for (kind, dur) in segs {
            let dur = dur.min(until_us.saturating_sub(at_us));
            if dur > 0 {
                self.push_seg(span, kind, at_us, dur, None);
                at_us += dur;
            }
        }
        at_us
    }

    /// Seal the trace at `now`: record the outcome, remember the doomed
    /// span (for aborts), and clamp any span still in flight to
    /// [`SpanOutcome::Cancelled`] at the transaction end.
    pub fn seal(&mut self, now_us: u64, committed: bool, doomed: u32, cause: Option<AbortCause>) {
        self.end_us = now_us;
        self.committed = committed;
        self.doomed = doomed;
        self.cause = cause;
        for s in &mut self.spans {
            if s.start_us != NO_TIME && s.end_us == NO_TIME {
                s.end_us = now_us;
                s.outcome = SpanOutcome::Cancelled;
                // An in-flight access may carry segments for work whose
                // completion was scheduled beyond the transaction end
                // (e.g. a sibling's install cut short by an abort); the
                // cancellation truncates them at the end instant.
                s.segs.retain(|seg| seg.at_us < now_us);
                if let Some(last) = s.segs.last_mut() {
                    last.dur_us = last.dur_us.min(now_us - last.at_us);
                }
            }
        }
    }

    /// End-to-end latency, microseconds.
    pub fn latency_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Span indices from the root down to `span`, inclusive.
    fn chain_to(&self, span: u32) -> Vec<u32> {
        let mut chain = Vec::new();
        let mut cur = span;
        while cur != NO_SPAN {
            chain.push(cur);
            cur = self.spans[cur as usize].parent;
        }
        chain.reverse();
        chain
    }

    /// The abort-cause chain: the spans from the root down to the
    /// dooming span, ending at the root cause. Empty for committed
    /// transactions with no doomed span.
    pub fn abort_chain(&self) -> Vec<u32> {
        if self.doomed == NO_SPAN {
            return Vec::new();
        }
        self.chain_to(self.doomed)
    }

    /// Extract the critical path: the gap-free chain of causal edges
    /// from txn start to the commit/abort instant.
    ///
    /// For committed transactions the walk descends, at each parallel
    /// node, into the child that returned last (ties to the lowest
    /// index, keeping extraction deterministic); sequential children
    /// all lie on the path. For aborted transactions the walk follows
    /// the abort chain, so the path ends at the edge that doomed the
    /// transaction.
    pub fn critical_path(&self) -> CritPath {
        let mut path = CritPath::default();
        if self.spans.is_empty() || self.spans[0].start_us == NO_TIME {
            return path;
        }
        let on_chain: Vec<u32> = self.abort_chain();
        self.walk(0, &on_chain, &mut path.steps);
        path.total_us = path.steps.iter().map(|s| s.dur_us).sum();
        path
    }

    fn walk(&self, span: u32, on_chain: &[u32], out: &mut Vec<CritStep>) {
        let s = &self.spans[span as usize];
        match s.kind {
            SpanKind::Access { item, .. } => {
                for seg in &s.segs {
                    out.push(CritStep {
                        span,
                        kind: seg.kind,
                        at_us: seg.at_us,
                        dur_us: seg.dur_us,
                        item: Some(item),
                        blocker: seg.blocker,
                    });
                }
            }
            SpanKind::Seq => {
                // Sequential children tile back to back; every started
                // child is on the path (an aborting child is always the
                // last one started).
                for &c in &s.children {
                    if self.spans[c as usize].start_us != NO_TIME {
                        self.walk(c, on_chain, out);
                    }
                }
            }
            SpanKind::Par => {
                // Follow the abort chain if it passes through a child;
                // otherwise the last-returning child determines when
                // this node ends.
                let chain_child = s
                    .children
                    .iter()
                    .copied()
                    .find(|c| on_chain.contains(c));
                let pick = chain_child.or_else(|| {
                    s.children
                        .iter()
                        .copied()
                        .filter(|&c| self.spans[c as usize].start_us != NO_TIME)
                        .max_by(|&a, &b| {
                            let (ea, eb) =
                                (self.spans[a as usize].end_us, self.spans[b as usize].end_us);
                            // Later end wins; on ties the LOWER index
                            // wins, so prefer it in the max.
                            ea.cmp(&eb).then(b.cmp(&a))
                        })
                });
                if let Some(c) = pick {
                    self.walk(c, on_chain, out);
                }
            }
        }
    }

    /// Check the trace is well-formed and causally consistent:
    /// tree-shaped with parents before children, leaf segments gap-free
    /// and tiling their span, sequential children back to back,
    /// parallel children anchored at the parent's start — and the
    /// extracted critical path reconciling **exactly** with the
    /// end-to-end latency. Returns the first violation found.
    pub fn verify(&self) -> Result<(), String> {
        if self.spans.is_empty() {
            return Err("no spans".into());
        }
        if self.end_us == NO_TIME || self.end_us < self.start_us {
            return Err("trace not sealed or ends before it starts".into());
        }
        for (i, s) in self.spans.iter().enumerate() {
            let i32u = u32::try_from(i).unwrap();
            if i == 0 {
                if s.parent != NO_SPAN {
                    return Err("root has a parent".into());
                }
            } else {
                if s.parent >= i32u {
                    return Err(format!("span {i}: parent not before child"));
                }
                if !self.spans[s.parent as usize].children.contains(&i32u) {
                    return Err(format!("span {i}: parent does not list it"));
                }
            }
            match s.kind {
                SpanKind::Access { .. } => {
                    if !s.children.is_empty() {
                        return Err(format!("span {i}: access with children"));
                    }
                }
                SpanKind::Seq | SpanKind::Par => {
                    if !s.segs.is_empty() {
                        return Err(format!("span {i}: inner span with segs"));
                    }
                    // With "parent before child" above, the critical-path
                    // walk down `children` cannot cycle.
                    let stray = s
                        .children
                        .iter()
                        .find(|&&c| self.spans[c as usize].parent != i32u);
                    if let Some(c) = stray {
                        return Err(format!("span {i}: child {c} names another parent"));
                    }
                }
            }
            if s.start_us == NO_TIME {
                if s.outcome != SpanOutcome::Unstarted {
                    return Err(format!("span {i}: unstarted but has an outcome"));
                }
                continue;
            }
            if s.end_us == NO_TIME || s.end_us < s.start_us {
                return Err(format!("span {i}: unsealed or ends before start"));
            }
            if s.parent != NO_SPAN && s.start_us < self.spans[s.parent as usize].start_us {
                return Err(format!("span {i}: starts before its parent"));
            }
            // Leaf segments: gap-free chain from start; exact tiling to
            // the end for spans that ran to completion.
            if let SpanKind::Access { .. } = s.kind {
                let mut t = s.start_us;
                for (j, seg) in s.segs.iter().enumerate() {
                    if seg.at_us != t {
                        return Err(format!(
                            "span {i} seg {j}: starts at {} expected {t} (edge out of order)",
                            seg.at_us
                        ));
                    }
                    t = (t.checked_add(seg.dur_us))
                        .ok_or_else(|| format!("span {i} seg {j}: overflows"))?;
                }
                match s.outcome {
                    SpanOutcome::Ok | SpanOutcome::Aborted => {
                        if t != s.end_us {
                            return Err(format!(
                                "span {i}: segs tile to {t}, span ends at {}",
                                s.end_us
                            ));
                        }
                    }
                    _ => {
                        if t > s.end_us {
                            return Err(format!("span {i}: segs overrun the cancelled span"));
                        }
                    }
                }
            }
            // Inner tiling.
            let started: Vec<u32> = s
                .children
                .iter()
                .copied()
                .filter(|&c| self.spans[c as usize].start_us != NO_TIME)
                .collect();
            match s.kind {
                SpanKind::Seq => {
                    let mut t = s.start_us;
                    for &c in &started {
                        let cs = &self.spans[c as usize];
                        if cs.start_us != t {
                            return Err(format!(
                                "span {i}: seq child {c} starts at {} expected {t}",
                                cs.start_us
                            ));
                        }
                        t = cs.end_us;
                    }
                    if matches!(s.outcome, SpanOutcome::Ok | SpanOutcome::Aborted)
                        && !started.is_empty()
                        && t != s.end_us
                    {
                        return Err(format!("span {i}: seq children tile to {t}, ends {}", s.end_us));
                    }
                }
                SpanKind::Par => {
                    for &c in &started {
                        if self.spans[c as usize].start_us != s.start_us {
                            return Err(format!("span {i}: par child {c} not anchored at start"));
                        }
                    }
                    if matches!(s.outcome, SpanOutcome::Ok | SpanOutcome::Aborted)
                        && !started.is_empty()
                    {
                        let last = started
                            .iter()
                            .map(|&c| self.spans[c as usize].end_us)
                            .max()
                            .unwrap();
                        if last != s.end_us {
                            return Err(format!(
                                "span {i}: par children end at {last}, span ends {}",
                                s.end_us
                            ));
                        }
                    }
                }
                SpanKind::Access { .. } => {}
            }
        }
        if self.committed {
            if self.cause.is_some() {
                return Err("committed trace with an abort cause".into());
            }
            let root = &self.spans[0];
            if root.outcome != SpanOutcome::Ok || root.end_us != self.end_us {
                return Err("committed trace whose root did not finish at the end".into());
            }
        } else {
            if self.cause.is_none() {
                return Err("aborted trace without a cause".into());
            }
            if self.doomed != NO_SPAN {
                let d = &self.spans[self.doomed as usize];
                if d.outcome != SpanOutcome::Aborted && d.outcome != SpanOutcome::Ok {
                    return Err("doomed span neither aborted nor finished".into());
                }
            }
        }
        // The critical path must chain gap-free from start to end and
        // its length must reconcile exactly with the latency.
        let cp = self.critical_path();
        let mut t = self.start_us;
        for (j, step) in cp.steps.iter().enumerate() {
            if step.at_us != t {
                return Err(format!(
                    "critical path step {j} starts at {} expected {t}",
                    step.at_us
                ));
            }
            t = (t.checked_add(step.dur_us))
                .ok_or_else(|| format!("critical path step {j}: overflows"))?;
        }
        if t != self.end_us {
            return Err(format!(
                "critical path reaches {t}, txn ends at {} (total {} vs latency {})",
                self.end_us,
                cp.total_us,
                self.latency_us()
            ));
        }
        debug_assert_eq!(cp.total_us, self.latency_us());
        Ok(())
    }

    /// The trace as one qc-events-v1 JSON line
    /// (`"event":"span_tree"`, no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"at_us\":{},\"shard\":{},\"event\":\"span_tree\",\"client\":{},\"epoch\":{},\"start_us\":{},\"end_us\":{},\"outcome\":\"{}\"",
            self.end_us,
            self.shard,
            self.id.client,
            self.id.epoch,
            self.start_us,
            self.end_us,
            if self.committed { "committed" } else { "aborted" },
        );
        match self.cause {
            Some(c) => out.push_str(&format!(",\"cause\":\"{}\"", c.name())),
            None => out.push_str(",\"cause\":null"),
        }
        if self.doomed == NO_SPAN {
            out.push_str(",\"doomed\":null");
        } else {
            out.push_str(&format!(",\"doomed\":{}", self.doomed));
        }
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            if s.parent == NO_SPAN {
                out.push_str("\"parent\":null");
            } else {
                out.push_str(&format!("\"parent\":{}", s.parent));
            }
            out.push_str(&format!(",\"kind\":\"{}\"", s.kind.name()));
            if let SpanKind::Access { item, write } = s.kind {
                out.push_str(&format!(",\"item\":{item},\"write\":{write}"));
            }
            if s.start_us == NO_TIME {
                out.push_str(",\"start_us\":null,\"end_us\":null");
            } else {
                out.push_str(&format!(",\"start_us\":{},\"end_us\":{}", s.start_us, s.end_us));
            }
            out.push_str(&format!(",\"outcome\":\"{}\"", s.outcome.name()));
            if let Some(c) = s.cause {
                out.push_str(&format!(",\"cause\":\"{}\"", c.name()));
            }
            if !s.segs.is_empty() {
                out.push_str(",\"segs\":[");
                for (j, seg) in s.segs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"kind\":\"{}\",\"at_us\":{},\"dur_us\":{}",
                        seg.kind.name(),
                        seg.at_us,
                        seg.dur_us
                    ));
                    match seg.blocker {
                        Some(b) => out.push_str(&format!(",\"blocker\":[{},{}]", b.client, b.epoch)),
                        None => out.push_str(",\"blocker\":null"),
                    }
                    out.push('}');
                }
                out.push(']');
            }
            if !s.children.is_empty() {
                out.push_str(",\"children\":[");
                for (j, c) in s.children.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&c.to_string());
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse one `"event":"span_tree"` JSON line back into a trace.
    pub fn parse_json_line(line: &str) -> Result<TxnTrace, String> {
        let v = Jv::parse(line)?;
        let obj = v.as_obj().ok_or("line is not an object")?;
        if Jv::get_str(obj, "event") != Some("span_tree") {
            return Err("not a span_tree event".into());
        }
        let id_u32 = |key: &str| -> Result<u32, String> {
            let v = Jv::get_u64(obj, key).ok_or_else(|| format!("missing {key}"))?;
            u32::try_from(v).map_err(|_| format!("{key} {v} out of range"))
        };
        let id = TxnRef {
            client: id_u32("client")?,
            epoch: id_u32("epoch")?,
        };
        let mut trace = TxnTrace::new(
            id,
            id_u32("shard")?,
            Jv::get_u64(obj, "start_us").ok_or("missing start_us")?,
        );
        trace.end_us = Jv::get_u64(obj, "end_us").ok_or("missing end_us")?;
        trace.committed = Jv::get_str(obj, "outcome") == Some("committed");
        trace.cause = Jv::get_str(obj, "cause").and_then(AbortCause::from_name);
        let spans = Jv::get(obj, "spans")
            .and_then(Jv::as_arr)
            .ok_or("missing spans")?;
        // Every index a line names must be one of its spans: `verify` and
        // the queries index with them.
        let span_index = |what: &str, v: u64| -> Result<u32, String> {
            u32::try_from(v)
                .ok()
                .filter(|&i| (i as usize) < spans.len())
                .ok_or_else(|| format!("{what} {v} is not one of the {} spans", spans.len()))
        };
        trace.doomed = match Jv::get_u64(obj, "doomed") {
            Some(d) => span_index("doomed span", d)?,
            None => NO_SPAN,
        };
        for sv in spans {
            let so = sv.as_obj().ok_or("span is not an object")?;
            let kind = match Jv::get_str(so, "kind") {
                Some("seq") => SpanKind::Seq,
                Some("par") => SpanKind::Par,
                Some("access") => SpanKind::Access {
                    item: Jv::get_u64(so, "item").ok_or("access without item")?,
                    write: Jv::get_bool(so, "write").ok_or("access without write")?,
                },
                _ => return Err("bad span kind".into()),
            };
            let parent = match Jv::get_u64(so, "parent") {
                Some(p) => span_index("parent", p)?,
                None => NO_SPAN,
            };
            let mut span = Span::new(parent, kind);
            span.start_us = Jv::get_u64(so, "start_us").unwrap_or(NO_TIME);
            span.end_us = Jv::get_u64(so, "end_us").unwrap_or(NO_TIME);
            span.outcome = Jv::get_str(so, "outcome")
                .and_then(SpanOutcome::from_name)
                .ok_or("bad span outcome")?;
            span.cause = Jv::get_str(so, "cause").and_then(AbortCause::from_name);
            if let Some(segs) = Jv::get(so, "segs").and_then(Jv::as_arr) {
                for gv in segs {
                    let go = gv.as_obj().ok_or("seg is not an object")?;
                    let blocker = match Jv::get(go, "blocker") {
                        Some(Jv::Arr(pair)) if pair.len() == 2 => {
                            let half = |v: &Jv| v.as_u64().and_then(|v| u32::try_from(v).ok());
                            Some(TxnRef {
                                client: half(&pair[0]).ok_or("bad blocker")?,
                                epoch: half(&pair[1]).ok_or("bad blocker")?,
                            })
                        }
                        _ => None,
                    };
                    span.segs.push(Seg {
                        kind: Jv::get_str(go, "kind")
                            .and_then(EdgeKind::from_name)
                            .ok_or("bad seg kind")?,
                        at_us: Jv::get_u64(go, "at_us").ok_or("seg without at_us")?,
                        dur_us: Jv::get_u64(go, "dur_us").ok_or("seg without dur_us")?,
                        blocker,
                    });
                }
            }
            if let Some(children) = Jv::get(so, "children").and_then(Jv::as_arr) {
                for c in children {
                    let c = c.as_u64().ok_or("bad child index")?;
                    span.children.push(span_index("child", c)?);
                }
            }
            trace.spans.push(span);
        }
        Ok(trace)
    }

    /// Render the critical path as an indented, human-readable block.
    pub fn render_critical_path(&self) -> String {
        let cp = self.critical_path();
        let outcome = if self.committed {
            "committed".to_string()
        } else {
            format!(
                "aborted ({})",
                self.cause.map_or("?", AbortCause::name)
            )
        };
        let mut out = format!(
            "txn {} {} latency={}us critical-path steps={}\n",
            self.id.label(),
            outcome,
            self.latency_us(),
            cp.steps.len()
        );
        for step in &cp.steps {
            let item = step
                .item
                .map_or(String::new(), |i| format!(" item {i}"));
            let blocker = step
                .blocker
                .map_or(String::new(), |b| format!(" blocked-by {}", b.label()));
            out.push_str(&format!(
                "  {:>9}us  {:<13} span#{}{}{}\n",
                step.dur_us,
                step.kind.name(),
                step.span,
                item,
                blocker
            ));
        }
        out
    }
}

/// Aggregated critical-path profile over a run: time attributed per
/// edge kind across every transaction's critical path, end-to-end
/// latencies, and abort-cause tallies. Order-insensitively mergeable
/// like [`Histogram`], so shard merges are thread-count-invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct CritProfile {
    per_kind: [Histogram; EDGE_KINDS.len()],
    e2e: Histogram,
    txns: u64,
    committed: u64,
    reconciled: u64,
    aborts: [u64; ABORT_CAUSES.len()],
}

impl Default for CritProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl CritProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self {
            per_kind: std::array::from_fn(|_| Histogram::new()),
            e2e: Histogram::new(),
            txns: 0,
            committed: 0,
            reconciled: 0,
            aborts: [0; ABORT_CAUSES.len()],
        }
    }

    /// Fold one finished transaction's critical path in.
    pub fn observe(&mut self, trace: &TxnTrace) {
        let cp = trace.critical_path();
        self.txns += 1;
        if trace.committed {
            self.committed += 1;
        } else if let Some(c) = trace.cause {
            self.aborts[c as usize] += 1;
        }
        self.e2e.record(trace.latency_us());
        if cp.total_us == trace.latency_us() {
            self.reconciled += 1;
        }
        for step in &cp.steps {
            self.per_kind[step.kind as usize].record(step.dur_us);
        }
    }

    /// Transactions observed.
    pub fn txns(&self) -> u64 {
        self.txns
    }

    /// Transactions that committed.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Transactions whose critical path reconciled exactly with their
    /// end-to-end latency (must equal [`CritProfile::txns`]).
    pub fn reconciled(&self) -> u64 {
        self.reconciled
    }

    /// Abort count for one cause.
    pub fn aborts(&self, cause: AbortCause) -> u64 {
        self.aborts[cause as usize]
    }

    /// Critical-path duration histogram of one edge kind.
    pub fn edge(&self, kind: EdgeKind) -> &Histogram {
        &self.per_kind[kind as usize]
    }

    /// End-to-end latency histogram.
    pub fn e2e(&self) -> &Histogram {
        &self.e2e
    }

    /// True if nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.txns == 0
    }

    /// Order-insensitive merge.
    pub fn merge(&mut self, other: &CritProfile) {
        for (dst, src) in self.per_kind.iter_mut().zip(&other.per_kind) {
            dst.merge(src);
        }
        self.e2e.merge(&other.e2e);
        self.txns += other.txns;
        self.committed += other.committed;
        self.reconciled += other.reconciled;
        for (dst, src) in self.aborts.iter_mut().zip(&other.aborts) {
            *dst += src;
        }
    }

    /// JSON rendering: counters, per-edge histograms keyed by edge
    /// name, abort tallies keyed by cause name.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"txns\":{},\"committed\":{},\"reconciled\":{},\"e2e\":{}",
            self.txns,
            self.committed,
            self.reconciled,
            self.e2e.to_json()
        );
        out.push_str(",\"edges\":{");
        for (i, k) in EDGE_KINDS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", k.name(), self.edge(*k).to_json()));
        }
        out.push_str("},\"aborts\":{");
        for (i, c) in ABORT_CAUSES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.aborts[*c as usize]));
        }
        out.push_str("}}");
        out
    }

    /// FNV-1a digest over the JSON rendering.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }
}

/// What the causal recorder keeps. The default records nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CausalOptions {
    /// Record span trees and fold critical paths into the profile.
    pub enabled: bool,
    /// Retain the K slowest transactions' full traces.
    pub keep_top: usize,
    /// Retain **every** trace (goldens and `qc-trace` input; memory is
    /// proportional to the transaction count).
    pub keep_all: bool,
}

impl CausalOptions {
    /// Record nothing (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Profile plus the 8 slowest full traces — the `qc-exp critpath`
    /// preset.
    pub fn profile() -> Self {
        Self {
            enabled: true,
            keep_top: 8,
            keep_all: false,
        }
    }

    /// Everything, including every full trace.
    pub fn full() -> Self {
        Self {
            enabled: true,
            keep_top: 8,
            keep_all: true,
        }
    }
}

/// Total order for "slowest" retention: latency descending, then txn id
/// ascending — independent of observation order, hence of thread count.
fn slower(a: &TxnTrace, b: &TxnTrace) -> std::cmp::Ordering {
    b.latency_us()
        .cmp(&a.latency_us())
        .then(a.id.cmp(&b.id))
        .then(a.shard.cmp(&b.shard))
}

/// The causal flight recorder: per-domain collector and cross-domain
/// report in one type. Domains each record into their own
/// `CausalReport`; the driver absorbs them in domain-index order, so
/// the merged report (and its digest) is thread-count-invariant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CausalReport {
    /// What this recorder keeps.
    pub opts: CausalOptions,
    profile: CritProfile,
    slowest: Vec<TxnTrace>,
    all: Vec<TxnTrace>,
}

impl CausalReport {
    /// An empty recorder configured by `opts`.
    pub fn new(opts: CausalOptions) -> Self {
        Self {
            opts,
            profile: CritProfile::new(),
            slowest: Vec::new(),
            all: Vec::new(),
        }
    }

    /// True if recording is on.
    pub fn enabled(&self) -> bool {
        self.opts.enabled
    }

    /// Fold one sealed transaction trace in. Debug builds verify the
    /// trace (structure, tiling, exact critical-path reconciliation).
    pub fn record(&mut self, trace: TxnTrace) {
        debug_assert!(self.opts.enabled);
        debug_assert_eq!(trace.verify(), Ok(()), "trace: {}", trace.to_json_line());
        self.profile.observe(&trace);
        if self.opts.keep_top > 0 {
            let pos = self
                .slowest
                .binary_search_by(|t| slower(t, &trace))
                .unwrap_or_else(|p| p);
            if pos < self.opts.keep_top {
                self.slowest.insert(pos, trace.clone());
                self.slowest.truncate(self.opts.keep_top);
            }
        }
        if self.opts.keep_all {
            self.all.push(trace);
        }
    }

    /// The aggregated critical-path profile.
    pub fn profile(&self) -> &CritProfile {
        &self.profile
    }

    /// The retained slowest traces, slowest first.
    pub fn slowest(&self) -> &[TxnTrace] {
        &self.slowest
    }

    /// Every retained trace (non-empty only with
    /// [`CausalOptions::keep_all`]), in domain-merge order.
    pub fn all(&self) -> &[TxnTrace] {
        &self.all
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.profile.is_empty()
    }

    /// Fold another domain's report into this one (call in domain-index
    /// order for canonical renderings).
    pub fn absorb(&mut self, other: CausalReport) {
        self.profile.merge(&other.profile);
        self.slowest.extend(other.slowest);
        self.slowest.sort_by(slower);
        self.slowest.truncate(self.opts.keep_top);
        self.all.extend(other.all);
    }

    /// The retained traces (all if kept, else the slowest) as a
    /// qc-events-v1 JSONL stream of `span_tree` events.
    pub fn to_jsonl(&self) -> String {
        let traces = if self.opts.keep_all {
            &self.all
        } else {
            &self.slowest
        };
        let mut out = format!(
            "{{\"format\":\"{}\",\"events\":{},\"dropped\":0}}\n",
            crate::EVENTS_FORMAT,
            traces.len()
        );
        for t in traces {
            out.push_str(&t.to_json_line());
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest over the profile JSON and the retained-trace
    /// JSONL — bit-identical across thread counts for the same seed.
    pub fn digest(&self) -> u64 {
        let mut text = self.profile.to_json();
        text.push('\n');
        text.push_str(&self.to_jsonl());
        fnv1a(text.as_bytes())
    }
}

// ---------------------------------------------------------------------
// Minimal JSON value parser for span_tree lines (the vendored
// serde_json is writer-only by design).
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers are unsigned integers — the span-tree
/// schema uses nothing else.
#[derive(Clone, Debug, PartialEq)]
enum Jv {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Jv>),
    Obj(Vec<(String, Jv)>),
}

impl Jv {
    fn parse(text: &str) -> Result<Jv, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = Jv::value(bytes, &mut pos)?;
        Jv::ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], p: &mut usize) {
        while *p < b.len() && matches!(b[*p], b' ' | b'\t' | b'\n' | b'\r') {
            *p += 1;
        }
    }

    fn value(b: &[u8], p: &mut usize) -> Result<Jv, String> {
        Jv::ws(b, p);
        match b.get(*p) {
            Some(b'{') => {
                *p += 1;
                let mut fields = Vec::new();
                Jv::ws(b, p);
                if b.get(*p) == Some(&b'}') {
                    *p += 1;
                    return Ok(Jv::Obj(fields));
                }
                loop {
                    Jv::ws(b, p);
                    let Jv::Str(key) = Jv::value(b, p)? else {
                        return Err(format!("object key not a string at {p}"));
                    };
                    Jv::ws(b, p);
                    if b.get(*p) != Some(&b':') {
                        return Err(format!("expected ':' at {p}"));
                    }
                    *p += 1;
                    fields.push((key, Jv::value(b, p)?));
                    Jv::ws(b, p);
                    match b.get(*p) {
                        Some(b',') => *p += 1,
                        Some(b'}') => {
                            *p += 1;
                            return Ok(Jv::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at {p}")),
                    }
                }
            }
            Some(b'[') => {
                *p += 1;
                let mut items = Vec::new();
                Jv::ws(b, p);
                if b.get(*p) == Some(&b']') {
                    *p += 1;
                    return Ok(Jv::Arr(items));
                }
                loop {
                    items.push(Jv::value(b, p)?);
                    Jv::ws(b, p);
                    match b.get(*p) {
                        Some(b',') => *p += 1,
                        Some(b']') => {
                            *p += 1;
                            return Ok(Jv::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at {p}")),
                    }
                }
            }
            Some(b'"') => {
                *p += 1;
                let mut s = String::new();
                loop {
                    match b.get(*p) {
                        Some(b'"') => {
                            *p += 1;
                            return Ok(Jv::Str(s));
                        }
                        Some(b'\\') => {
                            *p += 1;
                            match b.get(*p) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'/') => s.push('/'),
                                Some(b'n') => s.push('\n'),
                                Some(b'r') => s.push('\r'),
                                Some(b't') => s.push('\t'),
                                Some(b'u') => {
                                    let hex = b
                                        .get(*p + 1..*p + 5)
                                        .ok_or("truncated \\u escape")?;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                        16,
                                    )
                                    .map_err(|e| e.to_string())?;
                                    s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                                    *p += 4;
                                }
                                _ => return Err(format!("bad escape at {p}")),
                            }
                            *p += 1;
                        }
                        Some(_) => {
                            // Copy the full UTF-8 scalar starting here.
                            let rest = std::str::from_utf8(&b[*p..]).map_err(|e| e.to_string())?;
                            let c = rest.chars().next().unwrap();
                            s.push(c);
                            *p += c.len_utf8();
                        }
                        None => return Err("unterminated string".into()),
                    }
                }
            }
            Some(b't') if b[*p..].starts_with(b"true") => {
                *p += 4;
                Ok(Jv::Bool(true))
            }
            Some(b'f') if b[*p..].starts_with(b"false") => {
                *p += 5;
                Ok(Jv::Bool(false))
            }
            Some(b'n') if b[*p..].starts_with(b"null") => {
                *p += 4;
                Ok(Jv::Null)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = *p;
                while *p < b.len() && b[*p].is_ascii_digit() {
                    *p += 1;
                }
                std::str::from_utf8(&b[start..*p])
                    .unwrap()
                    .parse()
                    .map(Jv::Num)
                    .map_err(|e| e.to_string())
            }
            _ => Err(format!("unexpected byte at {p}")),
        }
    }

    fn as_obj(&self) -> Option<&[(String, Jv)]> {
        match self {
            Jv::Obj(f) => Some(f),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Jv]> {
        match self {
            Jv::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Jv::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn get<'a>(obj: &'a [(String, Jv)], key: &str) -> Option<&'a Jv> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_u64(obj: &[(String, Jv)], key: &str) -> Option<u64> {
        Jv::get(obj, key).and_then(Jv::as_u64)
    }

    fn get_str<'a>(obj: &'a [(String, Jv)], key: &str) -> Option<&'a str> {
        match Jv::get(obj, key) {
            Some(Jv::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn get_bool(obj: &[(String, Jv)], key: &str) -> Option<bool> {
        match Jv::get(obj, key) {
            Some(Jv::Bool(v)) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root Seq ── [ access(a), Par ── [access(b), access(c)], access(d) ]
    /// with one lock wait, one retry, committed at 1000.
    fn sample() -> TxnTrace {
        let id = TxnRef { client: 3, epoch: 7 };
        let mut t = TxnTrace::new(id, 0, 100);
        let root = t.add_span(NO_SPAN, SpanKind::Seq);
        let a = t.add_span(root, SpanKind::Access { item: 1, write: false });
        let par = t.add_span(root, SpanKind::Par);
        let b = t.add_span(par, SpanKind::Access { item: 2, write: true });
        let c = t.add_span(par, SpanKind::Access { item: 3, write: false });
        let d = t.add_span(root, SpanKind::Access { item: 1, write: true });

        t.start_span(root, 100);
        // a: granted immediately, one clean read 100..250.
        t.start_span(a, 100);
        t.push_seg(a, EdgeKind::ReadGather, 100, 150, None);
        t.finish_span(a, 250);
        // par at 250; b waits on a lock 250..400 then writes 400..700;
        // c reads 250..500.
        t.start_span(par, 250);
        t.start_span(b, 250);
        t.push_seg(
            b,
            EdgeKind::LockWait,
            250,
            150,
            Some(TxnRef { client: 9, epoch: 1 }),
        );
        t.push_seg(b, EdgeKind::ReadGather, 400, 200, None);
        t.push_seg(b, EdgeKind::WriteInstall, 600, 100, None);
        t.finish_span(b, 700);
        t.start_span(c, 250);
        t.push_seg(c, EdgeKind::ReadGather, 250, 100, None);
        t.push_seg(c, EdgeKind::RetryBackoff, 350, 50, None);
        t.push_seg(c, EdgeKind::ReadGather, 400, 100, None);
        t.finish_span(c, 500);
        t.finish_span(par, 700);
        // d: 700..1000 write with one stale retry.
        t.start_span(d, 700);
        t.push_seg(d, EdgeKind::StaleRetry, 700, 120, None);
        t.push_seg(d, EdgeKind::ReadGather, 820, 80, None);
        t.push_seg(d, EdgeKind::WriteInstall, 900, 100, None);
        t.finish_span(d, 1000);
        t.finish_span(root, 1000);
        t.seal(1000, true, NO_SPAN, None);
        t
    }

    #[test]
    fn critical_path_reconciles_exactly() {
        let t = sample();
        assert_eq!(t.verify(), Ok(()));
        let cp = t.critical_path();
        assert_eq!(cp.total_us, t.latency_us());
        assert_eq!(cp.total_us, 900);
        // Path: a's read, then b's branch (ends at 700 > c's 500), then d.
        let kinds: Vec<_> = cp.steps.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                EdgeKind::ReadGather,
                EdgeKind::LockWait,
                EdgeKind::ReadGather,
                EdgeKind::WriteInstall,
                EdgeKind::StaleRetry,
                EdgeKind::ReadGather,
                EdgeKind::WriteInstall,
            ]
        );
        assert_eq!(
            cp.steps[1].blocker,
            Some(TxnRef { client: 9, epoch: 1 })
        );
        assert_eq!(cp.steps[1].item, Some(2));
    }

    #[test]
    fn aborted_path_follows_the_abort_chain() {
        let id = TxnRef { client: 1, epoch: 2 };
        let mut t = TxnTrace::new(id, 0, 0);
        let root = t.add_span(NO_SPAN, SpanKind::Par);
        let x = t.add_span(root, SpanKind::Access { item: 5, write: true });
        let y = t.add_span(root, SpanKind::Access { item: 6, write: false });
        t.start_span(root, 0);
        t.start_span(x, 0);
        t.start_span(y, 0);
        // y would have finished late, but x's lock timeout at 300 dooms
        // the txn while y is in flight.
        t.push_seg(
            x,
            EdgeKind::LockWait,
            0,
            300,
            Some(TxnRef { client: 8, epoch: 4 }),
        );
        t.abort_span(x, 300, AbortCause::LockTimeout);
        t.seal(300, false, x, Some(AbortCause::LockTimeout));
        assert_eq!(t.spans[y as usize].outcome, SpanOutcome::Cancelled);
        assert_eq!(t.verify(), Ok(()));
        assert_eq!(t.abort_chain(), vec![root, x]);
        let cp = t.critical_path();
        assert_eq!(cp.total_us, 300);
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].kind, EdgeKind::LockWait);
        assert_eq!(cp.steps[0].blocker, Some(TxnRef { client: 8, epoch: 4 }));
    }

    #[test]
    fn verify_rejects_a_reordered_edge() {
        let mut t = sample();
        // Swap b's lock wait and read gather without touching durations:
        // sums still reconcile, but the causal order is broken.
        let b = 3usize;
        t.spans[b].segs.swap(0, 1);
        let err = t.verify().unwrap_err();
        assert!(err.contains("edge out of order"), "{err}");
    }

    #[test]
    fn verify_rejects_gaps_and_overruns() {
        let mut t = sample();
        t.spans[1].segs[0].dur_us += 10;
        assert!(t.verify().is_err());
        let mut t = sample();
        t.spans[1].segs[0].dur_us -= 10;
        assert!(t.verify().is_err());
    }

    #[test]
    fn json_round_trip() {
        for t in [sample(), fenced()] {
            let line = t.to_json_line();
            let back = TxnTrace::parse_json_line(&line).unwrap();
            assert_eq!(back, t);
            assert_eq!(back.to_json_line(), line);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TxnTrace::parse_json_line("{\"format\":\"qc-events-v1\"}").is_err());
        assert!(TxnTrace::parse_json_line("not json").is_err());
        assert!(TxnTrace::parse_json_line(
            "{\"at_us\":1,\"shard\":0,\"event\":\"fault\",\"desc\":\"x\"}"
        )
        .is_err());
        // Child, doomed and parent indices past the span list.
        let head = "{\"at_us\":10,\"shard\":0,\"event\":\"span_tree\",\"client\":0,\"epoch\":0,\
                    \"start_us\":0,\"end_us\":10,";
        for tail in [
            "\"outcome\":\"committed\",\"cause\":null,\"doomed\":null,\"spans\":[{\"parent\":null,\
             \"kind\":\"seq\",\"start_us\":0,\"end_us\":10,\"outcome\":\"ok\",\"children\":[7]}]}",
            "\"outcome\":\"aborted\",\"cause\":\"lock_timeout\",\"doomed\":9,\"spans\":[{\"parent\":\
             null,\"kind\":\"seq\",\"start_us\":0,\"end_us\":10,\"outcome\":\"aborted\"}]}",
            "\"outcome\":\"committed\",\"cause\":null,\"doomed\":null,\"spans\":[{\"parent\":null,\
             \"kind\":\"seq\",\"start_us\":0,\"end_us\":10,\"outcome\":\"ok\",\"children\":[1]},\
             {\"parent\":5,\"kind\":\"seq\",\"start_us\":0,\"end_us\":10,\"outcome\":\"ok\"}]}",
        ] {
            let line = format!("{head}{tail}");
            assert!(TxnTrace::parse_json_line(&line).is_err(), "{line}");
        }
        // Ids past 32 bits are refused, not truncated.
        let wide = head.replace("\"client\":0", "\"client\":4294967296");
        let line = format!("{wide}\"outcome\":\"committed\",\"doomed\":null,\"spans\":[]}}");
        let err = TxnTrace::parse_json_line(&line).unwrap_err();
        assert!(err.contains("client"), "{err}");
        // A child that names another parent would send the critical-path
        // walk round a cycle.
        let cycle = format!(
            "{head}\"outcome\":\"committed\",\"cause\":null,\"doomed\":null,\"spans\":[{{\
             \"parent\":null,\"kind\":\"seq\",\"start_us\":0,\"end_us\":10,\"outcome\":\"ok\",\
             \"children\":[0]}}]}}"
        );
        let t = TxnTrace::parse_json_line(&cycle).expect("indices in range");
        assert!(t.verify().is_err());
    }

    /// The fenced access of `json_round_trip`: one span, a gather and a
    /// fence segment, aborted.
    fn fenced() -> TxnTrace {
        let mut a = TxnTrace::new(TxnRef { client: 0, epoch: 0 }, 2, 50);
        let root = a.add_span(NO_SPAN, SpanKind::Access { item: 9, write: true });
        a.start_span(root, 50);
        a.push_seg(root, EdgeKind::ReadGather, 50, 10, None);
        a.push_seg(root, EdgeKind::Fence, 60, 40, None);
        a.abort_span(root, 100, AbortCause::Fence);
        a.seal(100, false, root, Some(AbortCause::Fence));
        a
    }

    /// Digit runs at and past the edges of the integer types the parser
    /// narrows to.
    const WIDE: &[&str] = &[
        "18446744073709551615",
        "18446744073709551614",
        "18446744073709551616",
        "4294967295",
        "4294967296",
        "0",
    ];

    /// Apply `edits` to `line`, each `(kind, position, operand)`: flip one
    /// bit of a byte (staying ASCII), truncate, delete a byte, or replace
    /// the digit run at or after the position by a [`WIDE`] number.
    fn mutate(line: &str, edits: &[(u8, usize, u8)]) -> String {
        let mut b = line.as_bytes().to_vec();
        for &(kind, at, x) in edits {
            if b.is_empty() {
                break;
            }
            let at = at % b.len();
            match kind {
                0 => b[at] ^= 1 << (x % 7),
                1 => b.truncate(at),
                2 => {
                    b.remove(at);
                }
                _ => {
                    let start = (at..b.len()).find(|&i| b[i].is_ascii_digit()).unwrap_or(b.len());
                    let end = (start..b.len()).find(|&i| !b[i].is_ascii_digit()).unwrap_or(b.len());
                    b.splice(start..end, WIDE[usize::from(x) % WIDE.len()].bytes());
                }
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    }

    proptest::proptest! {
        /// A damaged `span_tree` line is a trace or an `Err`, and a trace
        /// that parses verifies to `Ok` or `Err`: neither ever panics.
        #[test]
        fn mutated_span_trees_parse_and_verify_without_panicking(
            which in 0usize..2,
            edits in proptest::prop::collection::vec((0u8..4, 0usize..4096, 0u8..=255), 1..5),
        ) {
            let line = mutate(&[sample(), fenced()][which].to_json_line(), &edits);
            if let Ok(t) = TxnTrace::parse_json_line(&line) {
                let _ = t.verify();
            }
        }
    }

    #[test]
    fn profile_merge_is_order_insensitive() {
        let t1 = sample();
        let mut t2 = sample();
        t2.id.epoch = 8;
        t2.spans[1].segs[0].dur_us = 150; // unchanged sums keep it valid
        let mut a = CritProfile::new();
        a.observe(&t1);
        a.observe(&t2);
        let mut b = CritProfile::new();
        b.observe(&t2);
        b.observe(&t1);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.txns(), 2);
        assert_eq!(a.reconciled(), 2);

        let mut split = CritProfile::new();
        let mut left = CritProfile::new();
        left.observe(&t1);
        let mut right = CritProfile::new();
        right.observe(&t2);
        split.merge(&left);
        split.merge(&right);
        assert_eq!(split, a);
    }

    #[test]
    fn report_retains_slowest_in_total_order() {
        let opts = CausalOptions {
            enabled: true,
            keep_top: 2,
            keep_all: false,
        };
        let mut r = CausalReport::new(opts);
        for (epoch, scale) in [(0u32, 1u64), (1, 3), (2, 2)] {
            let mut t = TxnTrace::new(TxnRef { client: 0, epoch }, 0, 0);
            let root = t.add_span(NO_SPAN, SpanKind::Access { item: 0, write: false });
            t.start_span(root, 0);
            t.push_seg(root, EdgeKind::ReadGather, 0, 100 * scale, None);
            t.finish_span(root, 100 * scale);
            t.seal(100 * scale, true, NO_SPAN, None);
            r.record(t);
        }
        let lat: Vec<_> = r.slowest().iter().map(TxnTrace::latency_us).collect();
        assert_eq!(lat, [300, 200]);
        assert_eq!(r.profile().txns(), 3);
        assert_eq!(r.profile().reconciled(), 3);

        // Absorb order must not change the retained set.
        let mut other = CausalReport::new(opts);
        let mut t = TxnTrace::new(TxnRef { client: 1, epoch: 0 }, 1, 0);
        let root = t.add_span(NO_SPAN, SpanKind::Access { item: 0, write: false });
        t.start_span(root, 0);
        t.push_seg(root, EdgeKind::ReadGather, 0, 250, None);
        t.finish_span(root, 250);
        t.seal(250, true, NO_SPAN, None);
        other.record(t);
        r.absorb(other);
        let lat: Vec<_> = r.slowest().iter().map(TxnTrace::latency_us).collect();
        assert_eq!(lat, [300, 250]);
        assert_eq!(r.profile().txns(), 4);
    }

    #[test]
    fn jsonl_stream_is_versioned_and_parseable() {
        let mut r = CausalReport::new(CausalOptions::full());
        r.record(sample());
        let text = r.to_jsonl();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"format\":\"qc-events-v1\",\"events\":1,\"dropped\":0}"
        );
        let t = TxnTrace::parse_json_line(lines.next().unwrap()).unwrap();
        assert_eq!(t, sample());
        assert!(r.digest() != CausalReport::new(CausalOptions::full()).digest());
    }

    #[test]
    fn render_names_blockers() {
        let text = sample().render_critical_path();
        assert!(text.contains("txn 3.7 committed"), "{text}");
        assert!(text.contains("lock_wait"), "{text}");
        assert!(text.contains("blocked-by 9.1"), "{text}");
        assert!(text.contains("stale_retry"), "{text}");
    }
}
