//! Schedule traces and the Theorem 10 conformance checker.
//!
//! The simulator in `qc-sim` runs the Gifford protocol over versioned
//! replica stores; the formal machinery in this crate runs I/O automata.
//! This module is the bridge between the two worlds. A [`ScheduleTrace`]
//! records a run — simulated or automaton-generated — as an ordered
//! schedule in the paper's operation vocabulary: `CREATE`,
//! `REQUEST-COMMIT`, `COMMIT` and `ABORT` for the transaction managers,
//! plus `READ-DM` / `WRITE-DM` for the replica accesses that Theorem 10
//! erases. [`check_trace`] replays a trace through three independent
//! oracles, reporting the **first divergent action** on failure:
//!
//! 1. **Protocol structure.** Every committed operation discovered its
//!    version number at a read quorum; every committed write installed
//!    `(vn + 1, value)` identically at a write quorum; every recorded
//!    replica access agrees with the replica-store state reconstructed
//!    from the trace itself.
//! 2. **Lemmas 7 and 8.** At every commit point (an "even point" of the
//!    access sequence — the simulator commits operations atomically) the
//!    reconstructed stores and the committed history satisfy the paper's
//!    invariants, via the same [`LemmaChecker`] the runtime monitors use.
//! 3. **Theorem 10.** Erasing the replica-access operations yields a
//!    candidate serial schedule α, which is replayed step by step on a
//!    *real* serial system **A** — a [`SerialScheduler`] over one
//!    non-replicated [`ReadWriteObject`] — so the trace is accepted only
//!    if it is literally a schedule of the non-replicated system. α is
//!    never stored: the one pass over the events that checks the first two
//!    layers hands each transaction manager's α operations to system **A**
//!    as the manager's `COMMIT` / `ABORT` event closes its block. A refusal
//!    by **A** is remembered, not returned, until the pass has finished,
//!    so a trace the first two layers reject is reported by them. α names
//!    the managers `T0.0, T0.1, …`, each once, so the step that returns
//!    `T0.k` also retires it from system **A** — no later operation can
//!    name it — and the checker's memory does not grow with the trace.
//!    A trace with more read- and write-TMs than the 2^32 names is
//!    malformed.
//!
//! [`trace_from_schedule`] adapts an I/O-automaton schedule of system
//! **B** (serial or concurrency-controlled) into a trace, so the same
//! checker cross-validates the simulator and the automata.
//!
//! A trace's events are read as [`TraceEvent`] values but stored packed,
//! in [`TraceEvents`]. Each event is a 24-byte row: a header index, the
//! action's tag and site, and two payload words. The row points into two
//! append-only tables. The header table holds `(at_us, tid, faulted)`,
//! which every event of a simulated TM block shares, so a block stores it
//! once. The member-set table holds the sets `WRITE-CFG` installs, once
//! per reconfiguration.

use std::fmt;
use std::ops::RangeInclusive;

use ioa::{Component, OpClass, Schedule, System};
use nested_txn::{
    AccessKind, AccessSpec, ObjectId, ReadWriteObject, SerialScheduler, Tid, TxnOp, Value,
};
use quorum::{QuorumSpec, ReplicaSet, Thresholds};

use crate::invariants::{LemmaChecker, LemmaViolation};
use crate::item::ItemId;
use crate::spec::{Layout, TmRole};

/// Whether a traced transaction manager performs a logical read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TmKind {
    /// A read-TM: discovers the maximum version at a read quorum and
    /// returns its value.
    Read,
    /// A write-TM: discovers the current version at a read quorum, then
    /// installs `(vn + 1, value)` at a write quorum.
    Write,
    /// A reconfigure-TM (paper §4): discovers the current configuration
    /// and data at quorums of the *old* configuration, installs the new
    /// `(generation, members)` at a configuration write quorum of the old
    /// members, and refreshes the data at a write quorum of the new ones.
    Reconfig,
}

impl fmt::Display for TmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmKind::Read => write!(f, "read"),
            TmKind::Write => write!(f, "write"),
            TmKind::Reconfig => write!(f, "reconfig"),
        }
    }
}

/// Why a traced transaction manager aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortReason {
    /// A forced abort (the paper's transaction-failure model).
    Forced,
    /// The live sites could not hold the quorums the operation needs.
    Unavailable,
    /// A quorum existed but did not assemble within the timeout.
    Timeout,
    /// The attempt ran against a superseded generation and was rejected;
    /// the operation retries under the newly discovered configuration.
    Stale,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Forced => write!(f, "forced"),
            AbortReason::Unavailable => write!(f, "unavailable"),
            AbortReason::Timeout => write!(f, "timeout"),
            AbortReason::Stale => write!(f, "stale"),
        }
    }
}

/// The name of a traced transaction manager.
///
/// Each *attempt* of each logical operation is its own transaction in the
/// paper's sense (an aborted transaction was never created; a retry is a
/// fresh transaction), so the name carries the attempt number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceTid {
    /// The issuing client.
    pub client: u32,
    /// The client-local logical operation number.
    pub op: u64,
    /// The 1-based attempt number within the logical operation.
    pub attempt: u32,
}

impl fmt::Display for TraceTid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}.op{}.a{}", self.client, self.op, self.attempt)
    }
}

/// One action of a traced schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceAction {
    /// `CREATE(T)`: the transaction manager starts running.
    Create {
        /// Read or write TM.
        kind: TmKind,
    },
    /// A performed read access at a replica: the DM returned its store.
    ReadDm {
        /// The replica site.
        site: u8,
        /// The version number the site held.
        vn: u64,
        /// The value the site held.
        value: u64,
    },
    /// A performed write access at a replica: the DM installed a version.
    WriteDm {
        /// The replica site.
        site: u8,
        /// The installed version number.
        vn: u64,
        /// The installed value.
        value: u64,
    },
    /// A performed configuration read at a replica: the DM returned its
    /// stored generation number.
    ReadCfg {
        /// The replica site.
        site: u8,
        /// The generation the site's configuration store held.
        gen: u64,
    },
    /// A performed configuration install at a replica: the DM adopted the
    /// new `(generation, members)` pair.
    WriteCfg {
        /// The replica site.
        site: u8,
        /// The installed generation number.
        gen: u64,
        /// The installed member set.
        members: ReplicaSet,
    },
    /// `REQUEST-COMMIT(T, v)`: the TM announces its result.
    RequestCommit {
        /// The version the operation committed at (discovered maximum for
        /// reads; installed version for writes).
        vn: u64,
        /// The operation's value (returned for reads; installed for
        /// writes).
        value: u64,
    },
    /// `COMMIT(T)`: the scheduler reports success.
    Commit,
    /// `ABORT(T)`: the transaction was never created (it has no visible
    /// effect).
    Abort {
        /// Read or write TM.
        kind: TmKind,
        /// Why the attempt aborted.
        reason: AbortReason,
    },
}

impl fmt::Display for TraceAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceAction::Create { kind } => write!(f, "CREATE({kind}-TM)"),
            TraceAction::ReadDm { site, vn, value } => {
                write!(f, "READ-DM(site {site}, vn {vn}, value {value})")
            }
            TraceAction::WriteDm { site, vn, value } => {
                write!(f, "WRITE-DM(site {site}, vn {vn}, value {value})")
            }
            TraceAction::ReadCfg { site, gen } => {
                write!(f, "READ-CFG(site {site}, gen {gen})")
            }
            TraceAction::WriteCfg { site, gen, members } => {
                write!(f, "WRITE-CFG(site {site}, gen {gen}, members {members})")
            }
            TraceAction::RequestCommit { vn, value } => {
                write!(f, "REQUEST-COMMIT(vn {vn}, value {value})")
            }
            TraceAction::Commit => write!(f, "COMMIT"),
            TraceAction::Abort { kind, reason } => write!(f, "ABORT({kind}-TM, {reason})"),
        }
    }
}

/// One event of a [`ScheduleTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time in microseconds (schedule position for traces built
    /// from automaton schedules).
    pub at_us: u64,
    /// The transaction the action belongs to.
    pub tid: TraceTid,
    /// The action.
    pub action: TraceAction,
    /// Whether any fault was active when the action happened (a site down,
    /// a drop or delay window open, or a forced abort).
    pub faulted: bool,
}

/// The `(at_us, tid, faulted)` an event shares with its neighbours.
#[derive(Clone, Copy, PartialEq)]
struct Header {
    at_us: u64,
    tid: TraceTid,
    faulted: bool,
}

/// A [`TraceAction`]'s variant, with the fields that fit in a byte.
#[derive(Clone, Copy)]
enum Tag {
    Create(TmKind),
    ReadDm,
    WriteDm,
    ReadCfg,
    WriteCfg,
    RequestCommit,
    Commit,
    Abort(TmKind, AbortReason),
}

/// One packed event: its header's index, its action's tag and site, and
/// the action's two word-sized fields (`vn`/`value`, `gen`/member-set
/// index; zero where the action has fewer).
#[derive(Clone, Copy)]
struct Row {
    header: u32,
    tag: Tag,
    site: u8,
    a: u64,
    b: u64,
}

/// The events of a [`ScheduleTrace`], packed: a 24-byte row per event
/// over two append-only side tables.
///
/// - **Headers.** Every event of a simulated TM block — `CREATE` through
///   `COMMIT` — happens at one instant, under one name and one fault flag,
///   so [`push`](Self::push) stores that `(at_us, tid, faulted)` once and
///   reuses it while it matches the last one stored. A block costs one
///   32-byte header, an `ABORT` its own. An event that differs from its
///   predecessor in any of the three gets a fresh header, so every
///   sequence of events is storable; a trace adapted from an automaton
///   schedule, whose `at_us` is the schedule position, has one per event.
/// - **Member sets.** A `WRITE-CFG` row holds an index into the table of
///   installed member sets, which repeats an entry only when it differs
///   from the last one: a reconfiguration's installs share one entry.
///
/// Readers see [`TraceEvent`] values: [`get`](Self::get) and
/// [`iter`](Self::iter) decode rows by value. Equality and `Debug` are
/// over that decoded sequence. A trace is edited by way of a `Vec`:
/// [`to_vec`](Self::to_vec), then `From<Vec<TraceEvent>>`.
///
/// Header indices are `u32`: a trace holds at most 2³² distinct headers
/// (128 GiB of them).
#[derive(Clone, Default)]
pub struct TraceEvents {
    rows: Vec<Row>,
    headers: Vec<Header>,
    members: Vec<ReplicaSet>,
}

impl TraceEvents {
    /// No events.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append `ev`.
    ///
    /// # Panics
    ///
    /// Past 2³² distinct headers.
    pub fn push(&mut self, ev: TraceEvent) {
        let header = Header {
            at_us: ev.at_us,
            tid: ev.tid,
            faulted: ev.faulted,
        };
        if self.headers.last() != Some(&header) {
            self.headers.push(header);
        }
        let header = u32::try_from(self.headers.len() - 1).expect("at most 2^32 trace headers");
        let (tag, site, a, b) = match ev.action {
            TraceAction::Create { kind } => (Tag::Create(kind), 0, 0, 0),
            TraceAction::ReadDm { site, vn, value } => (Tag::ReadDm, site, vn, value),
            TraceAction::WriteDm { site, vn, value } => (Tag::WriteDm, site, vn, value),
            TraceAction::ReadCfg { site, gen } => (Tag::ReadCfg, site, gen, 0),
            TraceAction::WriteCfg { site, gen, members } => {
                if self.members.last() != Some(&members) {
                    self.members.push(members);
                }
                (Tag::WriteCfg, site, gen, self.members.len() as u64 - 1)
            }
            TraceAction::RequestCommit { vn, value } => (Tag::RequestCommit, 0, vn, value),
            TraceAction::Commit => (Tag::Commit, 0, 0, 0),
            TraceAction::Abort { kind, reason } => (Tag::Abort(kind, reason), 0, 0, 0),
        };
        self.rows.push(Row {
            header,
            tag,
            site,
            a,
            b,
        });
    }

    /// The event at `i`, if there is one.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<TraceEvent> {
        self.rows.get(i).map(|r| self.decode(r))
    }

    /// The events in order, by value.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = TraceEvent> + ExactSizeIterator + '_ {
        self.rows.iter().map(|r| self.decode(r))
    }

    /// The events, unpacked.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().collect()
    }

    fn decode(&self, r: &Row) -> TraceEvent {
        let Header {
            at_us,
            tid,
            faulted,
        } = self.headers[r.header as usize];
        let (site, a, b) = (r.site, r.a, r.b);
        let action = match r.tag {
            Tag::Create(kind) => TraceAction::Create { kind },
            Tag::ReadDm => TraceAction::ReadDm {
                site,
                vn: a,
                value: b,
            },
            Tag::WriteDm => TraceAction::WriteDm {
                site,
                vn: a,
                value: b,
            },
            Tag::ReadCfg => TraceAction::ReadCfg { site, gen: a },
            Tag::WriteCfg => TraceAction::WriteCfg {
                site,
                gen: a,
                members: self.members[b as usize],
            },
            Tag::RequestCommit => TraceAction::RequestCommit { vn: a, value: b },
            Tag::Commit => TraceAction::Commit,
            Tag::Abort(kind, reason) => TraceAction::Abort { kind, reason },
        };
        TraceEvent {
            at_us,
            tid,
            action,
            faulted,
        }
    }
}

impl Extend<TraceEvent> for TraceEvents {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        for ev in events {
            self.push(ev);
        }
    }
}

impl From<Vec<TraceEvent>> for TraceEvents {
    fn from(events: Vec<TraceEvent>) -> Self {
        let mut packed = TraceEvents::new();
        packed.extend(events);
        packed
    }
}

impl PartialEq for TraceEvents {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for TraceEvents {}

impl fmt::Debug for TraceEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An ordered schedule of one run over a single replicated item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Label of the quorum system the run used (diagnostic only).
    pub quorum: String,
    /// Number of replica sites.
    pub sites: usize,
    /// The run's RNG seed (diagnostic only).
    pub seed: u64,
    /// The item's initial value (version 0 at every site).
    pub initial: u64,
    /// The events, in schedule order.
    pub events: TraceEvents,
}

impl ScheduleTrace {
    /// An empty trace for a run over `sites` replicas.
    pub fn new(quorum: impl Into<String>, sites: usize, seed: u64) -> Self {
        ScheduleTrace {
            quorum: quorum.into(),
            sites,
            seed,
            initial: 0,
            events: TraceEvents::new(),
        }
    }
}

/// What a conformance failure looked like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The trace is not even shaped like a serial Gifford run.
    Malformed(String),
    /// A committed operation's read accesses do not cover a read quorum.
    NoReadQuorum,
    /// A committed write's installs do not cover a write quorum.
    NoWriteQuorum,
    /// A committed operation's configuration reads do not cover a
    /// configuration read quorum of its generation's members.
    NoConfigReadQuorum,
    /// A new configuration was installed without reaching a configuration
    /// write quorum of the *old* configuration (the Goldman–Lynch rule).
    NoConfigWriteQuorum,
    /// A committed operation ran against a superseded generation.
    StaleGeneration,
    /// Lemma 7 or 8 fails at a commit point (or at end of trace).
    Lemma(LemmaViolation),
    /// The Theorem 10 projection was refused by serial system **A**.
    Replay(String),
}

/// The first divergent action of a non-conforming trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index into [`ScheduleTrace::events`] of the divergent action
    /// (`events.len()` for a divergence only visible at end of trace).
    pub event: usize,
    /// The divergent action, rendered (`"end of trace"` past the end).
    pub action: String,
    /// What went wrong there.
    pub kind: DivergenceKind,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {} [{}]: ", self.event, self.action)?;
        match &self.kind {
            DivergenceKind::Malformed(why) => write!(f, "{why}"),
            DivergenceKind::NoReadQuorum => {
                write!(f, "read accesses do not cover a read quorum")
            }
            DivergenceKind::NoWriteQuorum => {
                write!(f, "installs do not cover a write quorum")
            }
            DivergenceKind::NoConfigReadQuorum => {
                write!(
                    f,
                    "configuration reads do not cover a configuration read quorum"
                )
            }
            DivergenceKind::NoConfigWriteQuorum => write!(
                f,
                "the new configuration did not reach a configuration write quorum of the \
                 old configuration"
            ),
            DivergenceKind::StaleGeneration => {
                write!(f, "operation committed against a superseded generation")
            }
            DivergenceKind::Lemma(v) => write!(f, "{v}"),
            DivergenceKind::Replay(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for Divergence {}

/// Statistics of a successful conformance check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConformanceReport {
    /// Total trace events checked.
    pub events: usize,
    /// Transaction managers that committed.
    pub committed: usize,
    /// Transaction managers that aborted.
    pub aborted: usize,
    /// Replica-access operations erased by the Theorem 10 projection.
    pub erased: usize,
    /// Length of the candidate serial schedule α (including `CREATE(T0)`).
    pub alpha_len: usize,
    /// Events tagged as happening under an active fault.
    pub faulted_events: usize,
    /// `current-vn` of the committed history at end of trace.
    pub max_vn: u64,
}

/// A performed replica access within one TM block.
#[derive(Clone, Copy, Debug)]
struct Rep {
    site: usize,
    vn: u64,
    value: u64,
}

/// An open (not yet returned) TM block during the structural scan.
#[derive(Debug)]
struct Block {
    tid: TraceTid,
    kind: TmKind,
    /// Index of the `CREATE` event.
    create: usize,
    reads: Vec<Rep>,
    writes: Vec<Rep>,
    /// Configuration reads: `(site, generation)`.
    cfg_reads: Vec<(usize, u64)>,
    /// Configuration installs: `(site, generation, members)`.
    cfg_writes: Vec<(usize, u64, ReplicaSet)>,
    rc: Option<(usize, u64, u64)>,
}

impl Block {
    /// An empty block for `tid`, created at event `create`, built in the
    /// buffers of a finished block when there is one.
    fn open(finished: Option<Block>, tid: TraceTid, kind: TmKind, create: usize) -> Block {
        let mut b = finished.unwrap_or(Block {
            tid,
            kind,
            create,
            reads: Vec::new(),
            writes: Vec::new(),
            cfg_reads: Vec::new(),
            cfg_writes: Vec::new(),
            rc: None,
        });
        b.tid = tid;
        b.kind = kind;
        b.create = create;
        b.reads.clear();
        b.writes.clear();
        b.cfg_reads.clear();
        b.cfg_writes.clear();
        b.rc = None;
        b
    }
}

fn diverge(i: usize, ev: &TraceEvent, kind: DivergenceKind) -> Divergence {
    Divergence {
        event: i,
        action: format!("{}: {}", ev.tid, ev.action),
        kind,
    }
}

fn end_diverge(len: usize, kind: DivergenceKind) -> Divergence {
    Divergence {
        event: len,
        action: "end of trace".into(),
        kind,
    }
}

/// Check a trace against the protocol structure, Lemmas 7/8, and
/// Theorem 10.
///
/// `quorum` must be the quorum system the run used (over sites
/// `0..trace.sites`).
///
/// # Errors
///
/// The first divergent action.
pub fn check_trace(
    trace: &ScheduleTrace,
    quorum: &dyn QuorumSpec,
) -> Result<ConformanceReport, Divergence> {
    check_trace_tapped(trace, quorum, |_, _| {})
}

/// [`check_trace`], with `tap` shown every operation serial system **A**
/// performed, in order and as it is performed, beside the index of the
/// trace event it was projected from. A test seam: it is how the suites
/// pin that the replay steps exactly the α of [`project_trace`], no
/// operation skipped.
///
/// # Errors
///
/// The first divergent action.
#[doc(hidden)]
pub fn check_trace_tapped(
    trace: &ScheduleTrace,
    quorum: &dyn QuorumSpec,
    tap: impl FnMut(&TxnOp, usize),
) -> Result<ConformanceReport, Divergence> {
    let mut system_a = SystemA::new(trace.initial);
    let perform = |op: &TxnOp, src| system_a.step(op, src, &trace.events);
    check_against(trace, quorum, ALL_NAMES, perform, tap)
}

/// The names `T0.k` α gives its read- and write-TMs, in order.
const ALL_NAMES: RangeInclusive<u32> = 0..=u32::MAX;

/// The three layers in one pass over the events, layer 3 handing each α
/// operation to `perform` (system **A** in its start state), the managers
/// named from `names` in order.
fn check_against(
    trace: &ScheduleTrace,
    quorum: &dyn QuorumSpec,
    mut names: RangeInclusive<u32>,
    mut perform: impl FnMut(&TxnOp, usize) -> Result<(), Divergence>,
    mut tap: impl FnMut(&TxnOp, usize),
) -> Result<ConformanceReport, Divergence> {
    if quorum.n() != trace.sites {
        return Err(Divergence {
            event: 0,
            action: "trace header".into(),
            kind: DivergenceKind::Malformed(format!(
                "quorum system covers {} sites but the trace records {}",
                quorum.n(),
                trace.sites
            )),
        });
    }
    let mut stores: Vec<(u64, u64)> = vec![(0, trace.initial); trace.sites];
    let mut checker: LemmaChecker<u64> = LemmaChecker::new(trace.initial);

    // Dynamic-configuration state. Generation 0 is the full replica set
    // under the run's quorum system; each committed reconfigure-TM appends
    // the next generation's quorum rule: the system's rule resized to the
    // new members. A rule is `None` for a system with no threshold form,
    // whose own predicates decide; it never reconfigures, because only a
    // resizable rule admits configuration accesses.
    let resizable = quorum.thresholds().is_some_and(Thresholds::resizable);
    let full = ReplicaSet::full(trace.sites);
    let mut cfg_stores: Vec<(u64, ReplicaSet)> = vec![(0, full); trace.sites];
    let mut configs: Vec<Option<Thresholds>> = vec![quorum.thresholds()];
    let mut cur_gen: u64 = 0;

    let mut open: Option<Block> = None;
    // The last returned block, kept for its buffers.
    let mut finished: Option<Block> = None;
    let mut committed = 0usize;
    let mut aborted = 0usize;
    let mut erased = 0usize;
    let mut faulted_events = 0usize;

    // Theorem 10: system A performs the candidate serial schedule α one
    // operation at a time, each returned block's operations when the scan
    // has accepted the event that closes it. Its first refusal ends the
    // replay and is kept until the scan is over: a trace that fails the
    // scan is reported at the scan's event even if A refused earlier.
    let mut alpha_len = 0usize;
    let mut step = |op: TxnOp, src: usize| {
        alpha_len += 1;
        perform(&op, src)?;
        tap(&op, src);
        Ok(())
    };
    let mut refusal: Option<Divergence> = step(create_root(), 0).err();
    // Every read- or write-TM takes the next name, after a refusal too, so
    // running out of names is reported wherever the replay stopped.
    let mut replay = |kind, committed, closed| {
        let k = take_name(&mut names, kind)?;
        if let (None, Some(k)) = (&refusal, k) {
            refusal = project_block(k, kind, committed, closed, &mut step).err();
        }
        Ok(())
    };

    for (i, ev) in trace.events.iter().enumerate() {
        let ev = &ev;
        if ev.faulted {
            faulted_events += 1;
        }
        match ev.action {
            TraceAction::Create { kind } => {
                if let Some(b) = &open {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "CREATE while {} is still running (serial property violated)",
                            b.tid
                        )),
                    ));
                }
                open = Some(Block::open(finished.take(), ev.tid, kind, i));
            }
            TraceAction::ReadDm { site, vn, value } => {
                erased += 1;
                let site = usize::from(site);
                let b = match open.as_mut() {
                    Some(b) if b.tid == ev.tid && b.rc.is_none() => b,
                    _ => {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(
                                "READ-DM outside its transaction manager's run".into(),
                            ),
                        ))
                    }
                };
                if !b.writes.is_empty() || !b.cfg_writes.is_empty() {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed("READ-DM after the install phase began".into()),
                    ));
                }
                if site >= trace.sites {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "site {site} out of range (n = {})",
                            trace.sites
                        )),
                    ));
                }
                if b.reads.iter().any(|r| r.site == site) {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!("duplicate READ-DM at site {site}")),
                    ));
                }
                if stores[site] != (vn, value) {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "READ-DM recorded (vn {vn}, value {value}) but the replica \
                             store holds (vn {}, value {})",
                            stores[site].0, stores[site].1
                        )),
                    ));
                }
                b.reads.push(Rep { site, vn, value });
            }
            TraceAction::WriteDm { site, vn, value } => {
                erased += 1;
                let site = usize::from(site);
                let b = match open.as_mut() {
                    Some(b) if b.tid == ev.tid && b.rc.is_none() => b,
                    _ => {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(
                                "WRITE-DM outside its transaction manager's run".into(),
                            ),
                        ))
                    }
                };
                if b.kind == TmKind::Read {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed("WRITE-DM in a read-TM".into()),
                    ));
                }
                if site >= trace.sites {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "site {site} out of range (n = {})",
                            trace.sites
                        )),
                    ));
                }
                if b.writes.iter().any(|w| w.site == site) {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!("duplicate WRITE-DM at site {site}")),
                    ));
                }
                if let Some(w) = b.writes.first() {
                    if (w.vn, w.value) != (vn, value) {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(format!(
                                "inconsistent install: (vn {vn}, value {value}) after \
                                 (vn {}, value {})",
                                w.vn, w.value
                            )),
                        ));
                    }
                } else {
                    let dvn = b.reads.iter().map(|r| r.vn).max().unwrap_or(0);
                    // A write-TM advances the version; a reconfigure-TM
                    // *refreshes* the discovered version at the new members
                    // (the data does not change, only its placement).
                    let expect = if b.kind == TmKind::Reconfig {
                        dvn
                    } else {
                        dvn + 1
                    };
                    if vn != expect {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(format!(
                                "installed vn {vn} but discovery saw maximum vn {dvn}"
                            )),
                        ));
                    }
                }
                stores[site] = (vn, value);
                b.writes.push(Rep { site, vn, value });
            }
            TraceAction::ReadCfg { site, gen } => {
                erased += 1;
                let site = usize::from(site);
                if !resizable {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "configuration access under non-resizable quorum system {}",
                            quorum.label()
                        )),
                    ));
                }
                let b = match open.as_mut() {
                    Some(b) if b.tid == ev.tid && b.rc.is_none() => b,
                    _ => {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(
                                "READ-CFG outside its transaction manager's run".into(),
                            ),
                        ))
                    }
                };
                if !b.writes.is_empty() || !b.cfg_writes.is_empty() {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed("READ-CFG after the install phase began".into()),
                    ));
                }
                if site >= trace.sites {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "site {site} out of range (n = {})",
                            trace.sites
                        )),
                    ));
                }
                if b.cfg_reads.iter().any(|&(s, _)| s == site) {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!("duplicate READ-CFG at site {site}")),
                    ));
                }
                if cfg_stores[site].0 != gen {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "READ-CFG recorded gen {gen} but the site's configuration store \
                             holds gen {}",
                            cfg_stores[site].0
                        )),
                    ));
                }
                b.cfg_reads.push((site, gen));
            }
            TraceAction::WriteCfg { site, gen, members } => {
                erased += 1;
                let site = usize::from(site);
                if !resizable {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "configuration access under non-resizable quorum system {}",
                            quorum.label()
                        )),
                    ));
                }
                let b = match open.as_mut() {
                    Some(b) if b.tid == ev.tid && b.rc.is_none() => b,
                    _ => {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(
                                "WRITE-CFG outside its transaction manager's run".into(),
                            ),
                        ))
                    }
                };
                if b.kind != TmKind::Reconfig {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed("WRITE-CFG outside a reconfigure-TM".into()),
                    ));
                }
                if site >= trace.sites {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "site {site} out of range (n = {})",
                            trace.sites
                        )),
                    ));
                }
                if members.is_empty() || members.iter().any(|s| s >= trace.sites) {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "WRITE-CFG installs invalid member set {members} (n = {})",
                            trace.sites
                        )),
                    ));
                }
                if b.cfg_writes.iter().any(|&(s, _, _)| s == site) {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!("duplicate WRITE-CFG at site {site}")),
                    ));
                }
                if let Some(&(_, g0, m0)) = b.cfg_writes.first() {
                    if (g0, m0) != (gen, members) {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(format!(
                                "inconsistent configuration install: (gen {gen}, members \
                                 {members}) after (gen {g0}, members {m0})"
                            )),
                        ));
                    }
                } else {
                    let old_gen = b.cfg_reads.iter().map(|&(_, g)| g).max().unwrap_or(0);
                    if gen != old_gen + 1 {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(format!(
                                "installed generation {gen} but discovery saw maximum \
                                 generation {old_gen}"
                            )),
                        ));
                    }
                }
                cfg_stores[site] = (gen, members);
                b.cfg_writes.push((site, gen, members));
            }
            TraceAction::RequestCommit { vn, value } => {
                let b = match open.as_mut() {
                    Some(b) if b.tid == ev.tid => b,
                    _ => {
                        return Err(diverge(
                            i,
                            ev,
                            DivergenceKind::Malformed(
                                "REQUEST-COMMIT outside its transaction manager's run".into(),
                            ),
                        ))
                    }
                };
                if b.rc.is_some() {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed("duplicate REQUEST-COMMIT".into()),
                    ));
                }
                // Generation gate, checked before any quorum question: a
                // block runs at the maximum generation its configuration
                // reads discovered (generation 0 when it read none, the
                // static case). An uninstalled generation is malformed; a
                // superseded one is the stale-rejection divergence. On a
                // faithful trace a *structurally valid* stale block cannot
                // exist — its configuration-read majority would intersect
                // the majority that installed the next generation — so
                // `StaleGeneration` fires only on mutated traces.
                let block_gen = b.cfg_reads.iter().map(|&(_, g)| g).max().unwrap_or(0);
                if block_gen > cur_gen {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(format!(
                            "REQUEST-COMMIT at generation {block_gen}, which was never \
                             installed (current generation {cur_gen})"
                        )),
                    ));
                }
                if block_gen < cur_gen {
                    return Err(diverge(i, ev, DivergenceKind::StaleGeneration));
                }
                // A rule-less system has no configuration quorums: its
                // configuration accesses were refused as they occurred.
                let rule = configs[block_gen as usize];
                let is_config_quorum = |set| rule.is_some_and(|r| r.is_config_quorum(set));
                if !b.cfg_reads.is_empty() || b.kind == TmKind::Reconfig {
                    let cfg_read_set: ReplicaSet = b.cfg_reads.iter().map(|&(s, _)| s).collect();
                    if !is_config_quorum(cfg_read_set) {
                        return Err(diverge(i, ev, DivergenceKind::NoConfigReadQuorum));
                    }
                }
                let read_set: ReplicaSet = b.reads.iter().map(|r| r.site).collect();
                if !quorum::is_quorum(quorum, rule, read_set, false) {
                    return Err(diverge(i, ev, DivergenceKind::NoReadQuorum));
                }
                let dvn = b.reads.iter().map(|r| r.vn).max().unwrap_or(0);
                match b.kind {
                    TmKind::Read => {
                        if vn != dvn {
                            return Err(diverge(
                                i,
                                ev,
                                DivergenceKind::Malformed(format!(
                                    "read committed vn {vn} but the discovered maximum is {dvn}"
                                )),
                            ));
                        }
                        if !b.reads.iter().any(|r| r.vn == dvn && r.value == value) {
                            return Err(diverge(
                                i,
                                ev,
                                DivergenceKind::Malformed(format!(
                                    "returned value {value} was not read from any \
                                     maximum-version replica"
                                )),
                            ));
                        }
                    }
                    TmKind::Write => {
                        let write_set: ReplicaSet = b.writes.iter().map(|w| w.site).collect();
                        let installed = quorum::is_quorum(quorum, rule, write_set, true);
                        if b.writes.is_empty() || !installed {
                            return Err(diverge(i, ev, DivergenceKind::NoWriteQuorum));
                        }
                        let w = b.writes[0];
                        if (vn, value) != (w.vn, w.value) {
                            return Err(diverge(
                                i,
                                ev,
                                DivergenceKind::Malformed(format!(
                                    "REQUEST-COMMIT (vn {vn}, value {value}) differs from \
                                     the install (vn {}, value {})",
                                    w.vn, w.value
                                )),
                            ));
                        }
                    }
                    TmKind::Reconfig => {
                        // Goldman–Lynch: the new configuration reaches a
                        // configuration write quorum of the *old* members.
                        let Some(&(_, new_gen, new_members)) = b.cfg_writes.first() else {
                            return Err(diverge(i, ev, DivergenceKind::NoConfigWriteQuorum));
                        };
                        let cfg_write_set: ReplicaSet =
                            b.cfg_writes.iter().map(|&(s, _, _)| s).collect();
                        if !is_config_quorum(cfg_write_set) {
                            return Err(diverge(i, ev, DivergenceKind::NoConfigWriteQuorum));
                        }
                        // The data refresh reaches a write quorum of the
                        // *new* members, carrying the discovered state.
                        let new_rule = rule.and_then(|r| r.over(new_members));
                        let write_set: ReplicaSet = b.writes.iter().map(|w| w.site).collect();
                        if !quorum::is_quorum(quorum, new_rule, write_set, true) {
                            return Err(diverge(i, ev, DivergenceKind::NoWriteQuorum));
                        }
                        if let Some(w) = b.writes.first() {
                            if w.vn != dvn
                                || !b.reads.iter().any(|r| r.vn == dvn && r.value == w.value)
                            {
                                return Err(diverge(
                                    i,
                                    ev,
                                    DivergenceKind::Malformed(format!(
                                        "reconfiguration refreshed (vn {}, value {}) but \
                                         discovery saw maximum vn {dvn}",
                                        w.vn, w.value
                                    )),
                                ));
                            }
                        }
                        if vn != new_gen || value != new_members.bits() as u64 {
                            return Err(diverge(
                                i,
                                ev,
                                DivergenceKind::Malformed(format!(
                                    "reconfiguration REQUEST-COMMIT (vn {vn}, value {value}) \
                                     differs from the installed configuration (gen {new_gen}, \
                                     members {new_members})"
                                )),
                            ));
                        }
                    }
                }
                b.rc = Some((i, vn, value));
            }
            TraceAction::Commit => {
                let matches = open.as_ref().is_some_and(|b| b.tid == ev.tid);
                let Some(b) = (if matches { open.take() } else { None }) else {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(
                            "COMMIT outside its transaction manager's run".into(),
                        ),
                    ));
                };
                let Some((request, vn, value)) = b.rc else {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed("COMMIT without REQUEST-COMMIT".into()),
                    ));
                };
                match b.kind {
                    TmKind::Read => checker
                        .check_read(&value)
                        .map_err(|v| diverge(i, ev, DivergenceKind::Lemma(v)))?,
                    TmKind::Write => checker
                        .commit_write(vn, value)
                        .map_err(|v| diverge(i, ev, DivergenceKind::Lemma(v)))?,
                    TmKind::Reconfig => {
                        // A reconfiguration changes no logical state — the
                        // committed history (and the lemma checker) is
                        // untouched. The next generation becomes current.
                        let (_, new_gen, new_members) =
                            *b.cfg_writes.first().expect("checked at REQUEST-COMMIT");
                        debug_assert_eq!(new_gen, cur_gen + 1);
                        configs.push(configs[cur_gen as usize].and_then(|r| r.over(new_members)));
                        cur_gen = new_gen;
                    }
                }
                check_stores(&checker, &stores, quorum, configs[cur_gen as usize])
                    .map_err(|v| diverge(i, ev, DivergenceKind::Lemma(v)))?;
                committed += 1;
                replay(b.kind, Some((value, b.create, request)), i)
                    .map_err(|kind| diverge(i, ev, kind))?;
                finished = Some(b);
            }
            TraceAction::Abort { kind, .. } => {
                if open.is_some() {
                    return Err(diverge(
                        i,
                        ev,
                        DivergenceKind::Malformed(
                            "ABORT while a transaction manager is running (a created \
                             transaction never aborts in a serial system)"
                                .into(),
                        ),
                    ));
                }
                aborted += 1;
                replay(kind, None, i).map_err(|kind| diverge(i, ev, kind))?;
            }
        }
    }
    if let Some(b) = &open {
        return Err(end_diverge(
            trace.events.len(),
            DivergenceKind::Malformed(format!("trace ends inside {}'s run", b.tid)),
        ));
    }
    check_stores(&checker, &stores, quorum, configs[cur_gen as usize])
        .map_err(|v| end_diverge(trace.events.len(), DivergenceKind::Lemma(v)))?;

    if let Some(refused) = refusal {
        return Err(refused);
    }

    Ok(ConformanceReport {
        events: trace.events.len(),
        committed,
        aborted,
        erased,
        alpha_len,
        faulted_events,
        max_vn: checker.current_vn(),
    })
}

/// Lemmas 7 and 8(1a)/8(1b) over the reconstructed `stores`, 8(1a)'s write
/// quorum being the one of the current configuration, `rule`.
fn check_stores(
    checker: &LemmaChecker<u64>,
    stores: &[(u64, u64)],
    quorum: &dyn QuorumSpec,
    rule: Option<Thresholds>,
) -> Result<(), LemmaViolation> {
    let states = stores.iter().enumerate().map(|(s, (vn, v))| (s, *vn, v));
    checker.check_states(states, true, |holders| {
        quorum::is_quorum(quorum, rule, holders, true)
    })
}

/// The non-replicated object of the synthesized serial system **A**.
const A_OBJECT: ObjectId = ObjectId(0);

/// `CREATE(T0)`, the first operation of every α.
fn create_root() -> TxnOp {
    TxnOp::Create {
        tid: Tid::root(),
        access: None,
        param: None,
    }
}

/// The name `T0.k` α gives the next manager of `kind`, drawn from
/// `names`: none for a reconfigure-TM, which α erases, and a
/// [`DivergenceKind::Malformed`] once all of `names` are taken — the trace
/// has more read- and write-TMs than α has fresh names, and reusing one
/// would name an access that has already returned.
fn take_name(names: &mut RangeInclusive<u32>, kind: TmKind) -> Result<Option<u32>, DivergenceKind> {
    if kind == TmKind::Reconfig {
        return Ok(None);
    }
    names.next().map(Some).ok_or_else(|| {
        DivergenceKind::Malformed(
            "more read- and write-TMs than the 2^32 names T0.k of the serial schedule".into(),
        )
    })
}

/// Theorem 10's projection of one returned transaction manager, named
/// `T0.k`: hand `sink` its operations in the candidate serial schedule α
/// of system **A**, in order, each with the index of the trace event it
/// came from. Stops at the sink's first error.
///
/// `closed` is the index of the manager's `COMMIT` or `ABORT` event and
/// `committed`, for a committed one, the value it request-committed and
/// the indices of its `CREATE` and `REQUEST-COMMIT` events. The manager
/// becomes the access `T0.k` on the single logical object, `k` counting up
/// from 0 across the trace ([`take_name`]): a committed one the full
/// `REQUEST-CREATE` / `CREATE` / `REQUEST-COMMIT` / `COMMIT` block, an
/// aborted one a `REQUEST-CREATE` / `ABORT` pair (an aborted transaction
/// was never created). Reconfigure-TMs change no logical state: the
/// projection erases them entirely, so a dynamic trace projects to the
/// same α as its static twin.
fn project_block<E>(
    k: u32,
    kind: TmKind,
    committed: Option<(u64, usize, usize)>,
    closed: usize,
    mut sink: impl FnMut(TxnOp, usize) -> Result<(), E>,
) -> Result<(), E> {
    let value = committed.map(|(value, ..)| Value::Int(value as i64));
    let (spec, result) = match kind {
        TmKind::Reconfig => return Ok(()),
        TmKind::Read => (AccessSpec::read(A_OBJECT), value.unwrap_or_default()),
        TmKind::Write => (
            AccessSpec::write(A_OBJECT, value.unwrap_or_default()),
            Value::Nil,
        ),
    };
    let tid = Tid::from_path(&[k]);
    let Some((_, create, request)) = committed else {
        sink(TxnOp::request_access(tid.clone(), spec), closed)?;
        return sink(TxnOp::Abort { tid }, closed);
    };
    sink(TxnOp::request_access(tid.clone(), spec.clone()), create)?;
    let created = TxnOp::Create {
        tid: tid.clone(),
        access: Some(spec),
        param: None,
    };
    sink(created, create)?;
    let requested = TxnOp::RequestCommit {
        tid: tid.clone(),
        value: result.clone(),
    };
    sink(requested, request)?;
    sink(TxnOp::Commit { tid, value: result }, closed)
}

/// The Theorem 10 projection of a trace, collected: the candidate serial
/// schedule α of system **A** and, for each α operation, the index of the
/// trace event it came from — `CREATE(T0)`, then [`project_block`] of each
/// returned manager.
///
/// The erasure is lenient: events that do not form a complete block are
/// dropped (the structural layer of [`check_trace`] reports them
/// precisely). [`check_trace`] does not call this — its one pass hands
/// system **A** each block as the block closes; the collected form is for
/// inspecting α, for DESIGN.md, and for the tests that pin the two equal.
#[doc(hidden)]
pub fn project_trace(trace: &ScheduleTrace) -> (Schedule<TxnOp>, Vec<usize>) {
    let mut alpha: Schedule<TxnOp> = Schedule::new();
    let mut src: Vec<usize> = Vec::new();
    let mut collect = |op, at| {
        alpha.push(op);
        src.push(at);
        Ok::<(), std::convert::Infallible>(())
    };
    let Ok(()) = collect(create_root(), 0);

    // An open block: its name, kind, `CREATE` index and, once seen, its
    // `REQUEST-COMMIT`'s `(value, index)`.
    type OpenBlock = (TraceTid, TmKind, usize, Option<(u64, usize)>);
    let mut open: Option<OpenBlock> = None;
    let mut names = ALL_NAMES;
    let mut project = |kind, block, closed| {
        if let Ok(Some(k)) = take_name(&mut names, kind) {
            let Ok(()) = project_block(k, kind, block, closed, &mut collect);
        }
    };
    for (i, ev) in trace.events.iter().enumerate() {
        match ev.action {
            TraceAction::Create { kind } => open = Some((ev.tid, kind, i, None)),
            TraceAction::RequestCommit { value, .. } => {
                if let Some(o) = open.as_mut().filter(|o| o.0 == ev.tid) {
                    o.3 = Some((value, i));
                }
            }
            TraceAction::Commit => {
                if let Some((_, kind, create, Some((value, request)))) =
                    open.take_if(|o| o.0 == ev.tid)
                {
                    project(kind, Some((value, create, request)), i);
                }
            }
            TraceAction::Abort { kind, .. } if open.is_none() => project(kind, None, i),
            _ => {}
        }
    }
    (alpha, src)
}

/// The root "user program" of the synthesized system **A**: it outputs the
/// `REQUEST-CREATE`s of the top-level accesses and absorbs their returns.
/// Its apply is permissive — the serial scheduler and the object carry all
/// the preconditions the replay is checking.
#[derive(Clone, Debug)]
struct TraceRoot;

impl Component<TxnOp> for TraceRoot {
    fn name(&self) -> String {
        "trace-root".into()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::RequestCreate { tid, .. } if tid.depth() == 1 => OpClass::Output,
            TxnOp::Create { tid, .. } if tid.is_root() => OpClass::Input,
            TxnOp::Commit { tid, .. } | TxnOp::Abort { tid } if tid.depth() == 1 => OpClass::Input,
            _ => OpClass::NotMine,
        }
    }

    fn reset(&mut self) {}

    fn enabled_outputs(&self) -> Vec<TxnOp> {
        Vec::new()
    }

    fn apply(&mut self, _op: &TxnOp) -> Result<(), String> {
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_boxed(&self) -> Box<dyn Component<TxnOp>> {
        Box::new(self.clone())
    }
}

/// Serial system **A** as the sink of the projection: the real
/// [`SerialScheduler`], one non-replicated [`ReadWriteObject`] and the
/// root, composed in an [`ioa::System`].
///
/// α names its accesses `T0.0, T0.1, …`, each once and in order, so once
/// `T0.k` has returned no later operation names it: the step that returns
/// it also [retires](SerialScheduler::retire) it from the scheduler and,
/// if it was created, from the object. Every later step is what it would
/// be on the full state — the operations it refuses name `T0.j` for
/// `j > k` only — and system **A** holds the root and at most one access,
/// however long the trace.
struct SystemA {
    system: System<TxnOp>,
}

/// The component names of [`SystemA`].
const SCHEDULER: &str = "serial-scheduler";
const OBJECT: &str = "O(x)";

impl SystemA {
    /// System **A** in its start state, the object holding `initial`.
    fn new(initial: u64) -> Self {
        let mut system: System<TxnOp> = System::new();
        system.push(Box::new(SerialScheduler::new()));
        system.push(Box::new(ReadWriteObject::new(
            A_OBJECT,
            OBJECT,
            Value::Int(initial as i64),
        )));
        system.push(Box::new(TraceRoot));
        SystemA { system }
    }

    /// Perform `op`, which was projected from `events[src]`, and retire
    /// the access it returns, if it returns one.
    ///
    /// # Errors
    ///
    /// A [`DivergenceKind::Replay`] at trace event `src` when system **A**
    /// refuses the step (or, which a fresh name rules out, the retirement).
    fn step(&mut self, op: &TxnOp, src: usize, events: &TraceEvents) -> Result<(), Divergence> {
        let refused = |why| replay_divergence(src, events, why);
        self.system
            .step(op)
            .map_err(|e| refused(format!("serial system A refused {op}: {e}")))?;
        let (tid, created) = match op {
            TxnOp::Commit { tid, .. } => (tid, true),
            TxnOp::Abort { tid } => (tid, false),
            _ => return Ok(()),
        };
        let scheduler: &mut SerialScheduler = self
            .system
            .component_as_mut(SCHEDULER)
            .expect("system A has its scheduler");
        let mut retired = scheduler.retire(tid);
        if created && retired.is_ok() {
            let object: &mut ReadWriteObject = self
                .system
                .component_as_mut(OBJECT)
                .expect("system A has its object");
            retired = object.retire(tid);
        }
        retired.map_err(|why| refused(format!("serial system A could not retire {tid}: {why}")))
    }
}

/// A [`DivergenceKind::Replay`] for `why`, at the trace event `src` an α
/// operation was projected from.
fn replay_divergence(src: usize, events: &TraceEvents, why: String) -> Divergence {
    Divergence {
        event: src,
        action: events
            .get(src)
            .map(|ev| format!("{}: {}", ev.tid, ev.action))
            .unwrap_or_else(|| "end of trace".into()),
        kind: DivergenceKind::Replay(why),
    }
}

/// Adapt an I/O-automaton schedule of system **B** (serial, or a serial
/// witness σ from the concurrency-control layer) into a [`ScheduleTrace`]
/// for `item`, so [`check_trace`] can cross-validate the automata against
/// the same oracle the simulator uses.
///
/// Replica sites are the item's DM indices; each of the item's transaction
/// managers becomes one traced transaction. Late discovery reads of a
/// write-TM (read accesses performing after the first install) are
/// redundant under serial execution and are dropped. An incomplete
/// trailing block (a run truncated mid-TM) is dropped too.
///
/// # Errors
///
/// A description of the first inadaptable operation (non-integer values,
/// unknown item, or interleaved transaction managers), or of an item with
/// more replicas than a trace site can name.
pub fn trace_from_schedule(
    layout: &Layout,
    item: ItemId,
    schedule: &Schedule<TxnOp>,
) -> Result<ScheduleTrace, String> {
    let il = layout
        .items
        .get(&item)
        .ok_or_else(|| format!("unknown item {item:?}"))?;
    let initial = il
        .item
        .init
        .as_int()
        .ok_or_else(|| format!("item {} has a non-integer initial value", il.item.name))?;
    if initial < 0 {
        return Err(format!(
            "item {} has a negative initial value",
            il.item.name
        ));
    }
    let site_of: std::collections::BTreeMap<ObjectId, u8> = il
        .dm_objects
        .iter()
        .enumerate()
        .map(|(s, o)| u8::try_from(s).map(|s| (*o, s)))
        .collect::<Result<_, _>>()
        .map_err(|_| format!("item {} has more than 256 replicas", il.item.name))?;

    let mut trace =
        ScheduleTrace::new(format!("schedule:{}", il.item.name), il.dm_objects.len(), 0);
    trace.initial = initial as u64;

    struct OpenTm {
        tid: Tid,
        kind: TmKind,
        /// `value(T)` for write-TMs.
        param: Option<u64>,
        /// The TM's announced result (read-TMs), once it request-commits.
        result: Option<u64>,
        name: TraceTid,
        buf: Vec<TraceEvent>,
        installed: bool,
    }
    let mut ordinal: u64 = 0;
    let mut open: Option<OpenTm> = None;
    let mut specs: std::collections::BTreeMap<Tid, AccessSpec> = std::collections::BTreeMap::new();

    let as_u64 = |v: &Value, what: &str| -> Result<u64, String> {
        let n = v
            .as_int()
            .ok_or_else(|| format!("{what}: non-integer value {v}"))?;
        if n < 0 {
            return Err(format!("{what}: negative value {n}"));
        }
        Ok(n as u64)
    };

    for (i, op) in schedule.iter().enumerate() {
        match op {
            TxnOp::Create {
                tid,
                access: None,
                param,
            } => {
                let Some(role) = layout.tm_roles.get(tid) else {
                    continue;
                };
                if role.item() != item {
                    continue;
                }
                if let Some(o) = &open {
                    return Err(format!(
                        "TM {tid} created while TM {} is still running",
                        o.tid
                    ));
                }
                let (kind, tm_param) = match role {
                    TmRole::Read(_) => (TmKind::Read, None),
                    TmRole::Write(_) => {
                        let v = param
                            .as_ref()
                            .ok_or_else(|| format!("write-TM {tid} created without value(T)"))?;
                        (TmKind::Write, Some(as_u64(v, "value(T)")?))
                    }
                };
                let name = TraceTid {
                    client: 0,
                    op: ordinal,
                    attempt: 1,
                };
                ordinal += 1;
                open = Some(OpenTm {
                    tid: tid.clone(),
                    kind,
                    param: tm_param,
                    result: None,
                    name,
                    buf: vec![TraceEvent {
                        at_us: i as u64,
                        tid: name,
                        action: TraceAction::Create { kind },
                        faulted: false,
                    }],
                    installed: false,
                });
            }
            TxnOp::Create {
                tid,
                access: Some(spec),
                ..
            } => {
                let Some(o) = &open else { continue };
                if tid.parent().as_ref() == Some(&o.tid) && site_of.contains_key(&spec.object) {
                    specs.insert(tid.clone(), spec.clone());
                }
            }
            TxnOp::RequestCommit { tid, value } => {
                if let Some(spec) = specs.get(tid) {
                    // A performed replica access of the open TM.
                    let o = open
                        .as_mut()
                        .ok_or_else(|| format!("access {tid} performed outside a TM run"))?;
                    let site = site_of[&spec.object];
                    match spec.kind {
                        AccessKind::Read => {
                            if o.installed {
                                // Redundant late discovery read; erased.
                                continue;
                            }
                            let (vn, v) = value
                                .as_versioned()
                                .ok_or_else(|| format!("read access {tid} returned {value}"))?;
                            let v = as_u64(v, "DM read value")?;
                            o.buf.push(TraceEvent {
                                at_us: i as u64,
                                tid: o.name,
                                action: TraceAction::ReadDm { site, vn, value: v },
                                faulted: false,
                            });
                        }
                        AccessKind::Write => {
                            let (vn, v) = spec.data.as_versioned().ok_or_else(|| {
                                format!("write access {tid} installs {}", spec.data)
                            })?;
                            let v = as_u64(v, "DM install value")?;
                            o.installed = true;
                            o.buf.push(TraceEvent {
                                at_us: i as u64,
                                tid: o.name,
                                action: TraceAction::WriteDm { site, vn, value: v },
                                faulted: false,
                            });
                        }
                    }
                } else if open.as_ref().is_some_and(|o| &o.tid == tid) {
                    // The TM announced its result. Extra accesses it had
                    // outstanding may still perform before its COMMIT, so
                    // the trace's REQUEST-COMMIT event is synthesized at
                    // the COMMIT — after every replica access of the block.
                    let o = open.as_mut().expect("checked above");
                    if o.kind == TmKind::Read {
                        o.result = Some(as_u64(value, "read-TM result")?);
                    }
                }
            }
            TxnOp::Commit { tid, .. } if open.as_ref().is_some_and(|o| &o.tid == tid) => {
                let mut o = open.take().expect("checked above");
                let rc = match o.kind {
                    TmKind::Read => {
                        let dvn = o
                            .buf
                            .iter()
                            .filter_map(|e| match e.action {
                                TraceAction::ReadDm { vn, .. } => Some(vn),
                                _ => None,
                            })
                            .max()
                            .unwrap_or(0);
                        TraceAction::RequestCommit {
                            vn: dvn,
                            value: o.result.unwrap_or(0),
                        }
                    }
                    TmKind::Write => {
                        let install = o.buf.iter().find_map(|e| match e.action {
                            TraceAction::WriteDm { vn, value, .. } => Some((vn, value)),
                            _ => None,
                        });
                        let (vn, v) = install.unwrap_or((0, o.param.unwrap_or(0)));
                        TraceAction::RequestCommit { vn, value: v }
                    }
                    TmKind::Reconfig => {
                        unreachable!("the schedule adapter produces only read/write TMs")
                    }
                };
                o.buf.push(TraceEvent {
                    at_us: i as u64,
                    tid: o.name,
                    action: rc,
                    faulted: false,
                });
                o.buf.push(TraceEvent {
                    at_us: i as u64,
                    tid: o.name,
                    action: TraceAction::Commit,
                    faulted: false,
                });
                trace.events.extend(o.buf);
                specs.clear();
            }
            TxnOp::Abort { tid } => {
                if let Some(role) = layout.tm_roles.get(tid) {
                    if role.item() == item && open.as_ref().is_none_or(|o| &o.tid != tid) {
                        let kind = match role {
                            TmRole::Read(_) => TmKind::Read,
                            TmRole::Write(_) => TmKind::Write,
                        };
                        let name = TraceTid {
                            client: 0,
                            op: ordinal,
                            attempt: 1,
                        };
                        ordinal += 1;
                        trace.events.push(TraceEvent {
                            at_us: i as u64,
                            tid: name,
                            action: TraceAction::Abort {
                                kind,
                                reason: AbortReason::Forced,
                            },
                            faulted: false,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    // An incomplete trailing block (truncated run) is dropped.
    Ok(trace)
}

#[cfg(test)]
mod retirement;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConfigChoice, ItemSpec, SystemSpec, UserSpec, UserStep};
    use crate::theorem10::{run_system_b, RunOptions};
    use proptest::prelude::*;
    use quorum::{Majority, Rowa};

    /// Every check below also runs against the full-state system A and
    /// asserts the two agree.
    fn check_trace(
        t: &ScheduleTrace,
        quorum: &dyn QuorumSpec,
    ) -> Result<ConformanceReport, Divergence> {
        retirement::agree(t, quorum)
    }

    fn ev(tid: TraceTid, action: TraceAction) -> TraceEvent {
        TraceEvent {
            at_us: 0,
            tid,
            action,
            faulted: false,
        }
    }

    fn tid(op: u64) -> TraceTid {
        TraceTid {
            client: 0,
            op,
            attempt: 1,
        }
    }

    /// Edit `t`'s events as a `Vec`.
    fn edit<R>(t: &mut ScheduleTrace, f: impl FnOnce(&mut Vec<TraceEvent>) -> R) -> R {
        let mut events = t.events.to_vec();
        let r = f(&mut events);
        t.events = events.into();
        r
    }

    /// A valid write-then-read run over Majority(3).
    fn good_trace() -> ScheduleTrace {
        let mut t = ScheduleTrace::new("majority(2/3)", 3, 0);
        let w = tid(0);
        let r = tid(1);
        t.events = vec![
            ev(
                w,
                TraceAction::Create {
                    kind: TmKind::Write,
                },
            ),
            ev(
                w,
                TraceAction::ReadDm {
                    site: 0,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(
                w,
                TraceAction::ReadDm {
                    site: 1,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(
                w,
                TraceAction::WriteDm {
                    site: 0,
                    vn: 1,
                    value: 7,
                },
            ),
            ev(
                w,
                TraceAction::WriteDm {
                    site: 1,
                    vn: 1,
                    value: 7,
                },
            ),
            ev(w, TraceAction::RequestCommit { vn: 1, value: 7 }),
            ev(w, TraceAction::Commit),
            ev(r, TraceAction::Create { kind: TmKind::Read }),
            ev(
                r,
                TraceAction::ReadDm {
                    site: 1,
                    vn: 1,
                    value: 7,
                },
            ),
            ev(
                r,
                TraceAction::ReadDm {
                    site: 2,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(r, TraceAction::RequestCommit { vn: 1, value: 7 }),
            ev(r, TraceAction::Commit),
        ]
        .into();
        t
    }

    #[test]
    fn good_trace_conforms() {
        let report = check_trace(&good_trace(), &Majority::new(3)).expect("conforms");
        assert_eq!(report.committed, 2);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.erased, 6);
        assert_eq!(report.events, 12);
        assert_eq!(report.max_vn, 1);
        // CREATE(T0) + 4 ops per committed TM.
        assert_eq!(report.alpha_len, 9);
    }

    #[test]
    fn aborted_attempts_project_to_abort_pairs() {
        let mut t = good_trace();
        edit(&mut t, |e| {
            e.insert(
                0,
                ev(
                    TraceTid {
                        client: 1,
                        op: 0,
                        attempt: 1,
                    },
                    TraceAction::Abort {
                        kind: TmKind::Write,
                        reason: AbortReason::Timeout,
                    },
                ),
            )
        });
        let report = check_trace(&t, &Majority::new(3)).expect("conforms");
        assert_eq!(report.aborted, 1);
        assert_eq!(report.alpha_len, 11);
    }

    #[test]
    fn read_without_quorum_is_rejected() {
        let mut t = good_trace();
        // Drop the read's second READ-DM: {1} is not a majority read quorum.
        edit(&mut t, |e| e.remove(9));
        let d = check_trace(&t, &Majority::new(3)).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::NoReadQuorum);
        assert_eq!(d.event, 9, "divergence at the REQUEST-COMMIT: {d}");
    }

    #[test]
    fn commit_without_quorum_install_is_rejected() {
        let mut t = good_trace();
        // Drop one WRITE-DM: {0} is not a majority write quorum.
        edit(&mut t, |e| e.remove(4));
        let d = check_trace(&t, &Majority::new(3)).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::NoWriteQuorum);
        assert_eq!(d.event, 4, "divergence at the write's REQUEST-COMMIT: {d}");
    }

    #[test]
    fn stale_version_install_is_rejected() {
        let mut t = good_trace();
        // The write claims to install vn 2 after discovering vn 0.
        edit(&mut t, |e| {
            e[3] = ev(
                tid(0),
                TraceAction::WriteDm {
                    site: 0,
                    vn: 2,
                    value: 7,
                },
            )
        });
        let d = check_trace(&t, &Majority::new(3)).unwrap_err();
        assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "{d}");
        assert_eq!(d.event, 3);
    }

    #[test]
    fn store_mismatch_is_rejected_at_the_read() {
        let mut t = good_trace();
        // The read claims site 1 still holds vn 0 — but the write installed
        // vn 1 there.
        edit(&mut t, |e| {
            e[8] = ev(
                tid(1),
                TraceAction::ReadDm {
                    site: 1,
                    vn: 0,
                    value: 0,
                },
            )
        });
        let d = check_trace(&t, &Majority::new(3)).unwrap_err();
        assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "{d}");
        assert_eq!(d.event, 8);
    }

    #[test]
    fn truncated_block_is_rejected_at_end_of_trace() {
        let mut t = good_trace();
        edit(&mut t, |e| e.truncate(10));
        let d = check_trace(&t, &Majority::new(3)).unwrap_err();
        assert_eq!(d.event, 10);
        assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "{d}");
    }

    #[test]
    fn nonintersecting_quorums_trip_lemma_8() {
        // An illegal configuration: read quorum {2} misses write quorum
        // {0, 1}. The structural layer is satisfied (each block uses its
        // quorums), but the read returns a stale value — exactly what
        // Lemma 8's quorum-intersection requirement exists to rule out.
        let config = quorum::Configuration::new(
            vec![[2].into_iter().collect()],
            vec![[0, 1].into_iter().collect()],
        );
        assert!(!config.is_legal());
        let w = tid(0);
        let r = tid(1);
        let mut t = ScheduleTrace::new("illegal", 3, 0);
        t.events = vec![
            ev(
                w,
                TraceAction::Create {
                    kind: TmKind::Write,
                },
            ),
            ev(
                w,
                TraceAction::ReadDm {
                    site: 2,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(
                w,
                TraceAction::WriteDm {
                    site: 0,
                    vn: 1,
                    value: 7,
                },
            ),
            ev(
                w,
                TraceAction::WriteDm {
                    site: 1,
                    vn: 1,
                    value: 7,
                },
            ),
            ev(w, TraceAction::RequestCommit { vn: 1, value: 7 }),
            ev(w, TraceAction::Commit),
            ev(r, TraceAction::Create { kind: TmKind::Read }),
            ev(
                r,
                TraceAction::ReadDm {
                    site: 2,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(r, TraceAction::RequestCommit { vn: 0, value: 0 }),
            ev(r, TraceAction::Commit),
        ]
        .into();
        let d = check_trace(&t, &config).unwrap_err();
        assert!(matches!(d.kind, DivergenceKind::Lemma(_)), "{d}");
        assert_eq!(d.event, 9, "stale read detected at its COMMIT: {d}");
    }

    /// A reconfigure-then-write-then-read run over ROWA(3): generation 1
    /// shrinks the membership to {0, 1}, and the later data ops run (and
    /// are quorum-checked) under the new configuration.
    ///
    /// Event indices: reconfig TM 0–9 (REQUEST-COMMIT at 8), write TM
    /// 10–17 (REQUEST-COMMIT at 16), read TM 18–23.
    fn dynamic_trace() -> ScheduleTrace {
        let rt = tid(0);
        let wt = tid(1);
        let rd = tid(2);
        let members: ReplicaSet = [0usize, 1].into_iter().collect();
        let mut t = ScheduleTrace::new("rowa(3)", 3, 0);
        t.events = vec![
            // Reconfigure-TM: discover gen 0 at a config majority of the
            // full membership, install gen 1 = {0, 1} at an old-config
            // write quorum, refresh the data at the new members.
            ev(
                rt,
                TraceAction::Create {
                    kind: TmKind::Reconfig,
                },
            ),
            ev(rt, TraceAction::ReadCfg { site: 0, gen: 0 }),
            ev(rt, TraceAction::ReadCfg { site: 1, gen: 0 }),
            ev(
                rt,
                TraceAction::ReadDm {
                    site: 0,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(
                rt,
                TraceAction::WriteCfg {
                    site: 0,
                    gen: 1,
                    members,
                },
            ),
            ev(
                rt,
                TraceAction::WriteCfg {
                    site: 1,
                    gen: 1,
                    members,
                },
            ),
            ev(
                rt,
                TraceAction::WriteDm {
                    site: 0,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(
                rt,
                TraceAction::WriteDm {
                    site: 1,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(
                rt,
                TraceAction::RequestCommit {
                    vn: 1,
                    value: members.bits() as u64,
                },
            ),
            ev(rt, TraceAction::Commit),
            // Write-TM at generation 1.
            ev(
                wt,
                TraceAction::Create {
                    kind: TmKind::Write,
                },
            ),
            ev(wt, TraceAction::ReadCfg { site: 0, gen: 1 }),
            ev(wt, TraceAction::ReadCfg { site: 1, gen: 1 }),
            ev(
                wt,
                TraceAction::ReadDm {
                    site: 0,
                    vn: 0,
                    value: 0,
                },
            ),
            ev(
                wt,
                TraceAction::WriteDm {
                    site: 0,
                    vn: 1,
                    value: 7,
                },
            ),
            ev(
                wt,
                TraceAction::WriteDm {
                    site: 1,
                    vn: 1,
                    value: 7,
                },
            ),
            ev(wt, TraceAction::RequestCommit { vn: 1, value: 7 }),
            ev(wt, TraceAction::Commit),
            // Read-TM at generation 1.
            ev(rd, TraceAction::Create { kind: TmKind::Read }),
            ev(rd, TraceAction::ReadCfg { site: 0, gen: 1 }),
            ev(rd, TraceAction::ReadCfg { site: 1, gen: 1 }),
            ev(
                rd,
                TraceAction::ReadDm {
                    site: 1,
                    vn: 1,
                    value: 7,
                },
            ),
            ev(rd, TraceAction::RequestCommit { vn: 1, value: 7 }),
            ev(rd, TraceAction::Commit),
        ]
        .into();
        t
    }

    #[test]
    fn reconfiguring_trace_conforms_and_projects_without_the_reconfig() {
        let report = check_trace(&dynamic_trace(), &Rowa::new(3)).expect("conforms");
        assert_eq!(report.committed, 3);
        assert_eq!(report.aborted, 0);
        // Every READ/WRITE-DM and READ/WRITE-CFG is erased.
        assert_eq!(report.erased, 15);
        assert_eq!(report.events, 24);
        assert_eq!(report.max_vn, 1);
        // CREATE(T0) + 4 ops for each committed *data* TM; the
        // reconfigure-TM leaves no trace in α.
        assert_eq!(report.alpha_len, 9);
    }

    #[test]
    fn stale_generation_commit_is_rejected() {
        let mut t = dynamic_trace();
        // Strip the write-TM's configuration reads: it now runs at
        // generation 0, which generation 1 superseded.
        edit(&mut t, |e| e.remove(12));
        edit(&mut t, |e| e.remove(11));
        let d = check_trace(&t, &Rowa::new(3)).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::StaleGeneration);
        assert_eq!(d.event, 14, "divergence at the write's REQUEST-COMMIT: {d}");
    }

    #[test]
    fn install_without_old_config_write_quorum_is_rejected() {
        let mut t = dynamic_trace();
        // Drop one WRITE-CFG: {0} is not a config majority of the old
        // membership {0, 1, 2}.
        edit(&mut t, |e| e.remove(5));
        let d = check_trace(&t, &Rowa::new(3)).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::NoConfigWriteQuorum);
        assert_eq!(
            d.event, 7,
            "divergence at the reconfig's REQUEST-COMMIT: {d}"
        );
    }

    #[test]
    fn dynamic_op_without_config_read_quorum_is_rejected() {
        let mut t = dynamic_trace();
        // Drop one of the write-TM's READ-CFGs: {0} is not a config
        // majority of the current membership {0, 1}.
        edit(&mut t, |e| e.remove(12));
        let d = check_trace(&t, &Rowa::new(3)).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::NoConfigReadQuorum);
        assert_eq!(d.event, 15, "divergence at the write's REQUEST-COMMIT: {d}");
    }

    #[test]
    fn dynamic_write_short_of_the_members_write_quorum_is_rejected() {
        let mut t = dynamic_trace();
        // Drop the write-TM's install at member 1: ROWA over the
        // generation-1 members {0, 1} writes both.
        edit(&mut t, |e| e.remove(15));
        let d = check_trace(&t, &Rowa::new(3)).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::NoWriteQuorum);
        assert_eq!(d.event, 15, "divergence at the write's REQUEST-COMMIT: {d}");
    }

    #[test]
    fn reconfig_refresh_short_of_the_new_members_write_quorum_is_rejected() {
        let mut t = dynamic_trace();
        // Drop the reconfigure-TM's data refresh at new member 1: the
        // refresh must reach a write quorum of the *new* members {0, 1}.
        edit(&mut t, |e| e.remove(7));
        let d = check_trace(&t, &Rowa::new(3)).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::NoWriteQuorum);
        assert_eq!(
            d.event, 7,
            "divergence at the reconfig's REQUEST-COMMIT: {d}"
        );
    }

    #[test]
    fn dynamic_read_without_a_members_read_quorum_is_rejected() {
        let mut t = dynamic_trace();
        // Drop the read-TM's only READ-DM: its configuration reads are a
        // majority of {0, 1}, but no data read quorum remains.
        edit(&mut t, |e| e.remove(21));
        let d = check_trace(&t, &Rowa::new(3)).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::NoReadQuorum);
        assert_eq!(d.event, 21, "divergence at the read's REQUEST-COMMIT: {d}");
    }

    #[test]
    fn config_access_under_a_non_resizable_quorum_system_is_rejected() {
        let mut t = dynamic_trace();
        // Read/write thresholds (3, 1) over 3 sites fit no quorum family,
        // so the checker refuses configuration accesses outright.
        let d = check_trace(&t, &Majority::with_sizes(3, 3, 1)).unwrap_err();
        assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "{d}");
        assert_eq!(d.event, 1, "refused at the first READ-CFG: {d}");
        // And a generation the discovery never saw is malformed even under
        // a family: claim gen 2 was installed after reading gen 0.
        edit(&mut t, |e| {
            e[4] = ev(
                tid(0),
                TraceAction::WriteCfg {
                    site: 0,
                    gen: 2,
                    members: [0usize, 1].into_iter().collect(),
                },
            )
        });
        let d = check_trace(&t, &Rowa::new(3)).unwrap_err();
        assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "{d}");
        assert_eq!(d.event, 4, "refused at the skipping WRITE-CFG: {d}");
    }

    #[test]
    fn projection_erases_exactly_the_replica_accesses() {
        let t = good_trace();
        let (alpha, src) = project_trace(&t);
        assert_eq!(alpha.len(), 9);
        assert_eq!(src.len(), 9);
        assert!(alpha.iter().all(|op| !matches!(
            op,
            TxnOp::RequestCommit {
                value: Value::Versioned { .. },
                ..
            }
        )));
        // First op is CREATE(T0).
        assert!(matches!(
            alpha.as_slice()[0],
            TxnOp::Create { ref tid, .. } if tid.is_root()
        ));
    }

    #[test]
    fn the_replay_steps_exactly_the_collected_projection() {
        let mut with_aborts = dynamic_trace();
        for at in [24, 10, 0] {
            edit(&mut with_aborts, |e| {
                e.insert(
                    at,
                    ev(
                        tid(9),
                        TraceAction::Abort {
                            kind: if at == 10 {
                                TmKind::Reconfig
                            } else {
                                TmKind::Write
                            },
                            reason: AbortReason::Stale,
                        },
                    ),
                )
            });
        }
        for (t, q) in [
            (good_trace(), &Majority::new(3) as &dyn QuorumSpec),
            (dynamic_trace(), &Rowa::new(3)),
            (with_aborts, &Rowa::new(3)),
        ] {
            let mut stepped = Vec::new();
            let report = check_trace_tapped(&t, q, |op, src| stepped.push((op.clone(), src)))
                .expect("conforms");
            let (alpha, src) = project_trace(&t);
            assert_eq!(report.alpha_len, alpha.len());
            let collected: Vec<_> = alpha.into_vec().into_iter().zip(src).collect();
            assert_eq!(stepped, collected);
        }
    }

    /// The replay layer on its own: hand-built α operations that serial
    /// system A must refuse. (No mutated *trace* reaches these refusals —
    /// the structural scan is stricter than system A and reports first.)
    mod replay_refusals {
        use super::*;

        fn a(k: u32) -> Tid {
            Tid::root().child(k)
        }

        fn request(k: u32, spec: AccessSpec) -> TxnOp {
            TxnOp::request_access(a(k), spec)
        }

        fn create(k: u32, spec: AccessSpec) -> TxnOp {
            TxnOp::Create {
                tid: a(k),
                access: Some(spec),
                param: None,
            }
        }

        /// Step `accepted` (each must be performed), then `refused`, said
        /// to come from trace event `src` of [`good_trace`]; return the
        /// divergence.
        fn refuse(accepted: &[TxnOp], refused: &TxnOp, src: usize) -> Divergence {
            let events = good_trace().events;
            let mut system_a = SystemA::new(0);
            for op in accepted {
                system_a
                    .step(op, 0, &events)
                    .unwrap_or_else(|d| panic!("{op} should be a step of A: {d}"));
            }
            let d = system_a
                .step(refused, src, &events)
                .expect_err("system A must refuse");
            assert_eq!(d.event, src, "{d}");
            let rendered = events.get(src).map_or("end of trace".to_string(), |e| {
                format!("{}: {}", e.tid, e.action)
            });
            assert_eq!(d.action, rendered, "{d}");
            d
        }

        fn why(d: &Divergence) -> &str {
            match &d.kind {
                DivergenceKind::Replay(why) => why,
                other => panic!("expected a replay divergence, got {other:?}"),
            }
        }

        #[test]
        fn a_read_returning_anything_but_the_data() {
            let read = AccessSpec::read(A_OBJECT);
            let d = refuse(
                &[create_root(), request(0, read.clone()), create(0, read)],
                &TxnOp::RequestCommit {
                    tid: a(0),
                    value: Value::Int(9),
                },
                10,
            );
            assert_eq!(d.action, "c0.op1.a1: REQUEST-COMMIT(vn 1, value 7)");
            assert!(why(&d).contains("REQUEST-COMMIT(T0.0, 9)"), "{d}");
            assert!(why(&d).contains("returns 9, data is 0"), "{d}");
        }

        #[test]
        fn a_create_beside_a_running_sibling() {
            let read = AccessSpec::read(A_OBJECT);
            let d = refuse(
                &[
                    create_root(),
                    request(0, read.clone()),
                    create(0, read.clone()),
                    request(1, read.clone()),
                ],
                &create(1, read),
                7,
            );
            assert_eq!(d.action, "c0.op1.a1: CREATE(read-TM)");
            assert!(why(&d).contains("CREATE(T0.1) precondition fails"), "{d}");
        }

        #[test]
        fn a_commit_with_another_value_than_requested() {
            let write = AccessSpec::write(A_OBJECT, Value::Int(7));
            let d = refuse(
                &[
                    create_root(),
                    request(0, write.clone()),
                    create(0, write),
                    TxnOp::RequestCommit {
                        tid: a(0),
                        value: Value::Nil,
                    },
                ],
                &TxnOp::Commit {
                    tid: a(0),
                    value: Value::Int(7),
                },
                6,
            );
            assert_eq!(d.action, "c0.op0.a1: COMMIT");
            assert!(
                why(&d).contains("COMMIT(T0.0) value differs from request"),
                "{d}"
            );
        }

        #[test]
        fn an_operation_on_a_name_nobody_requested() {
            let d = refuse(&[create_root()], &create(7, AccessSpec::read(A_OBJECT)), 0);
            assert!(why(&d).contains("CREATE(T0.7) precondition fails"), "{d}");
            // Past the last event the divergence is rendered as such.
            let d = refuse(&[create_root()], &TxnOp::Abort { tid: a(7) }, 12);
            assert_eq!(d.action, "end of trace");
            assert!(why(&d).contains("ABORT(T0.7) precondition fails"), "{d}");
        }

        /// A valid read-then-write run over Majority(3): the read-TM is
        /// events 0–4 (`REQUEST-COMMIT` at 3), the write-TM 5–11
        /// (`REQUEST-COMMIT` at 10).
        fn read_first_trace() -> ScheduleTrace {
            let (r, w) = (tid(0), tid(1));
            let read = |t, site| {
                let (vn, value) = (0, 0);
                ev(t, TraceAction::ReadDm { site, vn, value })
            };
            let install = |site| {
                let (vn, value) = (1, 7);
                ev(w, TraceAction::WriteDm { site, vn, value })
            };
            let mut t = ScheduleTrace::new("majority(2/3)", 3, 0);
            t.events = vec![
                ev(r, TraceAction::Create { kind: TmKind::Read }),
                read(r, 0),
                read(r, 1),
                ev(r, TraceAction::RequestCommit { vn: 0, value: 0 }),
                ev(r, TraceAction::Commit),
                ev(
                    w,
                    TraceAction::Create {
                        kind: TmKind::Write,
                    },
                ),
                read(w, 1),
                read(w, 2),
                install(1),
                install(2),
                ev(w, TraceAction::RequestCommit { vn: 1, value: 7 }),
                ev(w, TraceAction::Commit),
            ]
            .into();
            t
        }

        /// The one pass against a system A whose object starts at
        /// `initial + 1`: it refuses the read-TM's `REQUEST-COMMIT`, event
        /// 3 of [`read_first_trace`], when that block closes. Returns the
        /// verdict and the operations A performed.
        fn check_against_a_wrong_object(
            t: &ScheduleTrace,
        ) -> (Result<ConformanceReport, Divergence>, Vec<(TxnOp, usize)>) {
            retirement::agree_against(t, &Majority::new(3), t.initial + 1)
        }

        #[test]
        fn a_refusal_waits_for_the_scan_and_a_later_structural_error_wins() {
            let mut t = read_first_trace();
            check_trace(&t, &Majority::new(3)).expect("conforms against the real A");
            // Drop the write-TM's second install, six events after the
            // event A refuses: {1} is not a majority write quorum.
            edit(&mut t, |e| e.remove(9));
            let (verdict, stepped) = check_against_a_wrong_object(&t);
            let d = verdict.unwrap_err();
            assert_eq!(d.kind, DivergenceKind::NoWriteQuorum, "{d}");
            assert_eq!(d.event, 9, "layer 1 reports at its own event: {d}");
            assert_eq!(d.action, "c0.op1.a1: REQUEST-COMMIT(vn 1, value 7)");
            assert_eq!(stepped.len(), 3, "A stopped at its refusal");

            // So does an error only the end of the trace shows.
            let mut t = read_first_trace();
            edit(&mut t, |e| e.truncate(10));
            let d = check_against_a_wrong_object(&t).0.unwrap_err();
            assert!(matches!(d.kind, DivergenceKind::Malformed(_)), "{d}");
            assert_eq!((d.event, d.action.as_str()), (10, "end of trace"));
        }

        #[test]
        fn on_a_clean_trace_the_remembered_refusal_is_the_verdict() {
            let t = read_first_trace();
            let (verdict, stepped) = check_against_a_wrong_object(&t);
            let d = verdict.expect_err("the refusal must not be dropped");
            assert_eq!(d.event, 3, "{d}");
            assert_eq!(d.action, "c0.op0.a1: REQUEST-COMMIT(vn 0, value 0)");
            assert_eq!(
                why(&d),
                "serial system A refused REQUEST-COMMIT(T0.0, 0): component 'O(x)' refused \
                 operation REQUEST-COMMIT(T0.0, 0): O(x): read access T0.0 returns 0, data is 1"
            );
            // A performed α up to the refused operation and nothing after.
            let (alpha, src) = project_trace(&t);
            let collected: Vec<_> = alpha.into_vec().into_iter().zip(src).collect();
            assert_eq!(stepped, collected[..3]);
        }
    }

    #[test]
    fn system_b_schedules_adapt_and_conform() {
        let spec = SystemSpec {
            items: vec![ItemSpec {
                name: "x".into(),
                init: Value::Int(0),
                replicas: 3,
                config: ConfigChoice::Majority,
            }],
            plain: vec![],
            users: vec![
                UserSpec::new(vec![UserStep::Write(0, Value::Int(41)), UserStep::Read(0)]),
                UserSpec::new(vec![UserStep::Read(0), UserStep::Write(0, Value::Int(42))]),
            ],
            strategy: Default::default(),
        };
        let mut checked = 0;
        for seed in 0..8u64 {
            let opts = RunOptions {
                seed,
                ..RunOptions::default()
            };
            let (beta, layout) = run_system_b(&spec, opts).expect("B runs");
            let trace = trace_from_schedule(&layout, ItemId(0), &beta).expect("schedule adapts");
            let il = &layout.items[&ItemId(0)];
            let site_of: std::collections::BTreeMap<_, _> = il
                .dm_objects
                .iter()
                .enumerate()
                .map(|(s, o)| (*o, s))
                .collect();
            let config = il.config.map(|o| site_of[o]);
            let report = check_trace(&trace, &config).expect("B trace conforms");
            checked += report.committed;
        }
        assert!(checked > 0, "no TM ever committed across the seeds");
    }

    #[test]
    fn packed_rows_and_headers_stay_small() {
        assert_eq!(std::mem::size_of::<Row>(), 24);
        assert!(std::mem::size_of::<Header>() <= 32);
    }

    /// Each TM block of a simulated trace shares one header, and a
    /// reconfiguration's installs share one member-set entry.
    #[test]
    fn blocks_share_headers_and_installs_share_member_sets() {
        let t = good_trace();
        assert_eq!((t.events.len(), t.events.headers.len()), (12, 2));
        let t = dynamic_trace();
        assert_eq!(t.events.headers.len(), 3);
        assert_eq!(t.events.members.len(), 1);
    }

    /// `(selector, raw)`: 0, `u64::MAX`, a small value or `raw` itself, so
    /// equal neighbours and the extremes are both common.
    type Word = (u8, u64);

    fn word((sel, raw): Word) -> u64 {
        match sel {
            0 => 0,
            1 => u64::MAX,
            2 => raw % 4,
            _ => raw,
        }
    }

    fn word_strategy() -> (std::ops::Range<u8>, std::ops::RangeInclusive<u64>) {
        (0u8..4, 0..=u64::MAX)
    }

    /// One event drawn from its parts: `(at_us, client, op, attempt)`, then
    /// `(faulted, action kind, site, sub-kind)`, then the action's two
    /// words and a member set's two halves.
    fn arbitrary_event(
        (at, client, op, attempt): (Word, u32, Word, u32),
        (faulted, action, site, sub): (u8, u8, u8, u8),
        (a, b): (Word, Word),
        (lo, hi): (Word, Word),
    ) -> TraceEvent {
        let kind = [TmKind::Read, TmKind::Write, TmKind::Reconfig][usize::from(sub % 3)];
        let reason = [
            AbortReason::Forced,
            AbortReason::Unavailable,
            AbortReason::Timeout,
            AbortReason::Stale,
        ][usize::from(sub % 4)];
        let (a, b) = (word(a), word(b));
        let members = ReplicaSet::from_bits(u128::from(word(lo)) | u128::from(word(hi)) << 64);
        let action = match action {
            0 => TraceAction::Create { kind },
            1 => TraceAction::ReadDm {
                site,
                vn: a,
                value: b,
            },
            2 => TraceAction::WriteDm {
                site,
                vn: a,
                value: b,
            },
            3 => TraceAction::ReadCfg { site, gen: a },
            4 => TraceAction::WriteCfg {
                site,
                gen: a,
                members,
            },
            5 => TraceAction::RequestCommit { vn: a, value: b },
            6 => TraceAction::Commit,
            _ => TraceAction::Abort { kind, reason },
        };
        TraceEvent {
            at_us: word(at),
            tid: TraceTid {
                client,
                op: word(op),
                attempt,
            },
            action,
            faulted: faulted == 1,
        }
    }

    proptest! {
        /// Packing is lossless on any sequence of events, well-formed or
        /// not: interleaved names, time running backwards, the fault flag
        /// flipping inside a block, all eight actions, every site, any
        /// member set and the extremes of every word.
        #[test]
        fn packing_round_trips_any_event_sequence(
            raw in prop::collection::vec(
                (
                    (word_strategy(), 0u32..3, word_strategy(), 0u32..3),
                    (0u8..2, 0u8..8, 0u8..=255, 0u8..12),
                    (word_strategy(), word_strategy()),
                    (word_strategy(), word_strategy()),
                ),
                0..64,
            ),
        ) {
            let events: Vec<TraceEvent> = raw
                .into_iter()
                .map(|(h, t, ab, m)| arbitrary_event(h, t, ab, m))
                .collect();
            let packed = TraceEvents::from(events.clone());
            prop_assert_eq!(packed.len(), events.len());
            prop_assert_eq!(packed.is_empty(), events.is_empty());
            prop_assert_eq!(packed.to_vec(), events.clone());
            for (i, ev) in events.iter().enumerate() {
                prop_assert_eq!(packed.get(i), Some(*ev));
            }
            prop_assert_eq!(packed.get(events.len()), None);
            prop_assert!(packed.iter().rev().eq(events.iter().rev().copied()));
            prop_assert_eq!(format!("{packed:?}"), format!("{events:?}"));
            prop_assert!(packed.headers.len() <= events.len());
            let mut pushed = TraceEvents::new();
            for ev in &events {
                pushed.push(*ev);
            }
            prop_assert_eq!(pushed, packed);
        }
    }
}
