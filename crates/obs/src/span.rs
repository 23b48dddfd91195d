//! Deterministic span recording for the quorum protocol's phases.
//!
//! Spans are keyed on **simulated time** (`u64` microseconds, the unit
//! of `qc_sim::SimTime`), never wall clock, so two runs of the same seed
//! produce bit-identical recordings regardless of how many OS threads
//! executed them. The five named phases map onto the paper's protocol
//! steps (see `DESIGN.md` §5.4):
//!
//! - `read_gather` — phase 1 of Gifford's protocol: contact a read
//!   quorum and gather `(version-number, value)` responses.
//! - `vn_resolve` — pick the maximum version number from the gathered
//!   responses (Lemma 7's "current version number" resolution).
//! - `write_install` — phase 2: install the new version at a write
//!   quorum.
//! - `commit_round` — the atomic commit round that makes the op's
//!   copies visible.
//! - `retry_backoff` — time an op spent sleeping between a failed
//!   attempt and its retry (only recorded for ops that backed off).
//!   Stale-generation rejections (paper §4) charge the doomed
//!   attempt's elapsed time here too: work thrown away because the
//!   configuration moved is backoff, not useful gathering.
//!
//! Two phases arrived with the dynamic-quorum and elastic-placement
//! layers (PRs 7–9) after the original five froze:
//!
//! - `reconfig_fence` — a §4 reconfiguration fence: the instant a new
//!   `(configuration, generation)` is installed through a write quorum
//!   of the *old* members. Recorded as a zero-duration span per
//!   installation so `qc-exp obs` percentiles count dynamic runs' fences.
//! - `migration` — an elastic-placement hot-item migration barrier
//!   (a same-members generation bump batched per epoch), one
//!   zero-duration span per migrated item.

use crate::hist::Histogram;

/// A named protocol phase. The discriminant doubles as the index into
/// [`SpanRecorder`]'s histogram array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Phase 1: read-quorum gather.
    ReadGather = 0,
    /// Version-number resolution over the gathered responses.
    VnResolve = 1,
    /// Phase 2: write-quorum install.
    WriteInstall = 2,
    /// Atomic commit round.
    CommitRound = 3,
    /// Retry backoff between failed attempts.
    RetryBackoff = 4,
    /// A §4 reconfiguration fence: new `(configuration, generation)`
    /// installed through a write quorum of the old members.
    ReconfigFence = 5,
    /// An elastic-placement migration barrier (same-members generation
    /// bump), one span per migrated item.
    Migration = 6,
}

/// The number of named phases (and the recorder's histogram count).
pub const NUM_PHASES: usize = 7;

/// All phases in recording order.
pub const PHASES: [Phase; NUM_PHASES] = [
    Phase::ReadGather,
    Phase::VnResolve,
    Phase::WriteInstall,
    Phase::CommitRound,
    Phase::RetryBackoff,
    Phase::ReconfigFence,
    Phase::Migration,
];

impl Phase {
    /// The stable wire name of this phase (used in JSON and tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::ReadGather => "read_gather",
            Phase::VnResolve => "vn_resolve",
            Phase::WriteInstall => "write_install",
            Phase::CommitRound => "commit_round",
            Phase::RetryBackoff => "retry_backoff",
            Phase::ReconfigFence => "reconfig_fence",
            Phase::Migration => "migration",
        }
    }
}

/// Per-phase duration histograms, merged across shards in shard-index
/// order for thread-count-invariant renderings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecorder {
    hists: [Histogram; NUM_PHASES],
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Record one span of `duration_us` simulated microseconds in `phase`.
    pub fn record(&mut self, phase: Phase, duration_us: u64) {
        self.hists[phase as usize].record(duration_us);
    }

    /// The duration histogram of one phase.
    pub fn hist(&self, phase: Phase) -> &Histogram {
        &self.hists[phase as usize]
    }

    /// Total simulated microseconds across all phases (exact sums).
    pub fn total_us(&self) -> u64 {
        self.hists.iter().map(Histogram::sum).sum()
    }

    /// True if no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.count() == 0)
    }

    /// Order-insensitive merge of another recorder's histograms.
    pub fn merge(&mut self, other: &SpanRecorder) {
        for (dst, src) in self.hists.iter_mut().zip(&other.hists) {
            dst.merge(src);
        }
    }

    /// JSON object keyed by phase name, each value the phase's compact
    /// histogram encoding.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, phase) in PHASES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                phase.name(),
                self.hist(*phase).to_json()
            ));
        }
        out.push('}');
        out
    }

    /// FNV-1a digest over the full JSON rendering.
    pub fn digest(&self) -> u64 {
        crate::fnv1a(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_stable() {
        let names: Vec<_> = PHASES.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "read_gather",
                "vn_resolve",
                "write_install",
                "commit_round",
                "retry_backoff",
                "reconfig_fence",
                "migration"
            ]
        );
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }

    #[test]
    fn record_and_total() {
        let mut s = SpanRecorder::new();
        assert!(s.is_empty());
        s.record(Phase::ReadGather, 100);
        s.record(Phase::WriteInstall, 250);
        s.record(Phase::RetryBackoff, 7);
        assert!(!s.is_empty());
        assert_eq!(s.total_us(), 357);
        assert_eq!(s.hist(Phase::ReadGather).count(), 1);
        assert_eq!(s.hist(Phase::VnResolve).count(), 0);
    }

    #[test]
    fn merge_matches_union_and_commutes() {
        let mut a = SpanRecorder::new();
        a.record(Phase::ReadGather, 10);
        a.record(Phase::CommitRound, 0);
        let mut b = SpanRecorder::new();
        b.record(Phase::ReadGather, 9_000);
        b.record(Phase::RetryBackoff, 44);

        let mut u = SpanRecorder::new();
        for r in [&a, &b] {
            u.merge(r);
        }
        let mut rev = SpanRecorder::new();
        for r in [&b, &a] {
            rev.merge(r);
        }
        assert_eq!(u, rev);
        assert_eq!(u.to_json(), rev.to_json());
        assert_eq!(u.digest(), rev.digest());
        assert_eq!(u.total_us(), 9_054);
    }

    #[test]
    fn json_keyed_by_phase_names() {
        let mut s = SpanRecorder::new();
        s.record(Phase::VnResolve, 0);
        let json = s.to_json();
        for p in PHASES {
            assert!(json.contains(&format!("\"{}\":", p.name())), "{json}");
        }
        assert!(json.contains("\"vn_resolve\":{\"count\":1"));
    }
}
