//! Operation metrics and summaries.

use std::fmt::{self, Write as _};

use qc_obs::{Fnv1a, Histogram};
use serde::Serialize;

use crate::time::SimTime;

/// Statistics for one operation class (reads or writes).
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Operations attempted.
    pub attempts: u64,
    /// Operations that obtained their quorums in time.
    pub successes: u64,
    /// Messages sent (requests + responses).
    pub messages: u64,
    /// Extra attempts after a failed first attempt (not counted in
    /// `attempts`; an operation that retries twice and then commits is one
    /// attempt, one success, two retries).
    pub retries: u64,
    /// Operations whose final attempt timed out assembling a quorum.
    pub timeouts: u64,
    /// Operations that failed fast because the live sites held no quorum.
    pub unavailable: u64,
    /// Operations forcibly aborted by an injected fault.
    pub aborted: u64,
    latencies_us: Vec<u64>,
    /// Log-bucketed success-latency histogram (µs) over exactly the values
    /// of `latencies_us` (`record_success` and `merge` write both). Exact
    /// percentiles are *selected* through it: its bucket counts locate the
    /// rank, and a counting pass over the samples narrows that bucket to
    /// the value — no copy, no sort. It also gives O(1)-memory live
    /// percentiles for snapshots, the exact sum behind the mean, and
    /// count/sum/max for the observability reconciliation.
    hist: Histogram,
}

impl OpStats {
    /// Record a successful operation.
    pub fn record_success(&mut self, latency: SimTime, messages: u64) {
        self.attempts += 1;
        self.successes += 1;
        self.messages += messages;
        self.latencies_us.push(latency.as_micros());
        self.hist.record(latency.as_micros());
    }

    /// Record a failed operation (final attempt timed out).
    pub fn record_failure(&mut self, messages: u64) {
        self.attempts += 1;
        self.messages += messages;
        self.timeouts += 1;
    }

    /// Record an operation rejected fast for lack of a live quorum.
    pub fn record_unavailable(&mut self, messages: u64) {
        self.attempts += 1;
        self.messages += messages;
        self.unavailable += 1;
    }

    /// Record a forced abort.
    pub fn record_abort(&mut self) {
        self.attempts += 1;
        self.aborted += 1;
    }

    /// Record a retry (an additional attempt after a failed one).
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }

    /// Fraction of attempts that succeeded (1.0 when nothing attempted).
    pub fn availability(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// Mean success latency in milliseconds, from the histogram's exact
    /// sum (saturating at `u64::MAX` µs, which no run reaches).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.hist.count() == 0 {
            return 0.0;
        }
        self.hist.sum() as f64 / self.hist.count() as f64 / 1_000.0
    }

    /// A latency percentile (0–100) in milliseconds: the exact sample of
    /// rank `round(p/100 · (n−1))` in sorted order (clamped to the sample
    /// range), selected without copying or sorting the samples.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let n = self.latencies_us.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * (n as f64 - 1.0)).round() as usize;
        self.select(rank.min(n - 1) as u64) as f64 / 1_000.0
    }

    /// The sample of 0-based `rank` in sorted order. The histogram's
    /// bucket counts locate the bucket `[lo, hi]` holding the rank; each
    /// pass over the samples then counts the in-range values into at most
    /// `2^SELECT_BITS` equal slots and narrows `[lo, hi]` to the slot
    /// holding the rank. A bucket is under 0.8 % of its values wide, so
    /// one pass suffices below `2^(SELECT_BITS + 7)` µs (≈ 8.4 s) and four
    /// cover any `u64`.
    fn select(&self, mut rank: u64) -> u64 {
        const SELECT_BITS: u32 = 16;
        debug_assert_eq!(self.hist.count(), self.latencies_us.len() as u64);
        let (mut lo, mut hi) = (0, 0);
        for (bucket_lo, bucket_hi, count) in self.hist.buckets() {
            if rank < count {
                (lo, hi) = (bucket_lo, bucket_hi);
                break;
            }
            rank -= count;
        }
        let mut slots = Vec::new();
        while lo < hi {
            let span = hi - lo;
            let shift = (u64::BITS - span.leading_zeros()).saturating_sub(SELECT_BITS);
            slots.clear();
            slots.resize((span >> shift) as usize + 1, 0u64);
            for &x in &self.latencies_us {
                let d = x.wrapping_sub(lo);
                if d <= span {
                    slots[(d >> shift) as usize] += 1;
                }
            }
            let slot = slots
                .iter()
                .position(|&c| {
                    if rank < c {
                        return true;
                    }
                    rank -= c;
                    false
                })
                .expect("the histogram and the samples hold the same values");
            let offset = (slot as u64) << shift;
            lo += offset;
            hi = lo + (span - offset).min((1 << shift) - 1);
        }
        lo
    }

    /// Mean messages per attempted operation.
    pub fn messages_per_op(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.messages as f64 / self.attempts as f64
        }
    }

    /// Fold another stats block into this one (counter sums; the latency
    /// samples of `other` are appended). Used by the sharded simulator to
    /// reduce per-shard stats into one aggregate; every counter-derived
    /// quantity (availability, messages/op, mean latency, percentiles over
    /// the sample *multiset*) is order-insensitive, so any merge order
    /// yields the same aggregate statistics.
    pub fn merge(&mut self, other: &OpStats) {
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.messages += other.messages;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.unavailable += other.unavailable;
        self.aborted += other.aborted;
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.hist.merge(&other.hist);
    }

    /// The log-bucketed success-latency histogram (microseconds).
    pub fn latency_hist(&self) -> &Histogram {
        &self.hist
    }

    /// Condensed summary for reports. The tail fields come from the
    /// embedded histogram: `p999_ms` is bucketed (<0.8% relative error),
    /// `max_ms` is exact.
    pub fn summary(&self) -> OpSummary {
        OpSummary {
            attempts: self.attempts,
            successes: self.successes,
            availability: self.availability(),
            mean_ms: self.mean_latency_ms(),
            p50_ms: self.percentile_ms(50.0),
            p95_ms: self.percentile_ms(95.0),
            p99_ms: self.percentile_ms(99.0),
            p999_ms: self.hist.p999() as f64 / 1_000.0,
            max_ms: self.hist.max() as f64 / 1_000.0,
            messages_per_op: self.messages_per_op(),
            retries: self.retries,
            timeouts: self.timeouts,
            unavailable: self.unavailable,
            aborted: self.aborted,
        }
    }
}

/// Serializable summary of an [`OpStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OpSummary {
    /// Operations attempted.
    pub attempts: u64,
    /// Operations that succeeded.
    pub successes: u64,
    /// successes / attempts.
    pub availability: f64,
    /// Mean success latency (ms).
    pub mean_ms: f64,
    /// Median success latency (ms).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile latency (ms), from the log-bucketed histogram.
    pub p999_ms: f64,
    /// Maximum success latency (ms), exact.
    pub max_ms: f64,
    /// Mean messages per attempted operation.
    pub messages_per_op: f64,
    /// Extra attempts after failures.
    pub retries: u64,
    /// Final-attempt quorum-assembly timeouts.
    pub timeouts: u64,
    /// Fast quorum-unavailable rejections.
    pub unavailable: u64,
    /// Forced aborts.
    pub aborted: u64,
}

impl Serialize for OpSummary {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(
            &serde_json::JsonObject::new()
                .field("attempts", &self.attempts)
                .field("successes", &self.successes)
                .field("availability", &self.availability)
                .field("mean_ms", &self.mean_ms)
                .field("p50_ms", &self.p50_ms)
                .field("p95_ms", &self.p95_ms)
                .field("p99_ms", &self.p99_ms)
                .field("p999_ms", &self.p999_ms)
                .field("max_ms", &self.max_ms)
                .field("messages_per_op", &self.messages_per_op)
                .field("retries", &self.retries)
                .field("timeouts", &self.timeouts)
                .field("unavailable", &self.unavailable)
                .field("aborted", &self.aborted)
                .build(),
        );
    }
}

/// One committed logical operation, in commit order.
///
/// Recorded only when `SimConfig::record_history` is set; the cross-policy
/// equivalence tests compare these histories byte for byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// The client that issued the operation.
    pub client: usize,
    /// Whether it was a logical read (else a write).
    pub read: bool,
    /// The version number read or installed.
    pub vn: u64,
    /// The value returned or written.
    pub value: u64,
}

/// The FNV-1a digest of what `render` writes, streamed — the rendering is
/// never built. Shared by the report digests ([`Metrics::digest`],
/// `ShardReport`, `TxnReport` and `PlacementReport`), which multiply by
/// `0x1000_0000_01b3`, not the FNV prime `0x100_0000_01b3`: every pinned
/// report digest depends on it.
pub(crate) fn report_digest(render: impl FnOnce(&mut Fnv1a) -> fmt::Result) -> u64 {
    let mut h = Fnv1a::new(0x1000_0000_01b3);
    render(&mut h).expect("the FNV-1a sink accepts every write");
    h.finish()
}

/// Number of lemma-violation descriptions retained verbatim in
/// [`Metrics::violations`]; further violations only bump the counter.
pub const MAX_RECORDED_VIOLATIONS: usize = 8;

/// Metrics for a whole simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Logical-read statistics.
    pub reads: OpStats,
    /// Logical-write statistics.
    pub writes: OpStats,
    /// Site-down events observed.
    pub site_failures: u64,
    /// Messages lost to injected drop windows.
    pub dropped_messages: u64,
    /// Operations killed by injected `AbortClient` faults.
    pub forced_aborts: u64,
    /// Fault-plan events that fired.
    pub injected_faults: u64,
    /// Runtime lemma violations detected by the invariant probe.
    pub lemma_violations: u64,
    /// Reconfigurations committed (scripted or reactive).
    pub reconfigurations: u64,
    /// Reconfigure ops that could not reach the required quorums.
    pub reconfig_failures: u64,
    /// Operation attempts rejected at a superseded configuration
    /// generation (each retried under the new one, off the retry budget).
    pub stale_rejections: u64,
    /// The first few violation descriptions (capped at
    /// [`MAX_RECORDED_VIOLATIONS`]).
    pub violations: Vec<String>,
    /// Committed operations in commit order (only when
    /// `SimConfig::record_history` is set).
    pub history: Vec<CommitRecord>,
}

impl Metrics {
    /// Record a lemma violation from pre-formatted arguments, rendering
    /// the description only if it will actually be retained (past the
    /// [`MAX_RECORDED_VIOLATIONS`] cap, only the counter moves): the
    /// non-violating hot path never allocates a description, and a
    /// violation storm formats at most the first few.
    pub fn record_violation_args(&mut self, description: std::fmt::Arguments<'_>) {
        self.lemma_violations += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(description.to_string());
        }
    }

    /// Fold another run's metrics into this one: counters sum, latency
    /// samples and histories append, violation descriptions keep the cap.
    ///
    /// The sharded simulator reduces per-shard metrics with this; because
    /// the shard list is a deterministic function of the configuration
    /// (never of the thread count), merging shard `0, 1, …, S-1` in index
    /// order produces a byte-identical aggregate no matter how many OS
    /// threads executed the shards.
    pub fn merge(&mut self, other: &Metrics) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.site_failures += other.site_failures;
        self.dropped_messages += other.dropped_messages;
        self.forced_aborts += other.forced_aborts;
        self.injected_faults += other.injected_faults;
        self.lemma_violations += other.lemma_violations;
        self.reconfigurations += other.reconfigurations;
        self.reconfig_failures += other.reconfig_failures;
        self.stale_rejections += other.stale_rejections;
        for v in &other.violations {
            if self.violations.len() >= MAX_RECORDED_VIOLATIONS {
                break;
            }
            self.violations.push(v.clone());
        }
        self.history.extend_from_slice(&other.history);
    }

    /// FNV-1a digest of the complete `Debug` rendering (every counter and
    /// every latency sample). Two runs with equal digests committed the
    /// same operations with the same latencies — this is the value the
    /// cross-thread-count determinism suite and the shard-scaling smoke
    /// pin. The rendering streams into the hash; it is never built.
    #[must_use]
    pub fn digest(&self) -> u64 {
        report_digest(|h| write!(h, "{self:?}"))
    }

    /// Combined throughput in operations per simulated second.
    pub fn throughput_ops_per_sec(&self, duration: SimTime) -> f64 {
        let ops = self.reads.successes + self.writes.successes;
        let secs = duration.as_micros() as f64 / 1e6;
        if secs == 0.0 {
            0.0
        } else {
            ops as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_counts() {
        let mut s = OpStats::default();
        s.record_success(SimTime(1_000), 6);
        s.record_success(SimTime(3_000), 6);
        s.record_failure(6);
        assert!((s.availability() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.messages_per_op(), 6.0);
        assert_eq!(s.mean_latency_ms(), 2.0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut s = OpStats::default();
        for i in 1..=100u64 {
            s.record_success(SimTime(i * 1000), 1);
        }
        assert!(s.percentile_ms(50.0) <= s.percentile_ms(95.0));
        assert!(s.percentile_ms(95.0) <= s.percentile_ms(99.0));
        assert_eq!(s.percentile_ms(100.0), 100.0);
    }

    /// Reference for `percentile_ms`: sort a copy of the samples and index
    /// it.
    fn percentile_by_sort(s: &OpStats, p: f64) -> f64 {
        let mut v = s.latencies_us.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
        v[rank.min(v.len() - 1)] as f64 / 1_000.0
    }

    #[test]
    fn selection_equals_the_sort_of_a_copy() {
        let mut s = OpStats::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Exact low buckets, millisecond latencies, one-pass and
            // multi-pass wide buckets, and repeated values.
            let v = match i % 5 {
                0 => x % 100,
                1 => 2_000 + x % 50_000,
                2 => (1 << 22) + x % (1 << 30),
                3 => u64::MAX / 2 - x % 1_000_000,
                _ => 4_321,
            };
            s.record_success(SimTime(v), 1);
        }
        for p in [
            -1.0,
            0.0,
            0.1,
            1.0,
            25.0,
            50.0,
            90.0,
            99.0,
            99.9,
            100.0,
            150.0,
            f64::NAN,
        ] {
            assert_eq!(
                s.percentile_ms(p).to_bits(),
                percentile_by_sort(&s, p).to_bits(),
                "p = {p}"
            );
        }
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OpStats::default();
        assert_eq!(s.availability(), 1.0);
        assert_eq!(s.mean_latency_ms(), 0.0);
        assert_eq!(s.percentile_ms(99.0), 0.0);
    }

    #[test]
    fn failure_kinds_are_tallied_separately() {
        let mut s = OpStats::default();
        s.record_failure(4);
        s.record_unavailable(0);
        s.record_abort();
        s.record_retry();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.unavailable, 1);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.retries, 1);
        let sum = s.summary();
        assert_eq!(
            (sum.retries, sum.timeouts, sum.unavailable, sum.aborted),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn violation_descriptions_are_capped() {
        let mut m = Metrics::default();
        for i in 0..20 {
            m.record_violation_args(format_args!("violation {i}"));
        }
        assert_eq!(m.lemma_violations, 20);
        assert_eq!(m.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(m.violations[0], "violation 0");
    }

    #[test]
    fn merge_sums_counters_and_appends_samples() {
        let mut a = Metrics::default();
        a.reads.record_success(SimTime(1_000), 6);
        a.writes.record_failure(4);
        a.record_violation_args(format_args!("first"));
        a.history.push(CommitRecord {
            client: 0,
            read: true,
            vn: 1,
            value: 7,
        });
        let mut b = Metrics::default();
        b.reads.record_success(SimTime(3_000), 6);
        b.reads.record_retry();
        b.site_failures = 2;
        b.record_violation_args(format_args!("second"));
        a.merge(&b);
        assert_eq!(a.reads.attempts, 2);
        assert_eq!(a.reads.successes, 2);
        assert_eq!(a.reads.retries, 1);
        assert_eq!(a.reads.mean_latency_ms(), 2.0);
        assert_eq!(a.writes.timeouts, 1);
        assert_eq!(a.site_failures, 2);
        assert_eq!(a.lemma_violations, 2);
        assert_eq!(
            a.violations,
            vec!["first".to_string(), "second".to_string()]
        );
        assert_eq!(a.history.len(), 1);
    }

    #[test]
    fn merge_respects_violation_cap() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        for i in 0..MAX_RECORDED_VIOLATIONS {
            a.record_violation_args(format_args!("a{i}"));
            b.record_violation_args(format_args!("b{i}"));
        }
        a.merge(&b);
        assert_eq!(a.lemma_violations, 2 * MAX_RECORDED_VIOLATIONS as u64);
        assert_eq!(a.violations.len(), MAX_RECORDED_VIOLATIONS);
    }

    #[test]
    fn digest_distinguishes_and_reproduces() {
        let mut a = Metrics::default();
        a.reads.record_success(SimTime(1_000), 6);
        let mut b = Metrics::default();
        b.reads.record_success(SimTime(1_000), 6);
        assert_eq!(a.digest(), b.digest());
        b.reads.record_success(SimTime(2_000), 6);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn throughput() {
        let mut m = Metrics::default();
        m.reads.record_success(SimTime(1), 1);
        m.writes.record_success(SimTime(1), 1);
        assert_eq!(m.throughput_ops_per_sec(SimTime::from_secs(2)), 1.0);
    }
}
