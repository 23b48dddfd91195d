//! Property-based tests for metric reduction: merging per-shard
//! [`Metrics`] (and the embedded [`Histogram`]s) must be associative and
//! — for every statistical view a report can observe — commutative, over
//! *arbitrary* splits of an operation stream into shards.
//!
//! Two levels of guarantee, matching how the sharded simulator uses
//! `merge`:
//!
//! * **Same operand order** (what `merge_outcomes` actually does): the
//!   fold is exactly associative, byte for byte — `(a ⊕ b) ⊕ c` and
//!   `a ⊕ (b ⊕ c)` have identical `Debug` renderings and digests,
//!   because concatenation of the latency-sample and history vectors is
//!   associative and the violation cap only ever takes a prefix.
//! * **Any operand order**: raw sample vectors permute, but every
//!   statistical view (counters, availability, mean, percentiles over
//!   the sample multiset, histogram rendering) is permutation-invariant.
//!
//! It also checks `OpStats::percentile_ms`, which selects through the
//! histogram without copying or sorting, against sorting a copy of a list
//! of latencies the test keeps itself.
//!
//! Case budget: `PROPTEST_CASES` (see `scripts/tier1.sh`), default 256.

use proptest::prelude::*;
use qc_sim::{Metrics, OpStats, SimTime};

/// Raw material for one recorded operation:
/// `(kind, read_flag, latency_us, messages)`.
type RawOp = (u8, u8, u64, u64);

fn apply(m: &mut Metrics, &(kind, read_flag, latency_us, messages): &RawOp) {
    let read = read_flag == 0;
    let stats = if read { &mut m.reads } else { &mut m.writes };
    match kind {
        0 => stats.record_success(SimTime(latency_us), messages),
        1 => stats.record_failure(messages),
        2 => stats.record_unavailable(messages),
        3 => stats.record_abort(),
        4 => stats.record_retry(),
        _ => {
            m.record_violation_args(format_args!("synthetic r={read} l={latency_us}"));
            m.site_failures += 1;
            m.dropped_messages += messages;
        }
    }
}

fn build(chunk: &[RawOp]) -> Metrics {
    let mut m = Metrics::default();
    for op in chunk {
        apply(&mut m, op);
    }
    m
}

fn merged(chunks: &[Metrics]) -> Metrics {
    let mut acc = Metrics::default();
    for c in chunks {
        acc.merge(c);
    }
    acc
}

/// Every permutation-invariant statistic a report reads off a `Metrics`,
/// rendered to one comparable string.
fn stat_view(m: &Metrics) -> String {
    format!(
        "reads={:?} writes={:?} rh={} wh={:?} sf={} dm={} fa={} inj={} viol={} \
         rp50={} rp99={} wmean={}",
        m.reads.summary(),
        m.writes.summary(),
        m.reads.latency_hist().digest(),
        m.writes.latency_hist(),
        m.site_failures,
        m.dropped_messages,
        m.forced_aborts,
        m.injected_faults,
        m.lemma_violations,
        m.reads.percentile_ms(50.0),
        m.reads.percentile_ms(99.0),
        m.writes.mean_latency_ms(),
    )
}

fn ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u8..6, 0u8..2, 0u64..200_000, 0u64..40), 0..120)
}

/// The percentiles the selection is checked at, out-of-range and NaN
/// included.
const PERCENTILES: [f64; 9] = [-1.0, 0.0, 0.1, 50.0, 99.0, 99.9, 100.0, 150.0, f64::NAN];

/// A latency of one of six shapes, chosen by `kind`: exact low buckets, a
/// small pool of repeated values, millisecond latencies, values at or past
/// `2^22` µs (wide buckets), values around `u64::MAX / 2` and arbitrary
/// `u64`s (both reach the multi-pass narrowing).
fn latency(kind: u8, raw: u64) -> u64 {
    match kind {
        0 => raw % 64,
        1 => [0, 1, 63, 64, 127, 1_000, 4_321][(raw % 7) as usize],
        2 => raw % 200_000,
        3 => (1 << 22) + raw % (1 << 40),
        4 => u64::MAX / 2 - (1 << 23) + raw % (1 << 24),
        _ => raw,
    }
}

fn latencies_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u8..6, 0u64..=u64::MAX), 0..300)
        .prop_map(|raw| raw.into_iter().map(|(k, r)| latency(k, r)).collect())
}

/// The percentile `OpStats::percentile_ms` selects, computed the
/// straightforward way: sort a copy of the samples and index it.
fn sorted_percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)] as f64 / 1_000.0
}

fn recorded(samples: &[u64]) -> OpStats {
    let mut s = OpStats::default();
    for &v in samples {
        s.record_success(SimTime(v), 1);
    }
    s
}

/// `percentile_ms` of `stats` equals the sort of `samples` at every checked
/// percentile, bit for bit.
fn check_percentiles(stats: &OpStats, samples: &[u64]) -> Result<(), TestCaseError> {
    for p in PERCENTILES {
        prop_assert_eq!(
            stats.percentile_ms(p).to_bits(),
            sorted_percentile(samples, p).to_bits(),
            "p = {}",
            p
        );
    }
    Ok(())
}

proptest! {
    /// The selected percentile is the sort's, bit for bit, over any mix of
    /// latencies — recorded directly, and merged from shards cut at an
    /// arbitrary list of positions.
    #[test]
    fn percentile_equals_the_sort_of_the_samples(
        samples in latencies_strategy(),
        cuts in prop::collection::vec(0usize..300, 0..6),
    ) {
        check_percentiles(&recorded(&samples), &samples)?;
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (samples.len() + 1)).collect();
        bounds.push(0);
        bounds.push(samples.len());
        bounds.sort_unstable();
        let mut merged = OpStats::default();
        for w in bounds.windows(2) {
            merged.merge(&recorded(&samples[w[0]..w[1]]));
        }
        check_percentiles(&merged, &samples)?;
    }

    /// One sample, or many equal ones: every percentile is that value.
    #[test]
    fn percentile_of_equal_samples_is_the_value(
        kind in 0u8..6,
        raw in 0u64..=u64::MAX,
        n in 1usize..200,
    ) {
        let samples = vec![latency(kind, raw); n];
        check_percentiles(&recorded(&samples), &samples)?;
        check_percentiles(&recorded(&samples[..1]), &samples[..1])?;
    }

    /// Splitting one operation stream into shards at an arbitrary cut
    /// list and merging the per-shard metrics yields the same statistics
    /// as recording everything into a single `Metrics`.
    #[test]
    fn merge_is_split_invariant(
        ops in ops_strategy(),
        cuts in prop::collection::vec(0usize..120, 0..6),
    ) {
        let whole = build(&ops);
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (ops.len() + 1)).collect();
        bounds.push(0);
        bounds.push(ops.len());
        bounds.sort_unstable();
        let chunks: Vec<Metrics> = bounds
            .windows(2)
            .map(|w| build(&ops[w[0]..w[1]]))
            .collect();
        prop_assert_eq!(stat_view(&merged(&chunks)), stat_view(&whole));
    }

    /// Merging shard metrics in any order gives identical statistics
    /// (commutativity over every observable view).
    #[test]
    fn merge_is_commutative_on_stat_views(
        raw in prop::collection::vec(ops_strategy(), 2..5),
        rot in 0usize..4,
    ) {
        let chunks: Vec<Metrics> = raw.iter().map(|c| build(c)).collect();
        let forward = merged(&chunks);
        let mut reordered = chunks.clone();
        reordered.reverse();
        let n = reordered.len();
        reordered.rotate_left(rot % n);
        prop_assert_eq!(stat_view(&merged(&reordered)), stat_view(&forward));
    }

    /// With operand order fixed (the sharded reducer's case), the fold is
    /// associative byte for byte: grouping cannot change even the raw
    /// sample vectors, so digests match exactly.
    #[test]
    fn merge_is_associative_exactly(
        ra in ops_strategy(),
        rb in ops_strategy(),
        rc in ops_strategy(),
    ) {
        let (a, b, c) = (build(&ra), build(&rb), build(&rc));
        // (a ⊕ b) ⊕ c
        let mut left = Metrics::default();
        left.merge(&a);
        left.merge(&b);
        let mut left_acc = Metrics::default();
        left_acc.merge(&left);
        left_acc.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut right = Metrics::default();
        right.merge(&b);
        right.merge(&c);
        let mut right_acc = Metrics::default();
        right_acc.merge(&a);
        right_acc.merge(&right);
        prop_assert_eq!(left_acc.digest(), right_acc.digest());
        prop_assert_eq!(format!("{left_acc:?}"), format!("{right_acc:?}"));
    }
}
