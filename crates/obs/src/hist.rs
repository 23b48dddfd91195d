//! Log-bucketed latency histogram in the HDR style.
//!
//! Values (microseconds throughout this workspace) are assigned to
//! buckets whose width doubles every power of two, with `2^SUB_BITS`
//! sub-buckets per power of two. With `SUB_BITS = 6` the worst-case
//! relative quantisation error is `1 / 2^(SUB_BITS + 1)` (< 0.8%), the
//! full `u64` range maps to at most 3 776 buckets, and typical simulated
//! latencies (µs to minutes) stay under ~1 600 live buckets.
//!
//! The histogram is exact where it matters for the reconciliation
//! criterion of the observability layer: `count`, `sum`, `min` and `max`
//! are tracked precisely, so phase sums reconcile with end-to-end
//! latency sums bit-for-bit even though quantiles are bucketed.
//!
//! `merge` is element-wise addition — commutative and associative — so
//! per-shard histograms can be reduced in any order (shard-index order
//! is used in practice for bit-identical `Debug`/JSON renderings
//! regardless of OS thread count).

/// Sub-bucket resolution: `2^SUB_BITS` buckets per power of two.
const SUB_BITS: u32 = 6;
/// Sub-buckets per power of two (64).
const SUB: u64 = 1 << SUB_BITS;

/// A log-bucketed histogram of `u64` samples with exact count/sum/min/max.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Bucket occupancy, grown lazily up to the highest observed index.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// `u64::MAX` sentinel while empty (normalised to 0 by the accessor).
    min: u64,
    max: u64,
}

/// Bucket index of a value: identity below `SUB`, then
/// `(band + 1) * SUB + (v >> band) - SUB` where `band = msb(v) - SUB_BITS`.
fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let band = (63 - v.leading_zeros()) - SUB_BITS;
    ((u64::from(band) + 1) * SUB + (v >> band) - SUB) as usize
}

/// Lowest value mapping to bucket `idx` (inverse of [`index`]).
fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let band = idx / SUB - 1;
        (SUB + idx % SUB) << band
    }
}

/// Width of bucket `idx` in values (1 below `SUB`, doubling per band).
fn bucket_width(idx: usize) -> u64 {
    if (idx as u64) < 2 * SUB {
        1
    } else {
        1 << (idx as u64 / SUB - 1)
    }
}

/// Highest value mapping to bucket `idx`. Computed additively so the top
/// bucket of the `u64` range ends exactly at `u64::MAX` without overflow.
fn bucket_high(idx: usize) -> u64 {
    bucket_low(idx) + (bucket_width(idx) - 1)
}

/// Midpoint of bucket `idx`, used as the quantile representative.
fn representative(idx: usize) -> u64 {
    bucket_low(idx) + (bucket_width(idx) - 1) / 2
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact, 0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the representative value of the
    /// bucket containing the target rank, clamped to the exact observed
    /// `[min, max]`. `quantile(1.0)` is the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // Boundary ranks are tracked exactly.
        if target == 1 {
            return self.min;
        }
        if target == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return representative(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Element-wise merge: order-insensitive (commutative and
    /// associative), used to reduce per-shard histograms.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        // Drop trailing empty buckets so merge results render identically
        // to a histogram built from the union of samples directly.
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
    }

    /// Occupied `(bucket_low, bucket_high, count)` triples in value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_low(idx), bucket_high(idx), c))
    }

    /// Compact JSON encoding: exact scalars plus sparse
    /// `[index, count]` bucket pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.counts.len());
        out.push_str(&format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.min(),
            self.max
        ));
        let mut first = true;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{idx},{c}]"));
        }
        out.push_str("]}");
        out
    }

    /// JSON summary with derived percentiles (for report files).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum_us\":{},\"mean_us\":{:.1},\"min_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
            self.count,
            self.sum,
            self.mean(),
            self.min(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max
        )
    }

    /// FNV-1a digest of the full bucket state (stable across platforms).
    pub fn digest(&self) -> u64 {
        crate::fnv1a(self.to_json().as_bytes())
    }
}

/// Compact `Debug`: scalars plus sparse `(index, count)` pairs, so
/// embedding a histogram in `Metrics` keeps digest strings bounded.
impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram {{ count: {}, sum: {}, min: {}, max: {}, buckets: [",
            self.count,
            self.sum,
            self.min(),
            self.max
        )?;
        let mut first = true;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "({idx}, {c})")?;
        }
        write!(f, "] }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_identity_below_sub() {
        for v in 0..SUB {
            assert_eq!(index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
        }
    }

    #[test]
    fn index_and_bounds_roundtrip() {
        for v in [
            64u64,
            65,
            127,
            128,
            191,
            192,
            1_000,
            4_096,
            1_000_000,
            60_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = index(v);
            let low = bucket_low(idx);
            let high = bucket_high(idx);
            assert!(low <= v && v <= high, "v={v} idx={idx} [{low}, {high}]");
            assert_eq!(index(low), idx);
            assert_eq!(index(high), idx);
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Representative is within 1/2^(SUB_BITS+1) of any value in the bucket.
        for v in (1u64..100_000).step_by(37) {
            let rep = representative(index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(
                err <= 1.0 / f64::from(1 << (SUB_BITS + 1)),
                "v={v} rep={rep}"
            );
        }
    }

    #[test]
    fn exact_scalars() {
        let mut h = Histogram::new();
        for v in [3u64, 900, 17, 400_000, 900] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 3 + 900 + 17 + 400_000 + 900);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 400_000);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_small_exact() {
        // Below SUB the buckets are exact, so quantiles are exact.
        let mut h = Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), 5);
        assert_eq!(h.p90(), 9);
        assert_eq!(h.quantile(1.0), 10);
    }

    #[test]
    fn quantiles_bounded_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() / exact < 0.02,
                "q={q} got={got} exact={exact}"
            );
        }
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn merge_matches_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for v in [1u64, 77, 3_000, 50] {
            a.record(v);
            u.record(v);
        }
        for v in [9u64, 1_000_000, 77] {
            b.record(v);
            u.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, u);
        assert_eq!(format!("{merged:?}"), format!("{u:?}"));
        assert_eq!(merged.to_json(), u.to_json());

        // Merge in the other order: identical (commutative).
        let mut rev = b.clone();
        rev.merge(&a);
        assert_eq!(rev, u);
    }

    #[test]
    fn merge_empty_identity() {
        let mut h = Histogram::new();
        h.record(42);
        let snapshot = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, snapshot);
        let mut e = Histogram::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5);
        h.record(130);
        assert_eq!(
            h.to_json(),
            format!(
                "{{\"count\":3,\"sum\":140,\"min\":5,\"max\":130,\"buckets\":[[5,2],[{},1]]}}",
                index(130)
            )
        );
        assert!(h.summary_json().contains("\"p50_us\":5"));
    }

    #[test]
    fn digest_stable_and_sensitive() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(10);
        assert_eq!(a.digest(), b.digest());
        b.record(11);
        assert_ne!(a.digest(), b.digest());
    }
}
