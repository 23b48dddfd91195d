//! Order statistics for small samples of rep timings.
//!
//! Individual reps on a shared host are bimodal (see README, "Why
//! medians"), so every reported timing is a median or a percentile of
//! per-rep values, never a mean.

/// A sorted copy of `xs`.
///
/// # Panics
///
/// Panics on NaN: a timing or a count is never NaN, so one here is a bug
/// in the caller.
#[must_use]
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    v
}

/// The `p`-th percentile (0–100) of `xs`, linearly interpolated between
/// the two nearest order statistics (`p = 50` is the usual median).
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let v = sorted(xs);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The three quartile cut points of `xs` exactly as Python's
/// `statistics.quantiles(xs, n=4)` gives them (the "exclusive" method) —
/// the rule the acceptance check applies to ten runs, so `selftest.sh`
/// and the harness agree with it digit for digit.
///
/// # Panics
///
/// Panics if `xs` has fewer than two values.
#[must_use]
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let v = sorted(xs);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median — the "spread" the
/// acceptance check bounds.
#[must_use]
pub fn iqr_rel(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Percentiles a report may quote, lowest first, in per-mille (integers,
/// so that "ten of a hundred beyond p90" is exact).
const LADDER_PERMILLE: [u64; 7] = [500, 660, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder (p50, p66, p75, p90, p95, p99,
/// p99.9) that still has at least ten of `n` samples beyond it — the
/// choosing-metrics rule for quoting a tail — or `None` when even the
/// median is not that well supported (`n < 20`).
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER_PERMILLE
        .iter()
        .rev()
        .find(|&&p| n as u64 * (1_000 - p) >= 10_000)
        .map(|&p| p as f64 / 10.0)
}

/// Median of the element-wise differences `a[i] - b[i]` — the paired
/// estimator the interleaved ablation arms use, which cancels whatever
/// drift both arms of a round share.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
#[must_use]
pub fn median_paired_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples must pair up");
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&d)
}

/// Median of the element-wise ratios `a[i] / b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
#[must_use]
pub fn median_paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples must pair up");
    let r: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    median(&r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 75.0), 4.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 140.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 75.0), 1.75);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_rel(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_selector_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(30), Some(66.0));
        assert_eq!(highest_supported_percentile(39), Some(66.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn paired_estimators_cancel_shared_drift() {
        // Both arms drift upward together; the paired difference does not.
        let base = [100.0, 110.0, 120.0, 130.0, 140.0];
        let arm = [105.0, 115.0, 125.0, 135.0, 145.0];
        assert_eq!(median_paired_diff(&arm, &base), 5.0);
        assert_eq!(median_paired_ratio(&[2.0, 4.0, 9.0], &[1.0, 2.0, 3.0]), 2.0);
    }
}
