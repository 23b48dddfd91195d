//! Message latency models.

use rand::Rng;

use crate::time::SimTime;

/// A model for one-way (or round-trip, as the caller decides) message
/// latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Constant latency.
    Fixed(SimTime),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: SimTime,
        /// Upper bound (inclusive).
        hi: SimTime,
    },
    /// Log-normal with the given parameters of the underlying normal, in
    /// microsecond scale: `exp(mu + sigma·Z)` µs. Captures the heavy tail
    /// of real networks.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

impl LatencyModel {
    /// A typical LAN: uniform 0.2–0.6 ms.
    pub fn lan() -> Self {
        LatencyModel::Uniform {
            lo: SimTime(200),
            hi: SimTime(600),
        }
    }

    /// A typical WAN: log-normal around ~20 ms with a heavy tail.
    pub fn wan() -> Self {
        LatencyModel::LogNormal {
            mu: 9.9, // exp(9.9) ≈ 19.9 ms
            sigma: 0.35,
        }
    }

    /// Sample one latency.
    ///
    /// Generic (rather than `&mut dyn RngCore`) so the per-message hot
    /// path monomorphizes over the simulator's concrete RNG and the draw
    /// inlines instead of paying an indirect call per word.
    pub fn sample<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> SimTime {
        match *self {
            LatencyModel::Fixed(t) => t,
            LatencyModel::Uniform { lo, hi } => {
                SimTime(rng.gen_range(lo.as_micros()..=hi.as_micros()))
            }
            LatencyModel::LogNormal { mu, sigma } => {
                // Box–Muller.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let raw = (mu + sigma * z).exp();
                // `exp` overflows to +∞ for extreme draws/parameters, and a
                // NaN mu/sigma propagates; `NaN as u64` is 0, i.e. a
                // zero-duration message hop that can stall simulated time.
                // Send non-finite draws to the nearest bound instead.
                let micros = if raw.is_nan() {
                    1.0
                } else {
                    raw.clamp(1.0, 60_000_000.0)
                };
                SimTime(micros as u64)
            }
        }
    }
}

/// Sample an exponential duration with the given mean.
pub fn sample_exponential<R: rand::RngCore + ?Sized>(mean: SimTime, rng: &mut R) -> SimTime {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let t = -(u.ln()) * mean.as_micros() as f64;
    SimTime(t.clamp(1.0, 1e15) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let m = LatencyModel::Fixed(SimTime(500));
        assert_eq!(m.sample(&mut rng), SimTime(500));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = LatencyModel::Uniform {
            lo: SimTime(100),
            hi: SimTime(200),
        };
        for _ in 0..1000 {
            let t = m.sample(&mut rng);
            assert!((100..=200).contains(&t.as_micros()));
        }
    }

    #[test]
    fn lognormal_mean_in_expected_ballpark() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let m = LatencyModel::wan();
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample(&mut rng).as_micros() as f64)
            .sum::<f64>()
            / n as f64;
        // E[lognormal] = exp(mu + sigma²/2) ≈ 21.2 ms.
        assert!((15_000.0..30_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn lognormal_bounds_pinned_over_seeded_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let m = LatencyModel::wan();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for _ in 0..50_000 {
            let t = m.sample(&mut rng).as_micros();
            assert!(t >= 1, "zero-duration hop");
            lo = lo.min(t);
            hi = hi.max(t);
        }
        // Pinned observed extremes of this seed's stream: any change to
        // the sampling transform shows up here.
        assert_eq!((lo, hi), (4048, 107247));
    }

    #[test]
    fn lognormal_clamps_pathological_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // exp overflow → upper clamp, not `inf as u64`.
        let m = LatencyModel::LogNormal {
            mu: 1e9,
            sigma: 0.0,
        };
        assert_eq!(m.sample(&mut rng), SimTime(60_000_000));
        // Underflow to 0.0 → floor of 1 µs.
        let m = LatencyModel::LogNormal {
            mu: -1e9,
            sigma: 0.0,
        };
        assert_eq!(m.sample(&mut rng), SimTime(1));
        // NaN parameters → floor, never a zero-duration sample.
        let m = LatencyModel::LogNormal {
            mu: f64::NAN,
            sigma: 1.0,
        };
        assert_eq!(m.sample(&mut rng), SimTime(1));
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mean = SimTime::from_millis(100);
        let n = 20_000;
        let avg: f64 = (0..n)
            .map(|_| sample_exponential(mean, &mut rng).as_micros() as f64)
            .sum::<f64>()
            / n as f64;
        assert!((avg - 100_000.0).abs() < 5_000.0, "avg {avg}");
    }
}
