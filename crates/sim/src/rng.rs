//! Deterministic random sources for the simulator.
//!
//! Every experiment is seeded; two runs with the same seed produce identical
//! event sequences. On top of the uniform generator we provide the handful of
//! distributions the network/traffic models need (exponential, log-normal,
//! Bernoulli, zipf-ish choice) so no extra dependency is required.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random source with distribution helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream (used so that e.g. traffic and
    /// network jitter don't perturb each other when parameters change).
    pub fn fork(&mut self, label: u64) -> SimRng {
        // Mix the label into a fresh seed drawn from this stream.
        let base: u64 = self.inner.random();
        SimRng::seed_from_u64(base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform integer in `[0, n)`. `n` must be > 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.inner.random_range(0..n)
    }

    /// Uniform integer in the given range.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        self.inner.random_range(lo..hi)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential variate with the given mean (inverse rate).
    ///
    /// Used for Poisson inter-arrival times and latency tails.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        if mean == 0.0 {
            return 0.0;
        }
        // Inverse CDF; clamp u away from 0 to avoid ln(0).
        let u = self.uniform().max(1e-12);
        -mean * u.ln()
    }

    /// Standard normal variate via Box–Muller.
    fn standard_normal(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal variate parameterised by the *median* and a shape sigma.
    ///
    /// WAN latencies are heavy-tailed; log-normal matches measured backbone
    /// RTT distributions well enough for trade-off experiments.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        median * (sigma * self.standard_normal()).exp()
    }

    /// Pick an index in `[0, weights.len())` proportionally to `weights`.
    /// Returns 0 if all weights are zero.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut x = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Access the raw generator (for shuffles etc.).
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn forked_streams_are_deterministic() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let mut fa = a.fork(3);
        let mut fb = b.fork(3);
        for _ in 0..50 {
            assert_eq!(fa.uniform().to_bits(), fb.uniform().to_bits());
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let avg = sum / n as f64;
        assert!((avg - mean).abs() / mean < 0.02, "avg={avg}");
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut rng = SimRng::seed_from_u64(9);
        assert_eq!(rng.exponential(0.0), 0.0);
    }

    #[test]
    fn log_normal_median_is_close() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.log_normal(20.0, 0.4)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median - 20.0).abs() / 20.0 < 0.05, "median={median}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SimRng::seed_from_u64(19);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_choice(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    fn weighted_choice_all_zero_picks_first() {
        let mut rng = SimRng::seed_from_u64(23);
        assert_eq!(rng.weighted_choice(&[0.0, 0.0]), 0);
    }

    #[test]
    fn below_and_range_bounds() {
        let mut rng = SimRng::seed_from_u64(29);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let v = rng.range(3, 9);
            assert!((3..9).contains(&v));
        }
    }
}
