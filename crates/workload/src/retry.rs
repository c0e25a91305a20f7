//! The client-side retry model: what application front-ends actually do
//! when a UDR operation fails, and what turns a transient overload into
//! a metastable retry storm.
//!
//! Failed network procedures do not disappear — handsets, MMEs and
//! S-CSCFs retry them, and every retry re-enters the offered load. A
//! naive policy (immediate retries, many attempts) amplifies overload:
//! once demand exceeds capacity the retry traffic alone keeps the system
//! saturated after the original spike has passed. Exponential backoff
//! with jitter spreads the retries out; the `e21_overload` experiment
//! measures both regimes against the QoS admission controller.

use udr_model::time::SimDuration;
use udr_sim::SimRng;

/// A client retry policy: exponential backoff with full jitter.
///
/// Attempt `n` (0-based) that fails is retried after
/// `jittered(min(base × multiplier^n, cap))`, where `jittered(d)` draws
/// uniformly from `[d × (1 − jitter), d]` — `jitter = 1` is AWS-style
/// "full jitter", `jitter = 0` a deterministic schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, first try included (`1` = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Growth factor per retry (≥ 1).
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: SimDuration,
    /// Fraction of the backoff randomised away, in `[0, 1]`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries at all: the first failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            multiplier: 1.0,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// The storm-maker: many near-immediate flat retries — what naive
    /// clients do, and what melts down an overloaded site. The small
    /// jitter is not politeness, just the natural spread of independent
    /// handsets; the backoff neither grows nor waits out the overload.
    pub fn aggressive(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: SimDuration::from_millis(20),
            multiplier: 1.0,
            max_backoff: SimDuration::from_millis(20),
            jitter: 0.5,
        }
    }

    /// A well-behaved client: exponential backoff with full jitter.
    pub fn exponential(max_attempts: u32, base: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: base,
            multiplier: 2.0,
            max_backoff: base * 32,
            jitter: 1.0,
        }
    }

    /// A deterministic schedule: up to `max_attempts` tries, each retry
    /// after the same `backoff` (no growth, no jitter, so
    /// [`RetryPolicy::backoff`] draws nothing from its RNG).
    pub fn fixed(max_attempts: u32, backoff: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: backoff,
            multiplier: 1.0,
            max_backoff: backoff,
            jitter: 0.0,
        }
    }

    /// Whether a failure of 0-based `attempt` should be retried.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt + 1 < self.max_attempts
    }

    /// The backoff before retrying 0-based failed `attempt`.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let exp = self.multiplier.powi(attempt.min(30) as i32);
        let full = self
            .base_backoff
            .mul_f64(exp)
            .min(self.max_backoff.max(self.base_backoff));
        if self.jitter <= 0.0 {
            return full;
        }
        let floor = full.mul_f64(1.0 - self.jitter.min(1.0));
        let spread = full - floor;
        floor + spread.mul_f64(rng.uniform())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.should_retry(0));
    }

    #[test]
    fn attempt_budget_is_respected() {
        let p = RetryPolicy::exponential(3, ms(10));
        assert!(p.should_retry(0));
        assert!(p.should_retry(1));
        assert!(!p.should_retry(2));
    }

    #[test]
    fn deterministic_backoff_doubles_and_caps() {
        let mut p = RetryPolicy::exponential(8, ms(10));
        p.jitter = 0.0;
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(p.backoff(0, &mut rng), ms(10));
        assert_eq!(p.backoff(1, &mut rng), ms(20));
        assert_eq!(p.backoff(2, &mut rng), ms(40));
        // Cap at base × 32.
        assert_eq!(p.backoff(20, &mut rng), ms(320));
    }

    #[test]
    fn full_jitter_stays_within_the_envelope() {
        let p = RetryPolicy::exponential(8, ms(10));
        let mut rng = SimRng::seed_from_u64(2);
        for attempt in 0..6 {
            let cap = ms(10).mul_f64(2f64.powi(attempt as i32)).min(ms(320));
            for _ in 0..50 {
                let b = p.backoff(attempt, &mut rng);
                assert!(b <= cap, "backoff {b} above envelope {cap}");
            }
        }
    }

    #[test]
    fn fixed_policy_repeats_one_backoff_without_drawing() {
        let p = RetryPolicy::fixed(3, ms(5000));
        assert!(p.should_retry(1));
        assert!(!p.should_retry(2));
        let mut rng = SimRng::seed_from_u64(4);
        let mut untouched = SimRng::seed_from_u64(4);
        for attempt in [0, 1, 7] {
            assert_eq!(p.backoff(attempt, &mut rng), ms(5000));
        }
        assert_eq!(rng.uniform(), untouched.uniform(), "no draw");
    }

    #[test]
    fn aggressive_policy_is_flat_and_fast() {
        let p = RetryPolicy::aggressive(5);
        let mut rng = SimRng::seed_from_u64(3);
        for attempt in [0, 4] {
            let b = p.backoff(attempt, &mut rng);
            assert!(b >= ms(10) && b <= ms(20), "flat 10–20 ms band, got {b}");
        }
    }
}
