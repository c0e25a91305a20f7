//! Token buckets: per-class rate budgets of one tenant.

use udr_model::qos::PriorityClass;
use udr_model::time::SimTime;

/// A classic token bucket over virtual time: `burst` tokens capacity,
/// refilled continuously at `rate` tokens per second. Admitted work over
/// any window `[t, t+w)` can never exceed `rate × w + burst` operations —
/// a property test enforces it.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    refilled_at: SimTime,
}

impl TokenBucket {
    /// A bucket admitting `rate` ops/s sustained with `burst` ops of
    /// headroom, starting full.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not positive or `burst < 1` (a bucket that
    /// can never hold one whole token admits nothing).
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "token rate must be positive");
        assert!(burst >= 1.0, "burst must hold at least one token");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            refilled_at: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.refilled_at {
            let dt = now.duration_since(self.refilled_at).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.refilled_at = now;
        }
    }

    /// Take one token at `now`; `false` means the budget is exhausted.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One tenant's per-class bucket stack.
///
/// A class with no bucket of its own is not rate-limited. A class whose
/// bucket is empty is rate-shed: it never takes a token from another
/// class's bucket. A tenant's budget is a contractual ceiling per class,
/// not a priority ordering, so a tenant whose registration budget is dry
/// must not drain its own lower-class buckets to keep storming.
#[derive(Debug, Clone, Default)]
pub struct ClassBuckets {
    by_rank: [Option<TokenBucket>; PriorityClass::ALL.len()],
}

impl ClassBuckets {
    /// A stack with no buckets: nothing is rate-limited.
    pub fn unlimited() -> Self {
        ClassBuckets::default()
    }

    /// Install a bucket for `class`.
    pub fn set(&mut self, class: PriorityClass, bucket: TokenBucket) {
        self.by_rank[class.rank()] = Some(bucket);
    }

    /// Admit one `class` operation at `now` from the class's own bucket;
    /// an absent bucket means the class is uncapped. `false` = rate-shed.
    pub fn admit(&mut self, class: PriorityClass, now: SimTime) -> bool {
        match &mut self.by_rank[class.rank()] {
            None => true,
            Some(bucket) => bucket.try_take(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn bucket_admits_burst_then_refills_at_rate() {
        // 10 ops/s, burst 3.
        let mut b = TokenBucket::new(10.0, 3.0);
        assert!(b.try_take(at(0)));
        assert!(b.try_take(at(0)));
        assert!(b.try_take(at(0)));
        assert!(!b.try_take(at(0)), "burst exhausted");
        assert!(!b.try_take(at(50)), "half a token refilled");
        assert!(b.try_take(at(100)), "one token refilled after 100 ms");
        assert!(!b.try_take(at(100)));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        // A long idle period must not bank more than `burst` tokens.
        assert!(b.try_take(at(10_000)));
        assert!(b.try_take(at(10_000)));
        assert!(!b.try_take(at(10_000)));
    }

    #[test]
    fn unbucketed_class_is_unlimited() {
        let mut stack = ClassBuckets::unlimited();
        for _ in 0..10_000 {
            assert!(stack.admit(PriorityClass::Provisioning, at(0)));
        }
    }

    #[test]
    fn isolated_admission_never_borrows() {
        let mut stack = ClassBuckets::unlimited();
        stack.set(PriorityClass::Registration, TokenBucket::new(10.0, 1.0));
        stack.set(PriorityClass::Query, TokenBucket::new(10.0, 1.0));
        assert!(stack.admit(PriorityClass::Registration, at(0)));
        // Registration budget is dry; a walk down the order would take
        // Query's token, the admit must not.
        assert!(!stack.admit(PriorityClass::Registration, at(0)));
        assert!(stack.admit(PriorityClass::Query, at(0)));
        // An unbucketed class stays uncapped.
        assert!(stack.admit(PriorityClass::Emergency, at(0)));
    }

    #[test]
    fn lower_classes_cannot_borrow_upward() {
        let mut stack = ClassBuckets::unlimited();
        stack.set(PriorityClass::Provisioning, TokenBucket::new(10.0, 1.0));
        assert!(stack.admit(PriorityClass::Provisioning, at(0)));
        // Provisioning is exhausted; CallSetup (unbucketed) is not
        // affected, and Provisioning cannot reach upward for tokens.
        assert!(!stack.admit(PriorityClass::Provisioning, at(0)));
        assert!(stack.admit(PriorityClass::CallSetup, at(0)));
    }
}
