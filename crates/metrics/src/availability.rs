//! Availability accounting, the R in FRASH.
//!
//! §2.3 requirement 3: "on average any given subscriber's data must be
//! available 99.999% of the time", with footnote 4 defining the average
//! over subscribers. Two complementary views are tracked:
//!
//! * **data availability** — integrated subscriber-seconds during which a
//!   subscriber's data was structurally reachable (ledger of outage
//!   intervals weighted by affected subscribers);
//! * **operational availability** — the fraction of attempted operations
//!   that succeeded.

use udr_model::time::{SimDuration, SimTime};

/// Integrates subscriber-seconds of unavailability over an observation
/// window.
#[derive(Debug, Clone)]
pub struct AvailabilityLedger {
    total_subscribers: u64,
    window_start: SimTime,
    /// Accumulated subscriber-nanoseconds of downtime.
    down_sub_ns: u128,
}

impl AvailabilityLedger {
    /// A ledger for `total_subscribers` observed from `start`.
    pub fn new(total_subscribers: u64, start: SimTime) -> Self {
        AvailabilityLedger {
            total_subscribers,
            window_start: start,
            down_sub_ns: 0,
        }
    }

    /// Record an outage affecting `subscribers` for `duration`.
    pub fn record_outage(&mut self, subscribers: u64, duration: SimDuration) {
        self.down_sub_ns += u128::from(subscribers) * u128::from(duration.as_nanos());
    }

    /// Average per-subscriber availability over `[start, now]`. 1.0 when
    /// the window is empty.
    pub fn availability(&self, now: SimTime) -> f64 {
        let window = now.duration_since(self.window_start).as_nanos();
        if window == 0 || self.total_subscribers == 0 {
            return 1.0;
        }
        let total = u128::from(self.total_subscribers) * u128::from(window);
        1.0 - (self.down_sub_ns as f64 / total as f64)
    }

    /// The number of nines of availability (e.g. 4.99998 ⇒ 5 nines ≈
    /// 99.999 %). Saturates at 9 nines for a perfect window.
    pub fn nines(&self, now: SimTime) -> f64 {
        let a = self.availability(now);
        if a >= 1.0 {
            9.0
        } else {
            -(1.0 - a).log10()
        }
    }

    /// Total subscribers observed.
    pub fn subscribers(&self) -> u64 {
        self.total_subscribers
    }
}

/// Success/failure operation counters per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounter {
    /// Operations that completed successfully.
    pub ok: u64,
    /// Operations that failed for availability reasons.
    pub unavailable: u64,
    /// Operations that failed for data/logic reasons.
    pub failed_other: u64,
}

impl OpCounter {
    /// Record a success.
    pub fn success(&mut self) {
        self.ok += 1;
    }

    /// Record an availability failure.
    pub fn availability_failure(&mut self) {
        self.unavailable += 1;
    }

    /// Record a non-availability failure.
    pub fn other_failure(&mut self) {
        self.failed_other += 1;
    }

    /// Total attempts.
    pub fn attempts(&self) -> u64 {
        self.ok + self.unavailable + self.failed_other
    }

    /// Fraction of attempts that succeeded (1.0 for no attempts).
    pub fn success_ratio(&self) -> f64 {
        let n = self.attempts();
        if n == 0 {
            1.0
        } else {
            self.ok as f64 / n as f64
        }
    }

    /// Operational availability: successes over availability-relevant
    /// attempts (data errors like NotFound don't count against it).
    pub fn operational_availability(&self) -> f64 {
        let n = self.ok + self.unavailable;
        if n == 0 {
            1.0
        } else {
            self.ok as f64 / n as f64
        }
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &OpCounter) {
        self.ok += other.ok;
        self.unavailable += other.unavailable;
        self.failed_other += other.failed_other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(v: u64) -> SimDuration {
        SimDuration::from_secs(v)
    }

    #[test]
    fn perfect_window_is_all_nines() {
        let ledger = AvailabilityLedger::new(100_000, SimTime::ZERO);
        let now = SimTime::ZERO + secs(3600);
        assert_eq!(ledger.availability(now), 1.0);
        assert_eq!(ledger.nines(now), 9.0);
    }

    #[test]
    fn footnote4_average_over_subscribers() {
        // Footnote 4: one subscriber down the whole window among 100 000
        // still averages 99.999 %.
        let mut ledger = AvailabilityLedger::new(100_000, SimTime::ZERO);
        let window = secs(3600);
        ledger.record_outage(1, window);
        let now = SimTime::ZERO + window;
        let a = ledger.availability(now);
        assert!((a - 0.99999).abs() < 1e-9, "a={a}");
    }

    #[test]
    fn empty_window_is_available() {
        let ledger = AvailabilityLedger::new(100, SimTime::ZERO);
        assert_eq!(ledger.availability(SimTime::ZERO), 1.0);
    }

    #[test]
    fn nines_math() {
        let mut ledger = AvailabilityLedger::new(1000, SimTime::ZERO);
        let window = secs(1000);
        // 1 sub-second down per 1000 × 1000 sub-seconds = 1e-6 ⇒ 6 nines.
        ledger.record_outage(1, secs(1));
        let n = ledger.nines(SimTime::ZERO + window);
        assert!((n - 6.0).abs() < 0.01, "nines={n}");
    }

    #[test]
    fn op_counter_ratios() {
        let mut c = OpCounter::default();
        for _ in 0..98 {
            c.success();
        }
        c.availability_failure();
        c.other_failure();
        assert_eq!(c.attempts(), 100);
        assert!((c.success_ratio() - 0.98).abs() < 1e-9);
        // NotFound-style failures don't hurt operational availability.
        assert!((c.operational_availability() - 98.0 / 99.0).abs() < 1e-9);
        let mut d = OpCounter::default();
        d.merge(&c);
        assert_eq!(d.attempts(), 100);
    }

    #[test]
    fn zero_counter_defaults_available() {
        let c = OpCounter::default();
        assert_eq!(c.success_ratio(), 1.0);
        assert_eq!(c.operational_availability(), 1.0);
    }
}
