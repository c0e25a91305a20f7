//! Staleness accounting for slave reads (§3.3.2).
//!
//! "Since asynchronous replication does not guarantee real-time sync
//! between replicas, there's a certain chance that a read operation on a
//! slave replica gets stale data, decreasing the consistency of read
//! operations." Every read is recorded with whether the serving replica was
//! behind the master and, if so, how old its newest missing commit was.

use udr_model::time::SimDuration;

/// Collects staleness observations.
#[derive(Debug, Clone, Default)]
pub struct StalenessTracker {
    /// Reads served from the master (always fresh).
    pub master_reads: u64,
    /// Reads served from an up-to-date slave.
    pub fresh_slave_reads: u64,
    /// Reads served from a lagging slave.
    pub stale_reads: u64,
    /// Sum of time lag over stale reads.
    lag_time_sum_ns: u128,
}

impl StalenessTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read served by the master.
    pub fn record_master_read(&mut self) {
        self.master_reads += 1;
    }

    /// Record a read served by a slave that was `lag_lsns` behind with the
    /// newest missing commit `lag_time` old. Zero lag = fresh.
    pub fn record_slave_read(&mut self, lag_lsns: u64, lag_time: SimDuration) {
        if lag_lsns == 0 {
            self.fresh_slave_reads += 1;
        } else {
            self.stale_reads += 1;
            self.lag_time_sum_ns += u128::from(lag_time.as_nanos());
        }
    }

    /// Total reads observed.
    pub fn total_reads(&self) -> u64 {
        self.master_reads + self.fresh_slave_reads + self.stale_reads
    }

    /// Fraction of all reads that returned stale data.
    pub fn stale_fraction(&self) -> f64 {
        let n = self.total_reads();
        if n == 0 {
            0.0
        } else {
            self.stale_reads as f64 / n as f64
        }
    }

    /// Fraction of *slave* reads that were stale.
    pub fn stale_slave_fraction(&self) -> f64 {
        let n = self.fresh_slave_reads + self.stale_reads;
        if n == 0 {
            0.0
        } else {
            self.stale_reads as f64 / n as f64
        }
    }

    /// Mean time lag among stale reads.
    pub fn mean_lag_time(&self) -> SimDuration {
        if self.stale_reads == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.lag_time_sum_ns / u128::from(self.stale_reads)) as u64)
        }
    }

    /// Merge another tracker into this one.
    pub fn merge(&mut self, other: &StalenessTracker) {
        self.master_reads += other.master_reads;
        self.fresh_slave_reads += other.fresh_slave_reads;
        self.stale_reads += other.stale_reads;
        self.lag_time_sum_ns += other.lag_time_sum_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_reads_are_not_stale() {
        let mut t = StalenessTracker::new();
        t.record_master_read();
        t.record_slave_read(0, SimDuration::ZERO);
        assert_eq!(t.total_reads(), 2);
        assert_eq!(t.stale_fraction(), 0.0);
        assert_eq!(t.stale_slave_fraction(), 0.0);
    }

    #[test]
    fn stale_fractions() {
        let mut t = StalenessTracker::new();
        t.record_master_read();
        t.record_master_read();
        t.record_slave_read(0, SimDuration::ZERO);
        t.record_slave_read(3, SimDuration::from_millis(20));
        assert_eq!(t.total_reads(), 4);
        assert!((t.stale_fraction() - 0.25).abs() < 1e-9);
        assert!((t.stale_slave_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lag_statistics() {
        let mut t = StalenessTracker::new();
        t.record_slave_read(2, SimDuration::from_millis(10));
        t.record_slave_read(4, SimDuration::from_millis(30));
        assert_eq!(t.mean_lag_time(), SimDuration::from_millis(20));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StalenessTracker::new();
        a.record_slave_read(1, SimDuration::from_millis(5));
        let mut b = StalenessTracker::new();
        b.record_master_read();
        b.record_slave_read(3, SimDuration::from_millis(50));
        a.merge(&b);
        assert_eq!(a.total_reads(), 3);
        assert_eq!(a.stale_reads, 2);
    }

    #[test]
    fn empty_tracker_defaults() {
        let t = StalenessTracker::new();
        assert_eq!(t.stale_fraction(), 0.0);
        assert_eq!(t.mean_lag_time(), SimDuration::ZERO);
    }
}
