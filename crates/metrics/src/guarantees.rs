//! Accounting for the intermediate read policies of the consistency
//! spectrum: bounded staleness and session guarantees.
//!
//! While [`StalenessTracker`](crate::StalenessTracker) measures how stale
//! slave reads *are*, this tracker measures whether the guarantee the
//! read policy *promised* was kept: how many guarded reads ran, how often
//! the nearest copy had to be skipped for a fresher one (the master
//! redirect the paper's latency budget pays for consistency), and whether
//! any read slipped past its freshness floor — which must never happen.

use udr_model::session::RawLsn;

/// Collects guarantee observations for bounded-staleness and
/// session-consistent reads.
#[derive(Debug, Clone, Default)]
pub struct GuaranteeTracker {
    /// Reads served under `ReadPolicy::BoundedStaleness`.
    pub bounded_reads: u64,
    /// Reads served under `ReadPolicy::SessionConsistent`.
    pub session_reads: u64,
    /// Guarded reads whose nearest copy failed the freshness check so the
    /// read was redirected to a fresher copy (ultimately the master); the
    /// wasted hop is charged to the replication latency component.
    pub master_redirects: u64,
    /// Bounded reads served by a copy lagging *more* than the configured
    /// bound — a broken guarantee. Must stay 0.
    pub bounded_violations: u64,
    /// Session reads served by a copy behind the session's required floor
    /// — a broken guarantee. Must stay 0.
    pub session_violations: u64,
    /// Guarded reads the QoS subsystem *explicitly downgraded* to
    /// nearest-copy under sustained overload. A downgraded read keeps no
    /// freshness promise, so it is audited here instead of as a kept or
    /// broken guarantee — the consistency-for-latency trade is always
    /// visible, never a silent violation.
    pub policy_downgrades: u64,
    /// Maximum partition lag observed on any bounded read.
    max_bounded_lag: u64,
}

impl GuaranteeTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a bounded-staleness read served by a copy `lag` LSNs behind
    /// the partition reference under a `bound`-LSN budget.
    pub fn record_bounded_read(&mut self, lag: u64, bound: u64) {
        self.bounded_reads += 1;
        self.max_bounded_lag = self.max_bounded_lag.max(lag);
        if lag > bound {
            self.bounded_violations += 1;
        }
    }

    /// Record a session-consistent read served by a copy whose applied LSN
    /// was `served` against the session's `required` floor.
    pub fn record_session_read(&mut self, served: RawLsn, required: RawLsn) {
        self.session_reads += 1;
        if served < required {
            self.session_violations += 1;
        }
    }

    /// Record that a guarded read bounced off a too-stale nearest copy and
    /// was redirected to a fresher one.
    pub fn record_master_redirect(&mut self) {
        self.master_redirects += 1;
    }

    /// Record that a guarded read was explicitly downgraded to
    /// nearest-copy by the overload-degradation policy.
    pub fn record_policy_downgrade(&mut self) {
        self.policy_downgrades += 1;
    }

    /// Total broken guarantees (must be 0 on a correct implementation).
    pub fn violations(&self) -> u64 {
        self.bounded_violations + self.session_violations
    }

    /// Maximum partition lag observed on any bounded read.
    pub fn max_bounded_lag(&self) -> u64 {
        self.max_bounded_lag
    }

    /// Merge another tracker into this one.
    pub fn merge(&mut self, other: &GuaranteeTracker) {
        self.bounded_reads += other.bounded_reads;
        self.session_reads += other.session_reads;
        self.master_redirects += other.master_redirects;
        self.bounded_violations += other.bounded_violations;
        self.session_violations += other.session_violations;
        self.policy_downgrades += other.policy_downgrades;
        self.max_bounded_lag = self.max_bounded_lag.max(other.max_bounded_lag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_defaults() {
        let t = GuaranteeTracker::new();
        assert_eq!(t.violations(), 0);
        assert_eq!(t.max_bounded_lag(), 0);
    }

    #[test]
    fn bounded_reads_track_lag_and_violations() {
        let mut t = GuaranteeTracker::new();
        t.record_bounded_read(0, 4);
        t.record_bounded_read(4, 4); // at the bound: kept
        t.record_bounded_read(6, 4); // past the bound: broken
        assert_eq!(t.bounded_reads, 3);
        assert_eq!(t.bounded_violations, 1);
        assert_eq!(t.violations(), 1);
        assert_eq!(t.max_bounded_lag(), 6);
    }

    #[test]
    fn session_reads_track_floor_misses() {
        let mut t = GuaranteeTracker::new();
        t.record_session_read(10, 10); // exactly at the floor: kept
        t.record_session_read(12, 10);
        t.record_session_read(9, 10); // behind the floor: broken
        assert_eq!(t.session_reads, 3);
        assert_eq!(t.session_violations, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = GuaranteeTracker::new();
        a.record_bounded_read(2, 4);
        let mut b = GuaranteeTracker::new();
        b.record_bounded_read(8, 4);
        b.record_session_read(3, 7);
        b.record_master_redirect();
        b.record_policy_downgrade();
        a.merge(&b);
        assert_eq!(a.bounded_reads, 2);
        assert_eq!(a.session_reads, 1);
        assert_eq!(a.master_redirects, 1);
        assert_eq!(a.policy_downgrades, 1);
        assert_eq!(a.bounded_violations, 1);
        assert_eq!(a.session_violations, 1);
        assert_eq!(a.max_bounded_lag(), 8);
    }
}
