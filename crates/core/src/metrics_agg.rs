//! Aggregated run metrics for one UDR deployment.

use udr_metrics::{GuaranteeTracker, Histogram, OpCounter, QosTracker, StalenessTracker};
use udr_model::config::TxnClass;
use udr_model::time::SimDuration;

use crate::pipeline::LatencyBreakdown;

/// Per-stage latency histograms of successful operations: one histogram
/// per [`LatencyBreakdown`] component, recorded at op completion. Where
/// the breakdown attributes one operation's latency, these attribute the
/// whole run's — bench reports embed their
/// [snapshots](Histogram::snapshot) so offline tooling can reconstruct
/// the per-stage distributions from the JSON alone.
#[derive(Debug, Default)]
pub struct StageLatencyMetrics {
    /// Access-stage component (PoA + LDAP server).
    pub access: Histogram,
    /// Location-stage component (DLS resolution).
    pub location: Histogram,
    /// Replication-stage component (routing, commit waits, consults).
    pub replication: Histogram,
    /// Storage-stage component (SE round trip + engine).
    pub storage: Histogram,
}

impl StageLatencyMetrics {
    /// Record one finished operation's breakdown.
    pub fn record(&mut self, b: &LatencyBreakdown) {
        self.access.record(b.access);
        self.location.record(b.location);
        self.replication.record(b.replication);
        self.storage.record(b.storage);
    }
}

/// Everything an experiment reads back after driving a [`crate::Udr`].
#[derive(Debug, Default)]
pub struct UdrMetrics {
    /// Front-end operation counters.
    pub fe_ops: OpCounter,
    /// Provisioning operation counters.
    pub ps_ops: OpCounter,
    /// Latency of successful front-end operations.
    pub fe_latency: Histogram,
    /// Latency of successful provisioning operations.
    pub ps_latency: Histogram,
    /// Per-stage latency attribution across all successful operations.
    pub stage_latency: StageLatencyMetrics,
    /// Staleness of reads (slave-read consistency, §3.3.2).
    pub staleness: StalenessTracker,
    /// Kept/broken guarantees and master redirects of the intermediate
    /// read policies (bounded staleness, session guarantees).
    pub guarantees: GuaranteeTracker,
    /// Per-priority-class QoS accounting: offered/admitted/shed/goodput
    /// and latency by class, plus the priority-inversion audit counter.
    pub qos: QosTracker,
    /// Operations whose serving SE was reached across the backbone.
    pub backbone_ops: u64,
    /// Operations served within the client's site.
    pub local_ops: u64,
    /// Failovers performed (master promotions).
    pub failovers: u64,
    /// Committed transactions lost to failovers/restores (§4.2 durability
    /// gap made visible).
    pub lost_commits: u64,
    /// Copies taken whole from a peer: slave reseeds from a master
    /// snapshot (log truncation / rejoin), and under consensus the
    /// installs of a node that restored behind the compacted logs.
    pub reseeds: u64,
    /// Multi-master consistency-restoration runs (§5).
    pub merges: u64,
    /// Conflicting records resolved by LWW across all merges.
    pub merge_conflicts: u64,
    /// Records examined across all merges.
    pub merge_records: u64,
    /// Total simulated time spent in restoration runs.
    pub merge_time: SimDuration,
    /// Writes that committed locally but failed their replication
    /// requirement (dual-in-sequence/quorum partial applications).
    pub partial_commits: u64,
    /// Location probes broadcast by cached stages on misses (§3.5: "those
    /// data location queries may become a hurdle to scalability").
    pub dls_probes: u64,
    /// Lookups resolved under a stale shard-map epoch that bounced off a
    /// retired owner and were retried (at most once each).
    pub stale_route_retries: u64,
    /// Live partition migrations begun.
    pub migrations_started: u64,
    /// Migrations that cut over (epoch bumped, zero loss).
    pub migrations_completed: u64,
    /// Migrations abandoned (fault mid-move; epoch unchanged).
    pub migrations_aborted: u64,
    /// Total simulated time partitions spent write-frozen for hand-off —
    /// the availability window of data movement.
    pub migration_freeze_time: SimDuration,
    /// Writes refused because their partition was frozen for hand-off.
    pub migration_blocked_ops: u64,
    /// Consensus protocol messages delivered between replica-group nodes.
    pub consensus_messages: u64,
    /// Client commands committed through the consensus log (writes and
    /// migration reconfigs; excludes leader no-ops).
    pub consensus_commits: u64,
}

impl UdrMetrics {
    /// The counter for a transaction class.
    pub fn ops(&self, class: TxnClass) -> &OpCounter {
        match class {
            TxnClass::FrontEnd => &self.fe_ops,
            TxnClass::Provisioning => &self.ps_ops,
        }
    }

    /// Mutable counter for a transaction class.
    pub fn ops_mut(&mut self, class: TxnClass) -> &mut OpCounter {
        match class {
            TxnClass::FrontEnd => &mut self.fe_ops,
            TxnClass::Provisioning => &mut self.ps_ops,
        }
    }

    /// The latency histogram for a transaction class.
    pub fn latency(&self, class: TxnClass) -> &Histogram {
        match class {
            TxnClass::FrontEnd => &self.fe_latency,
            TxnClass::Provisioning => &self.ps_latency,
        }
    }

    /// Mutable latency histogram for a transaction class.
    pub fn latency_mut(&mut self, class: TxnClass) -> &mut Histogram {
        match class {
            TxnClass::FrontEnd => &mut self.fe_latency,
            TxnClass::Provisioning => &mut self.ps_latency,
        }
    }

    /// Fraction of operations that crossed the backbone.
    pub fn backbone_fraction(&self) -> f64 {
        let total = self.backbone_ops + self.local_ops;
        if total == 0 {
            0.0
        } else {
            self.backbone_ops as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_routing() {
        let mut m = UdrMetrics::default();
        m.ops_mut(TxnClass::FrontEnd).success();
        m.ops_mut(TxnClass::Provisioning).availability_failure();
        assert_eq!(m.ops(TxnClass::FrontEnd).ok, 1);
        assert_eq!(m.ops(TxnClass::Provisioning).unavailable, 1);
        m.latency_mut(TxnClass::FrontEnd)
            .record(SimDuration::from_millis(1));
        assert_eq!(m.latency(TxnClass::FrontEnd).count(), 1);
        assert_eq!(m.latency(TxnClass::Provisioning).count(), 0);
    }

    #[test]
    fn backbone_fraction_math() {
        let mut m = UdrMetrics::default();
        assert_eq!(m.backbone_fraction(), 0.0);
        m.backbone_ops = 1;
        m.local_ops = 3;
        assert!((m.backbone_fraction() - 0.25).abs() < 1e-9);
    }
}
