//! FRASH tuning knobs: every design choice from §3 of the paper as a
//! configuration value, so experiments can slide the trade-off points of
//! Figures 5–6 and measure the consequences.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::UdrError;
use crate::time::SimDuration;

/// Durability of a storage element (§3.1 and its footnote 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DurabilityMode {
    /// Pure RAM: nothing survives an element crash. The fastest point of the
    /// F–R link.
    None,
    /// §3.1 decision 1: "every storage element saves data in RAM to local
    /// persistent storage on a periodic basis". On crash, transactions since
    /// the last save are lost.
    PeriodicSnapshot {
        /// Interval between RAM→disk saves.
        interval: SimDuration,
    },
    /// Footnote 6: "dump transactions to disk before committing for 100%
    /// guaranteed durability, but that would slow down storage elements too
    /// much". The slowest point of the F–R link.
    SyncCommit,
}

impl DurabilityMode {
    /// Default periodic mode with the interval used throughout the paper's
    /// experiments (a conservative 30 s).
    pub fn periodic_default() -> Self {
        DurabilityMode::PeriodicSnapshot {
            interval: SimDuration::from_secs(30),
        }
    }
}

impl fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityMode::None => f.write_str("none"),
            DurabilityMode::PeriodicSnapshot { interval } => {
                write!(f, "snapshot/{interval}")
            }
            DurabilityMode::SyncCommit => f.write_str("sync-commit"),
        }
    }
}

/// How writes propagate between the copies of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationMode {
    /// §3.3.1 decision 2: asynchronous master→slave log shipping; commits do
    /// not wait for slaves. A committed transaction "might not be durable if
    /// a severe failure prevents replication to at least one slave".
    AsyncMasterSlave,
    /// §5: "apply provisioning transactions in sequence to two replicas,
    /// committing the transaction only when both replicas report success".
    DualInSequence,
    /// §5's Cassandra comparison: an ensemble of `n` replicas; a write is
    /// acknowledged once `w` copies accept it, a read consults `r`.
    Quorum {
        /// Replicas in the ensemble.
        n: u8,
        /// Write quorum.
        w: u8,
        /// Read quorum.
        r: u8,
    },
    /// §5 evolution: every reachable copy accepts writes during partitions;
    /// divergence is merged by a consistency-restoration process after heal.
    MultiMaster,
    /// §6's alternative: every write is a command decided by a multi-Paxos
    /// replica group spanning the partition's `n` copies; commits wait for
    /// a majority, reads are served from the committed prefix only. The
    /// only mode that *earns* CP: stale reads and divergence are
    /// structurally impossible, and the minority side refuses typed.
    Consensus {
        /// Replica-group members (must equal the replication factor).
        n: u8,
    },
}

impl ReplicationMode {
    /// True when a partitioned minority side keeps accepting writes
    /// (availability over consistency — PA in PACELC).
    fn writes_survive_partition(self) -> bool {
        matches!(self, ReplicationMode::MultiMaster)
    }
}

impl fmt::Display for ReplicationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationMode::AsyncMasterSlave => f.write_str("async-master-slave"),
            ReplicationMode::DualInSequence => f.write_str("dual-in-sequence"),
            ReplicationMode::Quorum { n, w, r } => write!(f, "quorum(n={n},w={w},r={r})"),
            ReplicationMode::MultiMaster => f.write_str("multi-master"),
            ReplicationMode::Consensus { n } => write!(f, "consensus(n={n})"),
        }
    }
}

/// The SQL-92 isolation level the engine runs (§3.2 decision 2). The paper
/// also grants READ_UNCOMMITTED to transactions that span SEs; the
/// simulator runs none on an engine (e15 prices two-phase commit in closed
/// form), so the engine offers READ_COMMITTED only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IsolationLevel {
    /// Reads observe only committed data; "prevents locking from delaying
    /// reads on subscription data". The intra-SE level.
    ReadCommitted,
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("READ_COMMITTED")
    }
}

/// Read-routing policy of a client class: where on the consistency–latency
/// spectrum its reads sit (§3.3.2 vs §3.3.3, and the middle ground the
/// paper's PACELC discussion implies but the first realization omits).
///
/// Ordered from weakest/fastest to strongest/slowest guarantee:
/// [`NearestCopy`](ReadPolicy::NearestCopy) →
/// [`BoundedStaleness`](ReadPolicy::BoundedStaleness) →
/// [`SessionConsistent`](ReadPolicy::SessionConsistent) →
/// [`MasterOnly`](ReadPolicy::MasterOnly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadPolicy {
    /// Application front-ends: read the nearest copy, stale data tolerated.
    NearestCopy,
    /// Bounded staleness: read the nearest copy whose applied LSN lags the
    /// partition master by at most `max_lag` records; redirect to a
    /// fresher copy (ultimately the master) otherwise. `max_lag = 0` means
    /// "any fully caught-up copy".
    BoundedStaleness {
        /// Maximum tolerated replica lag, in log records (LSNs).
        max_lag: u64,
    },
    /// Terry-style session guarantees: every read must observe the
    /// session's own committed writes (read-your-writes) and never an
    /// older state than a previous read of the same session (monotonic
    /// reads). Requires ops to carry a
    /// [`SessionToken`](crate::session::SessionToken); tokenless reads
    /// degrade to nearest-copy.
    SessionConsistent,
    /// Provisioning system: "read operations on slave copies are disallowed".
    MasterOnly,
}

impl ReadPolicy {
    /// Whether reads under this policy may ever be served by slave copies.
    fn may_read_slaves(self) -> bool {
        !matches!(self, ReadPolicy::MasterOnly)
    }

    /// Whether the policy tolerates *unbounded* staleness — reads never
    /// have to wait out a replication stall, so they keep being served on
    /// the minority side of a partition (PA in PACELC). Bounded and
    /// session reads stall once no reachable copy satisfies their floor.
    fn tolerates_unbounded_staleness(self) -> bool {
        matches!(self, ReadPolicy::NearestCopy)
    }
}

impl fmt::Display for ReadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadPolicy::NearestCopy => f.write_str("nearest-copy"),
            ReadPolicy::BoundedStaleness { max_lag } => {
                write!(f, "bounded-staleness(max_lag={max_lag})")
            }
            ReadPolicy::SessionConsistent => f.write_str("session-consistent"),
            ReadPolicy::MasterOnly => f.write_str("master-only"),
        }
    }
}

/// How subscriptions are placed onto partitions (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Uniform hash placement: any subscriber may land anywhere.
    Random,
    /// §3.5 selective location: pin a subscription's master near the
    /// application front-ends of its home region.
    HomeRegion,
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlacementPolicy::Random => "random",
            PlacementPolicy::HomeRegion => "home-region",
        })
    }
}

/// Realisation of the data-location stage (§3.5 and §3.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocatorKind {
    /// Provisioned identity-location maps: O(log N) lookups; scale-out must
    /// copy the whole map before the new PoA can serve.
    ProvisionedMaps,
    /// Maps built on the fly and cached: no sync window, but every cache
    /// miss queries many/all SEs.
    CachedMaps,
    /// The §3.5 alternative: consistent hashing over locations (no selective
    /// placement, one ring per identity kind).
    ConsistentHashing,
}

impl fmt::Display for LocatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LocatorKind::ProvisionedMaps => "provisioned-maps",
            LocatorKind::CachedMaps => "cached-maps",
            LocatorKind::ConsistentHashing => "consistent-hashing",
        })
    }
}

/// The two transaction classes the paper distinguishes throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxnClass {
    /// Traffic from application front-ends (HLR-FE/HSS-FE): read-mostly,
    /// latency-critical, PA/EL.
    FrontEnd,
    /// Traffic from the provisioning system: write-heavy, atomicity-critical,
    /// PC/EC.
    Provisioning,
}

impl fmt::Display for TxnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TxnClass::FrontEnd => "front-end",
            TxnClass::Provisioning => "provisioning",
        })
    }
}

/// PACELC classification (§2.5, §3.6): on a Partition, Availability or
/// Consistency; Else, Latency or Consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pacelc {
    /// Behaviour under partition: `true` = favours availability (PA).
    pub partition_availability: bool,
    /// Behaviour otherwise: `true` = favours latency (EL).
    pub else_latency: bool,
}

impl Pacelc {
    /// PA/EL — e.g. front-end transactions in the described UDR (§3.6).
    pub const PA_EL: Pacelc = Pacelc {
        partition_availability: true,
        else_latency: true,
    };
    /// PC/EC — e.g. provisioning transactions in the described UDR (§3.6).
    pub const PC_EC: Pacelc = Pacelc {
        partition_availability: false,
        else_latency: false,
    };
    /// PC/EL — consistency on partition, latency otherwise.
    pub const PC_EL: Pacelc = Pacelc {
        partition_availability: false,
        else_latency: true,
    };
    /// PA/EC — availability on partition, consistency otherwise.
    pub const PA_EC: Pacelc = Pacelc {
        partition_availability: true,
        else_latency: false,
    };
}

impl fmt::Display for Pacelc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P{}/E{}",
            if self.partition_availability {
                "A"
            } else {
                "C"
            },
            if self.else_latency { "L" } else { "C" }
        )
    }
}

/// The full knob set for one UDR deployment. Defaults reproduce the paper's
/// "first realization" (§3); experiments flip individual fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrashConfig {
    /// Storage-element durability (F–R link).
    pub durability: DurabilityMode,
    /// Replica propagation (F–A link, R–A link).
    pub replication: ReplicationMode,
    /// Copies of every partition (primary + secondaries), ≥ 1.
    pub replication_factor: u8,
    /// Read routing for front-end traffic.
    pub fe_read_policy: ReadPolicy,
    /// Subscription placement (H–R link).
    pub placement: PlacementPolicy,
    /// Data-location stage realisation (F–S–H triangle).
    pub locator: LocatorKind,
    /// End-to-end client timeout before an operation counts as failed.
    pub op_timeout: SimDuration,
    /// How long a slave waits without master contact before a failover
    /// promotion is considered (detection time).
    pub failover_detection: SimDuration,
    /// Whether automatic slave promotion on master failure is enabled.
    pub auto_failover: bool,
}

impl Default for FrashConfig {
    fn default() -> Self {
        FrashConfig {
            durability: DurabilityMode::periodic_default(),
            replication: ReplicationMode::AsyncMasterSlave,
            replication_factor: 3,
            fe_read_policy: ReadPolicy::NearestCopy,
            placement: PlacementPolicy::HomeRegion,
            locator: LocatorKind::ProvisionedMaps,
            op_timeout: SimDuration::from_millis(500),
            failover_detection: SimDuration::from_secs(5),
            auto_failover: true,
        }
    }
}

impl FrashConfig {
    /// Validate internal consistency of the knob set.
    pub fn validate(&self) -> Result<(), UdrError> {
        if self.replication_factor == 0 {
            return Err(UdrError::Config("replication_factor must be >= 1".into()));
        }
        if let ReplicationMode::Quorum { n, w, r } = self.replication {
            if n == 0 || w == 0 || r == 0 || w > n || r > n {
                return Err(UdrError::Config(format!(
                    "invalid quorum parameters n={n}, w={w}, r={r}"
                )));
            }
            if n != self.replication_factor {
                return Err(UdrError::Config(format!(
                    "quorum ensemble n={n} must equal replication_factor={}",
                    self.replication_factor
                )));
            }
        }
        if let ReplicationMode::Consensus { n } = self.replication {
            if n < 3 {
                return Err(UdrError::Config(format!(
                    "consensus group n={n} cannot form a fault-tolerant majority \
                     (need n >= 3)"
                )));
            }
            if n != self.replication_factor {
                return Err(UdrError::Config(format!(
                    "consensus group n={n} must equal replication_factor={}",
                    self.replication_factor
                )));
            }
        }
        if self.op_timeout.is_zero() {
            return Err(UdrError::Config("op_timeout must be non-zero".into()));
        }
        // The intermediate read policies qualify copies by comparing raw
        // per-partition LSN floors, which is only sound on a single master
        // lineage: quorum reads consult ensembles instead of one routed
        // copy (the policy would silently not be enforced), and diverged
        // multi-master branches reuse LSN numbers (a copy could satisfy a
        // floor numerically while missing the session's write).
        let policy = self.fe_read_policy;
        if !matches!(
            policy,
            ReadPolicy::BoundedStaleness { .. } | ReadPolicy::SessionConsistent
        ) {
            return Ok(());
        }
        if matches!(self.replication, ReplicationMode::Quorum { .. }) {
            return Err(UdrError::Config(format!(
                "fe_read_policy `{policy}` is not enforced under quorum \
                 replication (reads consult the ensemble, not a routed copy)"
            )));
        }
        if self.replication == ReplicationMode::MultiMaster {
            return Err(UdrError::Config(format!(
                "fe_read_policy `{policy}` is unsound under multi-master \
                 replication (diverged branches reuse LSNs, so freshness floors \
                 do not identify the session's writes)"
            )));
        }
        if matches!(self.replication, ReplicationMode::Consensus { .. }) {
            return Err(UdrError::Config(format!(
                "fe_read_policy `{policy}` is redundant under consensus \
                 replication (every read is served from the leader's committed \
                 prefix, not a routed copy, so lag floors never apply)"
            )));
        }
        Ok(())
    }

    /// The PACELC class this configuration yields for a transaction class,
    /// following the paper's own argument in §3.6.
    pub fn pacelc_for(&self, class: TxnClass) -> Pacelc {
        // Consensus replication overrides both axes for both classes:
        // every write is a majority round trip (EC) and every read comes
        // off the leader's committed prefix, so the minority side of any
        // cut serves nothing (PC) — the §6 configuration that earns CP.
        if matches!(self.replication, ReplicationMode::Consensus { .. }) {
            return Pacelc::PC_EC;
        }
        let partition_availability = match class {
            // FE traffic is mostly reads; with nearest-copy reads it keeps
            // being served during partitions => PA. Bounded and session
            // reads stall once the minority side can no longer satisfy
            // their freshness floor, so like master-only they fail
            // alongside writes => PC. Quorum replication overrides the
            // policy axis entirely: every read consults an r-ensemble
            // that spans sites in a geo-dispersed deployment, so a cut
            // side that cannot assemble r copies stops reading => PC.
            TxnClass::FrontEnd => {
                let quorum_reads = matches!(self.replication, ReplicationMode::Quorum { .. });
                (!quorum_reads && self.fe_read_policy.tolerates_unbounded_staleness())
                    || self.replication.writes_survive_partition()
            }
            // PS traffic is write-heavy: only multi-master keeps it alive.
            TxnClass::Provisioning => self.replication.writes_survive_partition(),
        };
        let else_latency = match class {
            // Async replication + any slave-read policy = latency over
            // consistency: the intermediate policies still serve the vast
            // majority of reads from the nearest (qualifying) copy.
            TxnClass::FrontEnd => {
                matches!(
                    self.replication,
                    ReplicationMode::AsyncMasterSlave | ReplicationMode::MultiMaster
                ) && self.fe_read_policy.may_read_slaves()
            }
            // Provisioning reads master copies only (§3.3.3) and writes are
            // atomic: consistency over latency.
            TxnClass::Provisioning => false,
        };
        Pacelc {
            partition_availability,
            else_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_distinct_labels;

    #[test]
    fn default_config_is_the_papers_first_realization() {
        let c = FrashConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.replication, ReplicationMode::AsyncMasterSlave);
        assert_eq!(c.fe_read_policy, ReadPolicy::NearestCopy);
    }

    #[test]
    fn paper_pacelc_claims_hold_for_default_config() {
        // §3.6: "PA/EL for transactions coming from application front-ends
        // but PC/EC for transactions coming from PS instances".
        let c = FrashConfig::default();
        assert_eq!(c.pacelc_for(TxnClass::FrontEnd), Pacelc::PA_EL);
        assert_eq!(c.pacelc_for(TxnClass::Provisioning), Pacelc::PC_EC);
    }

    #[test]
    fn quorum_reads_are_never_partition_available() {
        // §5's ensemble point: reads consult r copies, so no read policy
        // label can make front-end traffic PA under quorum replication.
        let c = FrashConfig {
            replication: ReplicationMode::Quorum { n: 3, w: 2, r: 2 },
            replication_factor: 3,
            fe_read_policy: ReadPolicy::NearestCopy,
            ..Default::default()
        };
        assert_eq!(c.pacelc_for(TxnClass::FrontEnd), Pacelc::PC_EC);
    }

    #[test]
    fn multimaster_turns_provisioning_pa() {
        let c = FrashConfig {
            replication: ReplicationMode::MultiMaster,
            ..Default::default()
        };
        assert!(c.pacelc_for(TxnClass::Provisioning).partition_availability);
    }

    #[test]
    fn quorum_validation() {
        let bad = FrashConfig {
            replication: ReplicationMode::Quorum { n: 3, w: 4, r: 1 },
            replication_factor: 3,
            ..Default::default()
        };
        assert!(bad.validate().is_err());

        let mismatch = FrashConfig {
            replication: ReplicationMode::Quorum { n: 5, w: 3, r: 2 },
            replication_factor: 3,
            ..Default::default()
        };
        assert!(mismatch.validate().is_err());

        let good = FrashConfig {
            replication: ReplicationMode::Quorum { n: 3, w: 2, r: 2 },
            replication_factor: 3,
            ..Default::default()
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn consensus_validation() {
        // Too small to tolerate any fault: n in {0, 1, 2} is rejected.
        for n in 0..3u8 {
            let bad = FrashConfig {
                replication: ReplicationMode::Consensus { n },
                replication_factor: n.max(1),
                ..Default::default()
            };
            assert!(bad.validate().is_err(), "consensus n={n} must be rejected");
        }
        let mismatch = FrashConfig {
            replication: ReplicationMode::Consensus { n: 5 },
            replication_factor: 3,
            ..Default::default()
        };
        assert!(mismatch.validate().is_err());

        let good = FrashConfig {
            replication: ReplicationMode::Consensus { n: 3 },
            replication_factor: 3,
            ..Default::default()
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn consensus_is_pc_ec_for_both_classes() {
        // The §6 CP row: no read-policy label and no class makes a
        // consensus deployment partition-available or latency-favouring.
        for policy in [ReadPolicy::NearestCopy, ReadPolicy::MasterOnly] {
            let c = FrashConfig {
                replication: ReplicationMode::Consensus { n: 3 },
                replication_factor: 3,
                fe_read_policy: policy,
                ..Default::default()
            };
            assert!(c.validate().is_ok());
            assert_eq!(c.pacelc_for(TxnClass::FrontEnd), Pacelc::PC_EC);
            assert_eq!(c.pacelc_for(TxnClass::Provisioning), Pacelc::PC_EC);
        }
    }

    #[test]
    fn zero_rf_rejected() {
        let c = FrashConfig {
            replication_factor: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn pacelc_display() {
        assert_eq!(Pacelc::PA_EL.to_string(), "PA/EL");
        assert_eq!(Pacelc::PC_EC.to_string(), "PC/EC");
    }

    #[test]
    fn display_of_knobs() {
        assert_eq!(DurabilityMode::SyncCommit.to_string(), "sync-commit");
        assert_eq!(
            ReplicationMode::Quorum { n: 3, w: 2, r: 2 }.to_string(),
            "quorum(n=3,w=2,r=2)"
        );
        assert_eq!(IsolationLevel::ReadCommitted.to_string(), "READ_COMMITTED");
        assert_eq!(LocatorKind::CachedMaps.to_string(), "cached-maps");
        assert_eq!(
            ReadPolicy::BoundedStaleness { max_lag: 8 }.to_string(),
            "bounded-staleness(max_lag=8)"
        );
        assert_eq!(
            ReadPolicy::SessionConsistent.to_string(),
            "session-consistent"
        );
        assert_eq!(
            ReplicationMode::Consensus { n: 3 }.to_string(),
            "consensus(n=3)"
        );
    }

    #[test]
    fn every_policy_enum_round_trips_through_display() {
        assert_distinct_labels(&[
            ReadPolicy::NearestCopy,
            ReadPolicy::MasterOnly,
            ReadPolicy::SessionConsistent,
            ReadPolicy::BoundedStaleness { max_lag: 0 },
            ReadPolicy::BoundedStaleness { max_lag: 1000 },
        ]);
        assert_distinct_labels(&[
            ReplicationMode::AsyncMasterSlave,
            ReplicationMode::DualInSequence,
            ReplicationMode::MultiMaster,
            ReplicationMode::Quorum { n: 5, w: 3, r: 2 },
            ReplicationMode::Consensus { n: 3 },
            ReplicationMode::Consensus { n: 5 },
        ]);
        assert_distinct_labels(&[
            DurabilityMode::None,
            DurabilityMode::SyncCommit,
            DurabilityMode::periodic_default(),
            DurabilityMode::PeriodicSnapshot {
                interval: SimDuration::from_millis(250),
            },
        ]);
        assert_distinct_labels(&[PlacementPolicy::Random, PlacementPolicy::HomeRegion]);
        assert_distinct_labels(&[
            LocatorKind::ProvisionedMaps,
            LocatorKind::CachedMaps,
            LocatorKind::ConsistentHashing,
        ]);
        assert_distinct_labels(&[TxnClass::FrontEnd, TxnClass::Provisioning]);
    }

    #[test]
    fn spectrum_predicates() {
        assert!(ReadPolicy::NearestCopy.may_read_slaves());
        assert!(ReadPolicy::BoundedStaleness { max_lag: 4 }.may_read_slaves());
        assert!(ReadPolicy::SessionConsistent.may_read_slaves());
        assert!(!ReadPolicy::MasterOnly.may_read_slaves());
        assert!(ReadPolicy::NearestCopy.tolerates_unbounded_staleness());
        assert!(!ReadPolicy::BoundedStaleness { max_lag: 4 }.tolerates_unbounded_staleness());
        assert!(!ReadPolicy::SessionConsistent.tolerates_unbounded_staleness());
        assert!(!ReadPolicy::MasterOnly.tolerates_unbounded_staleness());
    }

    #[test]
    fn guarded_policies_require_a_single_master_lineage() {
        // Quorum reads bypass routed-copy selection; multi-master branches
        // reuse LSNs. Both combinations must be rejected.
        let quorum = FrashConfig {
            replication: ReplicationMode::Quorum { n: 3, w: 2, r: 2 },
            replication_factor: 3,
            fe_read_policy: ReadPolicy::SessionConsistent,
            ..Default::default()
        };
        assert!(quorum.validate().is_err());
        let multimaster = FrashConfig {
            replication: ReplicationMode::MultiMaster,
            fe_read_policy: ReadPolicy::BoundedStaleness { max_lag: 4 },
            ..Default::default()
        };
        assert!(multimaster.validate().is_err());
        let consensus = FrashConfig {
            replication: ReplicationMode::Consensus { n: 3 },
            replication_factor: 3,
            fe_read_policy: ReadPolicy::SessionConsistent,
            ..Default::default()
        };
        assert!(consensus.validate().is_err());
        // The async default accepts both intermediates.
        for fe_read_policy in [
            ReadPolicy::BoundedStaleness { max_lag: 4 },
            ReadPolicy::SessionConsistent,
        ] {
            let ok = FrashConfig {
                fe_read_policy,
                ..Default::default()
            };
            assert!(ok.validate().is_ok());
        }
    }

    #[test]
    fn intermediate_policies_sit_between_the_extremes_in_pacelc() {
        // The spectrum of §3.6, now populated: nearest-copy = PA/EL,
        // bounded staleness and session guarantees = PC/EL (consistency
        // enforced on partition, latency favoured otherwise), master-only
        // = PC/EC.
        let mk = |policy| FrashConfig {
            fe_read_policy: policy,
            ..Default::default()
        };
        assert_eq!(
            mk(ReadPolicy::NearestCopy).pacelc_for(TxnClass::FrontEnd),
            Pacelc::PA_EL
        );
        assert_eq!(
            mk(ReadPolicy::BoundedStaleness { max_lag: 16 }).pacelc_for(TxnClass::FrontEnd),
            Pacelc::PC_EL
        );
        assert_eq!(
            mk(ReadPolicy::SessionConsistent).pacelc_for(TxnClass::FrontEnd),
            Pacelc::PC_EL
        );
        assert_eq!(
            mk(ReadPolicy::MasterOnly).pacelc_for(TxnClass::FrontEnd),
            Pacelc::PC_EC
        );
    }
}
