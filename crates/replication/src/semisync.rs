//! Dual-in-sequence replication (§5).
//!
//! "…most probably the UDR NF should apply provisioning transactions in
//! sequence to two replicas, committing the transaction only when both
//! replicas report success. To avoid incurring the penalties of a consensus
//! protocol, the UDR shall have to work in cooperation with the PS so when a
//! transaction fails to commit, leaving just one of the replicas updated is
//! acceptable."

use udr_model::ids::SeId;
use udr_model::time::SimDuration;

/// Result of a dual-in-sequence commit attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualOutcome {
    /// Whether the transaction counts as committed (both replicas updated).
    pub committed: bool,
    /// Extra latency beyond the local commit (the sequential round trips).
    pub extra_latency: SimDuration,
    /// Replicas that did apply the transaction (0, 1 or 2). When `1`, the
    /// paper's "leaving just one of the replicas updated is acceptable"
    /// case has occurred: not committed, but partially applied.
    pub replicas_updated: u8,
    /// The second replica involved, when one was selected.
    pub second: Option<SeId>,
}

/// Evaluate a dual-in-sequence commit.
///
/// `local_ok` is whether the master applied (it always tries first);
/// `second` identifies the chosen second replica with the sampled round-trip
/// to it (`None` = unreachable). The sequential protocol means the second
/// round trip starts only after the local apply.
pub fn dual_in_sequence(
    local_ok: bool,
    second: Option<(SeId, Option<SimDuration>)>,
) -> DualOutcome {
    if !local_ok {
        return DualOutcome {
            committed: false,
            extra_latency: SimDuration::ZERO,
            replicas_updated: 0,
            second: None,
        };
    }
    match second {
        Some((se, Some(rtt))) => DualOutcome {
            committed: true,
            extra_latency: rtt,
            replicas_updated: 2,
            second: Some(se),
        },
        Some((se, None)) => DualOutcome {
            // The master applied, the second replica did not: transaction
            // reported failed to the PS, one replica left updated.
            committed: false,
            extra_latency: SimDuration::ZERO,
            replicas_updated: 1,
            second: Some(se),
        },
        None => DualOutcome {
            committed: false,
            extra_latency: SimDuration::ZERO,
            replicas_updated: 1,
            second: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_replicas_commit() {
        let out = dual_in_sequence(true, Some((SeId(1), Some(SimDuration::from_millis(30)))));
        assert!(out.committed);
        assert_eq!(out.replicas_updated, 2);
        assert_eq!(out.extra_latency, SimDuration::from_millis(30));
        assert_eq!(out.second, Some(SeId(1)));
    }

    #[test]
    fn second_unreachable_leaves_one_updated() {
        let out = dual_in_sequence(true, Some((SeId(1), None)));
        assert!(!out.committed);
        assert_eq!(out.replicas_updated, 1);
    }

    #[test]
    fn no_second_replica_available() {
        let out = dual_in_sequence(true, None);
        assert!(!out.committed);
        assert_eq!(out.replicas_updated, 1);
        assert_eq!(out.second, None);
    }

    #[test]
    fn local_failure_updates_nothing() {
        let out = dual_in_sequence(false, Some((SeId(1), Some(SimDuration::ZERO))));
        assert!(!out.committed);
        assert_eq!(out.replicas_updated, 0);
    }
}
