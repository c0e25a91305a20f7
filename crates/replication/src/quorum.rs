//! Quorum replication, the §5 Cassandra comparison.
//!
//! "In Cassandra, a client is able to specify the durability guarantees it
//! wants on a per-transaction basis. Under the hood Cassandra uses a
//! consensus protocol across an ensemble of replicas; the more replicas are
//! involved in the transaction, the higher the durability guarantees." We
//! model the coordination cost: a write goes to all `n` replicas in
//! parallel and acknowledges after the `w`-th response. The read side
//! (consult `r` replicas, return the freshest) lives in `udr-core`'s
//! replication stage.

use udr_model::ids::SeId;
use udr_model::time::SimDuration;

/// Outcome of a quorum write round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumWriteOutcome {
    /// Whether `w` acknowledgements arrived.
    pub committed: bool,
    /// Coordination latency: the `w`-th fastest round trip (zero if failed).
    pub latency: SimDuration,
    /// Replicas that applied the write (even on failure some may have).
    pub applied: Vec<SeId>,
}

/// Evaluate a quorum write given per-replica round trips (`None` =
/// unreachable). `responses` covers all `n` ensemble members, master
/// included with its (near-zero) local RTT.
pub fn quorum_write(responses: &[(SeId, Option<SimDuration>)], w: usize) -> QuorumWriteOutcome {
    let mut acks: Vec<(SeId, SimDuration)> = responses
        .iter()
        .filter_map(|(se, rtt)| rtt.map(|d| (*se, d)))
        .collect();
    acks.sort_by_key(|(_, d)| *d);
    let applied: Vec<SeId> = acks.iter().map(|(se, _)| *se).collect();
    if acks.len() >= w && w > 0 {
        QuorumWriteOutcome {
            committed: true,
            latency: acks[w - 1].1,
            applied,
        }
    } else {
        QuorumWriteOutcome {
            committed: false,
            latency: SimDuration::ZERO,
            applied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn write_waits_for_wth_ack() {
        let responses = vec![
            (SeId(0), Some(ms(1))),
            (SeId(1), Some(ms(20))),
            (SeId(2), Some(ms(50))),
        ];
        let w2 = quorum_write(&responses, 2);
        assert!(w2.committed);
        assert_eq!(w2.latency, ms(20));
        let w3 = quorum_write(&responses, 3);
        assert!(w3.committed);
        assert_eq!(w3.latency, ms(50));
    }

    #[test]
    fn write_fails_without_quorum() {
        let responses = vec![(SeId(0), Some(ms(1))), (SeId(1), None), (SeId(2), None)];
        let out = quorum_write(&responses, 2);
        assert!(!out.committed);
        // The reachable replica still applied: durability leak the paper
        // warns about when transactions "fail" but leave replicas updated.
        assert_eq!(out.applied, vec![SeId(0)]);
    }

    #[test]
    fn degenerate_quorums() {
        assert!(!quorum_write(&[], 1).committed);
        let out = quorum_write(&[(SeId(0), Some(ms(1)))], 0);
        assert!(!out.committed, "w=0 is rejected");
    }
}
