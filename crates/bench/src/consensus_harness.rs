//! Shared scaffolding for experiments that drive a raw
//! [`ConsensusCluster`] (e16/e17/e18): settled-cluster construction,
//! paced submission batches, and fate accounting. Each binary used to
//! hand-roll these; the campaign PR consolidated them so ensemble
//! experiments stay one-screen descriptions of *what* they measure.

use udr_consensus::runtime::{ClusterConfig, ConsensusCluster};
use udr_consensus::{CmdId, NodeId, RunReport};
use udr_metrics::Histogram;
use udr_model::ids::SubscriberUid;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::Topology;

/// Warm-up horizon: leadership reliably settles well before this on the
/// default election/heartbeat timing.
const WARMUP: SimDuration = SimDuration::from_secs(5);

/// A cluster that has been run past its first election.
pub struct SettledCluster {
    /// The warmed-up cluster.
    pub cluster: ConsensusCluster,
    /// The leader elected during warm-up.
    pub leader: NodeId,
}

/// Build a cluster on `topo` under the default protocol timing, run it
/// until leadership settles, and return it with its leader.
pub fn settled_cluster(topo: Topology, seed: u64) -> SettledCluster {
    let mut cluster = ConsensusCluster::new(topo, ClusterConfig, seed);
    cluster.run_until(SimTime::ZERO + WARMUP);
    let leader = cluster
        .current_leader()
        .expect("leadership must settle during warm-up");
    SettledCluster { cluster, leader }
}

/// Queue `count` subscriber writes through node `origin`, one every
/// `gap` starting at `start`, with uids counting up from `uid_base`
/// (keep bases disjoint across batches). Returns the command ids.
pub fn submit_paced(
    cluster: &mut ConsensusCluster,
    start: SimTime,
    count: u64,
    gap: SimDuration,
    origin: u32,
    uid_base: u64,
) -> Vec<CmdId> {
    let mut at = start;
    let mut ids = Vec::with_capacity(count as usize);
    for i in 0..count {
        ids.push(cluster.submit_write_at(at, origin, SubscriberUid(uid_base + i), None));
        at += gap;
    }
    ids
}

/// Which latency a fate histogram measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyKind {
    /// Cluster-side: first choose − submission.
    Commit,
    /// Client-perceived: origin learns − submission.
    Client,
}

/// Histogram of the chosen latency over the given commands (uncommitted
/// ones are skipped — score those with [`committed_fraction`]).
pub fn fate_latencies(report: &RunReport, ids: &[CmdId], kind: LatencyKind) -> Histogram {
    let mut h = Histogram::new();
    for id in ids {
        let fate = &report.fates[id];
        let lat = match kind {
            LatencyKind::Commit => fate.commit_latency(),
            LatencyKind::Client => fate.client_latency(),
        };
        if let Some(lat) = lat {
            h.record(lat);
        }
    }
    h
}

/// Fraction of `ids` committed — by `deadline` if one is given (the
/// paper's §4.1 scoring: a write stuck past the window is a failed
/// activation), else ever (the "eventual" column).
pub fn committed_fraction(report: &RunReport, ids: &[CmdId], deadline: Option<SimTime>) -> f64 {
    if ids.is_empty() {
        return 0.0;
    }
    ids.iter()
        .filter(|id| match (report.fates[id].chosen_at, deadline) {
            (Some(chosen), Some(by)) => chosen <= by,
            (Some(_), None) => true,
            (None, _) => false,
        })
        .count() as f64
        / ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_cluster_commits_a_paced_batch() {
        let mut s = settled_cluster(Topology::multinational(3), 18);
        let start = SimTime::ZERO + SimDuration::from_secs(6);
        let ids = submit_paced(
            &mut s.cluster,
            start,
            10,
            SimDuration::from_millis(100),
            s.leader.0,
            0,
        );
        let report = s
            .cluster
            .run_until(SimTime::ZERO + SimDuration::from_secs(20));
        assert!(report.violations.is_empty());
        assert_eq!(committed_fraction(&report, &ids, None), 1.0);
        let h = fate_latencies(&report, &ids, LatencyKind::Commit);
        assert_eq!(h.count(), 10);
        // Client-perceived latency at the leader is at least the commit
        // latency of the cluster.
        let c = fate_latencies(&report, &ids, LatencyKind::Client);
        assert!(c.mean() >= h.mean());
        // A deadline before the first submission scores zero.
        assert_eq!(committed_fraction(&report, &ids, Some(start)), 0.0);
    }
}
