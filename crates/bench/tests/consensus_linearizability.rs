//! The consensus linearizability gate: record the full read/write
//! interval history of a fault-campaign cell running `consensus(n=3)`
//! and verify it against a per-key single-register sequential oracle
//! (Wing & Gong). The e25 experiment asserts this per cell; this test
//! keeps the property in the default `cargo test` tier.

use udr_bench::campaign::{run_cell, CampaignConfig};
use udr_model::config::{ReadPolicy, ReplicationMode};
use udr_model::time::{SimDuration, SimTime};
use udr_workload::PartitionScenario;

fn small_consensus_cell(policy: ReadPolicy, scenario: PartitionScenario) -> CampaignConfig {
    let mut cc = CampaignConfig::new(ReplicationMode::Consensus { n: 3 }, policy, scenario);
    cc.seed = 25;
    cc.subscribers = 6;
    cc.read_rate = 0.15;
    cc.traffic_end = SimTime::ZERO + SimDuration::from_secs(40);
    cc.fault_duration = SimDuration::from_secs(12);
    cc
}

/// A clean partition is the scenario most likely to manufacture a
/// linearizability violation: minority-side refusals, leader failover,
/// and timed-out "zombie" writes that may commit after the heal. The
/// recorded history must still admit a legal linearization, and the cell
/// must come out CP outright.
#[test]
fn clean_partition_history_is_linearizable_and_cp() {
    let cc = small_consensus_cell(ReadPolicy::MasterOnly, PartitionScenario::CleanPartition);
    let out = run_cell(&cc, &cc.script());
    let v = &out.verdict;

    assert!(!out.history.is_empty(), "cell recorded no operations");
    out.history
        .check()
        .unwrap_or_else(|e| panic!("history is not linearizable: {e}"));

    assert_eq!(v.stale_reads, 0, "a committed-prefix read was stale");
    assert_eq!(v.lost_acked_writes, 0, "an acked write left the chosen log");
    assert_eq!(v.duplicated_records, 0, "a command was applied twice");
    assert_eq!(v.unexpected_failures, 0, "a fault surfaced as a data error");
    assert!(v.sound(), "verdict unsound: {v:?}");
    assert!(
        out.violations.is_empty(),
        "Paxos unsafe: {:?}",
        out.violations
    );
    assert!(out.commits > 0, "nothing committed through the log");
    assert!(
        v.writes_ok_in_fault < v.writes_in_fault,
        "the minority side must refuse writes during the cut"
    );
    assert_eq!(v.generic_timeouts, 0, "clean-cut refusals must be typed");
}

/// An SE crash + restore exercises the other failover path: the leader's
/// acceptor state survives, the engine replays the chosen log from its
/// recovered position, and the history stays linearizable throughout.
#[test]
fn se_outage_history_is_linearizable() {
    let cc = small_consensus_cell(ReadPolicy::NearestCopy, PartitionScenario::SeOutage);
    let out = run_cell(&cc, &cc.script());

    out.history
        .check()
        .unwrap_or_else(|e| panic!("history is not linearizable: {e}"));
    assert!(out.elections > 0, "the crash never forced an election");
    assert_eq!(out.verdict.stale_reads, 0);
    assert_eq!(out.verdict.lost_acked_writes, 0);
    assert!(out.verdict.sound(), "verdict unsound: {:?}", out.verdict);
    assert!(out.violations.is_empty());
}
