//! Criterion microbenchmarks for the §6 consensus substrate: how much real
//! CPU the deterministic Paxos machinery costs, which bounds how large the
//! E16/E17 sweeps can be and documents the protocol's message-processing
//! overhead compared to plain log shipping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use udr_consensus::runtime::{ClusterConfig, ConsensusCluster};
use udr_consensus::{
    Ballot, ChosenLog, CmdId, Command, Message, NodeId, Replica, ReplicaConfig, Slot,
};
use udr_model::ids::SubscriberUid;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::Topology;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// End-to-end: elect a leader and commit N commands on a 3-site cluster.
fn bench_cluster_commits(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus/cluster_commit");
    for n in [50u64, 200] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut cluster =
                    ConsensusCluster::new(Topology::multinational(3), ClusterConfig::default(), 7);
                for i in 0..n {
                    cluster.submit_write_at(
                        secs(2) + SimDuration::from_millis(20 * i),
                        (i % 3) as u32,
                        SubscriberUid(i),
                        None,
                    );
                }
                let report = cluster.run_until(secs(30));
                assert_eq!(report.committed() as u64, n);
                report
            });
        });
    }
    group.finish();
}

/// Hot path: one acceptor processing a phase-2a Accept.
fn bench_accept_processing(c: &mut Criterion) {
    c.bench_function("consensus/acceptor_accept", |b| {
        let ballot = Ballot::new(1, NodeId(0));
        let mut slot = 1u64;
        let mut replica = Replica::new(NodeId(1), 3, ReplicaConfig::default(), 3);
        let mut out = Vec::new();
        b.iter(|| {
            let msg = Message::Accept {
                ballot,
                slot: Slot(slot),
                cmd: Command::write(CmdId(slot), SubscriberUid(slot), None),
                committed: Slot(slot.saturating_sub(1)),
            };
            slot += 1;
            out.clear();
            replica.handle(SimTime(slot), NodeId(0), msg, &mut out);
            out.len()
        });
    });
}

/// Chosen-log recording throughput (the learner's write path).
fn bench_log_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus/log_record");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("10k_sequential", |b| {
        b.iter(|| {
            let mut log = ChosenLog::new();
            for i in 1..=10_000u64 {
                log.record(Slot(i), Command::write(CmdId(i), SubscriberUid(i), None))
                    .unwrap();
            }
            assert_eq!(log.committed(), Slot(10_000));
            log
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster_commits,
    bench_accept_processing,
    bench_log_record
);
criterion_main!(benches);
