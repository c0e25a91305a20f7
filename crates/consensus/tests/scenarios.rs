//! Deterministic adversarial scenarios: the named failure geometries a
//! telecom operator would drill (§3.1 "unforeseen events", §4.1 partition
//! windows), each checking the §6 promise — majority availability, zero
//! divergence, nothing lost.

use udr_consensus::runtime::{ClusterConfig, ConsensusCluster};
use udr_consensus::CmdId;
use udr_model::ids::{SeId, SiteId, SubscriberUid};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::Topology;
use udr_sim::FaultScript;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Five sites, two simultaneous cuts: {0,1} islanded and {4} islanded,
/// leaving {2,3} as the largest connected group — *no* majority anywhere.
/// Writes must freeze (consistency over availability), then all commit
/// once one cut heals and a majority re-forms.
#[test]
fn no_majority_freezes_writes_without_losing_them() {
    let mut cluster = ConsensusCluster::new(Topology::multinational(5), ClusterConfig, 41);
    cluster.run_until(secs(4));

    // Both cuts active from t=5; the {0,1} cut heals at t=40, giving
    // {0,1,2,3} a majority again. The {4} cut lasts until t=80.
    cluster.schedule_script(
        &FaultScript::new(0)
            .clean_partition(secs(5), SimDuration::from_secs(35), [SiteId(0), SiteId(1)])
            .clean_partition(secs(5), SimDuration::from_secs(75), [SiteId(4)]),
    );

    let mut ids = Vec::new();
    for i in 0..10u64 {
        ids.push(cluster.submit_write_at(
            secs(10) + ms(500 * i),
            2, // the largest (but minority) group
            SubscriberUid(i),
            None,
        ));
    }
    // While no majority exists nothing may commit.
    let frozen = cluster.run_until(secs(38));
    assert_eq!(frozen.committed(), 0, "a 2-of-5 group must not commit");
    assert!(frozen.violations.is_empty());

    // One heal restores a 4-node majority: everything drains.
    let report = cluster.run_until(secs(75));
    assert_eq!(
        report.committed(),
        ids.len(),
        "queued writes must drain after heal"
    );
    assert!(report.violations.is_empty());
}

/// Serial leader assassination: crash whichever node leads, twice in a
/// row (leaving a 3-of-5 majority), with writes flowing through each
/// failover. Every command must survive. A third assassination reduces
/// the ensemble to a 2-node rump, which must freeze.
#[test]
fn serial_leader_crashes_lose_nothing() {
    let mut cluster = ConsensusCluster::new(Topology::multinational(5), ClusterConfig, 43);
    let mut submitted: Vec<CmdId> = Vec::new();
    let mut crashed: Vec<u32> = Vec::new();
    let mut now = 4u64;
    let mut uid = 0u64;

    // Three write waves; the leader is killed mid-stream in the first two.
    for round in 0..3 {
        cluster.run_until(secs(now));
        let leader = cluster
            .current_leader()
            .unwrap_or_else(|| panic!("round {round}: no stable leader at t={now}s"));
        assert!(!crashed.contains(&leader.0), "a crashed node cannot lead");
        // Load through a survivor that is not the about-to-die leader.
        let origin = (0..5u32)
            .find(|i| *i != leader.0 && !crashed.contains(i))
            .expect("a live non-leader exists");
        for i in 0..5u64 {
            submitted.push(cluster.submit_write_at(
                secs(now) + ms(300 * i),
                origin,
                SubscriberUid(uid),
                None,
            ));
            uid += 1;
        }
        if round < 2 {
            cluster.schedule_script(
                &FaultScript::new(0).se_crash(secs(now) + ms(700), SeId(leader.0)),
            );
            crashed.push(leader.0);
        }
        now += 15;
    }

    let report = cluster.run_until(secs(now + 20));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(
        report.committed(),
        submitted.len(),
        "every command must survive two failovers"
    );

    // Third assassination: the surviving trio drops to a 2-node rump.
    cluster.run_until(secs(now + 21));
    let leader = cluster.current_leader().expect("trio has a leader");
    cluster.schedule_script(&FaultScript::new(0).se_crash(secs(now + 22), SeId(leader.0)));
    let origin = (0..5u32)
        .find(|i| *i != leader.0 && !crashed.contains(i))
        .expect("a live non-leader exists");
    cluster.submit_write_at(secs(now + 25), origin, SubscriberUid(999), None);
    let frozen = cluster.run_until(secs(now + 40));
    assert_eq!(frozen.uncommitted(), 1, "2-of-5 rump must not commit");
    assert!(frozen.violations.is_empty());
}

/// A 7-node ensemble serves through 3 crashes, freezes at 4 down, resumes
/// when one node returns — the textbook 2f+1 availability boundary,
/// realized on the simulated backbone.
#[test]
fn seven_nodes_tolerate_exactly_three_failures() {
    let mut cluster = ConsensusCluster::new(Topology::multinational(7), ClusterConfig, 47);
    cluster.run_until(secs(4));
    let leader = cluster.current_leader().expect("leader");
    // Crash three non-leader nodes; the first returns at 41 s, after the
    // freeze below.
    let victims: Vec<u32> = (0..7u32).filter(|i| *i != leader.0).take(3).collect();
    cluster.schedule_script(
        &FaultScript::new(0)
            .se_outage(secs(5), SimDuration::from_secs(36), SeId(victims[0]))
            .se_crash(secs(5) + ms(200), SeId(victims[1]))
            .se_crash(secs(5) + ms(400), SeId(victims[2])),
    );
    let origin = (0..7u32)
        .find(|i| *i != leader.0 && !victims.contains(i))
        .unwrap();
    for i in 0..10u64 {
        cluster.submit_write_at(secs(8) + ms(300 * i), origin, SubscriberUid(i), None);
    }
    let report = cluster.run_until(secs(20));
    assert_eq!(report.committed(), 10, "4 of 7 is a working majority");
    assert!(report.violations.is_empty());

    // Fourth crash (4 of 7 down, 3 live): freeze.
    let fourth = (0..7u32)
        .find(|i| *i != leader.0 && !victims.contains(i) && *i != origin)
        .unwrap();
    cluster.schedule_script(&FaultScript::new(0).se_crash(secs(21), SeId(fourth)));
    for i in 10..15u64 {
        cluster.submit_write_at(secs(25) + ms(300 * i), origin, SubscriberUid(i), None);
    }
    let frozen = cluster.run_until(secs(40));
    assert_eq!(frozen.committed(), 10, "3 of 7 must not commit");

    // One victim returns: service resumes and the queue drains.
    let resumed = cluster.run_until(secs(80));
    assert_eq!(resumed.committed(), 15);
    assert!(resumed.violations.is_empty());
}

/// Partition flapping: the same island cut and healed five times in quick
/// succession while writes flow from both sides. Safety must hold through
/// every flap and all majority-side writes commit.
#[test]
fn partition_flapping_preserves_safety() {
    let mut cluster = ConsensusCluster::new(Topology::multinational(3), ClusterConfig, 53);
    cluster.run_until(secs(3));
    let flaps = (0..5u64).fold(FaultScript::new(0), |script, flap| {
        script.clean_partition(secs(5 + 6 * flap), SimDuration::from_secs(3), [SiteId(2)])
    });
    cluster.schedule_script(&flaps);
    let mut majority_ids = Vec::new();
    for i in 0..60u64 {
        let at = secs(5) + ms(500 * i);
        majority_ids.push(cluster.submit_write_at(at, 0, SubscriberUid(i), None));
        cluster.submit_write_at(at + ms(250), 2, SubscriberUid(1000 + i), None);
    }
    let report = cluster.run_until(secs(90));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // Every write eventually commits (island writes drain in heal windows).
    assert_eq!(report.committed(), report.fates.len());
    // And the logs converge to a single watermark.
    let max = report.final_committed.iter().max().unwrap();
    for wm in &report.final_committed {
        assert_eq!(wm, max, "watermarks diverged: {:?}", report.final_committed);
    }
}
