//! Integration tests for the §6 evolution path: the Paxos replication
//! substrate compared, through the umbrella crate, against the behaviour
//! of the paper's first-realization master/slave design under the same
//! partition geometry.

use udr::consensus::runtime::{ClusterConfig, ConsensusCluster};
use udr::consensus::{NodeId, Payload};
use udr::core::{Udr, UdrConfig};
use udr::model::attrs::{AttrId, AttrMod, AttrValue};
use udr::model::ids::{SeId, SiteId, SubscriberUid};
use udr::model::{Identity, SimDuration, SimTime};
use udr::sim::net::Topology;
use udr::sim::{FaultScript, SimRng};
use udr::storage::Engine;
use udr::workload::PopulationBuilder;
use udr_bench::harness::PsRetry;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// §3.2 vs §6: under the same island, master/slave loses provisioning
/// writes for subscribers mastered across the cut, while consensus keeps
/// the majority side fully writable and salvages the island's writes
/// after heal.
#[test]
fn consensus_beats_master_slave_on_majority_side_availability() {
    // --- master/slave through the assembled UDR -------------------------
    let mut cfg = UdrConfig::figure2();
    cfg.seed = 5;
    let mut udr = Udr::build(cfg).unwrap();
    let mut rng = SimRng::seed_from_u64(5);
    let population = PopulationBuilder::new(3).build(60, &mut rng);
    let mut at = t(0) + SimDuration::from_millis(1);
    for sub in &population {
        let (result, _) = PsRetry::STANDARD.run(&mut at, |at| {
            udr.provision_subscriber(&sub.ids, sub.home_region, SiteId(0), at)
                .op
                .result
        });
        if let Err(e) = result {
            panic!("provisioning failed: {e}");
        }
    }
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(60),
        [SiteId(2)],
    ));
    let (mut ok, mut n) = (0u64, 0u64);
    let mut w = t(110);
    for (i, sub) in population.iter().enumerate() {
        let out = udr.modify_services(
            &Identity::Imsi(sub.ids.imsi),
            vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i as u64))],
            SiteId(0), // majority-side PS
            w,
        );
        n += 1;
        ok += out.result.is_ok() as u64;
        w += SimDuration::from_millis(200);
    }
    let ms_majority_avail = ok as f64 / n as f64;
    // Some subscribers' masters live on the islanded site: writes fail.
    assert!(
        ms_majority_avail < 0.9,
        "master/slave should lose cross-cut writes, got {ms_majority_avail}"
    );

    // --- consensus over the same 3-site geometry ------------------------
    let mut cluster = ConsensusCluster::new(Topology::multinational(3), ClusterConfig, 5);
    cluster.run_until(t(5));
    cluster.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(60),
        [SiteId(2)],
    ));
    let mut ids = Vec::new();
    let mut w = t(110);
    for i in 0..60u64 {
        ids.push(cluster.submit_write_at(w, 0, SubscriberUid(i), None));
        w += SimDuration::from_millis(200);
    }
    let report = cluster.run_until(t(200));
    assert!(report.violations.is_empty());
    let committed_during = ids
        .iter()
        .filter(|id| report.fates[id].chosen_at.is_some_and(|c| c <= t(160)))
        .count();
    assert_eq!(
        committed_during,
        ids.len(),
        "every majority-side write must commit during the partition"
    );
}

/// Commands decided by consensus apply to storage engines in slot order,
/// producing identical replica states — the determinism §3.2 demands of
/// replication ("the serialization order of writes replicated to any slave
/// copy is exactly the same"), now without a distinguished master.
#[test]
fn chosen_log_applies_identically_on_every_replica() {
    let mut cluster = ConsensusCluster::new(Topology::multinational(3), ClusterConfig, 9);
    for i in 0..40u64 {
        let mut entry = udr::model::Entry::new();
        entry.set(AttrId::OdbMask, i);
        // Write the same three uids over and over: final state depends on
        // application order, so identical states prove identical order.
        cluster.submit_write_at(
            t(2) + SimDuration::from_millis(120 * i),
            (i % 3) as u32,
            SubscriberUid(i % 3),
            Some(entry),
        );
    }
    cluster.schedule_script(&FaultScript::new(0).clean_partition(
        t(3),
        SimDuration::from_secs(2),
        [SiteId(1)],
    ));
    let report = cluster.run_until(t(60));
    assert!(report.violations.is_empty());
    assert_eq!(report.committed(), 40);

    // Apply each node's effective log to a fresh storage engine.
    let mut states = Vec::new();
    for node in 0..cluster.len() {
        let mut engine = Engine::new(udr::model::ids::SeId(node as u32));
        for (slot, cmd) in cluster.node(node).log().iter_effective() {
            let Payload::Write { uid, entry } = &cmd.payload else {
                continue;
            };
            let txn = engine.begin(udr::model::IsolationLevel::ReadCommitted);
            match entry {
                Some(e) => engine.put(txn, *uid, e.clone()).unwrap(),
                None => engine.delete(txn, *uid).unwrap(),
            }
            engine.commit(txn, SimTime(slot.raw())).unwrap();
        }
        let mut state: Vec<_> = engine
            .iter_committed()
            .map(|view| (view.uid, view.entry.cloned()))
            .collect();
        state.sort_by_key(|(uid, _)| *uid);
        states.push(state);
    }
    for s in &states[1..] {
        assert_eq!(&states[0], s, "replica states diverged");
    }
}

/// The repro's §6 claim end-to-end: a leader-site catastrophe (§3.1's
/// "unforeseen events") interrupts provisioning for seconds, not for the
/// outage duration, and loses nothing.
#[test]
fn leader_site_catastrophe_is_survivable() {
    let mut cluster = ConsensusCluster::new(Topology::multinational(5), ClusterConfig, 13);
    cluster.run_until(t(5));
    let leader = cluster.current_leader().expect("leader by t=5");
    let origin = (0..5u32).find(|i| NodeId(*i) != leader).unwrap();

    cluster.schedule_script(&FaultScript::new(0).se_crash(t(20), SeId(leader.0)));
    let mut ids = Vec::new();
    for i in 0..100u64 {
        ids.push(cluster.submit_write_at(
            t(10) + SimDuration::from_millis(300 * i),
            origin,
            SubscriberUid(i),
            None,
        ));
    }
    let report = cluster.run_until(t(120));
    assert!(report.violations.is_empty());
    assert_eq!(report.committed(), 100, "no write may be lost to the crash");

    // Writes stalled only around the failover: the longest commit latency
    // is bounded by a few election timeouts, not by the outage length.
    let worst = report
        .commit_latencies()
        .into_iter()
        .max()
        .expect("latencies recorded");
    assert!(
        worst < SimDuration::from_secs(10),
        "failover stall too long: {worst}"
    );
}
