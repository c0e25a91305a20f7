//! System-level tests of the assembled UDR: the paper's qualitative claims
//! must hold on the Figure 2 deployment.

use udr_bench::check::committed_value;
use udr_bench::harness::{numbered_ims_ids as ids, t};
use udr_core::{BatchItem, OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{
    DurabilityMode, LocatorKind, Pacelc, PlacementPolicy, ReplicationMode, TxnClass,
};
use udr_model::error::UdrError;
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::{SeId, SiteId};
use udr_model::procedures::ProcedureKind;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::FaultScript;
use udr_workload::RetryPolicy;

/// Provision `n` subscribers with home regions round-robin over sites.
fn provision_n(udr: &mut Udr, n: u64, sites: u32) -> Vec<IdentitySet> {
    let mut subs = Vec::with_capacity(n as usize);
    for i in 0..n {
        let set = ids(i);
        let region = (i % u64::from(sites)) as u32;
        let out = udr.provision_subscriber(
            &set,
            region,
            SiteId(0),
            t(1) + SimDuration::from_millis(i * 5),
        );
        assert!(out.is_ok(), "provisioning {i} failed: {:?}", out.op.result);
        subs.push(set);
    }
    subs
}

#[test]
fn provision_then_serve_procedures() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_n(&mut udr, 30, 3);
    assert_eq!(udr.total_subscribers(), 30);

    // Every procedure kind runs successfully for a home subscriber.
    let mut at = t(10);
    for (i, kind) in ProcedureKind::ALL.iter().enumerate() {
        let set = &subs[i % subs.len()];
        let home = SiteId((i % 3) as u32);
        let out = udr
            .execute(OpRequest::procedure(*kind, set).site(home).at(at))
            .into_procedure();
        assert!(out.success, "{kind} failed: {:?}", out.failure);
        assert_eq!(out.ops_ok, kind.total_ops());
        at += SimDuration::from_millis(50);
    }
    assert!(udr.metrics.fe_ops.ok > 0);
}

#[test]
fn default_config_is_pa_el_for_fe_and_pc_ec_for_ps() {
    let udr = Udr::build(UdrConfig::figure2()).unwrap();
    assert_eq!(udr.pacelc_for(TxnClass::FrontEnd), Pacelc::PA_EL);
    assert_eq!(udr.pacelc_for(TxnClass::Provisioning), Pacelc::PC_EC);
}

#[test]
fn local_reads_meet_the_10ms_target() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_n(&mut udr, 30, 3);
    // Home-region traffic: subscriber i has home region i%3, data pinned
    // there; FE at the same site reads locally.
    let mut at = t(20);
    for (i, set) in subs.iter().enumerate() {
        let site = SiteId((i % 3) as u32);
        let out = udr
            .execute(
                OpRequest::procedure(ProcedureKind::CallSetupMo, set)
                    .site(site)
                    .at(at),
            )
            .into_procedure();
        assert!(out.success);
        at += SimDuration::from_millis(10);
    }
    let mean = udr.metrics.fe_latency.mean();
    assert!(
        mean < SimDuration::from_millis(10),
        "mean FE latency {mean} breaches the §2.3 target"
    );
}

#[test]
fn partition_fails_provisioning_but_not_fe_reads() {
    // §4.1: on a partition, FE transactions (mostly reads) proceed, PS
    // transactions (writes) almost always fail.
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_n(&mut udr, 30, 3);

    // Partition site 2 away from sites 0-1 from t=100 for 60 s.
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(60),
        [SiteId(2)],
    ));

    let mut fe_ok = 0;
    let mut fe_fail = 0;
    let mut ps_ok = 0;
    let mut ps_fail = 0;
    let mut at = t(110);
    for (i, set) in subs.iter().enumerate() {
        // FE at site 2 (inside the island) reading its local data.
        let read = udr
            .execute(
                OpRequest::procedure(ProcedureKind::SmsDelivery, set)
                    .site(SiteId(2))
                    .at(at),
            )
            .into_procedure();
        if read.success {
            fe_ok += 1;
        } else {
            fe_fail += 1;
        }
        // PS at site 0 modifying subscribers homed at site 2 — the master
        // is unreachable, so these must fail.
        if i % 3 == 2 {
            let modify = udr.modify_services(
                &Identity::Imsi(set.imsi),
                vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(1))],
                SiteId(0),
                at,
            );
            if modify.is_ok() {
                ps_ok += 1;
            } else {
                ps_fail += 1;
            }
        }
        at += SimDuration::from_millis(20);
    }
    // Every subscriber has a replica reachable from site 2 (RF=3 across 3
    // sites), so FE reads keep working.
    assert_eq!(fe_fail, 0, "FE reads failed during partition");
    assert!(fe_ok > 0);
    // Writes to island-homed masters fail: C chosen over A (§3.2).
    assert_eq!(ps_ok, 0, "PS writes to partitioned masters must fail");
    assert!(ps_fail > 0);

    // After heal, provisioning works again.
    let modify = udr.modify_services(
        &Identity::Imsi(subs[2].imsi),
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(2))],
        SiteId(0),
        t(200),
    );
    assert!(
        modify.is_ok(),
        "post-heal write failed: {:?}",
        modify.result
    );
}

#[test]
fn slave_reads_can_be_stale_then_converge() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    let victim = &subs[0]; // homed at site 0
    let imsi = Identity::Imsi(victim.imsi);

    // Let replication settle, then write at the master...
    udr.advance_to(t(50));
    let w = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::CallBarring, AttrValue::Bool(true))],
        SiteId(0),
        t(60),
    );
    assert!(w.is_ok());
    // ...and read instantly from site 1 (slave copy): must be stale because
    // the async replication delivery (~15 ms WAN) has not landed yet.
    let stale_before = udr.metrics.staleness.stale_reads;
    let r = udr
        .execute(
            OpRequest::procedure(ProcedureKind::CallSetupMo, victim)
                .site(SiteId(1))
                .at(t(60)),
        )
        .into_procedure();
    assert!(r.success);
    assert!(
        udr.metrics.staleness.stale_reads > stale_before,
        "instant remote read should observe stale data"
    );

    // After a second, replication has delivered; the same read is fresh.
    let stale_mid = udr.metrics.staleness.stale_reads;
    let r2 = udr
        .execute(
            OpRequest::procedure(ProcedureKind::CallSetupMo, victim)
                .site(SiteId(1))
                .at(t(61)),
        )
        .into_procedure();
    assert!(r2.success);
    assert_eq!(
        udr.metrics.staleness.stale_reads, stale_mid,
        "read after lag should be fresh"
    );
}

#[test]
fn master_crash_fails_writes_until_failover_promotes() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.failover_detection = SimDuration::from_secs(5);
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    let victim = &subs[0]; // homed at site 0: master is SE 0
    let imsi = Identity::Imsi(victim.imsi);
    let master = udr
        .group(udr.lookup_authority(&imsi).unwrap().partition)
        .master();

    udr.schedule_script(&FaultScript::new(0).se_crash(t(100), master));

    // Before detection completes, writes fail.
    let w1 = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(1))],
        SiteId(0),
        t(102),
    );
    assert!(!w1.is_ok(), "write succeeded with crashed master");

    // After detection + promotion, writes succeed on the new master.
    let w2 = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(2))],
        SiteId(0),
        t(110),
    );
    assert!(w2.is_ok(), "write after failover failed: {:?}", w2.result);
    assert!(udr.metrics.failovers >= 1);
    let partition = udr.lookup_authority(&imsi).unwrap().partition;
    assert_ne!(udr.group(partition).master(), master);
}

#[test]
fn reads_survive_se_crash_via_other_replicas() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    udr.advance_to(t(50)); // let replication settle
    udr.schedule_script(&FaultScript::new(0).se_crash(t(100), SeId(0)));

    // All subscribers stay readable from every site (RF=3).
    let mut at = t(101);
    for set in &subs {
        for site in 0..3u32 {
            let out = udr
                .execute(
                    OpRequest::procedure(ProcedureKind::SmsDelivery, set)
                        .site(SiteId(site))
                        .at(at),
                )
                .into_procedure();
            assert!(out.success, "read failed after SE crash: {:?}", out.failure);
            at += SimDuration::from_millis(7);
        }
    }
}

#[test]
fn multimaster_keeps_provisioning_alive_and_merges_after_heal() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::MultiMaster;
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    let victim = &subs[2]; // homed at site 2
    let imsi = Identity::Imsi(victim.imsi);
    udr.advance_to(t(50));

    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(60),
        [SiteId(2)],
    ));

    // Writes from BOTH sides of the cut succeed (PA behaviour, §5)...
    let w_majority = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(11))],
        SiteId(0),
        t(110),
    );
    assert!(
        w_majority.is_ok(),
        "majority-side write failed: {:?}",
        w_majority.result
    );
    let w_island = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(22))],
        SiteId(2),
        t(111),
    );
    assert!(
        w_island.is_ok(),
        "island-side write failed: {:?}",
        w_island.result
    );

    // After heal, the restoration process merges and counts the conflict.
    udr.advance_to(t(200));
    assert!(udr.metrics.merges >= 1, "no restoration ran");
    assert!(
        udr.metrics.merge_conflicts >= 1,
        "conflicting writes not detected"
    );

    // All replicas converge: reads from any site agree.
    let partition = udr.lookup_authority(&imsi).unwrap().partition;
    let uid = udr.lookup_authority(&imsi).unwrap().uid;
    let values: Vec<Option<u64>> = udr
        .group(partition)
        .members()
        .iter()
        .map(|se| {
            udr.se(*se)
                .read_committed(partition, uid)
                .unwrap()
                .and_then(|e| e.get(AttrId::OdbMask).and_then(AttrValue::as_u64))
        })
        .collect();
    assert!(
        values.windows(2).all(|w| w[0] == w[1]),
        "replicas diverge: {values:?}"
    );
    // LWW: the later write (island side, t=111) won.
    assert_eq!(values[0], Some(22));
}

#[test]
fn periodic_snapshot_bounds_crash_loss_and_reseed_restores_fleet() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.durability = DurabilityMode::PeriodicSnapshot {
        interval: SimDuration::from_secs(30),
    };
    cfg.frash.auto_failover = false; // keep mastership fixed for the check
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    let victim = &subs[0];
    let imsi = Identity::Imsi(victim.imsi);
    let loc = udr.lookup_authority(&imsi).unwrap();
    let master = udr.group(loc.partition).master();

    // Write at t=40 (after the t=30 snapshot), crash at t=45, restore t=50.
    let w = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(7))],
        SiteId(0),
        t(40),
    );
    assert!(w.is_ok());
    udr.schedule_script(&FaultScript::new(0).se_outage(t(45), SimDuration::from_secs(5), master));
    udr.advance_to(t(55));

    // The restored master rebuilt itself from the most caught-up slave
    // (which had the t=40 write replicated), so nothing was lost.
    assert_eq!(udr.shard_map().master_of(loc.partition), Some(master));
    assert_eq!(committed_value(&udr, &imsi), Some(7));
    assert!(udr.metrics.reseeds >= 1);
}

#[test]
fn sync_commit_masters_lose_nothing_even_without_slaves() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.durability = DurabilityMode::SyncCommit;
    cfg.frash.replication_factor = 1; // no replicas: disk is the only net
    cfg.frash.auto_failover = false;
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 6, 3);
    let victim = &subs[0];
    let imsi = Identity::Imsi(victim.imsi);
    let loc = udr.lookup_authority(&imsi).unwrap();
    let master = udr.group(loc.partition).master();

    let w = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(9))],
        SiteId(0),
        t(40),
    );
    assert!(w.is_ok());
    udr.schedule_script(&FaultScript::new(0).se_outage(t(41), SimDuration::from_secs(4), master));
    udr.advance_to(t(50));

    assert_eq!(udr.shard_map().master_of(loc.partition), Some(master));
    assert_eq!(committed_value(&udr, &imsi), Some(9));
    assert_eq!(udr.metrics.lost_commits, 0);
}

#[test]
fn dual_in_sequence_waits_for_second_replica_and_fails_on_partition() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::DualInSequence;
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    let victim = &subs[0];
    let imsi = Identity::Imsi(victim.imsi);

    // Healthy: the write waits one WAN round trip more than async would.
    let w = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(1))],
        SiteId(0),
        t(50),
    );
    assert!(w.is_ok());
    assert!(
        w.latency > SimDuration::from_millis(15),
        "dual-in-sequence latency {} should include a WAN ack",
        w.latency
    );

    // Cut the master's site off from both slave sites: the second copy is
    // unreachable, the transaction reports failure (§5: one replica updated
    // is acceptable but the commit fails).
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(30),
        [SiteId(0)],
    ));
    let w2 = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(2))],
        SiteId(0),
        t(105),
    );
    assert!(
        matches!(w2.result, Err(UdrError::ReplicationFailed { .. })),
        "{:?}",
        w2.result
    );
    assert!(udr.metrics.partial_commits >= 1);
}

#[test]
fn quorum_write_latency_and_partition_behaviour() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::Quorum { n: 3, w: 2, r: 2 };
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    let victim = &subs[0];
    let imsi = Identity::Imsi(victim.imsi);

    // Healthy quorum write: waits for the 2nd ack (one WAN RTT).
    let w = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(1))],
        SiteId(0),
        t(50),
    );
    assert!(w.is_ok());
    assert!(
        w.latency > SimDuration::from_millis(15),
        "quorum w=2 latency {}",
        w.latency
    );

    // Reads go through the ensemble too.
    let r = udr
        .execute(
            OpRequest::procedure(ProcedureKind::CallSetupMo, victim)
                .site(SiteId(0))
                .at(t(51)),
        )
        .into_procedure();
    assert!(r.success);
    assert!(
        r.latency > SimDuration::from_millis(15),
        "quorum r=2 latency {}",
        r.latency
    );

    // Island of one site: the master side retains quorum (2 of 3 sites),
    // so writes from the majority side still succeed.
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(30),
        [SiteId(2)],
    ));
    let w2 = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(2))],
        SiteId(0),
        t(105),
    );
    assert!(
        w2.is_ok(),
        "majority-side quorum write failed: {:?}",
        w2.result
    );

    // Master alone on an island: quorum lost, write fails.
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(200),
        SimDuration::from_secs(30),
        [SiteId(0)],
    ));
    let w3 = udr.modify_services(
        &imsi,
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(3))],
        SiteId(0),
        t(205),
    );
    assert!(
        matches!(w3.result, Err(UdrError::ReplicationFailed { .. })),
        "{:?}",
        w3.result
    );
}

#[test]
fn scale_out_sync_window_blocks_new_poa_with_provisioned_maps() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_n(&mut udr, 30, 3);
    // New cluster at site 1 starts syncing at t=100.
    let idx = udr.add_cluster(SiteId(1), t(100));
    assert!(udr.cluster_sync_done_at(idx).is_some());

    // Traffic through site 1 round-robins onto the new PoA: during the
    // window some operations fail with LocationStageSyncing.
    let mut syncing_failures = 0;
    let mut at = t(100) + SimDuration::from_millis(5);
    for set in subs.iter().take(10) {
        let out = udr
            .execute(
                OpRequest::procedure(ProcedureKind::SmsDelivery, set)
                    .site(SiteId(1))
                    .at(at),
            )
            .into_procedure();
        if let Some(UdrError::LocationStageSyncing) = out.failure {
            syncing_failures += 1;
        }
        at += SimDuration::from_millis(10);
    }
    assert!(syncing_failures > 0, "no operation hit the sync window");

    // Long after the window, the new PoA serves.
    let mut all_ok = true;
    let mut at = t(1000);
    for set in subs.iter().take(10) {
        let out = udr
            .execute(
                OpRequest::procedure(ProcedureKind::SmsDelivery, set)
                    .site(SiteId(1))
                    .at(at),
            )
            .into_procedure();
        all_ok &= out.success;
        at += SimDuration::from_millis(10);
    }
    assert!(all_ok, "new PoA still failing after sync window");
}

/// A PoA added by scale-out resolves through the deployment's one identity
/// table: a subscriber provisioned during its sync window is found through
/// it afterwards, and one deleted during the window is unknown there. During
/// the window it answers `LocationStageSyncing`.
#[test]
fn a_new_poa_sees_what_changed_during_its_sync_window() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_n(&mut udr, 30, 3);
    let idx = udr.add_cluster(SiteId(1), t(100));
    let done_at = udr.cluster_sync_done_at(idx).expect("the new PoA syncs");

    let mut at = t(100) + SimDuration::from_millis(10);
    let fresh = ids(100);
    let out = udr.provision_subscriber(&fresh, 1, SiteId(0), at);
    assert!(out.is_ok(), "provisioning failed: {:?}", out.op.result);
    at += SimDuration::from_millis(10);
    let out = udr.delete_subscription(&subs[1], SiteId(0), at);
    assert!(out.is_ok(), "delete failed: {:?}", out.result);

    // Site 1 round-robins over its old PoA and the new one, so of any two
    // consecutive searches from there one goes through each.
    let search_twice = |udr: &mut Udr, identity: Identity, at: &mut SimTime| {
        let op = LdapOp::Search {
            base: Dn::for_identity(identity),
            attrs: vec![],
        };
        [(); 2].map(|()| {
            *at += SimDuration::from_millis(10);
            udr.execute(OpRequest::new(&op).site(SiteId(1)).at(*at))
                .into_op()
                .result
        })
    };
    for identity in [Identity::from(fresh.imsi), Identity::from(subs[1].imsi)] {
        let results = search_twice(&mut udr, identity, &mut at);
        assert!(at < done_at, "the window ended at {done_at:?}");
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(UdrError::LocationStageSyncing))),
            "no search of {identity} hit the sync window: {results:?}"
        );
    }

    let mut at = t(1000);
    for identity in fresh.iter() {
        for result in search_twice(&mut udr, identity, &mut at) {
            assert!(
                matches!(result, Ok(Some(_))),
                "provisioned {identity} gave {result:?}"
            );
        }
    }
    for identity in subs[1].iter() {
        for result in search_twice(&mut udr, identity, &mut at) {
            assert!(
                matches!(result, Err(UdrError::UnknownIdentity(_))),
                "deleted {identity} gave {result:?}"
            );
        }
    }
}

#[test]
fn cached_locator_probes_on_miss_then_hits() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.locator = LocatorKind::CachedMaps;
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    // Provisioning warmed the caches; a fresh cluster at site 0 has a cold
    // cache.
    udr.add_cluster(SiteId(0), t(50));
    let probes_before = udr.metrics.dls_probes;
    // Force traffic through the new (cold) PoA repeatedly.
    let mut at = t(51);
    for _ in 0..4 {
        let out = udr
            .execute(
                OpRequest::procedure(ProcedureKind::SmsDelivery, &subs[0])
                    .site(SiteId(0))
                    .at(at),
            )
            .into_procedure();
        assert!(out.success, "{:?}", out.failure);
        at += SimDuration::from_millis(10);
    }
    assert!(
        udr.metrics.dls_probes > probes_before,
        "cold cache never probed"
    );
}

/// Deleting a subscription unbinds its identities in every location
/// stage, whichever realisation it hosts: a search by any of the four
/// fails as an unknown identity, not as a missing record, while the other
/// subscriber keeps resolving.
#[test]
fn delete_subscription_unbinds_every_identity() {
    for locator in [
        LocatorKind::ProvisionedMaps,
        LocatorKind::CachedMaps,
        LocatorKind::ConsistentHashing,
    ] {
        let mut cfg = UdrConfig::figure2();
        cfg.frash.locator = locator;
        let mut udr = Udr::build(cfg).unwrap();
        let subs = provision_n(&mut udr, 2, 3);
        assert_eq!(udr.total_subscribers(), 2);
        let out = udr.delete_subscription(&subs[0], SiteId(0), t(5));
        assert!(out.is_ok(), "{locator:?}: delete failed: {:?}", out.result);
        assert_eq!(udr.total_subscribers(), 1, "{locator:?}");

        let mut at = t(10);
        let mut search = |udr: &mut Udr, identity: Identity| {
            let op = LdapOp::Search {
                base: Dn::for_identity(identity),
                attrs: vec![],
            };
            at += SimDuration::from_millis(10);
            udr.execute(OpRequest::new(&op).site(SiteId(0)).at(at))
                .into_op()
                .result
        };
        for identity in subs[0].iter() {
            let result = search(&mut udr, identity);
            assert!(
                matches!(result, Err(UdrError::UnknownIdentity(_))),
                "{locator:?}: deleted {identity} gave {result:?}"
            );
        }
        for identity in subs[1].iter() {
            let result = search(&mut udr, identity);
            assert!(
                result.is_ok(),
                "{locator:?}: kept {identity} gave {result:?}"
            );
        }
    }
}

#[test]
fn batch_survives_glitch_with_retries_but_not_without() {
    // §4.1: "a network glitch as short as 30 seconds may cause a batch
    // that's been running for hours to fail".
    let build = || {
        let mut cfg = UdrConfig::figure2();
        cfg.frash.placement = PlacementPolicy::Random;
        Udr::build(cfg).unwrap()
    };
    let items = |n: u64| -> Vec<BatchItem> {
        (0..n)
            .map(|i| BatchItem::Create {
                ids: ids(1000 + i),
                home_region: (i % 3) as u32,
            })
            .collect()
    };

    // A backbone glitch at t=30 for 30 s; the batch runs 10 items/s for 60s.
    let mut udr = build();
    udr.schedule_script(&FaultScript::new(0).glitch(t(30), SimDuration::from_secs(30)));
    let no_retry = udr.run_provisioning_batch(
        items(600),
        10.0,
        t(0),
        SiteId(0),
        RetryPolicy::fixed(1, SimDuration::from_secs(1)),
        1,
    );
    assert!(
        no_retry.failed > 100,
        "glitch should fail a large chunk without retries, failed={}",
        no_retry.failed
    );

    let mut udr = build();
    udr.schedule_script(&FaultScript::new(0).glitch(t(30), SimDuration::from_secs(30)));
    let with_retry = udr.run_provisioning_batch(
        items(600),
        10.0,
        t(0),
        SiteId(0),
        RetryPolicy::fixed(10, SimDuration::from_secs(10)),
        1,
    );
    assert!(with_retry.failed < no_retry.failed);
    assert!(with_retry.retries > 0);
    assert!(
        with_retry.backlog.max().unwrap_or(0.0) > 1.0,
        "backlog never grew"
    );
}

#[test]
fn home_region_placement_avoids_backbone() {
    let run = |placement: PlacementPolicy| -> f64 {
        let mut cfg = UdrConfig::figure2();
        cfg.frash.placement = placement;
        cfg.seed = 7;
        let mut udr = Udr::build(cfg).unwrap();
        let subs = provision_n(&mut udr, 30, 3);
        udr.metrics.backbone_ops = 0;
        udr.metrics.local_ops = 0;
        let mut at = t(50);
        for (i, set) in subs.iter().enumerate() {
            // FE traffic always from the subscriber's home region. With
            // RF = sites every site holds a copy, so *reads* are always
            // local; the placement effect shows on the write leg
            // (LocationUpdate writes to the master).
            let site = SiteId((i % 3) as u32);
            let out = udr
                .execute(
                    OpRequest::procedure(ProcedureKind::LocationUpdate, set)
                        .site(site)
                        .at(at),
                )
                .into_procedure();
            assert!(out.success);
            at += SimDuration::from_millis(10);
        }
        udr.metrics.backbone_fraction()
    };
    let pinned = run(PlacementPolicy::HomeRegion);
    let random = run(PlacementPolicy::Random);
    assert_eq!(
        pinned, 0.0,
        "home-region pinning should keep home traffic local"
    );
    assert!(
        random > 0.3,
        "random placement should cross the backbone, got {random}"
    );
}

#[test]
fn readable_fraction_probe_tracks_partitions() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    provision_n(&mut udr, 30, 3);
    udr.advance_to(t(50));
    assert_eq!(udr.readable_subscriber_fraction(SiteId(0)), 1.0);

    // Crash two of three SEs: every partition still has one copy (RF=3),
    // so data stays readable — the §2.3 "one PoA and one SE" claim.
    udr.schedule_script(
        &FaultScript::new(0)
            .se_crash(t(100), SeId(0))
            .se_crash(t(100), SeId(1)),
    );
    udr.advance_to(t(101));
    assert_eq!(udr.readable_subscriber_fraction(SiteId(2)), 1.0);
    // Writability is gone for partitions whose master crashed until
    // failover runs (detection is 5 s).
    udr.advance_to(t(120));
    assert!(udr.metrics.failovers > 0);
}

#[test]
fn bind_and_compare_route_like_reads() {
    use udr_ldap::{Dn, LdapOp};
    use udr_model::attrs::AttrValue;

    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_n(&mut udr, 9, 3);
    let sub = &subs[0];
    let identity = Identity::Imsi(sub.imsi);

    // Bind against the subscriber's entry succeeds and is a read
    // (served from the nearest copy, never the master exclusively).
    let bind = LdapOp::Bind {
        dn: Dn::for_identity(identity),
        password: b"fe-secret".to_vec(),
    };
    let out = udr
        .execute(
            OpRequest::new(&bind)
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(50)),
        )
        .into_op();
    assert!(out.is_ok(), "{:?}", out.result);

    // Compare on a fresh profile: call barring is false.
    let cmp_false = LdapOp::Compare {
        dn: Dn::for_identity(identity),
        attr: AttrId::CallBarring,
        value: AttrValue::Bool(true),
    };
    let out = udr
        .execute(
            OpRequest::new(&cmp_false)
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(51)),
        )
        .into_op();
    assert!(
        matches!(&out.result, Ok(None)),
        "compareFalse expected: {:?}",
        out.result
    );

    // Set barring, then the same compare matches.
    let w = udr.modify_services(
        &identity,
        vec![AttrMod::Set(AttrId::CallBarring, AttrValue::Bool(true))],
        SiteId(0),
        t(52),
    );
    assert!(w.is_ok());
    let out = udr
        .execute(
            OpRequest::new(&cmp_false)
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(53)),
        )
        .into_op();
    assert!(
        matches!(&out.result, Ok(Some(_))),
        "compareTrue expected: {:?}",
        out.result
    );
}
