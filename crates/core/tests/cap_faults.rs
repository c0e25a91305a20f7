//! Fault-campaign wiring through the event pump: clean partitions yield
//! *typed* partition errors (never generic timeouts), grey failures
//! (one-way loss, WAN brown-outs) degrade without partitioning, and the
//! deployment measurably re-converges after heal.

use udr_consensus::Slot;
use udr_core::{MigrationPlan, MoveReason, OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{DurabilityMode, ReadPolicy, ReplicationMode, TxnClass};
use udr_model::error::UdrError;
use udr_model::identity::{Identity, IdentitySet, Imsi, Msisdn};
use udr_model::ids::{PartitionId, SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::{LatencyModel, LinkProfile};
use udr_sim::FaultScript;
use udr_storage::Lsn;

fn ids(n: u64) -> IdentitySet {
    IdentitySet {
        imsi: Imsi::new(format!("21401{n:010}")).unwrap(),
        msisdn: Msisdn::new(format!("346{n:08}")).unwrap(),
        impus: vec![],
        impi: None,
    }
}

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Make every backbone link a loss-free 15 ms WAN link.
fn lossless_wan(udr: &mut Udr) {
    let wan = LinkProfile {
        latency: LatencyModel::wan(SimDuration::from_millis(15)),
        loss: 0.0,
    };
    for a in 0..3u32 {
        for b in 0..3u32 {
            if a != b {
                udr.net
                    .topology_mut()
                    .set_link(SiteId(a), SiteId(b), wan.clone());
            }
        }
    }
}

/// A loss-free figure-2 deployment with one subscriber per home region
/// (subscriber `r` is mastered at site `r` under home-region placement).
fn build(mode: ReplicationMode, policy: ReadPolicy, seed: u64) -> (Udr, Vec<IdentitySet>) {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = mode;
    cfg.frash.fe_read_policy = policy;
    cfg.seed = seed;
    let mut udr = Udr::build(cfg).expect("valid config");
    lossless_wan(&mut udr);
    let mut subs = Vec::new();
    for r in 0..3u64 {
        let subscriber = ids(r + 1);
        let out = udr.provision_subscriber(
            &subscriber,
            r as u32,
            SiteId(0),
            SimTime::ZERO + SimDuration::from_millis(1 + r),
        );
        assert!(out.is_ok(), "provisioning failed: {:?}", out.op.result);
        subs.push(subscriber);
    }
    (udr, subs)
}

fn write_op(subscriber: &IdentitySet, value: u64) -> LdapOp {
    LdapOp::Modify {
        dn: Dn::for_identity(Identity::Imsi(subscriber.imsi)),
        mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(value))],
    }
}

fn read_op(subscriber: &IdentitySet) -> LdapOp {
    LdapOp::Search {
        base: Dn::for_identity(Identity::Imsi(subscriber.imsi)),
        attrs: vec![AttrId::OdbMask],
    }
}

fn cut_site2(udr: &mut Udr) {
    udr.schedule_script(&FaultScript::new(1).clean_partition(
        t(10),
        SimDuration::from_secs(20),
        [SiteId(2)],
    ));
}

#[test]
fn async_cross_cut_write_fails_typed() {
    let (mut udr, subs) = build(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        11,
    );
    cut_site2(&mut udr);
    // Sub homed at site 2 written from site 0: the master sits on the far
    // side of the cut.
    let out = udr
        .execute(
            OpRequest::new(&write_op(&subs[2], 7))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(15)),
        )
        .into_op();
    let err = out.result.unwrap_err();
    assert!(
        err.is_partition_induced(),
        "expected a typed partition error, got {err:?}"
    );
    assert!(!matches!(err, UdrError::Timeout));
}

#[test]
fn sync_modes_fail_replication_typed_during_cut() {
    for mode in [
        ReplicationMode::DualInSequence,
        ReplicationMode::Quorum { n: 3, w: 2, r: 2 },
    ] {
        let (mut udr, subs) = build(mode, ReadPolicy::NearestCopy, 13);
        cut_site2(&mut udr);
        // Written at its home site: the master commits locally but the
        // replication requirement reaches across the cut.
        let out = udr
            .execute(
                OpRequest::new(&write_op(&subs[2], 9))
                    .class(TxnClass::FrontEnd)
                    .site(SiteId(2))
                    .at(t(15)),
            )
            .into_op();
        let err = out.result.unwrap_err();
        assert!(
            matches!(err, UdrError::ReplicationFailed { .. }),
            "{mode}: expected ReplicationFailed, got {err:?}"
        );
        assert!(err.is_partition_induced());
        assert_eq!(udr.metrics.partial_commits, 1, "{mode}");
    }
}

#[test]
fn master_only_cross_cut_read_fails_typed() {
    let (mut udr, subs) = build(ReplicationMode::MultiMaster, ReadPolicy::MasterOnly, 17);
    cut_site2(&mut udr);
    let out = udr
        .execute(
            OpRequest::new(&read_op(&subs[2]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(15)),
        )
        .into_op();
    let err = out.result.unwrap_err();
    assert!(
        err.is_partition_induced(),
        "expected a typed partition error, got {err:?}"
    );
    // Nearest-copy reads of the same record keep being served locally —
    // the AP half of the same deployment.
    let (mut udr, subs) = build(ReplicationMode::MultiMaster, ReadPolicy::NearestCopy, 17);
    cut_site2(&mut udr);
    let out = udr
        .execute(
            OpRequest::new(&read_op(&subs[2]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(15)),
        )
        .into_op();
    assert!(out.is_ok(), "nearest-copy read failed: {:?}", out.result);
}

#[test]
fn one_way_loss_is_grey_not_partitioned() {
    let (mut udr, subs) = build(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        19,
    );
    udr.schedule_script(&FaultScript::new(2).asymmetric_loss(
        t(10),
        SimDuration::from_secs(20),
        [SiteId(2)],
    ));
    udr.advance_to(t(12));
    assert!(udr.net.degraded());
    assert!(!udr.net.partitioned());
    assert!(udr.net.reachable(SiteId(2), SiteId(0)));
    // Crossing the bad direction times out — a grey failure, not a typed
    // partition (failure detectors cannot see it either).
    let out = udr
        .execute(
            OpRequest::new(&write_op(&subs[0], 3))
                .class(TxnClass::FrontEnd)
                .site(SiteId(2))
                .at(t(15)),
        )
        .into_op();
    let err = out.result.unwrap_err();
    assert!(matches!(err, UdrError::Timeout), "got {err:?}");
    assert!(!err.is_partition_induced());
    // Local reads on the lossy island still serve.
    let out = udr
        .execute(
            OpRequest::new(&read_op(&subs[2]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(2))
                .at(t(16)),
        )
        .into_op();
    assert!(out.is_ok());
    // The window clears on schedule.
    udr.advance_to(t(31));
    assert!(!udr.net.degraded());
    let out = udr
        .execute(
            OpRequest::new(&write_op(&subs[0], 4))
                .class(TxnClass::FrontEnd)
                .site(SiteId(2))
                .at(t(32)),
        )
        .into_op();
    assert!(out.is_ok(), "post-heal write failed: {:?}", out.result);
}

#[test]
fn wan_degrade_stretches_remote_reads() {
    let (mut udr, subs) = build(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::MasterOnly,
        23,
    );
    udr.schedule_script(&FaultScript::new(3).wan_degradation(
        t(10),
        SimDuration::from_secs(20),
        8.0,
        0.0,
    ));
    // Remote master-only read during the brown-out vs after it.
    let slow = udr
        .execute(
            OpRequest::new(&read_op(&subs[2]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(15)),
        )
        .into_op();
    assert!(slow.is_ok(), "degraded read failed: {:?}", slow.result);
    let fast = udr
        .execute(
            OpRequest::new(&read_op(&subs[2]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(35)),
        )
        .into_op();
    assert!(fast.is_ok());
    assert!(
        slow.latency > fast.latency * 3,
        "8× brown-out barely visible: {} vs {}",
        slow.latency,
        fast.latency
    );
}

#[test]
fn replication_relag_and_settle_after_heal() {
    let (mut udr, subs) = build(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        29,
    );
    cut_site2(&mut udr);
    // Writes at site 0 during the cut: the site-2 slave cannot apply them.
    for i in 0..4u64 {
        let out = udr
            .execute(
                OpRequest::new(&write_op(&subs[0], 100 + i))
                    .class(TxnClass::FrontEnd)
                    .site(SiteId(0))
                    .at(t(15 + i)),
            )
            .into_op();
        assert!(out.is_ok(), "home write failed: {:?}", out.result);
    }
    udr.advance_to(t(25));
    assert!(udr.max_replica_lag() >= 4, "lag {}", udr.max_replica_lag());
    assert!(!udr.replication_settled());
    // After heal, periodic catch-up drains the backlog.
    udr.advance_to(t(32));
    assert_eq!(udr.max_replica_lag(), 0);
    assert!(udr.replication_settled());
}

#[test]
fn flapping_cycles_cut_and_heal() {
    let (mut udr, _) = build(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        31,
    );
    // Two 3 s-down / 2 s-up cycles starting at t=10.
    udr.schedule_script(&FaultScript::new(4).flapping(
        t(10),
        [SiteId(2)],
        2,
        SimDuration::from_secs(3),
        SimDuration::from_secs(2),
    ));
    udr.advance_to(t(11)); // 1 s into cycle 1's down window (≥ 2.4 s long)
    assert!(udr.net.partitioned());
    udr.advance_to(t(14)); // past the longest possible down window
    assert!(!udr.net.partitioned());
    udr.advance_to(t(16)); // 1 s into cycle 2's down window
    assert!(udr.net.partitioned());
    udr.advance_to(t(21));
    assert!(!udr.net.partitioned());
    assert!(udr.replication_settled());
}

#[test]
fn se_outage_script_crashes_and_restores() {
    let (mut udr, subs) = build(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        37,
    );
    udr.schedule_script(&FaultScript::new(5).se_outage(t(10), SimDuration::from_secs(15), SeId(0)));
    udr.advance_to(t(11));
    assert!(!udr.se(SeId(0)).is_up());
    // Failover (5 s detection) moves sub 0's master off the crashed SE;
    // writes work again before the SE even restores.
    let out = udr
        .execute(
            OpRequest::new(&write_op(&subs[0], 55))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(18)),
        )
        .into_op();
    assert!(out.is_ok(), "post-failover write failed: {:?}", out.result);
    assert_eq!(udr.metrics.failovers, 1);
    udr.advance_to(t(26));
    assert!(udr.se(SeId(0)).is_up());
    udr.advance_to(t(30));
    assert!(udr.replication_settled());
}

/// A slave that restores while its partitions' masters are down keeps
/// what its disk recovered: the failover that then promotes it loses
/// nothing the last save held (§3.1 bounds a crash's loss to what came
/// after the last save).
#[test]
fn slave_restored_under_a_down_master_keeps_its_disk_copy() {
    let (mut udr, subs) = build(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        41,
    );
    let records = |udr: &Udr, se: SeId| -> usize {
        let se = udr.se(se);
        se.partitions()
            .map(|p| se.engine(p).map_or(0, |e| e.live_records()))
            .sum()
    };
    // Every SE holds every record, and the 30 s save has them on disk.
    udr.advance_to(t(35));
    for se in 0..3 {
        assert_eq!(records(&udr, SeId(se)), 3, "se{se} before the outages");
    }
    // SE1 restores at 43 s, while the masters of its slave copies (SE0 and
    // SE2) are both down; failover then promotes it for their partitions.
    udr.schedule_script(
        &FaultScript::new(0)
            .se_outage(t(40), SimDuration::from_secs(100), SeId(2))
            .se_outage(t(41), SimDuration::from_secs(2), SeId(1))
            .se_outage(t(42), SimDuration::from_secs(100), SeId(0)),
    );
    udr.advance_to(t(44));
    assert_eq!(records(&udr, SeId(1)), 3, "se1 after its restore");
    udr.advance_to(t(50));
    assert_eq!(udr.metrics.lost_commits, 0);
    for (i, sub) in subs.iter().enumerate() {
        let out = udr
            .execute(
                OpRequest::new(&read_op(sub))
                    .class(TxnClass::FrontEnd)
                    .site(SiteId(1))
                    .at(t(50)),
            )
            .into_op();
        assert!(out.is_ok(), "subscriber {i}: {:?}", out.result);
    }
}

// --- Log truncation behind the slowest reader -------------------------------

/// The one partition of the truncation tests.
const P: PartitionId = PartitionId(0);
/// The catch-up pass, which truncates the logs, runs every 200 ms.
const CATCHUP_TICK: SimDuration = SimDuration::from_millis(200);
/// Modifies inside each catch-up tick's window, 50 ms apart.
const WRITES_PER_TICK: u64 = 4;

/// A loss-free one-partition figure-2 deployment under `mode` that saves
/// every SE's RAM to disk every second, with one subscriber provisioned.
fn saving_every_second(mode: ReplicationMode) -> (Udr, IdentitySet) {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = mode;
    cfg.frash.durability = DurabilityMode::PeriodicSnapshot {
        interval: SimDuration::from_secs(1),
    };
    cfg.seed = 43;
    let mut udr = Udr::build(cfg).expect("valid config");
    lossless_wan(&mut udr);
    let sub = ids(1);
    let at = t(2) - SimDuration::from_millis(150);
    let out = udr.provision_subscriber(&sub, 0, SiteId(0), at);
    assert!(out.is_ok(), "provisioning failed: {:?}", out.op.result);
    (udr, sub)
}

/// Write through catch-up ticks `ticks`: `WRITES_PER_TICK` modifies of
/// `sub` from site 0 inside each tick's 200 ms window, then the tick that
/// closes it, after which `check` runs. Returns the writes made.
fn write_through_ticks(
    udr: &mut Udr,
    sub: &IdentitySet,
    ticks: std::ops::RangeInclusive<u64>,
    mut check: impl FnMut(&Udr),
) -> u64 {
    let mut writes = 0;
    for tick in ticks {
        let window = SimTime::ZERO + CATCHUP_TICK * (tick - 1);
        for i in 0..WRITES_PER_TICK {
            let at = window + SimDuration::from_millis(10 + 50 * i);
            udr.advance_to(at);
            let out = udr
                .execute(
                    OpRequest::new(&write_op(sub, tick * 10 + i))
                        .site(SiteId(0))
                        .at(at),
                )
                .into_op();
            assert!(out.is_ok(), "write {i} of tick {tick}: {:?}", out.result);
            writes += 1;
        }
        udr.advance_to(window + CATCHUP_TICK);
        check(udr);
    }
    writes
}

/// The position a member's copy restores from: its disk image's LSN, or
/// zero before its first save.
fn image_lsn(udr: &Udr, se: SeId) -> Lsn {
    udr.se(se)
        .disk()
        .load(P)
        .map_or(Lsn::ZERO, |image| image.last_lsn)
}

/// After every catch-up tick, no member's commit log holds more than the
/// records committed since the oldest member's disk image. A slave that
/// crashes after a save, misses writes and restores from that save is
/// caught up from the master's log, without a reseed, because the log
/// reached back to its image all along.
#[test]
fn logs_truncate_behind_the_oldest_disk_image_and_a_restore_still_catches_up() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::AsyncMasterSlave);
    let master = udr.group(P).master();
    let slave = udr
        .group(P)
        .members()
        .iter()
        .copied()
        .find(|&se| se != master)
        .unwrap();
    let bounded = |udr: &Udr| {
        let head = udr.se(master).last_lsn(P).unwrap();
        let members = udr.group(P).members();
        let oldest = members.iter().map(|&se| image_lsn(udr, se)).min().unwrap();
        for &se in members {
            if let Ok(engine) = udr.se(se).engine(P) {
                let len = engine.log().len() as u64;
                assert!(
                    len <= head.raw() - oldest.raw(),
                    "{se} holds {len} records; the oldest image is at {oldest}, the master at {head}"
                );
            }
        }
    };

    // Writes from 2 s on; the slave crashes 100 ms after the 3 s save,
    // with two writes past its image, and restores at 4.6 s.
    udr.schedule_script(&FaultScript::new(6).se_outage(
        t(3) + SimDuration::from_millis(100),
        SimDuration::from_millis(1_500),
        slave,
    ));
    let writes = write_through_ticks(&mut udr, &sub, 11..=16, bounded);
    assert!(!udr.se(slave).is_up());
    let image = image_lsn(&udr, slave);
    assert!(udr.se(master).last_lsn(P).unwrap() > image);
    let writes = writes + write_through_ticks(&mut udr, &sub, 17..=40, bounded);

    udr.advance_to(t(9));
    assert!(udr.replication_settled());
    assert_eq!(udr.metrics.reseeds, 0, "the restore caught up from the log");
    let head = udr.se(master).last_lsn(P).unwrap();
    assert_eq!(udr.se(slave).last_lsn(P).unwrap(), head);
    // Every member has saved the head since the last write, and every
    // channel has confirmed it: no reader is left for any record.
    for &se in udr.group(P).members() {
        assert_eq!(image_lsn(&udr, se), head);
        assert!(udr.se(se).engine(P).unwrap().log().is_empty(), "{se}");
    }
    // Every write committed, after the provisioning.
    assert!(head.raw() > writes);
}

/// Under consensus no code reads an engine's log, so each catch-up tick
/// empties it: after every tick a replica's log holds at most the one
/// tick of writes applied since.
#[test]
fn consensus_engine_logs_hold_at_most_one_tick_of_records() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::Consensus { n: 3 });
    let members = udr.group(P).members().to_vec();
    let writes = write_through_ticks(&mut udr, &sub, 11..=25, |udr| {
        for &se in &members {
            let len = udr.se(se).engine(P).unwrap().log().len() as u64;
            assert!(len <= WRITES_PER_TICK, "{se} holds {len} records");
        }
    });
    udr.advance_to(t(6));
    assert!(udr.replication_settled());
    for &se in &members {
        // Every write went through each replica's engine.
        assert!(udr.se(se).last_lsn(P).unwrap().raw() > writes);
    }
}

// --- Chosen-log compaction behind the slowest reader ------------------------

/// The slot node `i` of the partition's ensemble resumes at when it
/// restores from its disk image (zero before its first save).
fn image_slot(udr: &Udr, i: usize) -> Slot {
    let se = udr.group(P).members()[i];
    let log = udr.consensus_ensemble(P).unwrap().nodes()[i].log();
    log.cursor_for_writes(image_lsn(udr, se).raw())
}

/// After each catch-up tick, every chosen log holds exactly the slots
/// after the oldest image's resume slot: nothing a restore replays is
/// gone, and nothing below it is kept.
fn compacted_to_the_oldest_image(udr: &Udr) {
    let oldest = (0..3).map(|i| image_slot(udr, i)).min().unwrap();
    for (i, node) in udr
        .consensus_ensemble(P)
        .unwrap()
        .nodes()
        .iter()
        .enumerate()
    {
        let log = node.log();
        assert_eq!(
            log.base(),
            oldest,
            "node {i} compacted through {}; the oldest image resumes at {oldest}",
            log.base()
        );
        assert_eq!(log.len() as u64, log.max_slot().0 - oldest.0, "node {i}");
    }
}

/// Records of `se`'s copy of the partition, without the per-node apply
/// instant.
fn records(udr: &Udr, se: SeId) -> Vec<(u64, Lsn, Option<udr_model::attrs::Entry>)> {
    let engine = udr.se(se).engine(P).unwrap();
    let mut rows: Vec<_> = engine
        .iter_committed()
        .map(|v| (v.uid.0, v.lsn, v.entry.cloned()))
        .collect();
    rows.sort_by_key(|row| row.0);
    rows
}

#[test]
fn chosen_logs_hold_only_slots_since_the_oldest_disk_image() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::Consensus { n: 3 });
    let writes = write_through_ticks(&mut udr, &sub, 11..=30, compacted_to_the_oldest_image);
    let log = udr.consensus_ensemble(P).unwrap().nodes()[0].log();
    assert!(
        log.base().0 > writes / 2,
        "compacted through {} after {writes} writes",
        log.base()
    );
    assert!(udr.consensus_violations().is_empty());
}

/// A member that crashes 100 ms after a save holds the floor at its image
/// while it is down, then restores from that image, replays its own log and
/// ends with the leader's engine; compaction resumes behind it.
#[test]
fn a_member_crashed_after_a_save_replays_to_the_leaders_engine() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::Consensus { n: 3 });
    udr.advance_to(t(2));
    let ensemble = udr.consensus_ensemble(P).unwrap();
    let leader = ensemble.leader(|_| true).expect("a leader was elected");
    let down = (leader + 1) % 3;
    let down_se = udr.group(P).members()[down];
    udr.schedule_script(&FaultScript::new(6).se_outage(
        t(3) + SimDuration::from_millis(100),
        SimDuration::from_millis(1_500),
        down_se,
    ));
    write_through_ticks(&mut udr, &sub, 11..=16, compacted_to_the_oldest_image);
    assert!(!udr.se(down_se).is_up());
    let held = image_slot(&udr, down);
    assert!(held > Slot::ZERO, "the crashed member had saved");
    // The others commit and save past the down member's image; the floor
    // stops there.
    let mut pinned = false;
    write_through_ticks(&mut udr, &sub, 17..=24, |udr| {
        compacted_to_the_oldest_image(udr);
        if !udr.se(down_se).is_up() {
            let log = udr.consensus_ensemble(P).unwrap().nodes()[leader].log();
            assert!(log.base() <= held);
            pinned |= log.base() == held && log.committed() > held;
        }
    });
    assert!(pinned, "the floor never reached the down member's image");
    assert!(udr.se(down_se).is_up(), "restored at 4.6 s");
    write_through_ticks(&mut udr, &sub, 25..=40, compacted_to_the_oldest_image);

    udr.advance_to(t(9));
    assert!(udr.replication_settled());
    let leader_se = udr.group(P).members()[leader];
    assert_eq!(records(&udr, down_se), records(&udr, leader_se));
    assert!(udr.consensus_violations().is_empty());
    let log = udr.consensus_ensemble(P).unwrap().nodes()[down].log();
    assert!(log.base() > held, "compaction resumed behind the restore");
}

/// Under sync-commit every apply is saved at once, so a catch-up tick can
/// fall between a write being chosen everywhere and the client's next 1 ms
/// poll with the floor already past the write's slot. That tick compacts
/// nothing, the client is told the write committed, and the next tick
/// compacts the slot.
#[test]
fn a_write_chosen_just_before_a_compaction_is_acknowledged_first() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
    cfg.frash.durability = DurabilityMode::SyncCommit;
    cfg.seed = 43;
    let mut udr = Udr::build(cfg).expect("valid config");
    // Every message arrives 100 µs after it is sent: a write is chosen
    // and learned everywhere well inside one poll interval.
    let fast = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_micros(100)));
    for a in 0..3u32 {
        for b in 0..3u32 {
            udr.net
                .topology_mut()
                .set_link(SiteId(a), SiteId(b), fast.clone());
        }
    }
    let sub = ids(1);
    let out = udr.provision_subscriber(&sub, 0, SiteId(0), t(2));
    assert!(out.is_ok(), "provisioning failed: {:?}", out.op.result);

    // The write is proposed 0.9 ms before the 3 s catch-up tick.
    let at = t(3) - SimDuration::from_micros(900);
    udr.advance_to(at);
    let out = udr
        .execute(OpRequest::new(&write_op(&sub, 7)).site(SiteId(0)).at(at))
        .into_op();
    assert!(out.is_ok(), "the write failed: {:?}", out.result);
    assert!(
        out.latency < SimDuration::from_millis(5),
        "{:?}",
        out.latency
    );
    for node in udr.consensus_ensemble(P).unwrap().nodes() {
        let log = node.log();
        assert_eq!(log.len(), 1, "the 3 s tick held the write's slot");
    }
    udr.advance_to(t(3) + CATCHUP_TICK);
    for node in udr.consensus_ensemble(P).unwrap().nodes() {
        let log = node.log();
        assert_eq!(log.base(), log.committed(), "the write's slot is compacted");
        assert!(log.is_empty());
    }
    assert!(udr.consensus_violations().is_empty());
}

/// A node moved onto a new SE takes its disk image with it. The logs were
/// compacted behind that image, so when the new SE crashes after the
/// cutover and before its own first save, its restore finds every slot it
/// replays, and it ends with the leader's engine.
#[test]
fn a_member_migrated_then_crashed_before_its_first_save_replays_to_the_leaders_engine() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::Consensus { n: 3 });
    write_through_ticks(&mut udr, &sub, 11..=20, compacted_to_the_oldest_image);
    let ensemble = udr.consensus_ensemble(P).unwrap();
    let leader = ensemble.leader(|_| true).expect("a leader was elected");
    // Neither the leader nor node 0, whose SE masters the partition.
    let moved = (1..3).find(|&i| i != leader).unwrap();
    assert!(ensemble.nodes()[moved].log().base() > Slot::ZERO);
    let from = udr.group(P).members()[moved];
    let image = image_lsn(&udr, from);
    assert!(image > Lsn::ZERO, "the moving node has saved");

    let start = t(4) + SimDuration::from_millis(50);
    let to = udr.add_se(udr.se(from).site(), start);
    let plan = MigrationPlan {
        partition: P,
        from,
        to,
        reason: MoveReason::ScaleOut,
    };
    let id = udr.start_migration(plan, start);
    let mut now = start;
    while udr.group(P).members()[moved] != to {
        assert!(
            now < t(5),
            "no cutover by 5 s: {:?}",
            udr.migration_state(id)
        );
        now += SimDuration::from_millis(1);
        udr.advance_to(now);
    }
    // Its first save is due at 5.05 s: what it holds on disk is the image
    // it brought along.
    assert_eq!(image_lsn(&udr, to), image);
    udr.schedule_script(&FaultScript::new(7).se_outage(
        now + SimDuration::from_millis(1),
        SimDuration::from_millis(300),
        to,
    ));
    write_through_ticks(&mut udr, &sub, 25..=40, compacted_to_the_oldest_image);
    assert!(udr.se(to).is_up(), "restored");

    udr.advance_to(t(10));
    assert!(udr.replication_settled());
    let leader_se = udr.group(P).members()[leader];
    assert_eq!(records(&udr, to), records(&udr, leader_se));
    assert!(udr.consensus_violations().is_empty());
}
