//! Fault-campaign wiring through the event pump: clean partitions yield
//! *typed* partition errors (never generic timeouts), grey failures
//! (one-way loss, WAN brown-outs) degrade without partitioning, and the
//! deployment measurably re-converges after heal.

use udr_bench::check::committed_value;
use udr_bench::harness::{numbered_ids as ids, t};
use udr_consensus::Slot;
use udr_core::{MigrationPlan, MoveReason, OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{DurabilityMode, ReadPolicy, ReplicationMode, TxnClass};
use udr_model::error::UdrError;
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::{PartitionId, SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::{LatencyModel, LinkProfile};
use udr_sim::FaultScript;
use udr_storage::Lsn;

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
/// Catch-up ticks in `saving_every_second`'s save interval.
const SAVE_TICKS: u64 = 5;

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
    udr.se(se).image_lsn(P).unwrap_or(Lsn::ZERO)
}

/// The one slave of the partition that does not master it.
fn a_slave(udr: &Udr) -> SeId {
    let master = udr.group(P).master();
    let members = udr.group(P).members();
    members.iter().copied().find(|&se| se != master).unwrap()
}

/// After every catch-up tick, no up member's commit log holds more than
/// the writes still in flight to an up slave: a down member's disk image
/// holds nothing back. A slave that crashes after a save, misses writes
/// and restores from that save finds the master's log truncated past its
/// image, so the catch-up pass reseeds it from the master's snapshot, and
/// it converges to the head.
#[test]
fn logs_hold_only_what_is_in_flight_and_a_restore_below_them_is_reseeded() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::AsyncMasterSlave);
    let (master, slave) = (udr.group(P).master(), a_slave(&udr));
    let bounded = |udr: &Udr| {
        for &se in udr.group(P).members() {
            if let Ok(engine) = udr.se(se).engine(P) {
                let len = engine.log().len() as u64;
                assert!(len <= WRITES_PER_TICK, "{se} holds {len} records");
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
    let first = udr.se(master).engine(P).unwrap().log().first_retained();
    assert!(
        first.is_none_or(|first| first > image.next()),
        "the master's log reaches back to the down slave's image at {image}"
    );
    let writes = writes + write_through_ticks(&mut udr, &sub, 17..=40, bounded);

    udr.advance_to(t(9));
    assert!(udr.replication_settled());
    assert_eq!(udr.metrics.reseeds, 1, "the restore was reseeded");
    let head = udr.se(master).last_lsn(P).unwrap();
    assert_eq!(udr.se(slave).last_lsn(P).unwrap(), head);
    assert_eq!(records(&udr, slave), records(&udr, master));
    // Every channel has confirmed the head: no reader is left for any
    // record.
    for &se in udr.group(P).members() {
        assert!(udr.se(se).engine(P).unwrap().log().is_empty(), "{se}");
    }
    // Every write committed, after the provisioning.
    assert!(head.raw() > writes);
}

/// One member of the partition is down for 60 s of steady writes. After
/// every catch-up tick, each up member's commit log holds no more than two
/// ticks of writes; under consensus its node's chosen log holds no more
/// than one save interval's writes on top, what its own disk image lacks.
/// Memory does not grow with the outage. The member then restores from
/// an image far below every up member's log, takes a peer's copy (a
/// reseed, or an install under consensus) and ends with the engine every
/// other member holds.
///
/// No write is made while the member rejoins: a consensus node back from
/// a long outage campaigns at its first tick, and a write in flight then
/// may time out.
fn memory_stays_bounded_through_a_long_outage(mode: ReplicationMode) {
    let (mut udr, sub) = saving_every_second(mode);
    let down = a_slave(&udr);
    udr.schedule_script(&FaultScript::new(6).se_outage(
        t(3) + SimDuration::from_millis(100),
        SimDuration::from_secs(60),
        down,
    ));
    write_through_ticks(&mut udr, &sub, 11..=15, |_| {});
    let mut ticks_down = 0;
    write_through_ticks(&mut udr, &sub, 16..=315, |udr| {
        assert!(!udr.se(down).is_up(), "up between 3.1 s and 63.1 s");
        ticks_down += 1;
        for (j, &se) in udr.group(P).members().iter().enumerate() {
            if se == down {
                continue;
            }
            let (len, bound) = match udr.consensus_ensemble(P) {
                Some(ensemble) => (ensemble.nodes()[j].log().len(), SAVE_TICKS + 2),
                None => (udr.se(se).engine(P).unwrap().log().len(), 2),
            };
            let (len, bound) = (len as u64, bound * WRITES_PER_TICK);
            assert!(
                len <= bound,
                "{se} holds {len} after {ticks_down} ticks down"
            );
        }
    });
    udr.advance_to(t(64));
    assert!(udr.se(down).is_up(), "restored at 63.1 s");
    assert_eq!(udr.metrics.reseeds, 1, "one copy was taken from a peer");
    write_through_ticks(&mut udr, &sub, 321..=330, |_| {});

    udr.advance_to(t(70));
    assert!(udr.replication_settled());
    for &se in udr.group(P).members() {
        assert_eq!(
            records(&udr, down),
            records(&udr, se),
            "{down} against {se}"
        );
    }
    assert!(udr.consensus_violations().is_empty());
}

#[test]
fn commit_logs_stay_bounded_through_a_long_slave_outage() {
    memory_stays_bounded_through_a_long_outage(ReplicationMode::AsyncMasterSlave);
}

#[test]
fn chosen_logs_stay_bounded_through_a_long_node_outage() {
    memory_stays_bounded_through_a_long_outage(ReplicationMode::Consensus { n: 3 });
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
/// restores from its disk image (zero before its first save), or `None`
/// when its log was compacted past that image: it installed a peer's copy
/// since its last save.
fn image_slot(udr: &Udr, i: usize) -> Option<Slot> {
    let se = udr.group(P).members()[i];
    let log = udr.consensus_ensemble(P).unwrap().nodes()[i].log();
    log.cursor_for_writes(image_lsn(udr, se).raw())
}

/// After each catch-up tick, every chosen log holds exactly the slots
/// above the slowest up node's watermark, or above the slot its own disk
/// image resumes at where that is lower: a down node holds nothing back
/// from the others' logs, and each log keeps what its own image lacks. A
/// log compacted past its image is not compacted until the next save.
fn compacted_to_its_own_image(udr: &Udr) {
    let nodes = udr.consensus_ensemble(P).unwrap().nodes();
    let members = udr.group(P).members();
    let floor = (0..nodes.len())
        .filter(|&i| udr.se(members[i]).is_up())
        .map(|i| nodes[i].log().committed())
        .min()
        .unwrap();
    for (i, node) in nodes.iter().enumerate() {
        let log = node.log();
        let through = match image_slot(udr, i) {
            Some(image) => floor.min(image).min(log.committed()),
            None => log.base(),
        };
        assert_eq!(
            log.base(),
            through,
            "node {i} compacted through {}; the floor is {floor}, its image resumes at {:?}",
            log.base(),
            image_slot(udr, i)
        );
        assert_eq!(log.len() as u64, log.max_slot().0 - through.0, "node {i}");
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
fn chosen_logs_hold_only_slots_since_their_own_disk_image() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::Consensus { n: 3 });
    let writes = write_through_ticks(&mut udr, &sub, 11..=30, compacted_to_its_own_image);
    let log = udr.consensus_ensemble(P).unwrap().nodes()[0].log();
    assert!(
        log.base().0 > writes / 2,
        "compacted through {} after {writes} writes",
        log.base()
    );
    assert!(udr.consensus_violations().is_empty());
}

/// A member that crashes 100 ms after a save holds nothing back from the
/// others' logs while it is down; its own log keeps what its image lacks.
/// The others compact past everything that log holds, so on restore it
/// installs the leader's engine and cursor instead of replaying, takes the
/// leader's log, and ends with the leader's engine; compaction goes on
/// behind it.
#[test]
fn a_member_restored_below_the_base_installs_the_leaders_engine() {
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
    write_through_ticks(&mut udr, &sub, 11..=16, compacted_to_its_own_image);
    assert!(!udr.se(down_se).is_up());
    let image = image_lsn(&udr, down_se);
    assert!(image > Lsn::ZERO, "the crashed member had saved");
    let mut passed = false;
    write_through_ticks(&mut udr, &sub, 17..=24, |udr| {
        compacted_to_its_own_image(udr);
        if !udr.se(down_se).is_up() {
            let nodes = udr.consensus_ensemble(P).unwrap().nodes();
            assert!(image_slot(udr, down).is_some(), "its own log replays it");
            passed |= nodes[leader].log().base() > nodes[down].log().committed();
        }
    });
    assert!(
        passed,
        "the others never compacted past the down member's log"
    );
    assert!(udr.se(down_se).is_up(), "restored at 4.6 s");
    assert_eq!(
        udr.metrics.reseeds, 1,
        "the restore installed a peer's copy"
    );
    let base = udr.consensus_ensemble(P).unwrap().nodes()[down]
        .log()
        .base();
    write_through_ticks(&mut udr, &sub, 25..=40, compacted_to_its_own_image);

    udr.advance_to(t(9));
    assert!(udr.replication_settled());
    let leader_se = udr.group(P).members()[leader];
    assert_eq!(records(&udr, down_se), records(&udr, leader_se));
    assert!(udr.consensus_violations().is_empty());
    let log = udr.consensus_ensemble(P).unwrap().nodes()[down].log();
    assert!(log.base() > base, "compaction went on behind the install");
}

/// Every node of the ensemble goes down, one after another, after the
/// logs were compacted past each node's last save and after writes it
/// applied since; the nodes come back one at a time, the first to an
/// ensemble of one. Each node's log still holds what its own image lacks,
/// so each replays to where it crashed, and the group ends with every
/// acknowledged write and serves again.
#[test]
fn a_group_wholly_down_past_a_compaction_recovers_every_acknowledged_write() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::Consensus { n: 3 });
    write_through_ticks(&mut udr, &sub, 11..=21, |_| {});
    let members = udr.group(P).members().to_vec();
    let lsn = |udr: &Udr, se: SeId| udr.se(se).last_lsn(P).unwrap();
    let head = members.iter().map(|&se| lsn(&udr, se)).max().unwrap();
    let value = |udr: &Udr, se: SeId| {
        let rows = records(udr, se);
        let entry = rows[0].2.as_ref().expect("the subscriber is provisioned");
        entry.get(AttrId::OdbMask).cloned()
    };
    for (i, &se) in members.iter().enumerate() {
        let log = udr.consensus_ensemble(P).unwrap().nodes()[i].log();
        assert!(log.base() > Slot::ZERO, "node {i} has compacted");
        assert!(image_lsn(&udr, se) < head, "node {i} saved every write");
    }
    // Tick 21's last write.
    let acknowledged = Some(AttrValue::U64(213));

    // Down from 4.25 s, 4.30 s and 4.35 s; back at 5.5 s, 6.0 s and 6.5 s.
    let mut script = FaultScript::new(8);
    for (k, &se) in members.iter().enumerate() {
        let k = k as u64;
        let down = t(4) + SimDuration::from_millis(250 + 50 * k);
        let up = t(5) + SimDuration::from_millis(500 + 500 * k);
        script = script.se_outage(down, up.duration_since(down), se);
    }
    udr.schedule_script(&script);
    udr.advance_to(t(5) + SimDuration::from_millis(600));
    assert!(udr.se(members[0]).is_up());
    assert!(
        udr.se(members[0]).engine(P).is_ok(),
        "the first node back hosts its own copy, alone"
    );
    udr.advance_to(t(8));
    assert!(udr.replication_settled());
    for &se in &members {
        assert_eq!(lsn(&udr, se), head, "{se}");
        assert_eq!(value(&udr, se), acknowledged, "{se}");
    }

    let writes = write_through_ticks(&mut udr, &sub, 41..=45, |_| {});
    udr.advance_to(t(10));
    assert!(udr.replication_settled());
    for &se in &members {
        assert_eq!(records(&udr, se), records(&udr, members[0]), "{se}");
        assert_eq!(lsn(&udr, se).raw(), head.raw() + writes);
    }
    assert_eq!(value(&udr, members[0]), Some(AttrValue::U64(453)));
    assert!(udr.consensus_violations().is_empty());
}

/// Under sync-commit every apply is saved at once, so the 3 s catch-up
/// tick finds the floor past a write proposed 0.9 ms before it. The client
/// is told the write committed at the event that chose it, before the
/// tick; the tick then compacts every log, and the write stays committed.
#[test]
fn a_write_chosen_just_before_a_compaction_is_acknowledged_first() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
    cfg.frash.durability = DurabilityMode::SyncCommit;
    cfg.seed = 43;
    let mut udr = Udr::build(cfg).expect("valid config");
    // Every message arrives 100 µs after it is sent: a write is chosen
    // and learned everywhere well inside 0.9 ms.
    fixed_links(&mut udr, SimDuration::from_micros(100));
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
    assert!(at + out.latency < t(3), "{:?}", out.latency);
    assert!(udr.now() < t(3), "the write returned at {:?}", udr.now());

    udr.advance_to(t(3) + CATCHUP_TICK);
    let imsi = Identity::Imsi(sub.imsi);
    assert_eq!(committed_value(&udr, &imsi), Some(7), "the write stays");
    for node in udr.consensus_ensemble(P).unwrap().nodes() {
        let log = node.log();
        assert_eq!(log.base(), log.committed(), "the write's slot is compacted");
        assert!(log.is_empty());
    }
    assert!(udr.consensus_violations().is_empty());
}

/// Make every link, intra-site ones included, loss-free with the fixed
/// one-way delay `delay`.
fn fixed_links(udr: &mut Udr, delay: SimDuration) {
    let link = LinkProfile::lossless(LatencyModel::Fixed(delay));
    for a in 0..3u32 {
        for b in 0..3u32 {
            udr.net
                .topology_mut()
                .set_link(SiteId(a), SiteId(b), link.clone());
        }
    }
}

/// A consensus write is acknowledged at the event that chooses it: on
/// fixed 10.3 ms links its replication phase is one round trip to the
/// leader plus one majority round trip, 41.2 ms, not a millisecond grid
/// point after it.
#[test]
fn a_consensus_write_commits_at_the_event_that_chooses_it() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
    cfg.seed = 43;
    let mut udr = Udr::build(cfg).expect("valid config");
    fixed_links(&mut udr, SimDuration::from_micros(10_300));
    let sub = ids(1);
    let out = udr.provision_subscriber(&sub, 0, SiteId(0), t(2));
    assert!(out.is_ok(), "provisioning failed: {:?}", out.op.result);

    for k in 0..4u64 {
        let at = t(3) + SimDuration::from_millis(500 * k);
        udr.advance_to(at);
        let out = udr
            .execute(OpRequest::new(&write_op(&sub, k)).site(SiteId(0)).at(at))
            .into_op();
        assert!(out.is_ok(), "write {k} failed: {:?}", out.result);
        assert_eq!(
            out.breakdown.replication,
            SimDuration::from_micros(41_200),
            "write {k}"
        );
    }
    assert!(udr.consensus_violations().is_empty());
}

/// A node moved onto a new SE takes its engine, not its disk image: the
/// new SE's disk holds nothing until its first save. When it crashes
/// after the cutover and before that save, its restore finds the writes
/// compacted, installs the leader's engine and ends equal to it.
#[test]
fn a_member_migrated_then_crashed_before_its_first_save_installs_the_leaders_engine() {
    let (mut udr, sub) = saving_every_second(ReplicationMode::Consensus { n: 3 });
    write_through_ticks(&mut udr, &sub, 11..=20, compacted_to_its_own_image);
    let ensemble = udr.consensus_ensemble(P).unwrap();
    let leader = ensemble.leader(|_| true).expect("a leader was elected");
    // Neither the leader nor node 0, whose SE masters the partition.
    let moved = (1..3).find(|&i| i != leader).unwrap();
    assert!(ensemble.nodes()[moved].log().base() > Slot::ZERO);
    let from = udr.group(P).members()[moved];
    assert!(
        image_lsn(&udr, from) > Lsn::ZERO,
        "the moving node has saved"
    );

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
    // Its first save is due at 5.05 s.
    assert!(udr.se(to).image_lsn(P).is_none(), "no image came along");
    udr.schedule_script(&FaultScript::new(7).se_outage(
        now + SimDuration::from_millis(1),
        SimDuration::from_millis(300),
        to,
    ));
    write_through_ticks(&mut udr, &sub, 25..=40, compacted_to_its_own_image);
    assert!(udr.se(to).is_up(), "restored");
    assert_eq!(
        udr.metrics.reseeds, 1,
        "the restore installed a peer's copy"
    );

    udr.advance_to(t(10));
    assert!(udr.replication_settled());
    let leader_se = udr.group(P).members()[leader];
    assert_eq!(records(&udr, to), records(&udr, leader_se));
    assert!(udr.consensus_violations().is_empty());
}
