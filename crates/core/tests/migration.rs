//! Live partition migration: the epoch-versioned shard map under data
//! movement. Scale-out, drain, fault-during-migration and stale-route
//! retries — each asserting the acceptance properties: zero lost or
//! duplicated committed records, epochs that only advance at cutover, and
//! stale-epoch lookups retried at most once.

use udr_bench::check::{self, Markers};
use udr_bench::harness::{numbered_ids as ids, settle_migrations, t, PsRetry};
use udr_core::{MigrationPlan, MoveReason, OpRequest, Rebalancer, Udr, UdrConfig};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{DurabilityMode, ReplicationMode};
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::{PartitionId, SeId, SiteId};
use udr_model::procedures::ProcedureKind;
use udr_model::time::{SimDuration, SimTime};
use udr_replication::MigrationState;
use udr_sim::FaultScript;
use udr_trace::TraceConfig;

/// A 3-site system with two SEs per cluster: enough partitions and spare
/// capacity for moves to be non-trivial.
fn system() -> Udr {
    let mut cfg = UdrConfig::figure2();
    cfg.ses_per_cluster = 2;
    cfg.partitions = 6;
    cfg.frash.replication_factor = 2;
    Udr::build(cfg).unwrap()
}

/// Provision `n` subscribers 5 ms apart, from 1 s or from the
/// deployment's current instant, whichever is later.
fn provision_n(udr: &mut Udr, n: u64) -> Vec<IdentitySet> {
    let start = udr.now().max(t(1));
    let mut subs = Vec::with_capacity(n as usize);
    for i in 0..n {
        let set = ids(i);
        let out = udr.provision_subscriber(
            &set,
            (i % 3) as u32,
            SiteId(0),
            start + SimDuration::from_millis(i * 5),
        );
        assert!(out.is_ok(), "provisioning {i} failed: {:?}", out.op.result);
        subs.push(set);
    }
    subs
}

/// Write one marker per subscriber from `base`, 3 ms apart, each
/// acknowledged at its first try.
fn write_markers(udr: &mut Udr, subs: &[IdentitySet], base: SimTime) -> Markers {
    let identities: Vec<Identity> = subs.iter().map(|set| set.imsi.into()).collect();
    let step = SimDuration::from_millis(3);
    let once = PsRetry { attempts: 1, step };
    check::write_markers(udr, &identities, 0xBEEF_0000, base, once)
}

/// The full scan: every acknowledged marker is still what its
/// partition's master holds, and no copy is hosted outside its replica
/// set — zero loss, zero duplication.
fn assert_nothing_lost(udr: &Udr, markers: &Markers) {
    assert_eq!(markers.lost(udr), [], "acknowledged markers lost");
    assert_eq!(check::stray_copies(udr), [], "retired copies hosted");
}

#[test]
fn scale_out_migrates_partitions_with_zero_loss() {
    let mut udr = system();
    let subs = provision_n(&mut udr, 48);
    let markers = write_markers(&mut udr, &subs, t(5));
    let epoch_before = udr.shard_map().epoch();

    // N → N+1: a fresh SE joins site 0 and the rebalancer fills it.
    let new_se = udr.add_se(SiteId(0), t(10));
    let plans = Rebalancer::plan_scale_out(&udr, new_se);
    assert!(!plans.is_empty(), "scale-out planned nothing");
    for (i, plan) in plans.iter().enumerate() {
        udr.start_migration(*plan, t(11) + SimDuration::from_millis(i as u64));
    }
    let settled = settle_migrations(&mut udr, t(11));

    assert_eq!(
        udr.metrics.migrations_completed,
        plans.len() as u64,
        "not every planned move cut over"
    );
    assert!(udr.shard_map().epoch() > epoch_before);
    // The newcomer now carries its fair share.
    assert_eq!(
        udr.shard_map().partitions_on(new_se).len(),
        plans.len(),
        "newcomer hosts fewer copies than planned"
    );
    assert_nothing_lost(&udr, &markers);

    // Traffic still flows end to end after the reshuffle.
    let mut at = settled + SimDuration::from_secs(1);
    for set in subs.iter().take(12) {
        let out = udr
            .execute(
                OpRequest::procedure(ProcedureKind::SmsDelivery, set)
                    .site(SiteId(1))
                    .at(at),
            )
            .into_procedure();
        assert!(out.success, "post-migration read failed: {:?}", out.failure);
        at += SimDuration::from_millis(20);
    }
}

#[test]
fn drain_empties_an_se_with_zero_loss() {
    let mut udr = system();
    let subs = provision_n(&mut udr, 36);
    let markers = write_markers(&mut udr, &subs, t(5));

    // N → N−1: move everything off se3, then it could be decommissioned.
    let victim = SeId(3);
    let hosted_before = udr.shard_map().partitions_on(victim).len();
    assert!(hosted_before > 0, "victim hosts nothing to drain");
    let plans = Rebalancer::plan_drain(&udr, victim);
    assert_eq!(plans.len(), hosted_before);
    for (i, plan) in plans.iter().enumerate() {
        udr.start_migration(*plan, t(10) + SimDuration::from_millis(i as u64 * 50));
    }
    settle_migrations(&mut udr, t(10));

    assert_eq!(udr.metrics.migrations_completed, plans.len() as u64);
    // The victim is empty: shard map, groups and the SE itself agree.
    assert!(udr.shard_map().partitions_on(victim).is_empty());
    assert_eq!(udr.se(victim).partitions().count(), 0);
    assert_nothing_lost(&udr, &markers);
}

#[test]
fn partition_cut_between_reseed_and_cutover_aborts_cleanly() {
    let mut udr = system();
    let subs = provision_n(&mut udr, 24);
    let markers = write_markers(&mut udr, &subs, t(5));
    udr.advance_to(t(9));
    let epoch_before = udr.shard_map().epoch();

    // Move a *master* copy from its site-0 SE to a newcomer at site 1:
    // the shipping path crosses the backbone, so a cut severs it.
    let partition = udr
        .shard_map()
        .partitions()
        .find(|p| {
            let m = udr.shard_map().master_of(*p).unwrap();
            udr.se(m).site() == SiteId(0)
        })
        .expect("some partition mastered at site 0");
    let from = udr.shard_map().master_of(partition).unwrap();
    let to = udr.add_se(SiteId(1), t(9));
    let plan = MigrationPlan {
        partition,
        from,
        to,
        reason: MoveReason::ScaleOut,
    };
    let id = udr.start_migration(plan, t(10));

    // The cut lands right after the snapshot reseed (MigrationStart at
    // t=10) but before the first catch-up tick can drive the cutover.
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(10) + SimDuration::from_millis(20),
        SimDuration::from_secs(30),
        [SiteId(1)],
    ));
    udr.advance_to(t(15));

    // The migration aborted cleanly: no epoch advance, target dropped its
    // partial copy, the old owner still masters and serves.
    assert_eq!(udr.migration_state(id), Some(MigrationState::Aborted));
    assert_eq!(udr.metrics.migrations_aborted, 1);
    assert_eq!(udr.metrics.migrations_completed, 0);
    // The abort took the target's channel off the ledger, so a dead move
    // no longer holds the partition's log back.
    assert_eq!(udr.channel_applied(partition, to), None);
    assert_eq!(udr.shard_map().epoch(), epoch_before);
    assert_eq!(udr.shard_map().master_of(partition), Some(from));
    assert_eq!(udr.se(to).partitions().count(), 0);
    // Reads of the partition keep serving from the old owner (site-0
    // clients are unaffected by the site-1 island).
    let moved_sub = subs
        .iter()
        .find(|s| udr.lookup_authority(&s.imsi.into()).map(|l| l.partition) == Some(partition))
        .expect("some subscriber lives on the partition");
    let out = udr
        .execute(
            OpRequest::procedure(ProcedureKind::SmsDelivery, moved_sub)
                .site(SiteId(0))
                .at(t(16)),
        )
        .into_procedure();
    assert!(out.success, "read after abort failed: {:?}", out.failure);
    // After the cut heals, data is still intact everywhere.
    udr.advance_to(t(50));
    assert_nothing_lost(&udr, &markers);
}

#[test]
fn stale_epoch_lookup_is_retried_at_most_once() {
    let mut udr = system();
    let subs = provision_n(&mut udr, 24);
    write_markers(&mut udr, &subs, t(5));
    udr.advance_to(t(9));

    // Complete a master move so the epoch bumps.
    let partition = udr
        .shard_map()
        .partitions()
        .find(|p| {
            let m = udr.shard_map().master_of(*p).unwrap();
            udr.se(m).site() == SiteId(0)
        })
        .unwrap();
    let from = udr.shard_map().master_of(partition).unwrap();
    let to = udr.add_se(SiteId(0), t(9));
    let plan = MigrationPlan {
        partition,
        from,
        to,
        reason: MoveReason::HotspotSplit,
    };
    let id = udr.start_migration(plan, t(10));
    settle_migrations(&mut udr, t(10));
    assert_eq!(udr.migration_state(id), Some(MigrationState::Done));
    assert_eq!(udr.shard_map().master_of(partition), Some(to));
    assert_eq!(udr.shard_map().retired_master(partition), Some(from));

    // First lookup through a (stale) cluster bounces off the retired
    // owner once: the retry surfaces in the location breakdown.
    let moved_sub = subs
        .iter()
        .find(|s| udr.lookup_authority(&s.imsi.into()).map(|l| l.partition) == Some(partition))
        .expect("subscriber on moved partition");
    assert_eq!(udr.metrics.stale_route_retries, 0);
    let out = udr
        .execute(
            OpRequest::procedure(ProcedureKind::SmsDelivery, moved_sub)
                .site(SiteId(1))
                .at(t(20)),
        )
        .into_procedure();
    assert!(out.success, "stale-route read failed: {:?}", out.failure);
    assert_eq!(udr.metrics.stale_route_retries, 1);
    assert!(
        out.latency > SimDuration::ZERO,
        "bounce should cost latency"
    );

    // The same cluster is refreshed now: no second retry.
    let out = udr
        .execute(
            OpRequest::procedure(ProcedureKind::SmsDelivery, moved_sub)
                .site(SiteId(1))
                .at(t(21)),
        )
        .into_procedure();
    assert!(out.success);
    assert_eq!(udr.metrics.stale_route_retries, 1, "retried more than once");
}

/// A completed hotspot cutover resets the moved partition's load
/// counter so re-planning doesn't relocate the same partition forever.
#[test]
fn hotspot_cutover_resets_load_counter() {
    let mut udr = system();
    let subs = provision_n(&mut udr, 24);
    write_markers(&mut udr, &subs, t(5));
    udr.advance_to(t(9));

    let hot = udr.shard_map().partitions().next().unwrap();
    let from = udr.shard_map().master_of(hot).unwrap();
    let to = udr.add_se(udr.se(from).site(), t(9));
    let before = udr.partition_ops(hot);
    assert!(before > 0, "marker writes should have loaded the partition");
    let id = udr.start_migration(
        MigrationPlan {
            partition: hot,
            from,
            to,
            reason: MoveReason::HotspotSplit,
        },
        t(10),
    );
    settle_migrations(&mut udr, t(10));
    assert_eq!(udr.migration_state(id), Some(MigrationState::Done));
    assert_eq!(udr.partition_ops(hot), 0, "hot counter not reset");
}

/// Sites are fixed at build time: adding an SE outside the topology is
/// rejected at the API boundary, not as an index panic mid-event-pump.
#[test]
#[should_panic(expected = "outside the 3-site topology")]
fn add_se_rejects_unknown_site() {
    let mut udr = system();
    udr.add_se(SiteId(3), t(1));
}

/// A cluster outside the topology is refused before any of its servers,
/// its PoA or its QoS controller joins the deployment.
#[test]
#[should_panic(expected = "outside the 3-site topology")]
fn add_cluster_rejects_unknown_site() {
    let mut udr = system();
    udr.add_cluster(SiteId(3), t(1));
}

/// Failover promotes a slave whose position in the member vector is not
/// first; the shard map must record the *promoted* SE as master, the
/// crashed one as retired, and a route change since the old epoch.
#[test]
fn failover_updates_shard_map_master() {
    let mut udr = system();
    let subs = provision_n(&mut udr, 24);
    write_markers(&mut udr, &subs, t(5));
    udr.advance_to(t(9));

    let partition = udr.shard_map().partitions().next().unwrap();
    let old_master = udr.shard_map().master_of(partition).unwrap();
    let epoch_before = udr.shard_map().epoch();
    udr.schedule_script(&FaultScript::new(0).se_crash(t(10), old_master));
    udr.advance_to(t(20)); // past failover detection

    let new_master = udr.group(partition).master();
    assert_ne!(new_master, old_master, "failover never promoted");
    assert_eq!(
        udr.shard_map().master_of(partition),
        Some(new_master),
        "shard map still names the crashed SE as owner"
    );
    assert_eq!(udr.shard_map().retired_master(partition), Some(old_master));
    assert!(udr.shard_map().epoch() > epoch_before);
    // A stale route cache now detects the change.
    assert!(udr
        .shard_map()
        .routing_changed_since(partition, epoch_before));
}

const P0: PartitionId = PartitionId(0);

/// The last LSN `se`'s copy of partition 0 holds.
fn lsn(udr: &Udr, se: SeId) -> udr_storage::Lsn {
    udr.se(se).last_lsn(P0).unwrap()
}

/// Provision 24 subscribers and return those partition 0 holds.
fn provision_p0(udr: &mut Udr) -> Vec<IdentitySet> {
    let subs = provision_n(udr, 24);
    subs.into_iter()
        .filter(|set| udr.lookup_authority(&set.imsi.into()).unwrap().partition == P0)
        .collect()
}

/// Failover promotes the most caught-up live slave, whatever its id:
/// with site 1 islanded, SE 1's copy of partition 0 falls behind SE 2's,
/// and SE 2 takes over when the master, SE 0, crashes.
#[test]
fn failover_promotes_the_most_caught_up_slave() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_p0(&mut udr);
    udr.advance_to(t(4));
    assert_eq!(udr.group(P0).members(), &[SeId(0), SeId(1), SeId(2)]);
    udr.schedule_script(
        &FaultScript::new(0)
            .clean_partition(t(4), SimDuration::from_secs(30), [SiteId(1)])
            .se_crash(t(10), SeId(0)),
    );
    write_markers(&mut udr, &subs, t(5));
    udr.advance_to(t(9));
    assert!(lsn(&udr, SeId(2)) > lsn(&udr, SeId(1)));
    udr.advance_to(t(20)); // past failover detection
    assert_eq!(udr.group(P0).master(), SeId(2));
}

/// Among equally caught-up slaves, failover promotes the lowest `SeId`.
#[test]
fn failover_ties_break_on_the_lowest_id() {
    let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
    let subs = provision_p0(&mut udr);
    write_markers(&mut udr, &subs, t(5));
    udr.advance_to(t(9));
    assert_eq!(udr.group(P0).members(), &[SeId(0), SeId(1), SeId(2)]);
    assert_eq!(lsn(&udr, SeId(1)), lsn(&udr, SeId(2)));
    udr.schedule_script(&FaultScript::new(0).se_crash(t(10), SeId(0)));
    udr.advance_to(t(20));
    assert_eq!(udr.group(P0).master(), SeId(1));
}

/// Failover picks only among the group's live slaves: with the master and
/// its only slave both down, neither the crashed master nor any live SE
/// outside the group is promoted, and the group stays as it was.
#[test]
fn failover_never_promotes_the_crashed_master_or_a_stranger() {
    let mut udr = system();
    provision_n(&mut udr, 6);
    udr.advance_to(t(9));
    let members = udr.shard_map().members_of(P0).unwrap().to_vec();
    let (master, slave) = (members[0], members[1]);
    assert_eq!(udr.group(P0).master(), master);
    let strangers: Vec<SeId> = (0..6)
        .map(SeId)
        .filter(|se| !members.contains(se))
        .collect();
    assert_eq!(strangers.len(), 4);
    udr.schedule_script(
        &FaultScript::new(0)
            .se_crash(t(10), slave)
            .se_crash(t(10), master),
    );
    udr.advance_to(t(20)); // past failover detection
    assert!(strangers.iter().all(|se| udr.se(*se).is_up()));
    assert_eq!(udr.group(P0).master(), master);
    assert_eq!(udr.shard_map().members_of(P0).unwrap(), &members[..]);
}

/// A malformed plan (out-of-range partition, target == source, target
/// already a member) aborts cleanly instead of panicking, and the
/// started/completed/aborted ledger stays consistent.
#[test]
fn invalid_plans_abort_cleanly() {
    // The same plans must abort under both migration engines: the
    // shipping channel's and the consensus reconfig's.
    let mut consensus = UdrConfig::figure2();
    consensus.ses_per_cluster = 2;
    consensus.partitions = 6;
    consensus.frash.replication = ReplicationMode::Consensus { n: 3 };
    consensus.frash.replication_factor = 3;
    let mut consensus = Udr::build(consensus).unwrap();
    // Let the ensembles elect their leaders before provisioning.
    consensus.advance_to(t(5));
    for mut udr in [system(), consensus] {
        let mode = udr.config().frash.replication;
        provision_n(&mut udr, 6);
        udr.advance_to(t(9));
        let member = udr
            .shard_map()
            .members_of(udr_model::ids::PartitionId(0))
            .unwrap()[1];

        let bogus = [
            // Partition that does not exist.
            MigrationPlan {
                partition: udr_model::ids::PartitionId(99),
                from: SeId(0),
                to: SeId(1),
                reason: MoveReason::Drain,
            },
            // Target == source.
            MigrationPlan {
                partition: udr_model::ids::PartitionId(0),
                from: SeId(0),
                to: SeId(0),
                reason: MoveReason::ScaleOut,
            },
            // Target already a member of the replica set.
            MigrationPlan {
                partition: udr_model::ids::PartitionId(0),
                from: SeId(0),
                to: member,
                reason: MoveReason::ScaleOut,
            },
        ];
        let mut ids = Vec::new();
        for (i, plan) in bogus.iter().enumerate() {
            ids.push(udr.start_migration(*plan, t(10) + SimDuration::from_millis(i as u64)));
        }
        udr.advance_to(t(12));
        for id in ids {
            assert_eq!(
                udr.migration_state(id),
                Some(MigrationState::Aborted),
                "{mode:?}"
            );
        }
        assert_eq!(udr.metrics.migrations_started, 3, "{mode:?}");
        assert_eq!(udr.metrics.migrations_aborted, 3, "{mode:?}");
        assert_eq!(udr.metrics.migrations_completed, 0, "{mode:?}");
        assert_eq!(udr.shard_map().epoch(), udr_dls::Epoch::INITIAL, "{mode:?}");
    }
}

#[test]
fn master_move_freeze_window_is_accounted() {
    let mut udr = system();
    let subs = provision_n(&mut udr, 24);
    udr.advance_to(t(9));

    let partition = udr.shard_map().partitions().next().unwrap();
    let from = udr.shard_map().master_of(partition).unwrap();
    let to = udr.add_se(udr.se(from).site(), t(9));
    let id = udr.start_migration(
        MigrationPlan {
            partition,
            from,
            to,
            reason: MoveReason::ScaleOut,
        },
        t(10),
    );
    // Seeded, the target is a learner on the partition's ledger at the
    // master's position.
    udr.advance_to(t(10) + SimDuration::from_millis(100));
    let master_lsn = udr.se(from).last_lsn(partition).unwrap();
    assert_eq!(udr.channel_applied(partition, to), Some(master_lsn));
    // Writes during the move ship to the slaves and the learner, and the
    // cutover's ledger rebuild keeps the totals: shipped records rise
    // across the move and never fall.
    let shipped = udr.shipped_records();
    let markers = write_markers(&mut udr, &subs, t(10) + SimDuration::from_millis(101));
    let mut last = udr.shipped_records();
    let mut at = t(10) + SimDuration::from_millis(180);
    while udr.active_migrations() > 0 && at < t(30) {
        at += SimDuration::from_millis(10);
        udr.advance_to(at);
        let now = udr.shipped_records();
        assert!(now >= last, "shipped records fell from {last} to {now}");
        last = now;
    }
    assert!(
        last > shipped,
        "shipped records did not rise across the move"
    );
    assert_eq!(udr.migration_state(id), Some(MigrationState::Done));
    // A master hand-off always passes through the freeze window.
    assert!(
        udr.metrics.migration_freeze_time > SimDuration::ZERO,
        "master move should account a freeze window"
    );
    // The learner became the master, which has no channel of its own, and
    // holds every write made during the move.
    assert_eq!(udr.shard_map().master_of(partition), Some(to));
    assert_eq!(udr.channel_applied(partition, to), None);
    assert_nothing_lost(&udr, &markers);
}

/// A write committed while a move catches up reaches the target as it
/// reaches the slaves, not on the next catch-up tick: the target is a
/// learner on its partition's ship channels. Shipping coalesces for 50 ms
/// so that a burst holds the move in `CatchingUp` past its first tick.
#[test]
fn a_write_reaches_the_target_before_the_next_tick() {
    let mut cfg = UdrConfig::figure2();
    cfg.ses_per_cluster = 2;
    cfg.partitions = 6;
    cfg.frash.replication_factor = 2;
    cfg.ship_batch = udr_replication::ShipBatchConfig::coalesce(64, SimDuration::from_millis(50));
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_p0(&mut udr);
    udr.advance_to(t(9));
    let master = udr.shard_map().master_of(P0).unwrap();
    let from = *udr
        .shard_map()
        .members_of(P0)
        .unwrap()
        .iter()
        .find(|se| **se != master)
        .unwrap();
    let to = udr.add_se(udr.se(from).site(), t(9));
    let id = udr.start_migration(
        MigrationPlan {
            partition: P0,
            from,
            to,
            reason: MoveReason::ScaleOut,
        },
        t(10),
    );
    let ms = |n: u64| t(10) + SimDuration::from_millis(n);
    udr.advance_to(ms(100));
    assert!(matches!(
        udr.migration_state(id),
        Some(MigrationState::Seeding { .. })
    ));
    // Ticks fall every 200 ms. A burst still coalescing at the 200 ms tick
    // leaves the target more than 32 records behind, so the move stays
    // in CatchingUp until the tick at 400 ms.
    let write = |udr: &mut Udr, i: u64, at: SimTime| {
        let out = udr.modify_services(
            &subs[i as usize % subs.len()].imsi.into(),
            vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i))],
            SiteId(0),
            at,
        );
        assert!(out.is_ok(), "write {i} failed: {:?}", out.result);
    };
    for i in 0..40 {
        write(&mut udr, i, ms(180) + SimDuration::from_micros(100 * i));
    }
    write(&mut udr, 40, ms(210));
    udr.advance_to(ms(390));
    assert_eq!(udr.migration_state(id), Some(MigrationState::CatchingUp));
    assert_eq!(lsn(&udr, to), lsn(&udr, master));
    settle_migrations(&mut udr, ms(390));
    assert_eq!(udr.migration_state(id), Some(MigrationState::Done));
}

/// The master fails over while a slave move is in flight. The move waits
/// out the failure detection (5 s by default) instead of aborting, since
/// both its endpoints are up; the rebuilt ledger carries the target over
/// as a learner, so the move completes and the target hears the new
/// master's writes.
#[test]
fn a_slave_move_survives_a_failover_of_its_master() {
    let mut cfg = UdrConfig::figure2();
    cfg.ses_per_cluster = 2;
    cfg.partitions = 6;
    cfg.frash.replication_factor = 3;
    let detection = cfg.frash.failover_detection;
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 24);
    let mut markers = write_markers(&mut udr, &subs, t(5));
    udr.advance_to(t(9));
    let members = udr.shard_map().members_of(P0).unwrap().to_vec();
    let master = udr.shard_map().master_of(P0).unwrap();
    let from = *members.iter().rev().find(|se| **se != master).unwrap();
    let to = (0..6).map(SeId).find(|se| !members.contains(se)).unwrap();
    let id = udr.start_migration(
        MigrationPlan {
            partition: P0,
            from,
            to,
            reason: MoveReason::ScaleOut,
        },
        t(10),
    );
    // Every catch-up tick from 10.2 s until the failover finds the
    // partition without a master.
    let crash = t(10) + SimDuration::from_millis(20);
    let after = |ms: u64| crash + detection + SimDuration::from_millis(ms);
    udr.schedule_script(&FaultScript::new(0).se_crash(crash, master));
    udr.advance_to(after(0) - SimDuration::from_millis(1));
    assert_eq!(udr.metrics.failovers, 0);
    assert!(udr.migration_state(id).unwrap().is_active());
    udr.advance_to(after(80));
    assert_eq!(udr.metrics.failovers, 1);
    assert_ne!(udr.shard_map().master_of(P0), Some(master));
    assert!(udr.migration_state(id).unwrap().is_active());
    // A write to the new master reaches the target.
    let i = subs
        .iter()
        .position(|set| udr.lookup_authority(&set.imsi.into()).unwrap().partition == P0)
        .unwrap();
    let value = 0xF00D_0000 + i as u64;
    let out = udr.modify_services(
        &subs[i].imsi.into(),
        vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(value))],
        SiteId(0),
        after(100),
    );
    assert!(out.is_ok(), "write after failover failed: {:?}", out.result);
    markers.issue(i, value, true);
    settle_migrations(&mut udr, after(100));
    assert_eq!(udr.migration_state(id), Some(MigrationState::Done));
    assert!(udr.shard_map().members_of(P0).unwrap().contains(&to));
    let new_master = udr.shard_map().master_of(P0).unwrap();
    assert_eq!(lsn(&udr, to), lsn(&udr, new_master));
    assert_nothing_lost(&udr, &markers);
}

/// How many flight-recorder instants named `name` carry migration `id`.
fn migration_instants(udr: &Udr, name: &str, id: u64) -> usize {
    let arg = format!("id={id}");
    udr.trace_export()
        .records
        .iter()
        .filter(|r| r.name == name && r.arg.as_deref() == Some(arg.as_str()))
        .count()
}

/// Each move leaves exactly one terminal instant on the flight recorder:
/// `migr.abort` when it is abandoned, `migr.cutover` when it cuts over,
/// whichever engine ran it. An abort never travels as an event and a
/// consensus cutover never as a `MigrationCutover`, so both are recorded
/// where they happen.
#[test]
fn every_abort_and_cutover_leaves_one_instant() {
    // Shipping engine: a plan whose target already holds the partition
    // aborts when it starts; a slave move then cuts over.
    let mut cfg = UdrConfig::figure2();
    cfg.ses_per_cluster = 2;
    cfg.partitions = 6;
    cfg.frash.replication_factor = 2;
    cfg.trace = TraceConfig::full();
    let mut udr = Udr::build(cfg).unwrap();
    provision_n(&mut udr, 6);
    udr.advance_to(t(9));
    let partition = PartitionId(0);
    let members = udr.shard_map().members_of(partition).unwrap().to_vec();
    let aborted = udr.start_migration(
        MigrationPlan {
            partition,
            from: members[0],
            to: members[1],
            reason: MoveReason::ScaleOut,
        },
        t(10),
    );
    let slave = *members
        .iter()
        .find(|se| udr.shard_map().master_of(partition) != Some(**se))
        .unwrap();
    let to = udr.add_se(udr.se(slave).site(), t(11));
    let moved = udr.start_migration(
        MigrationPlan {
            partition,
            from: slave,
            to,
            reason: MoveReason::ScaleOut,
        },
        t(11),
    );
    settle_migrations(&mut udr, t(11));
    assert_eq!(udr.migration_state(aborted), Some(MigrationState::Aborted));
    assert_eq!(udr.migration_state(moved), Some(MigrationState::Done));
    assert_eq!(migration_instants(&udr, "migr.abort", aborted), 1);
    assert_eq!(migration_instants(&udr, "migr.cutover", aborted), 0);
    assert_eq!(migration_instants(&udr, "migr.cutover", moved), 1);
    assert_eq!(migration_instants(&udr, "migr.abort", moved), 0);

    // Consensus engine: the cutover is a chosen reconfig command.
    let mut cfg = UdrConfig::figure2();
    cfg.ses_per_cluster = 2;
    cfg.partitions = 6;
    cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
    cfg.frash.replication_factor = 3;
    cfg.trace = TraceConfig::full();
    let mut udr = Udr::build(cfg).unwrap();
    udr.advance_to(t(5));
    provision_n(&mut udr, 6);
    udr.advance_to(t(9));
    let from = udr.shard_map().members_of(partition).unwrap()[1];
    let to = udr.add_se(udr.se(from).site(), t(10));
    let moved = udr.start_migration(
        MigrationPlan {
            partition,
            from,
            to,
            reason: MoveReason::ScaleOut,
        },
        t(10),
    );
    settle_migrations(&mut udr, t(10));
    assert_eq!(udr.migration_state(moved), Some(MigrationState::Done));
    assert_eq!(migration_instants(&udr, "migr.cutover", moved), 1);
    assert_eq!(migration_instants(&udr, "migr.abort", moved), 0);
}

/// A copy retired while its SE is down stays retired: the source of a slave
/// move crashes at the very tick that cuts the move over, the cutover
/// retires the down copy, and restoring the SE must not bring it back from
/// its disk.
#[test]
fn a_copy_retired_while_its_se_is_down_stays_retired() {
    // Sync-commit: every apply saves, so the source's disk holds an image.
    let build = || {
        let mut cfg = UdrConfig::figure2();
        cfg.ses_per_cluster = 2;
        cfg.partitions = 6;
        cfg.frash.replication_factor = 2;
        cfg.frash.durability = DurabilityMode::SyncCommit;
        let mut udr = Udr::build(cfg).unwrap();
        let subs = provision_n(&mut udr, 24);
        write_markers(&mut udr, &subs, t(5));
        udr.advance_to(t(9));
        let members = udr.shard_map().members_of(P0).unwrap().to_vec();
        let plan = MigrationPlan {
            partition: P0,
            from: members[1],
            to: (0..6).map(SeId).find(|se| !members.contains(se)).unwrap(),
            reason: MoveReason::ScaleOut,
        };
        let id = udr.start_migration(plan, t(10));
        (udr, plan, id)
    };

    // The catch-up tick that cuts the move over, with every SE up. Ticks
    // fall every 200 ms from the start.
    let (mut probe, _, id) = build();
    let mut cutover = t(10);
    while probe.migration_state(id) != Some(MigrationState::Done) {
        assert!(cutover < t(20), "the slave move never cut over");
        cutover += SimDuration::from_millis(200);
        probe.advance_to(cutover);
    }

    // The same run, with the source crashing at that tick. The tick was
    // queued before the crash, and the cutover it queues after, so the
    // crash falls between the two and the cutover retires a down copy.
    let (mut udr, plan, id) = build();
    udr.advance_to(cutover - SimDuration::from_micros(1));
    assert!(udr.se(plan.from).image_lsn(P0).is_some());
    udr.schedule_script(&FaultScript::new(0).se_outage(
        cutover,
        SimDuration::from_secs(5),
        plan.from,
    ));
    udr.advance_to(cutover);
    assert_eq!(udr.migration_state(id), Some(MigrationState::Done));
    assert!(!udr.se(plan.from).is_up());
    assert!(!udr.group(P0).contains(plan.from));

    udr.advance_to(cutover + SimDuration::from_secs(10));
    let source = udr.se(plan.from);
    assert!(source.is_up());
    assert_eq!(source.image_lsn(P0), None);
    assert!(
        source.partitions().all(|p| p != P0),
        "the retired copy of {P0} re-entered {}",
        plan.from
    );
}
