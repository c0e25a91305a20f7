//! Batched log shipping through the full event pump: coalesced channels
//! must converge replicas exactly like per-record shipping (batches of
//! one), ship each record once unless its message is lost, survive
//! partitions and crashes via catch-up, and stay deterministic under a
//! fixed seed.

use udr_bench::harness::{numbered_ids as ids, t};
use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{DurabilityMode, ReadPolicy, ReplicationMode, TxnClass};
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::{SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_replication::ShipBatchConfig;
use udr_sim::FaultScript;
use udr_trace::{TraceConfig, TraceRecord};

fn config(batch: ShipBatchConfig, seed: u64) -> UdrConfig {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    cfg.ship_batch = batch;
    cfg.seed = seed;
    cfg
}

fn build(batch: ShipBatchConfig, seed: u64) -> (Udr, Vec<IdentitySet>) {
    provisioned(config(batch, seed))
}

fn build_traced(batch: ShipBatchConfig, seed: u64, trace: TraceConfig) -> (Udr, Vec<IdentitySet>) {
    let mut cfg = config(batch, seed);
    cfg.trace = trace;
    provisioned(cfg)
}

/// The deployment with three subscribers provisioned, one per home region.
/// Under figure 2's three partitions each master sits on its own site,
/// with a slave on each other site.
fn provisioned(cfg: UdrConfig) -> (Udr, Vec<IdentitySet>) {
    let mut udr = Udr::build(cfg).expect("valid config");
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

/// `writes` writes to one subscriber, `gap` apart, starting at t=10 s.
fn write_burst(udr: &mut Udr, subscriber: &IdentitySet, writes: u64, gap: SimDuration) {
    for i in 0..writes {
        let out = udr
            .execute(
                OpRequest::new(&write_op(subscriber, 100 + i))
                    .class(TxnClass::FrontEnd)
                    .site(SiteId(0))
                    .at(t(10) + gap * i),
            )
            .into_op();
        assert!(out.is_ok(), "write {i} failed: {:?}", out.result);
    }
}

/// The value a reader at site 2 sees: NearestCopy serves the local slave.
fn remote_value(udr: &mut Udr, subscriber: &IdentitySet, at: SimTime) -> Option<u64> {
    let out = udr
        .execute(
            OpRequest::new(&read_op(subscriber))
                .class(TxnClass::FrontEnd)
                .site(SiteId(2))
                .at(at),
        )
        .into_op();
    assert!(out.is_ok(), "remote read failed: {:?}", out.result);
    out.result
        .as_ref()
        .ok()
        .and_then(|e| e.as_ref())
        .and_then(|e| e.get(AttrId::OdbMask))
        .and_then(AttrValue::as_u64)
}

/// Records the slaves of every partition applied: each slave starts empty,
/// so its position counts them while nothing reseeds it.
fn applied_on_slaves(udr: &Udr) -> u64 {
    assert_eq!(udr.metrics.reseeds, 0, "a reseed skips records");
    udr.shard_map()
        .partitions()
        .map(|p| {
            udr.group(p)
                .slaves()
                .map(|se| udr.se(se).last_lsn(p).map_or(0, |lsn| lsn.raw()))
                .sum::<u64>()
        })
        .sum()
}

/// What a write burst left behind once everything settled.
#[derive(Debug, PartialEq)]
struct Campaign {
    /// The last value, as a remote reader sees it.
    value: Option<u64>,
    batches: u64,
    shipped: u64,
    /// Records the slaves applied.
    applied: u64,
    lag: u64,
}

/// Drive a write burst and return what it left once everything settled.
fn campaign(batch: ShipBatchConfig, seed: u64, writes: u64, gap: SimDuration) -> Campaign {
    let (mut udr, subs) = build(batch, seed);
    write_burst(&mut udr, &subs[0], writes, gap);
    udr.advance_to(t(20));
    assert!(udr.replication_settled(), "replication did not settle");
    Campaign {
        value: remote_value(&mut udr, &subs[0], t(21)),
        batches: udr.shipping_batches(),
        shipped: udr.shipped_records(),
        applied: applied_on_slaves(&udr),
        lag: udr.max_replica_lag(),
    }
}

/// Ten writes 3 ms apart: every batch has arrived before the next
/// catch-up tick.
fn ten_writes(batch: ShipBatchConfig, seed: u64) -> Campaign {
    campaign(batch, seed, 10, SimDuration::from_millis(3))
}

#[test]
fn batched_channels_converge_and_coalesce() {
    let c = ten_writes(
        ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)),
        7,
    );
    assert_eq!(c.value, Some(109), "remote slave must see the last write");
    assert_eq!(c.lag, 0);
    assert!(c.batches > 0, "coalesced mode must deliver batches");
    assert!(
        c.batches < c.shipped,
        "batches ({}) must coalesce multiple records ({})",
        c.batches,
        c.shipped
    );
}

#[test]
fn per_record_mode_ships_batches_of_one() {
    let c = ten_writes(ShipBatchConfig::per_record(), 7);
    assert_eq!(c.value, Some(109));
    assert_eq!(c.lag, 0);
    assert!(c.shipped > 0);
    assert_eq!(c.batches, c.shipped, "per-record mode ships batches of one");
}

#[test]
fn no_record_ships_twice_in_a_fault_free_run() {
    // The benchmark's shape: a write every 500 µs, so catch-up ticks fall
    // while batches are in flight and, when coalescing, while one is open.
    for batch in [
        ShipBatchConfig::coalesce(64, SimDuration::from_millis(5)),
        ShipBatchConfig::per_record(),
    ] {
        let c = campaign(batch, 7, 1_000, SimDuration::from_micros(500));
        assert_eq!(c.value, Some(1_099), "{batch:?}");
        assert_eq!(c.shipped, c.applied, "{batch:?}: a record shipped twice");
    }
}

/// One traced modify at t=10 s, settled; returns its trace id and the
/// flight recorder's records.
fn traced_modify(batch: ShipBatchConfig) -> (u64, Vec<TraceRecord>) {
    let (mut udr, subs) = build_traced(batch, 7, TraceConfig::full());
    let out = udr
        .execute(
            OpRequest::new(&write_op(&subs[0], 100))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(10)),
        )
        .into_op();
    assert!(out.is_ok(), "write failed: {:?}", out.result);
    udr.advance_to(t(12));
    let records = udr.trace_export().records;
    let op = records
        .iter()
        .find(|r| r.name == "op.modify")
        .expect("the modify was traced");
    (op.trace, records)
}

#[test]
fn the_recorder_keeps_only_batches_a_traced_op_opened() {
    // Batches of one are never stamped, so the flight recorder keeps no
    // flush and no delivery of them.
    let (_, records) = traced_modify(ShipBatchConfig::per_record());
    for name in ["ship.flush", "repl.deliver_batch"] {
        assert!(
            records.iter().all(|r| r.name != name),
            "per-record shipping recorded {name}"
        );
    }
    // A coalescing batch carries the trace of the op that opened it to its
    // linger flush and to its arrival at each of the partition's two
    // slaves. (Provisioning opened earlier batches under its own traces.)
    let (trace, records) =
        traced_modify(ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)));
    for name in ["ship.flush", "repl.deliver_batch"] {
        let since_modify: Vec<_> = records
            .iter()
            .filter(|r| r.name == name && r.start >= t(10))
            .collect();
        assert_eq!(since_modify.len(), 2, "{name}: {since_modify:?}");
        assert!(
            since_modify.iter().all(|r| r.trace == trace),
            "{name} not under the modify's trace {trace}: {since_modify:?}"
        );
    }
}

#[test]
fn batched_campaign_is_deterministic() {
    let a = ten_writes(
        ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)),
        42,
    );
    let b = ten_writes(
        ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)),
        42,
    );
    assert_eq!(a, b, "same seed must reproduce the identical campaign");
}

#[test]
fn batches_dropped_by_partition_are_reshipped() {
    let (mut udr, subs) = build(
        ShipBatchConfig::coalesce(8, SimDuration::from_millis(50)),
        13,
    );
    // Cut site 2 off, then write at the site-0 master during the cut: the
    // site-2 slave's batches cannot deliver.
    udr.schedule_script(&FaultScript::new(1).clean_partition(
        t(10),
        SimDuration::from_secs(10),
        [SiteId(2)],
    ));
    for i in 0..6u64 {
        let out = udr
            .execute(
                OpRequest::new(&write_op(&subs[0], 200 + i))
                    .class(TxnClass::FrontEnd)
                    .site(SiteId(0))
                    .at(t(12) + SimDuration::from_millis(i * 5)),
            )
            .into_op();
        assert!(out.is_ok(), "write under cut failed: {:?}", out.result);
    }
    udr.advance_to(t(15));
    assert!(udr.max_replica_lag() > 0, "cut slave must lag");
    // Heal: the batches flushed under the cut were lost at send, and the
    // periodic catch-up ships the suffix from the log.
    udr.advance_to(t(25));
    assert!(udr.replication_settled(), "did not settle after heal");
    assert_eq!(remote_value(&mut udr, &subs[0], t(26)), Some(205));
}

/// Four writes at t=10 s fill one batch to each slave of the subscriber's
/// partition, flushed at the fourth write (t=10.003 s); `fault` strikes
/// the site-2 slave 2 ms later, while its batch is still crossing the WAN
/// (15 ms or more). The slave must converge once the fault is over, and
/// the four records of the lost batch must ship exactly twice.
fn lose_a_batch_in_flight(cfg: UdrConfig, fault: FaultScript) {
    let (mut udr, subs) = provisioned(cfg);
    udr.advance_to(t(9));
    assert!(udr.replication_settled());
    assert_eq!(udr.shipped_records(), applied_on_slaves(&udr));
    udr.schedule_script(&fault);
    write_burst(&mut udr, &subs[0], 4, SimDuration::from_millis(1));
    udr.advance_to(t(20));
    assert!(udr.replication_settled(), "did not settle after the fault");
    assert_eq!(remote_value(&mut udr, &subs[0], t(21)), Some(103));
    assert_eq!(
        udr.shipped_records() - applied_on_slaves(&udr),
        4,
        "the four records of the lost batch ship exactly twice"
    );
}

/// The fault starts between the batch's flush and its arrival.
fn mid_flight() -> SimTime {
    t(10) + SimDuration::from_millis(5)
}

#[test]
fn a_batch_cut_off_in_flight_ships_again_after_the_heal() {
    lose_a_batch_in_flight(
        config(
            ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)),
            13,
        ),
        FaultScript::new(1).clean_partition(mid_flight(), SimDuration::from_secs(2), [SiteId(2)]),
    );
}

#[test]
fn a_batch_that_reaches_a_crashed_slave_ships_again_after_the_restore() {
    // Each commit and apply reaches disk, so the slave restores exactly
    // where it crashed: only the lost batch is missing. It is back before
    // the next catch-up tick (t=10.2 s); a longer outage lets that tick
    // truncate the master's log past it, and a reseed replaces the
    // re-ship. One partition, so the crashed SE masters none and the
    // partition keeps its shipping ledger.
    let mut cfg = config(
        ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)),
        13,
    );
    cfg.frash.durability = DurabilityMode::SyncCommit;
    cfg.partitions = 1;
    lose_a_batch_in_flight(
        cfg,
        FaultScript::new(1).se_outage(mid_flight(), SimDuration::from_millis(100), SeId(2)),
    );
}

/// The shipping totals count the deployment's shipping, not one ledger's:
/// the failover that rebuilds the crashed master's partition ledger keeps
/// what the partition shipped before it, and shipping from the new master
/// adds to that. Sampled every 50 ms from before the crash to after the
/// promotion, neither total ever falls.
#[test]
fn shipping_totals_never_fall_across_a_failover() {
    let mut cfg = config(
        ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)),
        13,
    );
    cfg.frash.failover_detection = SimDuration::from_millis(500);
    let (mut udr, subs) = provisioned(cfg);
    write_burst(&mut udr, &subs[0], 8, SimDuration::from_millis(1));
    udr.advance_to(t(11));
    assert!(udr.replication_settled());
    let identity = Identity::Imsi(subs[0].imsi);
    let partition = udr.lookup_authority(&identity).unwrap().partition;
    let master = udr.group(partition).master();
    udr.schedule_script(&FaultScript::new(0).se_crash(t(12), master));

    let totals = |udr: &Udr| (udr.shipped_records(), udr.shipping_batches());
    let before = totals(&udr);
    assert!(before.0 >= 8 && before.1 > 0, "{before:?}");
    let mut last = before;
    for step in 1..=60u64 {
        udr.advance_to(t(11) + SimDuration::from_millis(50 * step));
        let now = totals(&udr);
        assert!(
            now.0 >= last.0 && now.1 >= last.1,
            "(shipped, batches) fell from {last:?} to {now:?} at step {step}"
        );
        last = now;
    }
    assert_ne!(udr.group(partition).master(), master, "no failover");

    let out = udr
        .execute(
            OpRequest::new(&write_op(&subs[0], 500))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(15)),
        )
        .into_op();
    assert!(out.is_ok(), "write after the failover: {:?}", out.result);
    udr.advance_to(t(16));
    let after = totals(&udr);
    assert!(
        after.0 > last.0 && after.1 > last.1,
        "the new master's shipping adds to the totals: {last:?} then {after:?}"
    );
}
