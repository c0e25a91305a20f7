//! Batched log shipping through the full event pump: coalesced channels
//! must converge replicas exactly like per-record shipping (batches of
//! one), survive partitions via catch-up, and stay deterministic under a
//! fixed seed.

use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{ReadPolicy, ReplicationMode, TxnClass};
use udr_model::identity::{Identity, IdentitySet, Imsi, Msisdn};
use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};
use udr_replication::ShipBatchConfig;
use udr_sim::FaultScript;
use udr_trace::{TraceConfig, TraceRecord};

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

fn build(batch: ShipBatchConfig, seed: u64) -> (Udr, Vec<IdentitySet>) {
    build_traced(batch, seed, TraceConfig::disabled())
}

fn build_traced(batch: ShipBatchConfig, seed: u64, trace: TraceConfig) -> (Udr, Vec<IdentitySet>) {
    let mut cfg = UdrConfig::figure2();
    cfg.trace = trace;
    cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    cfg.ship_batch = batch;
    cfg.seed = seed;
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

/// Drive a fixed write burst and return the value a remote reader sees
/// after everything settles, plus the shipping counters.
fn campaign(batch: ShipBatchConfig, seed: u64) -> (Option<u64>, u64, u64, u64) {
    let (mut udr, subs) = build(batch, seed);
    for i in 0..10u64 {
        let out = udr
            .execute(
                OpRequest::new(&write_op(&subs[0], 100 + i))
                    .class(TxnClass::FrontEnd)
                    .site(SiteId(0))
                    .at(t(10) + SimDuration::from_millis(i * 3)),
            )
            .into_op();
        assert!(out.is_ok(), "write {i} failed: {:?}", out.result);
    }
    udr.advance_to(t(20));
    assert!(udr.replication_settled(), "replication did not settle");
    // Read from a remote site: NearestCopy serves the local slave, which
    // must have applied the batched stream.
    let out = udr
        .execute(
            OpRequest::new(&read_op(&subs[0]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(2))
                .at(t(21)),
        )
        .into_op();
    assert!(out.is_ok(), "remote read failed: {:?}", out.result);
    let value = out
        .result
        .as_ref()
        .ok()
        .and_then(|e| e.as_ref())
        .and_then(|e| e.get(AttrId::OdbMask))
        .and_then(AttrValue::as_u64);
    (
        value,
        udr.shipping_batches(),
        udr.shipped_records(),
        udr.max_replica_lag(),
    )
}

#[test]
fn batched_channels_converge_and_coalesce() {
    let (value, batches, shipped, lag) = campaign(
        ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)),
        7,
    );
    assert_eq!(value, Some(109), "remote slave must see the last write");
    assert_eq!(lag, 0);
    assert!(batches > 0, "coalesced mode must deliver batches");
    assert!(
        batches < shipped,
        "batches ({batches}) must coalesce multiple records ({shipped})"
    );
}

#[test]
fn per_record_mode_ships_batches_of_one() {
    let (value, batches, shipped, lag) = campaign(ShipBatchConfig::per_record(), 7);
    assert_eq!(value, Some(109));
    assert_eq!(lag, 0);
    assert!(shipped > 0);
    assert_eq!(batches, shipped, "per-record mode ships batches of one");
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
    let a = campaign(
        ShipBatchConfig::coalesce(4, SimDuration::from_millis(20)),
        42,
    );
    let b = campaign(
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
    // Heal: periodic catch-up supersedes any dropped batch and re-ships
    // the suffix from the log.
    udr.advance_to(t(25));
    assert!(udr.replication_settled(), "did not settle after heal");
    let out = udr
        .execute(
            OpRequest::new(&read_op(&subs[0]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(2))
                .at(t(26)),
        )
        .into_op();
    let value = out
        .result
        .as_ref()
        .ok()
        .and_then(|e| e.as_ref())
        .and_then(|e| e.get(AttrId::OdbMask))
        .and_then(AttrValue::as_u64);
    assert_eq!(value, Some(205));
}
