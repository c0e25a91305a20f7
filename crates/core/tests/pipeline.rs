//! End-to-end pipeline integration: a read and a write must traverse all
//! four stages (`AccessStage → LocationStage → ReplicationStage →
//! StorageStage`) and report a latency decomposition consistent with the
//! end-to-end latency the monolithic pre-refactor path reported — i.e.
//! the per-stage components must account for every nanosecond of
//! `OpOutcome::latency`, deterministically across identically-seeded
//! deployments.

use udr_bench::harness::{numbered_ids as ids, t};
use udr_core::{
    AccessStage, LatencyBreakdown, LocationStage, OpRequest, PipelineCtx, ReplicationStage,
    StorageStage, Udr, UdrConfig,
};
use udr_ldap::{Dn, Filter, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};
use udr_model::config::{
    DurabilityMode, IsolationLevel, LocatorKind, ReadPolicy, ReplicationMode, TxnClass,
};
use udr_model::error::{UdrError, UdrResult};
use udr_model::identity::Identity;
use udr_model::ids::{PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::{LatencyModel, LinkProfile};
use udr_sim::FaultScript;
use udr_storage::StorageElement;

fn provisioned_udr(cfg: UdrConfig) -> Udr {
    let mut udr = Udr::build(cfg).unwrap();
    for i in 0..4u64 {
        let out = udr.provision_subscriber(&ids(i), (i % 3) as u32, SiteId(0), t(1));
        assert!(out.is_ok(), "provisioning failed: {:?}", out.op.result);
    }
    udr
}

fn search(n: u64) -> LdapOp {
    LdapOp::Search {
        base: Dn::for_identity(Identity::from(ids(n).imsi)),
        attrs: vec![],
    }
}

fn modify(n: u64) -> LdapOp {
    LdapOp::Modify {
        dn: Dn::for_identity(Identity::from(ids(n).imsi)),
        mods: vec![AttrMod::Set(
            AttrId::VlrAddress,
            AttrValue::Str("vlr-test".into()),
        )],
    }
}

/// The decomposition invariant of the success path: every component the
/// stages charged is visible, and the sum reproduces the end-to-end
/// latency exactly — the same total the pre-refactor monolithic path
/// produced for this configuration.
fn assert_decomposed(label: &str, breakdown: &LatencyBreakdown, latency: SimDuration) {
    assert_eq!(
        breakdown.total(),
        latency,
        "{label}: breakdown {breakdown:?} does not sum to latency {latency}"
    );
    assert!(
        breakdown.access > SimDuration::ZERO,
        "{label}: access stage charged nothing (PoA RTT + LDAP processing missing)"
    );
    assert!(
        breakdown.storage > SimDuration::ZERO,
        "{label}: storage stage charged nothing (SE RTT + engine cost missing)"
    );
}

#[test]
fn read_and_write_traverse_all_four_stages() {
    let mut udr = provisioned_udr(UdrConfig::figure2());

    let read = udr
        .execute(
            OpRequest::new(&search(0))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(10)),
        )
        .into_op();
    assert!(read.is_ok(), "read failed: {:?}", read.result);
    assert!(
        read.served_by.is_some(),
        "read never reached a storage element"
    );
    assert!(
        read.result.as_ref().unwrap().is_some(),
        "read returned no entry"
    );
    assert_decomposed("read", &read.breakdown, read.latency);
    // Provisioned maps resolve locally: the location stage ran but is free.
    assert_eq!(read.breakdown.location, SimDuration::ZERO);
    // Async master/slave replication: the commit waits for nothing, and a
    // read replicates nothing.
    assert_eq!(read.breakdown.replication, SimDuration::ZERO);

    let write = udr
        .execute(
            OpRequest::new(&modify(0))
                .class(TxnClass::Provisioning)
                .site(SiteId(0))
                .at(t(11)),
        )
        .into_op();
    assert!(write.is_ok(), "write failed: {:?}", write.result);
    assert!(
        write.served_by.is_some(),
        "write never reached a storage element"
    );
    assert_decomposed("write", &write.breakdown, write.latency);
}

/// A cached locator misses on first resolution: the location stage must
/// charge the probe broadcast to its own component.
#[test]
fn cached_locator_charges_the_location_stage() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.locator = LocatorKind::CachedMaps;
    // A one-entry cache: provisioning subscribers 0..4 evicts the early
    // bindings, so resolving subscriber 2 misses → probe → fill.
    cfg.dls_cache_capacity = 1;
    let mut udr = provisioned_udr(cfg);
    let read = udr
        .execute(
            OpRequest::new(&search(2))
                .class(TxnClass::FrontEnd)
                .site(SiteId(1))
                .at(t(10)),
        )
        .into_op();
    assert!(read.is_ok(), "read failed: {:?}", read.result);
    assert_decomposed("cached read", &read.breakdown, read.latency);
    assert!(
        read.breakdown.location > SimDuration::ZERO,
        "cache miss should charge the location stage, got {:?}",
        read.breakdown
    );
    // The filled cache serves the next resolution locally.
    let again = udr
        .execute(
            OpRequest::new(&search(2))
                .class(TxnClass::FrontEnd)
                .site(SiteId(1))
                .at(t(11)),
        )
        .into_op();
    assert!(again.is_ok());
    assert_eq!(again.breakdown.location, SimDuration::ZERO);
}

/// Synchronous replication modes must charge the replication stage: the
/// quorum write waits for acks, the quorum read waits for the consult.
#[test]
fn quorum_mode_charges_the_replication_stage() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::Quorum { n: 3, w: 2, r: 2 };
    let mut udr = provisioned_udr(cfg);

    let write = udr
        .execute(
            OpRequest::new(&modify(1))
                .class(TxnClass::Provisioning)
                .site(SiteId(0))
                .at(t(10)),
        )
        .into_op();
    assert!(write.is_ok(), "quorum write failed: {:?}", write.result);
    assert_decomposed("quorum write", &write.breakdown, write.latency);
    assert!(
        write.breakdown.replication > SimDuration::ZERO,
        "w=2 commit must wait for a slave ack, got {:?}",
        write.breakdown
    );

    let read = udr
        .execute(
            OpRequest::new(&search(1))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(11)),
        )
        .into_op();
    assert!(read.is_ok(), "quorum read failed: {:?}", read.result);
    assert_decomposed("quorum read", &read.breakdown, read.latency);
    assert!(
        read.breakdown.replication > SimDuration::ZERO,
        "r=2 read must wait for the consult, got {:?}",
        read.breakdown
    );
}

/// §5 ack carry-over: the replicas whose acks a committed quorum write
/// waited for have applied the record by the time the client sees the
/// commit — no event-pump progress required. With every replica
/// reachable the responder set is the whole ensemble, so replication is
/// settled the instant the write returns, and an immediate r=2 consult
/// anywhere sees the new value.
#[test]
fn quorum_acks_carry_the_write_synchronously() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::Quorum { n: 3, w: 2, r: 2 };
    let mut udr = provisioned_udr(cfg);

    let write = udr
        .execute(
            OpRequest::new(&modify(1))
                .class(TxnClass::Provisioning)
                .site(SiteId(0))
                .at(t(10)),
        )
        .into_op();
    assert!(write.is_ok(), "quorum write failed: {:?}", write.result);
    assert_eq!(
        udr.max_replica_lag(),
        0,
        "every responder must be applied at commit time, not at delivery"
    );

    // The freshest consulted copy — wherever the consult lands — already
    // holds the write.
    let read = udr
        .execute(
            OpRequest::new(&search(1))
                .class(TxnClass::FrontEnd)
                .site(SiteId(2))
                .at(t(10)),
        )
        .into_op();
    assert!(read.is_ok(), "quorum read failed: {:?}", read.result);
    let entry = read.result.unwrap().expect("entry present");
    let vlr = entry
        .iter()
        .find(|(id, _)| **id == AttrId::VlrAddress)
        .map(|(_, v)| v.clone());
    assert_eq!(
        vlr,
        Some(AttrValue::Str("vlr-test".into())),
        "an immediate overlap read must see the acknowledged write"
    );
}

/// Quorum-served reads must keep per-operation semantics: a failed
/// Compare assertion is compareFalse (`None`), not the full entry.
#[test]
fn quorum_reads_preserve_operation_semantics() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::Quorum { n: 3, w: 2, r: 2 };
    let mut udr = provisioned_udr(cfg);

    let compare = LdapOp::Compare {
        dn: Dn::for_identity(Identity::from(ids(0).imsi)),
        attr: AttrId::VlrAddress,
        value: AttrValue::Str("definitely-not-the-vlr".into()),
    };
    let out = udr
        .execute(
            OpRequest::new(&compare)
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(10)),
        )
        .into_op();
    assert!(out.is_ok(), "compare failed: {:?}", out.result);
    assert_eq!(
        out.result.unwrap(),
        None,
        "mismatched Compare under quorum must be compareFalse, not the raw entry"
    );

    let bind = LdapOp::Bind {
        dn: Dn::for_identity(Identity::from(ids(0).imsi)),
        password: b"secret".to_vec(),
    };
    let out = udr
        .execute(
            OpRequest::new(&bind)
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(11)),
        )
        .into_op();
    assert!(out.is_ok(), "bind failed: {:?}", out.result);
    assert_eq!(
        out.result.unwrap(),
        None,
        "Bind must not leak the subscriber entry"
    );
}

/// Identically-seeded deployments must produce identical outcomes and
/// identical decompositions through every pipeline entry point — the
/// refactor preserves the monolithic path's determinism.
#[test]
fn decomposition_is_deterministic_across_identical_deployments() {
    let run = || {
        let mut udr = provisioned_udr(UdrConfig::figure2());
        let mut trace = Vec::new();
        for (i, site) in [(0u64, 0u32), (1, 1), (2, 2), (3, 0)] {
            let read = udr
                .execute(
                    OpRequest::new(&search(i))
                        .class(TxnClass::FrontEnd)
                        .site(SiteId(site))
                        .at(t(10 + i)),
                )
                .into_op();
            let write = udr
                .execute(
                    OpRequest::new(&modify(i))
                        .class(TxnClass::Provisioning)
                        .site(SiteId(0))
                        .at(t(20 + i)),
                )
                .into_op();
            trace.push((read.latency, read.breakdown, write.latency, write.breakdown));
        }
        trace
    };
    assert_eq!(run(), run());
}

/// Procedures (multi-op sequences) run entirely through the pipeline; the
/// per-op decompositions must add up to the procedure latency.
#[test]
fn procedure_latency_is_the_sum_of_stage_decompositions() {
    let mut udr = provisioned_udr(UdrConfig::figure2());
    let set = ids(0);
    let ops = udr_core::procedure_ops(
        udr_model::procedures::ProcedureKind::Attach,
        &set,
        SiteId(0),
    );
    let mut by_stage = SimDuration::ZERO;
    let mut total = SimDuration::ZERO;
    let mut at = t(30);
    for op in &ops {
        let out = udr
            .execute(
                OpRequest::new(op)
                    .class(TxnClass::FrontEnd)
                    .site(SiteId(0))
                    .at(at),
            )
            .into_op();
        assert!(out.is_ok(), "attach op failed: {:?}", out.result);
        by_stage += out.breakdown.total();
        total += out.latency;
        at += out.latency;
    }
    assert_eq!(by_stage, total);
}

// ---- reads open no transaction --------------------------------------------

/// One-way delay of every link, intra-site included, in the equivalence
/// deployments: fixed and lossless, so the storage stage's SE round trip
/// is exactly two hops whichever SE it reaches.
const HOP: SimDuration = SimDuration::from_micros(100);
const P0: PartitionId = PartitionId(0);

/// The storage stage's read dispatch before reads stopped opening
/// transactions, kept as the reference: begin, read through the
/// transaction, shape per operation, commit (a read-only commit costs
/// nothing) or abort. Returns the result and the engine charge.
fn read_through_txn(
    se: &mut StorageElement,
    op: &LdapOp,
    partition: PartitionId,
    uid: SubscriberUid,
) -> (UdrResult<Option<Entry>>, SimDuration) {
    let read_cost = se.cost_model().read;
    let mut cost = SimDuration::ZERO;
    let txn = match se.begin(partition, IsolationLevel::ReadCommitted) {
        Ok(t) => t,
        Err(e) => return (Err(e), cost),
    };
    let staged = match op {
        LdapOp::Search { .. } => {
            cost += read_cost;
            match se.read(partition, txn, uid) {
                Ok(Some(entry)) => Ok(Some(entry)),
                Ok(None) => Err(UdrError::NotFound(uid)),
                Err(e) => Err(e),
            }
        }
        LdapOp::SearchFilter { filter, .. } => {
            cost += read_cost + read_cost * filter.assertion_count() as u64;
            match se.read(partition, txn, uid) {
                Ok(Some(entry)) => Ok(if filter.matches(&entry) {
                    Some(entry)
                } else {
                    None
                }),
                Ok(None) => Err(UdrError::NotFound(uid)),
                Err(e) => Err(e),
            }
        }
        LdapOp::Bind { .. } => {
            cost += read_cost;
            match se.read(partition, txn, uid) {
                Ok(Some(_)) => Ok(None),
                Ok(None) => Err(UdrError::NotFound(uid)),
                Err(e) => Err(e),
            }
        }
        LdapOp::Compare { attr, value, .. } => {
            cost += read_cost;
            match se.read(partition, txn, uid) {
                Ok(Some(entry)) => {
                    Ok((entry.get(*attr) == Some(value)).then(|| entry.project(&[*attr])))
                }
                Ok(None) => Err(UdrError::NotFound(uid)),
                Err(e) => Err(e),
            }
        }
        other => panic!("not a read: {other:?}"),
    };
    match staged {
        Ok(value) => match se.commit(partition, txn, SimTime::ZERO) {
            Ok((_, commit_cost)) => (Ok(value), cost + commit_cost),
            Err(e) => (Err(e), cost),
        },
        Err(e) => {
            se.abort(partition, txn);
            (Err(e), cost)
        }
    }
}

/// A stand-alone copy of `se`'s replica of `partition` — the same
/// committed records (tombstones included), cost model, role and up/down
/// state — for the reference to run against.
fn mirror(udr: &Udr, se: SeId, partition: PartitionId) -> StorageElement {
    let src = udr.se(se);
    let mut copy = StorageElement::new(se, src.site(), DurabilityMode::None);
    copy.set_cost_model(src.cost_model().clone());
    match src.engine(partition) {
        Ok(engine) => {
            let role = src.role(partition).expect("hosted");
            copy.seed_replica(partition, role, engine.snapshot());
        }
        Err(_) => copy.add_replica(partition, ReplicaRole::Slave),
    }
    if !src.is_up() {
        copy.crash();
    }
    copy
}

/// Every transaction the pipeline opened is closed again: nothing is left
/// holding a row lock or a staged write.
fn assert_no_open_txns(udr: &Udr, after: &str) {
    for i in 0..udr.se_count() {
        let se = udr.se(SeId(i as u32));
        if !se.is_up() {
            continue;
        }
        for p in se.partitions() {
            let open = se.engine(p).expect("hosted").active_txns();
            assert_eq!(
                open, 0,
                "after {after}: se{i} holds {open} open transactions"
            );
        }
    }
}

fn execute_checked(udr: &mut Udr, op: &LdapOp, site: SiteId, at: SimTime) {
    let out = udr.execute(OpRequest::new(op).site(site).at(at)).into_op();
    assert!(out.is_ok(), "{op:?}: {:?}", out.result);
    assert_no_open_txns(udr, &format!("{op:?}"));
}

/// One partition on three fixed-latency sites; subscriber 0 carries
/// `odbMask=7`, subscriber 1 is deleted by a raw `Delete` (its bindings
/// stay, so the stages still route to the tombstone).
fn equivalence_udr() -> Udr {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    let mut udr = Udr::build(cfg).unwrap();
    let fixed = LinkProfile::lossless(LatencyModel::Fixed(HOP));
    for a in 0..3 {
        for b in a..3 {
            udr.net
                .topology_mut()
                .set_link(SiteId(a), SiteId(b), fixed.clone());
        }
    }
    for i in 0..3u64 {
        let out = udr.provision_subscriber(&ids(i), 0, SiteId(0), t(1));
        assert!(out.is_ok(), "provisioning {i}: {:?}", out.op.result);
        assert_no_open_txns(&udr, "provisioning");
    }
    let set_mask = LdapOp::Modify {
        dn: Dn::for_identity(Identity::from(ids(0).imsi)),
        mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(7))],
    };
    execute_checked(&mut udr, &set_mask, SiteId(0), t(2));
    let delete = LdapOp::Delete {
        dn: Dn::for_identity(Identity::from(ids(1).imsi)),
    };
    execute_checked(&mut udr, &delete, SiteId(0), t(3));
    udr.advance_to(t(5));
    assert!(udr.replication_settled());
    udr
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Held {
    Present,
    Absent,
    Tombstoned,
    SeDown,
}

/// The six read shapes, against subscriber `n`.
fn read_ops(n: u64) -> Vec<LdapOp> {
    let dn = || Dn::for_identity(Identity::from(ids(n).imsi));
    let filter = |f: &str| f.parse::<Filter>().expect("valid filter");
    let compare = |mask| LdapOp::Compare {
        dn: dn(),
        attr: AttrId::OdbMask,
        value: AttrValue::U64(mask),
    };
    vec![
        LdapOp::Search {
            base: dn(),
            attrs: vec![],
        },
        LdapOp::SearchFilter {
            base: dn(),
            filter: filter("(&(odbMask=7)(!(odbMask=8)))"),
            attrs: vec![],
        },
        LdapOp::SearchFilter {
            base: dn(),
            filter: filter("(&(odbMask=8)(!(odbMask=7)))"),
            attrs: vec![AttrId::Imsi],
        },
        LdapOp::Bind {
            dn: dn(),
            password: b"secret".to_vec(),
        },
        compare(7),
        compare(8),
    ]
}

/// Route read number `k` in state `held` through the first three stages,
/// then check `StorageStage::run` against [`read_through_txn`] on a mirror
/// of the routed SE: same value or error, same storage charge.
fn storage_stage_matches_the_transactional_read(held: Held, k: usize) {
    let mut udr = equivalence_udr();
    // Read at a slave's site: nearest-copy routing serves it from that
    // slave, which has not yet received an Add committed at the master in
    // the same instant.
    let master = udr.group(P0).master();
    let target = *udr
        .group(P0)
        .members()
        .iter()
        .find(|se| **se != master)
        .expect("a slave copy");
    let site = udr.se(target).site();
    let now = t(10);
    let n = match held {
        Held::Present | Held::SeDown => 0,
        Held::Tombstoned => 1,
        Held::Absent => {
            let out = udr.provision_subscriber(&ids(3), 0, SiteId(0), now);
            assert!(out.is_ok(), "provisioning: {:?}", out.op.result);
            3
        }
    };
    let uid = udr
        .lookup_authority(&Identity::from(ids(n).imsi))
        .expect("bound")
        .uid;
    let op = read_ops(n).swap_remove(k);
    let label = format!("{held:?} {op:?}");

    udr.advance_to(now);
    let mut ctx = PipelineCtx::new(&op, TxnClass::FrontEnd, site, now);
    assert!(AccessStage::run(&mut udr, &mut ctx).is_ok(), "{label}");
    assert!(LocationStage::run(&mut udr, &mut ctx).is_ok(), "{label}");
    assert!(
        ReplicationStage::route(&mut udr, &mut ctx).is_ok(),
        "{label}"
    );
    if held == Held::SeDown {
        udr.schedule_script(&FaultScript::new(0).se_outage(now, SimDuration::from_secs(1), target));
        udr.advance_to(now);
        assert!(!udr.se(target).is_up(), "{label}");
    }

    let mut reference = mirror(&udr, target, P0);
    let (expected, engine_charge) = read_through_txn(&mut reference, &op, P0, uid);
    match held {
        Held::Present => assert!(expected.is_ok(), "{label}: {expected:?}"),
        Held::Absent | Held::Tombstoned => {
            assert_eq!(expected, Err(UdrError::NotFound(uid)), "{label}")
        }
        Held::SeDown => assert_eq!(expected, Err(UdrError::SeUnavailable(target)), "{label}"),
    }

    let before = ctx.breakdown.storage;
    let got = StorageStage::run(&mut udr, &mut ctx).map_err(|out| out.result.unwrap_err());
    assert_eq!(got, expected, "{label}");
    assert_eq!(
        ctx.breakdown.storage - before,
        HOP * 2 + engine_charge,
        "{label}: storage charge"
    );
    drop(ctx);

    // The same read end to end opens nothing either, and (while the copy
    // is up) is served by the SE the mirror copied.
    let out = udr
        .execute(OpRequest::new(&op).site(site).at(now))
        .into_op();
    assert_no_open_txns(&udr, &label);
    if held == Held::Present {
        assert_eq!(out.served_by, Some(target), "{label}");
    }
}

#[test]
fn reads_return_what_a_read_only_transaction_returned() {
    for held in [Held::Present, Held::Absent, Held::Tombstoned, Held::SeDown] {
        for k in 0..read_ops(0).len() {
            storage_stage_matches_the_transactional_read(held, k);
        }
    }
}
