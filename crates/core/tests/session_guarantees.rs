//! Property tests for the session guarantees of
//! `ReadPolicy::SessionConsistent`: under randomized replication lag
//! (random backbone medians, write gaps and read offsets), a session must
//! never miss its own committed write (read-your-writes) and the state it
//! observes must never move backwards (monotonic reads).

use proptest::prelude::*;

use udr_bench::harness::numbered_ids as ids;
use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{ReadPolicy, TxnClass};
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::{PartitionId, SiteId};
use udr_model::session::SessionToken;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::{LatencyModel, LinkProfile};

/// A figure-2 deployment with session-consistent FE reads, loss-free
/// links at the given backbone median, and one provisioned home-region-0
/// subscriber.
fn build(wan_ms: u64, seed: u64) -> (Udr, IdentitySet, PartitionId) {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.fe_read_policy = ReadPolicy::SessionConsistent;
    cfg.seed = seed;
    let mut udr = Udr::build(cfg).expect("valid config");
    let wan = LinkProfile {
        latency: LatencyModel::wan(SimDuration::from_millis(wan_ms)),
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
    let subscriber = ids(1);
    let out = udr.provision_subscriber(
        &subscriber,
        0,
        SiteId(0),
        SimTime::ZERO + SimDuration::from_millis(1),
    );
    assert!(out.is_ok(), "provisioning failed");
    (udr, subscriber, out.partition)
}

fn write_op(subscriber: &IdentitySet, value: u64) -> LdapOp {
    LdapOp::Modify {
        dn: Dn::for_identity(Identity::Imsi(subscriber.imsi)),
        mods: vec![AttrMod::Set(AttrId::AuthSqn, AttrValue::U64(value))],
    }
}

fn read_op(subscriber: &IdentitySet) -> LdapOp {
    LdapOp::Search {
        base: Dn::for_identity(Identity::Imsi(subscriber.imsi)),
        attrs: vec![AttrId::AuthSqn],
    }
}

fn auth_sqn(outcome: &udr_core::OpOutcome) -> Option<u64> {
    match &outcome.result {
        Ok(Some(entry)) => match entry.get(AttrId::AuthSqn) {
            Some(AttrValue::U64(v)) => Some(*v),
            _ => None,
        },
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Read-your-writes: immediately after a session commits a write at
    /// its home site, a read of the same session from *any* site — racing
    /// replication by a few milliseconds — returns that write.
    #[test]
    fn session_never_misses_its_own_write(
        wan_ms in 5u64..60,
        seed in 0u64..1000,
        rounds in prop::collection::vec((1u64..400, 0u32..3, 1u64..40), 1..20),
    ) {
        let (mut udr, subscriber, partition) = build(wan_ms, seed);
        let mut token = SessionToken::new();
        let mut at = SimTime::ZERO + SimDuration::from_secs(5);
        for (i, (gap_ms, read_site, offset_ms)) in rounds.iter().enumerate() {
            let value = i as u64 + 1;
            let w = udr.execute(OpRequest::new(&write_op(&subscriber, value)).class(TxnClass::FrontEnd).site(SiteId(0)).at(at).session(&mut token)).into_op();
            prop_assert!(w.is_ok(), "write failed: {:?}", w.result);
            prop_assert!(token.write_floor(partition) > 0, "write floor not raised");

            let floor_before = token.required_lsn(partition);
            let r = udr.execute(OpRequest::new(&read_op(&subscriber)).class(TxnClass::FrontEnd).site(SiteId(*read_site)).at(at + SimDuration::from_millis(*offset_ms)).session(&mut token)).into_op();
            prop_assert!(r.is_ok(), "session read failed: {:?}", r.result);
            // The session's own committed write is visible, wherever the
            // read was served from.
            prop_assert_eq!(auth_sqn(&r), Some(value), "missed own write");
            // The serving copy had applied at least the session's floor.
            let served = r.served_by.expect("read served");
            let served_lsn = udr.se(served).last_lsn(partition).unwrap().raw();
            prop_assert!(
                served_lsn >= floor_before,
                "served from a copy at LSN {} behind the session floor {}",
                served_lsn,
                floor_before
            );
            // Keep arrivals chronological: the next round starts after
            // this round's read.
            at += SimDuration::from_millis(offset_ms + gap_ms);
        }
        prop_assert_eq!(udr.metrics.guarantees.session_violations, 0);
    }

    /// Monotonic reads: a read-only session that watches a record another
    /// client keeps updating never observes the value moving backwards,
    /// no matter which replica each read lands on.
    #[test]
    fn session_reads_never_move_backwards(
        wan_ms in 5u64..60,
        seed in 0u64..1000,
        rounds in prop::collection::vec((1u64..400, 0u32..3, 0u64..40), 2..20),
    ) {
        let (mut udr, subscriber, partition) = build(wan_ms, seed);
        let mut token = SessionToken::new();
        let mut last_seen = 0u64;
        let mut last_floor = 0u64;
        let mut at = SimTime::ZERO + SimDuration::from_secs(5);
        for (i, (gap_ms, read_site, offset_ms)) in rounds.iter().enumerate() {
            // The writer is a *different*, tokenless client: only
            // monotonic reads (not read-your-writes) protects the reader.
            let w = udr.execute(OpRequest::new(&write_op(&subscriber, i as u64 + 1)).class(TxnClass::FrontEnd).site(SiteId(0)).at(at)).into_op();
            prop_assert!(w.is_ok(), "write failed: {:?}", w.result);

            let r = udr.execute(OpRequest::new(&read_op(&subscriber)).class(TxnClass::FrontEnd).site(SiteId(*read_site)).at(at + SimDuration::from_millis(*offset_ms)).session(&mut token)).into_op();
            prop_assert!(r.is_ok(), "session read failed: {:?}", r.result);
            let seen = auth_sqn(&r).expect("provisioned record has AuthSqn");
            prop_assert!(
                seen >= last_seen,
                "observed value moved backwards: {} after {}",
                seen,
                last_seen
            );
            last_seen = seen;
            // The per-session observed floor never decreases either.
            let floor = token.read_floor(partition);
            prop_assert!(floor >= last_floor, "read floor regressed");
            last_floor = floor;
            // Keep arrivals chronological: the next round starts after
            // this round's read.
            at += SimDuration::from_millis(offset_ms + gap_ms);
        }
        prop_assert_eq!(udr.metrics.guarantees.session_violations, 0);
    }
}
