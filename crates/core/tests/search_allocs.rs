//! Complexity guard for the read path: once the deployment is warm, a
//! `Search` makes no allocator call inside `Udr::execute` — the payload is
//! shared, a projection is a view of it, no error value is built for an
//! operation that succeeds, and a quorum consult keeps its responders in a
//! scratch vector.
//!
//! One `#[test]` in a binary of its own: the counting allocator is global,
//! so a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{ReadPolicy, ReplicationMode};
use udr_model::identity::{Identity, IdentitySet, Imsi, Msisdn};
use udr_model::ids::{PartitionId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::LinkProfile;

static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is
        // the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SUBSCRIBERS: u64 = 40;
const SITES: u32 = 3;
/// Sim-time between operations: two consensus ticks, so the pump has work
/// between any two searches — done by `advance_to`, outside the count.
const GAP: SimDuration = SimDuration::from_millis(100);

fn imsi(n: u64) -> Imsi {
    Imsi::new(format!("21401{n:010}")).unwrap()
}

/// Whether search number `i` selects one attribute (else: everything).
fn selects_one(i: u64) -> bool {
    i.is_multiple_of(2)
}

/// Search number `i`: subscribers, sites and the attribute selection all
/// rotate.
fn search(i: u64) -> (LdapOp, SiteId) {
    let attrs = if selects_one(i) {
        vec![AttrId::OdbMask]
    } else {
        vec![]
    };
    let op = LdapOp::Search {
        base: Dn::for_identity(Identity::Imsi(imsi(i % SUBSCRIBERS))),
        attrs,
    };
    (op, SiteId((i / 2 % u64::from(SITES)) as u32))
}

/// Build, provision, write to every subscriber once, settle; then 1 000
/// searches after a warm-up. Returns how many were served by the master
/// copy and how many by a slave.
fn searches_allocate_nothing(replication: ReplicationMode) -> (u64, u64) {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = replication;
    cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    cfg.seed = 23;
    let mut udr = Udr::build(cfg).unwrap();
    // Figure 2's backbone loses one message in 10⁴; a lost message fails
    // the operation, and a failure may allocate.
    for a in 0..SITES {
        for b in a + 1..SITES {
            let latency = udr
                .net
                .topology()
                .link(SiteId(a), SiteId(b))
                .latency
                .clone();
            udr.net
                .topology_mut()
                .set_link(SiteId(a), SiteId(b), LinkProfile::lossless(latency));
        }
    }

    let mut now = SimTime::ZERO + SimDuration::from_secs(2);
    for n in 0..SUBSCRIBERS {
        let ids = IdentitySet {
            imsi: imsi(n),
            msisdn: Msisdn::new(format!("346{n:08}")).unwrap(),
            impus: vec![],
            impi: None,
        };
        now += GAP;
        let out = udr.provision_subscriber(&ids, 0, SiteId(0), now);
        assert!(out.is_ok(), "provisioning {n}: {:?}", out.op.result);
    }
    for n in 0..SUBSCRIBERS {
        now += GAP;
        let out = udr.modify_services(
            &Identity::Imsi(imsi(n)),
            vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(n + 1))],
            SiteId(0),
            now,
        );
        assert!(out.is_ok(), "write {n}: {:?}", out.result);
    }
    now += SimDuration::from_secs(5);
    udr.advance_to(now);
    assert!(udr.replication_settled());

    let master = udr.group(PartitionId(0)).master();
    let (mut by_master, mut by_slave) = (0, 0);
    for i in 0..1_200u64 {
        let (op, site) = search(i);
        now += GAP;
        udr.advance_to(now);
        let before = CALLS.load(Relaxed);
        let out = udr
            .execute(OpRequest::new(&op).site(site).at(now))
            .into_op();
        let calls = CALLS.load(Relaxed) - before;

        let entry = match &out.result {
            Ok(Some(entry)) => entry,
            other => panic!("search {i} from {site}: {other:?}"),
        };
        assert_eq!(
            entry.get(AttrId::OdbMask),
            Some(&AttrValue::U64(i % SUBSCRIBERS + 1))
        );
        assert_eq!(entry.len() == 1, selects_one(i), "search {i}: {entry:?}");
        if i < 200 {
            continue; // warm-up: histograms, scratch buffers, caches
        }
        assert_eq!(
            calls, 0,
            "{replication}: search {i} from {site}, served by {:?}, made {calls} allocator calls",
            out.served_by
        );
        if out.served_by == Some(master) {
            by_master += 1;
        } else {
            by_slave += 1;
        }
    }
    (by_master, by_slave)
}

#[test]
fn a_warm_search_makes_no_allocator_call() {
    let (by_master, by_slave) = searches_allocate_nothing(ReplicationMode::AsyncMasterSlave);
    assert!(
        by_master >= 300 && by_slave >= 300,
        "master/slave-served: {by_master}/{by_slave}"
    );
    searches_allocate_nothing(ReplicationMode::Consensus { n: 3 });
    searches_allocate_nothing(ReplicationMode::Quorum { n: 3, w: 2, r: 2 });
}
