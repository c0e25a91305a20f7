//! Complexity guard for the write path: a one-attribute `Modify` costs what
//! it changes, not what the record holds. The new version copies the
//! attribute vector and shares every value; master log, ship channels and
//! slave logs share one change list; shipping collects no scratch vectors.
//!
//! The bound is an average over 1 000 writes with the pump included, because
//! logs, ship batches and the event queue grow by doubling.
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
use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};
use udr_replication::ShipBatchConfig;
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
const WARM_UP: u64 = 200;
const COUNTED: u64 = 1_000;
/// Sim-time between writes: ten to a linger window, so batches of ten ship
/// on the timer and the pump has deliveries to apply between writes.
const GAP: SimDuration = SimDuration::from_micros(500);

fn imsi(n: u64) -> Imsi {
    Imsi::new(format!("21401{n:010}")).unwrap()
}

#[test]
fn a_warm_modify_allocates_for_what_it_changes() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    cfg.ship_batch = ShipBatchConfig::coalesce(64, SimDuration::from_millis(5));
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
        now += SimDuration::from_millis(100);
        let out = udr.provision_subscriber(&ids, 0, SiteId(0), now);
        assert!(out.is_ok(), "provisioning {n}: {:?}", out.op.result);
    }
    now += SimDuration::from_secs(5);
    udr.advance_to(now);

    let ops: Vec<LdapOp> = (0..WARM_UP + COUNTED)
        .map(|i| LdapOp::Modify {
            dn: Dn::for_identity(Identity::Imsi(imsi(i % SUBSCRIBERS))),
            mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i + 1))],
        })
        .collect();
    let mut counted_from = 0;
    for (i, op) in ops.iter().enumerate() {
        if i as u64 == WARM_UP {
            counted_from = CALLS.load(Relaxed);
        }
        now += GAP;
        udr.advance_to(now);
        let site = SiteId(i as u32 % SITES);
        let out = udr.execute(OpRequest::new(op).site(site).at(now)).into_op();
        assert!(out.is_ok(), "modify {i} from {site}: {:?}", out.result);
    }
    let calls = CALLS.load(Relaxed) - counted_from;

    now += SimDuration::from_secs(5);
    udr.advance_to(now);
    assert!(udr.replication_settled());
    assert!(
        calls <= 6 * COUNTED,
        "{COUNTED} warm modifies made {calls} allocator calls, pump included"
    );
}
