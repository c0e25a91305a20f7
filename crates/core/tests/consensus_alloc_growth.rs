//! Complexity guard for the consensus embedding: what an operation
//! allocates must not grow with the chosen log's length.
//!
//! One `#[test]` in a binary of its own: the counting allocator is global,
//! so a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::ReplicationMode;
use udr_model::identity::{Identity, IdentitySet, Imsi, Msisdn};
use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};

static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is
        // the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes requested from the allocator by `f`.
fn bytes_of(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Relaxed);
    f();
    BYTES.load(Relaxed) - before
}

/// Enough subscribers that neither write window straddles a power of two
/// of the log length (logs, id sets and commit logs double there, which is
/// amortised growth, not a cost per operation): with one chosen entry per
/// provisioning, the windows see lengths 201–300 and 4 101–4 200.
const SUBSCRIBERS: u64 = 100;
/// Sim-time between operations: two protocol ticks, so every operation
/// also pays for the pump work of an idle ensemble.
const GAP: SimDuration = SimDuration::from_millis(100);

fn imsi(n: u64) -> Imsi {
    Imsi::new(format!("21401{n:010}")).unwrap()
}

struct Stream {
    udr: Udr,
    now: SimTime,
    writes: u64,
}

impl Stream {
    /// Writes number `self.writes + 1 ..= upto`, in order.
    fn write_upto(&mut self, upto: u64) {
        while self.writes < upto {
            self.writes += 1;
            self.now += GAP;
            let out = self.udr.modify_services(
                &Identity::Imsi(imsi(self.writes % SUBSCRIBERS)),
                vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(self.writes))],
                SiteId(0),
                self.now,
            );
            assert!(out.is_ok(), "write {}: {:?}", self.writes, out.result);
        }
    }

    /// Bytes one `Search` allocates, with the pump already at its instant.
    fn search_bytes(&mut self) -> u64 {
        self.now += GAP;
        self.udr.advance_to(self.now);
        let op = LdapOp::Search {
            base: Dn::for_identity(Identity::Imsi(imsi(7))),
            attrs: vec![AttrId::OdbMask],
        };
        let mut found = false;
        let bytes = bytes_of(|| {
            let out = self
                .udr
                .execute(OpRequest::new(&op).site(SiteId(0)).at(self.now))
                .into_op();
            found = matches!(out.result, Ok(Some(_)));
        });
        assert!(found, "the search must be served");
        bytes
    }
}

#[test]
fn consensus_ops_allocate_the_same_however_long_the_log() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
    cfg.seed = 22;
    let mut udr = Udr::build(cfg).unwrap();
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
    let mut s = Stream {
        udr,
        now,
        writes: 0,
    };

    s.write_upto(100);
    let early_search = s.search_bytes();
    let early_writes = bytes_of(|| s.write_upto(200));
    s.write_upto(4_000);
    let late_search = s.search_bytes();
    let late_writes = bytes_of(|| s.write_upto(4_100));

    assert_eq!(
        s.udr.consensus_committed_slots(),
        vec![SUBSCRIBERS + 4_100],
        "one chosen slot per write: the windows sit where the comment says"
    );
    assert!(
        late_writes * 2 <= early_writes * 3,
        "writes 4001-4100 allocated {late_writes} B against {early_writes} B for writes \
         101-200: applying a chosen command must cost the new entries, not the log"
    );
    assert_eq!(
        late_search, early_search,
        "a consensus search after 4000 writes against one after 100"
    );
}
