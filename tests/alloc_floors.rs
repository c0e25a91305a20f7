//! Allocation floors: what the hot paths may ask of the allocator.
//!
//! * a warm `Search` makes no allocator call inside `Udr::execute`;
//! * a provisioned profile shares its identities with the interner, so
//!   building one allocates its flat block, Ki and IMPU list only, and its
//!   flat block stores only the values that differ from the defaults;
//! * a one-attribute `Modify` allocates for what it changes, not for what
//!   the record holds: one delta block of 24 bytes plus 16 per attribute
//!   written since the profile's flat block, which it shares, and a
//!   two-attribute apply one delta of both values;
//! * a consensus write allocates its post-image and nothing per protocol
//!   message;
//! * under consensus, what an operation allocates does not grow with the
//!   chosen log;
//! * the storage engine shares committed payloads instead of copying them;
//! * a record store holds less than one segment of empty room in each of
//!   its per-slot structures, and its `heap_bytes` is what it holds;
//! * a record store's uid index holds a 4-byte slot per bucket and no key,
//!   in 32 768 buckets for 16 667 records;
//! * a save allocates nothing, the first one and one after new records
//!   included, and a sync-commit write nothing extra;
//! * a commit log truncated behind its readers takes the segments it
//!   emptied back, instead of asking for new ones, and so does a chosen
//!   log compacted behind its readers, whose id window stays as small;
//! * a warm catch-up pass ships in batch vectors earlier deliveries handed
//!   back, and a warm consensus catch-up reply fills a vector an earlier
//!   one left;
//! * an identity-location table takes 12 bytes a binding and one control
//!   byte per bucket;
//! * a three-site deployment holds one identity table: its provisioned
//!   site stages resolve through it and hold no binding of their own.
//!
//! One counting allocator serves them all. It counts per thread, in
//! const-initialised thread-locals that never allocate, so the floors run
//! in parallel as separate tests and each sees only its own calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

use udr::consensus::{CmdId, Command, Ensemble, Message, NodeId, ReplicaConfig, Slot};
use udr::core::{OpRequest, Udr, UdrConfig};
use udr::dls::{IdentityLocationMap, Location};
use udr::ldap::{Dn, LdapOp};
use udr::model::attrs::{AttrId, AttrMod, AttrValue, Entry, Octets};
use udr::model::config::{
    DurabilityMode, IsolationLevel, LocatorKind, ReadPolicy, ReplicationMode,
};
use udr::model::identity::{Identity, IdentitySet, Impi, Impu, Imsi, Msisdn};
use udr::model::ids::{PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr::model::profile::SubscriberProfile;
use udr::model::time::{SimDuration, SimTime};
use udr::replication::ShipBatchConfig;
use udr::sim::net::{LatencyModel, LinkProfile};
use udr::storage::{CommitRecord, Engine, Lsn, RecordStore, RecordVersion, StorageElement};

/// What the allocator saw on one thread.
#[derive(Clone, Copy)]
struct Tally {
    /// `alloc` and `realloc` calls.
    calls: u64,
    /// Bytes requested (a `realloc` counts its new size).
    bytes: u64,
    /// Requests whose size fell inside this thread's [`window`].
    in_window: u64,
    /// Bytes handed back (a `realloc` counts its old size).
    freed: u64,
}

impl Tally {
    /// Bytes still held of those requested.
    fn live(&self) -> u64 {
        self.bytes - self.freed
    }
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            calls: 0,
            bytes: 0,
            in_window: 0,
            freed: 0,
        })
    };
    static WINDOW: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count_free(size: usize) {
    TALLY.with(|t| {
        let mut tally = t.get();
        tally.freed += size as u64;
        t.set(tally);
    });
}

fn count(size: usize) {
    let (lo, hi) = WINDOW.with(Cell::get);
    TALLY.with(|t| {
        let mut tally = t.get();
        tally.calls += 1;
        tally.bytes += size as u64;
        tally.in_window += u64::from((lo..hi).contains(&size));
        t.set(tally);
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are `Copy` cells in
// const thread-locals, so counting neither allocates nor touches the memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_free(layout.size());
        count(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is
        // the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Count requests of a size in `sizes` on this thread from now on.
fn window(sizes: Range<usize>) {
    WINDOW.with(|w| w.set((sizes.start, sizes.end)));
}

/// This thread's running totals.
fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// What this thread asked of the allocator while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let before = tally();
    let out = f();
    let after = tally();
    (
        out,
        Tally {
            calls: after.calls - before.calls,
            bytes: after.bytes - before.bytes,
            in_window: after.in_window - before.in_window,
            freed: after.freed - before.freed,
        },
    )
}

const SITES: u32 = 3;

fn imsi(n: u64) -> Imsi {
    Imsi::new(format!("21401{n:010}")).unwrap()
}

/// Figure 2's backbone loses one message in 10⁴; a lost message fails the
/// operation, and a failure may allocate.
fn lossless_backbone(udr: &mut Udr) {
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
}

/// Provision subscribers `0..subscribers` from site 0, one every 100 ms
/// after `now`; returns the instant of the last.
fn provision(udr: &mut Udr, subscribers: u64, mut now: SimTime) -> SimTime {
    for n in 0..subscribers {
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
    now
}

// --- Search: a warm search makes no allocator call --------------------------
//
// The payload is shared, a projection is a view of it, no error value is
// built for an operation that succeeds, and a quorum consult keeps its
// responders in a scratch vector.

const SEARCH_SUBSCRIBERS: u64 = 40;
/// Sim-time between searches: two consensus ticks, so the pump has work
/// between any two searches — done by `advance_to`, outside the count.
const SEARCH_GAP: SimDuration = SimDuration::from_millis(100);

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
        base: Dn::for_identity(Identity::Imsi(imsi(i % SEARCH_SUBSCRIBERS))),
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
    lossless_backbone(&mut udr);

    let mut now = provision(
        &mut udr,
        SEARCH_SUBSCRIBERS,
        SimTime::ZERO + SimDuration::from_secs(2),
    );
    for n in 0..SEARCH_SUBSCRIBERS {
        now += SEARCH_GAP;
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
        now += SEARCH_GAP;
        udr.advance_to(now);
        let (out, tally) = counted(|| {
            udr.execute(OpRequest::new(&op).site(site).at(now))
                .into_op()
        });

        let entry = match &out.result {
            Ok(Some(entry)) => entry,
            other => panic!("search {i} from {site}: {other:?}"),
        };
        assert_eq!(
            entry.get(AttrId::OdbMask),
            Some(&AttrValue::U64(i % SEARCH_SUBSCRIBERS + 1))
        );
        assert_eq!(entry.len() == 1, selects_one(i), "search {i}: {entry:?}");
        if i < 200 {
            continue; // warm-up: histograms, scratch buffers, caches
        }
        assert_eq!(
            tally.calls, 0,
            "{replication}: search {i} from {site}, served by {:?}, made {} allocator calls",
            out.served_by, tally.calls
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

// --- Modify: a write costs what it changes ----------------------------------
//
// The new version copies the attribute slots into one block and shares
// every value; the commit record holds its one change inline, and master
// log, ship channels and slave logs each keep a copy of that record; the
// write set and the ship batches reuse vectors earlier ones returned. The
// bound is one call per write plus a fifth of one, averaged over 1 000
// writes with the pump included, because logs and the event queue grow.

const MODIFY_SUBSCRIBERS: u64 = 40;
const WARM_UP: u64 = 200;
const COUNTED: u64 = 1_000;
/// Sim-time between writes: ten to a linger window, so batches of ten ship
/// on the timer and the pump has deliveries to apply between writes.
const MODIFY_GAP: SimDuration = SimDuration::from_micros(500);

/// `cfg` built on a lossless backbone, with `MODIFY_SUBSCRIBERS`
/// provisioned and settled; returns it and the instant it settled at.
fn provisioned_for_writes(mut cfg: UdrConfig) -> (Udr, SimTime) {
    cfg.seed = 23;
    let mut udr = Udr::build(cfg).unwrap();
    lossless_backbone(&mut udr);
    let mut now = provision(
        &mut udr,
        MODIFY_SUBSCRIBERS,
        SimTime::ZERO + SimDuration::from_secs(2),
    );
    now += SimDuration::from_secs(5);
    udr.advance_to(now);
    (udr, now)
}

/// `WARM_UP + COUNTED` one-attribute modifies from rotating sites, `gap`
/// apart, the pump advanced to each before it runs; returns the allocator
/// calls of the last `COUNTED`, pump included, and the instant of the last.
fn warm_writes(udr: &mut Udr, mut now: SimTime, gap: SimDuration) -> (u64, SimTime) {
    let ops: Vec<LdapOp> = (0..WARM_UP + COUNTED)
        .map(|i| LdapOp::Modify {
            dn: Dn::for_identity(Identity::Imsi(imsi(i % MODIFY_SUBSCRIBERS))),
            mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i + 1))],
        })
        .collect();
    let mut counted_from = 0;
    for (i, op) in ops.iter().enumerate() {
        if i as u64 == WARM_UP {
            counted_from = tally().calls;
        }
        now += gap;
        udr.advance_to(now);
        let site = SiteId(i as u32 % SITES);
        let out = udr.execute(OpRequest::new(op).site(site).at(now)).into_op();
        assert!(out.is_ok(), "modify {i} from {site}: {:?}", out.result);
    }
    (tally().calls - counted_from, now)
}

/// Warm modifies under async master/slave shipping with `ship_batch`,
/// held to the modify floor.
fn warm_modifies_allocate_for_what_they_change(ship_batch: ShipBatchConfig) {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    cfg.ship_batch = ship_batch;
    let (mut udr, now) = provisioned_for_writes(cfg);
    let (calls, now) = warm_writes(&mut udr, now, MODIFY_GAP);

    udr.advance_to(now + SimDuration::from_secs(5));
    assert!(udr.replication_settled());
    assert!(
        calls <= COUNTED + COUNTED / 5,
        "{COUNTED} warm modifies made {calls} allocator calls, pump included ({ship_batch:?})"
    );
}

#[test]
fn a_warm_modify_allocates_for_what_it_changes() {
    warm_modifies_allocate_for_what_they_change(ShipBatchConfig::coalesce(
        64,
        SimDuration::from_millis(5),
    ));
}

/// The default ships every commit at once as a batch of one; its batch
/// vectors are recycled like coalesced ones.
#[test]
fn a_warm_modify_shipped_per_record_allocates_for_what_it_changes() {
    warm_modifies_allocate_for_what_they_change(ShipBatchConfig::per_record());
}

const PROFILE_UID: SubscriberUid = SubscriberUid(1);

/// A provisioned 13-attribute profile: one flat block, storing the 4 values
/// that differ from [`AttrId::default_value`] and holding the other 9 as
/// default bits.
fn provisioned_profile() -> Entry {
    let ids = IdentitySet {
        imsi: imsi(1),
        msisdn: Msisdn::new("34600000001").unwrap(),
        impus: vec![],
        impi: None,
    };
    let profile = SubscriberProfile::provision(&ids, 0, [7; 16]).into_entry();
    assert_eq!(profile.len(), 13, "{profile:?}");
    assert_eq!(profile.delta_len(), None);
    profile
}

/// Provisioning a subscriber with every identity kind allocates its flat
/// block, the Ki octets and the IMPU list's block, and nothing else: each
/// identity attribute is a handle on the interner's bytes, not a copy.
#[test]
fn a_provisioned_profile_shares_its_identities() {
    let ids = IdentitySet {
        imsi: imsi(2),
        msisdn: Msisdn::new("34600000002").unwrap(),
        impus: vec![Impu::new("sip:+34600000002@ims.example.com").unwrap()],
        impi: Some(Impi::new("34600000002@ims.example.com").unwrap()),
    };
    // The first profile builds the shared default values.
    SubscriberProfile::provision(&ids, 0, [7; 16]);
    let (profile, tally) = counted(|| SubscriberProfile::provision(&ids, 0, [7; 16]));
    assert_eq!(tally.calls, 3, "flat block, Ki octets, IMPU list");
    let entry = profile.into_entry();
    let text = |id| entry.get(id).and_then(AttrValue::as_str).unwrap().as_ptr();
    assert_eq!(text(AttrId::Imsi), ids.imsi.as_str().as_ptr());
    assert_eq!(text(AttrId::Msisdn), ids.msisdn.as_str().as_ptr());
    assert_eq!(text(AttrId::Impi), ids.impi.unwrap().as_str().as_ptr());
    let Some(AttrValue::StrList(impus)) = entry.get(AttrId::ImpuList) else {
        panic!("no IMPU list: {entry:?}");
    };
    assert_eq!(impus.len(), 1);
    assert_eq!(impus[0].as_ptr(), ids.impus[0].as_str().as_ptr());
}

/// A plain payload's 16-byte header and the 16 octets of a Ki.
const KI_BLOCK: u64 = 16 + 16;

/// A provisioned profile's flat block stores only the values that differ
/// from the defaults: the IMSI, the MSISDN, the Ki and the home region, and
/// for an IMS subscriber the IMPU list and the IMPI. The nine default
/// services are bits in the block's header, which stays 24 bytes.
#[test]
fn a_provisioned_profile_stores_only_what_differs_from_the_defaults() {
    let plain = IdentitySet {
        imsi: imsi(3),
        msisdn: Msisdn::new("34600000003").unwrap(),
        impus: vec![],
        impi: None,
    };
    let ims = IdentitySet {
        impus: vec![Impu::new("sip:+34600000003@ims.example.com").unwrap()],
        impi: Some(Impi::new("34600000003@ims.example.com").unwrap()),
        ..plain.clone()
    };
    // The first profile builds the defaults table.
    SubscriberProfile::provision(&plain, 0, [7; 16]);
    let (profile, tally) = counted(|| SubscriberProfile::provision(&plain, 0, [7; 16]));
    assert_eq!(
        (tally.calls, tally.bytes - KI_BLOCK),
        (2, VERSION_HEADER + 4 * 16),
        "a non-IMS profile's flat block"
    );
    assert_eq!(profile.into_entry().len(), 13);
    // An IMPU list of one handle: a 16-byte header and 8 bytes.
    let impus = 16 + 8;
    let (profile, tally) = counted(|| SubscriberProfile::provision(&ims, 0, [7; 16]));
    assert_eq!(
        (tally.calls, tally.bytes - KI_BLOCK - impus),
        (3, VERSION_HEADER + 6 * 16),
        "an IMS profile's flat block"
    );
    assert_eq!(profile.into_entry().len(), 15);
}

/// An engine holding one provisioned 13-attribute profile under
/// [`PROFILE_UID`], its write set and its commit log's first segment warmed
/// up by 100 modifies of `OdbMask`. The commits that follow are the log's
/// 102nd record of 128 and on, so up to the 128th the log asks for nothing.
fn warm_profile_engine() -> Engine {
    let mut engine = Engine::new(SeId(0));
    let txn = engine.begin(IsolationLevel::ReadCommitted);
    engine.put(txn, PROFILE_UID, provisioned_profile()).unwrap();
    engine.commit(txn, SimTime(0)).unwrap();
    for v in 1..=100 {
        modify_profile(&mut engine, AttrId::OdbMask, v);
    }
    engine
}

/// One committed one-attribute modify of the profile.
fn modify_profile(engine: &mut Engine, id: AttrId, v: u64) {
    let txn = engine.begin(IsolationLevel::ReadCommitted);
    let mods = [AttrMod::Set(id, AttrValue::U64(v))];
    engine.modify(txn, PROFILE_UID, &mods).unwrap();
    engine.commit(txn, SimTime(v)).unwrap();
}

/// A version block's header: reference count, presence mask and the
/// pointer to the flat block a delta overrides.
const VERSION_HEADER: u64 = 24;

/// A warm one-attribute modify of a provisioned profile, on the bare
/// engine: the new version is a delta over the profile's flat block, and
/// its block is all the modify asks for, the header and one 16-byte value.
#[test]
fn a_warm_modify_of_a_provisioned_profile_requests_one_40_byte_delta() {
    let mut engine = warm_profile_engine();
    let ((), tally) = counted(|| modify_profile(&mut engine, AttrId::OdbMask, 101));
    assert_eq!(
        (tally.calls, tally.bytes),
        (1, VERSION_HEADER + 16),
        "a warm modify of a 13-attribute profile"
    );
}

/// A write to a second attribute copies the delta's value beside the new
/// one: the delta grows by 16 bytes, still in one call.
#[test]
fn a_modify_of_a_second_attribute_grows_the_delta_by_one_value() {
    let mut engine = warm_profile_engine();
    let ((), tally) = counted(|| modify_profile(&mut engine, AttrId::AuthSqn, 101));
    assert_eq!(
        (tally.calls, tally.bytes),
        (1, VERSION_HEADER + 2 * 16),
        "a second attribute over a delta of one"
    );
    let entry = engine.read_committed(PROFILE_UID).unwrap();
    assert_eq!(entry.get(AttrId::AuthSqn), Some(&AttrValue::U64(101)));
    assert_eq!(entry.get(AttrId::OdbMask), Some(&AttrValue::U64(100)));
    assert_eq!(entry.len(), 13);
}

/// A delta holds at most half of what the entry shows: six of the
/// profile's 13 attributes. The write that would make it seven builds one
/// flat block of all 13 instead, in one call, and the write after that is
/// a one-value delta over the new flat block again. That flat block stores
/// the 10 values that differ from their defaults: the IMSI, MSISDN and Ki
/// and the seven attributes written; the teleservices, APN profiles and
/// charging profile are still default bits.
#[test]
fn a_modify_past_half_the_profile_requests_one_flat_block() {
    let mut engine = warm_profile_engine();
    let written = [
        AttrId::AuthAmf,
        AttrId::AuthSqn,
        AttrId::CallBarring,
        AttrId::HomeRegion,
        AttrId::ProvisioningGen,
    ];
    for (k, id) in written.into_iter().enumerate() {
        let ((), tally) = counted(|| modify_profile(&mut engine, id, 101 + k as u64));
        let values = k as u64 + 2;
        assert_eq!(
            (tally.calls, tally.bytes),
            (1, VERSION_HEADER + values * 16),
            "a delta of {values} values"
        );
    }
    let ((), tally) = counted(|| modify_profile(&mut engine, AttrId::SubscriberStatus, 106));
    assert_eq!(
        (tally.calls, tally.bytes),
        (1, VERSION_HEADER + (13 - 3) * 16),
        "the seventh attribute written flattens the profile"
    );
    let ((), tally) = counted(|| modify_profile(&mut engine, AttrId::OdbMask, 107));
    assert_eq!((tally.calls, tally.bytes), (1, VERSION_HEADER + 16));
    let entry = engine.read_committed(PROFILE_UID).unwrap();
    assert_eq!(entry.len(), 13);
    assert_eq!(entry.get(AttrId::AuthAmf), Some(&AttrValue::U64(101)));
    assert_eq!(
        entry.get(AttrId::SubscriberStatus),
        Some(&AttrValue::U64(106))
    );
    assert_eq!(entry.get(AttrId::OdbMask), Some(&AttrValue::U64(107)));
}

/// A location update sets two attributes in one modify. Its apply to a
/// shared provisioned profile builds one delta holding both values over the
/// profile's flat block, in one call, as two one-attribute writes would
/// leave it.
#[test]
fn a_two_attribute_apply_of_a_provisioned_profile_requests_one_delta_of_both() {
    let profile = provisioned_profile();
    let mut entry = profile.clone();
    let vlr = AttrValue::from("vlr-3.mnc001.mcc214");
    let mme = AttrValue::from("mme-3.mnc001.mcc214");
    let mods = [
        AttrMod::Set(AttrId::VlrAddress, vlr.clone()),
        AttrMod::Set(AttrId::MmeAddress, mme.clone()),
    ];
    let ((), tally) = counted(|| entry.apply(&mods));
    assert_eq!(
        (tally.calls, tally.bytes),
        (1, VERSION_HEADER + 2 * 16),
        "two sets over a flat block"
    );
    assert_eq!(entry.delta_len(), Some(2));
    assert_eq!(entry.get(AttrId::VlrAddress), Some(&vlr));
    assert_eq!(entry.get(AttrId::MmeAddress), Some(&mme));
    let mut one_by_one = profile.clone();
    one_by_one.set(AttrId::VlrAddress, vlr);
    one_by_one.set(AttrId::MmeAddress, mme);
    assert_eq!(entry, one_by_one);
    assert_eq!(entry.approx_size(), one_by_one.approx_size());
    assert_eq!(profile.len(), 13, "the shared block is left alone");
}

// --- Consensus: a CP write allocates its post-image -------------------------
//
// The serving leader copies the attribute slots into the post-image it
// proposes, one block and one allocator call; the protocol around it
// allocates nothing per write: every replica step pushes into the
// ensemble's one outbox, messages in flight wait in its mailbox, a
// proposal's acks are bits beside it, and each node's commit record holds
// its one change inline. Choosing a slot allocates nothing either: a
// replica's chosen log stores decisions by slot number in fixed segments,
// so it grows by one allocation per segment of 256 slots on each node.
// What is left beyond the post-image is that growth and the odd catch-up
// transfer. The bound is 1.1 calls per write, averaged over 1 000 writes
// with the pump's ticks and deliveries between them included.

#[test]
fn a_warm_consensus_write_allocates_its_post_image() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
    let (mut udr, now) = provisioned_for_writes(cfg);
    let (calls, now) = warm_writes(&mut udr, now, CONSENSUS_GAP);

    udr.advance_to(now + SimDuration::from_secs(5));
    assert!(udr.replication_settled());
    assert!(
        calls <= COUNTED + COUNTED / 10,
        "{COUNTED} warm consensus writes made {calls} allocator calls, pump included"
    );
}

// --- The idle pump: background ticks allocate nothing -----------------------

/// The catch-up pass runs every 200 ms of sim-time.
const CATCHUP_TICK: SimDuration = SimDuration::from_millis(200);
/// Ship batches fill at four records, long before their linger expires.
const IDLE_BATCH: ShipBatchConfig = ShipBatchConfig::coalesce(4, SimDuration::from_secs(1));
const IDLE_SUBSCRIBERS: u64 = 12;

#[test]
fn an_idle_pump_allocates_nothing() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    cfg.frash.durability = DurabilityMode::None;
    cfg.ship_batch = IDLE_BATCH;
    cfg.seed = 23;
    let mut udr = Udr::build(cfg).unwrap();
    lossless_backbone(&mut udr);
    let mut now = provision(
        &mut udr,
        IDLE_SUBSCRIBERS,
        SimTime::ZERO + SimDuration::from_secs(2),
    );
    now += SimDuration::from_secs(5);
    udr.advance_to(now);
    assert!(udr.replication_settled());

    // Four writes in a row to each subscriber: every channel receives a
    // multiple of four records, so every batch flushes at its cap and
    // every linger timer armed for one expires with nothing to flush.
    for n in 0..IDLE_SUBSCRIBERS {
        for k in 0..4 {
            now += SimDuration::from_millis(1);
            let out = udr.modify_services(
                &Identity::Imsi(imsi(n)),
                vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(4 * n + k))],
                SiteId(0),
                now,
            );
            assert!(out.is_ok(), "write {n}.{k}: {:?}", out.result);
        }
    }
    // The batches arrive and apply; the timers are still armed.
    now += SimDuration::from_millis(500);
    udr.advance_to(now);
    assert!(udr.replication_settled());

    let ticks = 15;
    let (events, tally) = counted(|| udr.run(now + CATCHUP_TICK * ticks));
    // Each subscriber's four writes fill one batch to each of two slaves.
    let timers = 2 * IDLE_SUBSCRIBERS;
    assert!(
        events >= ticks + timers,
        "{events} events: {ticks} catch-up ticks and {timers} expired linger timers expected"
    );
    assert_eq!(
        tally.calls, 0,
        "{events} idle events made {} allocator calls",
        tally.calls
    );
}

// --- Catch-up: a warm pass ships in recycled batch vectors -----------------
//
// Every catch-up tick ships to each channel, as one batch, what the channel
// has not yet put in flight: here, the records still coalescing in its open
// batch. The pass refills the open batch's vector from the master's log and
// flushes it as a commit would, taking for the next open batch a vector an
// earlier delivered batch handed back, so a pass no longer than an earlier
// one allocates nothing.

/// Ship batches linger a whole second: the writes made between two ticks
/// still sit in an open batch at the second, which ships them.
const LINGERING: ShipBatchConfig = ShipBatchConfig::coalesce(64, SimDuration::from_secs(1));
/// Writes between two ticks, to one partition: each tick ships this many
/// records to each of two slaves.
const LAGGING: u64 = 8;

#[test]
fn a_warm_catch_up_pass_allocates_nothing() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    cfg.frash.durability = DurabilityMode::None;
    cfg.ship_batch = LINGERING;
    let (mut udr, mut tick) = provisioned_for_writes(cfg);
    assert_eq!(
        tick.0 % CATCHUP_TICK.as_nanos(),
        0,
        "the settle instant is a tick's"
    );
    for pass in 0..4 {
        let mut now = tick;
        tick += CATCHUP_TICK;
        for n in 0..LAGGING {
            now += SimDuration::from_millis(1);
            let out = udr.modify_services(
                &Identity::Imsi(imsi(n)),
                vec![AttrMod::Set(
                    AttrId::OdbMask,
                    AttrValue::U64(pass * LAGGING + n),
                )],
                SiteId(0),
                now,
            );
            assert!(out.is_ok(), "write {pass}.{n}: {:?}", out.result);
        }
        udr.advance_to(tick - SimDuration::from_micros(1));
        assert!(!udr.replication_settled(), "pass {pass}: the slaves lag");
        let (events, tally) = counted(|| udr.run(tick));
        assert_eq!(events, 1, "pass {pass}: the tick alone");
        udr.advance_to(tick + SimDuration::from_millis(100));
        assert!(
            udr.replication_settled(),
            "pass {pass}: the tick re-shipped the batches"
        );
        if pass > 0 {
            assert_eq!(
                tally.calls, 0,
                "catch-up pass {pass} made {} allocator calls",
                tally.calls
            );
        }
    }
}

// --- Consensus: a warm catch-up reply allocates nothing ---------------------
//
// A lagging node asks a peer for the decisions above its watermark, and the
// peer answers with a vector of them. The ensemble keeps the vectors its
// nodes received and emptied, and the next reply fills one, so a reply no
// longer than an earlier one allocates nothing.

#[test]
fn a_warm_consensus_catch_up_reply_allocates_nothing() {
    const DECIDED: u64 = 10;
    let t = SimTime::ZERO;
    let mut ensemble = Ensemble::new(3, ReplicaConfig::default(), 1);
    for slot in 1..=DECIDED {
        let cmd = Command::write(CmdId(slot), SubscriberUid(slot), Some(small(slot)));
        let learn = Message::Learn {
            slot: Slot(slot),
            cmd,
        };
        ensemble.step(
            0,
            |r, out| r.handle(t, NodeId(1), learn, out),
            |_, _, _, _| false,
        );
    }
    // Nodes 1 and 2 in turn ask node 0 for everything; the first reply
    // warms the outbox, the mailbox and the ensemble's spare list.
    for asker in [1, 2] {
        let request = Message::CatchUpRequest { above: Slot::ZERO };
        let mut reply = None;
        let ((), tally) = counted(|| {
            ensemble.step(
                0,
                |r, out| r.handle(t, NodeId(asker as u32), request, out),
                |_, to, ticket, _| {
                    assert_eq!(to, asker);
                    reply = Some(ticket);
                    true
                },
            )
        });
        let reply = ensemble.take(reply.expect("node 0 replies"));
        ensemble.step(
            asker,
            |r, out| r.handle(t, NodeId(0), reply, out),
            |_, _, _, _| false,
        );
        assert_eq!(ensemble.nodes()[asker].log().committed(), Slot(DECIDED));
        if asker == 2 {
            assert_eq!(
                tally.calls, 0,
                "a warm catch-up reply made {} allocator calls",
                tally.calls
            );
        }
    }
}

// --- Consensus: allocation does not grow with the chosen log ----------------

/// Subscribers provisioned before the writes, one chosen slot each, so
/// the two write windows cover slots 201–300 and 4 101–4 200. The second
/// lies past a dozen saves (every 30 s, a write every 100 ms): every log
/// has been compacted behind them, its id window holds about one save
/// interval of ids, and a newly reached segment is one a compaction
/// emptied. Nothing a write allocates grows with the log's history.
const CONSENSUS_SUBSCRIBERS: u64 = 100;
/// Sim-time between operations: two protocol ticks, so every operation
/// also pays for the pump work of an idle ensemble.
const CONSENSUS_GAP: SimDuration = SimDuration::from_millis(100);

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
            self.now += CONSENSUS_GAP;
            let out = self.udr.modify_services(
                &Identity::Imsi(imsi(self.writes % CONSENSUS_SUBSCRIBERS)),
                vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(self.writes))],
                SiteId(0),
                self.now,
            );
            assert!(out.is_ok(), "write {}: {:?}", self.writes, out.result);
        }
    }

    /// Bytes one `Search` allocates, with the pump already at its instant.
    fn search_bytes(&mut self) -> u64 {
        self.now += CONSENSUS_GAP;
        self.udr.advance_to(self.now);
        let op = LdapOp::Search {
            base: Dn::for_identity(Identity::Imsi(imsi(7))),
            attrs: vec![AttrId::OdbMask],
        };
        let (found, tally) = counted(|| {
            let out = self
                .udr
                .execute(OpRequest::new(&op).site(SiteId(0)).at(self.now))
                .into_op();
            matches!(out.result, Ok(Some(_)))
        });
        assert!(found, "the search must be served");
        tally.bytes
    }
}

#[test]
fn consensus_ops_allocate_the_same_however_long_the_log() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
    cfg.seed = 22;
    let mut udr = Udr::build(cfg).unwrap();
    let now = provision(
        &mut udr,
        CONSENSUS_SUBSCRIBERS,
        SimTime::ZERO + SimDuration::from_secs(2),
    );
    let mut s = Stream {
        udr,
        now,
        writes: 0,
    };

    s.write_upto(100);
    let early_search = s.search_bytes();
    let early_writes = counted(|| s.write_upto(200)).1.bytes;
    s.write_upto(4_000);
    let late_search = s.search_bytes();
    let late_writes = counted(|| s.write_upto(4_100)).1.bytes;

    assert_eq!(
        s.udr.consensus_committed_slots(),
        vec![CONSENSUS_SUBSCRIBERS + 4_100],
        "one chosen slot per write: the windows sit where the comment says"
    );
    assert!(
        late_writes <= early_writes,
        "writes 4001-4100 allocated {late_writes} B against {early_writes} B for writes \
         101-200: applying a chosen command must cost the new entries, not the log"
    );
    assert_eq!(
        late_search, early_search,
        "a consensus search after 4000 writes against one after 100"
    );
}

// --- Storage: committed payloads are shared, not copied ---------------------

/// Length of the one blob attribute every payload carries. A copy of it asks
/// the allocator for this many bytes plus, for a reference-counted buffer,
/// the counts' header and padding; no other allocation in the test falls in
/// that range (columns and tables grow through powers of two on either side
/// of it), so a request of such a size is a deep copy of that value.
const BLOB: usize = 4099;

fn payload(i: u64) -> Entry {
    let mut e = Entry::new();
    e.set(AttrId::Msisdn, format!("346{i:08}"));
    e.set(AttrId::AuthKi, vec![i as u8; BLOB]);
    e.set(AttrId::OdbMask, 0u64);
    e
}

#[test]
fn committed_payloads_are_shared_not_copied() {
    const RECORDS: u64 = 10_000;
    window(BLOB..BLOB + 32);
    let mut master = Engine::new(SeId(0));
    let mut slave = Engine::new(SeId(1));
    for i in 0..RECORDS {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        master.put(txn, SubscriberUid(i), payload(i)).unwrap();
        let record = master.commit(txn, SimTime(i)).unwrap().unwrap();
        slave.apply_replicated(&record).unwrap();
    }

    // A snapshot is one vector of shared handles, however many records.
    let (snapshot, tally) = counted(|| master.snapshot());
    assert_eq!(snapshot.records.len() as u64, RECORDS);
    assert!(
        tally.calls <= 2,
        "snapshot made {} allocations",
        tally.calls
    );
    assert_eq!(tally.in_window, 0);

    // An owning read shares the committed payload.
    let (read, tally) = counted(|| master.read_committed(SubscriberUid(7)));
    assert_eq!(tally.calls, 0, "read_committed allocated");
    assert_eq!(read, Some(payload(7)));

    let ki = |e: Option<&Entry>| match e.and_then(|e| e.get(AttrId::AuthKi)) {
        Some(AttrValue::Bytes(b)) => b.clone(),
        other => panic!("no AuthKi octets: {other:?}"),
    };

    // The blob detector sees a copy into a shared buffer.
    let (blob, tally) = counted(|| ki(read.as_ref()).to_vec());
    assert_eq!(tally.in_window, 1);
    let (_, tally) = counted(|| Octets::from(blob));
    assert_eq!((tally.calls, tally.in_window), (1, 1));

    // A modify copies no string, octet or list; the store, the two logs,
    // the commit record and the slave then share the new version, a delta
    // holding the one changed value over the old version's block, which
    // it shares with every untouched value. One allocator call in all: the
    // delta's block; the commit record holds its one change inline. The
    // write set is the vector the previous transaction returned, and the
    // logs have room: this is the 1 809th push into their third segment of
    // 4 096.
    let mods = [AttrMod::Set(AttrId::OdbMask, AttrValue::U64(5))];
    let ((), tally) = counted(|| {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        master.modify(txn, SubscriberUid(7), &mods).unwrap();
        let record = master.commit(txn, SimTime(RECORDS)).unwrap().unwrap();
        slave.apply_replicated(&record).unwrap();
    });
    assert_eq!(
        tally.in_window, 0,
        "modify + commit + apply copied the blob"
    );
    assert_eq!(
        tally.calls, 1,
        "modify + commit + apply made {} allocations",
        tally.calls
    );

    let new = ki(master.committed_entry(SubscriberUid(7)));
    let put_lsn = Lsn(8);
    for (held_by, old) in [
        ("the store, before", ki(read.as_ref())),
        ("the snapshot", ki(snapshot.records[7].1.entry.as_ref())),
        (
            "the master log",
            ki(master.log().get(put_lsn).unwrap().changes[0].entry.as_ref()),
        ),
        (
            "the slave log",
            ki(slave.log().get(put_lsn).unwrap().changes[0].entry.as_ref()),
        ),
        ("the slave", ki(slave.committed_entry(SubscriberUid(7)))),
    ] {
        assert!(
            std::ptr::eq(new.as_ptr(), old.as_ptr()),
            "AuthKi not shared with {held_by}"
        );
    }

    // The copy did not write through to the snapshot taken before it.
    let mut modified = payload(7);
    modified.apply(&mods);
    assert_eq!(slave.read_committed(SubscriberUid(7)), Some(modified));
    assert_eq!(snapshot.records[7].1.entry, Some(payload(7)));

    // A storage element finds its copy of the partition without building
    // the "hosts no replica" message it would return on a miss: a read
    // transaction, a modify and a slave apply through it allocate exactly
    // what the engines beneath it allocate.
    const P: PartitionId = PartitionId(0);
    let mut se_master = StorageElement::new(SeId(0), SiteId(0), DurabilityMode::None);
    se_master.add_replica(P, ReplicaRole::Master);
    let mut se_slave = StorageElement::new(SeId(1), SiteId(1), DurabilityMode::None);
    se_slave.add_replica(P, ReplicaRole::Slave);
    let mut master = Engine::new(SeId(0));
    let mut slave = Engine::new(SeId(1));
    for i in 0..64 {
        let txn = se_master.begin(P, IsolationLevel::ReadCommitted).unwrap();
        se_master.put(P, txn, SubscriberUid(i), payload(i)).unwrap();
        let (record, _) = se_master.commit(P, txn, SimTime(i)).unwrap();
        se_slave.apply_replicated(P, &record.unwrap()).unwrap();

        let txn = master.begin(IsolationLevel::ReadCommitted);
        master.put(txn, SubscriberUid(i), payload(i)).unwrap();
        let record = master.commit(txn, SimTime(i)).unwrap().unwrap();
        slave.apply_replicated(&record).unwrap();
    }

    let (_, through_se) = counted(|| {
        let txn = se_master.begin(P, IsolationLevel::ReadCommitted).unwrap();
        let read = se_master.read(P, txn, SubscriberUid(7)).unwrap();
        se_master.commit(P, txn, SimTime(64)).unwrap();
        (read, se_master.last_lsn(P).unwrap())
    });
    let (_, bare) = counted(|| {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        let read = master.read(txn, SubscriberUid(7)).unwrap();
        master.commit(txn, SimTime(64)).unwrap();
        (read, master.last_lsn())
    });
    assert_eq!(
        through_se.calls, bare.calls,
        "begin + read + commit + last_lsn"
    );

    let (record, through_se) = counted(|| {
        let txn = se_master.begin(P, IsolationLevel::ReadCommitted).unwrap();
        se_master.modify(P, txn, SubscriberUid(7), &mods).unwrap();
        se_master.commit(P, txn, SimTime(65)).unwrap().0.unwrap()
    });
    let (_, bare) = counted(|| {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        master.modify(txn, SubscriberUid(7), &mods).unwrap();
        master.commit(txn, SimTime(65)).unwrap().unwrap()
    });
    assert_eq!(through_se.calls, bare.calls, "begin + modify + commit");

    let (_, through_se) = counted(|| se_slave.apply_replicated(P, &record).unwrap());
    let (_, bare) = counted(|| slave.apply_replicated(&record).unwrap());
    assert_eq!(through_se.calls, bare.calls, "apply_replicated");
}

// --- Durability: a save refreshes the disk image in place -------------------
//
// A replica's disk image is a saved-version column of its store, and the
// slot a record creates brings its room in that column with it. A save
// copies the slots written since the last one into the column, a
// reference-count bump each, so no save allocates: not the first, not one
// after modifies, not one after new records.

const SAVED_REPLICAS: u32 = 3;
const SAVED_RECORDS: u64 = 10_000;

fn small(i: u64) -> Entry {
    let mut e = Entry::new();
    e.set(AttrId::Msisdn, format!("346{i:08}"));
    e.set(AttrId::OdbMask, 0u64);
    e
}

/// One committed transaction on `se`'s copy of `p`: a put, or a
/// one-attribute modify.
fn se_write(se: &mut StorageElement, p: PartitionId, uid: u64, put: bool, at: SimTime) {
    let txn = se.begin(p, IsolationLevel::ReadCommitted).unwrap();
    let uid = SubscriberUid(uid);
    if put {
        se.put(p, txn, uid, small(uid.0)).unwrap();
    } else {
        let mods = [AttrMod::Set(AttrId::OdbMask, AttrValue::U64(at.0))];
        se.modify(p, txn, uid, &mods).unwrap();
    }
    se.commit(p, txn, at).unwrap();
}

#[test]
fn a_save_refreshes_the_disk_image_in_place() {
    let mut se = StorageElement::new(SeId(0), SiteId(0), DurabilityMode::periodic_default());
    let partitions = (0..SAVED_REPLICAS).map(PartitionId);
    for p in partitions.clone() {
        se.add_replica(p, ReplicaRole::Master);
        for i in 0..SAVED_RECORDS {
            se_write(&mut se, p, i, true, SimTime(i));
        }
    }
    let mut at = SimTime(SAVED_RECORDS);
    let mut save = |se: &mut StorageElement| {
        at += SimDuration::from_secs(30);
        counted(|| se.force_snapshot(at)).1.calls
    };

    assert_eq!(save(&mut se), 0, "the first save");
    assert_eq!(save(&mut se), 0, "a save with nothing written since");

    for p in partitions.clone() {
        for i in (0..SAVED_RECORDS).step_by(97) {
            se_write(&mut se, p, i, false, SimTime(SAVED_RECORDS + i));
        }
    }
    assert_eq!(save(&mut se), 0, "a save after modifies");

    // New records on two of the three replicas, out of uid order.
    for p in partitions.take(2) {
        for i in [SAVED_RECORDS + 7, SAVED_RECORDS + 3] {
            se_write(&mut se, p, i, true, SimTime(i));
        }
    }
    assert_eq!(save(&mut se), 0, "a save after new records");
    assert_eq!(save(&mut se), 0, "a save after the growth");
}

/// Allocator calls of one warm one-attribute modify, its disk refresh
/// included under sync-commit.
fn warm_se_modify_calls(mode: DurabilityMode) -> u64 {
    const P: PartitionId = PartitionId(0);
    let mut se = StorageElement::new(SeId(0), SiteId(0), mode);
    se.add_replica(P, ReplicaRole::Master);
    for i in 0..1_000 {
        se_write(&mut se, P, i, true, SimTime(i));
    }
    se.force_snapshot(SimTime(1_000));
    for i in 0..10 {
        se_write(&mut se, P, i, false, SimTime(1_001 + i));
    }
    counted(|| se_write(&mut se, P, 500, false, SimTime(2_000)))
        .1
        .calls
}

#[test]
fn a_sync_commit_modify_allocates_what_a_periodic_one_does() {
    let periodic = warm_se_modify_calls(DurabilityMode::periodic_default());
    assert_eq!(periodic, 1, "the new version's one block");
    assert_eq!(
        warm_se_modify_calls(DurabilityMode::SyncCommit),
        periodic,
        "a sync-commit modify refreshes the disk image without allocating"
    );
}

// --- Storage: a store holds less than a segment of room per column ---------
//
// Every per-slot structure of a record store (the five live columns, the
// saved column of the disk image and the list of slots written since the
// last save) sits in fixed segments of 1 024 slots, each opened whole. A
// store of N records therefore holds room for N rounded up to a segment in
// each structure, and a table of segment handles. Its uid index holds one
// 4-byte slot per bucket and no key, in the least power-of-two table that
// N fill to no more than 3/4. `heap_bytes` says all of it from its segment
// and bucket counts.

/// Records of one store at `ps_modify`'s size: 50 000 subscribers over
/// three partitions.
const STORE_RECORDS: u64 = 16_667;
/// Slots per segment of a store's per-slot structures.
const STORE_SEGMENT: u64 = 1024;
/// Buckets of the uid index of a store of [`STORE_RECORDS`] records.
const STORE_BUCKETS: u64 = 32_768;
/// A store's per-slot structures: five columns, the image and the list of
/// slots written since the last save.
const STORE_STRUCTURES: u64 = 7;

/// A store of [`STORE_RECORDS`] records built one upsert at a time, as a
/// replica's store grows, and the bytes building it left live.
fn counted_store() -> (RecordStore, u64) {
    let payload = small(0);
    let (store, built) = counted(|| {
        let mut store = RecordStore::new();
        for i in 0..STORE_RECORDS {
            let (uid, lsn) = (SubscriberUid(i), Lsn(i + 1));
            store.upsert(uid, Some(payload.clone()), lsn, SimTime(i), SeId(0));
        }
        store
    });
    assert_eq!(store.len(), 16_667);
    (store, built.live())
}

/// Segments each per-slot structure of a store of [`STORE_RECORDS`] opens,
/// and the room they hold over the seven structures: a slot's bytes in each,
/// for the records rounded up to whole segments.
fn store_segment_room() -> (u64, u64) {
    let slot = size_of::<SubscriberUid>()
        + size_of::<Lsn>()
        + size_of::<SimTime>()
        + size_of::<SeId>()
        + size_of::<Option<Entry>>()
        + size_of::<RecordVersion>()
        + size_of::<u32>();
    let segments = STORE_RECORDS.div_ceil(STORE_SEGMENT);
    (segments, segments * STORE_SEGMENT * slot as u64)
}

#[test]
fn a_store_holds_less_than_a_segment_of_room_per_column() {
    let (store, live) = counted_store();
    let heap = store.heap_bytes() as u64;
    assert!(
        heap.abs_diff(live) * 100 <= live,
        "heap_bytes {heap} B, the allocator {live} B"
    );

    // The segment room, plus at most two handles per segment in each
    // structure's table, plus the index's 4 bytes a bucket.
    let (segments, room) = store_segment_room();
    let tables = STORE_STRUCTURES * 2 * segments * size_of::<Vec<u8>>() as u64;
    let index = STORE_BUCKETS * size_of::<u32>() as u64;
    assert!(
        live <= room + tables + index,
        "{live} B for {STORE_RECORDS} records, room for {} slots is {room} B",
        segments * STORE_SEGMENT
    );
}

#[test]
fn a_store_index_holds_a_slot_per_bucket() {
    let (_store, live) = counted_store();
    // What is live beyond the segment room and one handle per segment in
    // each structure's table is the index, and the tables' spare handles:
    // at most one more per segment, since a table doubles as it grows.
    let (segments, room) = store_segment_room();
    let handles = STORE_STRUCTURES * segments * size_of::<Vec<u8>>() as u64;
    let index = live - room - handles;
    let slots = STORE_BUCKETS * size_of::<u32>() as u64;
    assert!(
        index <= slots + handles,
        "the index of {STORE_RECORDS} records takes {index} B, {STORE_BUCKETS} slots {slots} B"
    );
}

// --- Log truncation: an emptied segment is taken back -----------------------
//
// The catch-up tick truncates every replica's commit log behind its slowest
// up reader, here the ship channels, and each segment of 4 096 records a
// truncation empties is kept for the appends that follow. Once a log has
// been truncated, a stream of writes as fast as before finds a spare
// whenever its tail segment fills, so no log asks the allocator for a
// segment again. Nothing else here requests a block of that size.

/// Bytes of one full commit-log segment.
const LOG_SEGMENT_BYTES: usize = 4096 * std::mem::size_of::<CommitRecord>();
/// Writes 40 µs apart: 5 000 between two catch-up ticks, so a log spans
/// two segments before each truncation and one after it.
const STREAM_GAP: SimDuration = SimDuration::from_micros(40);
/// Writes before and while counting: 0.6 s of writes each, so both cross
/// three truncations, and each replica's tail segment fills at least three
/// times while counted.
const STREAM_WRITES: u64 = 15_000;

#[test]
fn a_truncated_log_asks_for_no_new_segment() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    cfg.frash.durability = DurabilityMode::PeriodicSnapshot {
        interval: SimDuration::from_secs(1),
    };
    cfg.ship_batch = ShipBatchConfig::coalesce(64, SimDuration::from_millis(5));
    let (mut udr, mut now) = provisioned_for_writes(cfg);
    let mut write = |i: u64| {
        now += STREAM_GAP;
        let out = udr.modify_services(
            &Identity::Imsi(imsi(i % MODIFY_SUBSCRIBERS)),
            vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i + 1))],
            SiteId(0),
            now,
        );
        assert!(out.is_ok(), "write {i}: {:?}", out.result);
    };

    for i in 0..STREAM_WRITES {
        write(i);
    }
    window(LOG_SEGMENT_BYTES..LOG_SEGMENT_BYTES + 1);
    let ((), tally) = counted(|| {
        for i in STREAM_WRITES..2 * STREAM_WRITES {
            write(i);
        }
    });
    assert_eq!(
        tally.in_window, 0,
        "{STREAM_WRITES} writes across truncations asked for a new log segment"
    );

    let p = PartitionId(0);
    for &se in udr.group(p).members() {
        let log = udr.se(se).engine(p).unwrap().log();
        assert!(
            log.len() < 2 * 4096,
            "{se} kept {} records: its log was not truncated",
            log.len()
        );
    }
}

// --- Consensus: a compacted chosen log takes its segments back --------------

/// Bytes of one chosen-log segment: 256 slots of a 40-byte
/// `Option<Command>`.
const CHOSEN_SEGMENT_BYTES: usize = 256 * std::mem::size_of::<Option<udr::consensus::Command>>();
/// Bytes of the chosen log's id set at 2 048 buckets: an 8-byte id and a
/// control byte per bucket, plus one 16-byte control group. It grows there
/// past 896 ids.
const ID_TABLE_BYTES: usize = 2_048 * (8 + 1) + 16;
/// Consensus writes 5 ms apart on 100 µs links: about 200 a second, so a
/// save interval's window of slots, what each log keeps for its own disk
/// image, stays under one segment and one table of 448 ids.
const CHOSEN_GAP: SimDuration = SimDuration::from_millis(5);
/// Writes before and while counting: three seconds, three saves, each.
/// Uncompacted, the id set passes 896 ids while counting, and each log
/// reaches two new segments.
const CHOSEN_WRITES: u64 = 600;

#[test]
fn a_compacted_chosen_log_asks_for_no_new_segment() {
    let mut cfg = UdrConfig::figure2();
    cfg.partitions = 1;
    cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
    cfg.frash.durability = DurabilityMode::PeriodicSnapshot {
        interval: SimDuration::from_secs(1),
    };
    let (mut udr, mut now) = provisioned_for_writes(cfg);
    let fast = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_micros(100)));
    for a in 0..SITES {
        for b in 0..SITES {
            udr.net
                .topology_mut()
                .set_link(SiteId(a), SiteId(b), fast.clone());
        }
    }
    let mut write = |i: u64| {
        now += CHOSEN_GAP;
        let out = udr.modify_services(
            &Identity::Imsi(imsi(i % MODIFY_SUBSCRIBERS)),
            vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i + 1))],
            SiteId(0),
            now,
        );
        assert!(out.is_ok(), "write {i}: {:?}", out.result);
    };

    for i in 0..CHOSEN_WRITES {
        write(i);
    }
    // Nothing a warm write allocates is as large as a segment, up to the
    // id table.
    window(CHOSEN_SEGMENT_BYTES..ID_TABLE_BYTES + 1);
    let ((), tally) = counted(|| {
        for i in CHOSEN_WRITES..2 * CHOSEN_WRITES {
            write(i);
        }
    });
    assert_eq!(
        tally.in_window, 0,
        "{CHOSEN_WRITES} writes across saves asked for a chosen-log segment or a larger id table"
    );

    let ensemble = udr.consensus_ensemble(PartitionId(0)).unwrap();
    for node in ensemble.nodes() {
        let log = node.log();
        assert!(
            log.committed().0 > 2 * CHOSEN_WRITES,
            "every write was chosen"
        );
        assert!(
            log.len() < 256,
            "{} kept {} slots: its log was not compacted",
            node.id(),
            log.len()
        );
    }
}

/// IMSIs in the location table below.
const BOUND_IMSIS: u64 = 50_000;
/// Buckets of a hash table holding them: the power of two that keeps the
/// load at most 7/8.
const BOUND_BUCKETS: u64 = 1 << 16;

#[test]
fn a_location_table_requests_13_bytes_a_bucket() {
    let identities: Vec<Identity> = (0..BOUND_IMSIS).map(|i| imsi(i).into()).collect();
    let mut map = IdentityLocationMap::new();
    for (i, identity) in (0u64..).zip(&identities) {
        let location = Location {
            uid: SubscriberUid(i),
            partition: PartitionId((i % 3) as u32),
        };
        map.insert(identity, location);
    }
    // A copy requests just the one table holding the IMSIs: a 12-byte
    // bucket and a control byte per bucket, and one trailing group of at
    // most 16 control bytes.
    let (copy, t) = counted(|| map.clone());
    assert_eq!(copy.len(), BOUND_IMSIS as usize);
    assert_eq!(t.calls, 1);
    assert!(
        t.bytes <= 13 * BOUND_BUCKETS + 16,
        "{} B for {BOUND_BUCKETS} buckets",
        t.bytes
    );
}

// --- One identity table per deployment --------------------------------------
//
// Every provisioned site stage resolves through the deployment's table, so a
// three-site deployment holds each binding once. A consistent-hashing
// deployment holds the same table and rings of fixed size, so the difference
// of the two deployments' live bytes is what the provisioned stages hold,
// plus fixed bytes that cancel in the slope over two sizes.

/// Subscribers in the smaller and the larger deployment.
const TABLE_SUBSCRIBERS: [u64; 2] = [10_000, 20_000];

/// Live bytes held after building a figure-2 deployment with `locator` on a
/// lossless backbone and provisioning `subs`, 1 ms apart, then settling.
fn deployment_live_bytes(locator: LocatorKind, subs: &[IdentitySet]) -> u64 {
    let (udr, t) = counted(|| {
        let mut cfg = UdrConfig::figure2();
        cfg.frash.locator = locator;
        cfg.seed = 23;
        let mut udr = Udr::build(cfg).unwrap();
        lossless_backbone(&mut udr);
        let mut now = SimTime::ZERO;
        for (n, ids) in subs.iter().enumerate() {
            now += SimDuration::from_millis(1);
            let out = udr.provision_subscriber(ids, 0, SiteId(0), now);
            assert!(out.is_ok(), "provisioning {n}: {:?}", out.op.result);
        }
        udr.advance_to(now + SimDuration::from_secs(5));
        udr
    });
    drop(udr);
    t.live()
}

/// Live bytes of one table holding `subs`' bindings.
fn table_live_bytes(subs: &[IdentitySet]) -> u64 {
    let (table, t) = counted(|| {
        let mut table = IdentityLocationMap::new();
        for (uid, ids) in (0u64..).zip(subs) {
            let location = Location {
                uid: SubscriberUid(uid),
                partition: PartitionId(0),
            };
            for identity in ids.iter() {
                table.insert(&identity, location);
            }
        }
        table
    });
    drop(table);
    t.live()
}

#[test]
fn a_deployment_holds_one_identity_table() {
    // Built before anything is counted: identities intern their text.
    let subs: Vec<IdentitySet> = (0..TABLE_SUBSCRIBERS[1])
        .map(|n| IdentitySet {
            imsi: imsi(n),
            msisdn: Msisdn::new(format!("346{n:08}")).unwrap(),
            impus: vec![],
            impi: None,
        })
        .collect();
    let [small, large] = TABLE_SUBSCRIBERS.map(|n| &subs[..n as usize]);
    let stages = |subs| {
        deployment_live_bytes(LocatorKind::ProvisionedMaps, subs) as i64
            - deployment_live_bytes(LocatorKind::ConsistentHashing, subs) as i64
    };
    let table = table_live_bytes(large) as i64 - table_live_bytes(small) as i64;
    // The deployment's DLS: the table, and what its provisioned stages hold
    // beyond the hashed deployment's rings.
    let dls = table + stages(large) - stages(small);
    assert!(
        (dls - table).abs() * 100 <= table,
        "{} more subscribers take {dls} B of DLS, one table {table} B",
        large.len() - small.len()
    );
}
