//! Allocation-count regression test for the shared, copy-on-write payload
//! and for the storage element's calls on their success path.
//!
//! One `#[test]` in a binary of its own: the counting allocator is global,
//! so a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};
use udr_model::config::{DurabilityMode, IsolationLevel};
use udr_model::ids::{PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr_model::time::SimTime;
use udr_storage::{Engine, Lsn, StorageElement};

/// Length of the one blob attribute every payload carries. A copy of it asks
/// the allocator for this many bytes plus, for a reference-counted buffer,
/// the counts' header and padding; no other allocation in the test falls in
/// that range (columns and tables grow through powers of two on either side
/// of it), so a request of such a size is a deep copy of that value.
const BLOB: usize = 4099;
const BLOB_SIZES: std::ops::Range<usize> = BLOB..BLOB + 32;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BLOBS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    if BLOB_SIZES.contains(&size) {
        BLOBS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is
        // the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocator calls, blob deep copies)` made by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, blobs) = (CALLS.load(Relaxed), BLOBS.load(Relaxed));
    let out = f();
    (
        out,
        CALLS.load(Relaxed) - calls,
        BLOBS.load(Relaxed) - blobs,
    )
}

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
    let mut master = Engine::new(SeId(0));
    let mut slave = Engine::new(SeId(1));
    for i in 0..RECORDS {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        master.put(txn, SubscriberUid(i), payload(i)).unwrap();
        let record = master.commit(txn, SimTime(i)).unwrap().unwrap();
        slave.apply_replicated(&record).unwrap();
    }

    // A snapshot is one vector of shared handles, however many records.
    let (snapshot, calls, copies) = counted(|| master.snapshot());
    assert_eq!(snapshot.records.len() as u64, RECORDS);
    assert!(calls <= 2, "snapshot made {calls} allocations");
    assert_eq!(copies, 0);

    // An owning read shares the committed payload.
    let (read, calls, _) = counted(|| master.read_committed(SubscriberUid(7)));
    assert_eq!(calls, 0, "read_committed allocated");
    assert_eq!(read, Some(payload(7)));

    let ki = |e: Option<&Entry>| match e.and_then(|e| e.get(AttrId::AuthKi)) {
        Some(AttrValue::Bytes(b)) => Arc::clone(b),
        other => panic!("no AuthKi octets: {other:?}"),
    };

    // The blob detector sees a copy into a shared buffer.
    let (blob, _, copies) = counted(|| ki(read.as_ref()).to_vec());
    assert_eq!(copies, 1);
    let (_, calls, copies) = counted(|| Arc::<[u8]>::from(blob));
    assert_eq!((calls, copies), (1, 1));

    // A modify copies the attribute vector and no value in it; the store,
    // the two logs, the commit record and the slave then share the new
    // version, and the new version shares every untouched value with the
    // old one. Four allocator calls in all: the vector, its `Arc`, the
    // write-set node and the change list (the logs have room: this is the
    // 10 001st push into a capacity of 16 384).
    let mods = [AttrMod::Set(AttrId::OdbMask, AttrValue::U64(5))];
    let ((), calls, copies) = counted(|| {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        master.modify(txn, SubscriberUid(7), &mods).unwrap();
        let record = master.commit(txn, SimTime(RECORDS)).unwrap().unwrap();
        slave.apply_replicated(&record).unwrap();
    });
    assert_eq!(copies, 0, "modify + commit + apply copied the blob");
    assert!(
        calls <= 4,
        "modify + commit + apply made {calls} allocations"
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
        assert!(Arc::ptr_eq(&new, &old), "AuthKi not shared with {held_by}");
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

    let (_, through_se, _) = counted(|| {
        let txn = se_master.begin(P, IsolationLevel::ReadCommitted).unwrap();
        let read = se_master.read(P, txn, SubscriberUid(7)).unwrap();
        se_master.commit(P, txn, SimTime(64)).unwrap();
        (read, se_master.last_lsn(P).unwrap())
    });
    let (_, bare, _) = counted(|| {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        let read = master.read(txn, SubscriberUid(7)).unwrap();
        master.commit(txn, SimTime(64)).unwrap();
        (read, master.last_lsn())
    });
    assert_eq!(through_se, bare, "begin + read + commit + last_lsn");

    let (record, through_se, _) = counted(|| {
        let txn = se_master.begin(P, IsolationLevel::ReadCommitted).unwrap();
        se_master.modify(P, txn, SubscriberUid(7), &mods).unwrap();
        se_master.commit(P, txn, SimTime(65)).unwrap().0.unwrap()
    });
    let (_, bare, _) = counted(|| {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        master.modify(txn, SubscriberUid(7), &mods).unwrap();
        master.commit(txn, SimTime(65)).unwrap().unwrap()
    });
    assert_eq!(through_se, bare, "begin + modify + commit");

    let (_, through_se, _) = counted(|| se_slave.apply_replicated(P, &record).unwrap());
    let (_, bare, _) = counted(|| slave.apply_replicated(&record).unwrap());
    assert_eq!(through_se, bare, "apply_replicated");
}
