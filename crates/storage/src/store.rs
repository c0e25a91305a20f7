//! Columnar (structure-of-arrays) storage for committed records.
//!
//! The paper's storage elements are RAM-bound (§3.3.1): at
//! million-subscriber scale the per-record overhead of a
//! `HashMap<SubscriberUid, RecordVersion>` — one heap node per record with
//! metadata scattered next to the payload — dominates the element's memory
//! and defeats the cache on metadata scans (staleness checks, snapshot
//! assembly, consistency restoration all walk *metadata*, not payloads).
//!
//! [`RecordStore`] keeps the committed state of one partition replica as
//! parallel columns indexed by a dense slot id: the scalar columns (uid,
//! LSN, commit instant, writing SE) pack 4–8 bytes per record each and scan
//! contiguously, while entry payloads sit in their own column and are only
//! touched by reads that need them. A payload is a copy-on-write
//! [`Entry`]: a handle to one immutable block per committed version,
//! shared by this store, the commit log, the ship channels, the slaves and
//! the disk image. A provisioned record's block is flat (reference count,
//! presence mask and every attribute slot); a modified record's is a delta
//! holding the slots written since that flat block, which it shares with
//! the record's other versions. Reads hand out [`RecordView`]s that borrow
//! it, and the owning reads ([`RecordView::to_version`],
//! `Engine::read_committed`) clone the handle — a reference-count bump,
//! never a copy of the attributes. A modify builds one new delta block,
//! one allocator call, holding the changed slot and the ones the old delta
//! held, and no value in them: strings, octets and lists are
//! reference-counted too ([`AttrValue`](udr_model::attrs::AttrValue)), so
//! the new version shares every attribute it did not touch with the old
//! one, wherever the old one is still held. Nothing on any path
//! deep-copies a value.
//!
//! The replica's disk image (§3.1's periodic save) is one more column, kept
//! in fixed segments: each slot's version at the last save, beside a dirty
//! flag per slot and the list of the slots written since. Creating a slot
//! makes room for it in all three, so a save (`RecordStore::save`)
//! visits only the slots written or created since the last one and copies
//! each one's metadata and payload handle into the column: no allocator
//! call, no sort, no walk of the clean slots. The room stays untouched
//! until a save fills it.
//!
//! Deletes keep their slot as a tombstone (the engine's semantics: a
//! tombstone carries the delete's LSN), so slots are never recycled and a
//! slot id is stable for the life of the store.

use udr_model::attrs::Entry;
use udr_model::ids::{IdMap, SeId, SubscriberUid};
use udr_model::time::SimTime;

use crate::version::{Lsn, RecordVersion};

/// A borrowed view of one committed record: scalar metadata by value,
/// payload by reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordView<'a> {
    /// The record's subscriber uid.
    pub uid: SubscriberUid,
    /// LSN of the committing transaction.
    pub lsn: Lsn,
    /// Virtual commit instant at the writing master.
    pub committed_at: SimTime,
    /// The SE that mastered the committing transaction.
    pub written_by: SeId,
    /// The payload; `None` is a tombstone.
    pub entry: Option<&'a Entry>,
}

impl RecordView<'_> {
    /// Materialise an owned [`RecordVersion`] (shares the payload).
    pub fn to_version(&self) -> RecordVersion {
        RecordVersion {
            entry: self.entry.cloned(),
            lsn: self.lsn,
            committed_at: self.committed_at,
            written_by: self.written_by,
        }
    }
}

/// Slots per segment of the saved column. Segments never move, so the
/// column grows without copying what it holds, and a store that stops
/// growing leaves less than one segment of it empty.
const SAVED_SEGMENT: usize = 1024;

/// Committed records of one partition replica, stored column-wise.
#[derive(Debug, Clone, Default)]
pub struct RecordStore {
    /// uid → slot.
    index: IdMap<SubscriberUid, u32>,
    // -- parallel columns, one element per slot ------------------------------
    uids: Vec<SubscriberUid>,
    lsns: Vec<Lsn>,
    stamps: Vec<SimTime>,
    writers: Vec<SeId>,
    entries: Vec<Option<Entry>>,
    // -- the disk image --------------------------------------------------------
    /// Each slot the last save saw, as that save left it, in segments of
    /// [`SAVED_SEGMENT`] slots. The segments cover every slot, so a save
    /// that reaches slots created since fills room already there.
    saved: Vec<Vec<RecordVersion>>,
    /// Slots in the image: the slot count at the last save.
    saved_slots: usize,
    /// Whether each slot of `saved` was written since the last save (a
    /// slot past its end always was).
    dirty: Vec<bool>,
    /// The slots `dirty` marks, each once. Its capacity covers every slot,
    /// so marking one never grows it.
    dirty_slots: Vec<u32>,
    /// The last save's LSN; `None` before the first save, so an empty
    /// image is told apart from none.
    image_lsn: Option<Lsn>,
    /// Sum of [`Entry::approx_size`] over the live payloads, kept current by
    /// [`RecordStore::upsert`] so byte accounting never walks the payloads.
    payload_bytes: usize,
}

impl RecordStore {
    /// An empty store.
    pub fn new() -> Self {
        RecordStore::default()
    }

    /// An empty store with room for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        RecordStore {
            index: IdMap::with_capacity_and_hasher(n, Default::default()),
            uids: Vec::with_capacity(n),
            lsns: Vec::with_capacity(n),
            stamps: Vec::with_capacity(n),
            writers: Vec::with_capacity(n),
            entries: Vec::with_capacity(n),
            saved: Vec::new(),
            saved_slots: 0,
            dirty: Vec::with_capacity(n),
            dirty_slots: Vec::with_capacity(n),
            image_lsn: None,
            payload_bytes: 0,
        }
    }

    /// Build a store from owned `(uid, version)` pairs (snapshot restore,
    /// reseed, migration seed), with the columns and the index sized once
    /// from the iterator's lower size hint. The store has no image until
    /// its first save, which writes every slot.
    pub fn from_records(records: impl IntoIterator<Item = (SubscriberUid, RecordVersion)>) -> Self {
        let records = records.into_iter();
        let mut store = RecordStore::with_capacity(records.size_hint().0);
        for (uid, v) in records {
            store.upsert(uid, v.entry, v.lsn, v.committed_at, v.written_by);
        }
        store
    }

    /// Publish the committed state of `uid` (`None` entry = tombstone). A
    /// slot the last save saw is marked for the next one; a new slot is
    /// past the image's end, and brings its room in the image with it.
    pub fn upsert(
        &mut self,
        uid: SubscriberUid,
        entry: Option<Entry>,
        lsn: Lsn,
        committed_at: SimTime,
        written_by: SeId,
    ) {
        self.payload_bytes += entry.as_ref().map_or(0, Entry::approx_size);
        match self.index.get(&uid) {
            Some(&slot) => {
                let slot = slot as usize;
                self.lsns[slot] = lsn;
                self.stamps[slot] = committed_at;
                self.writers[slot] = written_by;
                let old = std::mem::replace(&mut self.entries[slot], entry);
                self.payload_bytes -= old.as_ref().map_or(0, Entry::approx_size);
                if let Some(dirty) = self.dirty.get_mut(slot).filter(|d| !**d) {
                    *dirty = true;
                    self.dirty_slots.push(slot as u32);
                }
            }
            None => {
                let slot = u32::try_from(self.uids.len()).expect("record store slot overflow");
                self.index.insert(uid, slot);
                self.uids.push(uid);
                self.lsns.push(lsn);
                self.stamps.push(committed_at);
                self.writers.push(written_by);
                self.entries.push(entry);
                let slots = self.uids.len();
                if slots > self.saved.len() * SAVED_SEGMENT {
                    self.saved.push(Vec::with_capacity(SAVED_SEGMENT));
                }
                self.dirty.reserve(slots - self.dirty.len());
                self.dirty_slots.reserve(slots - self.dirty_slots.len());
            }
        }
    }

    /// Save the store as its image, taken at `last_lsn`: copy each slot
    /// written since the last save, and each slot created since, into the
    /// image, a reference-count bump per payload and no allocator call.
    /// Returns the number of slots it wrote.
    pub(crate) fn save(&mut self, last_lsn: Lsn) -> usize {
        for &slot in &self.dirty_slots {
            let slot = slot as usize;
            let saved = &mut self.saved[slot / SAVED_SEGMENT][slot % SAVED_SEGMENT];
            saved.entry.clone_from(&self.entries[slot]);
            saved.lsn = self.lsns[slot];
            saved.committed_at = self.stamps[slot];
            saved.written_by = self.writers[slot];
            self.dirty[slot] = false;
        }
        let created = self.saved_slots..self.uids.len();
        let written = self.dirty_slots.len() + created.len();
        for slot in created {
            self.saved[slot / SAVED_SEGMENT].push(RecordVersion {
                entry: self.entries[slot].clone(),
                lsn: self.lsns[slot],
                committed_at: self.stamps[slot],
                written_by: self.writers[slot],
            });
            self.dirty.push(false);
        }
        self.dirty_slots.clear();
        self.saved_slots = self.uids.len();
        self.image_lsn = Some(last_lsn);
        written
    }

    /// The LSN of the last save, or `None` if the store was never saved.
    pub(crate) fn image_lsn(&self) -> Option<Lsn> {
        self.image_lsn
    }

    /// The image the last save took, moved out of the store as it goes: its
    /// LSN and its records in slot order. `None` if the store was never
    /// saved.
    pub(crate) fn into_image(self) -> Option<(Lsn, Vec<(SubscriberUid, RecordVersion)>)> {
        let lsn = self.image_lsn?;
        let mut records = Vec::with_capacity(self.saved_slots);
        records.extend(self.uids.into_iter().zip(self.saved.into_iter().flatten()));
        Some((lsn, records))
    }

    /// Borrowed view of a record (tombstones included).
    pub fn get(&self, uid: SubscriberUid) -> Option<RecordView<'_>> {
        self.index.get(&uid).map(|&slot| self.view(slot as usize))
    }

    /// Borrow the live payload of a record; `None` for absent *or*
    /// tombstoned records. This is the zero-clone read path.
    pub fn entry(&self, uid: SubscriberUid) -> Option<&Entry> {
        self.index
            .get(&uid)
            .and_then(|&slot| self.entries[slot as usize].as_ref())
    }

    /// Iterate every slot in slot order (stable: insertion order).
    pub fn iter(&self) -> impl Iterator<Item = RecordView<'_>> {
        (0..self.uids.len()).map(|slot| self.view(slot))
    }

    fn view(&self, slot: usize) -> RecordView<'_> {
        RecordView {
            uid: self.uids[slot],
            lsn: self.lsns[slot],
            committed_at: self.stamps[slot],
            written_by: self.writers[slot],
            entry: self.entries[slot].as_ref(),
        }
    }

    /// Total slots, tombstones included.
    pub fn len(&self) -> usize {
        self.uids.len()
    }

    /// Whether the store holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.uids.is_empty()
    }

    /// Number of live (non-tombstone) records.
    pub fn live_records(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Approximate RAM footprint of committed data, in bytes: the packed
    /// scalar columns plus payload estimates.
    pub fn approx_bytes(&self) -> usize {
        let scalar_columns = self.len() * (8 + 8 + 8 + 4);
        let index = self.index.len() * 16;
        let payloads = self.len() * 8 + self.payload_bytes;
        scalar_columns + index + payloads
    }

    /// What [`EngineSnapshot::approx_bytes`] returns for a snapshot of this
    /// store, without taking one: 16 bytes of metadata per slot plus the
    /// payload estimates.
    ///
    /// [`EngineSnapshot::approx_bytes`]: crate::engine::EngineSnapshot::approx_bytes
    pub fn snapshot_bytes(&self) -> usize {
        self.len() * 16 + self.payload_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::attrs::AttrId;

    fn entry(msisdn: &str, sqn: u64) -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Msisdn, msisdn);
        e.set(AttrId::AuthSqn, sqn);
        e
    }

    #[test]
    fn upsert_get_roundtrip() {
        let mut s = RecordStore::new();
        s.upsert(
            SubscriberUid(7),
            Some(entry("34600123456", 1)),
            Lsn(1),
            SimTime(10),
            SeId(0),
        );
        let v = s.get(SubscriberUid(7)).unwrap();
        assert_eq!(v.lsn, Lsn(1));
        assert_eq!(v.committed_at, SimTime(10));
        assert_eq!(v.written_by, SeId(0));
        assert!(v.entry.is_some());
        assert_eq!(s.entry(SubscriberUid(7)).unwrap().len(), 2);
        assert_eq!(s.live_records(), 1);
        assert!(s.get(SubscriberUid(8)).is_none());
    }

    #[test]
    fn tombstones_keep_their_slot_and_metadata() {
        let mut s = RecordStore::new();
        s.upsert(
            SubscriberUid(1),
            Some(entry("34600000001", 0)),
            Lsn(1),
            SimTime(0),
            SeId(0),
        );
        s.upsert(SubscriberUid(1), None, Lsn(2), SimTime(5), SeId(0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.live_records(), 0);
        assert_eq!(s.entry(SubscriberUid(1)), None);
        let v = s.get(SubscriberUid(1)).unwrap();
        assert_eq!(v.lsn, Lsn(2));
        assert!(v.entry.is_none());
    }

    /// The byte totals as a walk over every payload computes them.
    fn walked_bytes(s: &RecordStore) -> (usize, usize) {
        let payloads: usize = s
            .iter()
            .map(|v| 8 + v.entry.map_or(0, Entry::approx_size))
            .sum();
        let snapshot = crate::engine::EngineSnapshot {
            records: s.iter().map(|v| (v.uid, v.to_version())).collect(),
            last_lsn: Lsn::ZERO,
        };
        (
            s.len() * (8 + 8 + 8 + 4) + s.len() * 16 + payloads,
            snapshot.approx_bytes(),
        )
    }

    #[test]
    fn running_byte_totals_equal_the_walk() {
        let mut s = RecordStore::new();
        let check = |s: &RecordStore, step: &str| {
            assert_eq!(
                (s.approx_bytes(), s.snapshot_bytes()),
                walked_bytes(s),
                "{step}"
            );
        };
        check(&s, "empty");
        for i in 0..20u64 {
            let e = entry(&format!("346{:0width$}", i, width = i as usize % 9), i);
            s.upsert(SubscriberUid(i), Some(e), Lsn(i + 1), SimTime(i), SeId(0));
            check(&s, "add");
        }
        for i in (0..20u64).step_by(3) {
            let mut e = s.entry(SubscriberUid(i)).unwrap().clone();
            e.set(AttrId::ApnProfiles, vec!["internet".to_owned(); i as usize]);
            e.remove(AttrId::AuthSqn);
            s.upsert(SubscriberUid(i), Some(e), Lsn(30 + i), SimTime(i), SeId(0));
            check(&s, "modify");
        }
        for i in (0..20u64).step_by(4) {
            s.upsert(SubscriberUid(i), None, Lsn(60 + i), SimTime(i), SeId(0));
            check(&s, "delete");
        }
        // A tombstone replaced by a tombstone, then brought back to life.
        s.upsert(SubscriberUid(0), None, Lsn(90), SimTime(0), SeId(0));
        check(&s, "delete again");
        s.upsert(
            SubscriberUid(0),
            Some(entry("34600000000", 0)),
            Lsn(91),
            SimTime(0),
            SeId(0),
        );
        check(&s, "re-add");

        let restored = RecordStore::from_records(s.iter().map(|v| (v.uid, v.to_version())));
        check(&restored, "from_records");
    }

    #[test]
    fn iteration_is_slot_ordered_and_complete() {
        let mut s = RecordStore::new();
        for i in [5u64, 3, 9] {
            s.upsert(
                SubscriberUid(i),
                Some(entry("34600123456", i)),
                Lsn(i),
                SimTime(i),
                SeId(0),
            );
        }
        let uids: Vec<_> = s.iter().map(|v| v.uid.0).collect();
        assert_eq!(uids, vec![5, 3, 9], "insertion order is stable");
    }
}
