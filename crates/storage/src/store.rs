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
//! presence and defaults masks, and a slot for every attribute that differs
//! from its default); a modified record's is a delta
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
//! Every per-slot structure is a column kept in fixed segments of 1 024
//! slots that never move: a column grows without copying what
//! it holds, and a store that stops growing leaves less than one segment
//! of each column empty. A slot is split into its segment and its offset
//! once per access, however many columns the access reads.
//!
//! The replica's disk image (§3.1's periodic save) is one more column:
//! each slot's version at the last save, beside the list of the slots
//! written since. A slot the last save saw was written since iff its LSN
//! is past the save's, so the list is all the bookkeeping a write needs.
//! Creating a slot opens room for it in both, so a save
//! (`RecordStore::save`) visits only the slots written or created since
//! the last one and copies each one's metadata and payload handle into the
//! column: no allocator call, no sort, no walk of the clean slots. The
//! room stays untouched until a save fills it.
//!
//! Deletes keep their slot as a tombstone (the engine's semantics: a
//! tombstone carries the delete's LSN), so slots are never recycled and a
//! slot id is stable for the life of the store.
//!
//! The uid index maps a uid to its slot and holds nothing but slots: a
//! power-of-two table of 4-byte buckets, probed linearly from the bucket
//! the uid's [`IdHasher`] hash names, in which a candidate slot is
//! confirmed by the uid the `uids` column holds for it. The keys live once,
//! in that column. Since slots are never freed, the table has no removal
//! path and no deleted-bucket marker; it doubles past a load of 3/4 by
//! re-inserting every slot from the column. Iteration goes by slot, never
//! by bucket, so the index's layout shows in no output.

use std::hash::{BuildHasher, BuildHasherDefault};
use std::ops::{Index, IndexMut};

use udr_model::attrs::Entry;
use udr_model::ids::{IdHasher, SeId, SubscriberUid};
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

/// Slots per segment of a [`Column`].
const SEGMENT: usize = 1024;

/// A slot split into its segment and its offset in that segment.
#[derive(Clone, Copy)]
struct At {
    segment: usize,
    offset: usize,
}

impl At {
    #[inline]
    fn of(slot: usize) -> At {
        At {
            segment: slot / SEGMENT,
            offset: slot % SEGMENT,
        }
    }
}

/// One per-slot structure of a store, in segments of [`SEGMENT`] slots.
/// Each segment is opened with room for all its slots and never grows, so
/// a push into opened room makes no allocator call.
#[derive(Debug)]
struct Column<T> {
    segments: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column {
            segments: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Column<T> {
    fn len(&self) -> usize {
        self.len
    }

    /// Open segments until they cover `slots` slots.
    fn open(&mut self, slots: usize) {
        while self.segments.len() * SEGMENT < slots {
            self.segments.push(Vec::with_capacity(SEGMENT));
        }
    }

    fn push(&mut self, value: T) {
        let at = At::of(self.len);
        self.open(self.len + 1);
        self.segments[at.segment].push(value);
        self.len += 1;
    }

    /// Empty the column, keeping every segment and its room.
    fn clear(&mut self) {
        self.segments.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments.iter().flatten()
    }

    /// Heap bytes held: the room of every opened segment and the segment
    /// table.
    fn heap_bytes(&self) -> usize {
        self.segments.len() * SEGMENT * size_of::<T>()
            + self.segments.capacity() * size_of::<Vec<T>>()
    }
}

impl<T> IntoIterator for Column<T> {
    type Item = T;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.segments.into_iter().flatten()
    }
}

impl<T> Index<At> for Column<T> {
    type Output = T;

    #[inline]
    fn index(&self, at: At) -> &T {
        &self.segments[at.segment][at.offset]
    }
}

impl<T> IndexMut<At> for Column<T> {
    #[inline]
    fn index_mut(&mut self, at: At) -> &mut T {
        &mut self.segments[at.segment][at.offset]
    }
}

/// An empty bucket of a [`SlotIndex`]; no slot takes this number.
const EMPTY: u32 = u32::MAX;
/// The fewest buckets a [`SlotIndex`] that holds a slot has.
const MIN_BUCKETS: usize = 8;

/// The slots a table of `buckets` buckets holds before it doubles: a load
/// of 3/4, so the probe for a uid it lacks always meets an empty bucket.
fn room(buckets: usize) -> usize {
    buckets / 4 * 3
}

/// Where a probe of a [`SlotIndex`] for one uid stopped.
#[derive(Clone, Copy)]
struct Probe {
    /// The bucket holding the uid's slot, or the empty one it would take.
    bucket: usize,
    /// The uid's slot; `None` when the uid has none.
    slot: Option<u32>,
    /// Buckets read, the last one included.
    probes: usize,
}

/// The uid index: uid → slot as a table of slots alone (see the module
/// doc). The uids sit in the store's `uids` column, which every probe
/// reads to confirm a candidate.
#[derive(Debug, Default)]
struct SlotIndex {
    /// A power-of-two count of buckets, or none before the first slot.
    buckets: Box<[u32]>,
}

impl SlotIndex {
    /// A table with room for `slots` slots, sized once; no allocation for
    /// none.
    fn with_capacity(slots: usize) -> SlotIndex {
        let mut buckets = 0;
        while room(buckets) < slots {
            buckets = (buckets * 2).max(MIN_BUCKETS);
        }
        SlotIndex {
            buckets: vec![EMPTY; buckets].into_boxed_slice(),
        }
    }

    /// Look `uid` up: the one probe sequence `get`, `entry` and `upsert`
    /// all take. An occupied bucket is the uid's only if `uids` holds the
    /// uid at its slot.
    #[inline]
    fn probe(&self, uid: SubscriberUid, uids: &Column<SubscriberUid>) -> Probe {
        let mask = self.buckets.len().wrapping_sub(1);
        let mut probe = Probe {
            bucket: 0,
            slot: None,
            probes: 0,
        };
        if self.buckets.is_empty() {
            return probe;
        }
        probe.bucket = BuildHasherDefault::<IdHasher>::default().hash_one(uid) as usize & mask;
        loop {
            probe.probes += 1;
            let slot = self.buckets[probe.bucket];
            if slot == EMPTY {
                return probe;
            }
            if uids[At::of(slot as usize)] == uid {
                probe.slot = Some(slot);
                return probe;
            }
            probe.bucket = (probe.bucket + 1) & mask;
        }
    }

    /// Record `slot`, whose uid `uids` already holds, in the empty bucket
    /// its probe stopped at. If the table then passes its load, it doubles
    /// instead: every slot, this one included, is re-inserted by its uid
    /// from the column.
    fn insert(&mut self, bucket: usize, slot: u32, uids: &Column<SubscriberUid>) {
        let slots = slot as usize + 1;
        if slots <= room(self.buckets.len()) {
            self.buckets[bucket] = slot;
            return;
        }
        *self = SlotIndex::with_capacity(slots);
        for (slot, &uid) in uids.iter().enumerate() {
            let bucket = self.probe(uid, uids).bucket;
            self.buckets[bucket] = slot as u32;
        }
    }

    /// Heap bytes held: four per bucket.
    fn heap_bytes(&self) -> usize {
        self.buckets.len() * size_of::<u32>()
    }
}

/// Committed records of one partition replica, stored column-wise.
#[derive(Debug, Default)]
pub struct RecordStore {
    /// uid → slot, holding slots only: its keys are the `uids` column.
    index: SlotIndex,
    // -- parallel columns, one element per slot ------------------------------
    uids: Column<SubscriberUid>,
    lsns: Column<Lsn>,
    stamps: Column<SimTime>,
    writers: Column<SeId>,
    entries: Column<Option<Entry>>,
    // -- the disk image --------------------------------------------------------
    /// Each slot the last save saw, as that save left it; its length is the
    /// slot count at the last save. Its room covers every slot, so a save
    /// that reaches slots created since fills room already there.
    saved: Column<RecordVersion>,
    /// The slots of `saved` written since the last save, each once. Its
    /// room covers every slot, so marking one never allocates.
    dirty_slots: Column<u32>,
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
        let mut store = RecordStore {
            index: SlotIndex::with_capacity(n),
            ..RecordStore::default()
        };
        store.open(n);
        store
    }

    /// Open room for `slots` slots in every per-slot structure.
    fn open(&mut self, slots: usize) {
        self.uids.open(slots);
        self.lsns.open(slots);
        self.stamps.open(slots);
        self.writers.open(slots);
        self.entries.open(slots);
        self.saved.open(slots);
        self.dirty_slots.open(slots);
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
    /// slot the last save saw and nothing wrote since is marked for the
    /// next one; a new slot is past the image's end, and brings its room in
    /// the image with it.
    ///
    /// Every write to a slot must carry a higher LSN than the slot's last
    /// write and the last save (the engine's commits and in-order applies
    /// do): that is how a write tells a clean slot from a marked one.
    pub fn upsert(
        &mut self,
        uid: SubscriberUid,
        entry: Option<Entry>,
        lsn: Lsn,
        committed_at: SimTime,
        written_by: SeId,
    ) {
        self.payload_bytes += entry.as_ref().map_or(0, Entry::approx_size);
        let probe = self.index.probe(uid, &self.uids);
        match probe.slot {
            Some(slot) => {
                let slot = slot as usize;
                let at = At::of(slot);
                let image = self.image_lsn.unwrap_or(Lsn::ZERO);
                debug_assert!(
                    lsn > self.lsns[at] && lsn > image,
                    "LSNs rise: {lsn:?} after {:?}, image at {image:?}",
                    self.lsns[at]
                );
                if slot < self.saved.len() && self.lsns[at] <= image {
                    self.dirty_slots.push(slot as u32);
                }
                self.lsns[at] = lsn;
                self.stamps[at] = committed_at;
                self.writers[at] = written_by;
                let old = std::mem::replace(&mut self.entries[at], entry);
                self.payload_bytes -= old.as_ref().map_or(0, Entry::approx_size);
            }
            None => {
                let slot = u32::try_from(self.uids.len())
                    .ok()
                    .filter(|&slot| slot != EMPTY)
                    .expect("record store slot overflow");
                self.uids.push(uid);
                self.index.insert(probe.bucket, slot, &self.uids);
                self.lsns.push(lsn);
                self.stamps.push(committed_at);
                self.writers.push(written_by);
                self.entries.push(entry);
                self.open(self.uids.len());
            }
        }
    }

    /// Save the store as its image, taken at `last_lsn`: copy each slot
    /// written since the last save, and each slot created since, into the
    /// image, a reference-count bump per payload and no allocator call.
    /// Returns the number of slots it wrote.
    pub fn save(&mut self, last_lsn: Lsn) -> usize {
        for &slot in self.dirty_slots.iter() {
            let slot = slot as usize;
            self.saved[At::of(slot)] = self.view(slot).to_version();
        }
        let created = self.saved.len()..self.uids.len();
        let written = self.dirty_slots.len() + created.len();
        for slot in created {
            self.saved.push(self.view(slot).to_version());
        }
        self.dirty_slots.clear();
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
    pub fn into_image(self) -> Option<(Lsn, Vec<(SubscriberUid, RecordVersion)>)> {
        let lsn = self.image_lsn?;
        let mut records = Vec::with_capacity(self.saved.len());
        records.extend(self.uids.into_iter().zip(self.saved));
        Some((lsn, records))
    }

    /// Borrowed view of a record (tombstones included).
    pub fn get(&self, uid: SubscriberUid) -> Option<RecordView<'_>> {
        let slot = self.index.probe(uid, &self.uids).slot?;
        Some(self.view(slot as usize))
    }

    /// Borrow the live payload of a record; `None` for absent *or*
    /// tombstoned records. This is the zero-clone read path.
    pub fn entry(&self, uid: SubscriberUid) -> Option<&Entry> {
        let slot = self.index.probe(uid, &self.uids).slot?;
        self.entries[At::of(slot as usize)].as_ref()
    }

    /// Iterate every slot in slot order (stable: insertion order).
    pub fn iter(&self) -> impl Iterator<Item = RecordView<'_>> {
        (0..self.uids.len()).map(|slot| self.view(slot))
    }

    fn view(&self, slot: usize) -> RecordView<'_> {
        let at = At::of(slot);
        RecordView {
            uid: self.uids[at],
            lsn: self.lsns[at],
            committed_at: self.stamps[at],
            written_by: self.writers[at],
            entry: self.entries[at].as_ref(),
        }
    }

    /// Total slots, tombstones included.
    pub fn len(&self) -> usize {
        self.uids.len()
    }

    /// Whether the store holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.uids.len() == 0
    }

    /// Number of live (non-tombstone) records.
    pub fn live_records(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Approximate RAM footprint of committed data, in bytes: the packed
    /// scalar columns, the uid index's buckets at 4 bytes each and payload
    /// estimates.
    pub fn approx_bytes(&self) -> usize {
        let scalar_columns = self.len() * (8 + 8 + 8 + 4);
        let index = self.index.heap_bytes();
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

    /// Heap bytes the store holds, from its segment and bucket counts: the
    /// five columns, the disk image and the list of slots written since the
    /// last save, room included, and the uid index's buckets. Unlike
    /// [`RecordStore::approx_bytes`], the capacity model's figure, this is
    /// what the allocator handed out.
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
            + self.uids.heap_bytes()
            + self.lsns.heap_bytes()
            + self.stamps.heap_bytes()
            + self.writers.heap_bytes()
            + self.entries.heap_bytes()
            + self.saved.heap_bytes()
            + self.dirty_slots.heap_bytes()
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
            s.len() * (8 + 8 + 8 + 4) + s.index.buckets.len() * 4 + payloads,
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

    /// At `ps_modify`'s load, 16 667 records of a store in 32 768 buckets
    /// (0.51), the probe `get`, `entry` and `upsert` take reads few buckets
    /// for random uids: linear probing predicts 1.52 for a hit and 2.57 for
    /// a miss.
    #[test]
    fn probes_are_short_at_ps_modify_load() {
        let mut rng = udr_sim::SimRng::seed_from_u64(11);
        let mut random_uid = || SubscriberUid(rng.below(u64::MAX));
        let mut s = RecordStore::new();
        while s.len() < 16_667 {
            let uid = random_uid();
            if s.get(uid).is_none() {
                s.upsert(uid, None, Lsn(1), SimTime::ZERO, SeId(0));
            }
        }
        assert_eq!(s.index.buckets.len(), 32_768);
        let probes = |uid| s.index.probe(uid, &s.uids);
        let hits: Vec<Probe> = s.iter().map(|v| probes(v.uid)).collect();
        assert!(hits.iter().all(|p| p.slot.is_some()));
        let misses: Vec<Probe> = std::iter::repeat_with(random_uid)
            .filter(|&uid| s.get(uid).is_none())
            .take(16_667)
            .map(probes)
            .collect();
        assert!(misses.iter().all(|p| p.slot.is_none()));
        let mean =
            |ps: &[Probe]| ps.iter().map(|p| p.probes).sum::<usize>() as f64 / ps.len() as f64;
        let (hit, miss) = (mean(&hits), mean(&misses));
        assert!(hit <= 2.0, "{hit:.3} buckets read per hit");
        assert!(miss <= 3.5, "{miss:.3} buckets read per miss");
    }
}
