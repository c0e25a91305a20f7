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
//! [`Entry`]: one immutable allocation per committed version (reference
//! count, length and attribute slots in one block), shared by
//! this store, the commit log, the ship channels, the slaves and the disk
//! snapshots. Reads hand out [`RecordView`]s that borrow it, and the owning
//! reads ([`RecordView::to_version`], `Engine::read_committed`) clone the
//! handle — a reference-count bump, never a copy of the attributes. A
//! modify copies the attribute slots of the version it changes into one
//! new block, one allocator call, and no value in them: strings, octets
//! and lists are reference-counted too
//! ([`AttrValue`]), so the new version shares every attribute it did not
//! touch with the old one, wherever the old one is still held. Nothing on
//! any path deep-copies a value. The whole store can also be frozen into a
//! contiguous byte image whose per-record slices share one allocation
//! ([`StoreImage`], zero-copy via the `bytes` shim).
//!
//! Deletes keep their slot as a tombstone (the engine's semantics: a
//! tombstone carries the delete's LSN), so slots are never recycled and a
//! slot id is stable for the life of the store.

use bytes::{BufMut, Bytes, BytesMut};

use udr_model::attrs::{AttrId, AttrValue, Entry, TextList};
use udr_model::error::{UdrError, UdrResult};
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
            payload_bytes: 0,
        }
    }

    /// Build a store from owned `(uid, version)` pairs (snapshot restore,
    /// reseed, migration seed), with the columns and the index sized once
    /// from the iterator's lower size hint.
    pub fn from_records(records: impl IntoIterator<Item = (SubscriberUid, RecordVersion)>) -> Self {
        let records = records.into_iter();
        let mut store = RecordStore::with_capacity(records.size_hint().0);
        for (uid, v) in records {
            store.upsert(uid, v.entry, v.lsn, v.committed_at, v.written_by);
        }
        store
    }

    /// Publish the committed state of `uid` (`None` entry = tombstone).
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
            }
            None => {
                let slot = u32::try_from(self.uids.len()).expect("record store slot overflow");
                self.index.insert(uid, slot);
                self.uids.push(uid);
                self.lsns.push(lsn);
                self.stamps.push(committed_at);
                self.writers.push(written_by);
                self.entries.push(entry);
            }
        }
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

    /// Freeze the live records into one contiguous byte image. Per-record
    /// accessors on the image return zero-copy slices of a single shared
    /// allocation — the form a durability write or a state-transfer seed
    /// ships without re-serialising per record.
    pub fn freeze_image(&self) -> StoreImage {
        let mut buf = BytesMut::with_capacity(self.len() * 64);
        let mut spans = Vec::with_capacity(self.len());
        for slot in 0..self.uids.len() {
            let start = buf.len();
            buf.put_u64(self.uids[slot].0);
            buf.put_u64(self.lsns[slot].raw());
            buf.put_u64(self.stamps[slot].0);
            buf.put_u32(self.writers[slot].0);
            match &self.entries[slot] {
                Some(entry) => {
                    buf.put_u8(1);
                    encode_entry(entry, &mut buf);
                }
                None => buf.put_u8(0),
            }
            spans.push((start as u32, (buf.len() - start) as u32));
        }
        StoreImage {
            data: buf.freeze(),
            spans,
        }
    }
}

/// A frozen, contiguous encoding of a [`RecordStore`]'s slots.
#[derive(Debug, Clone)]
pub struct StoreImage {
    data: Bytes,
    /// `(offset, len)` of each record's encoding, in slot order.
    spans: Vec<(u32, u32)>,
}

impl StoreImage {
    /// Number of records in the image.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the image holds no records.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total encoded bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// The whole image as one shared buffer.
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }

    /// Zero-copy slice of one record's encoding (shares the image's
    /// allocation; no per-record serialisation or copy).
    pub fn record_bytes(&self, i: usize) -> Bytes {
        let (off, len) = self.spans[i];
        self.data.slice(off as usize..(off + len) as usize)
    }

    /// Decode record `i` back into `(uid, version)`.
    pub fn decode_record(&self, i: usize) -> UdrResult<(SubscriberUid, RecordVersion)> {
        let bytes = self.record_bytes(i);
        let mut r = Reader::new(&bytes);
        let uid = SubscriberUid(r.u64()?);
        let lsn = Lsn(r.u64()?);
        let committed_at = SimTime(r.u64()?);
        let written_by = SeId(r.u32()?);
        let entry = match r.u8()? {
            0 => None,
            1 => Some(decode_entry(&mut r)?),
            t => return Err(UdrError::Codec(format!("bad record tag {t}"))),
        };
        Ok((
            uid,
            RecordVersion {
                entry,
                lsn,
                committed_at,
                written_by,
            },
        ))
    }
}

// -- entry codec -------------------------------------------------------------
// A compact tag-length-value encoding of `Entry`: attribute count, then per
// attribute the `AttrId` wire tag and a typed value. Deterministic (entries
// iterate in `AttrId` order) so equal entries encode to equal bytes — the
// property the byte-equivalence proptests pin down.

const VAL_STR: u8 = 0;
const VAL_U64: u8 = 1;
const VAL_BOOL: u8 = 2;
const VAL_BYTES: u8 = 3;
const VAL_STR_LIST: u8 = 4;

/// Encode one entry into `buf` (deterministic, attribute order).
pub fn encode_entry(entry: &Entry, buf: &mut BytesMut) {
    buf.put_u16(entry.len() as u16);
    for (id, value) in entry.iter() {
        buf.put_u16(id.tag());
        match value {
            AttrValue::Str(s) => {
                buf.put_u8(VAL_STR);
                put_str(buf, s);
            }
            AttrValue::U64(v) => {
                buf.put_u8(VAL_U64);
                buf.put_u64(*v);
            }
            AttrValue::Bool(v) => {
                buf.put_u8(VAL_BOOL);
                buf.put_u8(u8::from(*v));
            }
            AttrValue::Bytes(b) => {
                buf.put_u8(VAL_BYTES);
                buf.put_u32(b.len() as u32);
                buf.put_slice(b);
            }
            AttrValue::StrList(l) => {
                buf.put_u8(VAL_STR_LIST);
                buf.put_u16(l.len() as u16);
                for s in l.iter() {
                    put_str(buf, s);
                }
            }
        }
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode one entry encoded by [`encode_entry`].
pub fn decode_entry(r: &mut Reader<'_>) -> UdrResult<Entry> {
    let n = r.u16()?;
    (0..n).map(|_| decode_attr(r)).collect()
}

/// One attribute of an encoded entry: its tag and its typed value.
fn decode_attr(r: &mut Reader<'_>) -> UdrResult<(AttrId, AttrValue)> {
    let tag = r.u16()?;
    let id =
        AttrId::from_tag(tag).ok_or_else(|| UdrError::Codec(format!("unknown attr tag {tag}")))?;
    let value = match r.u8()? {
        VAL_STR => AttrValue::Str(r.str()?.into()),
        VAL_U64 => AttrValue::U64(r.u64()?),
        VAL_BOOL => AttrValue::Bool(r.u8()? != 0),
        VAL_BYTES => {
            let len = r.u32()? as usize;
            AttrValue::Bytes(r.take(len)?.into())
        }
        VAL_STR_LIST => {
            let count = r.u16()?;
            let list: UdrResult<TextList> = (0..count).map(|_| r.str()).collect();
            AttrValue::StrList(list?)
        }
        t => return Err(UdrError::Codec(format!("unknown value tag {t}"))),
    };
    Ok((id, value))
}

/// A bounds-checked big-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> UdrResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| UdrError::Codec("record image truncated".into()))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> UdrResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> UdrResult<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> UdrResult<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> UdrResult<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> UdrResult<&'a str> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| UdrError::Codec("invalid utf-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(msisdn: &str, sqn: u64) -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Msisdn, msisdn);
        e.set(AttrId::AuthSqn, sqn);
        e
    }

    /// One attribute of every value kind, empty strings, octets and lists
    /// among them, and a multi-byte string.
    fn golden_entry() -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Imsi, "214011234567890");
        e.set(AttrId::Msisdn, "");
        e.set(
            AttrId::ImpuList,
            vec![
                "sip:+34600123456@ims.example".to_owned(),
                "tel:+34600123456".to_owned(),
            ],
        );
        e.set(AttrId::AuthKi, vec![0u8, 1, 0x7f, 0x80, 0xff]);
        e.set(AttrId::AuthAmf, 0x8000u64);
        e.set(AttrId::AuthSqn, 0u64);
        e.set(AttrId::OdbMask, u64::MAX);
        e.set(AttrId::CallBarring, true);
        e.set(AttrId::CallForwarding, false);
        e.set(AttrId::Teleservices, Vec::<String>::new());
        e.set(AttrId::ApnProfiles, vec!["internet".to_owned()]);
        e.set(AttrId::CamelCsi, Vec::<u8>::new());
        e.set(AttrId::ScscfName, "scscf.ímś.example ✓");
        e.set(AttrId::HomeRegion, 3u64);
        e
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// `golden_entry` in the store's entry codec. Fixed: how a value is
    /// held in memory is no part of the format.
    const GOLDEN_ENTRY: &str = concat!(
        "000e0001000000000f3231343031313233343536373839300002000000000000",
        "030400020000001c7369703a2b333436303031323334353640696d732e657861",
        "6d706c650000001074656c3a2b3334363030313233343536000a030000000500",
        "017f80ff000b010000000000008000000c010000000000000000001501ffffff",
        "ffffffffff00160201001702000018040000001904000100000008696e746572",
        "6e6574001a0300000000002c000000001773637363662ec3ad6dc59b2e657861",
        "6d706c6520e29c93003c010000000000000003",
    );

    #[test]
    fn an_entry_encodes_to_the_golden_bytes() {
        let mut buf = BytesMut::new();
        encode_entry(&golden_entry(), &mut buf);
        assert_eq!(&buf[..], unhex(GOLDEN_ENTRY));
        let golden = unhex(GOLDEN_ENTRY);
        let mut r = Reader::new(&golden);
        assert_eq!(decode_entry(&mut r).unwrap(), golden_entry());
        assert_eq!(r.pos, golden.len(), "the whole image read");
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

    #[test]
    fn entry_codec_round_trips_all_value_shapes() {
        let mut e = Entry::new();
        e.set(AttrId::Msisdn, "34600123456");
        e.set(AttrId::AuthSqn, 42u64);
        e.set(AttrId::CallBarring, true);
        e.set(AttrId::AuthKi, vec![1u8, 2, 3, 255]);
        e.set(
            AttrId::ApnProfiles,
            vec!["internet".to_owned(), "ims".to_owned()],
        );
        let mut buf = BytesMut::new();
        encode_entry(&e, &mut buf);
        let frozen = buf.freeze();
        let decoded = decode_entry(&mut Reader::new(&frozen)).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn image_slices_share_one_allocation() {
        let mut s = RecordStore::new();
        for i in 0..10u64 {
            s.upsert(
                SubscriberUid(i),
                Some(entry(&format!("3460000{i:04}"), i)),
                Lsn(i + 1),
                SimTime(i),
                SeId(1),
            );
        }
        let image = s.freeze_image();
        assert_eq!(image.len(), 10);
        let a = image.record_bytes(0);
        let b = image.record_bytes(9);
        assert!(a.shares_storage_with(image.bytes()));
        assert!(b.shares_storage_with(&a));
        // And every record decodes back to what the store holds.
        for i in 0..10 {
            let (uid, version) = image.decode_record(i).unwrap();
            let v = s.get(uid).unwrap();
            assert_eq!(version.lsn, v.lsn);
            assert_eq!(version.entry.as_ref(), v.entry);
        }
    }

    #[test]
    fn image_encodes_tombstones() {
        let mut s = RecordStore::new();
        s.upsert(
            SubscriberUid(1),
            Some(entry("34600000001", 0)),
            Lsn(1),
            SimTime(0),
            SeId(0),
        );
        s.upsert(SubscriberUid(1), None, Lsn(2), SimTime(1), SeId(0));
        let image = s.freeze_image();
        let (uid, version) = image.decode_record(0).unwrap();
        assert_eq!(uid, SubscriberUid(1));
        assert_eq!(version.entry, None);
        assert_eq!(version.lsn, Lsn(2));
    }

    #[test]
    fn truncated_image_is_an_error_not_a_panic() {
        let mut s = RecordStore::new();
        s.upsert(
            SubscriberUid(1),
            Some(entry("34600000001", 0)),
            Lsn(1),
            SimTime(0),
            SeId(0),
        );
        let image = s.freeze_image();
        let whole = image.record_bytes(0);
        let cut = whole.slice(0..whole.len() - 1);
        let mut r = Reader::new(&cut);
        let uid = r.u64().unwrap();
        assert_eq!(uid, 1);
        // Decoding the truncated remainder fails cleanly.
        let mut r = Reader::new(&cut);
        let _ = r.u64();
        let _ = r.u64();
        let _ = r.u64();
        let _ = r.u32();
        let _ = r.u8();
        assert!(decode_entry(&mut r).is_err());
    }
}
