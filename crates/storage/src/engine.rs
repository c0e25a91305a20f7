//! The transactional in-RAM engine for one partition replica.
//!
//! Implements the §3.2 decisions: transactions are ACID *within* one storage
//! element only; the isolation level is READ_COMMITTED (reads never block,
//! writers take row locks that fail fast on conflict). The paper grants
//! READ_UNCOMMITTED to transactions that span SEs; the simulator runs none
//! on an engine, so the engine offers no dirty reads.
//!
//! Reads served to clients take no transaction: the pipeline calls
//! [`Engine::read_committed`], and only writes `begin` and `commit`. That
//! is exact: a transaction that has written nothing sees the latest
//! committed version.
//!
//! The engine is clock-free: commit timestamps are supplied by the caller
//! (virtual time in simulations, wall time in benchmarks), which keeps the
//! same code path usable from both the DES and `udr-perf`'s isolated
//! replays.
//!
//! A transaction's write set is a vector kept sorted by uid, and the engine
//! lends one to each transaction it begins: `begin` takes the engine's spare
//! vector and `commit`/`abort` hand it back emptied, so in the pipeline's
//! one-transaction-at-a-time use a write stages into memory the previous
//! transaction already allocated. A transaction that begins while another
//! holds the spare starts with an empty vector of its own. The lock table
//! maps a uid to its holder only; the staged value lives in the holder's
//! write set, so staging a write is one probe and so is releasing it at
//! commit.

use udr_model::attrs::{AttrMod, Entry};
use udr_model::config::IsolationLevel;
use udr_model::error::{UdrError, UdrResult};
use udr_model::ids::{IdMap, SeId, SubscriberUid};
use udr_model::time::SimTime;

use crate::log::CommitLog;
use crate::store::{RecordStore, RecordView};
use crate::version::{Change, CommitRecord, Lsn, RecordVersion};

/// Identifier of an in-flight transaction on one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId(pub u64);

#[derive(Debug)]
struct ActiveTxn {
    /// Staged final values per record (`None` = delete), one per uid,
    /// sorted by uid so commit application is deterministic.
    writes: Vec<(SubscriberUid, Option<Entry>)>,
}

impl ActiveTxn {
    /// This transaction's staged value for `uid`, if it wrote one.
    fn staged(&self, uid: SubscriberUid) -> Option<&Option<Entry>> {
        let i = self.writes.binary_search_by_key(&uid, |(u, _)| *u).ok()?;
        Some(&self.writes[i].1)
    }
}

/// A snapshot of an engine's committed state: every slot, tombstones
/// included, in uid order. What seeds a copy from a peer's, and the form
/// the simulated disk keeps an image in when no live store holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Committed records at snapshot time.
    pub records: Vec<(SubscriberUid, RecordVersion)>,
    /// LSN of the last commit included.
    pub last_lsn: Lsn,
}

impl EngineSnapshot {
    /// An empty snapshot (a brand-new replica).
    pub fn empty() -> Self {
        EngineSnapshot {
            records: Vec::new(),
            last_lsn: Lsn::ZERO,
        }
    }

    /// A snapshot at `last_lsn` of `records`, put in uid order.
    fn in_uid_order(mut records: Vec<(SubscriberUid, RecordVersion)>, last_lsn: Lsn) -> Self {
        // Uids are unique, so the unstable sort yields the same order as
        // a stable one, and it sorts in place.
        records.sort_unstable_by_key(|(k, _)| *k);
        EngineSnapshot { records, last_lsn }
    }

    /// Approximate serialised size in bytes (drives snapshot-cost models).
    pub fn approx_bytes(&self) -> usize {
        self.records
            .iter()
            .map(|(_, v)| 16 + v.entry.as_ref().map_or(0, Entry::approx_size))
            .sum()
    }
}

/// The transactional store for one partition replica.
#[derive(Debug)]
pub struct Engine {
    /// Identity of the hosting SE (stamped into commit records).
    se: SeId,
    /// Committed state, stored column-wise (see [`RecordStore`]).
    committed: RecordStore,
    /// Row write locks: uid → holding transaction.
    locks: IdMap<SubscriberUid, TxnId>,
    active: IdMap<TxnId, ActiveTxn>,
    /// The write-set vector the next `begin` borrows (empty, capacity
    /// kept).
    spare_writes: Vec<(SubscriberUid, Option<Entry>)>,
    log: CommitLog,
    next_txn: u64,
    /// Commits applied (local + replicated), for reporting.
    pub commit_count: u64,
    /// Transactions aborted by conflict, for reporting.
    pub conflict_count: u64,
}

impl Engine {
    /// A fresh, empty engine hosted on `se`.
    pub fn new(se: SeId) -> Self {
        Engine {
            se,
            committed: RecordStore::new(),
            locks: IdMap::default(),
            active: IdMap::default(),
            spare_writes: Vec::new(),
            log: CommitLog::new(),
            next_txn: 1,
            commit_count: 0,
            conflict_count: 0,
        }
    }

    /// Rebuild an engine from a durability snapshot. The commit log restarts
    /// after the snapshot LSN; everything committed later is lost (the §4.2
    /// durability gap).
    pub fn from_snapshot(se: SeId, snapshot: EngineSnapshot) -> Self {
        Engine {
            se,
            committed: RecordStore::from_records(snapshot.records),
            locks: IdMap::default(),
            active: IdMap::default(),
            spare_writes: Vec::new(),
            log: CommitLog::starting_after(snapshot.last_lsn),
            next_txn: 1,
            commit_count: 0,
            conflict_count: 0,
        }
    }

    /// The hosting storage element.
    pub fn se(&self) -> SeId {
        self.se
    }

    /// Change the SE stamp (used when a snapshot is seeded onto another SE).
    pub fn set_se(&mut self, se: SeId) {
        self.se = se;
    }

    /// Begin a READ_COMMITTED transaction.
    pub fn begin(&mut self, _isolation: IsolationLevel) -> TxnId {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.active.insert(
            id,
            ActiveTxn {
                writes: std::mem::take(&mut self.spare_writes),
            },
        );
        id
    }

    /// Take back a finished transaction's write-set vector, emptied. Of two
    /// vectors the engine keeps the roomier.
    fn return_writes(&mut self, mut writes: Vec<(SubscriberUid, Option<Entry>)>) {
        if writes.capacity() > self.spare_writes.capacity() {
            writes.clear();
            self.spare_writes = writes;
        }
    }

    fn txn(&self, id: TxnId) -> UdrResult<&ActiveTxn> {
        self.active.get(&id).ok_or(UdrError::TxnInvalid)
    }

    /// Read a record inside a transaction.
    ///
    /// Own staged writes are always visible (read-your-writes); otherwise
    /// the read sees the latest committed version and never blocks on
    /// other writers (§3.2 decision 2).
    pub fn read(&self, id: TxnId, uid: SubscriberUid) -> UdrResult<Option<Entry>> {
        let txn = self.txn(id)?;
        if let Some(staged) = txn.staged(uid) {
            return Ok(staged.clone());
        }
        Ok(self.read_committed(uid))
    }

    /// Read the latest committed version outside any transaction (what a
    /// slave replica serves to front-ends). The returned entry shares the
    /// committed payload; nothing is copied.
    pub fn read_committed(&self, uid: SubscriberUid) -> Option<Entry> {
        self.committed.entry(uid).cloned()
    }

    /// Borrow the latest committed payload — for lookups that do not need
    /// to own the entry.
    pub fn committed_entry(&self, uid: SubscriberUid) -> Option<&Entry> {
        self.committed.entry(uid)
    }

    /// Borrowed view of the committed record (metadata by value, payload by
    /// reference).
    pub fn committed_view(&self, uid: SubscriberUid) -> Option<RecordView<'_>> {
        self.committed.get(uid)
    }

    /// Lock `uid` for `id` (or find it already locked by `id`) and stage
    /// `value` as its new version.
    fn stage(&mut self, id: TxnId, uid: SubscriberUid, value: Option<Entry>) -> UdrResult<()> {
        let txn = self.active.get_mut(&id).ok_or(UdrError::TxnInvalid)?;
        let owner = *self.locks.entry(uid).or_insert(id);
        if owner != id {
            self.conflict_count += 1;
            return Err(UdrError::WriteConflict(uid));
        }
        match txn.writes.binary_search_by_key(&uid, |(u, _)| *u) {
            Ok(i) => txn.writes[i].1 = value,
            Err(i) => txn.writes.insert(i, (uid, value)),
        }
        Ok(())
    }

    /// Create a record; fails if it already exists.
    pub fn insert(&mut self, id: TxnId, uid: SubscriberUid, entry: Entry) -> UdrResult<()> {
        if self.read(id, uid)?.is_some() {
            return Err(UdrError::AlreadyExists(uid));
        }
        self.stage(id, uid, Some(entry))
    }

    /// Unconditional upsert.
    pub fn put(&mut self, id: TxnId, uid: SubscriberUid, entry: Entry) -> UdrResult<()> {
        self.stage(id, uid, Some(entry))
    }

    /// Apply attribute-level modifications to an existing record.
    pub fn modify(&mut self, id: TxnId, uid: SubscriberUid, mods: &[AttrMod]) -> UdrResult<()> {
        let mut entry = self.read(id, uid)?.ok_or(UdrError::NotFound(uid))?;
        entry.apply(mods);
        self.stage(id, uid, Some(entry))
    }

    /// Delete an existing record.
    pub fn delete(&mut self, id: TxnId, uid: SubscriberUid) -> UdrResult<()> {
        if self.read(id, uid)?.is_none() {
            return Err(UdrError::NotFound(uid));
        }
        self.stage(id, uid, None)
    }

    /// Commit: atomically publish all staged writes with the next LSN.
    /// Returns `None` for read-only transactions (no log record produced).
    pub fn commit(&mut self, id: TxnId, now: SimTime) -> UdrResult<Option<CommitRecord>> {
        let mut writes = self.active.remove(&id).ok_or(UdrError::TxnInvalid)?.writes;
        if writes.is_empty() {
            self.return_writes(writes);
            return Ok(None);
        }
        let lsn = self.log.last_lsn().next();
        // In ascending uid order: one change is held inline, and `drain`
        // reports its exact length, so a longer list is allocated once.
        let changes = writes
            .drain(..)
            .map(|(uid, entry)| {
                self.locks.remove(&uid);
                self.committed.upsert(uid, entry.clone(), lsn, now, self.se);
                Change { uid, entry }
            })
            .collect();
        self.return_writes(writes);
        let record = CommitRecord {
            lsn,
            committed_at: now,
            written_by: self.se,
            changes,
        };
        self.log.append(record.clone());
        self.commit_count += 1;
        Ok(Some(record))
    }

    /// Abort: discard staged writes and release locks.
    pub fn abort(&mut self, id: TxnId) {
        if let Some(txn) = self.active.remove(&id) {
            for (uid, _) in &txn.writes {
                self.locks.remove(uid);
            }
            self.return_writes(txn.writes);
        }
    }

    /// Apply a replicated commit record (slave path). Records must arrive in
    /// exact LSN order — the §3.2 serialization-order guarantee.
    pub fn apply_replicated(&mut self, record: &CommitRecord) -> UdrResult<()> {
        let expected = self.log.last_lsn().next();
        if record.lsn != expected {
            return Err(UdrError::TxnAborted {
                reason: "replication LSN gap",
            });
        }
        for change in record.changes.iter() {
            self.committed.upsert(
                change.uid,
                change.entry.clone(),
                record.lsn,
                record.committed_at,
                record.written_by,
            );
        }
        self.log.append(record.clone());
        self.commit_count += 1;
        Ok(())
    }

    /// The replica's current LSN (last applied/committed).
    pub fn last_lsn(&self) -> Lsn {
        self.log.last_lsn()
    }

    /// The commit log (replication stream source).
    pub fn log(&self) -> &CommitLog {
        &self.log
    }

    /// Drop the log's records through `upto`, once no reader can ask for
    /// them: the deployment passes the position of the slowest up channel
    /// or copy that may still read this log
    /// ([`CommitLog::truncate_through`]).
    pub fn truncate_log(&mut self, upto: Lsn) {
        self.log.truncate_through(upto);
    }

    /// Take a snapshot of the committed state: one vector of shared
    /// payload handles, sorted by uid.
    pub fn snapshot(&self) -> EngineSnapshot {
        let records = self.committed.iter().map(|v| (v.uid, v.to_version()));
        EngineSnapshot::in_uid_order(records.collect(), self.log.last_lsn())
    }

    /// Save the committed state as this replica's disk image, which its
    /// store keeps ([`RecordStore::save`]): only the slots written since
    /// the last save are visited, and nothing is allocated. Returns the
    /// number of slots written.
    pub(crate) fn save(&mut self) -> usize {
        self.committed.save(self.log.last_lsn())
    }

    /// The LSN of the image the last [`Engine::save`] took, or `None` if
    /// this engine was never saved.
    pub(crate) fn image_lsn(&self) -> Option<Lsn> {
        self.committed.image_lsn()
    }

    /// The image the last [`Engine::save`] took, moved out of the engine
    /// as it goes, as a snapshot in uid order; `None` if this engine was
    /// never saved. The disk keeps it.
    pub(crate) fn into_saved_image(self) -> Option<EngineSnapshot> {
        let (last_lsn, records) = self.committed.into_image()?;
        Some(EngineSnapshot::in_uid_order(records, last_lsn))
    }

    /// Number of live (non-tombstone) records.
    pub fn live_records(&self) -> usize {
        self.committed.live_records()
    }

    /// Approximate RAM footprint of committed data, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.committed.approx_bytes()
    }

    /// Number of in-flight transactions (diagnostics).
    pub fn active_txns(&self) -> usize {
        self.active.len()
    }

    /// Iterate committed records as borrowed views, in stable slot order.
    pub fn iter_committed(&self) -> impl Iterator<Item = RecordView<'_>> {
        self.committed.iter()
    }

    /// Direct access to the columnar committed-record store.
    pub fn store(&self) -> &RecordStore {
        &self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::attrs::{AttrId, AttrValue};

    fn entry(msisdn: &str) -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Msisdn, msisdn);
        e
    }

    fn uid(n: u64) -> SubscriberUid {
        SubscriberUid(n)
    }

    #[test]
    fn insert_commit_read() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(1), entry("111")).unwrap();
        let rec = eng.commit(t, SimTime(5)).unwrap().unwrap();
        assert_eq!(rec.lsn, Lsn(1));
        assert_eq!(rec.len(), 1);
        let got = eng.read_committed(uid(1)).unwrap();
        assert_eq!(
            got.get(AttrId::Msisdn).and_then(AttrValue::as_str),
            Some("111")
        );
    }

    #[test]
    fn insert_duplicate_fails() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(1), entry("111")).unwrap();
        eng.commit(t, SimTime(0)).unwrap();
        let t2 = eng.begin(IsolationLevel::ReadCommitted);
        assert_eq!(
            eng.insert(t2, uid(1), entry("222")),
            Err(UdrError::AlreadyExists(uid(1)))
        );
    }

    #[test]
    fn read_committed_does_not_see_other_txns_writes() {
        let mut eng = Engine::new(SeId(0));
        let t0 = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t0, uid(1), entry("old")).unwrap();
        eng.commit(t0, SimTime(0)).unwrap();

        let writer = eng.begin(IsolationLevel::ReadCommitted);
        eng.put(writer, uid(1), entry("new")).unwrap();

        // A concurrent READ_COMMITTED reader sees the old committed value and
        // is not blocked by the writer's lock (§3.2 decision 2).
        let reader = eng.begin(IsolationLevel::ReadCommitted);
        let seen = eng.read(reader, uid(1)).unwrap().unwrap();
        assert_eq!(
            seen.get(AttrId::Msisdn).and_then(AttrValue::as_str),
            Some("old")
        );

        eng.commit(writer, SimTime(1)).unwrap();
        let seen = eng.read(reader, uid(1)).unwrap().unwrap();
        assert_eq!(
            seen.get(AttrId::Msisdn).and_then(AttrValue::as_str),
            Some("new")
        );
    }

    #[test]
    fn read_your_own_writes() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(1), entry("mine")).unwrap();
        let seen = eng.read(t, uid(1)).unwrap().unwrap();
        assert_eq!(
            seen.get(AttrId::Msisdn).and_then(AttrValue::as_str),
            Some("mine")
        );
    }

    #[test]
    fn write_conflict_fails_fast() {
        let mut eng = Engine::new(SeId(0));
        let t0 = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t0, uid(1), entry("x")).unwrap();
        eng.commit(t0, SimTime(0)).unwrap();

        let a = eng.begin(IsolationLevel::ReadCommitted);
        let b = eng.begin(IsolationLevel::ReadCommitted);
        eng.put(a, uid(1), entry("a")).unwrap();
        assert_eq!(
            eng.put(b, uid(1), entry("b")),
            Err(UdrError::WriteConflict(uid(1)))
        );
        assert_eq!(eng.conflict_count, 1);
        // After the holder commits, the other can retry.
        eng.commit(a, SimTime(1)).unwrap();
        eng.put(b, uid(1), entry("b")).unwrap();
        eng.commit(b, SimTime(2)).unwrap();
        let seen = eng.read_committed(uid(1)).unwrap();
        assert_eq!(
            seen.get(AttrId::Msisdn).and_then(AttrValue::as_str),
            Some("b")
        );
    }

    #[test]
    fn modify_applies_mods_and_requires_existence() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        assert_eq!(
            eng.modify(
                t,
                uid(9),
                &[AttrMod::Set(AttrId::OdbMask, AttrValue::U64(1))]
            ),
            Err(UdrError::NotFound(uid(9)))
        );
        eng.insert(t, uid(9), entry("m")).unwrap();
        eng.modify(
            t,
            uid(9),
            &[AttrMod::Set(AttrId::OdbMask, AttrValue::U64(7))],
        )
        .unwrap();
        eng.commit(t, SimTime(0)).unwrap();
        let e = eng.read_committed(uid(9)).unwrap();
        assert_eq!(e.get(AttrId::OdbMask).and_then(AttrValue::as_u64), Some(7));
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(1), entry("x")).unwrap();
        eng.commit(t, SimTime(0)).unwrap();
        let t2 = eng.begin(IsolationLevel::ReadCommitted);
        eng.delete(t2, uid(1)).unwrap();
        eng.commit(t2, SimTime(1)).unwrap();
        assert!(eng.read_committed(uid(1)).is_none());
        assert_eq!(eng.live_records(), 0);
        // The tombstone carries the delete's LSN.
        assert_eq!(eng.committed_view(uid(1)).unwrap().lsn, Lsn(2));
    }

    #[test]
    fn atomicity_all_or_nothing_on_abort() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(1), entry("a")).unwrap();
        eng.insert(t, uid(2), entry("b")).unwrap();
        eng.abort(t);
        assert!(eng.read_committed(uid(1)).is_none());
        assert!(eng.read_committed(uid(2)).is_none());
        assert_eq!(eng.active_txns(), 0);
        // Locks released.
        let t2 = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t2, uid(1), entry("c")).unwrap();
        eng.commit(t2, SimTime(0)).unwrap();
    }

    #[test]
    fn multi_record_commit_shares_one_lsn() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(1), entry("a")).unwrap();
        eng.insert(t, uid(2), entry("b")).unwrap();
        let rec = eng.commit(t, SimTime(3)).unwrap().unwrap();
        assert_eq!(rec.lsn, Lsn(1));
        assert_eq!(rec.len(), 2);
        assert_eq!(eng.committed_view(uid(1)).unwrap().lsn, Lsn(1));
        assert_eq!(eng.committed_view(uid(2)).unwrap().lsn, Lsn(1));
    }

    #[test]
    fn read_only_commit_produces_no_record() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        let _ = eng.read(t, uid(1)).unwrap();
        assert!(eng.commit(t, SimTime(0)).unwrap().is_none());
        assert_eq!(eng.last_lsn(), Lsn::ZERO);
    }

    #[test]
    fn operations_on_finished_txn_fail() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.commit(t, SimTime(0)).unwrap();
        assert_eq!(eng.read(t, uid(1)), Err(UdrError::TxnInvalid));
        assert_eq!(eng.put(t, uid(1), entry("x")), Err(UdrError::TxnInvalid));
        assert_eq!(eng.commit(t, SimTime(0)), Err(UdrError::TxnInvalid));
    }

    #[test]
    fn apply_replicated_in_order() {
        let mut master = Engine::new(SeId(0));
        let mut slave = Engine::new(SeId(1));
        let mut recs = Vec::new();
        for i in 0..3u64 {
            let t = master.begin(IsolationLevel::ReadCommitted);
            master.insert(t, uid(i), entry(&format!("{i}"))).unwrap();
            recs.push(master.commit(t, SimTime(i)).unwrap().unwrap());
        }
        for r in &recs {
            slave.apply_replicated(r).unwrap();
        }
        assert_eq!(slave.last_lsn(), Lsn(3));
        for i in 0..3u64 {
            assert_eq!(slave.read_committed(uid(i)), master.read_committed(uid(i)));
        }
        // The slave records the master as the writer.
        assert_eq!(slave.committed_view(uid(0)).unwrap().written_by, SeId(0));
    }

    #[test]
    fn apply_replicated_rejects_gaps() {
        let mut master = Engine::new(SeId(0));
        let mut slave = Engine::new(SeId(1));
        let mut recs = Vec::new();
        for i in 0..2u64 {
            let t = master.begin(IsolationLevel::ReadCommitted);
            master.insert(t, uid(i), entry("x")).unwrap();
            recs.push(master.commit(t, SimTime(0)).unwrap().unwrap());
        }
        assert!(slave.apply_replicated(&recs[1]).is_err());
        slave.apply_replicated(&recs[0]).unwrap();
        slave.apply_replicated(&recs[1]).unwrap();
    }

    #[test]
    fn snapshot_and_restore_lose_post_snapshot_commits() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(1), entry("durable")).unwrap();
        eng.commit(t, SimTime(0)).unwrap();

        let snap = eng.snapshot();

        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(2), entry("volatile")).unwrap();
        eng.commit(t, SimTime(1)).unwrap();

        // Crash: rebuild from the snapshot.
        let restored = Engine::from_snapshot(SeId(0), snap);
        assert!(restored.read_committed(uid(1)).is_some());
        assert!(restored.read_committed(uid(2)).is_none());
        assert_eq!(restored.last_lsn(), Lsn(1));
    }

    #[test]
    fn restored_engine_continues_lsn_sequence() {
        let mut eng = Engine::new(SeId(0));
        for i in 0..5u64 {
            let t = eng.begin(IsolationLevel::ReadCommitted);
            eng.put(t, uid(i), entry("v")).unwrap();
            eng.commit(t, SimTime(i)).unwrap();
        }
        let snap = eng.snapshot();
        let mut restored = Engine::from_snapshot(SeId(0), snap);
        let t = restored.begin(IsolationLevel::ReadCommitted);
        restored.put(t, uid(9), entry("post")).unwrap();
        let rec = restored.commit(t, SimTime(9)).unwrap().unwrap();
        assert_eq!(rec.lsn, Lsn(6));
    }

    /// A save writes each slot written since the previous save once,
    /// however often it was written, new slots and tombstones included,
    /// and the image it leaves is the snapshot taken at that moment,
    /// whatever is written after it.
    #[test]
    fn a_save_writes_the_distinct_slots_written_since_the_last() {
        assert_eq!(Engine::new(SeId(0)).into_saved_image(), None);
        let mut eng = Engine::new(SeId(0));
        assert_eq!(eng.image_lsn(), None);
        assert_eq!(eng.save(), 0, "an empty engine");
        assert_eq!(eng.image_lsn(), Some(Lsn::ZERO), "an empty image is one");

        let mut written = std::collections::BTreeSet::new();
        let mut at_save = eng.snapshot();
        let mut x = 7u64;
        for round in 0..7u64 {
            for i in 0..round * 5 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = uid((x >> 33) % 40);
                let t = eng.begin(IsolationLevel::ReadCommitted);
                if i % 4 == 3 && eng.read_committed(u).is_some() {
                    eng.delete(t, u).unwrap();
                } else {
                    eng.put(t, u, entry(&format!("{round}.{i}"))).unwrap();
                }
                eng.commit(t, SimTime(round * 100 + i)).unwrap();
                written.insert(u);
            }
            if round == 6 {
                break; // written after the last save
            }
            assert_eq!(eng.save(), written.len(), "round {round}");
            written.clear();
            assert_eq!(eng.image_lsn(), Some(eng.last_lsn()));
            at_save = eng.snapshot();
        }
        assert_ne!(eng.snapshot(), at_save);
        assert_eq!(eng.into_saved_image(), Some(at_save));
    }

    #[test]
    fn accounting() {
        let mut eng = Engine::new(SeId(0));
        let t = eng.begin(IsolationLevel::ReadCommitted);
        eng.insert(t, uid(1), entry("1234567890")).unwrap();
        eng.commit(t, SimTime(0)).unwrap();
        assert_eq!(eng.live_records(), 1);
        assert!(eng.approx_bytes() > 0);
        assert_eq!(eng.commit_count, 1);
    }
}
