//! Property tests for the storage engine invariants the paper's replication
//! design depends on (§3.2's serialization-order guarantee and §3.1's
//! snapshot durability semantics).

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};
use udr_model::config::IsolationLevel;
use udr_model::ids::{SeId, SubscriberUid};
use udr_model::time::SimTime;
use udr_storage::store::{decode_entry, encode_entry};
use udr_storage::{Change, CommitLog, CommitRecord, Engine, EngineSnapshot, Lsn};

/// One scripted engine operation.
#[derive(Debug, Clone)]
enum Op {
    Put { uid: u64, val: u64 },
    Modify { uid: u64, odb: u64 },
    Delete { uid: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..24, any::<u64>()).prop_map(|(uid, val)| Op::Put { uid, val }),
        (0u64..24, any::<u64>()).prop_map(|(uid, odb)| Op::Modify { uid, odb }),
        (0u64..24).prop_map(|uid| Op::Delete { uid }),
    ]
}

fn entry_with(val: u64) -> Entry {
    let mut e = Entry::new();
    e.set(AttrId::OdbMask, val);
    e
}

/// Run each op as its own committed transaction; ops that legitimately fail
/// (modify/delete of absent records) are skipped. Returns the commit records.
fn run_script(engine: &mut Engine, ops: &[Op]) -> Vec<CommitRecord> {
    let mut records = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let txn = engine.begin(IsolationLevel::ReadCommitted);
        let staged = match op {
            Op::Put { uid, val } => engine.put(txn, SubscriberUid(*uid), entry_with(*val)),
            Op::Modify { uid, odb } => engine.modify(
                txn,
                SubscriberUid(*uid),
                &[udr_model::attrs::AttrMod::Set(
                    AttrId::OdbMask,
                    udr_model::attrs::AttrValue::U64(*odb),
                )],
            ),
            Op::Delete { uid } => engine.delete(txn, SubscriberUid(*uid)),
        };
        match staged {
            Ok(()) => {
                if let Some(rec) = engine.commit(txn, SimTime(i as u64)).unwrap() {
                    records.push(rec);
                }
            }
            Err(_) => engine.abort(txn),
        }
    }
    records
}

fn committed_state(engine: &Engine) -> Vec<(u64, Option<Entry>)> {
    let mut v: Vec<_> = engine
        .iter_committed()
        .map(|view| (view.uid.raw(), view.entry.cloned()))
        .collect();
    v.sort_by_key(|(uid, _)| *uid);
    v
}

proptest! {
    /// Replaying a master's log on a fresh slave produces an identical
    /// committed state — the §3.2 sync guarantee.
    #[test]
    fn slave_replay_converges(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut master = Engine::new(SeId(0));
        let records = run_script(&mut master, &ops);

        let mut slave = Engine::new(SeId(1));
        for rec in &records {
            slave.apply_replicated(rec).unwrap();
        }
        prop_assert_eq!(committed_state(&master), committed_state(&slave));
        prop_assert_eq!(master.last_lsn(), slave.last_lsn());
    }

    /// Restoring from a snapshot reproduces exactly the state at snapshot
    /// time; later commits are lost (bounded by the snapshot interval).
    #[test]
    fn snapshot_restore_equals_prefix(
        before in prop::collection::vec(op_strategy(), 0..60),
        after in prop::collection::vec(op_strategy(), 0..60),
    ) {
        let mut engine = Engine::new(SeId(0));
        run_script(&mut engine, &before);
        let snap = engine.snapshot();
        let state_at_snap = committed_state(&engine);
        run_script(&mut engine, &after);

        let restored = Engine::from_snapshot(SeId(0), snap);
        prop_assert_eq!(committed_state(&restored), state_at_snap);
    }

    /// A slave that lost the prefix cannot apply a later record: replication
    /// never reorders or skips (no gaps, ever).
    #[test]
    fn replication_rejects_any_gap(ops in prop::collection::vec(op_strategy(), 2..60)) {
        let mut master = Engine::new(SeId(0));
        let records = run_script(&mut master, &ops);
        prop_assume!(records.len() >= 2);

        let mut slave = Engine::new(SeId(1));
        // Skip the first record: every subsequent apply must fail.
        for rec in &records[1..] {
            prop_assert!(slave.apply_replicated(rec).is_err());
        }
        prop_assert_eq!(slave.last_lsn().raw(), 0);
    }

    /// Commit LSNs are dense (1..=n) no matter the op mix: the log carries
    /// every committed transaction exactly once.
    #[test]
    fn lsns_are_dense(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut engine = Engine::new(SeId(0));
        let records = run_script(&mut engine, &ops);
        for (i, rec) in records.iter().enumerate() {
            prop_assert_eq!(rec.lsn.raw(), i as u64 + 1);
        }
        prop_assert_eq!(engine.last_lsn().raw(), records.len() as u64);
    }

    /// Aborted transactions leave no trace: running a script interleaved
    /// with aborted "chaff" transactions yields the same state as the script
    /// alone.
    #[test]
    fn aborts_leave_no_trace(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut clean = Engine::new(SeId(0));
        run_script(&mut clean, &ops);

        let mut noisy = Engine::new(SeId(0));
        for (i, op) in ops.iter().enumerate() {
            // Chaff transaction touching unrelated uids, then aborted.
            let chaff = noisy.begin(IsolationLevel::ReadCommitted);
            let _ = noisy.put(chaff, SubscriberUid(1000 + i as u64), entry_with(0));
            noisy.abort(chaff);

            let txn = noisy.begin(IsolationLevel::ReadCommitted);
            let staged = match op {
                Op::Put { uid, val } => noisy.put(txn, SubscriberUid(*uid), entry_with(*val)),
                Op::Modify { uid, odb } => noisy.modify(
                    txn,
                    SubscriberUid(*uid),
                    &[udr_model::attrs::AttrMod::Set(
                        AttrId::OdbMask,
                        udr_model::attrs::AttrValue::U64(*odb),
                    )],
                ),
                Op::Delete { uid } => noisy.delete(txn, SubscriberUid(*uid)),
            };
            match staged {
                Ok(()) => {
                    noisy.commit(txn, SimTime(i as u64)).unwrap();
                }
                Err(_) => noisy.abort(txn),
            }
        }
        prop_assert_eq!(committed_state(&clean), committed_state(&noisy));
    }
}

fn attr_value_strategy() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        "[ -~]{0,24}".prop_map(AttrValue::from),
        any::<u64>().prop_map(AttrValue::U64),
        any::<bool>().prop_map(AttrValue::Bool),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(AttrValue::from),
        prop::collection::vec("[a-z0-9]{0,12}", 0..4).prop_map(AttrValue::from),
    ]
}

fn entry_strategy() -> impl Strategy<Value = Entry> {
    prop::collection::vec((0usize..AttrId::ALL.len(), attr_value_strategy()), 0..12).prop_map(
        |attrs| {
            let mut e = Entry::new();
            for (idx, value) in attrs {
                e.set(AttrId::ALL[idx], value);
            }
            e
        },
    )
}

proptest! {
    /// The TLV entry codec round-trips every value shape, and equal
    /// entries always serialize to identical bytes (the property the
    /// store-image digest and zero-copy shipping depend on).
    #[test]
    fn entry_codec_round_trips(entry in entry_strategy()) {
        let mut buf = bytes::BytesMut::new();
        encode_entry(&entry, &mut buf);
        let encoded = buf.freeze();
        let mut reader = udr_storage::store::Reader::new(&encoded);
        let decoded = decode_entry(&mut reader).expect("decode own encoding");
        prop_assert_eq!(&decoded, &entry);

        let mut again = bytes::BytesMut::new();
        encode_entry(&decoded, &mut again);
        prop_assert_eq!(&encoded[..], &again.freeze()[..], "codec must be deterministic");
    }

    /// Freezing an engine's store into a byte image and decoding it back
    /// reproduces exactly the committed state — metadata, tombstones,
    /// payloads; byte-for-byte equivalence between the SoA store and its
    /// contiguous image.
    #[test]
    fn store_image_round_trips_committed_state(
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let mut engine = Engine::new(SeId(0));
        run_script(&mut engine, &ops);

        let image = engine.store().freeze_image();
        prop_assert_eq!(image.len(), engine.store().len());
        for (i, view) in engine.iter_committed().enumerate() {
            let (uid, version) = image.decode_record(i).expect("slot decodes");
            prop_assert_eq!(uid, view.uid);
            prop_assert_eq!(version.lsn, view.lsn);
            prop_assert_eq!(version.committed_at, view.committed_at);
            prop_assert_eq!(version.written_by, view.written_by);
            prop_assert_eq!(version.entry.as_ref(), view.entry);
        }
    }
}

// -- value semantics under sharing ---------------------------------------------
// Versions of a record share attribute values, and a commit's change list is
// shared by every log and channel it reaches. The model below shares nothing:
// it owns every string, octet and list and copies all of them on every write.
// Whatever the engine hands out must stay equal to the model's copy taken at
// that moment, whatever is written afterwards.

/// An attribute value that owns its buffers.
#[derive(Debug, Clone, PartialEq)]
enum OwnedValue {
    Str(String),
    U64(u64),
    Bool(bool),
    Bytes(Vec<u8>),
    StrList(Vec<String>),
}

type OwnedEntry = BTreeMap<AttrId, OwnedValue>;
/// Committed state: uid → entry, `None` a tombstone.
type OwnedState = BTreeMap<u64, Option<OwnedEntry>>;

fn owned_value(v: &AttrValue) -> OwnedValue {
    match v {
        AttrValue::Str(s) => OwnedValue::Str(s.to_string()),
        AttrValue::U64(n) => OwnedValue::U64(*n),
        AttrValue::Bool(b) => OwnedValue::Bool(*b),
        AttrValue::Bytes(b) => OwnedValue::Bytes(b.to_vec()),
        AttrValue::StrList(l) => OwnedValue::StrList(l.iter().map(|s| s.to_string()).collect()),
    }
}

fn owned_entry(e: &Entry) -> OwnedEntry {
    e.iter().map(|(id, v)| (*id, owned_value(v))).collect()
}

fn owned_changes(record: &CommitRecord) -> Vec<(u64, Option<OwnedEntry>)> {
    record
        .changes
        .iter()
        .map(|c| (c.uid.raw(), c.entry.as_ref().map(owned_entry)))
        .collect()
}

fn owned_snapshot(snapshot: &EngineSnapshot) -> OwnedState {
    snapshot
        .records
        .iter()
        .map(|(uid, v)| (uid.raw(), v.entry.as_ref().map(owned_entry)))
        .collect()
}

fn owned_engine(engine: &Engine) -> OwnedState {
    engine
        .iter_committed()
        .map(|view| (view.uid.raw(), view.entry.map(owned_entry)))
        .collect()
}

/// One write inside a transaction.
#[derive(Debug, Clone)]
enum Write {
    Put(u64, Entry),
    Modify(u64, Vec<AttrMod>),
    Delete(u64),
}

impl Write {
    fn uid(&self) -> u64 {
        match self {
            Write::Put(uid, _) | Write::Modify(uid, _) | Write::Delete(uid) => *uid,
        }
    }

    /// The same write to another record.
    fn to(&self, uid: u64) -> Write {
        match self {
            Write::Put(_, e) => Write::Put(uid, e.clone()),
            Write::Modify(_, mods) => Write::Modify(uid, mods.clone()),
            Write::Delete(_) => Write::Delete(uid),
        }
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// One transaction; aborted as a whole if any write fails.
    Txn(Vec<Write>),
    /// Two transactions open at once, their writes staged alternately on
    /// disjoint records (the second's uids are shifted past the first's);
    /// the second commits first if the flag is set. The second begins
    /// while the first holds the engine's spare write set, so it stages
    /// into a vector of its own.
    Interleaved(Vec<Write>, Vec<Write>, bool),
    Snapshot,
    /// The slave applies everything committed so far.
    SlaveCatchUp,
}

fn mod_strategy() -> impl Strategy<Value = AttrMod> {
    prop_oneof![
        (0usize..AttrId::ALL.len(), attr_value_strategy())
            .prop_map(|(i, v)| AttrMod::Set(AttrId::ALL[i], v)),
        (0usize..AttrId::ALL.len()).prop_map(|i| AttrMod::Delete(AttrId::ALL[i])),
    ]
}

fn write_strategy() -> impl Strategy<Value = Write> {
    prop_oneof![
        (0u64..6, entry_strategy()).prop_map(|(uid, e)| Write::Put(uid, e)),
        // One attribute or many.
        (0u64..6, prop::collection::vec(mod_strategy(), 1..7))
            .prop_map(|(uid, mods)| Write::Modify(uid, mods)),
        (0u64..6).prop_map(Write::Delete),
    ]
}

/// Records the second of two interleaved transactions writes are shifted
/// by this much, past every uid `write_strategy` draws.
const SHIFT: u64 = 6;

fn step_strategy() -> impl Strategy<Value = Step> {
    let txn = || prop::collection::vec(write_strategy(), 1..4);
    prop_oneof![
        txn().prop_map(Step::Txn),
        // Every write of the transaction to one record.
        (0u64..6, prop::collection::vec(write_strategy(), 2..5))
            .prop_map(|(uid, writes)| Step::Txn(writes.iter().map(|w| w.to(uid)).collect())),
        (txn(), txn(), any::<bool>()).prop_map(|(a, b, flip)| {
            let b = b.iter().map(|w| w.to(w.uid() + SHIFT)).collect();
            Step::Interleaved(a, b, flip)
        }),
        Just(Step::Snapshot),
        Just(Step::SlaveCatchUp),
    ]
}

/// Stage one write on the engine; `Err` aborts the transaction.
fn stage(engine: &mut Engine, txn: udr_storage::TxnId, w: &Write) -> Result<(), ()> {
    match w {
        Write::Put(uid, e) => engine.put(txn, SubscriberUid(*uid), e.clone()),
        Write::Modify(uid, mods) => engine.modify(txn, SubscriberUid(*uid), mods),
        Write::Delete(uid) => engine.delete(txn, SubscriberUid(*uid)),
    }
    .map_err(|_| ())
}

/// The same write on the model, every value copied. Returns the uid
/// written, or `Err` where the engine refuses (modify or delete of a record
/// that is absent or a tombstone).
fn stage_owned(state: &mut OwnedState, w: &Write) -> Result<u64, ()> {
    match w {
        Write::Put(uid, e) => {
            state.insert(*uid, Some(owned_entry(e)));
            Ok(*uid)
        }
        Write::Modify(uid, mods) => {
            let entry = state.get_mut(uid).and_then(Option::as_mut).ok_or(())?;
            for m in mods {
                match m {
                    AttrMod::Set(id, v) => entry.insert(*id, owned_value(v)),
                    AttrMod::Delete(id) => entry.remove(id),
                };
            }
            Ok(*uid)
        }
        Write::Delete(uid) => {
            let slot = state.get_mut(uid).filter(|e| e.is_some()).ok_or(())?;
            *slot = None;
            Ok(*uid)
        }
    }
}

/// A transaction in flight beside the model of what it staged.
struct Open {
    txn: udr_storage::TxnId,
    /// The committed state with this transaction's writes applied.
    next: OwnedState,
    /// Uids written so far; `None` once a write failed.
    uids: Option<Vec<u64>>,
}

impl Open {
    fn new(txn: udr_storage::TxnId, state: &OwnedState) -> Self {
        Open {
            txn,
            next: state.clone(),
            uids: Some(Vec::new()),
        }
    }

    /// Stage `w` on the engine and the model alike, unless an earlier
    /// write failed; the engine must refuse exactly what the model does.
    fn stage(&mut self, engine: &mut Engine, w: &Write) {
        let Some(uids) = &mut self.uids else {
            return;
        };
        let model = stage_owned(&mut self.next, w);
        prop_assert_eq!(stage(engine, self.txn, w), model.map(drop));
        match model {
            Ok(uid) => uids.push(uid),
            Err(()) => self.uids = None,
        }
    }

    /// Commit, carrying the records written into `state`, or abort if a
    /// write failed.
    fn finish(
        self,
        engine: &mut Engine,
        at: SimTime,
        state: &mut OwnedState,
        records: &mut Vec<CommitRecord>,
        expected: &mut Vec<Vec<(u64, Option<OwnedEntry>)>>,
    ) {
        let Some(mut uids) = self.uids else {
            engine.abort(self.txn);
            return;
        };
        records.push(engine.commit(self.txn, at).unwrap().unwrap());
        uids.sort_unstable();
        uids.dedup();
        expected.push(uids.iter().map(|u| (*u, self.next[u].clone())).collect());
        for u in uids {
            state.insert(u, self.next[&u].clone());
        }
    }
}

fn assert_log_matches(log: &CommitLog, expected: &[Vec<(u64, Option<OwnedEntry>)>]) {
    assert_eq!(log.len(), expected.len());
    for (record, expected) in log.iter().zip(expected) {
        assert_eq!(&owned_changes(record), expected, "retained, {}", record.lsn);
    }
}

proptest! {
    /// Sharing is invisible: every snapshot, every commit record handed
    /// out and every retained log record still reads as it did when it was
    /// produced, after any sequence of later writes, and the slave's replay
    /// equals the master.
    #[test]
    fn shared_values_and_change_lists_keep_value_semantics(
        steps in prop::collection::vec(step_strategy(), 1..60),
    ) {
        let mut master = Engine::new(SeId(0));
        let mut slave = Engine::new(SeId(1));
        let mut state = OwnedState::new();
        // What the engine handed out, beside the model's copy at that time.
        let mut records: Vec<CommitRecord> = Vec::new();
        let mut expected_records = Vec::new();
        let mut snapshots: Vec<(EngineSnapshot, OwnedState)> = Vec::new();
        let mut slave_has = 0;

        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Txn(writes) => {
                    let txn = master.begin(IsolationLevel::ReadCommitted);
                    let mut open = Open::new(txn, &state);
                    for w in writes {
                        open.stage(&mut master, w);
                    }
                    open.finish(&mut master, SimTime(i as u64), &mut state, &mut records, &mut expected_records);
                }
                Step::Interleaved(a, b, b_first) => {
                    let mut first = Open::new(master.begin(IsolationLevel::ReadCommitted), &state);
                    let mut second = Open::new(master.begin(IsolationLevel::ReadCommitted), &state);
                    for k in 0..a.len().max(b.len()) {
                        if let Some(w) = a.get(k) {
                            first.stage(&mut master, w);
                        }
                        if let Some(w) = b.get(k) {
                            second.stage(&mut master, w);
                        }
                    }
                    let at = SimTime(i as u64);
                    let (one, two) = if *b_first { (second, first) } else { (first, second) };
                    one.finish(&mut master, at, &mut state, &mut records, &mut expected_records);
                    two.finish(&mut master, at, &mut state, &mut records, &mut expected_records);
                }
                Step::Snapshot => snapshots.push((master.snapshot(), state.clone())),
                Step::SlaveCatchUp => {
                    for record in &records[slave_has..] {
                        slave.apply_replicated(record).unwrap();
                    }
                    slave_has = records.len();
                }
            }
            prop_assert_eq!(&owned_engine(&master), &state, "after step {}", i);
        }
        for record in &records[slave_has..] {
            slave.apply_replicated(record).unwrap();
        }

        for (record, expected) in records.iter().zip(&expected_records) {
            prop_assert_eq!(&owned_changes(record), expected, "handed out, {}", record.lsn);
            prop_assert!(
                record.changes.windows(2).all(|w| w[0].uid < w[1].uid),
                "{}: changes not in strictly ascending uid order",
                record.lsn
            );
        }
        assert_log_matches(master.log(), &expected_records);
        assert_log_matches(slave.log(), &expected_records);
        for (n, (snapshot, expected)) in snapshots.iter().enumerate() {
            prop_assert_eq!(&owned_snapshot(snapshot), expected, "snapshot {}", n);
        }
        prop_assert_eq!(committed_state(&master), committed_state(&slave));
        prop_assert_eq!(&owned_engine(&slave), &state);
    }
}

// -- one disk image, refreshed in place ----------------------------------------
// The simulated disk keeps one snapshot per replica and brings it up to date
// in place. Whatever the image held before, and whichever engine refreshed it
// last, a refresh must leave exactly what a snapshot built from scratch would
// hold, and a copy of the image taken earlier must not see the refresh.

#[derive(Debug, Clone)]
enum ImageStep {
    /// One write on the master, committed alone, and the same write on the
    /// twin. Uids are drawn at random, so records arrive out of uid order,
    /// and a put on a deleted record re-adds it.
    Write(Write),
    /// A put of the record's own committed entry, if it has one, on master
    /// and twin: a new LSN and commit stamp over the same payload handle.
    Rewrite(u64),
    /// The slave applies everything committed so far.
    SlaveCatchUp,
    /// The slave is rebuilt from a fresh master snapshot, its slots in uid
    /// order where the master's are in arrival order.
    Reseed,
    /// Refresh the image from the master.
    FromMaster,
    /// Refresh the image from the slave.
    FromSlave,
    /// Refresh the image from the twin.
    FromTwin,
}

/// Uids the image steps write to.
const IMAGE_UIDS: u64 = 40;

fn image_step_strategy() -> impl Strategy<Value = ImageStep> {
    prop_oneof![
        (0..IMAGE_UIDS, entry_strategy()).prop_map(|(uid, e)| ImageStep::Write(Write::Put(uid, e))),
        (0..IMAGE_UIDS, prop::collection::vec(mod_strategy(), 1..3))
            .prop_map(|(uid, mods)| ImageStep::Write(Write::Modify(uid, mods))),
        (0..IMAGE_UIDS).prop_map(|uid| ImageStep::Write(Write::Delete(uid))),
        (0..IMAGE_UIDS).prop_map(ImageStep::Rewrite),
        Just(ImageStep::SlaveCatchUp),
        Just(ImageStep::Reseed),
        Just(ImageStep::FromMaster),
        Just(ImageStep::FromSlave),
        Just(ImageStep::FromTwin),
    ]
}

/// The twin's version of a master write: a put carries one more attribute,
/// so the twin's records match the master's in every field but the payload.
fn twin_write(w: &Write) -> Write {
    match w {
        Write::Put(uid, e) => {
            let mut e = e.clone();
            e.set(AttrId::ScscfName, "twin");
            Write::Put(*uid, e)
        }
        other => other.clone(),
    }
}

/// Stage `w` on `engine` as a transaction of its own and commit it, or
/// abort it where the engine refuses the write.
fn commit_alone(engine: &mut Engine, w: &Write, at: SimTime) {
    let txn = engine.begin(IsolationLevel::ReadCommitted);
    match stage(engine, txn, w) {
        Ok(()) => assert!(engine.commit(txn, at).unwrap().is_some()),
        Err(()) => engine.abort(txn),
    }
}

/// A put of `uid`'s own committed entry, if it has one.
fn rewrite(engine: &mut Engine, uid: u64, at: SimTime) {
    if let Some(entry) = engine.read_committed(SubscriberUid(uid)) {
        commit_alone(engine, &Write::Put(uid, entry), at);
    }
}

/// Everything an image holds, every value copied: per record its uid, LSN,
/// commit stamp, writer and entry.
type OwnedImage = (u64, Vec<(u64, u64, u64, u32, Option<OwnedEntry>)>);

fn owned_image(image: &EngineSnapshot) -> OwnedImage {
    let records = image
        .records
        .iter()
        .map(|(uid, v)| {
            (
                uid.raw(),
                v.lsn.raw(),
                v.committed_at.0,
                v.written_by.0,
                v.entry.as_ref().map(owned_entry),
            )
        })
        .collect();
    (image.last_lsn.raw(), records)
}

/// `engine`'s committed state as a snapshot should hold it, built without
/// the engine's snapshot code: every slot, in uid order.
fn reference_image(engine: &Engine) -> OwnedImage {
    let mut records: Vec<_> = engine
        .iter_committed()
        .map(|view| {
            (
                view.uid.raw(),
                view.lsn.raw(),
                view.committed_at.0,
                view.written_by.0,
                view.entry.map(owned_entry),
            )
        })
        .collect();
    records.sort_by_key(|r| r.0);
    (engine.last_lsn().raw(), records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A refresh in place equals a snapshot built from scratch of the
    /// engine it reads, after any writes, slave applies and reseeds, and
    /// after a refresh from another engine, including a twin whose records
    /// differ from the master's in the payload alone; a copy taken before a
    /// refresh keeps what it held.
    #[test]
    fn a_refreshed_image_equals_a_fresh_snapshot(
        steps in prop::collection::vec(image_step_strategy(), 1..100),
    ) {
        let mut master = Engine::new(SeId(0));
        let mut twin = Engine::new(SeId(0));
        let mut slave = Engine::new(SeId(1));
        let mut image = EngineSnapshot::empty();
        let mut copies: Vec<(EngineSnapshot, OwnedImage)> = Vec::new();

        for (i, step) in steps.iter().enumerate() {
            let at = SimTime(i as u64);
            let source = match step {
                ImageStep::Write(w) => {
                    commit_alone(&mut master, w, at);
                    commit_alone(&mut twin, &twin_write(w), at);
                    prop_assert_eq!(master.last_lsn(), twin.last_lsn());
                    continue;
                }
                ImageStep::Rewrite(uid) => {
                    rewrite(&mut master, *uid, at);
                    rewrite(&mut twin, *uid, at);
                    continue;
                }
                ImageStep::SlaveCatchUp => {
                    let applied = slave.last_lsn();
                    for record in master.log().iter().filter(|r| r.lsn > applied) {
                        slave.apply_replicated(record).unwrap();
                    }
                    continue;
                }
                ImageStep::Reseed => {
                    slave = Engine::from_snapshot(SeId(1), master.snapshot());
                    continue;
                }
                ImageStep::FromMaster => &master,
                ImageStep::FromSlave => &slave,
                ImageStep::FromTwin => &twin,
            };
            copies.push((image.clone(), owned_image(&image)));
            source.snapshot_into(&mut image);
            prop_assert_eq!(owned_image(&image), reference_image(source), "step {}: {:?}", i, step);
            prop_assert_eq!(&image, &source.snapshot());
        }
        for (n, (copy, held)) in copies.iter().enumerate() {
            prop_assert_eq!(&owned_image(copy), held, "copy {}", n);
        }
    }
}

// --- CommitLog against a deque model ----------------------------------------

/// Records per segment of `CommitLog`'s storage (a private constant of
/// `log.rs`; keep the two equal so the draws below cross its boundaries).
const LOG_SEGMENT: u64 = 4096;

/// One step of the log model test: append `n` records, or truncate
/// through `base - 1 + delta`, where `base` is the oldest retained LSN
/// (the next one when the log is empty) and `delta` may reach below it.
#[derive(Debug, Clone, Copy)]
enum LogStep {
    Append(u64),
    Truncate(i64),
}

fn log_step_strategy() -> impl Strategy<Value = LogStep> {
    let s = LOG_SEGMENT;
    let si = s as i64;
    prop_oneof![
        (1u64..40).prop_map(LogStep::Append),
        proptest::sample::select(vec![s - 1, s, s + 1, 2 * s + 3]).prop_map(LogStep::Append),
        // Below the first retained record, inside the first segment, or
        // one side or the other of a segment boundary.
        (-3i64..60).prop_map(LogStep::Truncate),
        proptest::sample::select(vec![si - 1, si, si + 1, 2 * si, 2 * si + 1])
            .prop_map(LogStep::Truncate),
        // Far past the last record: everything goes.
        (3 * si..4 * si).prop_map(LogStep::Truncate),
    ]
}

fn log_record(lsn: u64) -> CommitRecord {
    CommitRecord {
        lsn: Lsn(lsn),
        committed_at: SimTime(lsn),
        written_by: SeId(0),
        changes: Change {
            uid: SubscriberUid(lsn),
            entry: None,
        }
        .into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `CommitLog` answers every query the way a deque of its retained
    /// LSNs does, through appends and truncations below its first record,
    /// inside its first segment, across segment boundaries, to empty and
    /// past its last record; a log restored at `start` behaves the same.
    #[test]
    fn the_commit_log_matches_a_deque_model(
        start in prop_oneof![Just(0u64), 1u64..10_000],
        steps in prop::collection::vec(log_step_strategy(), 1..24),
    ) {
        let mut log = CommitLog::starting_after(Lsn(start));
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut last = start;
        for (i, step) in steps.into_iter().enumerate() {
            let base = model.front().copied().unwrap_or(last + 1);
            match step {
                LogStep::Append(n) => {
                    for lsn in last + 1..=last + n {
                        log.append(log_record(lsn));
                        model.push_back(lsn);
                    }
                    last += n;
                }
                LogStep::Truncate(delta) => {
                    let upto = (base as i64 - 1 + delta).max(0) as u64;
                    log.truncate_through(Lsn(upto));
                    while model.front().is_some_and(|&lsn| lsn <= upto) {
                        model.pop_front();
                    }
                }
            }

            prop_assert_eq!(log.last_lsn(), Lsn(last), "step {}: {:?}", i, step);
            prop_assert_eq!(log.len(), model.len());
            prop_assert_eq!(log.is_empty(), model.is_empty());
            prop_assert_eq!(log.first_retained(), model.front().map(|&lsn| Lsn(lsn)));
            prop_assert!(log.iter().map(|r| r.lsn.raw()).eq(model.iter().copied()));
            let first = model.front().copied().unwrap_or(last + 1);
            for probe in [0, first.saturating_sub(1), first, first + 1, first + LOG_SEGMENT, last, last + 1] {
                prop_assert_eq!(
                    log.get(Lsn(probe)).map(|r| r.lsn.raw()),
                    model.contains(&probe).then_some(probe),
                    "get({})", probe
                );
                // `iter` was compared whole above: a suffix is right when
                // it starts and ends where the model's does.
                let above = model.iter().filter(|&&lsn| lsn > probe);
                prop_assert_eq!(
                    log.since(Lsn(probe)).next().map(|r| r.lsn.raw()),
                    above.clone().next().copied(),
                    "since({})", probe
                );
                prop_assert_eq!(log.since(Lsn(probe)).count(), above.count(), "since({})", probe);
            }
        }
    }
}
