//! Property tests for the storage engine invariants the paper's replication
//! design depends on (§3.2's serialization-order guarantee and §3.1's
//! snapshot durability semantics).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;

use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};
use udr_model::config::{DurabilityMode, IsolationLevel};
use udr_model::ids::{PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr_model::time::SimTime;
use udr_storage::{
    Change, CommitLog, CommitRecord, Engine, EngineSnapshot, Lsn, RecordStore, RecordVersion,
    StorageElement,
};

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

// -- disk images: a saved-version column of each store --------------------------
// A storage element keeps the disk image of each copy it hosts in that copy's
// store, and puts it on the disk only when the copy goes: a crash, an unload,
// a seed or an empty copy over it. The model keeps an owned copy of each
// partition at its last save, every value copied; whatever happens to a copy
// afterwards, a restore must bring exactly that back.

/// Partitions the storage element hosts.
const SE_PARTITIONS: u32 = 2;

#[derive(Debug, Clone)]
enum SeStep {
    /// One write on the element's copy of a partition, committed alone as
    /// its master; refused while the element is down or hosts no copy.
    Commit(u32, Write),
    /// A replicated record of one change at the copy's next LSN: a put, or
    /// a delete when `None`.
    Apply(u32, u64, Option<Entry>),
    /// One write on the peer's copy of a partition.
    PeerWrite(u32, Write),
    /// Save every copy the element hosts (`force_snapshot`).
    Save,
    Crash,
    Restore,
    /// Seed the element's copy from the peer's snapshot, over the copy it
    /// hosts, if any.
    Seed(u32),
    /// Host an empty copy, over the copy hosted, if any.
    Add(u32),
    Unload(u32),
    Release(u32),
}

fn se_step_strategy() -> impl Strategy<Value = SeStep> {
    let p = || 0..SE_PARTITIONS;
    // Writes spread over twice the uids `write_strategy` draws.
    let write = || (0u64..2 * SHIFT, write_strategy()).prop_map(|(uid, w)| w.to(uid));
    prop_oneof![
        (p(), write()).prop_map(|(p, w)| SeStep::Commit(p, w)),
        (p(), write()).prop_map(|(p, w)| SeStep::Commit(p, w)),
        (p(), 0u64..2 * SHIFT, prop::option::of(entry_strategy()))
            .prop_map(|(p, uid, e)| SeStep::Apply(p, uid, e)),
        (p(), write()).prop_map(|(p, w)| SeStep::PeerWrite(p, w)),
        Just(SeStep::Save),
        Just(SeStep::Save),
        Just(SeStep::Crash),
        Just(SeStep::Restore),
        p().prop_map(SeStep::Seed),
        p().prop_map(SeStep::Add),
        p().prop_map(SeStep::Unload),
        p().prop_map(SeStep::Release),
    ]
}

/// Everything a copy holds, every value copied: its LSN, and by uid each
/// record's LSN, commit stamp, writer and entry.
type OwnedCopy = (u64, BTreeMap<u64, (u64, u64, u32, Option<OwnedEntry>)>);

fn owned_copy(engine: &Engine) -> OwnedCopy {
    let records = engine
        .iter_committed()
        .map(|v| {
            let version = (v.lsn.raw(), v.committed_at.0, v.written_by.0);
            (
                v.uid.raw(),
                (version.0, version.1, version.2, v.entry.map(owned_entry)),
            )
        })
        .collect();
    (engine.last_lsn().raw(), records)
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

/// Commit `w` on `se`'s copy of `pid` as its master; whether it committed.
fn se_commit(se: &mut StorageElement, pid: PartitionId, w: &Write, at: SimTime) -> bool {
    if se.set_role(pid, ReplicaRole::Master).is_err() {
        return false;
    }
    let Ok(txn) = se.begin(pid, IsolationLevel::ReadCommitted) else {
        return false;
    };
    let staged = match w {
        Write::Put(uid, e) => se.put(pid, txn, SubscriberUid(*uid), e.clone()),
        Write::Modify(uid, mods) => se.modify(pid, txn, SubscriberUid(*uid), mods),
        Write::Delete(uid) => se.delete(pid, txn, SubscriberUid(*uid)),
    };
    if staged.is_err() {
        se.abort(pid, txn);
        return false;
    }
    se.commit(pid, txn, at).unwrap().0.is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any restore, each partition's copy equals the model's copy at
    /// its last save, and a partition never saved, or released since, is
    /// not restored; after every step, `image_lsn` is the LSN of that
    /// save. Under sync-commit every commit and apply is a save.
    #[test]
    fn a_restore_brings_back_each_partition_as_last_saved(
        sync in any::<bool>(),
        steps in prop::collection::vec(se_step_strategy(), 1..80),
    ) {
        let mode = if sync {
            DurabilityMode::SyncCommit
        } else {
            DurabilityMode::periodic_default()
        };
        let mut se = StorageElement::new(SeId(0), SiteId(0), mode);
        let mut peers: Vec<Engine> = (0..SE_PARTITIONS).map(|_| Engine::new(SeId(1))).collect();
        let mut saved: Vec<Option<OwnedCopy>> = vec![None; SE_PARTITIONS as usize];
        let pids = || (0..SE_PARTITIONS).map(PartitionId);
        for pid in pids() {
            se.add_replica(pid, ReplicaRole::Master);
        }

        for (i, step) in steps.iter().enumerate() {
            let at = SimTime(i as u64);
            match step {
                SeStep::Commit(p, w) => {
                    let pid = PartitionId(*p);
                    if se_commit(&mut se, pid, w, at) && sync {
                        saved[pid.index()] = Some(owned_copy(se.engine(pid).unwrap()));
                    }
                }
                SeStep::Apply(p, uid, entry) => {
                    let pid = PartitionId(*p);
                    if let (true, Ok(last)) = (se.is_up(), se.last_lsn(pid)) {
                        let record = CommitRecord {
                            lsn: last.next(),
                            committed_at: at,
                            written_by: SeId(1),
                            changes: Change { uid: SubscriberUid(*uid), entry: entry.clone() }.into(),
                        };
                        se.apply_replicated(pid, &record).unwrap();
                        if sync {
                            saved[pid.index()] = Some(owned_copy(se.engine(pid).unwrap()));
                        }
                    }
                }
                SeStep::PeerWrite(p, w) => commit_alone(&mut peers[*p as usize], w, at),
                SeStep::Save => {
                    se.force_snapshot(at);
                    for pid in pids() {
                        if let Ok(engine) = se.engine(pid) {
                            saved[pid.index()] = Some(owned_copy(engine));
                        }
                    }
                }
                SeStep::Crash => se.crash(),
                SeStep::Restore => {
                    let down = !se.is_up();
                    let hosted: Vec<bool> = pids().map(|pid| se.engine(pid).is_ok()).collect();
                    let recovered = se.restore(at);
                    let expected: Vec<(PartitionId, Lsn)> = if down {
                        pids()
                            .filter_map(|pid| saved[pid.index()].as_ref().map(|c| (pid, Lsn(c.0))))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    prop_assert_eq!(&recovered, &expected, "step {}", i);
                    for pid in pids() {
                        match &saved[pid.index()] {
                            Some(copy) if down => {
                                prop_assert_eq!(&owned_copy(se.engine(pid).unwrap()), copy, "step {}: {}", i, pid);
                            }
                            _ => prop_assert_eq!(se.engine(pid).is_ok(), hosted[pid.index()]),
                        }
                    }
                }
                SeStep::Seed(p) => {
                    let snapshot = peers[*p as usize].snapshot();
                    se.seed_replica(PartitionId(*p), ReplicaRole::Slave, snapshot);
                }
                SeStep::Add(p) => se.add_replica(PartitionId(*p), ReplicaRole::Slave),
                SeStep::Unload(p) => se.unload_partition(PartitionId(*p)),
                SeStep::Release(p) => {
                    se.release_partition(PartitionId(*p));
                    saved[*p as usize] = None;
                }
            }
            for pid in pids() {
                let model = saved[pid.index()].as_ref().map(|c| Lsn(c.0));
                prop_assert_eq!(se.image_lsn(pid), model, "step {}: {:?}, {}", i, step, pid);
            }
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

// --- A record store against a map model -------------------------------------

/// One step of a record store's script.
#[derive(Debug, Clone)]
enum StoreStep {
    /// Write a live value to a uid, held or not.
    Put(u64, u64),
    /// Tombstone a uid, held or not.
    Delete(u64),
    /// Save the store as its image.
    Save,
}

/// The dense keys of a store's script run `0..STORE_KEYS`; the others are
/// `k << 16` for `k` in `1..STORE_KEYS`. Those share every low bit of
/// their hash, so they all start probing at one bucket and build a long
/// chain that the dense keys' probes run into.
const STORE_KEYS: u64 = 48;

fn store_key() -> impl Strategy<Value = u64> {
    prop_oneof![0..STORE_KEYS, (1..STORE_KEYS).prop_map(|k| k << 16)]
}

/// Every key a script may write, and a few it never does, which share low
/// bits with those it does.
fn store_probe_keys() -> impl Iterator<Item = u64> {
    (0..=STORE_KEYS).chain((1..=STORE_KEYS + 1).map(|k| k << 16))
}

fn store_step_strategy() -> impl Strategy<Value = StoreStep> {
    let put = || (store_key(), any::<u64>()).prop_map(|(uid, val)| StoreStep::Put(uid, val));
    prop_oneof![
        put(),
        put(),
        put(),
        store_key().prop_map(StoreStep::Delete),
        Just(StoreStep::Save),
    ]
}

/// Assert that `store` holds exactly what `model` does, its slots in the order
/// `slots` lists their uids.
fn assert_store_matches(store: &RecordStore, model: &BTreeMap<u64, RecordVersion>, slots: &[u64]) {
    assert_eq!(store.len(), model.len());
    let live = model.values().filter(|v| v.entry.is_some()).count();
    assert_eq!(store.live_records(), live);
    assert!(store.iter().map(|v| v.uid.raw()).eq(slots.iter().copied()));
    for uid in store_probe_keys() {
        let held = model.get(&uid);
        let got = store.get(SubscriberUid(uid));
        assert_eq!(
            got.map(|v| v.uid),
            held.map(|_| SubscriberUid(uid)),
            "get({})",
            uid
        );
        assert_eq!(got.map(|v| v.to_version()).as_ref(), held, "get({})", uid);
        let entry = held.and_then(|v| v.entry.as_ref());
        assert_eq!(store.entry(SubscriberUid(uid)), entry, "entry({})", uid);
    }
}

/// The image of `store` as a save would take it now: every slot in slot
/// order.
fn store_image(
    model: &BTreeMap<u64, RecordVersion>,
    slots: &[u64],
) -> Vec<(SubscriberUid, RecordVersion)> {
    slots
        .iter()
        .map(|&uid| (SubscriberUid(uid), model[&uid].clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `RecordStore` answers `get`, `entry`, `len`, `live_records` and
    /// `iter` as a map of uid → version does, through writes, tombstones
    /// and re-adds of keys whose probes collide, and through every doubling
    /// of its uid index: the script ends by writing each of its 95 keys,
    /// so the index doubles from 8 buckets to at least 128. A store built
    /// by `from_records` from its `iter` agrees too, and the image a save
    /// takes comes out of `into_image` in slot order.
    #[test]
    fn a_record_store_matches_a_map_model(
        steps in prop::collection::vec(store_step_strategy(), 1..200),
    ) {
        let fill = (0..STORE_KEYS).chain((1..STORE_KEYS).map(|k| k << 16));
        let steps = steps.into_iter().chain(fill.map(|uid| StoreStep::Put(uid, uid)));
        let mut store = RecordStore::new();
        let mut model: BTreeMap<u64, RecordVersion> = BTreeMap::new();
        let mut slots: Vec<u64> = Vec::new();
        let mut image = None;
        let mut written = BTreeSet::new();
        let mut lsn = 0;
        for (i, step) in steps.enumerate() {
            let (uid, entry) = match step {
                StoreStep::Put(uid, val) => (uid, Some(entry_with(val))),
                StoreStep::Delete(uid) => (uid, None),
                StoreStep::Save => {
                    prop_assert_eq!(store.save(Lsn(lsn)), written.len());
                    written.clear();
                    image = Some((Lsn(lsn), store_image(&model, &slots)));
                    continue;
                }
            };
            lsn += 1;
            let version = RecordVersion {
                entry,
                lsn: Lsn(lsn),
                committed_at: SimTime(i as u64),
                written_by: SeId(uid as u32 % 3),
            };
            store.upsert(SubscriberUid(uid), version.entry.clone(), version.lsn, version.committed_at, version.written_by);
            written.insert(uid);
            if model.insert(uid, version).is_none() {
                slots.push(uid);
            }
            assert_store_matches(&store, &model, &slots);
        }
        prop_assert_eq!(slots.len(), 95);

        let mut restored = RecordStore::from_records(store.iter().map(|v| (v.uid, v.to_version())));
        assert_store_matches(&restored, &model, &slots);
        prop_assert_eq!(store.into_image(), image);
        prop_assert_eq!(restored.save(Lsn(lsn)), slots.len(), "a restored store saves every slot");
        prop_assert_eq!(restored.into_image(), Some((Lsn(lsn), store_image(&model, &slots))));
    }
}
