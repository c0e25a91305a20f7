//! The Storage Element (SE).
//!
//! §3.4.1: "Every SE is composed of two to four blades to provide for
//! internal redundancy within the SE and shares nothing with any other local
//! or remote SE." An SE hosts one *primary* partition copy and secondary
//! copies of other partitions (§2.3), a simulated local disk for periodic
//! durability (§3.1), and a crash/restore lifecycle: on crash the RAM
//! engines vanish and only disk snapshots survive.

use udr_model::attrs::{AttrMod, Entry};
use udr_model::config::{DurabilityMode, IsolationLevel};
use udr_model::error::{UdrError, UdrResult};
use udr_model::ids::{IdMap, PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr_model::time::{SimDuration, SimTime};

use crate::durability::{CostModel, Disk, SnapshotScheduler, COST_MODEL};
use crate::engine::{Engine, EngineSnapshot, TxnId};
use crate::version::{CommitRecord, Lsn};

/// Lifecycle state of an SE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeState {
    /// Serving traffic.
    Up,
    /// Crashed: RAM contents gone, disk intact.
    Down,
}

/// One partition replica hosted on an SE.
#[derive(Debug)]
pub struct Replica {
    /// The transactional engine holding the copy.
    pub engine: Engine,
    /// Current role of this copy.
    pub role: ReplicaRole,
    /// Frozen for the final window of a live migration hand-off: reads
    /// keep serving, writes are refused (retryable) until cutover.
    pub frozen: bool,
}

/// A storage element: engines for its replicas plus durability state.
#[derive(Debug)]
pub struct StorageElement {
    id: SeId,
    site: SiteId,
    state: SeState,
    replicas: IdMap<PartitionId, Replica>,
    disk: Disk,
    scheduler: SnapshotScheduler,
    /// Commits accepted while up (diagnostics).
    pub commits: u64,
    /// Times this SE crashed.
    pub crashes: u64,
}

impl StorageElement {
    /// A fresh SE at `site` with the given durability mode.
    pub fn new(id: SeId, site: SiteId, durability: DurabilityMode) -> Self {
        StorageElement {
            id,
            site,
            state: SeState::Up,
            replicas: IdMap::default(),
            disk: Disk::new(),
            scheduler: SnapshotScheduler::new(durability, SimTime::ZERO),
            commits: 0,
            crashes: 0,
        }
    }

    /// The cost model in force: [`COST_MODEL`].
    pub fn cost_model(&self) -> &'static CostModel {
        &COST_MODEL
    }

    /// SE identity.
    pub fn id(&self) -> SeId {
        self.id
    }

    /// Hosting site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SeState {
        self.state
    }

    /// Whether the SE is serving.
    pub fn is_up(&self) -> bool {
        self.state == SeState::Up
    }

    /// Durability mode.
    pub fn durability(&self) -> DurabilityMode {
        self.scheduler.mode()
    }

    /// Host a new (empty) replica of `partition` with the given role.
    pub fn add_replica(&mut self, partition: PartitionId, role: ReplicaRole) {
        self.install(partition, Engine::new(self.id), role);
    }

    /// Host a replica seeded from a snapshot (slave catch-up / rejoin).
    pub fn seed_replica(
        &mut self,
        partition: PartitionId,
        role: ReplicaRole,
        snapshot: EngineSnapshot,
    ) {
        let mut engine = Engine::from_snapshot(self.id, snapshot);
        engine.set_se(self.id);
        self.install(partition, engine, role);
    }

    /// Host `engine` as the copy of `partition`. A copy it replaces leaves
    /// its image on the disk ([`Disk::keep_image`]).
    fn install(&mut self, partition: PartitionId, engine: Engine, role: ReplicaRole) {
        let replica = Replica {
            engine,
            role,
            frozen: false,
        };
        if let Some(old) = self.replicas.insert(partition, replica) {
            self.disk.keep_image(partition, old.engine);
        }
    }

    /// The partitions this SE currently hosts.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.replicas.keys().copied()
    }

    /// Role of this SE's copy of `partition`.
    pub fn role(&self, partition: PartitionId) -> Option<ReplicaRole> {
        self.replicas.get(&partition).map(|r| r.role)
    }

    /// Promote/demote this SE's copy of `partition`.
    pub fn set_role(&mut self, partition: PartitionId, role: ReplicaRole) -> UdrResult<()> {
        self.replicas
            .get_mut(&partition)
            .map(|r| r.role = role)
            .ok_or_else(|| UdrError::Config(format!("{} hosts no replica of {partition}", self.id)))
    }

    fn check_up(&self) -> UdrResult<()> {
        if self.is_up() {
            Ok(())
        } else {
            Err(UdrError::SeUnavailable(self.id))
        }
    }

    fn replica(&self, partition: PartitionId) -> UdrResult<&Replica> {
        self.replicas
            .get(&partition)
            .ok_or_else(|| UdrError::Config(format!("{} hosts no replica of {partition}", self.id)))
    }

    fn replica_mut(&mut self, partition: PartitionId) -> UdrResult<&mut Replica> {
        let id = self.id;
        self.replicas
            .get_mut(&partition)
            .ok_or_else(|| UdrError::Config(format!("{id} hosts no replica of {partition}")))
    }

    fn writable_engine(&mut self, partition: PartitionId) -> UdrResult<&mut Engine> {
        let id = self.id;
        let r = self.replica_mut(partition)?;
        if r.role != ReplicaRole::Master {
            return Err(UdrError::NotMaster { partition, se: id });
        }
        if r.frozen {
            return Err(UdrError::PartitionFrozen(partition));
        }
        Ok(&mut r.engine)
    }

    // ---- migration hand-off (freeze → ship → release) --------------------

    /// Freeze this SE's copy of `partition` for the final hand-off window
    /// of a live migration: reads keep serving, writes fail with
    /// [`UdrError::PartitionFrozen`] until [`Self::unfreeze_partition`].
    pub fn freeze_partition(&mut self, partition: PartitionId) -> UdrResult<()> {
        self.replica_mut(partition).map(|r| r.frozen = true)
    }

    /// Lift a migration freeze (cutover done or migration aborted).
    pub fn unfreeze_partition(&mut self, partition: PartitionId) {
        if let Ok(r) = self.replica_mut(partition) {
            r.frozen = false;
        }
    }

    /// Release this SE's copy of `partition` after a migration hand-off:
    /// the RAM engine is dropped and the on-disk snapshot is removed so a
    /// later crash/restore cannot resurrect a retired copy. The image goes
    /// even when no RAM copy is hosted, as while the SE is down. Returns the
    /// number of live records released, or `None` when no RAM copy was
    /// hosted here.
    pub fn release_partition(&mut self, partition: PartitionId) -> Option<usize> {
        self.disk.remove(partition);
        let replica = self.replicas.remove(&partition)?;
        Some(replica.engine.live_records())
    }

    /// Drop this SE's RAM copy of `partition` and keep its disk image: a
    /// copy restored from an image its replication group cannot roll
    /// forward, waiting for a peer's.
    pub fn unload_partition(&mut self, partition: PartitionId) {
        if let Some(r) = self.replicas.remove(&partition) {
            self.disk.keep_image(partition, r.engine);
        }
    }

    // ---- transaction API -------------------------------------------------

    /// Begin a transaction on this SE's copy of `partition`. Writing
    /// operations will additionally require the copy to be master.
    pub fn begin(&mut self, partition: PartitionId, isolation: IsolationLevel) -> UdrResult<TxnId> {
        self.check_up()?;
        Ok(self.replica_mut(partition)?.engine.begin(isolation))
    }

    /// Transactional read (costs [`CostModel::read`]).
    pub fn read(
        &self,
        partition: PartitionId,
        txn: TxnId,
        uid: SubscriberUid,
    ) -> UdrResult<Option<Entry>> {
        self.check_up()?;
        self.replica(partition)?.engine.read(txn, uid)
    }

    /// Non-transactional read of the latest committed version (the slave
    /// read path of §3.3.2).
    pub fn read_committed(
        &self,
        partition: PartitionId,
        uid: SubscriberUid,
    ) -> UdrResult<Option<Entry>> {
        self.check_up()?;
        Ok(self.replica(partition)?.engine.read_committed(uid))
    }

    /// Stage an insert (master only).
    pub fn insert(
        &mut self,
        partition: PartitionId,
        txn: TxnId,
        uid: SubscriberUid,
        entry: Entry,
    ) -> UdrResult<()> {
        self.check_up()?;
        self.writable_engine(partition)?.insert(txn, uid, entry)
    }

    /// Stage an upsert (master only).
    pub fn put(
        &mut self,
        partition: PartitionId,
        txn: TxnId,
        uid: SubscriberUid,
        entry: Entry,
    ) -> UdrResult<()> {
        self.check_up()?;
        self.writable_engine(partition)?.put(txn, uid, entry)
    }

    /// Stage attribute modifications (master only).
    pub fn modify(
        &mut self,
        partition: PartitionId,
        txn: TxnId,
        uid: SubscriberUid,
        mods: &[AttrMod],
    ) -> UdrResult<()> {
        self.check_up()?;
        self.writable_engine(partition)?.modify(txn, uid, mods)
    }

    /// Stage a delete (master only).
    pub fn delete(
        &mut self,
        partition: PartitionId,
        txn: TxnId,
        uid: SubscriberUid,
    ) -> UdrResult<()> {
        self.check_up()?;
        self.writable_engine(partition)?.delete(txn, uid)
    }

    /// Commit a transaction. Returns the commit record (for replication) and
    /// the simulated latency of the commit path, which depends on the
    /// durability mode (footnote 6).
    pub fn commit(
        &mut self,
        partition: PartitionId,
        txn: TxnId,
        now: SimTime,
    ) -> UdrResult<(Option<CommitRecord>, SimDuration)> {
        self.check_up()?;
        let mode = self.scheduler.mode();
        let record = self.replica_mut(partition)?.engine.commit(txn, now)?;
        let cost = if record.is_some() {
            self.commits += 1;
            self.sync_to_disk(partition);
            COST_MODEL.commit_cost(mode)
        } else {
            SimDuration::ZERO
        };
        Ok((record, cost))
    }

    /// Abort a transaction.
    pub fn abort(&mut self, partition: PartitionId, txn: TxnId) {
        if let Ok(r) = self.replica_mut(partition) {
            r.engine.abort(txn);
        }
    }

    /// Apply a replicated commit record to a slave copy.
    pub fn apply_replicated(
        &mut self,
        partition: PartitionId,
        record: &CommitRecord,
    ) -> UdrResult<()> {
        self.check_up()?;
        self.replica_mut(partition)?
            .engine
            .apply_replicated(record)?;
        self.sync_to_disk(partition);
        Ok(())
    }

    /// Under sync-commit, bring the disk image of `partition` level with
    /// RAM after a commit or an apply: a save of the slots just written,
    /// whose cost is what [`CostModel::commit_cost`] charges.
    fn sync_to_disk(&mut self, partition: PartitionId) {
        if self.scheduler.mode() != DurabilityMode::SyncCommit {
            return;
        }
        if let Some(r) = self.replicas.get_mut(&partition) {
            self.disk.save(partition, &mut r.engine);
        }
    }

    /// Last applied/committed LSN on this SE's copy of `partition`.
    pub fn last_lsn(&self, partition: PartitionId) -> UdrResult<Lsn> {
        Ok(self.replica(partition)?.engine.last_lsn())
    }

    /// Drop the commit-log records of this SE's copy of `partition`
    /// through `upto` ([`Engine::truncate_log`]); a no-op when it hosts no
    /// copy, as when it is down.
    pub fn truncate_log(&mut self, partition: PartitionId, upto: Lsn) {
        if let Some(r) = self.replicas.get_mut(&partition) {
            r.engine.truncate_log(upto);
        }
    }

    /// The LSN of `partition`'s disk image, the position a restore resumes
    /// from; `None` when there is no image, because the copy was never
    /// saved or was released.
    pub fn image_lsn(&self, partition: PartitionId) -> Option<Lsn> {
        self.replicas
            .get(&partition)
            .and_then(|r| r.engine.image_lsn())
            .or_else(|| self.disk.load(partition).map(|image| image.last_lsn))
    }

    /// Direct engine access (replication and merge procedures need it).
    pub fn engine(&self, partition: PartitionId) -> UdrResult<&Engine> {
        Ok(&self.replica(partition)?.engine)
    }

    // ---- durability & lifecycle ------------------------------------------

    /// Run the periodic snapshot cycle if due; returns the simulated cost
    /// when a snapshot was taken.
    pub fn maybe_snapshot(&mut self, now: SimTime) -> Option<SimDuration> {
        if !self.is_up() || !self.scheduler.due(now) {
            return None;
        }
        Some(self.force_snapshot(now))
    }

    /// Unconditionally snapshot every replica to disk. Each save writes
    /// only the slots written since the last (`Disk::save`); the
    /// simulated cost is that of writing every image whole.
    pub fn force_snapshot(&mut self, now: SimTime) -> SimDuration {
        let mut bytes = 0usize;
        for (pid, r) in &mut self.replicas {
            bytes += r.engine.store().snapshot_bytes();
            self.disk.save(*pid, &mut r.engine);
        }
        self.disk.last_snapshot_at = Some(now);
        self.disk.snapshot_cycles += 1;
        COST_MODEL.snapshot_cost(bytes)
    }

    /// Crash: RAM engines vanish; the disk (and the roles recorded for
    /// restore) survive. In-flight transactions are lost.
    pub fn crash(&mut self) {
        if self.state == SeState::Down {
            return;
        }
        // Under sync-commit the disk is in lock-step with RAM by
        // construction (every commit saved the image); under the other
        // modes whatever happened after the last snapshot is simply gone —
        // the §4.2 durability gap. Either way the images the stores held
        // stay on the disk.
        for (pid, r) in self.replicas.drain() {
            self.disk.keep_image(pid, r.engine);
        }
        self.state = SeState::Down;
        self.crashes += 1;
    }

    /// Restore from disk. Every partition with a snapshot comes back as a
    /// *slave* at the snapshot LSN (the replication layer decides promotion
    /// and ships the missing tail). Returns `(partition, recovered_lsn)`
    /// pairs.
    pub fn restore(&mut self, now: SimTime) -> Vec<(PartitionId, Lsn)> {
        if self.state == SeState::Up {
            return Vec::new();
        }
        self.state = SeState::Up;
        self.scheduler = SnapshotScheduler::new(self.scheduler.mode(), now);
        // A copy hosted while down may have been saved since: it goes, and
        // its image is restored like any other.
        let saved: Vec<PartitionId> = self
            .replicas
            .iter()
            .filter(|(_, r)| r.engine.image_lsn().is_some())
            .map(|(&pid, _)| pid)
            .collect();
        for pid in saved {
            self.unload_partition(pid);
        }
        let mut recovered = Vec::new();
        let partitions: Vec<PartitionId> = self.disk.partitions().collect();
        for pid in partitions {
            let snap = self
                .disk
                .load(pid)
                .cloned()
                .expect("listed partition has snapshot");
            let lsn = snap.last_lsn;
            self.seed_replica(pid, ReplicaRole::Slave, snap);
            recovered.push((pid, lsn));
        }
        recovered.sort_by_key(|(p, _)| *p);
        recovered
    }

    /// Total live records across replicas.
    pub fn live_records(&self) -> usize {
        self.replicas
            .values()
            .map(|r| r.engine.live_records())
            .sum()
    }

    /// Approximate RAM use across replicas, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.replicas
            .values()
            .map(|r| r.engine.approx_bytes())
            .sum()
    }

    /// The simulated disk (diagnostics).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::attrs::AttrId;

    fn entry(v: &str) -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Msisdn, v);
        e
    }

    fn se_with_master(mode: DurabilityMode) -> StorageElement {
        let mut se = StorageElement::new(SeId(0), SiteId(0), mode);
        se.add_replica(PartitionId(0), ReplicaRole::Master);
        se
    }

    fn write_one(se: &mut StorageElement, uid: u64, v: &str, now: SimTime) -> CommitRecord {
        let t = se
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        se.put(PartitionId(0), t, SubscriberUid(uid), entry(v))
            .unwrap();
        se.commit(PartitionId(0), t, now).unwrap().0.unwrap()
    }

    /// The cycle the pipeline's storage stage drives: a write transaction
    /// charged the durability mode's commit cost, then a transactional
    /// read, an abort, and a committed read at the new LSN.
    #[test]
    fn insert_commit_then_read_back() {
        let mut se = se_with_master(DurabilityMode::None);
        assert!(se.is_up());

        let t = se
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        se.insert(PartitionId(0), t, SubscriberUid(1), entry("34600000001"))
            .unwrap();
        let (record, cost) = se.commit(PartitionId(0), t, SimTime(0)).unwrap();
        assert!(record.is_some());
        assert_eq!(cost, se.cost_model().commit_cost(DurabilityMode::None));

        let t = se
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        assert!(se
            .read(PartitionId(0), t, SubscriberUid(1))
            .unwrap()
            .is_some());
        se.abort(PartitionId(0), t);
        assert!(se
            .read_committed(PartitionId(0), SubscriberUid(1))
            .unwrap()
            .is_some());
        assert_eq!(se.last_lsn(PartitionId(0)).unwrap(), Lsn(1));
    }

    #[test]
    fn write_requires_master_role() {
        let mut se = StorageElement::new(SeId(1), SiteId(0), DurabilityMode::None);
        se.add_replica(PartitionId(0), ReplicaRole::Slave);
        let t = se
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        let err = se
            .put(PartitionId(0), t, SubscriberUid(1), entry("x"))
            .unwrap_err();
        assert_eq!(
            err,
            UdrError::NotMaster {
                partition: PartitionId(0),
                se: SeId(1)
            }
        );
        // Reads on a slave are fine (§3.3.2).
        assert!(se
            .read(PartitionId(0), t, SubscriberUid(1))
            .unwrap()
            .is_none());
    }

    #[test]
    fn promotion_enables_writes() {
        let mut se = StorageElement::new(SeId(1), SiteId(0), DurabilityMode::None);
        se.add_replica(PartitionId(0), ReplicaRole::Slave);
        se.set_role(PartitionId(0), ReplicaRole::Master).unwrap();
        write_one(&mut se, 1, "x", SimTime(0));
        assert_eq!(se.live_records(), 1);
    }

    #[test]
    fn commit_cost_reflects_durability() {
        let mut ram = se_with_master(DurabilityMode::None);
        let t = ram
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        ram.put(PartitionId(0), t, SubscriberUid(1), entry("x"))
            .unwrap();
        let (_, ram_cost) = ram.commit(PartitionId(0), t, SimTime(0)).unwrap();

        let mut sync = se_with_master(DurabilityMode::SyncCommit);
        let t = sync
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        sync.put(PartitionId(0), t, SubscriberUid(1), entry("x"))
            .unwrap();
        let (_, sync_cost) = sync.commit(PartitionId(0), t, SimTime(0)).unwrap();

        assert!(
            sync_cost > ram_cost * 100,
            "sync={sync_cost} ram={ram_cost}"
        );
    }

    #[test]
    fn crash_without_snapshot_loses_everything() {
        let mut se = se_with_master(DurabilityMode::None);
        write_one(&mut se, 1, "x", SimTime(0));
        se.crash();
        assert!(!se.is_up());
        assert_eq!(
            se.read_committed(PartitionId(0), SubscriberUid(1)),
            Err(UdrError::SeUnavailable(SeId(0)))
        );
        let recovered = se.restore(SimTime(10));
        assert!(recovered.is_empty()); // nothing on disk
        assert_eq!(se.live_records(), 0);
    }

    #[test]
    fn periodic_snapshot_bounds_loss() {
        let mode = DurabilityMode::PeriodicSnapshot {
            interval: SimDuration::from_secs(30),
        };
        let mut se = se_with_master(mode);
        write_one(&mut se, 1, "before", SimTime(0));
        // Snapshot cycle fires at t=30s.
        let cost = se.maybe_snapshot(SimTime::ZERO + SimDuration::from_secs(30));
        assert!(cost.is_some());
        write_one(
            &mut se,
            2,
            "after",
            SimTime::ZERO + SimDuration::from_secs(31),
        );

        se.crash();
        let recovered = se.restore(SimTime::ZERO + SimDuration::from_secs(40));
        assert_eq!(recovered, vec![(PartitionId(0), Lsn(1))]);
        // The pre-snapshot record survived; the post-snapshot one is lost.
        assert!(se
            .read_committed(PartitionId(0), SubscriberUid(1))
            .unwrap()
            .is_some());
        assert!(se
            .read_committed(PartitionId(0), SubscriberUid(2))
            .unwrap()
            .is_none());
        // Restored copies come back as slaves.
        assert_eq!(se.role(PartitionId(0)), Some(ReplicaRole::Slave));
    }

    #[test]
    fn sync_commit_survives_crash_completely() {
        let mut se = se_with_master(DurabilityMode::SyncCommit);
        write_one(&mut se, 1, "a", SimTime(0));
        write_one(&mut se, 2, "b", SimTime(1));
        se.crash();
        let recovered = se.restore(SimTime(5));
        assert_eq!(recovered, vec![(PartitionId(0), Lsn(2))]);
        assert!(se
            .read_committed(PartitionId(0), SubscriberUid(1))
            .unwrap()
            .is_some());
        assert!(se
            .read_committed(PartitionId(0), SubscriberUid(2))
            .unwrap()
            .is_some());
    }

    #[test]
    fn down_se_refuses_everything() {
        let mut se = se_with_master(DurabilityMode::None);
        se.crash();
        assert!(matches!(
            se.begin(PartitionId(0), IsolationLevel::ReadCommitted),
            Err(UdrError::SeUnavailable(_))
        ));
        se.crash(); // idempotent
        assert_eq!(se.crashes, 1);
    }

    #[test]
    fn apply_replicated_flows_to_slave_se() {
        let mut master = se_with_master(DurabilityMode::None);
        let mut slave = StorageElement::new(SeId(1), SiteId(1), DurabilityMode::None);
        slave.add_replica(PartitionId(0), ReplicaRole::Slave);
        let rec = write_one(&mut master, 7, "x", SimTime(0));
        slave.apply_replicated(PartitionId(0), &rec).unwrap();
        assert_eq!(
            slave
                .read_committed(PartitionId(0), SubscriberUid(7))
                .unwrap(),
            master
                .read_committed(PartitionId(0), SubscriberUid(7))
                .unwrap()
        );
        assert_eq!(slave.last_lsn(PartitionId(0)).unwrap(), Lsn(1));
    }

    #[test]
    fn seed_replica_from_snapshot() {
        let mut master = se_with_master(DurabilityMode::None);
        write_one(&mut master, 1, "x", SimTime(0));
        let snap = master.engine(PartitionId(0)).unwrap().snapshot();
        let mut newcomer = StorageElement::new(SeId(2), SiteId(1), DurabilityMode::None);
        newcomer.seed_replica(PartitionId(0), ReplicaRole::Slave, snap);
        assert!(newcomer
            .read_committed(PartitionId(0), SubscriberUid(1))
            .unwrap()
            .is_some());
        assert_eq!(newcomer.last_lsn(PartitionId(0)).unwrap(), Lsn(1));
    }

    fn modify_one(se: &mut StorageElement, uid: u64, v: &str, now: SimTime) -> CommitRecord {
        let t = se
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        let mods = [AttrMod::Set(AttrId::Msisdn, v.into())];
        se.modify(PartitionId(0), t, SubscriberUid(uid), &mods)
            .unwrap();
        se.commit(PartitionId(0), t, now).unwrap().0.unwrap()
    }

    /// The disk snapshot shares its payloads with the live store; a modify
    /// after the snapshot must copy, not write through.
    #[test]
    fn modify_after_snapshot_does_not_reach_the_disk_copy() {
        let mut se = se_with_master(DurabilityMode::None);
        write_one(&mut se, 1, "before", SimTime(0));
        se.force_snapshot(SimTime(1));
        modify_one(&mut se, 1, "after", SimTime(2));
        assert_eq!(
            se.read_committed(PartitionId(0), SubscriberUid(1)).unwrap(),
            Some(entry("after"))
        );

        se.crash();
        assert_eq!(se.restore(SimTime(3)), vec![(PartitionId(0), Lsn(1))]);
        assert_eq!(
            se.read_committed(PartitionId(0), SubscriberUid(1)).unwrap(),
            Some(entry("before"))
        );
    }

    /// Two save cycles refresh one disk image in place. Under periodic
    /// snapshots a crash keeps what the second save saw and loses what came
    /// after it; under sync-commit every write reached the disk.
    #[test]
    fn a_refreshed_image_keeps_the_last_save_and_nothing_after() {
        let (x, y, z) = (SubscriberUid(1), SubscriberUid(2), SubscriberUid(3));
        let read = |se: &StorageElement, uid| se.read_committed(PartitionId(0), uid).unwrap();
        for mode in [
            DurabilityMode::periodic_default(),
            DurabilityMode::SyncCommit,
        ] {
            let mut se = se_with_master(mode);
            for uid in [x, y, z] {
                write_one(&mut se, uid.0, "v0", SimTime(0));
            }
            se.force_snapshot(SimTime(1));
            modify_one(&mut se, x.0, "x1", SimTime(2));
            se.force_snapshot(SimTime(3));
            modify_one(&mut se, y.0, "y1", SimTime(4));
            let t = se
                .begin(PartitionId(0), IsolationLevel::ReadCommitted)
                .unwrap();
            se.delete(PartitionId(0), t, z).unwrap();
            se.commit(PartitionId(0), t, SimTime(5)).unwrap();

            se.crash();
            let recovered = se.restore(SimTime(6));
            assert_eq!(read(&se, x), Some(entry("x1")), "{mode}");
            if mode == DurabilityMode::SyncCommit {
                assert_eq!(recovered, vec![(PartitionId(0), Lsn(6))]);
                assert_eq!(read(&se, y), Some(entry("y1")));
                assert_eq!(read(&se, z), None);
            } else {
                assert_eq!(recovered, vec![(PartitionId(0), Lsn(4))]);
                assert_eq!(read(&se, y), Some(entry("v0")));
                assert_eq!(read(&se, z), Some(entry("v0")));
            }
        }
    }

    /// A slave seeded from a master snapshot shares the master's payloads
    /// until either side writes; the master's later writes stay its own.
    #[test]
    fn seeded_slave_does_not_see_the_masters_later_writes() {
        let mut master = se_with_master(DurabilityMode::None);
        write_one(&mut master, 1, "seeded", SimTime(0));
        write_one(&mut master, 2, "kept", SimTime(1));
        let snap = master.engine(PartitionId(0)).unwrap().snapshot();
        let mut slave = StorageElement::new(SeId(1), SiteId(1), DurabilityMode::None);
        slave.seed_replica(PartitionId(0), ReplicaRole::Slave, snap);

        let rec = modify_one(&mut master, 1, "later", SimTime(2));
        let t = master
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        master.delete(PartitionId(0), t, SubscriberUid(2)).unwrap();
        master.commit(PartitionId(0), t, SimTime(3)).unwrap();

        let read = |se: &StorageElement, uid| se.read_committed(PartitionId(0), uid).unwrap();
        assert_eq!(read(&slave, SubscriberUid(1)), Some(entry("seeded")));
        assert_eq!(read(&slave, SubscriberUid(2)), Some(entry("kept")));
        // Shipping the record is the only way the write arrives.
        slave.apply_replicated(PartitionId(0), &rec).unwrap();
        assert_eq!(read(&slave, SubscriberUid(1)), Some(entry("later")));
        assert_eq!(read(&master, SubscriberUid(1)), Some(entry("later")));
    }

    #[test]
    fn unknown_partition_is_config_error() {
        let mut se = se_with_master(DurabilityMode::None);
        assert!(matches!(
            se.begin(PartitionId(9), IsolationLevel::ReadCommitted),
            Err(UdrError::Config(_))
        ));
    }

    #[test]
    fn frozen_partition_refuses_writes_serves_reads() {
        let mut se = se_with_master(DurabilityMode::None);
        write_one(&mut se, 1, "x", SimTime(0));
        se.freeze_partition(PartitionId(0)).unwrap();
        // Reads keep serving during the hand-off window.
        assert!(se
            .read_committed(PartitionId(0), SubscriberUid(1))
            .unwrap()
            .is_some());
        // Writes are refused with the retryable freeze error.
        let t = se
            .begin(PartitionId(0), IsolationLevel::ReadCommitted)
            .unwrap();
        assert_eq!(
            se.put(PartitionId(0), t, SubscriberUid(2), entry("y")),
            Err(UdrError::PartitionFrozen(PartitionId(0)))
        );
        se.abort(PartitionId(0), t);
        se.unfreeze_partition(PartitionId(0));
        write_one(&mut se, 2, "y", SimTime(1));
        assert_eq!(se.live_records(), 2);
    }

    #[test]
    fn release_drops_ram_and_disk_copies() {
        let mut se = se_with_master(DurabilityMode::SyncCommit);
        write_one(&mut se, 1, "x", SimTime(0));
        assert_eq!(se.release_partition(PartitionId(0)), Some(1));
        assert_eq!(se.live_records(), 0);
        // Releasing again: nothing hosted.
        assert_eq!(se.release_partition(PartitionId(0)), None);
        // Crash + restore must not resurrect the released copy from disk.
        se.crash();
        let recovered = se.restore(SimTime(10));
        assert!(recovered.is_empty());
    }

    #[test]
    fn release_while_down_drops_the_disk_copy() {
        let mut se = se_with_master(DurabilityMode::SyncCommit);
        write_one(&mut se, 1, "x", SimTime(0));
        se.crash();
        // No RAM copy while down, but the image goes all the same.
        assert_eq!(se.release_partition(PartitionId(0)), None);
        assert!(se.restore(SimTime(10)).is_empty());
        assert!(se.engine(PartitionId(0)).is_err());
    }

    #[test]
    fn force_snapshot_cost_grows_with_data() {
        let mut se = se_with_master(DurabilityMode::None);
        let c0 = se.force_snapshot(SimTime(0));
        for i in 0..500 {
            write_one(
                &mut se,
                i,
                "0123456789012345678901234567890123456789",
                SimTime(0),
            );
        }
        let c1 = se.force_snapshot(SimTime(1));
        assert!(c1 > c0);
        assert_eq!(se.disk().snapshot_cycles, 2);
    }
}
