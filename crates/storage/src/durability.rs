//! Durability machinery and the storage cost model.
//!
//! §3.1 decision 1: "every storage element saves data in RAM to local
//! persistent storage on a periodic basis"; footnote 6 describes the
//! sync-commit alternative and why it is normally off. The simulated disk
//! here is what survives an SE crash.

use udr_model::config::DurabilityMode;
use udr_model::ids::{IdMap, PartitionId};
use udr_model::time::{SimDuration, SimTime};

use crate::engine::{Engine, EngineSnapshot};

/// Latency costs of engine-side operations, added by the simulation when an
/// operation executes. Defaults approximate the 2014-era hardware the paper
/// assumes (RAM engine, SAS/SATA disks).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Indexed read of one record from RAM.
    pub read: SimDuration,
    /// Staging one write (lock + buffer).
    pub write: SimDuration,
    /// RAM-only commit (publish + log append).
    pub commit_ram: SimDuration,
    /// Synchronous disk flush on commit (footnote 6's expensive option).
    pub commit_fsync: SimDuration,
    /// Fixed part of a periodic snapshot.
    pub snapshot_base: SimDuration,
    /// Per-megabyte cost of a periodic snapshot.
    pub snapshot_per_mb: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read: SimDuration::from_micros(2),
            write: SimDuration::from_micros(3),
            commit_ram: SimDuration::from_micros(5),
            commit_fsync: SimDuration::from_millis(8),
            snapshot_base: SimDuration::from_millis(50),
            snapshot_per_mb: SimDuration::from_millis(10),
        }
    }
}

impl CostModel {
    /// The commit-path latency under a durability mode.
    pub fn commit_cost(&self, mode: DurabilityMode) -> SimDuration {
        match mode {
            DurabilityMode::SyncCommit => self.commit_ram + self.commit_fsync,
            _ => self.commit_ram,
        }
    }

    /// Cost of writing a snapshot of `bytes` to disk.
    pub fn snapshot_cost(&self, bytes: usize) -> SimDuration {
        let mb = bytes as f64 / (1024.0 * 1024.0);
        self.snapshot_base + self.snapshot_per_mb.mul_f64(mb)
    }
}

/// The per-SE simulated disk: one image per partition replica. Contents
/// survive crashes; RAM does not.
///
/// The image of a copy that is up lives in that copy's store, as its
/// saved-version column: a save (`Disk::save`) copies only the slots
/// written since the last one, and allocates nothing. The disk itself
/// holds a materialised [`EngineSnapshot`], in uid order, only for an image
/// no live store holds: it takes one out of an engine's column when the
/// engine is dropped or replaced (`Disk::keep_image`: a crash, an
/// unload, a seed over the copy), and drops it at the partition's next
/// save. What the simulation charges for a save does not depend on any of
/// this: it prices the whole image ([`CostModel::snapshot_cost`]), as a
/// disk that rewrites it would.
#[derive(Debug, Clone, Default)]
pub struct Disk {
    /// Images no live store holds.
    images: IdMap<PartitionId, EngineSnapshot>,
    /// When the last snapshot cycle completed.
    pub last_snapshot_at: Option<SimTime>,
    /// Snapshot cycles performed.
    pub snapshot_cycles: u64,
}

impl Disk {
    /// Empty disk.
    pub fn new() -> Self {
        Disk::default()
    }

    /// Save `engine`'s committed state as the image of `partition`: the
    /// engine's store takes it ([`Engine::save`]), and a copy the disk
    /// held goes.
    pub(crate) fn save(&mut self, partition: PartitionId, engine: &mut Engine) {
        engine.save();
        self.images.remove(&partition);
    }

    /// Keep the image `engine` holds of `partition`, if it was ever
    /// saved, as the engine goes ([`Engine::into_saved_image`]). An engine
    /// never saved holds none, and whatever image the disk held stays.
    pub(crate) fn keep_image(&mut self, partition: PartitionId, engine: Engine) {
        if let Some(image) = engine.into_saved_image() {
            self.images.insert(partition, image);
        }
    }

    /// The image of `partition` that no live store holds, if any.
    pub fn load(&self, partition: PartitionId) -> Option<&EngineSnapshot> {
        self.images.get(&partition)
    }

    /// Remove a partition's image (when a replica is dropped).
    pub fn remove(&mut self, partition: PartitionId) {
        self.images.remove(&partition);
    }

    /// Partitions whose image the disk holds.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.images.keys().copied()
    }
}

/// Decides when periodic snapshots fire.
#[derive(Debug, Clone)]
pub struct SnapshotScheduler {
    mode: DurabilityMode,
    last: SimTime,
}

impl SnapshotScheduler {
    /// A scheduler for the given mode, anchored at `start`.
    pub fn new(mode: DurabilityMode, start: SimTime) -> Self {
        SnapshotScheduler { mode, last: start }
    }

    /// The configured mode.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Whether a periodic snapshot is due at `now`; if so, advances the
    /// schedule anchor.
    pub fn due(&mut self, now: SimTime) -> bool {
        match self.mode {
            DurabilityMode::PeriodicSnapshot { interval }
                if now.duration_since(self.last) >= interval =>
            {
                self.last = now;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::ids::SeId;

    #[test]
    fn commit_cost_by_mode() {
        let c = CostModel::default();
        assert_eq!(c.commit_cost(DurabilityMode::None), c.commit_ram);
        assert_eq!(
            c.commit_cost(DurabilityMode::periodic_default()),
            c.commit_ram
        );
        assert_eq!(
            c.commit_cost(DurabilityMode::SyncCommit),
            c.commit_ram + c.commit_fsync
        );
        // Footnote 6: sync commit is orders of magnitude slower.
        assert!(
            c.commit_cost(DurabilityMode::SyncCommit) > c.commit_cost(DurabilityMode::None) * 100
        );
    }

    #[test]
    fn snapshot_cost_scales_with_size() {
        let c = CostModel::default();
        let small = c.snapshot_cost(1024 * 1024);
        let large = c.snapshot_cost(100 * 1024 * 1024);
        assert!(large > small);
        assert_eq!(c.snapshot_cost(0), c.snapshot_base);
    }

    #[test]
    fn disk_store_load_remove() {
        let mut d = Disk::new();
        d.keep_image(PartitionId(0), Engine::new(SeId(0)));
        assert!(d.load(PartitionId(0)).is_none(), "never saved");
        let mut engine = Engine::new(SeId(0));
        d.save(PartitionId(0), &mut engine);
        assert!(d.load(PartitionId(0)).is_none(), "the engine holds it");
        d.keep_image(PartitionId(0), engine);
        assert_eq!(d.load(PartitionId(0)), Some(&EngineSnapshot::empty()));
        assert_eq!(d.partitions().count(), 1);
        d.remove(PartitionId(0));
        assert!(d.load(PartitionId(0)).is_none());
    }

    #[test]
    fn periodic_scheduler_fires_on_interval() {
        let mode = DurabilityMode::PeriodicSnapshot {
            interval: SimDuration::from_secs(30),
        };
        let mut s = SnapshotScheduler::new(mode, SimTime::ZERO);
        assert!(!s.due(SimTime::ZERO + SimDuration::from_secs(29)));
        assert!(s.due(SimTime::ZERO + SimDuration::from_secs(30)));
        // Anchor advanced: not due again immediately.
        assert!(!s.due(SimTime::ZERO + SimDuration::from_secs(31)));
        assert!(s.due(SimTime::ZERO + SimDuration::from_secs(60)));
    }

    #[test]
    fn non_periodic_modes_never_fire() {
        let mut none = SnapshotScheduler::new(DurabilityMode::None, SimTime::ZERO);
        let mut sync = SnapshotScheduler::new(DurabilityMode::SyncCommit, SimTime::ZERO);
        let late = SimTime::ZERO + SimDuration::from_hours(10);
        assert!(!none.due(late));
        assert!(!sync.due(late));
    }
}
