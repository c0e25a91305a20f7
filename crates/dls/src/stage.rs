//! The per-PoA data-location stage instance (§3.3.1 decision 1: "every
//! point of access to the UDR is capable of resolving data location locally
//! to the PoA").
//!
//! The stage hosts one of the three realisations the paper discusses —
//! provisioned maps, cached maps, or a consistent-hash ring — chosen once
//! when the stage is built, and answers every lookup with a `match` over
//! that closed set.
//!
//! A provisioned stage deployed in a UDR holds no bindings: it models the
//! §3.4.2 sync window and its PoA's shard-map epoch, and resolves through
//! the deployment's one identity table ([`DataLocationStage::resolve_in`]).
//! A stage built alone keeps its own table ([`DataLocationStage::provision`],
//! [`DataLocationStage::resolve`]).

use udr_model::identity::Identity;
use udr_model::ids::SubscriberUid;
use udr_model::time::SimTime;

use crate::cache::{CacheOutcome, CachedLocator};
use crate::maps::{IdentityLocationMap, Location};
use crate::ring::ConsistentHashRing;
use crate::shardmap::Epoch;
use crate::sync::StageSync;

/// Outcome of a local resolution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Resolved locally.
    Found(Location),
    /// Locally unknown and authoritative: the identity does not exist.
    Unknown,
    /// Cached stage miss: the caller must broadcast a probe to
    /// `ses_to_probe` SEs, then call [`DataLocationStage::fill_cache`].
    NeedsProbe {
        /// SEs to query.
        ses_to_probe: usize,
    },
    /// Provisioned stage still syncing after scale-out (§3.4.2): the PoA
    /// cannot resolve anything yet.
    Syncing,
}

/// The §3.5 realisation a stage hosts.
#[derive(Debug)]
enum Realisation {
    /// Provisioned maps (the paper's choice), which pay the §3.4.2
    /// scale-out sync window. Deployed in a UDR, such a stage models that
    /// window and resolves through the deployment's table.
    Provisioned(StageSync),
    /// Maps built on the fly and cached; a miss probes the SEs.
    Cached(CachedLocator),
    /// Consistent hashing; no per-subscriber state.
    Hashed(ConsistentHashRing),
}

impl Realisation {
    /// Resolve `identity` at `now`; a provisioned stage reads `table`.
    fn resolve(
        &mut self,
        table: &IdentityLocationMap,
        identity: &Identity,
        now: SimTime,
        uid_hint: Option<SubscriberUid>,
    ) -> Resolution {
        match self {
            Realisation::Provisioned(sync) => {
                if !sync.is_ready(now) {
                    return Resolution::Syncing;
                }
                match table.lookup(identity) {
                    Some(loc) => Resolution::Found(loc),
                    None => Resolution::Unknown,
                }
            }
            Realisation::Cached(cache) => match cache.lookup(identity) {
                CacheOutcome::Hit(loc) => Resolution::Found(loc),
                CacheOutcome::Miss { ses_to_probe } => Resolution::NeedsProbe { ses_to_probe },
            },
            Realisation::Hashed(ring) => match (ring.locate(identity), uid_hint) {
                (Some(partition), Some(uid)) => Resolution::Found(Location { uid, partition }),
                // Without a uid hint the SE must resolve the identity
                // itself; we model that as a single-SE probe.
                (Some(_), None) => Resolution::NeedsProbe { ses_to_probe: 1 },
                (None, _) => Resolution::Unknown,
            },
        }
    }
}

/// One stage instance.
#[derive(Debug)]
pub struct DataLocationStage {
    realisation: Realisation,
    /// The bindings of a stage built alone; a deployed stage leaves it
    /// empty and resolves through the deployment's table.
    maps: IdentityLocationMap,
    /// Shard-map epoch this stage instance last observed.
    map_epoch: Epoch,
}

impl DataLocationStage {
    fn with(realisation: Realisation) -> Self {
        DataLocationStage {
            realisation,
            maps: IdentityLocationMap::new(),
            map_epoch: Epoch::INITIAL,
        }
    }

    /// A ready provisioned-maps stage (the paper's chosen realisation).
    pub fn provisioned() -> Self {
        Self::with(Realisation::Provisioned(StageSync::ready()))
    }

    /// A provisioned-maps stage created by scale-out: it must first copy
    /// `entries` bindings from a peer before it can serve.
    pub fn provisioned_syncing(now: SimTime, entries: usize) -> Self {
        Self::with(Realisation::Provisioned(StageSync::syncing(now, entries)))
    }

    /// A cached-maps stage (§3.5 alternative): `capacity` bindings, misses
    /// probe `total_ses` elements.
    pub fn cached(capacity: usize, total_ses: usize) -> Self {
        Self::with(Realisation::Cached(CachedLocator::new(capacity, total_ses)))
    }

    /// A consistent-hashing stage (§3.5 alternative). Ring lookups yield a
    /// partition; the uid is derived from the identity hash, so no
    /// per-subscriber state exists at all.
    pub fn hashed(ring: ConsistentHashRing) -> Self {
        Self::with(Realisation::Hashed(ring))
    }

    /// The shard-map epoch this stage last observed.
    pub fn map_epoch(&self) -> Epoch {
        self.map_epoch
    }

    /// Install a fresher shard-map epoch (route-view refresh). Epochs
    /// never go backwards.
    pub fn install_map_epoch(&mut self, epoch: Epoch) {
        self.map_epoch = self.map_epoch.max(epoch);
    }

    /// Resolve an identity at `now` through this stage's own table.
    ///
    /// For the hashed stage the caller must map the identity to a uid
    /// itself (identities are not invertible through a hash); `uid_hint`
    /// supplies it when known (front-ends carry it in follow-up operations).
    pub fn resolve(
        &mut self,
        identity: &Identity,
        now: SimTime,
        uid_hint: Option<SubscriberUid>,
    ) -> Resolution {
        self.realisation
            .resolve(&self.maps, identity, now, uid_hint)
    }

    /// [`DataLocationStage::resolve`] through `table`, the deployment's
    /// one identity table, instead of this stage's own: what a provisioned
    /// stage of a UDR site does once its sync window has ended. Cached and
    /// hashed stages never read `table`.
    pub fn resolve_in(
        &mut self,
        table: &IdentityLocationMap,
        identity: &Identity,
        now: SimTime,
        uid_hint: Option<SubscriberUid>,
    ) -> Resolution {
        self.realisation.resolve(table, identity, now, uid_hint)
    }

    /// Provision a binding into a stage built alone. Meaningful for
    /// provisioned maps; for cached stages it warms the cache; no-op for
    /// hashed stages.
    pub fn provision(&mut self, identity: &Identity, location: Location) {
        match &mut self.realisation {
            Realisation::Provisioned(_) => self.maps.insert(identity, location),
            Realisation::Cached(cache) => cache.fill(identity, location),
            Realisation::Hashed(_) => {}
        }
    }

    /// Install a binding into a cached stage: a probe answer or a fresh
    /// provisioning. No-op for the other realisations.
    pub fn fill_cache(&mut self, identity: &Identity, location: Location) {
        if let Realisation::Cached(cache) = &mut self.realisation {
            cache.fill(identity, location);
        }
    }

    /// Drop a cached binding (deprovisioning). No-op for the other
    /// realisations.
    pub fn invalidate_cache(&mut self, identity: &Identity) {
        if let Realisation::Cached(cache) = &mut self.realisation {
            cache.invalidate(identity);
        }
    }

    /// Provisioned bindings this stage holds itself.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// Whether no bindings are held.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// When the ongoing scale-out sync completes (`None` when serving).
    pub fn sync_done_at(&self) -> Option<SimTime> {
        match &self.realisation {
            Realisation::Provisioned(sync) => sync.done_at(),
            Realisation::Cached(_) | Realisation::Hashed(_) => None,
        }
    }

    /// Approximate RAM used by the bindings this stage holds itself
    /// (H-link accounting).
    pub fn approx_bytes(&self) -> usize {
        self.maps.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{SYNC_BASE, SYNC_PER_ENTRY};
    use udr_model::identity::Imsi;
    use udr_model::ids::PartitionId;

    fn imsi(i: u64) -> Identity {
        Imsi::new(format!("21401{i:010}")).unwrap().into()
    }

    fn loc(uid: u64, p: u32) -> Location {
        Location {
            uid: SubscriberUid(uid),
            partition: PartitionId(p),
        }
    }

    /// A fresh stage starts at the initial epoch, and installing an older
    /// epoch never rolls its route view back.
    fn assert_epoch_is_monotonic(s: &mut DataLocationStage) {
        assert_eq!(s.map_epoch(), Epoch::INITIAL);
        s.install_map_epoch(Epoch(3));
        assert_eq!(s.map_epoch(), Epoch(3));
        s.install_map_epoch(Epoch(1));
        assert_eq!(s.map_epoch(), Epoch(3));
    }

    #[test]
    fn provisioned_stage_round_trip() {
        let mut s = DataLocationStage::provisioned();
        assert_epoch_is_monotonic(&mut s);
        s.provision(&imsi(1), loc(1, 0));
        assert_eq!(
            s.resolve(&imsi(1), SimTime::ZERO, None),
            Resolution::Found(loc(1, 0))
        );
        assert_eq!(
            s.resolve(&imsi(2), SimTime::ZERO, None),
            Resolution::Unknown
        );
        assert_eq!(s.len(), 1);
    }

    /// A syncing stage refuses during its window, then resolves through
    /// the table it is given while holding nothing itself.
    #[test]
    fn syncing_stage_refuses_then_serves() {
        let mut table = IdentityLocationMap::new();
        table.insert(&imsi(1), loc(1, 2));
        let mut s = DataLocationStage::provisioned_syncing(SimTime::ZERO, table.len());
        assert_eq!(
            s.resolve_in(&table, &imsi(1), SimTime::ZERO, None),
            Resolution::Syncing
        );
        let later = SimTime::ZERO + SYNC_BASE + SYNC_PER_ENTRY;
        assert_eq!(
            s.resolve_in(&table, &imsi(1), later, None),
            Resolution::Found(loc(1, 2))
        );
        assert_eq!(
            s.resolve_in(&table, &imsi(2), later, None),
            Resolution::Unknown
        );
        assert!(s.is_empty());
        assert_eq!(s.resolve(&imsi(1), later, None), Resolution::Unknown);
    }

    #[test]
    fn cached_stage_probes_then_hits() {
        let mut s = DataLocationStage::cached(128, 16);
        assert_epoch_is_monotonic(&mut s);
        assert_eq!(
            s.resolve(&imsi(1), SimTime::ZERO, None),
            Resolution::NeedsProbe { ses_to_probe: 16 }
        );
        s.fill_cache(&imsi(1), loc(1, 2));
        assert_eq!(
            s.resolve(&imsi(1), SimTime::ZERO, None),
            Resolution::Found(loc(1, 2))
        );
        // Deprovisioning drops the cached binding: the next lookup probes.
        s.invalidate_cache(&imsi(1));
        assert_eq!(
            s.resolve(&imsi(1), SimTime::ZERO, None),
            Resolution::NeedsProbe { ses_to_probe: 16 }
        );
    }

    #[test]
    fn hashed_stage_uses_ring_and_hint() {
        let ring = ConsistentHashRing::new((0..4).map(PartitionId), 32);
        let mut s = DataLocationStage::hashed(ring);
        assert_epoch_is_monotonic(&mut s);
        // With a uid hint, resolution is immediate.
        match s.resolve(&imsi(5), SimTime::ZERO, Some(SubscriberUid(5))) {
            Resolution::Found(l) => assert_eq!(l.uid, SubscriberUid(5)),
            other => panic!("unexpected {other:?}"),
        }
        // Without a hint, one SE probe is needed.
        assert_eq!(
            s.resolve(&imsi(5), SimTime::ZERO, None),
            Resolution::NeedsProbe { ses_to_probe: 1 }
        );
    }
}
