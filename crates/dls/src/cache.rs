//! Cached (built-on-the-fly) identity-location maps, the §3.5 alternative
//! to provisioned maps.
//!
//! "…if the maps are built on the fly and cached instead, R is not affected
//! but every cache miss implies locating the subscriber data by querying
//! multiple or even all the SE in the system. Those data location queries
//! may become a hurdle to scalability."
//!
//! Each cached location is stored packed, as in the provisioned maps
//! ([`crate::maps`]): 8 bytes, a uid below 2^48 and a partition id below
//! 2^16. With its `u32` key and its clock bit a binding takes a 16-byte
//! bucket.

use udr_model::identity::Identity;
use udr_model::ids::IdMap;

use crate::maps::{Location, Packed};

const _: () = assert!(std::mem::size_of::<(u32, (Packed, bool))>() == 16);

/// A bounded cache of identity → location bindings with FIFO-clock
/// eviction. Misses are reported so callers can account for the SE
/// broadcast they trigger.
///
/// Keyed by interned identity symbols: a cache slot costs one `u32` key
/// instead of an owned string, and lookups hash one word. The identity
/// kind is deliberately not part of the key — a front-end cache maps
/// whatever textual identity arrived to a location, and distinct kinds
/// with equal text resolve to the same subscription anyway.
#[derive(Debug, Clone)]
pub struct CachedLocator {
    capacity: usize,
    /// Packed location and clock reference bit, by symbol.
    map: IdMap<u32, (Packed, bool)>,
    /// Insertion ring for clock eviction.
    ring: Vec<u32>,
    hand: usize,
    /// Cache hits served.
    pub hits: u64,
    /// Cache misses (each one costs a broadcast probe of the SEs).
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// How many SEs a miss probe fans out to.
    total_ses: usize,
}

/// Result of a cached lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served locally.
    Hit(Location),
    /// Unknown here: the caller must broadcast a location probe to the SEs
    /// (`ses_to_probe` of them) and then [`CachedLocator::fill`] the answer.
    Miss {
        /// How many SEs the probe must query (worst case: all).
        ses_to_probe: usize,
    },
}

impl CachedLocator {
    /// A cache holding at most `capacity` bindings; probes fan out to
    /// `total_ses` storage elements on a miss.
    pub fn new(capacity: usize, total_ses: usize) -> Self {
        assert!(capacity > 0);
        CachedLocator {
            capacity,
            map: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            ring: Vec::with_capacity(capacity),
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            total_ses,
        }
    }

    /// Look an identity up.
    pub fn lookup(&mut self, identity: &Identity) -> CacheOutcome {
        if let Some((loc, referenced)) = self.map.get_mut(&identity.symbol()) {
            *referenced = true;
            self.hits += 1;
            return CacheOutcome::Hit(loc.get());
        }
        self.misses += 1;
        CacheOutcome::Miss {
            ses_to_probe: self.total_ses,
        }
    }

    /// Install a binding discovered by a probe (or invalidate-and-refresh).
    pub fn fill(&mut self, identity: &Identity, location: Location) {
        let key = identity.symbol();
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = (Packed::new(location), true);
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_one();
        }
        self.map.insert(key, (Packed::new(location), false));
        self.ring.push(key);
    }

    /// Drop a binding (after deprovisioning or a move).
    pub fn invalidate(&mut self, identity: &Identity) {
        self.map.remove(&identity.symbol());
    }

    fn evict_one(&mut self) {
        // Clock: skip recently-referenced entries once, evict the first
        // cold one found.
        let len = self.ring.len();
        for _ in 0..len * 2 {
            if self.ring.is_empty() {
                return;
            }
            self.hand %= self.ring.len();
            let key = self.ring[self.hand];
            match self.map.get_mut(&key) {
                None => {
                    // Stale ring slot (invalidated entry): reclaim it.
                    self.ring.swap_remove(self.hand);
                }
                Some((_, referenced)) if *referenced => {
                    *referenced = false;
                    self.hand += 1;
                }
                Some(_) => {
                    self.map.remove(&key);
                    self.ring.swap_remove(self.hand);
                    self.evictions += 1;
                    return;
                }
            }
        }
    }

    /// Bindings currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::identity::Imsi;
    use udr_model::ids::{PartitionId, SubscriberUid};

    fn imsi(i: u64) -> Identity {
        Imsi::new(format!("21401{i:010}")).unwrap().into()
    }

    fn loc(uid: u64) -> Location {
        Location {
            uid: SubscriberUid(uid),
            partition: PartitionId(0),
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = CachedLocator::new(10, 16);
        assert_eq!(c.lookup(&imsi(1)), CacheOutcome::Miss { ses_to_probe: 16 });
        c.fill(&imsi(1), loc(1));
        assert_eq!(c.lookup(&imsi(1)), CacheOutcome::Hit(loc(1)));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut c = CachedLocator::new(8, 4);
        for i in 0..100 {
            c.fill(&imsi(i), loc(i));
        }
        assert!(c.len() <= 8);
        assert!(c.evictions >= 92);
    }

    #[test]
    fn clock_keeps_hot_entries() {
        let mut c = CachedLocator::new(4, 4);
        for i in 0..4 {
            c.fill(&imsi(i), loc(i));
        }
        // Touch entry 0 so it is referenced.
        assert!(matches!(c.lookup(&imsi(0)), CacheOutcome::Hit(_)));
        // Insert new entries forcing evictions; hot entry survives the
        // first eviction round.
        c.fill(&imsi(100), loc(100));
        assert!(matches!(c.lookup(&imsi(0)), CacheOutcome::Hit(_)));
    }

    #[test]
    fn invalidate_forgets() {
        let mut c = CachedLocator::new(4, 4);
        c.fill(&imsi(1), loc(1));
        c.invalidate(&imsi(1));
        assert!(matches!(c.lookup(&imsi(1)), CacheOutcome::Miss { .. }));
        // Ring slot is reclaimed lazily without panicking.
        for i in 0..10 {
            c.fill(&imsi(i + 10), loc(i));
        }
        assert!(c.len() <= 4);
    }

    #[test]
    fn fill_refreshes_existing() {
        let mut c = CachedLocator::new(4, 4);
        c.fill(&imsi(1), loc(1));
        c.fill(&imsi(1), loc(2));
        assert_eq!(c.lookup(&imsi(1)), CacheOutcome::Hit(loc(2)));
        assert_eq!(c.len(), 1);
    }
}
