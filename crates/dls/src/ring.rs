//! Consistent hashing, the §3.5 alternative to identity-location maps.
//!
//! "One such alternative would be to use consistent hashing to index
//! locations. To apply consistent hashing to the UDR, we need multiple
//! replicas being each replica indexed by a different identity." Lookup is
//! O(1)-ish (O(log V) over virtual nodes), but selective placement is lost —
//! exactly the trade the paper weighs.

use std::collections::BTreeMap;

use udr_model::identity::Identity;
use udr_model::ids::PartitionId;

/// FNV-1a with a splitmix64 finalizer: stable across platforms and Rust
/// versions (the ring layout must be deterministic in experiments), with the
/// finalizer fixing FNV's weak avalanche on short, similar keys such as
/// zero-padded IMSIs and `pN#v` virtual-node labels.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // splitmix64 finalizer.
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    hash ^ (hash >> 31)
}

/// A consistent-hash ring mapping identities to partitions.
#[derive(Debug, Clone)]
pub struct ConsistentHashRing {
    /// hash point → partition.
    ring: BTreeMap<u64, PartitionId>,
    /// Virtual nodes per partition.
    vnodes: usize,
    partitions: Vec<PartitionId>,
}

impl ConsistentHashRing {
    /// Build a ring over `partitions` with `vnodes` virtual nodes each.
    pub fn new(partitions: impl IntoIterator<Item = PartitionId>, vnodes: usize) -> Self {
        assert!(vnodes > 0, "need at least one virtual node per partition");
        let mut ring = ConsistentHashRing {
            ring: BTreeMap::new(),
            vnodes,
            partitions: vec![],
        };
        for p in partitions {
            ring.add_partition(p);
        }
        ring
    }

    /// Add a partition's virtual nodes to the ring.
    pub fn add_partition(&mut self, partition: PartitionId) {
        if self.partitions.contains(&partition) {
            return;
        }
        for v in 0..self.vnodes {
            let key = fnv1a(format!("{partition}#{v}").as_bytes());
            self.ring.insert(key, partition);
        }
        self.partitions.push(partition);
    }

    /// Locate the partition owning an identity: first virtual node at or
    /// after the identity's hash point, wrapping around.
    pub fn locate(&self, identity: &Identity) -> Option<PartitionId> {
        if self.ring.is_empty() {
            return None;
        }
        let point = fnv1a(identity.as_str().as_bytes());
        self.ring
            .range(point..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(_, p)| *p)
    }

    /// The partitions currently on the ring.
    pub fn partitions(&self) -> &[PartitionId] {
        &self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::identity::Imsi;

    fn imsi(i: u64) -> Identity {
        Imsi::new(format!("21401{i:010}")).unwrap().into()
    }

    fn ring(n: u32) -> ConsistentHashRing {
        ConsistentHashRing::new((0..n).map(PartitionId), 64)
    }

    #[test]
    fn locate_is_deterministic() {
        let r1 = ring(4);
        let r2 = ring(4);
        for i in 0..100 {
            assert_eq!(r1.locate(&imsi(i)), r2.locate(&imsi(i)));
        }
    }

    #[test]
    fn empty_ring_locates_nothing() {
        let r = ConsistentHashRing::new(std::iter::empty(), 8);
        assert_eq!(r.locate(&imsi(1)), None);
    }

    #[test]
    fn all_partitions_receive_load() {
        let r = ring(8);
        let mut counts = [0usize; 8];
        for i in 0..8000 {
            counts[r.locate(&imsi(i)).unwrap().index()] += 1;
        }
        for (p, c) in counts.iter().enumerate() {
            assert!(*c > 0, "partition {p} got no keys");
        }
    }

    #[test]
    fn balance_is_reasonable() {
        // With 128 vnodes the max/min load ratio should stay modest.
        let r = ConsistentHashRing::new((0..8).map(PartitionId), 128);
        let mut counts = [0usize; 8];
        for i in 0..80_000 {
            counts[r.locate(&imsi(i)).unwrap().index()] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 2.5, "imbalance {max}/{min}");
    }

    #[test]
    fn adding_partition_is_idempotent() {
        let mut r = ring(3);
        r.add_partition(PartitionId(1));
        assert_eq!(r.partitions().len(), 3);
    }
}
