//! Provisioned identity-location maps (§3.5).
//!
//! "Data location uses identity-location maps since the UDR must support
//! multiple indexes (one index per subscriber identity, i.e. MSISDN, IMSI,
//! IMPU etc.) and must support also the selective placement of subscriber
//! data." A state-full stage whose "processing cost typically grows as
//! O(log N)".
//!
//! That O(log N) is the paper's model of the stage, and sim-time follows
//! the paper, not the host: a resolve charges what the paper says to charge
//! ("very small and can be neglected"), and the footprint the model sizes
//! RAM with is [`IdentityLocationMap::approx_bytes`]: a fixed
//! [`MODEL_BYTES_PER_BINDING`] per binding. The host index is one hash table
//! per identity kind, keyed by interned symbols with
//! [`IdHasher`](udr_model::ids::IdHasher): a resolve is one probe, and
//! nothing in the stage needs key order.
//!
//! A table stores each [`Location`] packed into 8 bytes at 4-byte
//! alignment: the uid's low 32 bits in one word, its high 16 bits and the
//! partition in the other. A bucket, symbol and packed location, is 12 bytes
//! where the padded `Location` would take 24. The packing bounds every
//! stored location: a uid below 2^48 ([`Location::MAX_UID`]) and a partition
//! id below 2^16 ([`Location::MAX_PARTITIONS`]). The deployment keeps inside
//! them with typed errors, not here: its config validation refuses more
//! partitions, and provisioning refuses a uid past the bound. Callers see
//! only the unpacked `Location`, by value.

use udr_model::identity::{Identity, IdentityKind};
use udr_model::ids::{IdMap, PartitionId, SubscriberUid};

/// Where a subscription lives: its internal uid and the partition holding
/// its data (the replication layer knows which SE masters the partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Internal subscription id.
    pub uid: SubscriberUid,
    /// Partition holding the subscription's data.
    pub partition: PartitionId,
}

impl Location {
    /// The largest uid a location table holds: 48 bits.
    pub const MAX_UID: u64 = (1 << 48) - 1;
    /// How many partitions a location table addresses: 16 bits of id.
    pub const MAX_PARTITIONS: u32 = 1 << 16;
}

/// A [`Location`] as the tables store it: the uid's low 32 bits, then its
/// high 16 bits above the 16-bit partition id. Two words, so the bucket it
/// shares with a `u32` symbol is 12 bytes at 4-byte alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Packed([u32; 2]);

const _: () = assert!(std::mem::size_of::<(u32, Packed)>() == 12);

impl Packed {
    /// Pack `location`, whose uid must be at most [`Location::MAX_UID`] and
    /// whose partition id must be below [`Location::MAX_PARTITIONS`].
    pub(crate) fn new(location: Location) -> Self {
        debug_assert!(
            location.uid.raw() <= Location::MAX_UID
                && location.partition.0 < Location::MAX_PARTITIONS,
            "{location:?} exceeds the packed bounds"
        );
        let uid = location.uid.raw();
        Packed([
            uid as u32,
            ((uid >> 32) as u32) << 16 | location.partition.0,
        ])
    }

    /// The location packed here.
    pub(crate) fn get(self) -> Location {
        let [low, high] = self.0;
        Location {
            uid: SubscriberUid(u64::from(low) | u64::from(high >> 16) << 32),
            partition: PartitionId(high & 0xffff),
        }
    }
}

/// Bytes the footprint model charges per binding: a 24-byte hashed-index
/// entry and a 16-byte location. A constant of the model, not the host
/// layout, so the scale-out sync cost and the stage footprints that derive
/// from it do not move when the host tables do.
pub const MODEL_BYTES_PER_BINDING: usize = 40;

/// One hashed index per identity kind: the provisioned maps of §3.5.
///
/// Indexes are keyed by interned identity symbols (`u32`), not strings:
/// at national-operator scale the maps dominate stage memory (§3.3.1), and
/// one word per key plus the process-wide interner beats one heap string
/// per key per index. A lookup hashes and compares a single integer
/// instead of up to 15 bytes of digits. The value beside each key is the
/// location packed into 8 bytes, so a bucket is 12 bytes.
#[derive(Debug, Clone, Default)]
pub struct IdentityLocationMap {
    imsi: IdMap<u32, Packed>,
    msisdn: IdMap<u32, Packed>,
    impu: IdMap<u32, Packed>,
    impi: IdMap<u32, Packed>,
}

impl IdentityLocationMap {
    /// Empty maps.
    pub fn new() -> Self {
        Self::default()
    }

    fn index(&self, kind: IdentityKind) -> &IdMap<u32, Packed> {
        match kind {
            IdentityKind::Imsi => &self.imsi,
            IdentityKind::Msisdn => &self.msisdn,
            IdentityKind::Impu => &self.impu,
            IdentityKind::Impi => &self.impi,
        }
    }

    fn index_mut(&mut self, kind: IdentityKind) -> &mut IdMap<u32, Packed> {
        match kind {
            IdentityKind::Imsi => &mut self.imsi,
            IdentityKind::Msisdn => &mut self.msisdn,
            IdentityKind::Impu => &mut self.impu,
            IdentityKind::Impi => &mut self.impi,
        }
    }

    /// Provision one identity → location binding.
    pub fn insert(&mut self, identity: &Identity, location: Location) {
        self.index_mut(identity.kind())
            .insert(identity.symbol(), Packed::new(location));
    }

    /// Remove a binding (deprovisioning); returns the removed location.
    pub fn remove(&mut self, identity: &Identity) -> Option<Location> {
        self.index_mut(identity.kind())
            .remove(&identity.symbol())
            .map(Packed::get)
    }

    /// One-probe lookup.
    pub fn lookup(&self, identity: &Identity) -> Option<Location> {
        self.index(identity.kind())
            .get(&identity.symbol())
            .map(|p| p.get())
    }

    /// Total entries across all indexes.
    pub fn len(&self) -> usize {
        self.imsi.len() + self.msisdn.len() + self.impu.len() + self.impi.len()
    }

    /// Whether all indexes are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate RAM footprint in bytes — §3.3.1: "storage of the
    /// identity-location maps deprives storage elements from memory they
    /// could use to store more data". Keys are one interned symbol each;
    /// the shared string storage lives in the process-wide interner and is
    /// accounted there, not per index. Each binding costs
    /// [`MODEL_BYTES_PER_BINDING`], the paper's per-binding accounting and
    /// not the host table's layout, so the footprint every sim-time cost
    /// derives from does not depend on how the index is built.
    pub fn approx_bytes(&self) -> usize {
        self.len() * MODEL_BYTES_PER_BINDING
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use udr_model::identity::{Impu, Imsi, Msisdn};

    fn loc(uid: u64, p: u32) -> Location {
        Location {
            uid: SubscriberUid(uid),
            partition: PartitionId(p),
        }
    }

    fn imsi(s: &str) -> Identity {
        Imsi::new(s).unwrap().into()
    }

    #[test]
    fn insert_lookup_remove() {
        let mut m = IdentityLocationMap::new();
        m.insert(&imsi("214010000000001"), loc(1, 0));
        assert_eq!(m.lookup(&imsi("214010000000001")), Some(loc(1, 0)));
        assert_eq!(m.lookup(&imsi("214010000000002")), None);
        assert_eq!(m.remove(&imsi("214010000000001")), Some(loc(1, 0)));
        assert_eq!(m.lookup(&imsi("214010000000001")), None);
    }

    #[test]
    fn indexes_are_independent() {
        let mut m = IdentityLocationMap::new();
        let msisdn: Identity = Msisdn::new("34600123456").unwrap().into();
        let impu: Identity = Impu::new("sip:alice@ims.example.com").unwrap().into();
        m.insert(&msisdn, loc(1, 0));
        m.insert(&impu, loc(1, 0));
        assert_eq!(m.len(), 2);
        assert_eq!(m.lookup(&msisdn), Some(loc(1, 0)));
        assert_eq!(m.lookup(&impu), Some(loc(1, 0)));
        // Same digits under a different kind don't collide.
        let imsi_same_digits = imsi("346001234560001");
        assert_eq!(m.lookup(&imsi_same_digits), None);
    }

    #[test]
    fn multiple_identities_same_subscriber() {
        let mut m = IdentityLocationMap::new();
        let l = loc(42, 3);
        m.insert(&imsi("214010000000042"), l);
        m.insert(&Msisdn::new("34600000042").unwrap().into(), l);
        assert_eq!(m.lookup(&imsi("214010000000042")), Some(l));
        assert_eq!(
            m.lookup(&Msisdn::new("34600000042").unwrap().into()),
            Some(l)
        );
    }

    /// The footprint model charges 40 B a binding in every index, whatever
    /// the host tables take.
    #[test]
    fn approx_bytes_is_forty_bytes_a_binding() {
        let mut m = IdentityLocationMap::new();
        assert_eq!(m.approx_bytes(), 0);
        for i in 0..500u64 {
            m.insert(&imsi(&format!("2140100000{i:05}")), loc(i, 0));
            m.insert(
                &Msisdn::new(format!("346{i:08}")).unwrap().into(),
                loc(i, 0),
            );
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.approx_bytes(), 40_000);
        m.remove(&imsi("214010000000007"));
        assert_eq!(m.approx_bytes(), 999 * 40);
    }

    fn bounded(max: u64) -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), Just(max), 0..=max]
    }

    proptest! {
        /// Packing then unpacking gives back every location within the
        /// bounds, both ends of each included.
        #[test]
        fn pack_then_unpack_is_the_identity(
            uid in bounded(Location::MAX_UID),
            partition in bounded(u64::from(u16::MAX)),
        ) {
            let l = loc(uid, partition as u32);
            prop_assert_eq!(Packed::new(l).get(), l);
        }
    }

    #[test]
    fn memory_grows_with_entries() {
        let mut m = IdentityLocationMap::new();
        let b0 = m.approx_bytes();
        for i in 0..1000u64 {
            m.insert(&imsi(&format!("2140100000{i:05}")), loc(i, 0));
        }
        assert!(m.approx_bytes() > b0 + 1000 * 15);
        // Symbol keys are one word each, far below owned-string cost.
        assert!(m.approx_bytes() < 1000 * 64);
    }
}
