//! Newtype identifiers for the moving parts of a UDR deployment.
//!
//! The topology of Figure 2 of the paper: *sites* host *blade clusters*; a
//! cluster hosts *storage elements* (SE), *LDAP servers* and one *Point of
//! Access* (PoA). Subscriber data is split into *partitions*, each further
//! split into *sub-partitions*; every SE holds the primary copy of one
//! partition and secondary copies of others.
//!
//! Maps keyed by ids the program assigns itself ([`PartitionId`],
//! [`SeId`], [`SubscriberUid`], transaction and command ids, interned
//! identity symbols) use [`IdMap`]/[`IdSet`]: no key reaches them from
//! outside the program, so they need no protection against crafted
//! collisions and take one multiply per probe instead of SipHash.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// An Fx-style hasher for ids the program assigns itself: each word is
/// folded in as `(h.rotate_left(5) ^ word) * K` with an odd `K`. An odd
/// multiplier is a bijection on every low-bit window, so dense keys stay
/// distinct in the low bits a hash table indexes by, and the multiply
/// carries them into the high bits hashbrown tags buckets with.
///
/// Not for keys that arrive from outside the program: an adversary can
/// pick colliding keys. Those maps keep the default SipHash.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by a program-assigned id, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-assigned ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A geographic site (one national/regional data centre in Figure 2).
    SiteId,
    "site"
);
id_type!(
    /// A blade cluster within a site (§3.4.1).
    ClusterId,
    "cluster"
);
id_type!(
    /// A Storage Element: 2–4 blades, shares nothing with other SEs (§3.4.1).
    SeId,
    "se"
);
id_type!(
    /// A stateless LDAP server process (§3.4.1).
    LdapServerId,
    "ldap"
);
id_type!(
    /// A Point of Access: the L4 balancer front of one cluster (§3.4.1).
    PoaId,
    "poa"
);
id_type!(
    /// A subscriber-data partition (one SE holds its primary copy, §2.3).
    PartitionId,
    "p"
);
id_type!(
    /// A sub-partition within a partition (scalability split, §2.3).
    SubPartitionId,
    "sp"
);
id_type!(
    /// An application front-end instance (HLR-FE / HSS-FE).
    FrontEndId,
    "fe"
);
id_type!(
    /// A provisioning-system instance (§2.4: "one or two PS instances").
    ProvisioningSystemId,
    "ps"
);

/// Internal unique id of a subscription inside the UDR.
///
/// Identities (IMSI/MSISDN/IMPU/IMPI) map to a `SubscriberUid` through the
/// data-location stage; the storage engine keys records by uid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SubscriberUid(pub u64);

impl SubscriberUid {
    /// The raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriberUid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// A replica of a partition living on a particular SE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReplicaId {
    /// The partition replicated.
    pub partition: PartitionId,
    /// The SE hosting this copy.
    pub se: SeId,
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.partition, self.se)
    }
}

/// Role of a replica at a point in time (§3.2: "copies are not all equal").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplicaRole {
    /// Handles all writes for its partition; defines the serialization order.
    Master,
    /// Receives replicated writes; may serve reads depending on policy.
    Slave,
}

impl fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplicaRole::Master => "master",
            ReplicaRole::Slave => "slave",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(SiteId(2).to_string(), "site2");
        assert_eq!(SeId(7).to_string(), "se7");
        assert_eq!(PartitionId(0).to_string(), "p0");
        assert_eq!(SubscriberUid(42).to_string(), "sub42");
        let r = ReplicaId {
            partition: PartitionId(1),
            se: SeId(3),
        };
        assert_eq!(r.to_string(), "p1@se3");
    }

    #[test]
    fn id_round_trips_through_index() {
        let se = SeId::from(9);
        assert_eq!(se.index(), 9);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(SeId(1) < SeId(2));
        assert!(SubscriberUid(10) < SubscriberUid(11));
    }

    /// Dense keys, and keys at an odd stride, land on distinct low 16
    /// bits: the table's bucket index never collides on them.
    #[test]
    fn id_hasher_keeps_dense_keys_distinct_in_the_low_bits() {
        use std::hash::{BuildHasher, Hash};
        let build = BuildHasherDefault::<IdHasher>::default();
        let low16 = |key: u64| build.hash_one(key) & 0xffff;
        for stride in [1u64, 3] {
            let distinct: HashSet<u64> = (0..65_536u64).map(|k| low16(k * stride)).collect();
            assert_eq!(distinct.len(), 65_536, "stride {stride}");
        }
        // Newtype ids hash as the word they wrap.
        let mut a = IdHasher::default();
        SeId(7).hash(&mut a);
        let mut b = IdHasher::default();
        7u32.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn role_display() {
        assert_eq!(ReplicaRole::Master.to_string(), "master");
        assert_eq!(ReplicaRole::Slave.to_string(), "slave");
    }
}
