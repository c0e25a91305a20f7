//! Property tests for the data-location stage: map fidelity, ring
//! stability and placement invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use udr_dls::{ConsistentHashRing, IdentityLocationMap, Location, PlacementContext};
use udr_model::config::PlacementPolicy;
use udr_model::identity::{Identity, IdentityKind, Impi, Impu, Imsi, Msisdn};
use udr_model::ids::{PartitionId, SubscriberUid};

fn imsi(i: u64) -> Identity {
    Imsi::new(format!("21401{i:010}")).unwrap().into()
}

/// Identity `key` of kind number `kind`. The MSISDN spells the IMSI's
/// digits, so the two share one interned symbol in different indexes.
fn identity(kind: u8, key: u64) -> Identity {
    match kind {
        0 => imsi(key),
        1 => Msisdn::new(format!("21401{key:010}")).unwrap().into(),
        2 => Impu::new(format!("sip:user{key}@ims.example.com"))
            .unwrap()
            .into(),
        _ => Impi::new(format!("user{key}@ims.example.com"))
            .unwrap()
            .into(),
    }
}

proptest! {
    /// The hashed indexes hold exactly what one ordered map per identity
    /// kind holds: insert, remove and lookup agree step by step, and at the
    /// end `len` agrees and every identity of the key space looks up what
    /// the model holds.
    #[test]
    fn maps_agree_with_an_ordered_model(
        steps in prop::collection::vec((0u8..3, 0u8..4, 0u64..48, 0u64..1000, 0u32..16), 0..300),
    ) {
        let mut map = IdentityLocationMap::new();
        let mut model: BTreeMap<(IdentityKind, &str), Location> = BTreeMap::new();
        for (op, kind, key, uid, part) in steps {
            let id = identity(kind, key);
            let k = (id.kind(), id.as_str());
            match op {
                0 => {
                    let loc = Location { uid: SubscriberUid(uid), partition: PartitionId(part) };
                    map.insert(&id, loc);
                    model.insert(k, loc);
                }
                1 => prop_assert_eq!(map.remove(&id), model.remove(&k)),
                _ => {} // look up only
            }
            prop_assert_eq!(map.lookup(&id), model.get(&k).copied());
        }
        prop_assert_eq!(map.len(), model.len());
        for kind in 0u8..4 {
            for key in 0u64..48 {
                let id = identity(kind, key);
                prop_assert_eq!(map.lookup(&id), model.get(&(id.kind(), id.as_str())).copied());
            }
        }
    }

    /// Ring lookups always land on a live partition.
    #[test]
    fn ring_stability(
        parts in prop::collection::btree_set(0u32..32, 2..10),
        keys in prop::collection::vec(0u64..100_000, 1..100),
    ) {
        let parts: Vec<PartitionId> = parts.into_iter().map(PartitionId).collect();
        let ring = ConsistentHashRing::new(parts.iter().copied(), 64);
        for k in &keys {
            prop_assert!(parts.contains(&ring.locate(&imsi(*k)).unwrap()));
        }
    }

    /// Consistent-hashing movement bound: adding a partition relocates only
    /// the keys the newcomer claims (≈ K/n of them, never a gross
    /// violation of the bound), every relocated key lands *on* the
    /// newcomer, and unmoved keys keep their partition. The property that
    /// makes ring-routed scale-out cheap (§3.5).
    #[test]
    fn ring_add_partition_movement_bound(
        n_parts in 3u32..12,
        key_base in 0u64..50_000,
    ) {
        let before = ConsistentHashRing::new((0..n_parts).map(PartitionId), 64);
        let mut after = before.clone();
        let newcomer = PartitionId(n_parts);
        after.add_partition(newcomer);

        let keys: Vec<Identity> = (0..2000u64).map(|i| imsi(key_base + i)).collect();
        let mut moved = 0usize;
        for id in &keys {
            let b = before.locate(id).unwrap();
            let a = after.locate(id).unwrap();
            if b != a {
                moved += 1;
                // Relocated keys go to the new partition, nowhere else.
                prop_assert_eq!(a, newcomer, "key moved between old partitions");
            }
        }
        // Expected movement ≈ K/(n+1); allow generous slack for hash
        // variance but reject gross violations of the bound.
        let expected = keys.len() / (n_parts as usize + 1);
        prop_assert!(moved <= expected * 3 + 40, "moved {} of {} (expected ~{})", moved, keys.len(), expected);
        prop_assert!(moved > 0, "newcomer claimed no keys");
    }

    /// Home-region placement always lands inside the region when the region
    /// hosts partitions, and placement is a pure function of (uid, region).
    #[test]
    fn placement_respects_home_region(
        uid in any::<u64>(),
        region in 0u32..4,
    ) {
        let ctx = PlacementContext::new(vec![
            vec![PartitionId(0), PartitionId(1)],
            vec![PartitionId(2)],
            vec![PartitionId(3), PartitionId(4)],
            vec![PartitionId(5)],
        ]);
        let p1 = ctx.place(PlacementPolicy::HomeRegion, SubscriberUid(uid), region).unwrap();
        let p2 = ctx.place(PlacementPolicy::HomeRegion, SubscriberUid(uid), region).unwrap();
        prop_assert_eq!(p1, p2);
        prop_assert!(ctx.in_region(region).contains(&p1));
    }
}
