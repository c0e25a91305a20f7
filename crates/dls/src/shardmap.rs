//! The epoch-versioned shard map: the one partition → replica-set table.
//! It records each partition's copies, exactly one of which is master at
//! any time (§3.2: "copies are not all equal"), and is versioned so
//! distributed route caches can detect staleness.
//!
//! §3.4.2 measures the availability cost of re-synchronising
//! identity-location state after scale-out. The shard map is the other
//! half of that story: when a partition *moves* (scale-out rebalance,
//! drain of a retiring SE, hotspot relocation) or fails over, every PoA's
//! routing view becomes stale at once. Rather than blocking traffic while
//! every stage instance re-syncs, the map carries an [`Epoch`]: routes
//! resolved under an older epoch are still served, and a stale route
//! costs at most one bounce off the retired owner before the caller
//! refreshes its view — the lazy-invalidation scheme dynamic location
//! databases use for mobility-driven repartitioning.
//!
//! A replica set or master changes only through [`ShardMap::promote`]
//! (failover) and [`ShardMap::replace_member`] (migration cutover), and
//! each bumps the epoch in the same call.

use std::fmt;

use udr_model::error::{UdrError, UdrResult};
use udr_model::ids::{PartitionId, SeId};

/// A monotonically increasing version of the shard map. Every accepted
/// change bumps it; route caches compare their observed epoch against
/// the authoritative one to detect staleness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch every deployment starts at.
    pub const INITIAL: Epoch = Epoch(0);

    /// The raw counter.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The next epoch.
    #[inline]
    pub const fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The replica set of one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationGroup {
    /// Member SEs in insertion order: consensus node `i` is `members[i]`,
    /// and a replacement takes its predecessor's index.
    members: Vec<SeId>,
    master: SeId,
    /// Epoch at which the master last changed.
    master_changed_at: Epoch,
    /// The master before the last change, kept so stale routes know whom
    /// they bounced off (and simulations can charge the bounce to the
    /// right site).
    retired_master: Option<SeId>,
}

impl ReplicationGroup {
    /// The current master.
    pub fn master(&self) -> SeId {
        self.master
    }

    /// All members, in insertion order (the first is the initial master).
    pub fn members(&self) -> &[SeId] {
        &self.members
    }

    /// The slaves (everyone but the master).
    pub fn slaves(&self) -> impl Iterator<Item = SeId> + '_ {
        let master = self.master;
        self.members.iter().copied().filter(move |se| *se != master)
    }

    /// Whether `se` belongs to this group.
    pub fn contains(&self, se: SeId) -> bool {
        self.members.contains(&se)
    }

    /// Make member `se` master as of `epoch`, remembering the one it
    /// retires.
    fn hand_over(&mut self, se: SeId, epoch: Epoch) {
        self.retired_master = Some(self.master);
        self.master = se;
        self.master_changed_at = epoch;
    }
}

/// The epoch-versioned partition → replica-set table.
#[derive(Debug, Clone, Default)]
pub struct ShardMap {
    epoch: Epoch,
    /// One group per partition, indexed by [`PartitionId::index`].
    groups: Vec<ReplicationGroup>,
}

impl ShardMap {
    /// Build the initial map: partition `i` is replicated on the `i`-th
    /// set, whose first member is its master. Starts at
    /// [`Epoch::INITIAL`]. Errors on an empty set or a repeated member.
    pub fn new(replica_sets: impl IntoIterator<Item = Vec<SeId>>) -> UdrResult<Self> {
        let groups = replica_sets
            .into_iter()
            .enumerate()
            .map(|(i, members)| {
                let partition = PartitionId(i as u32);
                let Some(&master) = members.first() else {
                    return Err(UdrError::Config(format!("{partition}: empty replica set")));
                };
                if (1..members.len()).any(|j| members[..j].contains(&members[j])) {
                    return Err(UdrError::Config(format!("{partition}: duplicate members")));
                }
                Ok(ReplicationGroup {
                    members,
                    master,
                    master_changed_at: Epoch::INITIAL,
                    retired_master: None,
                })
            })
            .collect::<UdrResult<_>>()?;
        Ok(ShardMap {
            epoch: Epoch::INITIAL,
            groups,
        })
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Every partition's group, indexed by [`PartitionId::index`].
    pub fn groups(&self) -> &[ReplicationGroup] {
        &self.groups
    }

    /// One partition's group, when the partition is mapped.
    pub fn group(&self, partition: PartitionId) -> Option<&ReplicationGroup> {
        self.groups.get(partition.index())
    }

    /// Every partition with its group, in partition order.
    pub fn iter(&self) -> impl Iterator<Item = (PartitionId, &ReplicationGroup)> {
        (0..).map(PartitionId).zip(&self.groups)
    }

    /// The partitions mapped, in order.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// The master of a partition.
    pub fn master_of(&self, partition: PartitionId) -> Option<SeId> {
        self.group(partition).map(ReplicationGroup::master)
    }

    /// The full replica set of a partition, in insertion order.
    pub fn members_of(&self, partition: PartitionId) -> Option<&[SeId]> {
        self.group(partition).map(ReplicationGroup::members)
    }

    /// The master a partition had *before* its last master change (where
    /// a stale route bounces), when the master ever changed.
    pub fn retired_master(&self, partition: PartitionId) -> Option<SeId> {
        self.group(partition).and_then(|g| g.retired_master)
    }

    /// Whether routing for `partition` changed after `observed`: a view
    /// captured at `observed` would send this partition's traffic to a
    /// retired master.
    pub fn routing_changed_since(&self, partition: PartitionId, observed: Epoch) -> bool {
        self.group(partition)
            .is_some_and(|g| g.master_changed_at > observed)
    }

    /// Partitions that currently have `se` in their replica set.
    pub fn partitions_on(&self, se: SeId) -> Vec<PartitionId> {
        self.iter()
            .filter(|(_, g)| g.contains(se))
            .map(|(p, _)| p)
            .collect()
    }

    /// Replica-set slots hosted per SE over `n_ses` elements (load view
    /// for rebalancing planners). Index = `SeId::index()`.
    pub fn replicas_per_se(&self, n_ses: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_ses];
        for se in self.groups.iter().flat_map(|g| &g.members) {
            if se.index() < n_ses {
                counts[se.index()] += 1;
            }
        }
        counts
    }

    /// Promote `se` to master of `partition` (failover) and bump the
    /// epoch. Promoting the current master is a no-op. Errors, leaving
    /// the map unchanged, when `se` is not a member.
    pub fn promote(&mut self, partition: PartitionId, se: SeId) -> UdrResult<()> {
        if self.group_with(partition, se)?.master != se {
            self.epoch = self.epoch.next();
            self.groups[partition.index()].hand_over(se, self.epoch);
        }
        Ok(())
    }

    /// Swap `old` out of `partition`'s replica set for `new` at the same
    /// index (live migration cutover) and bump the epoch. When `old` was
    /// the master, `new` inherits mastership — exactly like a failover,
    /// because to every route cache it *is* one. Errors, leaving the map
    /// unchanged, when `old` is not a member or `new` already is.
    pub fn replace_member(
        &mut self,
        partition: PartitionId,
        old: SeId,
        new: SeId,
    ) -> UdrResult<()> {
        let group = self.group_with(partition, old)?;
        if group.contains(new) {
            return Err(UdrError::Config(format!(
                "{new} is already a member of {partition}'s replica set"
            )));
        }
        let slot = group.members.iter().position(|se| *se == old);
        self.epoch = self.epoch.next();
        let group = &mut self.groups[partition.index()];
        group.members[slot.expect("checked member")] = new;
        if group.master == old {
            group.hand_over(new, self.epoch);
        }
        Ok(())
    }

    /// `partition`'s group, when `se` is one of its members.
    fn group_with(&self, partition: PartitionId, se: SeId) -> UdrResult<&ReplicationGroup> {
        self.group(partition)
            .filter(|g| g.contains(se))
            .ok_or_else(|| {
                UdrError::Config(format!("{se} is not a member of {partition}'s replica set"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);
    const P2: PartitionId = PartitionId(2);

    fn map() -> ShardMap {
        ShardMap::new([
            vec![SeId(0), SeId(1)],
            vec![SeId(1), SeId(2)],
            vec![SeId(2), SeId(0)],
        ])
        .unwrap()
    }

    #[test]
    fn initial_map_is_epoch_zero() {
        let m = map();
        assert_eq!(m.epoch(), Epoch::INITIAL);
        assert_eq!(m.master_of(P1), Some(SeId(1)));
        assert_eq!(m.members_of(P2).unwrap(), &[SeId(2), SeId(0)][..]);
        assert_eq!(m.partitions().collect::<Vec<_>>(), vec![P0, P1, P2]);
        assert!(!m.routing_changed_since(P0, Epoch::INITIAL));
        assert_eq!(m.master_of(PartitionId(3)), None);
    }

    #[test]
    fn first_member_is_master() {
        let m = ShardMap::new([vec![SeId(0), SeId(1), SeId(2)]]).unwrap();
        let g = m.group(P0).unwrap();
        assert_eq!(g.master(), SeId(0));
        assert_eq!(g.slaves().collect::<Vec<_>>(), vec![SeId(1), SeId(2)]);
    }

    #[test]
    fn empty_or_duplicate_members_rejected() {
        assert!(ShardMap::new([vec![]]).is_err());
        assert!(ShardMap::new([vec![SeId(0)], vec![SeId(1), SeId(1)]]).is_err());
    }

    #[test]
    fn reassign_bumps_epoch_and_tracks_retired_master() {
        let mut m = map();
        m.replace_member(P0, SeId(0), SeId(3)).unwrap();
        let e1 = m.epoch();
        assert_eq!(e1, Epoch(1));
        assert_eq!(m.master_of(P0), Some(SeId(3)));
        assert_eq!(m.members_of(P0).unwrap(), &[SeId(3), SeId(1)][..]);
        assert_eq!(m.retired_master(P0), Some(SeId(0)));
        // A view captured before the move is stale for p0 but not p1.
        assert!(m.routing_changed_since(P0, Epoch::INITIAL));
        assert!(!m.routing_changed_since(P1, Epoch::INITIAL));
        // A refreshed view is not stale.
        assert!(!m.routing_changed_since(P0, e1));
    }

    #[test]
    fn slave_swap_bumps_epoch_but_not_routing() {
        let mut m = map();
        m.replace_member(P1, SeId(2), SeId(3)).unwrap();
        assert_eq!(m.epoch(), Epoch(1));
        // Master unchanged: old views still route correctly.
        assert!(!m.routing_changed_since(P1, Epoch::INITIAL));
        assert_eq!(m.retired_master(P1), None);
    }

    #[test]
    fn promote_bumps_epoch() {
        let mut m = ShardMap::new([vec![SeId(0), SeId(1), SeId(2)]]).unwrap();
        m.promote(P0, SeId(2)).unwrap();
        assert_eq!(m.epoch(), Epoch(1));
        assert_eq!(m.master_of(P0), Some(SeId(2)));
        assert_eq!(m.retired_master(P0), Some(SeId(0)));
        // Promotion keeps the member order: node `i` stays `members()[i]`.
        assert_eq!(m.members_of(P0).unwrap(), &[SeId(0), SeId(1), SeId(2)][..]);
        // Promoting the current master is a no-op.
        m.promote(P0, SeId(2)).unwrap();
        assert_eq!(m.epoch(), Epoch(1));
        // Non-members and unmapped partitions are rejected.
        assert!(m.promote(P0, SeId(9)).is_err());
        assert!(m.promote(P1, SeId(0)).is_err());
        assert_eq!(m.epoch(), Epoch(1));
    }

    #[test]
    fn replace_member_hands_over_mastership() {
        let mut m = ShardMap::new([vec![SeId(0), SeId(1), SeId(2)]]).unwrap();
        // Replacing a slave: membership changes, mastership does not.
        m.replace_member(P0, SeId(1), SeId(5)).unwrap();
        let g = m.group(P0).unwrap();
        assert_eq!(g.master(), SeId(0));
        assert!(g.contains(SeId(5)) && !g.contains(SeId(1)));
        // Replacing the master: the newcomer inherits it.
        m.replace_member(P0, SeId(0), SeId(6)).unwrap();
        assert_eq!(m.master_of(P0), Some(SeId(6)));
        assert_eq!(m.members_of(P0).unwrap(), &[SeId(6), SeId(5), SeId(2)][..]);
        assert_eq!(m.epoch(), Epoch(2));
        // Invalid swaps are rejected.
        assert!(m.replace_member(P0, SeId(0), SeId(9)).is_err()); // old gone
        assert!(m.replace_member(P0, SeId(2), SeId(5)).is_err()); // new present
        assert_eq!(m.epoch(), Epoch(2));
    }

    #[test]
    fn load_views_follow_reassignment() {
        let mut m = map();
        assert_eq!(m.replicas_per_se(4), vec![2, 2, 2, 0]);
        assert_eq!(m.partitions_on(SeId(0)), vec![P0, P2]);
        m.replace_member(P2, SeId(2), SeId(3)).unwrap();
        assert_eq!(m.replicas_per_se(4), vec![2, 2, 1, 1]);
        assert_eq!(m.partitions_on(SeId(3)), vec![P2]);
    }

    #[test]
    fn epochs_are_ordered_and_display() {
        assert!(Epoch(1) < Epoch(2));
        assert_eq!(Epoch(3).next(), Epoch(4));
        assert_eq!(Epoch(7).to_string(), "e7");
    }

    /// One call against the table: a promotion, or a swap of `old` for
    /// `new`. SEs range over 0..6 so many calls name a non-member (or an
    /// existing one) and must be refused.
    #[derive(Debug, Clone)]
    enum Call {
        Promote { partition: u32, se: u32 },
        Replace { partition: u32, old: u32, new: u32 },
    }

    fn call() -> impl Strategy<Value = Call> {
        prop_oneof![
            (0..3u32, 0..6u32).prop_map(|(partition, se)| Call::Promote { partition, se }),
            (0..3u32, 0..6u32, 0..6u32).prop_map(|(partition, old, new)| Call::Replace {
                partition,
                old,
                new
            }),
        ]
    }

    /// The plain model: per partition its members (replaced in place), its
    /// master, the epoch of its last master change and the master before.
    struct Model {
        epoch: u64,
        members: Vec<Vec<u32>>,
        master: Vec<u32>,
        changed_at: Vec<u64>,
        retired: Vec<Option<u32>>,
    }

    proptest! {
        #[test]
        fn table_matches_a_plain_model(calls in proptest::collection::vec(call(), 0..40)) {
            let sets = [vec![0, 1, 2], vec![1, 2], vec![2, 0, 3]];
            let mut m = ShardMap::new(sets.iter().map(|s| s.iter().copied().map(SeId).collect()))
                .unwrap();
            let mut model = Model {
                epoch: 0,
                members: sets.to_vec(),
                master: sets.iter().map(|s| s[0]).collect(),
                changed_at: vec![0; 3],
                retired: vec![None; 3],
            };
            for call in calls {
                let (accepted, result) = match call {
                    Call::Promote { partition, se } => {
                        let p = partition as usize;
                        let accepted = model.members[p].contains(&se);
                        if accepted && model.master[p] != se {
                            model.epoch += 1;
                            model.retired[p] = Some(model.master[p]);
                            model.master[p] = se;
                            model.changed_at[p] = model.epoch;
                        }
                        (accepted, m.promote(PartitionId(partition), SeId(se)))
                    }
                    Call::Replace { partition, old, new } => {
                        let p = partition as usize;
                        let members = &mut model.members[p];
                        let accepted = members.contains(&old) && !members.contains(&new);
                        if accepted {
                            model.epoch += 1;
                            *members.iter_mut().find(|se| **se == old).unwrap() = new;
                            if model.master[p] == old {
                                model.retired[p] = Some(old);
                                model.master[p] = new;
                                model.changed_at[p] = model.epoch;
                            }
                        }
                        let result = m.replace_member(PartitionId(partition), SeId(old), SeId(new));
                        (accepted, result)
                    }
                };
                // Refused calls leave the epoch alone; each accepted
                // change bumps it by exactly one (the model's count).
                prop_assert_eq!(accepted, result.is_ok());
                prop_assert_eq!(m.epoch(), Epoch(model.epoch));
                for (q, g) in m.iter() {
                    let i = q.index();
                    let members: Vec<u32> = g.members().iter().map(|se| se.0).collect();
                    // Same members at the same indices as the model.
                    prop_assert_eq!(&members, &model.members[i]);
                    // Distinct, and the master is one of them.
                    for (j, se) in members.iter().enumerate() {
                        prop_assert!(!members[..j].contains(se));
                    }
                    prop_assert!(g.contains(g.master()));
                    prop_assert_eq!(g.master(), SeId(model.master[i]));
                    prop_assert_eq!(m.retired_master(q), model.retired[i].map(SeId));
                    for e in 0..=model.epoch {
                        prop_assert_eq!(
                            m.routing_changed_since(q, Epoch(e)),
                            model.changed_at[i] > e
                        );
                    }
                }
            }
        }
    }
}
