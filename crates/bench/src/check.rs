//! The deployment's write checker. A caller writes *markers*, one
//! `OdbMask` value per write, increasing per subscriber, and [`Markers`]
//! keeps each subscriber's last acknowledged and last issued one. Once
//! the run settles, one rule judges them against the committed copy at
//! the partition's authoritative master ([`committed_value`]): a marker
//! is lost when that copy is missing or holds a value outside
//! `[acknowledged, issued]` — below, an acknowledged write vanished
//! (§3.3.1, §2.4); above, the caller never wrote it. Where every write is
//! acknowledged the bounds meet and the rule is exact equality.
//! [`stray_copies`] finds the duplicates a botched hand-off leaves: copies
//! hosted outside their partition's replica set.

use udr_core::Udr;
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::identity::Identity;
use udr_model::ids::{PartitionId, SeId, SiteId};
use udr_model::time::SimTime;

use crate::harness::PsRetry;

/// The `OdbMask` value the committed copy of `identity`'s record holds
/// at its partition's authoritative master; `None` when the binding, the
/// master or the record is missing.
pub fn committed_value(udr: &Udr, identity: &Identity) -> Option<u64> {
    let loc = udr.lookup_authority(identity)?;
    let master = udr.shard_map().master_of(loc.partition)?;
    let entry = udr
        .se(master)
        .read_committed(loc.partition, loc.uid)
        .ok()??;
    entry.get(AttrId::OdbMask).and_then(AttrValue::as_u64)
}

/// Every copy of a partition hosted on an SE outside the partition's
/// replica set, as `(partition, SE)`.
pub fn stray_copies(udr: &Udr) -> Vec<(PartitionId, SeId)> {
    let mut stray = Vec::new();
    for partition in udr.shard_map().partitions() {
        let members = udr.shard_map().members_of(partition).unwrap_or(&[]);
        for i in 0..udr.se_count() {
            let se = udr.se(SeId(i as u32));
            if se.partitions().any(|p| p == partition) && !members.contains(&se.id()) {
                stray.push((partition, se.id()));
            }
        }
    }
    stray
}

/// One subscriber's last acknowledged marker and last issued one.
#[derive(Debug, Clone, Copy)]
struct Mark {
    identity: Identity,
    acked: Option<u64>,
    issued: u64,
}

/// Per subscriber, the last acknowledged marker and the last issued one.
/// Subscribers are numbered by their position in the list the markers
/// were made from.
#[derive(Debug, Clone)]
pub struct Markers {
    marks: Vec<Mark>,
}

impl Markers {
    /// No marker yet for any of `identities`.
    pub fn new(identities: impl IntoIterator<Item = Identity>) -> Self {
        let mark = |identity| Mark {
            identity,
            acked: None,
            issued: 0,
        };
        Markers {
            marks: identities.into_iter().map(mark).collect(),
        }
    }

    /// Record that marker `value` was issued to subscriber `subscriber`,
    /// and whether it was acknowledged. The window rule needs values that
    /// increase per subscriber; a caller that records only acknowledged
    /// markers may use any values, and gets exact equality.
    pub fn issue(&mut self, subscriber: usize, value: u64, acked: bool) {
        let mark = &mut self.marks[subscriber];
        mark.issued = value;
        if acked {
            mark.acked = Some(value);
        }
    }

    /// Each subscriber's last acknowledged marker, in subscriber order;
    /// subscribers with none are skipped.
    pub fn acked(&self) -> impl Iterator<Item = u64> + '_ {
        self.marks.iter().filter_map(|m| m.acked)
    }

    /// Every subscriber whose acknowledged marker is lost: its master's
    /// committed value is missing or lies outside `[acknowledged,
    /// issued]`. Subscribers with no acknowledged marker are not judged.
    pub fn lost(&self, udr: &Udr) -> Vec<Identity> {
        let window = |m: &&Mark| {
            m.acked.is_some_and(|acked| {
                committed_value(udr, &m.identity).is_none_or(|v| v < acked || v > m.issued)
            })
        };
        self.marks
            .iter()
            .filter(window)
            .map(|m| m.identity)
            .collect()
    }
}

/// Write one marker per subscriber from the PS at site 0, in order from
/// `at`: subscriber `i` gets `first + i`, under `retry`. Every marker
/// comes back acknowledged: a hard failure or a spent budget panics.
pub fn write_markers(
    udr: &mut Udr,
    identities: &[Identity],
    first: u64,
    mut at: SimTime,
    retry: PsRetry,
) -> Markers {
    let mut markers = Markers::new(identities.iter().copied());
    for (i, identity) in identities.iter().enumerate() {
        let value = first + i as u64;
        let (result, _) = retry.run(&mut at, |at| {
            let mods = vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(value))];
            udr.modify_services(identity, mods, SiteId(0), at).result
        });
        if let Err(e) = result {
            panic!("marker write {i} failed: {e}");
        }
        markers.issue(i, value, true);
    }
    markers
}
