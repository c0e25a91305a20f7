//! Record versions and commit records: the units the engine stores and the
//! replication layer ships.

use std::sync::Arc;

use udr_model::attrs::Entry;
use udr_model::ids::{SeId, SubscriberUid};
use udr_model::time::SimTime;

/// Log sequence number of a committed transaction on one partition replica.
///
/// LSNs start at 1 and increase by one per committed writing transaction;
/// the master's LSN order *is* the serialization order that §3.2 guarantees
/// slaves replay identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The LSN before any commit.
    pub const ZERO: Lsn = Lsn(0);

    /// The next LSN in sequence.
    #[inline]
    pub const fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }

    /// Raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// The committed state of one record: the entry (or a tombstone) plus the
/// commit metadata needed for staleness measurement and multi-master merge.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordVersion {
    /// The entry; `None` is a tombstone left by a delete.
    pub entry: Option<Entry>,
    /// LSN of the committing transaction on this replica.
    pub lsn: Lsn,
    /// Virtual commit instant at the writing master.
    pub committed_at: SimTime,
    /// The SE that served as master for the committing transaction (used as
    /// the last-writer-wins tiebreak during §5 consistency restoration).
    pub written_by: SeId,
}

/// One record-level change inside a commit.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// The record changed.
    pub uid: SubscriberUid,
    /// New value (`None` = delete).
    pub entry: Option<Entry>,
}

/// The record-level changes of one commit, read as a slice.
///
/// A commit that changes one record, which is what every modify makes,
/// holds that change inline: building it allocates nothing, and `clone`
/// bumps the entry's reference count. A commit of several records holds
/// them behind one shared allocation, built once and shared by the
/// master's log, every ship channel and every slave's log.
#[derive(Clone, PartialEq)]
pub struct Changes(Repr);

/// Exactly one change is always `One`, so equal lists are equal values.
#[derive(Clone, PartialEq)]
enum Repr {
    One(Change),
    Many(Arc<[Change]>),
}

impl From<Change> for Changes {
    fn from(change: Change) -> Self {
        Changes(Repr::One(change))
    }
}

impl FromIterator<Change> for Changes {
    /// One change is held inline; any other number is collected into one
    /// allocation, sized once when the iterator knows its length.
    fn from_iter<I: IntoIterator<Item = Change>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        match (iter.next(), iter.next()) {
            (Some(only), None) => only.into(),
            (first, second) => Changes(Repr::Many(
                first.into_iter().chain(second).chain(iter).collect(),
            )),
        }
    }
}

impl std::ops::Deref for Changes {
    type Target = [Change];

    fn deref(&self) -> &[Change] {
        match &self.0 {
            Repr::One(change) => std::slice::from_ref(change),
            Repr::Many(changes) => changes,
        }
    }
}

impl std::fmt::Debug for Changes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A committed transaction as it appears in the replication log.
///
/// `clone` copies three scalars and bumps one reference count: the entry
/// of a one-record commit, or the change list of a larger one.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Sequence number on the originating replica.
    pub lsn: Lsn,
    /// Commit instant at the master.
    pub committed_at: SimTime,
    /// Master SE that produced the record.
    pub written_by: SeId,
    /// Record-level changes, one per record, in ascending uid order.
    pub changes: Changes,
}

impl CommitRecord {
    /// Total record changes carried.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the record carries no changes.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Iterate the uids touched.
    pub fn uids(&self) -> impl Iterator<Item = SubscriberUid> + '_ {
        self.changes.iter().map(|c| c.uid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_sequence() {
        assert_eq!(Lsn::ZERO.next(), Lsn(1));
        assert_eq!(Lsn(41).next().raw(), 42);
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn(7).to_string(), "lsn:7");
    }

    #[test]
    fn commit_record_accessors() {
        let rec = CommitRecord {
            lsn: Lsn(1),
            committed_at: SimTime(10),
            written_by: SeId(0),
            changes: [
                Change {
                    uid: SubscriberUid(1),
                    entry: Some(Entry::new()),
                },
                Change {
                    uid: SubscriberUid(2),
                    entry: None,
                },
            ]
            .into_iter()
            .collect(),
        };
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
        let uids: Vec<_> = rec.uids().collect();
        assert_eq!(uids, vec![SubscriberUid(1), SubscriberUid(2)]);
    }

    #[test]
    fn one_change_is_held_inline_and_reads_like_many() {
        let change = |uid| Change {
            uid: SubscriberUid(uid),
            entry: None,
        };
        let one: Changes = std::iter::once(change(7)).collect();
        assert!(matches!(one.0, Repr::One(_)));
        assert_eq!(one, Changes::from(change(7)));
        assert_eq!(&*one, &[change(7)]);
        assert_eq!(format!("{one:?}"), format!("{:?}", [change(7)]));

        let many: Changes = (1..=3).map(change).collect();
        assert!(matches!(many.0, Repr::Many(_)));
        assert_eq!(&*many, &[change(1), change(2), change(3)]);
        assert_ne!(one, many);
        let none: Changes = std::iter::empty().collect();
        assert!(none.is_empty());
    }
}
