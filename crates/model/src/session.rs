//! Terry-style session guarantees: the client-side state that makes
//! [`ReadPolicy::SessionConsistent`](crate::config::ReadPolicy) work.
//!
//! A session token travels with every operation of one logical client
//! session (one subscriber's front-end interactions, one provisioning
//! batch, …). It records, per partition, the highest log position the
//! session has *written* and the highest it has *observed* on a read.
//! Together the two floors encode the classic session guarantees:
//!
//! * **read-your-writes** — a read may only be served by a copy whose
//!   applied LSN has reached the session's write floor;
//! * **monotonic reads** — a read may only be served by a copy at least as
//!   fresh as the freshest state any previous read of this session saw.
//!
//! LSNs are carried as raw `u64`s ([`RawLsn`]) so this crate stays
//! dependency-light; `udr-storage`'s `Lsn` wraps the same integer.
//!
//! **Lineage caveat:** floors compare positions on one master lineage.
//! A failover that discards unreplicated commits (the paper's §4.2
//! durability gap) starts a new lineage that reuses LSN numbers, so a
//! copy can satisfy a floor numerically while missing the discarded
//! write — session guarantees are as durable as the writes themselves.
//! For the same reason `FrashConfig::validate` rejects the guarded read
//! policies under multi-master replication, where branches diverge by
//! design.

use std::collections::BTreeMap;

use crate::ids::PartitionId;

/// A raw log sequence number as carried in session tokens. Mirrors
/// `udr_storage::Lsn` without the dependency; `0` means "nothing observed".
pub type RawLsn = u64;

/// Per-session consistency state: a per-partition high-water LSN vector
/// for the session's own writes plus the last-read LSN per partition.
///
/// Tokens are cheap (two small ordered maps, entries only for partitions
/// the session touched) and merge monotonically, so they can be handed
/// between front-ends when a subscriber's signalling moves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionToken {
    /// Highest LSN of a write this session committed, per partition.
    writes: BTreeMap<PartitionId, RawLsn>,
    /// Highest applied LSN any read of this session observed, per
    /// partition.
    reads: BTreeMap<PartitionId, RawLsn>,
}

impl SessionToken {
    /// A fresh token with no observations: every read qualifies.
    pub fn new() -> Self {
        SessionToken::default()
    }

    /// Record a committed write of this session at `lsn` on `partition`.
    /// Floors only ever rise; a stale confirmation is ignored.
    pub fn observe_write(&mut self, partition: PartitionId, lsn: RawLsn) {
        let slot = self.writes.entry(partition).or_insert(0);
        *slot = (*slot).max(lsn);
    }

    /// Record that a read of this session was served from a copy whose
    /// applied LSN on `partition` was `lsn`. Floors only ever rise.
    pub fn observe_read(&mut self, partition: PartitionId, lsn: RawLsn) {
        let slot = self.reads.entry(partition).or_insert(0);
        *slot = (*slot).max(lsn);
    }

    /// The read-your-writes floor: highest LSN this session wrote on
    /// `partition` (0 when it never wrote there).
    pub fn write_floor(&self, partition: PartitionId) -> RawLsn {
        self.writes.get(&partition).copied().unwrap_or(0)
    }

    /// The monotonic-reads floor: highest applied LSN a read of this
    /// session observed on `partition` (0 when it never read there).
    pub fn read_floor(&self, partition: PartitionId) -> RawLsn {
        self.reads.get(&partition).copied().unwrap_or(0)
    }

    /// The combined floor a serving copy must have applied for the next
    /// read on `partition` to satisfy both session guarantees.
    pub fn required_lsn(&self, partition: PartitionId) -> RawLsn {
        self.write_floor(partition).max(self.read_floor(partition))
    }

    /// Whether the token carries no observations at all (any copy
    /// qualifies everywhere).
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty() && self.reads.is_empty()
    }

    /// Fold another token's floors into this one (session hand-off between
    /// front-ends: the union is safe because floors are monotone).
    pub fn merge(&mut self, other: &SessionToken) {
        for (p, lsn) in &other.writes {
            self.observe_write(*p, *lsn);
        }
        for (p, lsn) in &other.reads {
            self.observe_read(*p, *lsn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);

    #[test]
    fn fresh_token_requires_nothing() {
        let t = SessionToken::new();
        assert!(t.is_empty());
        assert_eq!(t.required_lsn(P0), 0);
    }

    #[test]
    fn floors_rise_monotonically() {
        let mut t = SessionToken::new();
        t.observe_write(P0, 5);
        t.observe_write(P0, 3); // stale confirmation: ignored
        t.observe_read(P0, 9);
        t.observe_read(P0, 7);
        assert_eq!(t.write_floor(P0), 5);
        assert_eq!(t.read_floor(P0), 9);
        assert_eq!(t.required_lsn(P0), 9);
        assert!(!t.is_empty());
    }

    #[test]
    fn floors_are_per_partition() {
        let mut t = SessionToken::new();
        t.observe_write(P0, 10);
        t.observe_read(P1, 4);
        assert_eq!(t.required_lsn(P0), 10);
        assert_eq!(t.required_lsn(P1), 4);
    }

    #[test]
    fn merge_takes_the_maximum_floor() {
        let mut a = SessionToken::new();
        a.observe_write(P0, 5);
        a.observe_read(P1, 2);
        let mut b = SessionToken::new();
        b.observe_write(P0, 3);
        b.observe_read(P1, 8);
        a.merge(&b);
        assert_eq!(a.write_floor(P0), 5);
        assert_eq!(a.read_floor(P1), 8);
    }
}
