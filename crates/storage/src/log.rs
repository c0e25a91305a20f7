//! The per-replica commit log.
//!
//! The master's log is the replication stream (§3.2: replication "guarantees
//! the serialization order of writes replicated to any slave copy is exactly
//! the same as that imposed by the master copy"); slaves keep a log too so
//! cascading reads and merge procedures can inspect history.

use crate::version::{CommitRecord, Lsn};

/// An append-only, truncatable sequence of [`CommitRecord`]s.
///
/// Records are stored contiguously; `base` is the LSN of the first retained
/// record. Truncation models snapshot-based log reclaim.
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    records: Vec<CommitRecord>,
    /// LSN of `records[0]`; valid only when `records` is non-empty.
    base: Lsn,
    last: Lsn,
}

impl CommitLog {
    /// An empty log starting at LSN 1.
    pub fn new() -> Self {
        CommitLog {
            records: Vec::new(),
            base: Lsn(1),
            last: Lsn::ZERO,
        }
    }

    /// An empty log that continues after `last` (used when restoring a
    /// replica from a snapshot taken at `last`).
    pub fn starting_after(last: Lsn) -> Self {
        CommitLog {
            records: Vec::new(),
            base: last.next(),
            last,
        }
    }

    /// LSN of the most recent record (ZERO when nothing ever committed).
    pub fn last_lsn(&self) -> Lsn {
        self.last
    }

    /// Append a record; its LSN must be exactly `last_lsn().next()`.
    ///
    /// # Panics
    /// Panics on LSN gaps or regressions — those are engine bugs, not
    /// runtime conditions.
    pub fn append(&mut self, record: CommitRecord) {
        assert_eq!(
            record.lsn,
            self.last.next(),
            "log append out of order: got {}, expected {}",
            record.lsn,
            self.last.next()
        );
        self.last = record.lsn;
        self.records.push(record);
    }

    /// Fetch a record by LSN, if still retained.
    pub fn get(&self, lsn: Lsn) -> Option<&CommitRecord> {
        if lsn < self.base || lsn > self.last {
            return None;
        }
        self.records.get((lsn.0 - self.base.0) as usize)
    }

    /// All retained records with LSN strictly greater than `after`.
    pub fn since(&self, after: Lsn) -> &[CommitRecord] {
        if after >= self.last {
            return &[];
        }
        let from = after.max(self.base.0.saturating_sub(1).into());
        let idx = (from.0 + 1).saturating_sub(self.base.0) as usize;
        &self.records[idx.min(self.records.len())..]
    }

    /// Drop all records with LSN ≤ `upto` (snapshot-based reclaim).
    pub fn truncate_through(&mut self, upto: Lsn) {
        if upto < self.base {
            return;
        }
        let keep_from = ((upto.0 + 1).saturating_sub(self.base.0) as usize).min(self.records.len());
        self.records.drain(..keep_from);
        self.base = upto.next();
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// LSN of the oldest retained record, if any.
    pub fn first_retained(&self) -> Option<Lsn> {
        (!self.records.is_empty()).then_some(self.base)
    }

    /// Iterate all retained records in order.
    pub fn iter(&self) -> impl Iterator<Item = &CommitRecord> {
        self.records.iter()
    }
}

impl From<u64> for Lsn {
    fn from(v: u64) -> Self {
        Lsn(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Change;
    use std::sync::Arc;
    use udr_model::ids::{SeId, SubscriberUid};
    use udr_model::time::SimTime;

    fn rec(lsn: u64) -> CommitRecord {
        CommitRecord {
            lsn: Lsn(lsn),
            committed_at: SimTime(lsn * 10),
            written_by: SeId(0),
            changes: Arc::new([Change {
                uid: SubscriberUid(lsn),
                entry: None,
            }]),
        }
    }

    #[test]
    fn append_in_sequence() {
        let mut log = CommitLog::new();
        assert_eq!(log.last_lsn(), Lsn::ZERO);
        log.append(rec(1));
        log.append(rec(2));
        assert_eq!(log.last_lsn(), Lsn(2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(Lsn(1)).unwrap().lsn, Lsn(1));
        assert_eq!(log.get(Lsn(3)), None);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn gap_panics() {
        let mut log = CommitLog::new();
        log.append(rec(2));
    }

    #[test]
    fn since_returns_suffix() {
        let mut log = CommitLog::new();
        for i in 1..=5 {
            log.append(rec(i));
        }
        let tail = log.since(Lsn(3));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].lsn, Lsn(4));
        assert!(log.since(Lsn(5)).is_empty());
        assert!(log.since(Lsn(9)).is_empty());
        assert_eq!(log.since(Lsn::ZERO).len(), 5);
    }

    #[test]
    fn truncate_keeps_tail() {
        let mut log = CommitLog::new();
        for i in 1..=6 {
            log.append(rec(i));
        }
        log.truncate_through(Lsn(4));
        assert_eq!(log.len(), 2);
        assert_eq!(log.first_retained(), Some(Lsn(5)));
        assert_eq!(log.get(Lsn(4)), None);
        assert_eq!(log.get(Lsn(5)).unwrap().lsn, Lsn(5));
        // since() after truncation still works for retained range.
        assert_eq!(log.since(Lsn(4)).len(), 2);
        // Appending continues from the last LSN.
        log.append(rec(7));
        assert_eq!(log.last_lsn(), Lsn(7));
    }

    #[test]
    fn truncate_below_base_is_noop() {
        let mut log = CommitLog::new();
        for i in 1..=3 {
            log.append(rec(i));
        }
        log.truncate_through(Lsn(2));
        log.truncate_through(Lsn(1));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn starting_after_continues_sequence() {
        let mut log = CommitLog::starting_after(Lsn(10));
        assert_eq!(log.last_lsn(), Lsn(10));
        assert!(log.get(Lsn(10)).is_none());
        log.append(rec(11));
        assert_eq!(log.get(Lsn(11)).unwrap().lsn, Lsn(11));
    }

    #[test]
    fn truncate_everything() {
        let mut log = CommitLog::new();
        for i in 1..=3 {
            log.append(rec(i));
        }
        log.truncate_through(Lsn(3));
        assert!(log.is_empty());
        assert_eq!(log.first_retained(), None);
        log.append(rec(4));
        assert_eq!(log.len(), 1);
    }
}
