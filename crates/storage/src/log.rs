//! The per-replica commit log.
//!
//! The master's log is the replication stream (§3.2: replication "guarantees
//! the serialization order of writes replicated to any slave copy is exactly
//! the same as that imposed by the master copy"); slaves keep a log too so
//! cascading reads and merge procedures can inspect history.
//!
//! A log only has to reach back as far as some up reader can still ask: a
//! ship channel, a slave's or a migration target's, re-shipping what its
//! copy has not confirmed, or an up copy that may master the partition
//! next. A copy that restores
//! from a disk image older than the log is reseeded from the master's
//! snapshot instead (§3.1 decision 1: a crash loses only what came after
//! the last save, and the copy takes its peer's state). The deployment's
//! catch-up tick truncates every log behind its slowest such reader
//! ([`CommitLog::truncate_through`]), and the segments a truncation empties
//! are kept for the appends that follow, so a log that is truncated as fast
//! as it grows stops asking the allocator for segments.

use crate::version::{CommitRecord, Lsn};

/// Records per segment of a [`CommitLog`].
const SEGMENT: usize = 4096;

/// An append-only, truncatable sequence of [`CommitRecord`]s.
///
/// Records are stored in segments of 4 096 records, oldest first. The first
/// segment grows by doubling, so a short log stays small; once it is full,
/// each later segment is allocated at its full size when the one before it
/// fills. An append therefore never copies the records before it, and a
/// long log costs one allocation per 4 096 appends. `base` is the LSN of
/// the first retained record.
///
/// Truncation drops the oldest records and keeps each segment it empties as
/// a spare, emptied but with its capacity; an append that needs a new
/// segment takes a spare before it allocates one. The spares are only ever
/// segments this log itself released, so a log never holds more segments,
/// retained and spare together, than it did at its longest.
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    /// The first `live` segments hold the retained records, oldest first,
    /// and none of them is empty; the rest are empty spares.
    segments: Vec<Vec<CommitRecord>>,
    /// How many segments hold records.
    live: usize,
    /// LSN of the first retained record; valid only when the log is
    /// non-empty.
    base: Lsn,
    last: Lsn,
}

impl CommitLog {
    /// An empty log starting at LSN 1.
    pub fn new() -> Self {
        CommitLog::starting_after(Lsn::ZERO)
    }

    /// An empty log that continues after `last` (used when restoring a
    /// replica from a snapshot taken at `last`).
    pub fn starting_after(last: Lsn) -> Self {
        CommitLog {
            segments: Vec::new(),
            live: 0,
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
        if self.live == 0 || self.segments[self.live - 1].len() == SEGMENT {
            if self.live == self.segments.len() {
                // No spare left: allocate, the first segment empty so that
                // it grows by doubling.
                let room = if self.live == 0 { 0 } else { SEGMENT };
                self.segments.push(Vec::with_capacity(room));
            }
            self.live += 1;
        }
        self.segments[self.live - 1].push(record);
    }

    /// Fetch a record by LSN, if still retained.
    pub fn get(&self, lsn: Lsn) -> Option<&CommitRecord> {
        if lsn < self.base || lsn > self.last {
            return None;
        }
        self.iter().nth((lsn.0 - self.base.0) as usize)
    }

    /// All retained records with LSN strictly greater than `after`, in
    /// order. Finding the first costs a step per segment, not per record.
    pub fn since(&self, after: Lsn) -> impl Iterator<Item = &CommitRecord> {
        self.iter()
            .skip((after.0 + 1).saturating_sub(self.base.0) as usize)
    }

    /// Drop every record with LSN ≤ `upto`; an `upto` past the last record
    /// drops them all and the next append still takes `last_lsn().next()`.
    /// Each segment this empties becomes a spare for later appends; a
    /// segment it only shortens keeps its remaining records in place.
    pub fn truncate_through(&mut self, upto: Lsn) {
        let upto = upto.min(self.last);
        if upto < self.base {
            return;
        }
        let mut drop = (upto.0 + 1 - self.base.0) as usize;
        let mut emptied = 0;
        while emptied < self.live && self.segments[emptied].len() <= drop {
            drop -= self.segments[emptied].len();
            self.segments[emptied].clear();
            emptied += 1;
        }
        // The emptied segments move behind the retained ones, among the
        // spares; no segment is allocated or freed.
        self.segments[..self.live].rotate_left(emptied);
        self.live -= emptied;
        if drop > 0 {
            self.segments[0].drain(..drop);
        }
        self.base = upto.next();
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.segments[..self.live].iter().map(Vec::len).sum()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// LSN of the oldest retained record, if any.
    pub fn first_retained(&self) -> Option<Lsn> {
        (!self.is_empty()).then_some(self.base)
    }

    /// Iterate all retained records in order.
    pub fn iter(&self) -> impl Iterator<Item = &CommitRecord> {
        self.segments[..self.live].iter().flatten()
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
    use udr_model::ids::{SeId, SubscriberUid};
    use udr_model::time::SimTime;

    fn rec(lsn: u64) -> CommitRecord {
        CommitRecord {
            lsn: Lsn(lsn),
            committed_at: SimTime(lsn * 10),
            written_by: SeId(0),
            changes: Change {
                uid: SubscriberUid(lsn),
                entry: None,
            }
            .into(),
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
        let tail: Vec<Lsn> = log.since(Lsn(3)).map(|r| r.lsn).collect();
        assert_eq!(tail, vec![Lsn(4), Lsn(5)]);
        assert_eq!(log.since(Lsn(5)).count(), 0);
        assert_eq!(log.since(Lsn(9)).count(), 0);
        assert_eq!(log.since(Lsn::ZERO).count(), 5);
    }

    /// Assert that `log` holds exactly LSNs `first..=last`, read three ways.
    fn assert_holds(log: &CommitLog, first: u64, last: u64) {
        let want: Vec<Lsn> = (first..=last).map(Lsn).collect();
        assert_eq!(log.iter().map(|r| r.lsn).collect::<Vec<_>>(), want);
        assert_eq!(log.len(), want.len());
        for &lsn in &want {
            assert_eq!(log.get(lsn).map(|r| r.lsn), Some(lsn));
            assert_eq!(log.since(Lsn(lsn.0 - 1)).next().map(|r| r.lsn), Some(lsn));
        }
        assert_eq!(log.get(Lsn(last + 1)), None);
    }

    #[test]
    fn a_long_log_is_segments_that_read_as_one_sequence() {
        let total = 2 * SEGMENT as u64 + 10;
        let mut log = CommitLog::new();
        for i in 1..=total {
            log.append(rec(i));
        }
        assert_eq!(log.segments.len(), 3);
        assert!(log.segments.iter().skip(1).all(|s| s.capacity() == SEGMENT));
        assert_holds(&log, 1, total);

        // Truncating inside the first segment, then past it.
        log.truncate_through(Lsn(100));
        assert_eq!(log.first_retained(), Some(Lsn(101)));
        assert_holds(&log, 101, total);
        log.truncate_through(Lsn(SEGMENT as u64 + 1));
        assert_eq!(log.live, 2);
        assert_holds(&log, SEGMENT as u64 + 2, total);
        log.append(rec(total + 1));
        assert_holds(&log, SEGMENT as u64 + 2, total + 1);
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
        assert_eq!(log.since(Lsn(4)).count(), 2);
        assert_eq!(log.since(Lsn(2)).count(), 2);
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

    /// Regression: truncating through an LSN past the last record used to
    /// move `base` past it too, so the next append was unreadable and the
    /// log reported a gap in front of it.
    #[test]
    fn truncating_past_the_last_record_keeps_the_next_append() {
        let mut log = CommitLog::new();
        for i in 1..=3 {
            log.append(rec(i));
        }
        log.truncate_through(Lsn(10));
        assert!(log.is_empty());
        assert_eq!(log.last_lsn(), Lsn(3));
        log.append(rec(4));
        assert_eq!(log.get(Lsn(4)).map(|r| r.lsn), Some(Lsn(4)));
        assert_eq!(log.first_retained(), Some(Lsn(4)));
        assert_holds(&log, 4, 4);
    }

    #[test]
    fn an_append_after_a_truncation_reuses_the_emptied_segment() {
        // The first segment, emptied while still growing, comes back as
        // the next first segment with the room it had.
        let mut log = CommitLog::new();
        for i in 1..=100 {
            log.append(rec(i));
        }
        let (first, room) = (log.segments[0].as_ptr(), log.segments[0].capacity());
        log.truncate_through(Lsn(100));
        log.append(rec(101));
        assert_eq!(log.segments[0].as_ptr(), first);
        assert_eq!(log.segments[0].capacity(), room);
        assert_eq!(log.segments.len(), 1);

        // Full segments emptied by one truncation are taken in turn, at
        // their full size, before anything is allocated.
        let s = SEGMENT as u64;
        let mut log = CommitLog::new();
        for i in 1..=3 * s {
            log.append(rec(i));
        }
        let full: Vec<_> = log.segments.iter().map(|s| s.as_ptr()).collect();
        assert_eq!(full.len(), 3);
        log.truncate_through(Lsn(2 * s + 5));
        assert_eq!((log.live, log.segments.len()), (1, 3));
        assert_holds(&log, 2 * s + 6, 3 * s);
        for i in 3 * s + 1..=5 * s {
            log.append(rec(i));
        }
        let reused: Vec<_> = log.segments.iter().map(|s| s.as_ptr()).collect();
        assert_eq!(reused, [full[2], full[0], full[1]]);
        assert!(log.segments.iter().all(|s| s.capacity() == SEGMENT));
        assert_holds(&log, 2 * s + 6, 5 * s);
    }
}
