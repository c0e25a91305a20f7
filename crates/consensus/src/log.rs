//! The chosen log: what consensus has decided, in slot order.
//!
//! Unlike the master/slave [`udr_replication`] log — whose content can
//! diverge across branches during a partition and needs the §5 restoration
//! merge — the chosen log is *the* agreement artifact: every replica's copy
//! is a prefix-consistent view of one immutable sequence. [`ChosenLog::record`]
//! checks that invariant on every learn and reports a violation instead of
//! silently overwriting, so the test suite can assert agreement directly.
//!
//! Decisions are stored by slot number in fixed segments of 256 slots
//! (≈ 10 KB each): slot `s` lives at index `(s − 1) % 256` of segment
//! `(s − 1) / 256`. A segment is allocated at its full length the first time
//! one of its slots is chosen and is never reallocated, so choosing a slot
//! costs no allocation beyond one segment per 256 slots, and finding a slot
//! is index arithmetic. A segment no decision has reached is an empty
//! pointer: a gap costs eight bytes per 256 slots, not a segment.
//!
//! A log only has to reach back as far as some reader can still ask (§3.1
//! decision 1: a crash loses only what came after the last save). The
//! deployment compacts every replica's log through one floor per partition
//! on each catch-up tick ([`ChosenLog::compact_through`]): the decisions,
//! post-images and command ids at or below it go. Of that prefix the log
//! keeps three figures: how many effective writes it held and the slot of
//! the last ([`ChosenLog::cursor_for_writes`]), and a rolling digest of its
//! `(slot, command id)` pairs ([`ChosenLog::agrees_with`]). A segment the
//! compaction empties is kept as a spare, and a newly reached segment takes
//! a spare before it allocates, so a log compacted as fast as it grows stops
//! asking the allocator for segments. A log no one compacts keeps every
//! decision, as the bare cluster's do.

use std::collections::BTreeSet;
use std::fmt;

use udr_model::ids::IdSet;

use crate::ballot::Slot;
use crate::msg::{CmdId, Command, Payload};

/// Slots per segment of a [`ChosenLog`].
const SEGMENT: u64 = 256;

/// One segment's slots.
type Segment = Box<[Option<Command>]>;

/// A replica's view of the decided sequence.
#[derive(Clone, Default)]
pub struct ChosenLog {
    /// Slot `s` above `base` at `segments[(s − 1) / SEGMENT − base / SEGMENT]`,
    /// index `(s − 1) % SEGMENT`; `None` for a segment none of whose slots
    /// is chosen yet. Slots at or below `base` hold nothing.
    segments: Vec<Option<Segment>>,
    /// Segments a compaction emptied, every slot `None`, for the segments
    /// reached next.
    spares: Vec<Segment>,
    /// Number of decided slots above `base`.
    len: usize,
    /// The highest decided slot (`ZERO` when none is).
    max: Slot,
    /// Contiguous watermark: every slot `<= applied` is chosen.
    applied: Slot,
    /// Every slot `<= base` is chosen and compacted away (`ZERO` when
    /// nothing is); never above `applied`.
    base: Slot,
    /// [`fold`] over the `(slot, command id)` pairs of slots `1..=base`.
    digest: u64,
    /// Effective `Write`s in slots `1..=base`, and the slot of the last
    /// (`ZERO` when none).
    writes_below: u64,
    last_write_below: Slot,
    /// Ids of the non-noop commands chosen above `base` (for leader-side
    /// deduplication).
    ids: IdSet<CmdId>,
    /// Slots above `base` whose command id also holds a lower slot — every
    /// slot of an id but its first. Empty unless a command was re-forwarded
    /// around a leader change, so exactly-once apply costs no per-slot state.
    shadowed: BTreeSet<Slot>,
}

/// Two different commands were decided for the same slot — a Paxos safety
/// violation. Never produced by a correct run; surfacing it (rather than
/// panicking) lets property tests shrink failing fault schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementViolation {
    /// The slot with conflicting decisions.
    pub slot: Slot,
    /// What this log already held.
    pub existing: Command,
    /// What the caller tried to record.
    pub incoming: Command,
}

impl fmt::Display for AgreementViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "agreement violation at {}: {:?} vs {:?}",
            self.slot, self.existing.id, self.incoming.id
        )
    }
}

/// Where two logs disagree ([`ChosenLog::agrees_with`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Disagreement {
    /// Both hold the slot, with different commands.
    Slot(AgreementViolation),
    /// The prefixes through `through`, compacted in one log at least, do
    /// not digest alike: some slot there held different commands.
    Prefix {
        /// The higher of the two logs' bases.
        through: Slot,
    },
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Disagreement::Slot(v) => v.fmt(f),
            Disagreement::Prefix { through } => {
                write!(
                    f,
                    "agreement violation at or below {through}: compacted prefixes differ"
                )
            }
        }
    }
}

/// The rolling digest of a compacted prefix, advanced past `slot` (FNV-1a
/// over the slot and the id of its command).
fn fold(digest: u64, slot: Slot, id: CmdId) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    ((digest ^ slot.0).wrapping_mul(PRIME) ^ id.0).wrapping_mul(PRIME)
}

/// The decision at `slot` in `segments`, whose first segment holds the slot
/// after `base`.
fn lookup(segments: &[Option<Segment>], base: Slot, slot: Slot) -> Option<&Command> {
    let (segment, at) = position(base, slot)?;
    segments.get(segment)?.as_deref()?[at].as_ref()
}

/// The segment, counted from the one holding `base + 1`, and the index
/// inside it that hold `slot`; `None` for the sentinel slot 0, a slot at or
/// below `base` (and, on a 32-bit target, a slot no segment index reaches).
fn position(base: Slot, slot: Slot) -> Option<(usize, usize)> {
    if slot <= base {
        return None;
    }
    let index = slot.0 - 1;
    Some((
        usize::try_from(index / SEGMENT - base.0 / SEGMENT).ok()?,
        (index % SEGMENT) as usize,
    ))
}

impl ChosenLog {
    /// An empty log.
    pub fn new() -> Self {
        ChosenLog::default()
    }

    /// Record a decision. Returns `Ok(true)` if the slot was newly chosen,
    /// `Ok(false)` if it was already chosen with the same command, and an
    /// [`AgreementViolation`] if a *different* command was already chosen.
    ///
    /// Slot 0 is the "nothing chosen" watermark, never a decision, and a
    /// slot at or below the [`base`](Self::base) is decided and compacted:
    /// recording either returns `Ok(false)` and records nothing.
    pub fn record(&mut self, slot: Slot, cmd: Command) -> Result<bool, AgreementViolation> {
        let Some((segment, at)) = position(self.base, slot) else {
            return Ok(false);
        };
        if let Some(existing) = self.get(slot) {
            if *existing == cmd {
                return Ok(false);
            }
            return Err(AgreementViolation {
                slot,
                existing: existing.clone(),
                incoming: cmd,
            });
        }
        if !cmd.id.is_noop() && !self.ids.insert(cmd.id) {
            // The id already holds a slot; only its lowest slot stays
            // effective. Slots at or below the watermark are all decided,
            // so `slot` lies above it and the loser is never one
            // `effective_after` has already yielded. (One scan of the
            // retained slots per duplicate, which only a leader change
            // produces.)
            let first = self
                .iter()
                .find_map(|(s, c)| (c.id == cmd.id).then_some(s))
                .expect("an id in `ids` holds a retained slot");
            // A shadowed lowest retained copy has its first copy compacted
            // below it, so `slot` is not the first either.
            let loser = if self.shadowed.contains(&first) {
                slot
            } else {
                first.max(slot)
            };
            self.shadowed.insert(loser);
        }
        if self.segments.len() <= segment {
            self.segments.resize_with(segment + 1, || None);
        }
        let spares = &mut self.spares;
        self.segments[segment].get_or_insert_with(|| {
            spares
                .pop()
                .unwrap_or_else(|| vec![None; SEGMENT as usize].into())
        })[at] = Some(cmd);
        self.len += 1;
        self.max = self.max.max(slot);
        self.advance();
        Ok(true)
    }

    fn advance(&mut self) {
        while self.get(self.applied.next()).is_some() {
            self.applied = self.applied.next();
        }
    }

    /// Drop every decision at or below `floor`, clamped to
    /// [`committed`](Self::committed) so that the compacted prefix is
    /// always wholly decided: the commands with their post-images, and
    /// their ids from the deduplication window. The prefix's effective
    /// writes and digest are folded into the log's figures, and each
    /// segment this empties becomes a spare for the segments reached next.
    /// A `floor` at or below the base changes nothing.
    pub fn compact_through(&mut self, floor: Slot) {
        let floor = floor.min(self.applied);
        if floor <= self.base {
            return;
        }
        for s in self.base.0 + 1..=floor.0 {
            let slot = Slot(s);
            let cmd = position(self.base, slot)
                .and_then(|(segment, at)| self.segments[segment].as_mut()?[at].take())
                .expect("every slot up to the watermark is decided");
            self.digest = fold(self.digest, slot, cmd.id);
            if !cmd.id.is_noop() {
                self.ids.remove(&cmd.id);
            }
            let shadowed = self.shadowed.remove(&slot);
            if !shadowed && matches!(cmd.payload, Payload::Write { .. }) {
                self.writes_below += 1;
                self.last_write_below = slot;
            }
        }
        self.len -= (floor.0 - self.base.0) as usize;
        // Every segment wholly at or below the floor is now empty.
        let emptied =
            ((floor.0 / SEGMENT - self.base.0 / SEGMENT) as usize).min(self.segments.len());
        for segment in self.segments.drain(..emptied) {
            self.spares.extend(segment);
        }
        self.base = floor;
        // A later copy of an id whose first copy just went keeps the id in
        // the window: the id still holds a retained slot.
        for &slot in &self.shadowed {
            let copy = lookup(&self.segments, self.base, slot).expect("a shadowed slot is decided");
            self.ids.insert(copy.id);
        }
    }

    /// The contiguous chosen watermark (all slots up to and including it
    /// are decided and applicable in order).
    pub fn committed(&self) -> Slot {
        self.applied
    }

    /// The highest slot with a decision, contiguous or not.
    pub fn max_slot(&self) -> Slot {
        self.max
    }

    /// The highest compacted slot: every slot up to it is decided and no
    /// longer held (`ZERO` until the first compaction).
    pub fn base(&self) -> Slot {
        self.base
    }

    /// Number of decided slots held, above the base.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no decided slot is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The decision at `slot`, if any is held (none at or below the base).
    pub fn get(&self, slot: Slot) -> Option<&Command> {
        lookup(&self.segments, self.base, slot)
    }

    /// Whether `slot` is decided, held or compacted.
    pub fn is_decided(&self, slot: Slot) -> bool {
        (slot != Slot::ZERO && slot <= self.base) || self.get(slot).is_some()
    }

    /// Whether a non-noop command id is chosen in a slot above the base.
    pub fn contains_id(&self, id: CmdId) -> bool {
        self.ids.contains(&id)
    }

    /// The held slots whose command id also holds a lower slot, which
    /// [`effective_after`](Self::effective_after) passes over.
    pub(crate) fn shadowed_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.shadowed.iter().copied()
    }

    /// Append the chosen entries strictly above `above` to `out`, in slot
    /// order (catch-up transfers and promise piggybacks); nothing for
    /// `above >= max_slot()`. `above` must not lie below the base. `out`
    /// is the caller's, so a reused vector with room allocates nothing.
    pub fn suffix_into(&self, above: Slot, out: &mut Vec<(Slot, Command)>) {
        out.extend(self.after(above).map(|(s, c)| (s, c.clone())));
    }

    /// Iterate every held `(slot, command)`, above the base, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &Command)> + '_ {
        self.after(self.base)
    }

    /// Decided `(slot, command)` pairs strictly above `above`, in slot
    /// order; nothing for `above >= max_slot()`. Starting costs nothing,
    /// and a segment no decision has reached is passed over in one step.
    fn after(&self, above: Slot) -> impl Iterator<Item = (Slot, &Command)> + '_ {
        debug_assert!(
            above >= self.base,
            "{above} lies below the compacted base {}",
            self.base
        );
        let above = above.max(self.base);
        let (first_segment, first_at) = if above >= self.max {
            (self.segments.len(), 0)
        } else {
            position(self.base, above.next()).unwrap_or((self.segments.len(), 0))
        };
        let base_segment = self.base.0 / SEGMENT;
        self.segments
            .iter()
            .enumerate()
            .skip(first_segment)
            .filter_map(|(segment, slots)| Some((segment, slots.as_deref()?)))
            .flat_map(move |(segment, slots)| {
                let skip = if segment == first_segment {
                    first_at
                } else {
                    0
                };
                let first_slot = (base_segment + segment as u64) * SEGMENT + 1;
                slots
                    .iter()
                    .enumerate()
                    .skip(skip)
                    .filter_map(move |(at, cmd)| {
                        Some((Slot(first_slot + at as u64), cmd.as_ref()?))
                    })
            })
    }

    /// Iterate the *applicable* prefix held (slots `base + 1..=committed()`)
    /// with exactly-once semantics: no-ops are skipped, and a command id
    /// that appears in more than one slot (possible when a command is
    /// re-forwarded around a leader change after its original proposal
    /// survived) is yielded only at its first slot. This is the sequence
    /// the storage apply layer consumes; it only ever grows at the end.
    pub fn iter_effective(&self) -> impl Iterator<Item = (Slot, &Command)> + '_ {
        self.effective_after(self.base)
    }

    /// The part of [`iter_effective`](Self::iter_effective) in slots
    /// strictly above `above` — what an apply cursor resting at `above`
    /// has still to consume. A walk from `above + 1` to
    /// [`committed`](Self::committed): costs nothing to start, allocates
    /// nothing, and is empty for `above >= committed()`. `above` must not
    /// lie below the base.
    pub fn effective_after(&self, above: Slot) -> impl Iterator<Item = (Slot, &Command)> + '_ {
        // Every slot up to the watermark is decided, so the walk meets no
        // gap before it stops.
        self.after(above.min(self.applied))
            .take_while(|(s, _)| *s <= self.applied)
            .filter(|(s, c)| !c.is_noop() && !self.shadowed.contains(s))
    }

    /// The apply cursor equivalent to `writes` committed records: the slot
    /// of the `writes`-th effective `Write`, so an engine recovered at LSN
    /// `writes` resumes exactly where its disk state left off (`ZERO` for
    /// none). Reconfig entries above the cursor are applied again on a
    /// replay, which the deployment's first-apply-wins guard makes a no-op.
    /// Writes in the compacted prefix are counted, not walked: the walk
    /// covers only the held slots up to that write. `None` when `writes`
    /// falls short of the writes compacted: the slots a replay would need
    /// are gone, and the copy must be installed from a peer instead.
    pub fn cursor_for_writes(&self, writes: u64) -> Option<Slot> {
        if writes < self.writes_below {
            return None;
        }
        if writes == self.writes_below {
            return Some(self.last_write_below);
        }
        let cursor = self
            .iter_effective()
            .filter(|(_, cmd)| matches!(cmd.payload, Payload::Write { .. }))
            .nth((writes - self.writes_below - 1) as usize)
            // More writes on disk than the log holds cannot happen.
            .map_or(self.applied, |(slot, _)| slot);
        Some(cursor)
    }

    /// Check prefix consistency against another log: every slot decided in
    /// both must hold the same command. Where one log compacted past the
    /// other's base, the other folds the slots between into its digest and
    /// the two digests must match at the higher base (a gap there leaves
    /// nothing to compare); above it the held slots are compared one by one.
    pub fn agrees_with(&self, other: &ChosenLog) -> Result<(), Disagreement> {
        let (low, high) = if self.base <= other.base {
            (self, other)
        } else {
            (other, self)
        };
        let digest = (low.base.0 + 1..=high.base.0).try_fold(low.digest, |digest, s| {
            Some(fold(digest, Slot(s), low.get(Slot(s))?.id))
        });
        if digest.is_some_and(|digest| digest != high.digest) {
            return Err(Disagreement::Prefix { through: high.base });
        }
        // Iterate the smaller log for efficiency.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        for (slot, cmd) in small.iter() {
            if let Some(theirs) = large.get(slot) {
                if theirs != cmd {
                    return Err(Disagreement::Slot(AgreementViolation {
                        slot,
                        existing: cmd.clone(),
                        incoming: theirs.clone(),
                    }));
                }
            }
        }
        Ok(())
    }
}

/// The held slots as a map, not segments full of `None`.
impl fmt::Debug for ChosenLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Chosen<'a>(&'a ChosenLog);
        impl fmt::Debug for Chosen<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("ChosenLog")
            .field("chosen", &Chosen(self))
            .field("applied", &self.applied)
            .field("base", &self.base)
            .field("ids", &self.ids)
            .field("shadowed", &self.shadowed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::ids::SubscriberUid;

    /// The chosen entries above `above`, in a fresh vector.
    fn suffix(log: &ChosenLog, above: Slot) -> Vec<(Slot, Command)> {
        let mut out = Vec::new();
        log.suffix_into(above, &mut out);
        out
    }

    fn w(id: u64) -> Command {
        Command::write(CmdId(id), SubscriberUid(id), None)
    }

    #[test]
    fn watermark_advances_contiguously() {
        let mut log = ChosenLog::new();
        assert_eq!(log.committed(), Slot::ZERO);
        log.record(Slot(2), w(2)).unwrap();
        // Slot 1 missing: watermark stays at 0 though max_slot is 2.
        assert_eq!(log.committed(), Slot::ZERO);
        assert_eq!(log.max_slot(), Slot(2));
        log.record(Slot(1), w(1)).unwrap();
        assert_eq!(log.committed(), Slot(2));
    }

    #[test]
    fn duplicate_same_command_is_idempotent() {
        let mut log = ChosenLog::new();
        assert!(log.record(Slot(1), w(1)).unwrap());
        assert!(!log.record(Slot(1), w(1)).unwrap());
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn conflicting_decision_is_reported() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), w(1)).unwrap();
        let err = log.record(Slot(1), w(2)).unwrap_err();
        assert_eq!(err.slot, Slot(1));
        assert_eq!(err.existing.id, CmdId(1));
        assert_eq!(err.incoming.id, CmdId(2));
        // The original decision survives.
        assert_eq!(log.get(Slot(1)).unwrap().id, CmdId(1));
    }

    #[test]
    fn suffix_returns_entries_above_watermark() {
        let mut log = ChosenLog::new();
        for i in 1..=5 {
            log.record(Slot(i), w(i)).unwrap();
        }
        let above = suffix(&log, Slot(3));
        assert_eq!(above.len(), 2);
        assert_eq!(above[0].0, Slot(4));
        assert_eq!(above[1].0, Slot(5));
        assert!(suffix(&log, Slot(5)).is_empty());
    }

    #[test]
    fn a_suffix_appends_into_the_room_it_is_given() {
        let mut log = ChosenLog::new();
        for i in 1..=5 {
            log.record(Slot(i), w(i)).unwrap();
        }
        let mut out = Vec::with_capacity(4);
        let buffer = out.as_ptr();
        log.suffix_into(Slot(4), &mut out);
        log.suffix_into(Slot(2), &mut out);
        let slots: Vec<u64> = out.iter().map(|(s, _)| s.0).collect();
        assert_eq!(slots, [5, 3, 4, 5]);
        assert_eq!(out.as_ptr(), buffer, "four entries fit the room given");
        out.clear();
        log.suffix_into(Slot(5), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn effective_iteration_skips_noops_and_duplicates() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), w(10)).unwrap();
        log.record(Slot(2), Command::noop()).unwrap();
        log.record(Slot(3), w(10)).unwrap(); // duplicate id in a later slot
        log.record(Slot(4), w(20)).unwrap();
        let effective: Vec<_> = log.iter_effective().map(|(s, c)| (s, c.id)).collect();
        assert_eq!(effective, vec![(Slot(1), CmdId(10)), (Slot(4), CmdId(20))]);
    }

    #[test]
    fn effective_iteration_stops_at_watermark() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), w(1)).unwrap();
        log.record(Slot(3), w(3)).unwrap(); // gap at 2
        let effective: Vec<_> = log.iter_effective().map(|(s, _)| s).collect();
        assert_eq!(effective, vec![Slot(1)], "slot 3 is not applicable yet");
    }

    #[test]
    fn a_duplicate_recorded_below_its_twin_takes_over_as_first() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), w(1)).unwrap();
        log.record(Slot(4), w(10)).unwrap(); // above a gap: not applicable yet
        log.record(Slot(3), w(10)).unwrap(); // same id, lower slot
        log.record(Slot(5), w(10)).unwrap(); // and a third copy above both
        assert_eq!(log.iter_effective().count(), 1);
        log.record(Slot(2), w(2)).unwrap();
        let effective: Vec<_> = log.iter_effective().map(|(s, c)| (s, c.id)).collect();
        assert_eq!(
            effective,
            vec![
                (Slot(1), CmdId(1)),
                (Slot(2), CmdId(2)),
                (Slot(3), CmdId(10))
            ]
        );
    }

    #[test]
    fn effective_after_is_total_at_and_past_the_watermark() {
        let mut log = ChosenLog::new();
        assert_eq!(log.effective_after(Slot::ZERO).count(), 0);
        assert_eq!(log.effective_after(Slot(9)).count(), 0);
        log.record(Slot(1), w(1)).unwrap();
        log.record(Slot(2), Command::noop()).unwrap();
        log.record(Slot(3), w(3)).unwrap();
        log.record(Slot(5), w(5)).unwrap(); // gap at 4: watermark stays at 3
        let after = |above: u64| -> Vec<Slot> {
            log.effective_after(Slot(above)).map(|(s, _)| s).collect()
        };
        assert_eq!(after(0), vec![Slot(1), Slot(3)]);
        assert_eq!(after(1), vec![Slot(3)]);
        assert_eq!(after(2), vec![Slot(3)]);
        assert!(after(3).is_empty(), "cursor at the watermark");
        assert!(after(4).is_empty(), "cursor past the watermark");
        assert!(after(5).is_empty());
        assert!(after(u64::MAX).is_empty());
    }

    #[test]
    fn contains_id_tracks_non_noop_only() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), Command::noop()).unwrap();
        log.record(Slot(2), w(5)).unwrap();
        assert!(!log.contains_id(CmdId::NOOP));
        assert!(log.contains_id(CmdId(5)));
        assert!(!log.contains_id(CmdId(6)));
    }

    #[test]
    fn agreement_check_between_logs() {
        let mut a = ChosenLog::new();
        let mut b = ChosenLog::new();
        a.record(Slot(1), w(1)).unwrap();
        a.record(Slot(2), w(2)).unwrap();
        b.record(Slot(1), w(1)).unwrap();
        assert!(a.agrees_with(&b).is_ok());
        assert!(b.agrees_with(&a).is_ok());
        b.record(Slot(2), w(99)).unwrap();
        assert!(a.agrees_with(&b).is_err());
    }

    #[test]
    fn debug_prints_the_decided_slots_as_a_map() {
        let mut log = ChosenLog::new();
        log.record(Slot(2), Command::noop()).unwrap();
        let printed = format!("{log:?}");
        assert!(
            printed.starts_with("ChosenLog { chosen: {Slot(2): Command {"),
            "{printed}"
        );
        assert!(!printed.contains("None"), "{printed}");
    }

    #[test]
    fn nothing_lies_above_the_last_slot() {
        let mut log = ChosenLog::new();
        assert!(suffix(&log, Slot(u64::MAX)).is_empty());
        for i in 1..=3 {
            log.record(Slot(i), w(i)).unwrap();
        }
        // `above + 1` would overflow; a wrapped cursor would return all.
        assert!(suffix(&log, Slot(u64::MAX)).is_empty());
        assert!(suffix(&log, Slot(3)).is_empty());
        assert_eq!(suffix(&log, Slot(2)).len(), 1);
        log.compact_through(Slot(2));
        assert!(suffix(&log, Slot(u64::MAX)).is_empty());
        assert_eq!(suffix(&log, Slot(2)).len(), 1);
    }

    #[test]
    fn a_compacted_segment_is_reused() {
        let mut log = ChosenLog::new();
        for i in 1..=SEGMENT + 1 {
            log.record(Slot(i), w(i)).unwrap();
        }
        let first = log.segments[0].as_deref().unwrap().as_ptr();
        log.compact_through(Slot(SEGMENT));
        assert_eq!(log.segments.len(), 1, "the emptied segment left the window");
        assert_eq!(log.spares.len(), 1);
        assert_eq!(log.len(), 1);
        // The next segment reached takes the spare, not a new allocation.
        log.record(Slot(2 * SEGMENT + 1), w(1_000)).unwrap();
        let reached = log.segments[1].as_deref().unwrap();
        assert_eq!(reached.as_ptr(), first);
        assert!(log.spares.is_empty());
        // Its slots were emptied: only the new decision is held there.
        assert_eq!(reached.iter().flatten().count(), 1);
        assert_eq!(log.get(Slot(2 * SEGMENT + 1)).unwrap().id, CmdId(1_000));
    }

    #[test]
    fn compaction_stops_at_the_watermark() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), w(1)).unwrap();
        log.record(Slot(2), w(2)).unwrap();
        log.record(Slot(4), w(4)).unwrap(); // gap at 3
        log.compact_through(Slot(9));
        assert_eq!(log.base(), Slot(2));
        assert_eq!(log.get(Slot(2)), None);
        assert!(log.is_decided(Slot(2)));
        assert!(!log.is_decided(Slot(3)));
        assert_eq!(log.get(Slot(4)).unwrap().id, CmdId(4));
        assert_eq!(log.len(), 1);
        // A learn below the base records nothing, as slot 0 does.
        assert!(!log.record(Slot(1), w(99)).unwrap());
        // Below the base changes nothing.
        log.compact_through(Slot(1));
        assert_eq!(log.base(), Slot(2));
    }

    #[test]
    fn a_compacted_log_still_counts_its_writes() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), Command::noop()).unwrap();
        log.record(Slot(2), w(1)).unwrap();
        log.record(Slot(3), Command::reconfig(CmdId(9), 0)).unwrap();
        log.record(Slot(4), w(2)).unwrap();
        log.record(Slot(5), w(1)).unwrap(); // a re-forwarded duplicate
        log.record(Slot(6), w(3)).unwrap();
        let whole: Vec<Option<Slot>> = (0..=4).map(|n| log.cursor_for_writes(n)).collect();
        log.compact_through(Slot(3));
        assert_eq!(log.cursor_for_writes(0), None, "write 0 is compacted");
        for n in 1..=4 {
            assert_eq!(log.cursor_for_writes(n), whole[n as usize], "write {n}");
        }
        log.compact_through(Slot(5));
        assert_eq!(log.cursor_for_writes(1), None, "write 1 is compacted");
        assert_eq!(log.cursor_for_writes(2), Some(Slot(4)));
        assert_eq!(log.cursor_for_writes(3), Some(Slot(6)));
    }

    #[test]
    fn ids_leave_the_window_with_their_slots() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), w(10)).unwrap();
        log.record(Slot(2), w(20)).unwrap();
        log.record(Slot(3), w(10)).unwrap(); // second copy of 10
        log.compact_through(Slot(2));
        assert!(!log.contains_id(CmdId(20)));
        // Slot 3 still holds id 10, shadowed by its compacted first copy.
        assert!(log.contains_id(CmdId(10)));
        assert_eq!(log.effective_after(Slot(2)).count(), 0);
        // A third copy below the held one is not the first either.
        log.record(Slot(5), w(10)).unwrap();
        log.record(Slot(4), w(30)).unwrap();
        let effective: Vec<_> = log.effective_after(Slot(2)).map(|(s, _)| s).collect();
        assert_eq!(effective, vec![Slot(4)]);
        log.compact_through(Slot(5));
        assert!(!log.contains_id(CmdId(10)));
        assert!(log.is_empty());
    }

    #[test]
    fn a_conflict_compacted_away_is_still_a_disagreement() {
        let mut a = ChosenLog::new();
        let mut b = ChosenLog::new();
        for i in 1..=4 {
            a.record(Slot(i), w(i)).unwrap();
            b.record(Slot(i), if i == 2 { w(99) } else { w(i) })
                .unwrap();
        }
        assert!(matches!(a.agrees_with(&b), Err(Disagreement::Slot(_))));
        a.compact_through(Slot(3));
        b.compact_through(Slot(3));
        assert_eq!(
            a.agrees_with(&b),
            Err(Disagreement::Prefix { through: Slot(3) })
        );
        // One log compacted further than the other: the lower folds the
        // slots between into its digest.
        let mut c = ChosenLog::new();
        for i in 1..=4 {
            c.record(Slot(i), w(i)).unwrap();
        }
        c.compact_through(Slot(1));
        assert_eq!(c.agrees_with(&a), Ok(()));
        assert!(c.agrees_with(&b).is_err());
        assert!(b.agrees_with(&c).is_err());
        assert!(format!("{}", c.agrees_with(&b).unwrap_err()).contains("compacted"));
    }

    #[test]
    fn noops_count_toward_watermark() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), Command::noop()).unwrap();
        log.record(Slot(2), w(1)).unwrap();
        assert_eq!(log.committed(), Slot(2));
    }
}
