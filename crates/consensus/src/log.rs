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

use std::collections::BTreeSet;
use std::fmt;

use udr_model::ids::IdSet;

use crate::ballot::Slot;
use crate::msg::{CmdId, Command};

/// Slots per segment of a [`ChosenLog`].
const SEGMENT: u64 = 256;

/// A replica's view of the decided sequence.
#[derive(Clone, Default)]
pub struct ChosenLog {
    /// Slot `s` at `segments[(s − 1) / SEGMENT][(s − 1) % SEGMENT]`; `None`
    /// for a segment none of whose slots is chosen yet.
    segments: Vec<Option<Box<[Option<Command>]>>>,
    /// Number of decided slots.
    len: usize,
    /// The highest decided slot (`ZERO` when none is).
    max: Slot,
    /// Contiguous watermark: every slot `<= applied` is chosen.
    applied: Slot,
    /// Ids of non-noop commands chosen (for leader-side deduplication).
    ids: IdSet<CmdId>,
    /// Slots whose command id also holds a lower slot — every slot of an
    /// id but its first. Empty unless a command was re-forwarded around a
    /// leader change, so exactly-once apply costs no per-slot state.
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

/// The segment and the index inside it that hold `slot`; `None` for the
/// sentinel slot 0 (and, on a 32-bit target, for a slot no segment index
/// reaches).
fn position(slot: Slot) -> Option<(usize, usize)> {
    let index = slot.0.checked_sub(1)?;
    Some((
        usize::try_from(index / SEGMENT).ok()?,
        (index % SEGMENT) as usize,
    ))
}

/// The slot held at index `at` of segment `segment`.
fn slot_at(segment: usize, at: usize) -> Slot {
    Slot(segment as u64 * SEGMENT + at as u64 + 1)
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
    /// Slot 0 is the "nothing chosen" watermark, never a decision: recording
    /// it returns `Ok(false)` and records nothing.
    pub fn record(&mut self, slot: Slot, cmd: Command) -> Result<bool, AgreementViolation> {
        let Some((segment, at)) = position(slot) else {
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
            // `effective_after` has already yielded. (One scan per
            // duplicate, which only a leader change produces.)
            let first = self
                .iter()
                .find_map(|(s, c)| (c.id == cmd.id).then_some(s))
                .expect("an id in `ids` holds a chosen slot");
            self.shadowed.insert(first.max(slot));
        }
        if self.segments.len() <= segment {
            self.segments.resize_with(segment + 1, || None);
        }
        self.segments[segment].get_or_insert_with(|| vec![None; SEGMENT as usize].into())[at] =
            Some(cmd);
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

    /// The contiguous chosen watermark (all slots up to and including it
    /// are decided and applicable in order).
    pub fn committed(&self) -> Slot {
        self.applied
    }

    /// The highest slot with a decision, contiguous or not.
    pub fn max_slot(&self) -> Slot {
        self.max
    }

    /// Number of decided slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is decided yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The decision at `slot`, if any.
    pub fn get(&self, slot: Slot) -> Option<&Command> {
        let (segment, at) = position(slot)?;
        self.segments.get(segment)?.as_deref()?[at].as_ref()
    }

    /// Whether a non-noop command id was already chosen somewhere.
    pub fn contains_id(&self, id: CmdId) -> bool {
        self.ids.contains(&id)
    }

    /// Chosen entries strictly above `above`, in slot order (catch-up
    /// transfers and promise piggybacks).
    pub fn suffix(&self, above: Slot) -> Vec<(Slot, Command)> {
        self.from(above.next())
            .map(|(s, c)| (s, c.clone()))
            .collect()
    }

    /// Iterate every decided `(slot, command)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &Command)> + '_ {
        self.from(Slot(1))
    }

    /// Decided `(slot, command)` pairs at `first` and above, in slot order.
    /// Starting costs nothing, and a segment no decision has reached is
    /// passed over in one step.
    fn from(&self, first: Slot) -> impl Iterator<Item = (Slot, &Command)> + '_ {
        let (first_segment, first_at) = position(first).unwrap_or((0, 0));
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
                slots
                    .iter()
                    .enumerate()
                    .skip(skip)
                    .filter_map(move |(at, cmd)| Some((slot_at(segment, at), cmd.as_ref()?)))
            })
    }

    /// Iterate the *applicable* prefix (slots `1..=committed()`) with
    /// exactly-once semantics: no-ops are skipped, and a command id that
    /// appears in more than one slot (possible when a command is
    /// re-forwarded around a leader change after its original proposal
    /// survived) is yielded only at its first slot. This is the sequence
    /// the storage apply layer consumes; it only ever grows at the end.
    pub fn iter_effective(&self) -> impl Iterator<Item = (Slot, &Command)> + '_ {
        self.effective_after(Slot::ZERO)
    }

    /// The part of [`iter_effective`](Self::iter_effective) in slots
    /// strictly above `above` — what an apply cursor resting at `above`
    /// has still to consume. A walk from `above + 1` to
    /// [`committed`](Self::committed): costs nothing to start, allocates
    /// nothing, and is empty for `above >= committed()`.
    pub fn effective_after(&self, above: Slot) -> impl Iterator<Item = (Slot, &Command)> + '_ {
        // Every slot up to the watermark is decided, so the walk meets no
        // gap before it stops.
        let above = above.min(self.applied);
        self.from(above.next())
            .take_while(|(s, _)| *s <= self.applied)
            .filter(|(s, c)| !c.is_noop() && !self.shadowed.contains(s))
    }

    /// Check prefix consistency against another log: every slot decided in
    /// both must hold the same command.
    pub fn agrees_with(&self, other: &ChosenLog) -> Result<(), AgreementViolation> {
        // Iterate the smaller log for efficiency.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        for (slot, cmd) in small.iter() {
            if let Some(theirs) = large.get(slot) {
                if theirs != cmd {
                    return Err(AgreementViolation {
                        slot,
                        existing: cmd.clone(),
                        incoming: theirs.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The decided slots as a map, not segments full of `None`.
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
            .field("ids", &self.ids)
            .field("shadowed", &self.shadowed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::ids::SubscriberUid;

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
        let suffix = log.suffix(Slot(3));
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].0, Slot(4));
        assert_eq!(suffix[1].0, Slot(5));
        assert!(log.suffix(Slot(5)).is_empty());
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
    fn noops_count_toward_watermark() {
        let mut log = ChosenLog::new();
        log.record(Slot(1), Command::noop()).unwrap();
        log.record(Slot(2), w(1)).unwrap();
        assert_eq!(log.committed(), Slot(2));
    }
}
