//! The simulator's one event queue: a binary heap popped in `(time,
//! insertion seq)` order.
//!
//! Every event fires earliest first, FIFO at equal instants, and an
//! instant in the past clamps to `now`. Both things simulated here — the
//! full UDR and the bare consensus cluster — have handlers that share
//! mutable state, so they advance by sequential pops of this one queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use udr_model::time::{SimDuration, SimTime};

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first,
        // breaking ties by insertion sequence (FIFO).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The argument of [`ShardedPump::new`]. It carries nothing: the pump has
/// one queue. The type stays because the benchmark package's isolated
/// replay builds its pump with `ShardedPump::new(PumpConfig::single())`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpConfig;

impl PumpConfig {
    /// The one configuration there is.
    pub const fn single() -> Self {
        PumpConfig
    }
}

/// The first argument of [`ShardedPump::schedule_at`] and
/// [`ShardedPump::schedule_in`]. The pump ignores it: every event goes on
/// the one queue. It stays because the benchmark package's isolated
/// replay schedules with `LaneClass::Local(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneClass {
    /// Ignored; callers pass `Local(0)`.
    Local(usize),
}

/// A deterministic discrete-event scheduler: one heap popped in
/// `(time, insertion-seq)` order.
///
/// ```
/// use udr_sim::pump::{LaneClass, PumpConfig, ShardedPump};
/// use udr_model::time::SimTime;
///
/// let mut pump: ShardedPump<&'static str> = ShardedPump::new(PumpConfig::single());
/// pump.schedule_at(LaneClass::Local(0), SimTime(20), "b");
/// pump.schedule_at(LaneClass::Local(0), SimTime(10), "a");
/// assert_eq!(pump.pop(), Some((SimTime(10), "a")));
/// assert_eq!(pump.now(), SimTime(10));
/// ```
pub struct ShardedPump<E> {
    queue: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> ShardedPump<E> {
    /// An empty pump at t = 0.
    pub fn new(_cfg: PumpConfig) -> Self {
        ShardedPump {
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule an event at an absolute instant. Instants in the past
    /// clamp to `now` (the event fires next, after any already due at
    /// `now`).
    pub fn schedule_at(&mut self, _class: LaneClass, at: SimTime, event: E) {
        self.queue.push(Scheduled {
            at: at.max(self.now),
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedule an event after a delay from the current time.
    pub fn schedule_in(&mut self, class: LaneClass, delay: SimDuration, event: E) {
        self.schedule_at(class, self.now + delay, event);
    }

    /// Pop the earliest event and advance the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let slot = self.queue.pop()?;
        debug_assert!(slot.at >= self.now, "time went backwards");
        self.now = slot.at;
        self.processed += 1;
        Some((slot.at, slot.event))
    }

    /// Peek at the earliest event's timestamp without advancing.
    fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|s| s.at)
    }

    /// Pop the next event only if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }
}

impl<E> std::fmt::Debug for ShardedPump<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPump")
            .field("pending", &self.len())
            .field("now", &self.now)
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LANE: LaneClass = LaneClass::Local(0);

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut pump: ShardedPump<()> = ShardedPump::new(PumpConfig::single());
        pump.schedule_at(LANE, t(25), ());
        pump.schedule_at(LANE, t(10), ());
        pump.schedule_at(LANE, t(10), ());
        assert_eq!((pump.now(), pump.processed()), (SimTime::ZERO, 0));
        let mut last = SimTime::ZERO;
        while let Some((at, ())) = pump.pop() {
            assert!(at >= last);
            assert_eq!(pump.now(), at);
            last = at;
        }
        assert_eq!(pump.now(), t(25));
        assert_eq!(pump.processed(), 3);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut pump: ShardedPump<&str> = ShardedPump::new(PumpConfig::single());
        pump.schedule_at(LANE, t(40), "a");
        pump.pop();
        pump.schedule_in(LANE, SimDuration(5), "b");
        assert_eq!(pump.pop(), Some((t(45), "b")));
    }

    #[test]
    fn schedule_clamps_past_to_now() {
        let mut pump: ShardedPump<&str> = ShardedPump::new(PumpConfig::single());
        pump.schedule_at(LANE, t(100), "later");
        pump.pop();
        pump.schedule_at(LANE, t(50), "past");
        let (at, e) = pump.pop().unwrap();
        assert_eq!((at, e), (t(100), "past"));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut pump: ShardedPump<u8> = ShardedPump::new(PumpConfig::single());
        pump.schedule_at(LANE, t(10), 0);
        pump.schedule_at(LANE, t(90), 1);
        pump.schedule_at(LANE, t(40), 2);
        assert_eq!(pump.pop_until(t(50)).unwrap().1, 0);
        assert_eq!(pump.pop_until(t(50)).unwrap().1, 2);
        assert!(pump.pop_until(t(50)).is_none());
        assert_eq!(pump.len(), 1);
    }
}
