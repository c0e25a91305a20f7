//! The simulator's one event queue: per-lane heaps plus a cross-lane
//! heap, with a deterministic merge.
//!
//! Every event fires in `(time, insertion seq)` order — earliest first,
//! FIFO at equal instants — and an instant in the past clamps to `now`.
//! [`PumpConfig::single`] gives one lane; more lanes pay off because the
//! paper's storage elements and site groups have event streams that
//! rarely interact:
//!
//! * **Lanes.** Every event is classified at schedule time as
//!   [`LaneClass::Local`] to one lane (partition/site-group scoped) or
//!   [`LaneClass::Cross`] (events that touch more than one lane's state:
//!   partitions, crashes, catch-up sweeps). Each lane owns its own heap;
//!   cross events live in a dedicated queue.
//! * **Deterministic merge.** Sequence numbers are allocated globally at
//!   schedule time, so popping the minimum `(time, seq)` across all
//!   heaps gives the same order at any lane count — same seed ⇒
//!   byte-identical event timeline. Deployments whose handlers share
//!   mutable state (the full UDR, the consensus cluster) schedule every
//!   event on one lane and advance by sequential pops.
//! * **Conservative parallel drain.** When the per-lane states are
//!   disjoint, [`ShardedPump::drain_parallel`] advances all lanes
//!   concurrently in rounds bounded by a lookahead barrier (the minimum
//!   cross-lane network latency): no lane may outrun the earliest
//!   pending cross event or `t_min + lookahead`, so no lane can observe
//!   an effect before its cause. Worker-scheduled lane-local follow-ups
//!   get deterministic interleaved sequence numbers; cross follow-ups
//!   are collected and merged by the coordinator in lane order.
//!
//! The parallel drain reports per-lane busy time and the per-round
//! critical path, so harnesses report both the measured wall clock and
//! the sustained rate the lane structure supports with one core per lane
//! (on a single-core container the two diverge; on a multicore host the
//! wall clock converges to the critical path).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

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

/// How a deployment advances its [`ShardedPump`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PumpConfig {
    /// Number of lane-local queues (≥ 1). Lane assignment is
    /// `partition % lanes` at the call site.
    pub lanes: usize,
    /// Whether lane-isolated drivers may drain lanes on worker threads.
    /// Sequential merge (the shared-state path) ignores this: its order
    /// is identical either way.
    pub parallel: bool,
}

impl PumpConfig {
    /// One lane, sequential — the default.
    pub const fn single() -> Self {
        PumpConfig {
            lanes: 1,
            parallel: false,
        }
    }

    /// A sharded pump with `lanes` lane-local queues.
    pub const fn sharded(lanes: usize) -> Self {
        PumpConfig {
            lanes,
            parallel: false,
        }
    }

    /// Enable worker-thread draining for lane-isolated workloads.
    pub const fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Lane count, clamped to at least one.
    pub fn effective_lanes(&self) -> usize {
        self.lanes.max(1)
    }
}

impl Default for PumpConfig {
    fn default() -> Self {
        PumpConfig::single()
    }
}

/// Schedule-time classification of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneClass {
    /// Touches a single lane's state only (partition-scoped).
    Local(usize),
    /// May touch any lane's state; serialized through the cross queue.
    Cross,
}

/// A deterministic sharded discrete-event scheduler.
///
/// The sequential API ([`ShardedPump::pop`], [`ShardedPump::pop_until`])
/// pops in `(time, insertion-seq)` order, the same for any lane count;
/// [`ShardedPump::drain_parallel`] runs disjoint lanes side by side.
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
    lanes: Vec<BinaryHeap<Scheduled<E>>>,
    cross: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    parallel: bool,
}

impl<E> ShardedPump<E> {
    /// An empty pump at t = 0.
    pub fn new(cfg: PumpConfig) -> Self {
        let lanes = cfg.effective_lanes();
        ShardedPump {
            lanes: (0..lanes).map(|_| BinaryHeap::new()).collect(),
            cross: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            parallel: cfg.parallel,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting across all queues.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(BinaryHeap::len).sum::<usize>() + self.cross.len()
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.cross.is_empty() && self.lanes.iter().all(BinaryHeap::is_empty)
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule an event at an absolute instant into its classified
    /// queue. Instants in the past clamp to `now` (the event fires next,
    /// after any already due at `now`).
    pub fn schedule_at(&mut self, class: LaneClass, at: SimTime, event: E) {
        let at = at.max(self.now);
        let slot = Scheduled {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        match class {
            LaneClass::Local(lane) => {
                let lane = lane % self.lanes.len();
                self.lanes[lane].push(slot);
            }
            LaneClass::Cross => self.cross.push(slot),
        }
    }

    /// Schedule an event after a delay from the current time.
    pub fn schedule_in(&mut self, class: LaneClass, delay: SimDuration, event: E) {
        self.schedule_at(class, self.now + delay, event);
    }

    /// The queue holding the globally earliest event, by `(time, seq)`:
    /// a lane index, or `usize::MAX` for the cross queue. `None` when
    /// every queue is empty.
    fn min_source(&self) -> Option<usize> {
        let mut best: Option<(SimTime, u64, usize)> =
            self.cross.peek().map(|s| (s.at, s.seq, usize::MAX));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(s) = lane.peek() {
                let key = (s.at, s.seq, i);
                if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, src)| src)
    }

    /// Pop the earliest event across all queues and advance the clock —
    /// the deterministic merge. The order is the same for any lane
    /// count, because `seq` is allocated globally.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let src = self.min_source()?;
        let slot = if src == usize::MAX {
            self.cross.pop()?
        } else {
            self.lanes[src].pop()?
        };
        debug_assert!(slot.at >= self.now, "time went backwards");
        self.now = slot.at;
        self.processed += 1;
        Some((slot.at, slot.event))
    }

    /// Peek at the earliest event's timestamp without advancing.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<(SimTime, u64)> = self.cross.peek().map(|s| (s.at, s.seq));
        for lane in &self.lanes {
            if let Some(s) = lane.peek() {
                if best.is_none_or(|b| (s.at, s.seq) < b) {
                    best = Some((s.at, s.seq));
                }
            }
        }
        best.map(|(t, _)| t)
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

/// Worker-side scheduling surface handed to lane handlers during
/// [`ShardedPump::drain_parallel`].
pub struct LaneCtx<E> {
    lane: usize,
    /// Follow-ups destined for this lane (pushed straight into its heap).
    local: Vec<(SimTime, E)>,
    /// Follow-ups destined for other lanes / global state; merged by the
    /// coordinator after the round, in lane order.
    cross: Vec<(SimTime, E)>,
}

impl<E> LaneCtx<E> {
    /// The lane this context belongs to.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Schedule a follow-up event on this same lane. Fires within the
    /// current round if it lands inside the window.
    pub fn schedule_local(&mut self, at: SimTime, event: E) {
        self.local.push((at, event));
    }

    /// Schedule a follow-up for the cross queue. Must honour the
    /// lookahead contract: `at` must be at least one lookahead past the
    /// handled event, or it clamps to the round boundary.
    pub fn schedule_cross(&mut self, at: SimTime, event: E) {
        self.cross.push((at, event));
    }
}

/// Wall-clock accounting from one [`ShardedPump::drain_parallel`] call.
#[derive(Debug, Clone, Default)]
pub struct DrainStats {
    /// Lookahead rounds executed.
    pub rounds: u64,
    /// Lane-local events processed.
    pub events: u64,
    /// Cross-queue events processed (serialized on the coordinator).
    pub cross_events: u64,
    /// Cumulative busy time per lane (time spent inside that lane's
    /// handler loop, summed over rounds).
    pub lane_busy: Vec<Duration>,
    /// Lane-local events processed per lane. Unlike `lane_busy` (wall
    /// clock), this is a pure function of the schedule — same seed ⇒
    /// identical counts, so traces may digest it.
    pub lane_events: Vec<u64>,
    /// Σ over rounds of the slowest lane's busy time — the drain's
    /// critical path under one core per lane. Includes the coordinator's
    /// serialized cross-event time.
    pub critical_path: Duration,
}

impl DrainStats {
    /// Total busy time across all lanes (what one core pays).
    pub fn total_busy(&self) -> Duration {
        self.lane_busy.iter().sum::<Duration>()
    }
}

struct RoundOutput<E> {
    heap: BinaryHeap<Scheduled<E>>,
    cross: Vec<(SimTime, E)>,
    busy: Duration,
    events: u64,
    follow_ups: u64,
}

impl<E: Send> ShardedPump<E> {
    /// Advance every lane to `horizon` under a conservative lookahead
    /// barrier.
    ///
    /// `states` holds one disjoint state per lane; `local` runs
    /// lane-scoped events against their lane's state only (on worker
    /// threads when the pump was built `parallel` and has more than one
    /// lane), and `cross` runs cross-queue events against all states,
    /// serialized on the coordinator at round boundaries.
    ///
    /// Correctness contract (the classic conservative-DES argument): an
    /// effect one lane schedules onto another must be at least
    /// `lookahead` (the minimum cross-lane network latency) after its
    /// cause, and must go through [`LaneCtx::schedule_cross`]. Within a
    /// round no lane advances past `min(t_min + lookahead, next cross
    /// event, horizon)`, so no lane can run ahead of an effect aimed at
    /// it. Events arriving late clamp to the round boundary, exactly as
    /// [`ShardedPump::schedule_at`] clamps past events to `now`.
    ///
    /// Determinism: each lane's event subsequence and handler order are
    /// a pure function of the schedule, independent of thread timing and
    /// of whether `parallel` is set; worker-scheduled follow-ups get
    /// interleaved sequence numbers `base + lane + k·lanes`, and cross
    /// follow-ups are merged in lane order after the round.
    pub fn drain_parallel<S, FL, FC>(
        &mut self,
        horizon: SimTime,
        lookahead: SimDuration,
        states: &mut [S],
        local: FL,
        mut cross: FC,
    ) -> DrainStats
    where
        S: Send,
        FL: Fn(&mut S, SimTime, E, &mut LaneCtx<E>) + Sync,
        FC: FnMut(&mut [S], SimTime, E, &mut LaneCtx<E>),
    {
        assert_eq!(
            states.len(),
            self.lanes.len(),
            "one state per lane required"
        );
        assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
        let lane_count = self.lanes.len();
        let mut stats = DrainStats {
            lane_busy: vec![Duration::ZERO; lane_count],
            lane_events: vec![0; lane_count],
            ..DrainStats::default()
        };

        loop {
            // Serialize any cross events that are globally next.
            let lane_min = self
                .lanes
                .iter()
                .filter_map(|l| l.peek().map(|s| s.at))
                .min();
            while let Some(head) = self.cross.peek().map(|s| s.at) {
                if head > horizon || lane_min.is_some_and(|t| t < head) {
                    break;
                }
                // Cross events run first at equal instants: a barrier's
                // effects are visible to same-instant lane events.
                let started = Instant::now();
                let slot = self.cross.pop().expect("cross head exists");
                let (t, e) = (slot.at, slot.event);
                self.now = self.now.max(t);
                self.processed += 1;
                let mut ctx = LaneCtx {
                    lane: 0,
                    local: Vec::new(),
                    cross: Vec::new(),
                };
                cross(states, t, e, &mut ctx);
                stats.cross_events += 1;
                // Cross handlers schedule through the coordinator's own
                // sequence space (they run serialized).
                for (at, ev) in ctx.local.drain(..).chain(ctx.cross.drain(..)) {
                    self.schedule_at(LaneClass::Cross, at, ev);
                }
                stats.critical_path += started.elapsed();
            }

            let Some(t_min) = self.peek_time() else {
                self.now = self.now.max(horizon);
                break;
            };
            if t_min > horizon {
                self.now = self.now.max(horizon);
                break;
            }
            // The conservative window: nobody outruns the earliest lane
            // head by more than the lookahead, the next cross event, or
            // the horizon (inclusive — events at exactly `horizon` run).
            let mut window_end = t_min.saturating_add(lookahead);
            if let Some(cross_at) = self.cross.peek().map(|s| s.at) {
                window_end = window_end.min(cross_at);
            }
            let inclusive_end = window_end.min(horizon.saturating_add(SimDuration(1)));

            stats.rounds += 1;
            let round_base = self.seq;
            let now = self.now;
            let parallel = self.parallel && lane_count > 1;
            let lane_heaps: Vec<BinaryHeap<Scheduled<E>>> =
                self.lanes.iter_mut().map(std::mem::take).collect();

            let run_lane = |lane: usize, mut heap: BinaryHeap<Scheduled<E>>, state: &mut S| {
                let started = Instant::now();
                let mut ctx = LaneCtx {
                    lane,
                    local: Vec::new(),
                    cross: Vec::new(),
                };
                let mut events = 0u64;
                let mut follow_ups = 0u64;
                while let Some(head) = heap.peek() {
                    if head.at >= inclusive_end {
                        break;
                    }
                    let slot = heap.pop().expect("peeked");
                    let t = slot.at.max(now);
                    local(state, t, slot.event, &mut ctx);
                    events += 1;
                    // Lane-local follow-ups re-enter this lane's heap
                    // with deterministic interleaved sequence numbers
                    // (reduces to the global counter at one lane).
                    for (at, ev) in ctx.local.drain(..) {
                        heap.push(Scheduled {
                            at: at.max(t),
                            seq: round_base + lane as u64 + follow_ups * lane_count as u64,
                            event: ev,
                        });
                        follow_ups += 1;
                    }
                }
                RoundOutput {
                    heap,
                    cross: std::mem::take(&mut ctx.cross),
                    busy: started.elapsed(),
                    events,
                    follow_ups,
                }
            };

            let outputs: Vec<RoundOutput<E>> = if parallel {
                let run_lane = &run_lane;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = lane_heaps
                        .into_iter()
                        .zip(states.iter_mut())
                        .enumerate()
                        .map(|(lane, (heap, state))| {
                            scope.spawn(move || run_lane(lane, heap, state))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            } else {
                lane_heaps
                    .into_iter()
                    .zip(states.iter_mut())
                    .enumerate()
                    .map(|(lane, (heap, state))| run_lane(lane, heap, state))
                    .collect()
            };

            // Fold worker results back in. The coordinator's sequence
            // counter jumps past every worker-allocated follow-up seq,
            // then cross follow-ups are appended in lane order — both
            // steps are pure functions of the schedule, so the merge is
            // deterministic regardless of thread timing.
            let mut max_follow_ups = 0u64;
            let mut round_critical = Duration::ZERO;
            let mut cross_follow_ups: Vec<(SimTime, E)> = Vec::new();
            for (lane, out) in outputs.into_iter().enumerate() {
                self.lanes[lane] = out.heap;
                stats.lane_busy[lane] += out.busy;
                stats.lane_events[lane] += out.events;
                round_critical = round_critical.max(out.busy);
                stats.events += out.events;
                self.processed += out.events;
                max_follow_ups = max_follow_ups.max(out.follow_ups);
                cross_follow_ups.extend(out.cross);
            }
            stats.critical_path += round_critical;
            self.seq = self
                .seq
                .max(round_base + max_follow_ups * lane_count as u64);
            for (at, ev) in cross_follow_ups {
                // The lookahead contract: cross effects land no earlier
                // than the round boundary (late ones clamp, like
                // `schedule_at` clamps past instants to `now`).
                let at = at.max(window_end.min(horizon));
                self.schedule_at(LaneClass::Cross, at, ev);
            }
            self.now = window_end.min(horizon).max(self.now);
            if self.now >= horizon && self.peek_time().is_none_or(|t| t > horizon) {
                self.now = self.now.max(horizon);
                break;
            }
        }
        stats
    }
}

impl<E> std::fmt::Debug for ShardedPump<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPump")
            .field("lanes", &self.lanes.len())
            .field("pending", &self.len())
            .field("now", &self.now)
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    #[test]
    fn merged_pop_matches_single_heap_order() {
        let mut pump: ShardedPump<u32> = ShardedPump::new(PumpConfig::sharded(4));
        let stream = [
            (t(30), 0u32),
            (t(10), 1),
            (t(10), 2),
            (t(20), 3),
            (t(10), 4),
            (t(30), 5),
        ];
        for (i, (at, e)) in stream.iter().enumerate() {
            let class = if i % 3 == 0 {
                LaneClass::Cross
            } else {
                LaneClass::Local(*e as usize)
            };
            pump.schedule_at(class, *at, *e);
        }
        // Earliest first; equal instants in insertion order, across lanes
        // and the cross queue alike.
        let popped: Vec<_> = std::iter::from_fn(|| pump.pop()).collect();
        assert_eq!(
            popped,
            [
                (t(10), 1),
                (t(10), 2),
                (t(10), 4),
                (t(20), 3),
                (t(30), 0),
                (t(30), 5),
            ]
        );
        assert_eq!(pump.processed(), 6);
        assert_eq!(pump.now(), t(30));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut pump: ShardedPump<()> = ShardedPump::new(PumpConfig::sharded(2));
        pump.schedule_at(LaneClass::Local(0), t(10), ());
        pump.schedule_at(LaneClass::Cross, t(10), ());
        pump.schedule_at(LaneClass::Local(1), t(25), ());
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
        pump.schedule_at(LaneClass::Local(0), t(40), "a");
        pump.pop();
        pump.schedule_in(LaneClass::Cross, SimDuration(5), "b");
        assert_eq!(pump.pop(), Some((t(45), "b")));
    }

    #[test]
    fn schedule_clamps_past_to_now() {
        let mut pump: ShardedPump<&str> = ShardedPump::new(PumpConfig::sharded(2));
        pump.schedule_at(LaneClass::Local(0), t(100), "later");
        pump.pop();
        pump.schedule_at(LaneClass::Local(1), t(50), "past");
        let (at, e) = pump.pop().unwrap();
        assert_eq!((at, e), (t(100), "past"));
    }

    #[test]
    fn pop_until_respects_horizon_across_lanes() {
        let mut pump: ShardedPump<u8> = ShardedPump::new(PumpConfig::sharded(2));
        pump.schedule_at(LaneClass::Local(0), t(10), 0);
        pump.schedule_at(LaneClass::Local(1), t(90), 1);
        pump.schedule_at(LaneClass::Cross, t(40), 2);
        assert_eq!(pump.pop_until(t(50)).unwrap().1, 0);
        assert_eq!(pump.pop_until(t(50)).unwrap().1, 2);
        assert!(pump.pop_until(t(50)).is_none());
        assert_eq!(pump.len(), 1);
    }

    /// The parallel drain processes each lane's events in lane-local
    /// order and runs cross events against every lane at barriers.
    #[test]
    fn drain_parallel_is_deterministic_and_lane_ordered() {
        let run = |parallel: bool, lanes: usize| {
            let mut pump: ShardedPump<u64> =
                ShardedPump::new(PumpConfig::sharded(lanes).with_parallel(parallel));
            // 4 shards: shard s event k at t = 10 + 7k (+s jitter).
            for s in 0..4u64 {
                for k in 0..50u64 {
                    pump.schedule_at(
                        LaneClass::Local((s % lanes as u64) as usize),
                        t(10 + 7 * k + s),
                        s,
                    );
                }
            }
            pump.schedule_at(LaneClass::Cross, t(200), 99);
            // Each lane logs (shard, time) per handled event; shard
            // streams must come out time-ordered per shard.
            let mut states: Vec<Vec<(u64, SimTime)>> = vec![Vec::new(); lanes];
            let stats = pump.drain_parallel(
                t(1_000),
                SimDuration(50),
                &mut states,
                |log, at, shard, ctx| {
                    log.push((shard, at));
                    // One lane-local follow-up per 10th event *of this
                    // shard* — a per-shard-pure rule, so the decision is
                    // identical no matter how shards pack into lanes.
                    if shard < 100 {
                        let seen = log.iter().filter(|(s, _)| *s == shard).count();
                        if seen % 10 == 0 {
                            ctx.schedule_local(at + SimDuration(3), shard + 100);
                        }
                    }
                },
                |all, at, e, _ctx| {
                    assert_eq!(e, 99);
                    for log in all.iter_mut() {
                        log.push((u64::MAX, at));
                    }
                },
            );
            assert!(pump.is_empty());
            assert_eq!(stats.cross_events, 1);
            assert!(stats.events > 200);
            states
        };
        // Same lane count: parallel == sequential exactly.
        assert_eq!(run(false, 4), run(true, 4));
        assert_eq!(run(false, 2), run(true, 2));
        // Across lane counts, each shard's subsequence is identical.
        let by_shard = |states: Vec<Vec<(u64, SimTime)>>| {
            let mut per: Vec<Vec<SimTime>> = vec![Vec::new(); 4];
            for lane in states {
                for (shard, at) in lane {
                    if shard < 100 {
                        per[shard as usize].push(at);
                    } else if shard < u64::MAX {
                        per[(shard - 100) as usize].push(at);
                    }
                }
            }
            per
        };
        assert_eq!(by_shard(run(true, 1)), by_shard(run(true, 4)));
    }

    #[test]
    fn drain_parallel_respects_cross_barrier() {
        let mut pump: ShardedPump<&str> = ShardedPump::new(PumpConfig::sharded(2));
        pump.schedule_at(LaneClass::Local(0), t(10), "a");
        pump.schedule_at(LaneClass::Cross, t(20), "cut");
        pump.schedule_at(LaneClass::Local(1), t(30), "b");
        let mut order: Vec<Vec<&str>> = vec![Vec::new(); 2];
        pump.drain_parallel(
            t(100),
            SimDuration(1_000),
            &mut order,
            |log, _, e, _| log.push(e),
            |all, _, e, _| {
                for log in all.iter_mut() {
                    log.push(e);
                }
            },
        );
        // Lane 1 must not have processed "b" before the cross "cut".
        assert_eq!(order[1], vec!["cut", "b"]);
        assert_eq!(order[0], vec!["a", "cut"]);
    }

    #[test]
    fn drain_stats_account_busy_time() {
        let mut pump: ShardedPump<u8> =
            ShardedPump::new(PumpConfig::sharded(2).with_parallel(true));
        for i in 0..100u8 {
            pump.schedule_at(LaneClass::Local(i as usize % 2), t(u64::from(i)), i);
        }
        let mut states = vec![0u64, 0u64];
        let stats = pump.drain_parallel(
            t(1_000),
            SimDuration(10),
            &mut states,
            |n, _, _, _| *n += 1,
            |_, _, _, _| {},
        );
        assert_eq!(states[0] + states[1], 100);
        assert_eq!(stats.events, 100);
        assert_eq!(stats.lane_busy.len(), 2);
        assert_eq!(stats.lane_events.iter().sum::<u64>(), 100);
        assert_eq!(stats.lane_events, vec![50, 50]);
        assert!(stats.critical_path <= stats.total_busy() + Duration::from_millis(1));
    }
}
