//! Property tests for the pump's determinism contract: any event stream
//! replayed through a [`ShardedPump`] pops exactly as [`Model`], an
//! ordered map keyed by `(time, seq)` that clamps past instants to `now`
//! — all at once, or in incremental `pop_until` drains.

use std::collections::BTreeMap;

use proptest::prelude::*;

use udr_model::time::SimTime;
use udr_sim::pump::{LaneClass, PumpConfig, ShardedPump};

const LANE: LaneClass = LaneClass::Local(0);

/// The event order written down as directly as possible: earliest
/// `(time, insertion seq)` first, past instants clamped to `now`.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(SimTime, u64), usize>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl Model {
    fn schedule_at(&mut self, at: SimTime, event: usize) {
        self.pending.insert((at.max(self.now), self.seq), event);
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let ((at, _), event) = self.pending.pop_first()?;
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, usize)> {
        let (&(at, _), _) = self.pending.first_key_value()?;
        if at <= horizon {
            self.pop()
        } else {
            None
        }
    }
}

/// A stream of scheduling instants, from a range narrow enough that
/// equal instants (the FIFO tie-break) are common.
fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..5_000, 1..300)
}

proptest! {
    /// The pump is bit-identical to the model: identical pop order, clock
    /// trajectory and processed count.
    #[test]
    fn one_lane_matches_reference_model(stream in arb_stream()) {
        let mut model = Model::default();
        for (i, at) in stream.iter().enumerate() {
            model.schedule_at(SimTime(*at), i);
        }
        let mut expect = Vec::new();
        let mut clocks = Vec::new();
        while let Some(p) = model.pop() {
            expect.push(p);
            clocks.push(model.now);
        }

        let mut pump: ShardedPump<usize> = ShardedPump::new(PumpConfig::single());
        for (i, at) in stream.iter().enumerate() {
            pump.schedule_at(LANE, SimTime(*at), i);
        }
        let mut got = Vec::new();
        let mut pump_clocks = Vec::new();
        while let Some(p) = pump.pop() {
            got.push(p);
            pump_clocks.push(pump.now());
        }
        prop_assert_eq!(&expect, &got);
        prop_assert_eq!(&clocks, &pump_clocks);
        prop_assert_eq!(model.processed, pump.processed());
    }

    /// `pop_until` horizons interleave with late scheduling exactly as
    /// in the model: past instants clamp to `now` in both.
    #[test]
    fn incremental_drains_match_reference_model(
        stream in arb_stream(),
        horizons in prop::collection::vec(0u64..6_000, 1..10),
    ) {
        let mut sorted = horizons;
        sorted.sort_unstable();
        let mut model = Model::default();
        let mut pump: ShardedPump<usize> = ShardedPump::new(PumpConfig::single());
        let mut feed = stream.iter().enumerate();
        let mut schedule_next = |model: &mut Model, pump: &mut ShardedPump<usize>| {
            if let Some((i, at)) = feed.next() {
                model.schedule_at(SimTime(*at), i);
                pump.schedule_at(LANE, SimTime(*at), i);
            }
        };
        // Seed a few, then alternate drains at each horizon with more
        // (possibly past-clamped) scheduling.
        for _ in 0..5 {
            schedule_next(&mut model, &mut pump);
        }
        for h in sorted {
            loop {
                let a = model.pop_until(SimTime(h));
                let b = pump.pop_until(SimTime(h));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
                schedule_next(&mut model, &mut pump);
            }
            prop_assert_eq!(model.now, pump.now());
        }
    }
}
