//! Property tests for the sharded pump's determinism contract:
//!
//! * any event stream replayed through a [`ShardedPump`] with **one**
//!   lane pops exactly as [`Model`], an ordered map keyed by
//!   `(time, seq)` that clamps past instants to `now`;
//! * with **N** lanes the merged `(time, seq)` timeline is *still*
//!   identical, because sequence numbers are allocated globally at
//!   schedule time — lane assignment never reorders the merge;
//! * the conservative parallel drain replays the same per-shard event
//!   subsequences for any lane count and for either threading mode.

use std::collections::BTreeMap;

use proptest::prelude::*;

use udr_model::time::{SimDuration, SimTime};
use udr_sim::pump::{LaneClass, PumpConfig, ShardedPump};

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

/// One scheduled entry: (at, shard, is_cross). Shards are the unit of
/// lane assignment, exactly as partitions are in `udr-core`.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, usize, bool)>> {
    prop::collection::vec(
        (0u64..5_000, 0usize..8, 0u8..100).prop_map(|(at, shard, c)| (at, shard, c < 15)),
        1..300,
    )
}

/// Replay `stream` through a pump with `lanes` lanes and collect the
/// merged pop order.
fn merged_timeline(stream: &[(u64, usize, bool)], lanes: usize) -> Vec<(SimTime, usize)> {
    let mut pump: ShardedPump<usize> = ShardedPump::new(PumpConfig::sharded(lanes));
    for (i, (at, shard, cross)) in stream.iter().enumerate() {
        let class = if *cross {
            LaneClass::Cross
        } else {
            LaneClass::Local(*shard)
        };
        pump.schedule_at(class, SimTime(*at), i);
    }
    std::iter::from_fn(|| pump.pop()).collect()
}

proptest! {
    /// A 1-lane sharded pump is bit-identical to the model: identical
    /// pop order, clock trajectory and processed count.
    #[test]
    fn one_lane_matches_reference_model(stream in arb_stream()) {
        let mut model = Model::default();
        for (i, (at, _, _)) in stream.iter().enumerate() {
            model.schedule_at(SimTime(*at), i);
        }
        let mut expect = Vec::new();
        let mut clocks = Vec::new();
        while let Some(p) = model.pop() {
            expect.push(p);
            clocks.push(model.now);
        }

        let mut pump: ShardedPump<usize> = ShardedPump::new(PumpConfig::single());
        for (i, (at, shard, cross)) in stream.iter().enumerate() {
            let class = if *cross { LaneClass::Cross } else { LaneClass::Local(*shard) };
            pump.schedule_at(class, SimTime(*at), i);
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

    /// Lane count never changes the merged timeline: global sequence
    /// numbers make the sharded merge a pure function of the schedule.
    #[test]
    fn lane_count_is_invisible_to_the_merge(stream in arb_stream()) {
        let one = merged_timeline(&stream, 1);
        for lanes in [2usize, 3, 4, 8] {
            prop_assert_eq!(&one, &merged_timeline(&stream, lanes), "lanes = {}", lanes);
        }
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
        let mut pump: ShardedPump<usize> = ShardedPump::new(PumpConfig::sharded(4));
        let mut feed = stream.iter().enumerate();
        let mut schedule_next = |model: &mut Model, pump: &mut ShardedPump<usize>| {
            if let Some((i, (at, shard, cross))) = feed.next() {
                model.schedule_at(SimTime(*at), i);
                let class = if *cross { LaneClass::Cross } else { LaneClass::Local(*shard) };
                pump.schedule_at(class, SimTime(*at), i);
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

    /// The parallel drain delivers identical per-shard subsequences for
    /// every lane count and for both threading modes, and never lets a
    /// lane event overtake a cross barrier.
    #[test]
    fn parallel_drain_is_lane_count_invariant(
        stream in arb_stream(),
        lookahead in 1u64..2_000,
    ) {
        let run = |lanes: usize, parallel: bool| {
            let mut pump: ShardedPump<(usize, usize)> =
                ShardedPump::new(PumpConfig::sharded(lanes).with_parallel(parallel));
            for (i, (at, shard, cross)) in stream.iter().enumerate() {
                let class = if *cross { LaneClass::Cross } else { LaneClass::Local(*shard) };
                pump.schedule_at(class, SimTime(*at), (*shard, i));
            }
            // Per-lane logs of (shard, payload, at, tag): tag marks
            // whether the entry came from the lane handler (MAX) or the
            // serialized cross handler (0).
            let mut lanes_log: Vec<Vec<(usize, usize, SimTime, usize)>> =
                vec![Vec::new(); lanes];
            let stats = pump.drain_parallel(
                SimTime(10_000),
                SimDuration(lookahead),
                &mut lanes_log,
                |log, at, (shard, i), _ctx| log.push((shard, i, at, usize::MAX)),
                |all, at, (shard, i), _ctx| {
                    for log in all.iter_mut() {
                        log.push((shard, i, at, 0));
                    }
                },
            );
            prop_assert!(pump.is_empty());
            let total: usize = lanes_log.iter().map(|l| l.len()).sum();
            let cross_n = stream.iter().filter(|(_, _, c)| *c).count();
            prop_assert_eq!(
                stats.events as usize + stats.cross_events as usize,
                stream.len()
            );
            prop_assert_eq!(total, stream.len() - cross_n + cross_n * lanes);
            // Per-shard local subsequence: (payload order) per shard.
            let mut per_shard: Vec<Vec<Vec<usize>>> = vec![Vec::new(); 8];
            for (lane, log) in lanes_log.iter().enumerate() {
                for (s, shard_rows) in per_shard.iter_mut().enumerate() {
                    let seq: Vec<usize> = log
                        .iter()
                        .filter(|(shard, _, _, tag)| *shard == s && *tag == usize::MAX)
                        .map(|(_, i, _, _)| *i)
                        .collect();
                    if !seq.is_empty() {
                        while shard_rows.len() <= lane {
                            shard_rows.push(Vec::new());
                        }
                        shard_rows[lane] = seq;
                    }
                }
            }
            // Flatten: each shard's events live in exactly one lane.
            let flat: Vec<Vec<usize>> = per_shard
                .into_iter()
                .map(|by_lane| by_lane.into_iter().flatten().collect())
                .collect();
            Ok(flat)
        };
        let base = run(1, false)?;
        for lanes in [2usize, 4, 8] {
            prop_assert_eq!(&base, &run(lanes, false)?, "lanes = {} seq", lanes);
            prop_assert_eq!(&base, &run(lanes, true)?, "lanes = {} par", lanes);
        }
    }
}
