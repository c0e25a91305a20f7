//! The parallel event-pump campaign behind `e24_pump_scaling`.
//!
//! Drives one synthetic-but-representative workload — per-shard engine
//! commits mixed with serialized cross-shard barriers, the shape of the
//! e23 pipeline stage — through a sequential [`ShardedPump::pop`] loop
//! and through [`ShardedPump::drain_parallel`] at several lane counts,
//! and reports sustained pipeline events/s per lane count.
//!
//! On this container's single core, worker threads cannot shorten wall
//! clock; the honest sustained-rate denominator for the N-lane rows is
//! the drain's **critical path** (Σ over rounds of the slowest lane's
//! busy time, plus serialized cross time — what an N-core box would
//! pay), which [`udr_sim::DrainStats`] measures from real per-lane busy time.
//! Wall clock is reported alongside so the two can never be confused.
//!
//! Determinism: every lane count must produce the per-shard event
//! subsequences of the sequential pop — the campaign digests them and
//! refuses to report numbers for a run that broke the merge contract.
//! The pop loop is a different algorithm from the windowed drain (one
//! global `(time, seq)` merge against lookahead rounds), so the digest
//! check compares two independent schedules, not one with itself.

use std::time::Instant;

use udr_model::attrs::{AttrId, AttrValue, Entry};
use udr_model::config::IsolationLevel;
use udr_model::ids::{SeId, SubscriberUid};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::{LaneClass, PumpConfig, ShardedPump, SimRng};
use udr_storage::Engine;

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct PumpCampaignConfig {
    /// Events to schedule up front (follow-ups add ~12% more).
    pub events: u64,
    /// Shards the events spread over (each shard's subsequence is the
    /// determinism unit; lanes host `shards / lanes` shards each).
    pub shards: usize,
    /// Lane counts to sweep. 1 is required (the scaling baseline).
    pub lane_counts: Vec<usize>,
    /// Fraction of events that are cross-lane barriers (serialized).
    pub cross_ratio: f64,
    /// RNG seed: same seed ⇒ identical digest.
    pub seed: u64,
}

impl PumpCampaignConfig {
    /// The full campaign: the e23-pipeline-stage shape at depth.
    pub fn full() -> Self {
        PumpCampaignConfig {
            events: 200_000,
            shards: 8,
            lane_counts: vec![1, 2, 4, 8],
            cross_ratio: 0.02,
            seed: 24,
        }
    }

    /// A small-N variant (CI smoke, determinism replays).
    pub fn small(events: u64) -> Self {
        PumpCampaignConfig {
            events,
            ..PumpCampaignConfig::full()
        }
    }
}

/// One swept row: a lane count's sustained rate and scaling efficiency.
#[derive(Debug, Clone)]
pub struct LaneRow {
    /// Lane count (0 = the sequential-pop reference row).
    pub lanes: usize,
    /// Events drained (local + cross; identical across rows).
    pub events: u64,
    /// Real wall-clock seconds for the drain (single-core: grows with
    /// thread overhead, not a speedup measure here).
    pub wall_s: f64,
    /// Critical-path seconds: what an N-core box would pay.
    pub critical_path_s: f64,
    /// Events per critical-path second — the sustained pipeline rate.
    pub sustained_per_sec: f64,
    /// `sustained(L) / (L × sustained(1))`; 1.0 = perfect scaling.
    pub efficiency: f64,
    /// Per-shard-subsequence digest; must match every other row.
    pub digest: u64,
    /// Wall-clock busy nanoseconds per lane (empty for the sequential row).
    /// Host timing — excluded from determinism digests.
    pub lane_busy_ns: Vec<u64>,
    /// Lane-local events processed per lane (empty for the sequential row).
    /// A pure function of the schedule, unlike `lane_busy_ns`.
    pub lane_events: Vec<u64>,
}

/// The campaign outcome.
#[derive(Debug, Clone)]
pub struct PumpOutcome {
    /// The sequential-pop reference row (wall-clock timed).
    pub baseline: LaneRow,
    /// One row per swept lane count.
    pub rows: Vec<LaneRow>,
    /// The common digest every row reproduced.
    pub digest: u64,
}

impl PumpOutcome {
    /// Sustained-rate speedup of `lanes` over the single-lane row.
    pub fn speedup(&self, lanes: usize) -> f64 {
        let one = self
            .rows
            .iter()
            .find(|r| r.lanes == 1)
            .map(|r| r.sustained_per_sec)
            .unwrap_or(0.0);
        self.rows
            .iter()
            .find(|r| r.lanes == lanes)
            .map(|r| r.sustained_per_sec / one.max(f64::MIN_POSITIVE))
            .unwrap_or(0.0)
    }
}

/// One scheduled unit of work.
#[derive(Debug, Clone)]
enum PumpEvent {
    /// Commit one record into the owning shard's engine.
    Commit { shard: usize, uid: u64 },
    /// Serialized cross-shard barrier: snapshot every shard's position.
    Barrier { round: u64 },
}

/// Per-lane state: one engine per shard hosted on the lane, plus the
/// per-shard event logs the determinism digest is computed from.
struct LaneState {
    /// (shard, engine) for every shard this lane hosts.
    engines: Vec<(usize, Engine)>,
    /// (shard, uid) in handler order — the determinism unit.
    log: Vec<(usize, u64)>,
}

impl LaneState {
    fn engine(&mut self, shard: usize) -> &mut Engine {
        &mut self
            .engines
            .iter_mut()
            .find(|(s, _)| *s == shard)
            .expect("shard hosted on this lane")
            .1
    }
}

fn lane_states(shards: usize, lanes: usize) -> Vec<LaneState> {
    (0..lanes)
        .map(|lane| LaneState {
            engines: (0..shards)
                .filter(|s| s % lanes == lane)
                .map(|s| (s, Engine::new(SeId(s as u32))))
                .collect(),
            log: Vec::new(),
        })
        .collect()
}

fn commit_one(engine: &mut Engine, uid: u64, at: SimTime) {
    let txn = engine.begin(IsolationLevel::ReadCommitted);
    let mut entry = Entry::new();
    entry.set(AttrId::OdbMask, AttrValue::U64(uid));
    engine
        .put(txn, SubscriberUid(uid), entry)
        .expect("fresh uid");
    engine.commit(txn, at).expect("commit").expect("non-empty");
    // Keep the log bounded: this campaign measures the pump, not RAM.
    if engine.last_lsn().raw().is_multiple_of(4096) {
        let upto = engine.last_lsn();
        engine.truncate_log(upto);
    }
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest the per-shard subsequences plus the barrier trace: a pure
/// function of the merged timeline, independent of lane count.
fn digest_states(states: &[LaneState], barriers: &[(u64, u64)]) -> u64 {
    let mut digest = 0xcbf29ce484222325u64;
    let shards: usize = states.iter().map(|s| s.engines.len()).sum();
    for shard in 0..shards {
        digest = fnv1a(digest, &(shard as u64).to_be_bytes());
        for state in states {
            for (s, uid) in &state.log {
                if *s == shard {
                    digest = fnv1a(digest, &uid.to_be_bytes());
                }
            }
        }
    }
    for (round, position) in barriers {
        digest = fnv1a(digest, &round.to_be_bytes());
        digest = fnv1a(digest, &position.to_be_bytes());
    }
    digest
}

/// The event stream, as (class, at, event) triples. Instants land on a
/// µs grid with deliberate collisions (same-instant merge order is part
/// of what the digest locks down).
fn stream(cfg: &PumpCampaignConfig) -> Vec<(LaneClass, SimTime, PumpEvent)> {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.events as usize);
    let mut barrier_round = 0u64;
    for uid in 0..cfg.events {
        // ~1 event/µs: dense enough that one lookahead window batches
        // ~100 events across the lanes (sparser schedules degenerate to
        // one event per round and nothing can overlap).
        let at = SimTime(rng.below(cfg.events) * 1_000);
        if rng.chance(cfg.cross_ratio) {
            barrier_round += 1;
            // Half a µs off the local grid: the drain's cross-first rule
            // at equal instants is part of its contract and differs from
            // the sequential pop's insertion-order ties, so barriers never
            // share an instant with a commit here (class-boundary ties
            // are pinned down by the sim crate's unit tests instead).
            out.push((
                LaneClass::Cross,
                at + SimDuration::from_nanos(500),
                PumpEvent::Barrier {
                    round: barrier_round,
                },
            ));
        } else {
            let shard = rng.below(cfg.shards as u64) as usize;
            out.push((
                LaneClass::Local(shard),
                at,
                PumpEvent::Commit { shard, uid },
            ));
        }
    }
    out
}

/// Lookahead: the minimum cross-lane latency the merge barrier respects.
/// 100 µs — the shape of an inter-site hop; at ~1 event/µs each round
/// batches ~100 events across the lanes.
const LOOKAHEAD: SimDuration = SimDuration::from_micros(100);

/// Horizon safely past every scheduled instant and follow-up.
fn horizon(cfg: &PumpCampaignConfig) -> SimTime {
    SimTime(cfg.events * 1_000 * 1_000)
}

/// Drain the stream by popping a one-lane pump in `(time, seq)` order:
/// the reference timeline every windowed drain must reproduce.
fn run_sequential(cfg: &PumpCampaignConfig) -> LaneRow {
    let mut queue: ShardedPump<PumpEvent> = ShardedPump::new(PumpConfig::single());
    for (class, at, ev) in stream(cfg) {
        queue.schedule_at(class, at, ev);
    }
    let mut state = lane_states(cfg.shards, 1);
    let mut barriers: Vec<(u64, u64)> = Vec::new();
    let started = Instant::now();
    let mut events = 0u64;
    while let Some((t, ev)) = queue.pop() {
        events += 1;
        match ev {
            PumpEvent::Commit { shard, uid } => {
                commit_one(state[0].engine(shard), uid, t);
                state[0].log.push((shard, uid));
                // First-generation events only — follow-ups are terminal.
                if uid < cfg.events && uid.is_multiple_of(8) {
                    queue.schedule_at(
                        LaneClass::Local(shard),
                        t + LOOKAHEAD,
                        PumpEvent::Commit {
                            shard,
                            uid: uid + cfg.events,
                        },
                    );
                }
            }
            PumpEvent::Barrier { round } => {
                let position: u64 = state[0]
                    .engines
                    .iter()
                    .map(|(_, e)| e.last_lsn().raw())
                    .sum();
                barriers.push((round, position));
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    LaneRow {
        lanes: 0,
        events,
        wall_s,
        critical_path_s: wall_s,
        sustained_per_sec: if wall_s > 0.0 {
            events as f64 / wall_s
        } else {
            0.0
        },
        efficiency: 1.0,
        digest: digest_states(&state, &barriers),
        lane_busy_ns: Vec::new(),
        lane_events: Vec::new(),
    }
}

/// Drain the stream through the sharded pump at `lanes` lanes.
///
/// `threaded` selects real worker threads. The swept rows run
/// sequential (`false`): on a single-core container, OS preemption of
/// worker threads inflates the `Instant`-measured per-lane busy time
/// with time the thread spent descheduled, corrupting the critical
/// path. The sequential drain executes the identical deterministic
/// schedule with clean accounting; one threaded run still executes per
/// campaign to prove the live-thread path agrees byte-for-byte.
fn run_sharded(cfg: &PumpCampaignConfig, lanes: usize, threaded: bool) -> LaneRow {
    let mut pump: ShardedPump<PumpEvent> =
        ShardedPump::new(PumpConfig::sharded(lanes).with_parallel(threaded));
    for (class, at, ev) in stream(cfg) {
        pump.schedule_at(class, at, ev);
    }
    let mut states = lane_states(cfg.shards, lanes);
    let mut barriers: Vec<(u64, u64)> = Vec::new();
    let events_total = cfg.events;
    let started = Instant::now();
    let stats = pump.drain_parallel(
        horizon(cfg),
        LOOKAHEAD,
        &mut states,
        |state: &mut LaneState, t, ev, ctx| {
            let PumpEvent::Commit { shard, uid } = ev else {
                unreachable!("cross events never reach a lane handler");
            };
            commit_one(state.engine(shard), uid, t);
            state.log.push((shard, uid));
            // Per-shard-pure follow-up rule: derived from the event
            // alone, so every lane count spawns the identical set.
            // First-generation events only — follow-ups are terminal.
            if uid < events_total && uid.is_multiple_of(8) {
                ctx.schedule_local(
                    t + LOOKAHEAD,
                    PumpEvent::Commit {
                        shard,
                        uid: uid + events_total,
                    },
                );
            }
        },
        |states: &mut [LaneState], _t, ev, _ctx| {
            let PumpEvent::Barrier { round } = ev else {
                unreachable!("lane events never reach the cross handler");
            };
            let position: u64 = states
                .iter()
                .flat_map(|s| s.engines.iter())
                .map(|(_, e)| e.last_lsn().raw())
                .sum();
            barriers.push((round, position));
        },
    );
    let wall_s = started.elapsed().as_secs_f64();
    let critical_path_s = stats.critical_path.as_secs_f64();
    let events = stats.events + stats.cross_events;
    LaneRow {
        lanes,
        events,
        wall_s,
        critical_path_s,
        sustained_per_sec: if critical_path_s > 0.0 {
            events as f64 / critical_path_s
        } else {
            0.0
        },
        efficiency: 0.0, // filled against the 1-lane row by `run`
        digest: digest_states(&states, &barriers),
        lane_busy_ns: stats
            .lane_busy
            .iter()
            .map(|d| d.as_nanos() as u64)
            .collect(),
        lane_events: stats.lane_events.clone(),
    }
}

/// [`run`], recording one [`udr_trace::Tracer::lane_slice`] per lane of each swept
/// row into `tracer` (busy wall-clock + deterministic event count, at
/// the drain horizon). The slices are `digest: false` records: they make
/// lane balance visible in an exported trace without making the trace
/// digest depend on host timing.
pub fn run_traced(cfg: &PumpCampaignConfig, tracer: &mut udr_trace::Tracer) -> PumpOutcome {
    let out = run(cfg);
    let at = horizon(cfg);
    for row in &out.rows {
        for (lane, busy_ns) in row.lane_busy_ns.iter().enumerate() {
            tracer.lane_slice(
                lane,
                std::time::Duration::from_nanos(*busy_ns),
                row.lane_events.get(lane).copied().unwrap_or(0),
                at,
            );
        }
    }
    out
}

/// Run the campaign. Panics if any lane count diverges from the
/// sequential pop's timeline — a determinism regression outranks any
/// speedup.
pub fn run(cfg: &PumpCampaignConfig) -> PumpOutcome {
    assert!(
        cfg.lane_counts.contains(&1),
        "the sweep needs the 1-lane scaling baseline"
    );
    let baseline = run_sequential(cfg);
    let mut rows: Vec<LaneRow> = cfg
        .lane_counts
        .iter()
        .map(|&lanes| run_sharded(cfg, lanes, false))
        .collect();
    // One real-thread drain at the widest lane count: worker threads
    // must reproduce the same merged timeline byte for byte (its timing
    // is meaningless on a single core and is not reported).
    let widest = cfg.lane_counts.iter().copied().max().unwrap_or(1);
    let threaded = run_sharded(cfg, widest, true);
    assert_eq!(
        threaded.digest, baseline.digest,
        "threaded {widest}-lane drain diverged from the merged timeline"
    );
    let one = rows
        .iter()
        .find(|r| r.lanes == 1)
        .expect("1-lane row exists")
        .sustained_per_sec;
    for row in &mut rows {
        row.efficiency = if one > 0.0 {
            row.sustained_per_sec / (row.lanes as f64 * one)
        } else {
            0.0
        };
        assert_eq!(
            row.digest, baseline.digest,
            "{} lanes diverged from the sequential pop's timeline",
            row.lanes
        );
        assert_eq!(
            row.events, baseline.events,
            "{} lanes processed a different event count",
            row.lanes
        );
    }
    PumpOutcome {
        digest: baseline.digest,
        baseline,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_replays_the_sequential_timeline_at_every_lane_count() {
        let cfg = PumpCampaignConfig::small(4_000);
        let out = run(&cfg);
        assert_eq!(out.rows.len(), 4);
        assert!(out.baseline.events >= cfg.events);
        for row in &out.rows {
            assert_eq!(row.digest, out.digest);
            assert_eq!(row.events, out.baseline.events);
        }
        // Speed-up is host timing: the e24 binary gates it, not tier-1.
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = PumpCampaignConfig::small(1_500);
        assert_eq!(run(&cfg).digest, run(&cfg).digest);
    }
}
