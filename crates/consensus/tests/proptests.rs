//! Property tests: Paxos safety must hold under *any* fault schedule.
//!
//! Each case builds a random cluster (3 or 5 nodes), a random submission
//! pattern and a random set of partitions, crashes and restarts, then
//! checks the invariants that define consensus:
//!
//! 1. **Agreement** — no two nodes ever decide different commands for the
//!    same slot (checked per-learn and pairwise at the end).
//! 2. **Durability** — a command reported committed is in the log of every
//!    node whose watermark covers its slot.
//! 3. **Integrity** — nothing appears in a log that was never submitted
//!    (no-ops aside).
//! 4. **Liveness** (fault-free cases only) — everything submitted commits.
//!
//! A second host runs a bare [`Ensemble`] under message loss, reordering,
//! link cuts, islands and crash/restore, and checks the leader lease after
//! every event:
//!
//! 5. **Lease** — at most one node holds a lease, and a holder has decided
//!    every slot any node has decided. So no slot is chosen under a ballot
//!    above a holder's, and a read served under the lease is not stale.
//!    Dropping a follower's stickiness, or the `read_index_ready` term of
//!    `Replica::lease_holds`, breaks it within the 64 cases.

use proptest::prelude::*;

use udr_consensus::runtime::{ClusterConfig, ConsensusCluster};
use udr_consensus::{ChosenLog, CmdId, Command, Payload, Slot};
use udr_model::ids::{SeId, SiteId, SubscriberUid};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::Topology;
use udr_sim::FaultScript;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

#[derive(Debug, Clone)]
struct FaultPlan {
    /// (start ms, duration ms, island members)
    partitions: Vec<(u64, u64, Vec<u32>)>,
    /// (crash ms, restart ms, node)
    crashes: Vec<(u64, u64, u32)>,
}

fn fault_plan(nodes: u32) -> impl Strategy<Value = FaultPlan> {
    let partition = (
        2_000u64..20_000,
        1_000u64..10_000,
        proptest::collection::vec(0..nodes, 1..=(nodes as usize / 2)),
    );
    let crash = (2_000u64..20_000, 1_000u64..10_000, 0..nodes);
    (
        proptest::collection::vec(partition, 0..3),
        proptest::collection::vec(crash, 0..2),
    )
        .prop_map(|(partitions, crashes)| FaultPlan {
            partitions,
            crashes: crashes
                .into_iter()
                .map(|(at, dur, n)| (at, at + dur, n))
                .collect(),
        })
}

/// Run a cluster under the plan; return (cluster report, submitted count).
fn run_case(
    nodes: u32,
    seed: u64,
    submissions: &[(u64, u32)],
    plan: &FaultPlan,
) -> udr_consensus::RunReport {
    let mut cluster =
        ConsensusCluster::new(Topology::multinational(nodes as usize), ClusterConfig, seed);
    for (i, (at_ms, origin)) in submissions.iter().enumerate() {
        cluster.submit_write_at(
            SimTime::ZERO + ms(2_000 + at_ms),
            origin % nodes,
            SubscriberUid(i as u64),
            None,
        );
    }
    let mut script = FaultScript::new(seed);
    for (at, dur, island) in &plan.partitions {
        // Guard: never isolate every node (that is a dead network, trivially
        // safe but uninteresting).
        let island: Vec<u32> = island.iter().copied().filter(|n| *n < nodes).collect();
        if !island.is_empty() && island.len() < nodes as usize {
            script = script.clean_partition(
                SimTime::ZERO + ms(*at),
                ms(*dur),
                island.into_iter().map(SiteId),
            );
        }
    }
    for (crash, restart, node) in &plan.crashes {
        script = script.se_outage(
            SimTime::ZERO + ms(*crash),
            ms(restart - crash),
            SeId(node % nodes),
        );
    }
    cluster.schedule_script(&script);
    // Long tail so the cluster can heal, re-elect and drain pending work.
    cluster.run_until(secs(90))
}

fn check_invariants(report: &udr_consensus::RunReport, cluster_desc: &str) {
    assert!(
        report.violations.is_empty(),
        "[{cluster_desc}] agreement violated: {:?}",
        report.violations
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Safety under arbitrary partitions and crash/restart schedules.
    #[test]
    fn agreement_holds_under_random_faults(
        seed in 0u64..1_000_000,
        nodes in prop_oneof![Just(3u32), Just(5u32)],
        submissions in proptest::collection::vec((0u64..25_000, 0u32..5), 1..20),
        plan in fault_plan(5),
    ) {
        let report = run_case(nodes, seed, &submissions, &plan);
        check_invariants(&report, "random-faults");
    }

    /// Fault-free runs are live: everything submitted commits, exactly once.
    #[test]
    fn fault_free_runs_commit_everything(
        seed in 0u64..1_000_000,
        nodes in prop_oneof![Just(3u32), Just(5u32)],
        submissions in proptest::collection::vec((0u64..10_000, 0u32..5), 1..25),
    ) {
        let plan = FaultPlan { partitions: vec![], crashes: vec![] };
        let report = run_case(nodes, seed, &submissions, &plan);
        check_invariants(&report, "fault-free");
        prop_assert_eq!(report.committed(), submissions.len(),
            "uncommitted fates: {:?}", report.fates);
    }
}

/// The chosen entries above `above`, in a fresh vector.
fn suffix(log: &ChosenLog, above: Slot) -> Vec<(Slot, Command)> {
    let mut out = Vec::new();
    log.suffix_into(above, &mut out);
    out
}

/// The model `ChosenLog::effective_after` is checked against: one walk of
/// the finished log's applicable prefix with a fresh seen-set, yielding
/// each non-noop id at its first slot.
fn effective_by_full_walk(log: &ChosenLog) -> Vec<(Slot, CmdId)> {
    let mut seen = std::collections::HashSet::new();
    log.iter()
        .take_while(|(slot, _)| *slot <= log.committed())
        .filter(|(_, cmd)| !cmd.is_noop() && seen.insert(cmd.id))
        .map(|(slot, cmd)| (slot, cmd.id))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// An apply cursor sees every effective entry exactly once, whatever
    /// the order the log fills in. Slot `i + 1` holds `steps[i]`'s command
    /// — kind 0 a no-op, 1 never decided (a lasting gap), anything else a
    /// write whose id is drawn from so few that duplicates land in earlier
    /// and in later slots — and is recorded in the order of the keys; a
    /// step may re-record a decided slot and may drain a batch.
    #[test]
    fn cursor_batches_concatenate_to_the_effective_sequence(
        steps in proptest::collection::vec((0u64..8, 0u64..1_000, 0u32..4, 0u32..3), 1..48),
    ) {
        let command = |kind: u64| match kind {
            0 => Command::noop(),
            id => Command::write(CmdId(id), SubscriberUid(id), None),
        };
        let mut order: Vec<usize> = (0..steps.len()).filter(|i| steps[*i].0 != 1).collect();
        order.sort_by_key(|i| steps[*i].1);

        let mut log = ChosenLog::new();
        let mut cursor = Slot::ZERO;
        let mut drained: Vec<(Slot, CmdId)> = Vec::new();
        for (done, &i) in order.iter().enumerate() {
            let (kind, key, rerecord, drain) = steps[i];
            prop_assert_eq!(log.record(Slot(i as u64 + 1), command(kind)), Ok(true));
            if rerecord == 0 {
                let j = order[key as usize % (done + 1)];
                prop_assert_eq!(log.record(Slot(j as u64 + 1), command(steps[j].0)), Ok(false));
            }
            if drain == 0 {
                drained.extend(log.effective_after(cursor).map(|(slot, cmd)| (slot, cmd.id)));
                cursor = log.committed();
            }
        }
        drained.extend(log.effective_after(cursor).map(|(slot, cmd)| (slot, cmd.id)));

        let model = effective_by_full_walk(&log);
        prop_assert_eq!(&drained, &model);
        let whole: Vec<(Slot, CmdId)> =
            log.iter_effective().map(|(slot, cmd)| (slot, cmd.id)).collect();
        prop_assert_eq!(&whole, &model);
    }
}

/// Slots per segment of `ChosenLog`'s storage (a private constant of
/// `log.rs`; keep the two equal so the boundary draws below sit on it).
const SEGMENT: u64 = 256;

/// A slot for the model test below to record at.
fn slot_draw() -> impl Strategy<Value = u64> {
    let s = SEGMENT;
    prop_oneof![
        // Anywhere in the first four segments.
        1u64..=4 * s,
        // On or beside a segment boundary, and the slot-0 sentinel.
        proptest::sample::select(vec![
            0,
            1,
            2,
            s - 1,
            s,
            s + 1,
            s + 2,
            2 * s,
            2 * s + 1,
            3 * s
        ]),
        // Dense runs, so the watermark crosses a boundary.
        (0u64..4, 0u64..12).prop_map(move |(seg, off)| (seg * s + 1).saturating_sub(6) + off),
    ]
}

/// `effective_after(above)` computed from the model: the contiguous prefix,
/// no-ops skipped, each id at its first slot.
fn model_effective_after(
    model: &std::collections::BTreeMap<Slot, Command>,
    committed: Slot,
    above: Slot,
) -> Vec<(Slot, CmdId)> {
    let mut seen = std::collections::HashSet::new();
    model
        .range(..=committed)
        .filter(|(_, cmd)| !cmd.is_noop() && seen.insert(cmd.id))
        .filter(|(slot, _)| **slot > above)
        .map(|(slot, cmd)| (*slot, cmd.id))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The log answers every query the way a `BTreeMap<Slot, Command>`
    /// does, over slots that span four storage segments. Each step records
    /// command `kind` (0 a no-op, any other a write with that id, so ids
    /// repeat) at a drawn slot: gaps, re-records of the same command,
    /// conflicting commands and duplicate ids all occur, and the two slots
    /// either side of the first boundary are always recorded at drawn
    /// points. After every step `get`, `len`, `max_slot`, `committed`,
    /// `suffix`, `iter` and `effective_after` are compared with the model.
    #[test]
    fn the_log_matches_a_map_model_across_segment_boundaries(
        mut steps in proptest::collection::vec((slot_draw(), 0u64..6, 0u64..4 * SEGMENT), 1..160),
        boundary in (0usize..160, 0u64..6, 0usize..160, 0u64..6),
    ) {
        let command = |kind: u64| match kind {
            0 => Command::noop(),
            id => Command::write(CmdId(id), SubscriberUid(id), None),
        };
        let (at, kind, at_next, kind_next) = boundary;
        steps.insert(at % (steps.len() + 1), (SEGMENT, kind, SEGMENT - 1));
        steps.insert(at_next % (steps.len() + 1), (SEGMENT + 1, kind_next, SEGMENT));

        let mut log = ChosenLog::new();
        let mut model: std::collections::BTreeMap<Slot, Command> = Default::default();
        for (slot, kind, above) in steps {
            let (slot, cmd, above) = (Slot(slot), command(kind), Slot(above));
            let expected = match model.get(&slot) {
                _ if slot == Slot::ZERO => Ok(false),
                Some(existing) if *existing == cmd => Ok(false),
                Some(existing) => Err((existing.id, cmd.id)),
                None => {
                    model.insert(slot, cmd.clone());
                    Ok(true)
                }
            };
            let got = log.record(slot, cmd).map_err(|v| {
                prop_assert_eq!(v.slot, slot);
                (v.existing.id, v.incoming.id)
            });
            prop_assert_eq!(got, expected);

            let committed = (1..)
                .map(Slot)
                .take_while(|s| model.contains_key(s))
                .last()
                .unwrap_or(Slot::ZERO);
            let max = model.keys().next_back().copied().unwrap_or(Slot::ZERO);
            prop_assert_eq!(log.len(), model.len());
            prop_assert_eq!(log.is_empty(), model.is_empty());
            prop_assert_eq!(log.max_slot(), max);
            prop_assert_eq!(log.committed(), committed);
            for probe in [
                Slot::ZERO,
                slot,
                slot.next(),
                Slot(slot.0.saturating_sub(1)),
                Slot(SEGMENT),
                Slot(SEGMENT + 1),
                max.next(),
                Slot(u64::MAX),
            ] {
                prop_assert_eq!(log.get(probe), model.get(&probe));
            }
            let iter: Vec<(Slot, &Command)> = log.iter().collect();
            let model_iter: Vec<(Slot, &Command)> = model.iter().map(|(s, c)| (*s, c)).collect();
            prop_assert_eq!(iter, model_iter);
            let model_suffix: Vec<(Slot, Command)> =
                model.range(above.next()..).map(|(s, c)| (*s, c.clone())).collect();
            prop_assert_eq!(suffix(&log, above), model_suffix);
            let effective: Vec<(Slot, CmdId)> =
                log.effective_after(above).map(|(s, c)| (s, c.id)).collect();
            prop_assert_eq!(effective, model_effective_after(&model, committed, above));
        }
    }
}

/// A compaction floor for the model test below: at or below a recorded
/// slot, inside a segment, on a boundary, or past every slot.
fn floor_draw() -> impl Strategy<Value = u64> {
    let s = SEGMENT;
    prop_oneof![
        0u64..=4 * s,
        proptest::sample::select(vec![0, 1, s - 1, s, s + 1, 2 * s, 3 * s + 7, u64::MAX]),
    ]
}

/// One step of the compaction model test: record command `kind` at a slot,
/// or compact through a floor.
#[derive(Debug, Clone)]
enum Step {
    Record(u64, u64),
    Compact(u64),
}

fn step_draw() -> impl Strategy<Value = Step> {
    let record = || (slot_draw(), 0u64..8).prop_map(|(slot, kind)| Step::Record(slot, kind));
    // Three records to a compaction.
    prop_oneof![
        record(),
        record(),
        record(),
        floor_draw().prop_map(Step::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A log compacted at random floors answers every query as a
    /// `BTreeMap<Slot, Command>` of every decision ever recorded does, for
    /// the slots above its base. Records fall below and above the base,
    /// with gaps, no-ops, re-records, conflicts and duplicate ids; a
    /// duplicate of an id whose every copy was compacted gets a fresh id
    /// instead, as the deployment's floor guarantees (the node that still
    /// holds such a command has not learned its slot, so the floor lies
    /// below it). After every step `get`, `len`, `committed`, `base`,
    /// `suffix`, `effective_after`, `contains_id` and `cursor_for_writes`
    /// are compared with the model: the cursor is `None` exactly for a
    /// write count short of the writes compacted, and a replay above any
    /// other cursor applies the model's writes after that count.
    #[test]
    fn a_compacted_log_matches_a_map_model(
        steps in proptest::collection::vec(step_draw(), 1..200),
    ) {
        let mut log = ChosenLog::new();
        let mut model: std::collections::BTreeMap<Slot, Command> = Default::default();
        let mut base = Slot::ZERO;
        let mut fresh = 1_000;
        let committed_of = |model: &std::collections::BTreeMap<Slot, Command>| {
            (1..)
                .map(Slot)
                .take_while(|s| model.contains_key(s))
                .last()
                .unwrap_or(Slot::ZERO)
        };
        for step in steps {
            match step {
                Step::Record(slot, kind) => {
                    let slot = Slot(slot);
                    let mut id = kind;
                    let held = |id: u64| model.range(base.next()..).any(|(_, c)| c.id == CmdId(id));
                    let ever = |id: u64| model.values().any(|c| c.id == CmdId(id));
                    if id != 0 && slot > base && ever(id) && !held(id) {
                        fresh += 1;
                        id = fresh;
                    }
                    let cmd = match id {
                        0 => Command::noop(),
                        id => Command::write(CmdId(id), SubscriberUid(id), None),
                    };
                    let expected = match model.get(&slot) {
                        _ if slot <= base => Ok(false),
                        Some(existing) if *existing == cmd => Ok(false),
                        Some(existing) => Err((existing.id, cmd.id)),
                        None => {
                            model.insert(slot, cmd.clone());
                            Ok(true)
                        }
                    };
                    let got = log.record(slot, cmd).map_err(|v| (v.existing.id, v.incoming.id));
                    prop_assert_eq!(got, expected);
                }
                Step::Compact(floor) => {
                    base = base.max(Slot(floor).min(committed_of(&model)));
                    log.compact_through(Slot(floor));
                }
            }

            let committed = committed_of(&model);
            let held: std::collections::BTreeMap<Slot, Command> =
                model.range(base.next()..).map(|(s, c)| (*s, c.clone())).collect();
            prop_assert_eq!(log.base(), base);
            prop_assert_eq!(log.committed(), committed);
            prop_assert_eq!(log.len(), held.len());
            let max = model.keys().next_back().copied().unwrap_or(Slot::ZERO);
            for probe in [Slot::ZERO, base, base.next(), Slot(SEGMENT), Slot(SEGMENT + 1), max, max.next(), Slot(u64::MAX)] {
                prop_assert_eq!(log.get(probe), held.get(&probe), "get({})", probe);
            }
            for above in [base, base.next(), Slot(base.0 + SEGMENT), committed, max, Slot(u64::MAX)] {
                let model_suffix: Vec<(Slot, Command)> = held
                    .iter()
                    .filter(|(s, _)| **s > above)
                    .map(|(s, c)| (*s, c.clone()))
                    .collect();
                prop_assert_eq!(suffix(&log, above), model_suffix, "suffix({})", above);
                let effective: Vec<(Slot, CmdId)> =
                    log.effective_after(above).map(|(s, c)| (s, c.id)).collect();
                prop_assert_eq!(effective, model_effective_after(&model, committed, above));
            }
            for id in 1..=8u64 {
                let in_window = held.values().any(|c| c.id == CmdId(id));
                prop_assert_eq!(log.contains_id(CmdId(id)), in_window, "contains_id({})", id);
            }
            let writes: Vec<Slot> = model_effective_after(&model, committed, Slot::ZERO)
                .into_iter()
                .map(|(slot, _)| slot)
                .collect();
            let below = writes.iter().filter(|s| **s <= base).count() as u64;
            for n in below..=writes.len() as u64 + 1 {
                let expected = match n {
                    0 => Slot::ZERO,
                    n => writes.get(n as usize - 1).copied().unwrap_or(committed),
                };
                prop_assert_eq!(log.cursor_for_writes(n), Some(expected), "cursor_for_writes({})", n);
                // A restore replays above the cursor, or above the base
                // where the cursor lies below it: exactly the writes after
                // the n-th, each once.
                let replayed: Vec<Slot> =
                    log.effective_after(expected.max(base)).map(|(s, _)| s).collect();
                let rest = writes.get(n as usize..).unwrap_or_default();
                prop_assert_eq!(&replayed[..], rest, "replay after write {}", n);
            }
            for n in 0..below {
                prop_assert_eq!(log.cursor_for_writes(n), None, "cursor_for_writes({})", n);
            }
        }
    }
}

/// Deterministic deep-check on a handful of adversarial seeds: inspect the
/// actual logs, not just the report.
#[test]
fn committed_commands_are_durable_and_exactly_once() {
    for seed in [11u64, 23, 47, 91] {
        let mut cluster = ConsensusCluster::new(Topology::multinational(5), ClusterConfig, seed);
        for i in 0..30u64 {
            cluster.submit_write_at(
                secs(2) + ms(400 * i),
                (i % 5) as u32,
                SubscriberUid(i),
                None,
            );
        }
        // Rolling islands plus a leaderless gap.
        cluster.schedule_script(
            &FaultScript::new(seed)
                .clean_partition(secs(4), SimDuration::from_secs(5), [SiteId(0), SiteId(1)])
                .clean_partition(secs(11), SimDuration::from_secs(5), [SiteId(3)])
                .se_outage(secs(6), SimDuration::from_secs(8), SeId(4)),
        );
        let report = cluster.run_until(secs(120));
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );

        for (id, fate) in &report.fates {
            let Some(slot) = fate.slot else { continue };
            // Durability: every node whose watermark covers the slot holds
            // exactly this command there.
            for i in 0..cluster.len() {
                let log = cluster.node(i).log();
                if log.committed() >= slot {
                    let cmd = log.get(slot).expect("covered slot is decided");
                    assert_eq!(cmd.id, *id, "seed {seed}, node {i}, {slot}");
                }
            }
        }

        // Integrity + exactly-once: effective iteration yields each
        // submitted id at most once, and only submitted ids.
        for i in 0..cluster.len() {
            let log = cluster.node(i).log();
            let mut seen = std::collections::HashSet::new();
            for (_, cmd) in log.iter_effective() {
                assert!(report.fates.contains_key(&cmd.id), "phantom {:?}", cmd.id);
                assert!(seen.insert(cmd.id), "duplicate effective {:?}", cmd.id);
                match cmd.payload {
                    Payload::Write { .. } | Payload::Reconfig { .. } => {}
                    Payload::Noop => panic!("noop must not be effective"),
                }
            }
        }

        // Every fate the report calls committed is in the maximal log.
        let (max_node, _) = report
            .final_committed
            .iter()
            .enumerate()
            .max_by_key(|(_, wm)| **wm)
            .unwrap();
        let max_log = cluster.node(max_node).log();
        for (id, fate) in &report.fates {
            if fate.chosen_at.is_some() {
                assert!(
                    max_log.contains_id(*id),
                    "seed {seed}: committed {id} missing"
                );
            }
        }
        let _ = CmdId(0); // silence unused-import lint paths on some configs
    }
}

// ---------------------------------------------------------------------
// Leader leases over a bare ensemble
// ---------------------------------------------------------------------

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use udr_consensus::replica::Outbound;
use udr_consensus::{Ensemble, Replica};
use udr_sim::SimRng;

/// How a lease case treats the network and the nodes.
#[derive(Debug, Clone)]
struct LeasePlan {
    /// Chance in a thousand that a message is lost.
    drop_per_mille: u64,
    /// A message takes 1 ms up to this many ms, drawn per message, so
    /// messages overtake each other.
    max_delay_ms: u64,
    /// (start ms, duration ms, a, b): the link between nodes `a` and `b`
    /// carries nothing in either direction.
    cuts: Vec<(u64, u64, usize, usize)>,
    /// (start ms, duration ms, node): no link of `node` carries anything.
    islands: Vec<(u64, u64, usize)>,
    /// (crash ms, restore ms, node).
    crashes: Vec<(u64, u64, usize)>,
    /// Instants (ms) a client hands a write to a node, and the node.
    writes: Vec<(u64, usize)>,
}

fn lease_plan(nodes: usize) -> impl Strategy<Value = LeasePlan> {
    let cut = (0u64..20_000, 500u64..3_000, 0..nodes, 0..nodes);
    let island = (0u64..20_000, 500u64..3_000, 0..nodes);
    let crash = (0u64..20_000, 200u64..4_000, 0..nodes);
    (
        0u64..200,
        5u64..300,
        proptest::collection::vec(cut, 0..8),
        proptest::collection::vec(island, 1..8),
        proptest::collection::vec(crash, 0..3),
        proptest::collection::vec((0u64..20_000, 0..nodes), 50..300),
    )
        .prop_map(
            |(drop_per_mille, max_delay_ms, cuts, islands, crashes, writes)| LeasePlan {
                drop_per_mille,
                max_delay_ms,
                cuts: cuts.into_iter().filter(|c| c.2 != c.3).collect(),
                islands,
                crashes: crashes
                    .into_iter()
                    .map(|(at, dur, node)| (at, at + dur, node))
                    .collect(),
                writes,
            },
        )
}

enum LeaseEv {
    Tick(usize),
    Deliver { from: usize, to: usize, ticket: u32 },
    Write { node: usize, id: u64 },
    Crash(usize),
    Restore(usize),
}

/// A host of one [`Ensemble`] with nothing but a clock, a lossy
/// reordering network, link cuts and crashes: every node ticks every
/// 50 ms while up, and a crashed node keeps its state.
struct LeaseHost {
    ensemble: Ensemble,
    up: Vec<bool>,
    plan: LeasePlan,
    rng: SimRng,
    events: BinaryHeap<Reverse<(u64, u64, usize)>>,
    payloads: Vec<Option<LeaseEv>>,
}

impl LeaseHost {
    fn new(nodes: usize, seed: u64, plan: LeasePlan) -> Self {
        let mut host = LeaseHost {
            ensemble: Ensemble::new(nodes, seed),
            up: vec![true; nodes],
            rng: SimRng::seed_from_u64(seed),
            events: BinaryHeap::new(),
            payloads: Vec::new(),
            plan,
        };
        for i in 0..nodes {
            host.schedule(50_000_000 + 137_000 * i as u64, LeaseEv::Tick(i));
        }
        for (k, (at, node)) in host.plan.writes.clone().into_iter().enumerate() {
            let id = k as u64 + 1;
            host.schedule(1_000_000_000 + at * 1_000_000, LeaseEv::Write { node, id });
        }
        for (crash, restore, node) in host.plan.crashes.clone() {
            host.schedule(crash * 1_000_000, LeaseEv::Crash(node));
            host.schedule(restore * 1_000_000, LeaseEv::Restore(node));
        }
        host
    }

    fn schedule(&mut self, at_ns: u64, ev: LeaseEv) {
        let seq = self.payloads.len();
        self.payloads.push(Some(ev));
        self.events.push(Reverse((at_ns, seq as u64, seq)));
    }

    fn cut(&self, now: SimTime, a: usize, b: usize) -> bool {
        let ms = now.as_nanos() / 1_000_000;
        let during = |start: u64, dur: u64| (start..start + dur).contains(&ms);
        let cut = |x, y| (x, y) == (a, b) || (x, y) == (b, a);
        self.plan
            .cuts
            .iter()
            .any(|&(start, dur, x, y)| cut(x, y) && during(start, dur))
            || (self.plan.islands.iter())
                .any(|&(start, dur, x)| (a == x) != (b == x) && during(start, dur))
    }

    /// Feed `node` one input and send what it sends.
    fn step(
        &mut self,
        now: SimTime,
        node: usize,
        input: impl FnOnce(&mut Replica, &mut Vec<Outbound>),
    ) {
        let mut sends = Vec::new();
        let (drop, max_delay) = (self.plan.drop_per_mille, self.plan.max_delay_ms);
        let cuts: Vec<bool> = (0..self.up.len())
            .map(|to| self.cut(now, node, to))
            .collect();
        let rng = &mut self.rng;
        let up = &self.up;
        self.ensemble.step(node, input, |from, to, ticket, _| {
            if !up[to] || cuts[to] || rng.below(1_000) < drop {
                return false;
            }
            let delay = SimDuration::from_millis(1 + rng.below(max_delay));
            sends.push((now + delay, from, to, ticket));
            true
        });
        for (at, from, to, ticket) in sends {
            self.schedule(at.as_nanos(), LeaseEv::Deliver { from, to, ticket });
        }
    }

    /// Run to `horizon`, checking the lease invariants after every event.
    fn run(&mut self, horizon: SimTime) {
        while let Some(Reverse((at, _, idx))) = self.events.pop() {
            let now = SimTime(at);
            if now > horizon {
                break;
            }
            match self.payloads[idx].take().expect("each event runs once") {
                LeaseEv::Tick(i) => {
                    self.schedule(at + 50_000_000, LeaseEv::Tick(i));
                    if self.up[i] {
                        self.step(now, i, |r, out| r.tick(now, out));
                    }
                }
                LeaseEv::Deliver { from, to, ticket } => {
                    let msg = self.ensemble.take(ticket);
                    if self.up[to] && !self.cut(now, from, to) {
                        let sender = udr_consensus::NodeId(from as u32);
                        self.step(now, to, |r, out| r.handle(now, sender, msg, out));
                    }
                }
                LeaseEv::Write { node, id } => {
                    if self.up[node] {
                        let cmd = Command::write(CmdId(id), SubscriberUid(id), None);
                        self.step(now, node, |r, out| r.submit(now, cmd, out));
                    }
                }
                LeaseEv::Crash(i) => self.up[i] = false,
                LeaseEv::Restore(i) => {
                    self.up[i] = true;
                    self.step(now, i, |r, _| r.rearm_election(now));
                }
            }
            self.check(now);
        }
    }

    /// At most one node holds a lease, and a holder has decided every
    /// slot any node has decided: nothing was chosen under a higher
    /// ballot, and nothing an earlier ballot chose is still open at it.
    fn check(&self, now: SimTime) {
        let nodes = self.ensemble.nodes();
        let holders: Vec<usize> = (0..nodes.len())
            .filter(|&i| nodes[i].lease_holds(now))
            .collect();
        prop_assert!(holders.len() <= 1, "at {now}: leases at {holders:?}");
        let Some(&h) = holders.first() else {
            return;
        };
        let held = nodes[h].log();
        for (q, node) in nodes.iter().enumerate() {
            let mut slot = held.committed().next();
            while slot <= node.log().max_slot() {
                prop_assert!(
                    !node.log().is_decided(slot) || held.is_decided(slot),
                    "at {now}: n{q} decided {slot:?}, which lease holder n{h} (ballot {:?}) has not",
                    nodes[h].current_ballot()
                );
                slot = slot.next();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Leases are exclusive and never stale under message loss,
    /// reordering, link cuts and crash/restore.
    #[test]
    fn a_lease_is_exclusive_and_covers_every_decision(
        seed in 0u64..1_000_000,
        nodes in prop_oneof![Just(3usize), Just(5usize)],
        plan in lease_plan(5),
    ) {
        let plan = LeasePlan {
            cuts: plan.cuts.iter().copied().filter(|c| c.2 < nodes && c.3 < nodes).collect(),
            islands: plan.islands.iter().map(|&(at, dur, node)| (at, dur, node % nodes)).collect(),
            crashes: plan.crashes.iter().copied().filter(|c| c.2 < nodes).collect(),
            writes: plan.writes.iter().map(|&(at, node)| (at, node % nodes)).collect(),
            ..plan
        };
        let mut host = LeaseHost::new(nodes, seed, plan);
        host.run(secs(24));
        prop_assert!(host.ensemble.agreement_violations().is_empty());
    }
}
