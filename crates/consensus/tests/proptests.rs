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
    let mut cluster = ConsensusCluster::new(
        Topology::multinational(nodes as usize),
        ClusterConfig::default(),
        seed,
    );
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
        let mut cluster =
            ConsensusCluster::new(Topology::multinational(5), ClusterConfig::default(), seed);
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
