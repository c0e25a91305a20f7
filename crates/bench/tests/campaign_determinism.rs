//! The fault-campaign determinism regression: any randomly generated
//! [`FaultScript`] replayed with the same seed yields an identical fault
//! timeline and an identical [`CapVerdict`] — the guarantee that makes
//! the e22 verdict matrix a CI-assertable artifact rather than a flaky
//! observation.

use proptest::prelude::*;

use udr_bench::campaign::{run_cell, CampaignConfig};
use udr_model::config::{ReadPolicy, ReplicationMode};
use udr_model::ids::{SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::{FaultPhase, FaultScript};
use udr_workload::PartitionScenario;

fn secs(v: u64) -> SimDuration {
    SimDuration::from_secs(v)
}

fn at(v: u64) -> SimTime {
    SimTime::ZERO + secs(v)
}

/// A random phase whose parameters are valid for the 3-site figure-2
/// deployment and land inside the campaign's traffic window.
fn arb_phase() -> impl Strategy<Value = FaultPhase> {
    let start = (12u64..30).prop_map(at);
    let dur = (2u64..10).prop_map(secs);
    let island = prop::collection::btree_set((0u32..3).prop_map(SiteId), 1..3);
    prop_oneof![
        (start.clone(), dur.clone(), island.clone()).prop_map(|(at, duration, island)| {
            FaultPhase::CleanPartition {
                at,
                duration,
                island,
            }
        }),
        (start.clone(), dur.clone(), island.clone())
            .prop_map(|(at, duration, from)| { FaultPhase::AsymmetricLoss { at, duration, from } }),
        (start.clone(), island, 1u32..3, 2u64..4, 2u64..4).prop_map(
            |(at, island, cycles, down, up)| FaultPhase::LinkFlapping {
                at,
                island,
                cycles,
                down: secs(down),
                up: secs(up),
            }
        ),
        (start.clone(), dur.clone(), 2.0f64..10.0, 0.0f64..0.1).prop_map(
            |(at, duration, latency_factor, loss)| FaultPhase::WanDegradation {
                at,
                duration,
                latency_factor,
                loss,
            }
        ),
        (start, dur, (0u32..3).prop_map(SeId)).prop_map(|(at, outage, se)| FaultPhase::SeOutage {
            at,
            outage,
            se
        }),
    ]
}

fn arb_script() -> impl Strategy<Value = FaultScript> {
    (any::<u64>(), prop::collection::vec(arb_phase(), 1..4)).prop_map(|(seed, phases)| {
        phases
            .into_iter()
            .fold(FaultScript::new(seed), FaultScript::phase)
    })
}

/// Mode × policy pairs sampled by the regression (all valid configs).
fn arb_mode_policy() -> impl Strategy<Value = (ReplicationMode, ReadPolicy)> {
    prop_oneof![
        Just((ReplicationMode::AsyncMasterSlave, ReadPolicy::NearestCopy)),
        Just((
            ReplicationMode::AsyncMasterSlave,
            ReadPolicy::BoundedStaleness { max_lag: 4 }
        )),
        Just((
            ReplicationMode::DualInSequence,
            ReadPolicy::SessionConsistent
        )),
        Just((
            ReplicationMode::Quorum { n: 3, w: 2, r: 2 },
            ReadPolicy::MasterOnly
        )),
        Just((ReplicationMode::MultiMaster, ReadPolicy::NearestCopy)),
        Just((ReplicationMode::Consensus { n: 3 }, ReadPolicy::MasterOnly)),
    ]
}

/// A small, fast campaign cell (the scenario field is overridden by the
/// explicit script, but labels the verdict).
fn small_cell(mode: ReplicationMode, policy: ReadPolicy, seed: u64) -> CampaignConfig {
    let mut cc = CampaignConfig::new(mode, policy, PartitionScenario::CleanPartition);
    cc.seed = seed;
    cc.subscribers = 6;
    cc.read_rate = 0.12;
    cc.traffic_end = at(42);
    cc
}

/// The consensus (e25) cells replay identically too — verdict, protocol
/// evidence and history.
#[test]
fn consensus_cells_replay_identically() {
    let cells = [
        (ReadPolicy::MasterOnly, PartitionScenario::CleanPartition),
        (ReadPolicy::MasterOnly, PartitionScenario::SeOutage),
        (ReadPolicy::NearestCopy, PartitionScenario::Flapping),
    ];
    for (policy, scenario) in cells {
        let mut cc = small_cell(ReplicationMode::Consensus { n: 3 }, policy, 25);
        cc.scenario = scenario;
        let script = cc.script();
        let a = run_cell(&cc, &script);
        let b = run_cell(&cc, &script);
        assert_eq!(a.verdict, b.verdict, "{scenario}: replay diverged");
        assert_eq!(
            (a.elections, a.leader_changes, a.commits),
            (b.elections, b.leader_changes, b.commits),
            "{scenario}: protocol evidence diverged"
        );
        assert_eq!(a.history.len(), b.history.len());
        assert!(a.violations.is_empty(), "{scenario}: {:?}", a.violations);
        assert!(a.verdict.sound(), "{scenario}: unsound {:?}", a.verdict);
        a.history
            .check()
            .unwrap_or_else(|e| panic!("{scenario}: history not linearizable: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same script, same seed ⇒ identical timeline and identical verdict,
    /// field for field — across random fault compositions and every
    /// replication mode family.
    #[test]
    fn same_seed_same_timeline_same_verdict(
        script in arb_script(),
        (mode, policy) in arb_mode_policy(),
        seed in 0u64..1024,
    ) {
        prop_assert_eq!(script.timeline(), script.clone().timeline());
        let cc = small_cell(mode, policy, seed);
        prop_assert!(cc.is_valid());
        let out = run_cell(&cc, &script);
        let first = out.verdict;
        let again = run_cell(&cc, &script).verdict;
        prop_assert_eq!(&first, &again, "replay diverged for script {:?}", script);
        // Whatever the random faults did, the non-negotiables hold: no
        // acknowledged write lost, no duplicate copies, no broken
        // guarantees, no data-level errors.
        prop_assert!(first.sound(), "unsound verdict {:?} for script {:?}", first, script);
        if let ReplicationMode::Consensus { .. } = mode {
            prop_assert!(out.violations.is_empty(), "{:?} for script {:?}", out.violations, script);
            let linearizable = out.history.check();
            prop_assert!(linearizable.is_ok(), "{:?} for script {:?}", linearizable, script);
        }
    }

    /// A different cell seed really does produce a different run (the
    /// determinism above is seed-derived, not accidental constancy).
    #[test]
    fn different_seed_perturbs_the_run(script in arb_script()) {
        let a = run_cell(
            &small_cell(ReplicationMode::AsyncMasterSlave, ReadPolicy::NearestCopy, 1),
            &script,
        )
        .verdict;
        let b = run_cell(
            &small_cell(ReplicationMode::AsyncMasterSlave, ReadPolicy::NearestCopy, 2),
            &script,
        )
        .verdict;
        // Different populations/traffic ⇒ some observable difference in
        // the op counts (times are Poisson draws from different seeds).
        prop_assert!(
            a.total_ops() != b.total_ops()
                || a.reads_in_fault != b.reads_in_fault
                || a.writes_ok_in_fault != b.writes_ok_in_fault,
            "two different seeds produced indistinguishable runs"
        );
    }
}
