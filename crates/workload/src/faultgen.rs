//! Fault-script generators: random SE outage processes (MTBF/MTTR),
//! the partition scenarios the paper's availability discussion needs,
//! and the named [`PartitionScenario`] catalogue the e22 fault-campaign
//! grid sweeps.

use std::fmt;

use udr_model::ids::{SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::{FaultScript, SimRng};

/// Random SE outages: exponential time-between-failures and repair times.
#[derive(Debug, Clone, Copy)]
pub struct OutageProcess {
    /// Mean time between failures per SE.
    pub mtbf: SimDuration,
    /// Mean time to repair.
    pub mttr: SimDuration,
}

impl OutageProcess {
    /// Build a script of SE outages (crash/restore pairs) for `ses`
    /// elements over `[0, horizon)`. Outages of one SE never overlap (a
    /// crashed element must restore before failing again).
    pub fn schedule(&self, ses: u32, horizon: SimTime, rng: &mut SimRng) -> FaultScript {
        let mut script = FaultScript::new(0);
        for se in 0..ses {
            let mut t = SimTime::ZERO;
            loop {
                let gap = rng.exponential(self.mtbf.as_secs_f64());
                t += SimDuration::from_secs_f64(gap);
                if t >= horizon {
                    break;
                }
                let repair = rng.exponential(self.mttr.as_secs_f64()).max(0.001);
                let outage = SimDuration::from_secs_f64(repair);
                script = script.se_outage(t, outage, SeId(se));
                t += outage;
            }
        }
        script
    }

    /// The analytic steady-state availability of one SE under this process
    /// (MTBF / (MTBF + MTTR)) — the baseline the replicated system must
    /// beat to reach five nines.
    pub fn single_se_availability(&self) -> f64 {
        let up = self.mtbf.as_secs_f64();
        let down = self.mttr.as_secs_f64();
        up / (up + down)
    }
}

/// A repeating partition scenario: every `period`, isolate `island` for
/// `duration`.
pub fn periodic_partitions(
    island: Vec<SiteId>,
    first_at: SimTime,
    period: SimDuration,
    duration: SimDuration,
    count: u32,
) -> FaultScript {
    let mut script = FaultScript::new(0);
    for i in 0..count {
        let at = first_at + period * u64::from(i);
        script = script.clean_partition(at, duration, island.iter().copied());
    }
    script
}

/// Where a [`PartitionScenario`]'s fault lands: which sites form the
/// cut-off island and which storage element crashes. The default
/// placement (last site, `SeId(0)`) reproduces the historical e22 grid;
/// campaigns that sweep placement build their own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlacement {
    /// Sites cut off / black-holed / flapped by the connectivity faults.
    pub island: Vec<SiteId>,
    /// The element crashed by [`PartitionScenario::SeOutage`].
    pub crash_se: SeId,
}

impl FaultPlacement {
    /// The historical default for a `sites`-site deployment: isolate the
    /// last site, crash `SeId(0)`.
    fn last_site(sites: u32) -> Self {
        assert!(sites >= 2, "fault scenarios need at least two sites");
        FaultPlacement {
            island: vec![SiteId(sites - 1)],
            crash_se: SeId(0),
        }
    }

    /// A placement isolating exactly `island`, crashing `crash_se`.
    pub fn at(island: impl IntoIterator<Item = SiteId>, crash_se: SeId) -> Self {
        let island: Vec<SiteId> = island.into_iter().collect();
        assert!(!island.is_empty(), "a fault placement needs an island");
        FaultPlacement { island, crash_se }
    }
}

/// The named fault archetypes of the e22 CAP verdict matrix — the ways a
/// multi-national backbone actually fails, from the clean CAP textbook
/// cut to the grey failures that dominate real incident logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScenario {
    /// A clean site partition: the last site cut off for the whole fault
    /// window, then healed — the §4.1 textbook CAP event.
    CleanPartition,
    /// Asymmetric one-way loss: traffic *leaving* the last site is
    /// black-holed while reverse traffic flows; failure detectors see a
    /// healthy link.
    AsymmetricLoss,
    /// Link flapping: the last site's backbone cuts and heals in short
    /// jittered cycles — repeated partial heals, repeated re-divergence.
    Flapping,
    /// WAN degradation: no partition at all, but every backbone message
    /// pays 8× latency and 2 % loss — the brown-out that stresses the
    /// EL/EC half of PACELC.
    WanDegradation,
    /// A storage element crashes and restores mid-window: volatile media
    /// loss, failover, rejoin and catch-up.
    SeOutage,
}

impl PartitionScenario {
    /// Every scenario, in campaign sweep order.
    pub const ALL: [PartitionScenario; 5] = [
        PartitionScenario::CleanPartition,
        PartitionScenario::AsymmetricLoss,
        PartitionScenario::Flapping,
        PartitionScenario::WanDegradation,
        PartitionScenario::SeOutage,
    ];

    /// Build the scenario's [`FaultScript`] for a `sites`-site deployment
    /// under the default [`FaultPlacement`] (last site cut off, `SeId(0)`
    /// crashed): the fault runs in `[at, at + duration)` and compiles
    /// deterministically from `seed`.
    pub fn script(self, seed: u64, sites: u32, at: SimTime, duration: SimDuration) -> FaultScript {
        self.script_at(seed, &FaultPlacement::last_site(sites), at, duration)
    }

    /// Build the scenario's [`FaultScript`] with an explicit fault
    /// placement — which island the connectivity faults isolate and
    /// which element the SE outage crashes. `WanDegradation` degrades the
    /// whole backbone and ignores the placement.
    fn script_at(
        self,
        seed: u64,
        placement: &FaultPlacement,
        at: SimTime,
        duration: SimDuration,
    ) -> FaultScript {
        let island = placement.island.iter().copied();
        match self {
            PartitionScenario::CleanPartition => {
                FaultScript::new(seed).clean_partition(at, duration, island)
            }
            PartitionScenario::AsymmetricLoss => {
                FaultScript::new(seed).asymmetric_loss(at, duration, island)
            }
            PartitionScenario::Flapping => {
                // Fill the window with 3 s-down / 2 s-up cycles (down
                // windows jittered to 80–100 % by the script seed).
                let down = SimDuration::from_secs(3);
                let up = SimDuration::from_secs(2);
                let cycle = (down + up).as_nanos();
                let cycles = (duration.as_nanos() / cycle).max(1) as u32;
                FaultScript::new(seed).flapping(at, island, cycles, down, up)
            }
            PartitionScenario::WanDegradation => {
                FaultScript::new(seed).wan_degradation(at, duration, 8.0, 0.02)
            }
            PartitionScenario::SeOutage => {
                // Crash at the window start, restore at 3/4 of it: the
                // tail covers failover, rejoin and catch-up.
                FaultScript::new(seed).se_outage(at, duration.mul_f64(0.75), placement.crash_se)
            }
        }
    }

    /// Whether the scenario actually severs connectivity (a cut), as
    /// opposed to degrading or crashing — the scenarios for which a
    /// CP-leaning configuration must show an unavailability window.
    pub fn severs_connectivity(self) -> bool {
        matches!(
            self,
            PartitionScenario::CleanPartition | PartitionScenario::Flapping
        )
    }
}

impl fmt::Display for PartitionScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PartitionScenario::CleanPartition => "clean-partition",
            PartitionScenario::AsymmetricLoss => "asymmetric-loss",
            PartitionScenario::Flapping => "link-flapping",
            PartitionScenario::WanDegradation => "wan-degradation",
            PartitionScenario::SeOutage => "se-outage",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_schedule_pairs_crash_and_restore() {
        let p = OutageProcess {
            mtbf: SimDuration::from_secs(1000),
            mttr: SimDuration::from_secs(60),
        };
        let mut rng = SimRng::seed_from_u64(1);
        let horizon = SimTime::ZERO + SimDuration::from_hours(10);
        let timeline = p.schedule(4, horizon, &mut rng).timeline();
        // Events come in (crash, restore) pairs.
        assert_eq!(timeline.len() % 2, 0);
        assert!(
            !timeline.is_empty(),
            "10 h at 1000 s MTBF should produce outages"
        );
    }

    #[test]
    fn outages_do_not_overlap_per_se() {
        let p = OutageProcess {
            mtbf: SimDuration::from_secs(300),
            mttr: SimDuration::from_secs(120),
        };
        let mut rng = SimRng::seed_from_u64(2);
        let horizon = SimTime::ZERO + SimDuration::from_hours(5);
        let sorted = p.schedule(1, horizon, &mut rng).timeline();
        // For a single SE the events must alternate crash/restore.
        for pair in sorted.chunks(2) {
            assert!(matches!(pair[0].1, udr_sim::Fault::SeCrash { .. }));
            if pair.len() == 2 {
                assert!(matches!(pair[1].1, udr_sim::Fault::SeRestore { .. }));
                assert!(pair[0].0 < pair[1].0);
            }
        }
    }

    #[test]
    fn analytic_availability() {
        let p = OutageProcess {
            mtbf: SimDuration::from_secs(99_999),
            mttr: SimDuration::from_secs(1),
        };
        assert!((p.single_se_availability() - 0.99999).abs() < 1e-9);
    }

    #[test]
    fn scenario_scripts_cover_their_window() {
        let at = SimTime::ZERO + SimDuration::from_secs(30);
        let duration = SimDuration::from_secs(20);
        for scenario in PartitionScenario::ALL {
            let script = scenario.script(5, 3, at, duration);
            assert!(!script.is_empty(), "{scenario}: empty script");
            assert!(script.active_at(at), "{scenario}: inactive at window start");
            assert!(
                script.end() <= at + duration,
                "{scenario}: runs past its window"
            );
            // Deterministic per seed, sensitive to it only when jittered.
            assert_eq!(
                script.timeline(),
                scenario.script(5, 3, at, duration).timeline()
            );
        }
    }

    #[test]
    fn default_placement_reproduces_the_legacy_scripts() {
        let at = SimTime::ZERO + SimDuration::from_secs(30);
        let duration = SimDuration::from_secs(20);
        let placement = FaultPlacement::last_site(4);
        assert_eq!(placement.island, vec![SiteId(3)]);
        assert_eq!(placement.crash_se, SeId(0));
        for scenario in PartitionScenario::ALL {
            assert_eq!(
                scenario.script(9, 4, at, duration).timeline(),
                scenario.script_at(9, &placement, at, duration).timeline(),
                "{scenario}: script() must stay the default-placement alias"
            );
        }
    }

    #[test]
    fn explicit_placement_moves_the_fault() {
        let at = SimTime::ZERO + SimDuration::from_secs(30);
        let duration = SimDuration::from_secs(20);
        let moved = FaultPlacement::at([SiteId(0), SiteId(1)], SeId(5));
        for scenario in PartitionScenario::ALL {
            let legacy = scenario.script(9, 4, at, duration).timeline();
            let placed = scenario.script_at(9, &moved, at, duration).timeline();
            if scenario == PartitionScenario::WanDegradation {
                // Degradation is backbone-wide; placement is irrelevant.
                assert_eq!(legacy, placed, "{scenario}: degradation has no island");
            } else {
                assert_ne!(legacy, placed, "{scenario}: placement must move the fault");
            }
            // Placement changes *where*, never *when*: both scripts stay
            // inside the window and fire at its start.
            let script = scenario.script_at(9, &moved, at, duration);
            assert!(script.active_at(at), "{scenario}: inactive at window start");
            assert!(script.end() <= at + duration, "{scenario}: past its window");
        }
    }

    #[test]
    #[should_panic(expected = "needs an island")]
    fn empty_island_placement_is_rejected() {
        let _ = FaultPlacement::at([], SeId(0));
    }

    #[test]
    fn scenario_severing_classification() {
        assert!(PartitionScenario::CleanPartition.severs_connectivity());
        assert!(PartitionScenario::Flapping.severs_connectivity());
        assert!(!PartitionScenario::AsymmetricLoss.severs_connectivity());
        assert!(!PartitionScenario::WanDegradation.severs_connectivity());
        assert!(!PartitionScenario::SeOutage.severs_connectivity());
    }

    #[test]
    fn scenario_labels_round_trip() {
        crate::assert_distinct_labels(&PartitionScenario::ALL);
    }

    #[test]
    fn periodic_partitions_layout() {
        let s = periodic_partitions(
            vec![SiteId(1)],
            SimTime::ZERO + SimDuration::from_secs(10),
            SimDuration::from_secs(100),
            SimDuration::from_secs(30),
            3,
        );
        let sorted = s.timeline();
        assert_eq!(sorted.len(), 3);
        assert_eq!(sorted[1].0, SimTime::ZERO + SimDuration::from_secs(110));
    }
}
