//! Fault scripts: the unplanned events of §3.1 ("on unplanned events
//! contents of volatile media may vanish") and the partition incidents of
//! §4.1 ("a network glitch as short as 30 seconds"), written as seeded,
//! composable [`FaultScript`]s — the one way every driver describes the
//! faults it injects.

use std::collections::BTreeSet;

use udr_model::ids::{SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};

use crate::net::Cut;
use crate::rng::SimRng;

/// One fault to inject at a point in virtual time: what a [`FaultScript`]
/// compiles to.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Start a network partition isolating `island` for `duration`.
    Partition {
        /// Sites on the isolated side.
        island: BTreeSet<SiteId>,
        /// How long the partition lasts before healing.
        duration: SimDuration,
    },
    /// A backbone glitch: every site isolated from every other for
    /// `duration` (intra-site traffic unaffected).
    BackboneGlitch {
        /// Glitch length (§4.1's example is 30 s).
        duration: SimDuration,
    },
    /// Asymmetric one-way loss: every message *leaving* the `from` set is
    /// silently dropped for `duration`; reverse-direction and intra-set
    /// traffic flows normally. Reachability (and hence failure detection)
    /// is unaffected — the grey-failure counterpart of a clean partition.
    OneWayLoss {
        /// Sites whose outbound inter-site traffic is black-holed.
        from: BTreeSet<SiteId>,
        /// How long the loss window lasts.
        duration: SimDuration,
    },
    /// Backbone brown-out: every inter-site message pays
    /// `latency_factor ×` delay and an extra `loss` drop probability for
    /// `duration`.
    WanDegrade {
        /// Multiplier on sampled one-way backbone delays.
        latency_factor: f64,
        /// Extra drop probability per message.
        loss: f64,
        /// How long the brown-out lasts.
        duration: SimDuration,
    },
    /// Crash a storage element; its RAM contents vanish (§3.1).
    SeCrash {
        /// The element that fails.
        se: SeId,
    },
    /// Restore a previously crashed storage element (recovery from disk
    /// snapshot happens in the storage layer).
    SeRestore {
        /// The element that recovers.
        se: SeId,
    },
}

impl Fault {
    /// Expand a backbone glitch into per-site cuts (every site its own
    /// island).
    pub fn glitch_cuts(total_sites: usize) -> Vec<Cut> {
        (0..total_sites.saturating_sub(1) as u32)
            .map(|s| Cut::isolating([SiteId(s)]))
            .collect()
    }
}

/// One timed phase of a [`FaultScript`] campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPhase {
    /// A clean site partition: `island` cut off for `duration`.
    CleanPartition {
        /// When the cut starts.
        at: SimTime,
        /// How long it lasts before healing.
        duration: SimDuration,
        /// Sites on the isolated side.
        island: BTreeSet<SiteId>,
    },
    /// A backbone glitch: every site cut off from every other for
    /// `duration` (§4.1's 30 s example).
    BackboneGlitch {
        /// When the glitch starts.
        at: SimTime,
        /// How long it lasts.
        duration: SimDuration,
    },
    /// Asymmetric one-way link loss: traffic leaving `from` black-holed.
    AsymmetricLoss {
        /// When the loss window starts.
        at: SimTime,
        /// How long it lasts.
        duration: SimDuration,
        /// Sites whose outbound inter-site traffic is dropped.
        from: BTreeSet<SiteId>,
    },
    /// Link flapping: `cycles` short partitions of `island`, each holding
    /// roughly `down` (jittered deterministically from the script seed),
    /// spaced `down + up` apart.
    LinkFlapping {
        /// When the first flap starts.
        at: SimTime,
        /// Sites on the flapping side.
        island: BTreeSet<SiteId>,
        /// Number of down/up cycles.
        cycles: u32,
        /// Nominal down window per cycle (jittered to 80–100 %).
        down: SimDuration,
        /// Up window between cuts.
        up: SimDuration,
    },
    /// WAN degradation: the backbone browns out for `duration`.
    WanDegradation {
        /// When the brown-out starts.
        at: SimTime,
        /// How long it lasts.
        duration: SimDuration,
        /// Multiplier on backbone delays.
        latency_factor: f64,
        /// Extra per-message drop probability.
        loss: f64,
    },
    /// A storage element crashes and restores after `outage`.
    SeOutage {
        /// When the crash happens.
        at: SimTime,
        /// Crash-to-restore gap.
        outage: SimDuration,
        /// The element that fails.
        se: SeId,
    },
    /// A storage element crashes permanently (no restore in this script).
    SeCrash {
        /// When the crash happens.
        at: SimTime,
        /// The element that fails.
        se: SeId,
    },
}

impl FaultPhase {
    /// The virtual-time span `[start, end)` during which this phase's
    /// fault is active. A permanent [`FaultPhase::SeCrash`] reports an
    /// empty span at its crash instant (it never heals).
    pub fn span(&self) -> (SimTime, SimTime) {
        match self {
            FaultPhase::CleanPartition { at, duration, .. }
            | FaultPhase::BackboneGlitch { at, duration }
            | FaultPhase::AsymmetricLoss { at, duration, .. }
            | FaultPhase::WanDegradation { at, duration, .. } => (*at, *at + *duration),
            FaultPhase::LinkFlapping {
                at,
                cycles,
                down,
                up,
                ..
            } => (*at, *at + (*down + *up) * u64::from(*cycles)),
            FaultPhase::SeOutage { at, outage, .. } => (*at, *at + *outage),
            FaultPhase::SeCrash { at, .. } => (*at, *at),
        }
    }
}

/// A composable, seeded fault campaign: timed phases that compile into a
/// deterministic [`Fault`] timeline.
///
/// The determinism contract every experiment and the CI regression lean
/// on: **the compiled timeline is a pure function of the script** (its
/// phases and its seed). Replaying the same script against the same
/// deployment seed therefore reproduces the identical fault sequence —
/// and, because the whole simulator is seeded, identical metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScript {
    seed: u64,
    phases: Vec<FaultPhase>,
}

impl FaultScript {
    /// An empty script compiled under `seed` (only jittered phases —
    /// flapping — consume randomness; all of it derives from this seed).
    pub fn new(seed: u64) -> Self {
        FaultScript {
            seed,
            phases: Vec::new(),
        }
    }

    /// The script's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Append an already-built phase.
    pub fn phase(mut self, phase: FaultPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// The phases in insertion order.
    pub fn phases(&self) -> &[FaultPhase] {
        &self.phases
    }

    /// Add a clean partition of `island`.
    pub fn clean_partition<I: IntoIterator<Item = SiteId>>(
        self,
        at: SimTime,
        duration: SimDuration,
        island: I,
    ) -> Self {
        self.phase(FaultPhase::CleanPartition {
            at,
            duration,
            island: island.into_iter().collect(),
        })
    }

    /// Add a full backbone glitch.
    pub fn glitch(self, at: SimTime, duration: SimDuration) -> Self {
        self.phase(FaultPhase::BackboneGlitch { at, duration })
    }

    /// Add an asymmetric one-way loss window.
    pub fn asymmetric_loss<I: IntoIterator<Item = SiteId>>(
        self,
        at: SimTime,
        duration: SimDuration,
        from: I,
    ) -> Self {
        self.phase(FaultPhase::AsymmetricLoss {
            at,
            duration,
            from: from.into_iter().collect(),
        })
    }

    /// Add a link-flapping phase.
    pub fn flapping<I: IntoIterator<Item = SiteId>>(
        self,
        at: SimTime,
        island: I,
        cycles: u32,
        down: SimDuration,
        up: SimDuration,
    ) -> Self {
        self.phase(FaultPhase::LinkFlapping {
            at,
            island: island.into_iter().collect(),
            cycles,
            down,
            up,
        })
    }

    /// Add a WAN degradation window.
    pub fn wan_degradation(
        self,
        at: SimTime,
        duration: SimDuration,
        latency_factor: f64,
        loss: f64,
    ) -> Self {
        self.phase(FaultPhase::WanDegradation {
            at,
            duration,
            latency_factor,
            loss,
        })
    }

    /// Add an SE crash + restore pair.
    pub fn se_outage(self, at: SimTime, outage: SimDuration, se: SeId) -> Self {
        self.phase(FaultPhase::SeOutage { at, outage, se })
    }

    /// Add a permanent SE crash.
    pub fn se_crash(self, at: SimTime, se: SeId) -> Self {
        self.phase(FaultPhase::SeCrash { at, se })
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the script has no phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Active spans of every phase, in insertion order.
    pub fn spans(&self) -> Vec<(SimTime, SimTime)> {
        self.phases.iter().map(FaultPhase::span).collect()
    }

    /// Whether any phase's fault is active at `t` (half-open spans).
    pub fn active_at(&self, t: SimTime) -> bool {
        self.phases.iter().any(|p| {
            let (start, end) = p.span();
            start <= t && t < end
        })
    }

    /// When the last phase's fault window closes (`SimTime::ZERO` for an
    /// empty script).
    pub fn end(&self) -> SimTime {
        self.phases
            .iter()
            .map(|p| p.span().1)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The instants at which SEs crash (for drivers that quiesce writes
    /// around volatile-media loss).
    pub fn crash_instants(&self) -> Vec<SimTime> {
        self.phases
            .iter()
            .filter_map(|p| match p {
                FaultPhase::SeOutage { at, .. } | FaultPhase::SeCrash { at, .. } => Some(*at),
                _ => None,
            })
            .collect()
    }

    /// The compiled timeline: time-sorted `(time, fault)` pairs, stable
    /// in phase order for equal instants — what two replays of the same
    /// script must agree on byte-for-byte. Deterministic: the only
    /// randomness (flap-window jitter) comes from a per-phase fork of the
    /// script seed.
    pub fn timeline(&self) -> Vec<(SimTime, Fault)> {
        let mut timeline = Vec::new();
        for (i, phase) in self.phases.iter().enumerate() {
            match phase {
                FaultPhase::CleanPartition {
                    at,
                    duration,
                    island,
                } => timeline.push((
                    *at,
                    Fault::Partition {
                        island: island.clone(),
                        duration: *duration,
                    },
                )),
                FaultPhase::BackboneGlitch { at, duration } => timeline.push((
                    *at,
                    Fault::BackboneGlitch {
                        duration: *duration,
                    },
                )),
                FaultPhase::AsymmetricLoss { at, duration, from } => timeline.push((
                    *at,
                    Fault::OneWayLoss {
                        from: from.clone(),
                        duration: *duration,
                    },
                )),
                FaultPhase::LinkFlapping {
                    at,
                    island,
                    cycles,
                    down,
                    up,
                } => {
                    let mut rng = SimRng::seed_from_u64(
                        self.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    for c in 0..*cycles {
                        let jitter = 0.8 + 0.2 * rng.uniform();
                        timeline.push((
                            *at + (*down + *up) * u64::from(c),
                            Fault::Partition {
                                island: island.clone(),
                                duration: down.mul_f64(jitter),
                            },
                        ));
                    }
                }
                FaultPhase::WanDegradation {
                    at,
                    duration,
                    latency_factor,
                    loss,
                } => timeline.push((
                    *at,
                    Fault::WanDegrade {
                        latency_factor: *latency_factor,
                        loss: *loss,
                        duration: *duration,
                    },
                )),
                FaultPhase::SeOutage { at, outage, se } => {
                    timeline.push((*at, Fault::SeCrash { se: *se }));
                    timeline.push((*at + *outage, Fault::SeRestore { se: *se }));
                }
                FaultPhase::SeCrash { at, se } => timeline.push((*at, Fault::SeCrash { se: *se })),
            }
        }
        timeline.sort_by_key(|(t, _)| *t);
        timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(v: u64) -> SimDuration {
        SimDuration::from_secs(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::ZERO + secs(v)
    }

    #[test]
    fn schedule_sorts_by_time() {
        let timeline = FaultScript::new(0)
            .se_crash(SimTime(300), SeId(1))
            .glitch(SimTime(100), SimDuration::from_secs(30))
            .clean_partition(SimTime(200), SimDuration::from_secs(60), [SiteId(0)])
            .timeline();
        let times: Vec<u64> = timeline.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn timeline_is_stable_for_equal_instants() {
        let timeline = FaultScript::new(0)
            .se_crash(at(10), SeId(2))
            .se_outage(at(5), secs(5), SeId(1))
            .se_crash(at(10), SeId(3))
            .timeline();
        let order: Vec<&Fault> = timeline.iter().map(|(_, f)| f).collect();
        assert_eq!(
            order,
            [
                &Fault::SeCrash { se: SeId(1) },
                &Fault::SeCrash { se: SeId(2) },
                &Fault::SeRestore { se: SeId(1) },
                &Fault::SeCrash { se: SeId(3) },
            ]
        );
    }

    #[test]
    fn se_outage_emits_crash_and_restore() {
        let timeline = FaultScript::new(0)
            .se_outage(SimTime(50), SimDuration::from_nanos(25), SeId(3))
            .timeline();
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0], (SimTime(50), Fault::SeCrash { se: SeId(3) }));
        assert_eq!(timeline[1], (SimTime(75), Fault::SeRestore { se: SeId(3) }));
    }

    #[test]
    fn glitch_compiles_to_one_backbone_glitch() {
        let script = FaultScript::new(0).glitch(at(30), secs(30));
        assert_eq!(
            script.timeline(),
            vec![(at(30), Fault::BackboneGlitch { duration: secs(30) })]
        );
        assert_eq!(script.spans(), vec![(at(30), at(60))]);
        assert!(script.active_at(at(30)));
        assert!(script.active_at(at(59)));
        assert!(!script.active_at(at(60)));
        assert_eq!(script.end(), at(60));
        assert!(
            script.crash_instants().is_empty(),
            "a glitch crashes nothing"
        );
    }

    #[test]
    fn empty_schedule() {
        let script = FaultScript::new(0);
        assert!(script.is_empty());
        assert_eq!(script.len(), 0);
        assert!(script.timeline().is_empty());
    }

    #[test]
    fn glitch_cuts_shatter_everything() {
        let cuts = Fault::glitch_cuts(3);
        // Two cuts suffice to pairwise-separate three sites.
        assert_eq!(cuts.len(), 2);
        let separated = |a: SiteId, b: SiteId| cuts.iter().any(|c| c.separates(a, b));
        assert!(separated(SiteId(0), SiteId(1)));
        assert!(separated(SiteId(0), SiteId(2)));
        assert!(separated(SiteId(1), SiteId(2)));
    }

    #[test]
    fn script_compiles_every_phase_kind() {
        let script = FaultScript::new(42)
            .clean_partition(at(10), secs(20), [SiteId(2)])
            .asymmetric_loss(at(40), secs(10), [SiteId(1)])
            .flapping(at(60), [SiteId(2)], 3, secs(3), secs(2))
            .wan_degradation(at(80), secs(10), 8.0, 0.02)
            .se_outage(at(100), secs(15), SeId(0))
            .se_crash(at(130), SeId(1))
            .glitch(at(150), secs(30));
        assert_eq!(script.len(), 7);
        let timeline = script.timeline();
        // partition + loss + 3 flaps + degrade + (crash, restore) + crash
        // + glitch
        assert_eq!(timeline.len(), 10);
        assert!(timeline.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(timeline
            .iter()
            .any(|(_, f)| matches!(f, Fault::OneWayLoss { .. })));
        assert!(timeline
            .iter()
            .any(|(_, f)| matches!(f, Fault::WanDegrade { .. })));
        assert!(timeline
            .iter()
            .any(|(_, f)| matches!(f, Fault::BackboneGlitch { .. })));
        assert_eq!(
            timeline
                .iter()
                .filter(|(_, f)| matches!(f, Fault::Partition { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn script_compile_is_deterministic_per_seed() {
        let build = |seed| {
            FaultScript::new(seed)
                .flapping(at(10), [SiteId(2)], 5, secs(4), secs(3))
                .flapping(at(60), [SiteId(1)], 4, secs(2), secs(2))
        };
        assert_eq!(build(7).timeline(), build(7).timeline());
        // A different seed jitters the flap windows differently.
        assert_ne!(build(7).timeline(), build(8).timeline());
    }

    #[test]
    fn flap_jitter_stays_inside_the_cycle() {
        let script = FaultScript::new(3).flapping(at(0), [SiteId(0)], 8, secs(5), secs(5));
        for (start, fault) in script.timeline() {
            let Fault::Partition { duration, .. } = fault else {
                panic!("flapping compiles to partitions");
            };
            assert!(duration <= secs(5), "down window exceeds nominal");
            assert!(duration >= secs(4), "jitter must stay within 80–100 %");
            // Each cut heals before the next cycle begins.
            assert!(start + duration <= start + secs(10));
        }
    }

    #[test]
    fn script_spans_and_activity() {
        let script = FaultScript::new(1)
            .clean_partition(at(10), secs(20), [SiteId(2)])
            .flapping(at(50), [SiteId(1)], 2, secs(3), secs(2));
        assert_eq!(script.spans(), vec![(at(10), at(30)), (at(50), at(60))]);
        assert!(!script.active_at(at(5)));
        assert!(script.active_at(at(10)));
        assert!(script.active_at(at(29)));
        assert!(!script.active_at(at(30)));
        assert!(script.active_at(at(55)));
        assert_eq!(script.end(), at(60));
        assert_eq!(FaultScript::new(0).end(), SimTime::ZERO);
    }

    #[test]
    fn crash_instants_cover_outages_and_permanent_crashes() {
        let script = FaultScript::new(2)
            .se_outage(at(20), secs(10), SeId(1))
            .clean_partition(at(40), secs(5), [SiteId(0)])
            .se_crash(at(70), SeId(2));
        assert_eq!(script.crash_instants(), vec![at(20), at(70)]);
    }
}
