//! Property tests for the simulator: event ordering, network partition
//! algebra, station conservation laws and fault-script determinism.

use proptest::prelude::*;

use udr_model::ids::{SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::{Cut, Network, Topology};
use udr_sim::service::Station;
use udr_sim::{FaultPhase, FaultScript, LaneClass, PumpConfig, ShardedPump, SimRng};

/// A random fault phase with small, valid-for-3-sites parameters.
fn arb_phase() -> impl Strategy<Value = FaultPhase> {
    let at = (0u64..120).prop_map(|s| SimTime::ZERO + SimDuration::from_secs(s));
    let dur = (1u64..30).prop_map(SimDuration::from_secs);
    let island = prop::collection::btree_set((0u32..3).prop_map(SiteId), 1..3);
    prop_oneof![
        (at.clone(), dur.clone(), island.clone()).prop_map(|(at, duration, island)| {
            FaultPhase::CleanPartition {
                at,
                duration,
                island,
            }
        }),
        (at.clone(), dur.clone())
            .prop_map(|(at, duration)| FaultPhase::BackboneGlitch { at, duration }),
        (at.clone(), dur.clone(), island.clone())
            .prop_map(|(at, duration, from)| { FaultPhase::AsymmetricLoss { at, duration, from } }),
        (at.clone(), island, 1u32..5, 1u64..6, 1u64..6).prop_map(
            |(at, island, cycles, down, up)| FaultPhase::LinkFlapping {
                at,
                island,
                cycles,
                down: SimDuration::from_secs(down),
                up: SimDuration::from_secs(up),
            }
        ),
        (at.clone(), dur.clone(), 1.0f64..16.0, 0.0f64..0.3).prop_map(
            |(at, duration, latency_factor, loss)| FaultPhase::WanDegradation {
                at,
                duration,
                latency_factor,
                loss,
            }
        ),
        (at.clone(), dur, (0u32..3).prop_map(SeId))
            .prop_map(|(at, outage, se)| FaultPhase::SeOutage { at, outage, se }),
        (at, (0u32..3).prop_map(SeId)).prop_map(|(at, se)| FaultPhase::SeCrash { at, se }),
    ]
}

/// A random fault script: a seed plus 1–5 random phases.
fn arb_script() -> impl Strategy<Value = FaultScript> {
    (any::<u64>(), prop::collection::vec(arb_phase(), 1..6)).prop_map(|(seed, phases)| {
        phases
            .into_iter()
            .fold(FaultScript::new(seed), FaultScript::phase)
    })
}

proptest! {
    /// Pops come out sorted by time with FIFO tie-break, regardless of the
    /// insertion order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = ShardedPump::new(PumpConfig::single());
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(LaneClass::Local(0), SimTime(*t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        prop_assert_eq!(popped.len(), times.len());
        for pair in popped.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                // Same instant: insertion order (the payload index) holds.
                prop_assert!(pair[0].1 < pair[1].1, "FIFO violated");
            }
        }
    }

    /// Reachability is symmetric and reflexive under any set of cuts, and
    /// healing all cuts restores the full mesh.
    #[test]
    fn partition_algebra(
        sites in 2u32..6,
        islands in prop::collection::vec(prop::collection::btree_set(0u32..6, 1..4), 0..4),
    ) {
        let mut net = Network::new(Topology::multinational(sites as usize));
        let mut handles = Vec::new();
        for island in &islands {
            let members: Vec<SiteId> =
                island.iter().filter(|s| **s < sites).map(|s| SiteId(*s)).collect();
            if members.is_empty() {
                continue;
            }
            handles.push(net.start_partition(Cut::isolating(members)));
        }
        for a in 0..sites {
            prop_assert!(net.reachable(SiteId(a), SiteId(a)), "reflexivity");
            for b in 0..sites {
                prop_assert_eq!(
                    net.reachable(SiteId(a), SiteId(b)),
                    net.reachable(SiteId(b), SiteId(a)),
                    "symmetry"
                );
            }
        }
        for h in handles {
            net.heal_partition(h);
        }
        for a in 0..sites {
            for b in 0..sites {
                prop_assert!(net.reachable(SiteId(a), SiteId(b)), "heal incomplete");
            }
        }
    }

    /// A station never serves more work than capacity allows: completions
    /// are monotone per admission order and utilization stays ≤ 1.
    #[test]
    fn station_conservation(
        arrivals in prop::collection::vec(0u64..10_000, 1..100),
        servers in 1usize..4,
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut station = Station::new(
            servers,
            SimDuration::from_micros(100),
            SimDuration::from_millis(50),
        );
        let mut last_done = SimTime::ZERO;
        let mut admitted = 0u64;
        for a in &sorted {
            let now = SimTime(*a * 1_000);
            if let Ok(done) = station.admit(now) {
                admitted += 1;
                prop_assert!(done >= now + SimDuration::from_micros(100));
                // FIFO within the station: completions never regress.
                prop_assert!(done >= last_done || servers > 1);
                last_done = last_done.max(done);
            }
        }
        prop_assert_eq!(admitted, station.admitted);
        let horizon = last_done + SimDuration::from_micros(1);
        prop_assert!(station.utilization(horizon) <= 1.0 + 1e-9);
    }

    /// The same script always compiles to the identical fault timeline —
    /// the determinism guarantee the CAP verdict matrix leans on.
    #[test]
    fn fault_script_compiles_deterministically(script in arb_script()) {
        let a = script.timeline();
        let b = script.clone().timeline();
        prop_assert_eq!(&a, &b, "same script, different timelines");
        // Timelines are time-sorted and every fault falls inside its
        // phase's declared span.
        for pair in a.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "timeline out of order");
        }
        let end = script.end();
        for (t, _) in &a {
            prop_assert!(
                *t <= end,
                "fault at {:?} injected after the script end {:?}", t, end
            );
        }
    }

    /// Every phase's span brackets its compiled faults: the script is
    /// active whenever one of its cuts/degrades/outages begins.
    #[test]
    fn fault_script_spans_cover_injection_instants(script in arb_script()) {
        for (t, fault) in script.timeline() {
            // Restores are heal events, not fault starts.
            if matches!(fault, udr_sim::Fault::SeRestore { .. }) {
                continue;
            }
            prop_assert!(
                script.active_at(t) || script.spans().iter().any(|(s, e)| *s == *e && *s == t),
                "fault injected at {:?} outside every active span", t
            );
        }
    }

    /// Sampled link delays are never below the model floor and never zero
    /// for WAN links.
    #[test]
    fn latency_floor_holds(seed in any::<u64>()) {
        let topo = Topology::multinational(3);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..200 {
            let d = topo.link(SiteId(0), SiteId(1)).latency.sample(&mut rng);
            prop_assert!(d >= SimDuration::from_millis(9), "WAN sample {d} under floor");
        }
    }
}
