//! Randomized failure injection on the assembled UDR: for arbitrary
//! partition/crash schedules and write interleavings, the system-wide
//! invariants the paper's design promises must hold.

use proptest::prelude::*;

use udr_bench::check::Markers;
use udr_bench::harness::{numbered_ids as ids, t};
use udr_core::{Udr, UdrConfig};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::ReplicationMode;
use udr_model::identity::Identity;
use udr_model::ids::{SeId, SiteId};
use udr_model::time::SimDuration;
use udr_sim::FaultScript;

/// One random fault.
#[derive(Debug, Clone)]
enum RandomFault {
    Partition {
        island_site: u32,
        at_s: u64,
        dur_s: u64,
    },
    SeOutage {
        se: u32,
        at_s: u64,
        dur_s: u64,
    },
}

fn fault_strategy() -> impl Strategy<Value = RandomFault> {
    prop_oneof![
        (0u32..3, 20u64..100, 5u64..40).prop_map(|(island_site, at_s, dur_s)| {
            RandomFault::Partition {
                island_site,
                at_s,
                dur_s,
            }
        }),
        (0u32..3, 20u64..100, 5u64..40).prop_map(|(se, at_s, dur_s)| RandomFault::SeOutage {
            se,
            at_s,
            dur_s
        }),
    ]
}

fn script_of(faults: &[RandomFault]) -> FaultScript {
    let mut s = FaultScript::new(0);
    for f in faults {
        match f {
            RandomFault::Partition {
                island_site,
                at_s,
                dur_s,
            } => {
                s = s.clean_partition(
                    t(*at_s),
                    SimDuration::from_secs(*dur_s),
                    [SiteId(*island_site)],
                );
            }
            RandomFault::SeOutage { se, at_s, dur_s } => {
                s = s.se_outage(t(*at_s), SimDuration::from_secs(*dur_s), SeId(*se));
            }
        }
    }
    s
}

/// Writes: (subscriber index, value, at-second, from-site).
fn writes_strategy() -> impl Strategy<Value = Vec<(u64, u64, u64, u32)>> {
    prop::collection::vec((0u64..12, any::<u64>(), 20u64..140, 0u32..3), 0..40)
}

fn build(mode: ReplicationMode, seed: u64) -> Udr {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = mode;
    cfg.frash.failover_detection = SimDuration::from_secs(2);
    cfg.seed = seed;
    let mut udr = Udr::build(cfg).unwrap();
    for i in 0..12u64 {
        let set = ids(i);
        let out = udr.provision_subscriber(
            &set,
            (i % 3) as u32,
            SiteId(0),
            t(1) + SimDuration::from_millis(i * 10),
        );
        assert!(out.is_ok());
    }
    udr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any fault schedule and write interleaving, once every fault has
    /// healed and replication settles, all *up* replicas of every partition
    /// converge to identical data — and the run's accounting adds up.
    #[test]
    fn replicas_converge_after_arbitrary_faults(
        faults in prop::collection::vec(fault_strategy(), 0..4),
        writes in writes_strategy(),
        mode_multi in any::<bool>(),
    ) {
        let mode = if mode_multi {
            ReplicationMode::MultiMaster
        } else {
            ReplicationMode::AsyncMasterSlave
        };
        let mut udr = build(mode, 0xF00D);
        udr.schedule_script(&script_of(&faults));

        let mut sorted = writes.clone();
        sorted.sort_by_key(|(_, _, at, _)| *at);
        for (sub, val, at_s, site) in &sorted {
            let id = Identity::Imsi(ids(*sub).imsi);
            let _ = udr.modify_services(
                &id,
                vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(*val))],
                SiteId(*site),
                t(*at_s),
            );
        }
        // Everything heals by t=140+40; give catch-up time to drain.
        udr.advance_to(t(400));

        // Accounting adds up.
        let ps = udr.metrics.ops(udr_model::config::TxnClass::Provisioning);
        prop_assert_eq!(
            ps.attempts(),
            ps.ok + ps.unavailable + ps.failed_other
        );

        // Convergence across up replicas.
        for p in 0..3u32 {
            let pid = udr_model::ids::PartitionId(p);
            let group = udr.group(pid).clone();
            let mut states: Vec<Vec<(u64, Option<u64>)>> = Vec::new();
            for se in group.members() {
                if !udr.se(*se).is_up() {
                    continue;
                }
                let engine = udr.se(*se).engine(pid);
                let Ok(engine) = engine else { continue };
                let mut state: Vec<(u64, Option<u64>)> = engine
                    .iter_committed()
                    .map(|view| {
                        (
                            view.uid.raw(),
                            view.entry
                                .and_then(|e| e.get(AttrId::OdbMask))
                                .and_then(AttrValue::as_u64),
                        )
                    })
                    .collect();
                state.sort();
                states.push(state);
            }
            for pair in states.windows(2) {
                prop_assert_eq!(&pair[0], &pair[1], "partition {} diverged", p);
            }
        }
    }

    /// A successful write is never silently lost while its master chain
    /// stays alive: after settling, the master's copy reflects the last
    /// acknowledged value per subscriber (async mode, no SE faults).
    #[test]
    fn acknowledged_writes_stick_without_crashes(
        writes in writes_strategy(),
        partition_at in 30u64..80,
    ) {
        let mut udr = build(ReplicationMode::AsyncMasterSlave, 0xBEEF);
        udr.schedule_script(&FaultScript::new(0).clean_partition(
            t(partition_at),
            SimDuration::from_secs(30),
            [SiteId(2)],
        ));

        // Only acknowledged writes are recorded, so the checker requires
        // each subscriber's last one exactly.
        let mut markers = Markers::new((0..12).map(|i| Identity::Imsi(ids(i).imsi)));
        let mut sorted = writes.clone();
        sorted.sort_by_key(|(_, _, at, _)| *at);
        for (sub, val, at_s, site) in &sorted {
            let id = Identity::Imsi(ids(*sub).imsi);
            let out = udr.modify_services(
                &id,
                vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(*val))],
                SiteId(*site),
                t(*at_s),
            );
            if out.is_ok() {
                markers.issue(*sub as usize, *val, true);
            }
        }
        udr.advance_to(t(300));

        prop_assert_eq!(markers.lost(&udr), vec![], "acknowledged writes lost");
    }
}
