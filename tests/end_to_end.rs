//! Cross-crate integration tests through the umbrella crate: workload
//! generators driving the assembled UDR, checked against the paper's
//! qualitative claims.

use udr::core::{OpRequest, Udr, UdrConfig};
use udr::model::ids::SiteId;
use udr::model::{
    AttrId, AttrMod, AttrValue, Identity, ProcedureKind, ReplicationMode, SimDuration, SimTime,
    TxnClass,
};
use udr::sim::{FaultScript, SimRng};
use udr::workload::{OutageProcess, PopulationBuilder, TrafficModel};

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Build a Figure 2 UDR with a provisioned population.
fn system(n: u64, seed: u64) -> (Udr, Vec<udr::workload::Subscriber>) {
    let mut cfg = UdrConfig::figure2();
    cfg.seed = seed;
    let mut udr = Udr::build(cfg).unwrap();
    let mut rng = SimRng::seed_from_u64(seed);
    let population = PopulationBuilder::new(3).build(n, &mut rng);
    let mut at = t(0) + SimDuration::from_millis(1);
    for sub in &population {
        let out = udr.provision_subscriber(&sub.ids, sub.home_region, SiteId(0), at);
        assert!(out.is_ok(), "{:?}", out.op.result);
        at += SimDuration::from_millis(2);
    }
    (udr, population)
}

#[test]
fn generated_traffic_runs_clean_on_healthy_network() {
    let (mut udr, population) = system(120, 1);
    let model = TrafficModel::flat(0.02, 3);
    let mut rng = SimRng::seed_from_u64(2);
    let events = model.generate(&population, t(10), t(70), &mut rng);
    assert!(events.len() > 50);
    for ev in &events {
        let sub = &population[ev.subscriber];
        let out = udr
            .execute(
                OpRequest::procedure(ev.kind, &sub.ids)
                    .site(ev.fe_site)
                    .at(ev.at),
            )
            .into_procedure();
        assert!(out.success, "{} failed: {:?}", ev.kind, out.failure);
    }
    // §2.3 requirement 4: sub-10 ms average for indexed queries.
    assert!(udr.metrics.fe_latency.mean() < SimDuration::from_millis(10));
    // Replication settles: no stale data remains after the run.
    udr.advance_to(t(200));
    let stale_before = udr.metrics.staleness.stale_reads;
    for sub in population.iter().take(20) {
        let out = udr
            .execute(
                OpRequest::procedure(ProcedureKind::CallSetupMo, &sub.ids)
                    .site(SiteId((sub.home_region + 1) % 3))
                    .at(t(201)),
            )
            .into_procedure();
        assert!(out.success);
    }
    assert_eq!(udr.metrics.staleness.stale_reads, stale_before);
}

#[test]
fn five_nines_under_realistic_outage_process() {
    // SE MTBF 2 h, MTTR 2 min, RF 3: structural data availability should
    // far exceed a single element's ~98.4 %.
    let (mut udr, _) = system(60, 3);
    let process = OutageProcess {
        mtbf: SimDuration::from_hours(2),
        mttr: SimDuration::from_mins(2),
    };
    let mut rng = SimRng::seed_from_u64(4);
    let horizon = t(24 * 3600);
    udr.schedule_script(&process.schedule(3, horizon, &mut rng));

    // Integrate structural readability in 60 s steps.
    let mut readable_seconds = 0.0f64;
    let mut total_seconds = 0.0f64;
    let mut at = t(0);
    while at < horizon {
        udr.advance_to(at);
        readable_seconds += 60.0 * udr.readable_subscriber_fraction(SiteId(0));
        total_seconds += 60.0;
        at += SimDuration::from_secs(60);
    }
    let availability = readable_seconds / total_seconds;
    assert!(
        availability > 0.99999,
        "replicated availability {availability} below five nines"
    );
}

#[test]
fn multimaster_traffic_through_partition_converges_everywhere() {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::MultiMaster;
    cfg.seed = 5;
    let mut udr = Udr::build(cfg).unwrap();
    let mut rng = SimRng::seed_from_u64(5);
    let population = PopulationBuilder::new(3).build(60, &mut rng);
    let mut at = t(0) + SimDuration::from_millis(1);
    for sub in &population {
        assert!(udr
            .provision_subscriber(&sub.ids, sub.home_region, SiteId(0), at)
            .is_ok());
        at += SimDuration::from_millis(2);
    }
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(50),
        SimDuration::from_secs(60),
        [SiteId(2)],
    ));

    // Writes from both sides during the partition, to the same subscribers.
    let mut at = t(60);
    for (i, sub) in population.iter().enumerate().take(30) {
        let id = Identity::Imsi(sub.ids.imsi);
        let w0 = udr.modify_services(
            &id,
            vec![AttrMod::Set(
                AttrId::OdbMask,
                AttrValue::U64(1000 + i as u64),
            )],
            SiteId(0),
            at,
        );
        assert!(w0.is_ok(), "majority write failed: {:?}", w0.result);
        let w2 = udr.modify_services(
            &id,
            vec![AttrMod::Set(
                AttrId::OdbMask,
                AttrValue::U64(2000 + i as u64),
            )],
            SiteId(2),
            at + SimDuration::from_millis(500),
        );
        assert!(w2.is_ok(), "island write failed: {:?}", w2.result);
        at += SimDuration::from_millis(1000);
    }

    udr.advance_to(t(300));
    assert!(udr.metrics.merges > 0);
    assert!(
        udr.metrics.merge_conflicts >= 30,
        "conflicts: {}",
        udr.metrics.merge_conflicts
    );

    // Convergence: every replica of every touched partition agrees.
    for sub in population.iter().take(30) {
        let id = Identity::Imsi(sub.ids.imsi);
        let loc = udr.lookup_authority(&id).unwrap();
        let values: Vec<_> = udr
            .group(loc.partition)
            .members()
            .iter()
            .map(|se| {
                udr.se(*se)
                    .read_committed(loc.partition, loc.uid)
                    .unwrap()
                    .and_then(|e| e.get(AttrId::OdbMask).and_then(AttrValue::as_u64))
            })
            .collect();
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "divergent: {values:?}"
        );
        // LWW: the island write (later timestamp) won.
        assert!(values[0].unwrap() >= 2000, "unexpected winner {values:?}");
    }
}

#[test]
fn procedure_mix_is_read_mostly_and_partitions_split_by_class() {
    // §4.1's asymmetry driven by the generated mix itself.
    let (mut udr, population) = system(90, 7);
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(100),
        [SiteId(2)],
    ));
    let model = TrafficModel::flat(0.02, 3);
    let mut rng = SimRng::seed_from_u64(8);
    let events = model.generate(&population, t(100), t(200), &mut rng);

    // Count only the partition window (drop the setup-phase provisioning).
    udr.metrics.ps_ops = Default::default();
    udr.metrics.fe_ops = Default::default();

    let mut prov_at = t(100);
    let mut prov_idx = 0usize;
    for ev in &events {
        while prov_at <= ev.at {
            let sub = &population[prov_idx % population.len()];
            udr.modify_services(
                &Identity::Imsi(sub.ids.imsi),
                vec![AttrMod::Set(
                    AttrId::CallForwarding,
                    AttrValue::Str("34600".into()),
                )],
                SiteId(0),
                prov_at,
            );
            prov_idx += 1;
            prov_at += SimDuration::from_secs(2);
        }
        let sub = &population[ev.subscriber];
        udr.execute(
            OpRequest::procedure(ev.kind, &sub.ids)
                .site(ev.fe_site)
                .at(ev.at),
        )
        .into_procedure();
    }
    let fe = udr.metrics.ops(TxnClass::FrontEnd);
    let ps = udr.metrics.ops(TxnClass::Provisioning);
    // FE ops mostly succeed; PS writes fail at roughly the share of
    // subscribers homed in the island (~1/3).
    assert!(
        fe.operational_availability() > 0.90,
        "fe {}",
        fe.operational_availability()
    );
    assert!(
        ps.operational_availability() < 0.85,
        "ps availability {} suspiciously high during partition",
        ps.operational_availability()
    );
    assert!(fe.operational_availability() > ps.operational_availability());
}

#[test]
fn deterministic_runs_with_same_seed() {
    let run = || {
        let (mut udr, population) = system(40, 11);
        let model = TrafficModel::flat(0.05, 3);
        let mut rng = SimRng::seed_from_u64(11);
        let events = model.generate(&population, t(5), t(25), &mut rng);
        for ev in &events {
            let sub = &population[ev.subscriber];
            udr.execute(
                OpRequest::procedure(ev.kind, &sub.ids)
                    .site(ev.fe_site)
                    .at(ev.at),
            )
            .into_procedure();
        }
        (
            udr.metrics.fe_ops.ok,
            udr.metrics.fe_latency.mean(),
            udr.metrics.staleness.total_reads(),
            udr.net.stats.delivered,
        )
    };
    assert_eq!(run(), run(), "same seed must reproduce the run exactly");
}

#[test]
fn umbrella_crate_reexports_are_usable() {
    // Compile-time check that the public facade exposes every layer.
    let _cfg = udr::core::UdrConfig::default();
    let _hist = udr::metrics::Histogram::new();
    let _ring = udr::dls::ConsistentHashRing::new((0..4).map(udr::model::ids::PartitionId), 8);
    let _dn = udr::ldap::Dn::parse("imsi=214011234567890,ou=subscribers,dc=udr").unwrap();
    let _rng = udr::sim::SimRng::seed_from_u64(0);
    let _cap = udr::core::CapacityModel::default();
    let engine = udr::storage::Engine::new(udr::model::ids::SeId(0));
    assert_eq!(engine.live_records(), 0);
}
