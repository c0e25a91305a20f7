//! A multi-national service provider (Figure 1/2): three national sites,
//! realistic traffic with roaming, and a backbone partition mid-run.
//!
//! Shows the paper's central CAP trade-off live: during the partition the
//! read-mostly front-end traffic keeps flowing (PA/EL) while provisioning
//! writes addressed to isolated masters fail (PC/EC).
//!
//! ```sh
//! cargo run --release --example multinational_network
//! ```

use udr::core::{OpRequest, Udr, UdrConfig};
use udr::metrics::{pct, Table};
use udr::model::ids::SiteId;
use udr::model::{AttrId, AttrMod, AttrValue, Identity, SimDuration, SimTime, TxnClass};
use udr::sim::{FaultScript, SimRng};
use udr::workload::{PopulationBuilder, TrafficModel};

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

fn main() {
    let mut cfg = UdrConfig::figure2();
    cfg.ldap_servers_per_cluster = 4;
    cfg.seed = 2014;
    let mut udr = Udr::build(cfg).expect("valid configuration");

    // Population: 300 subscribers, region shares 50/30/20 (big, medium,
    // small country), 40 % IMS-enabled.
    let mut rng = SimRng::seed_from_u64(99);
    let population = PopulationBuilder::new(3)
        .region_weights(vec![5.0, 3.0, 2.0])
        .build(300, &mut rng);
    let mut at = t(0) + SimDuration::from_millis(1);
    for sub in &population {
        let out = udr.provision_subscriber(&sub.ids, sub.home_region, SiteId(0), at);
        assert!(out.is_ok());
        at += SimDuration::from_millis(3);
    }

    // Traffic: 600 s of procedures at 0.05 proc/sub/s with 5 % roaming.
    let mut model = TrafficModel::flat(0.05, 3);
    model.roaming_probability = 0.05;
    let events = model.generate(&population, t(10), t(610), &mut rng);
    println!("generated {} procedure arrivals over 600 s", events.len());

    // Fault: site 2 cut off from the backbone between t=200 and t=320.
    udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(200),
        SimDuration::from_secs(120),
        [SiteId(2)],
    ));

    // Drive: FE procedures from the generated stream; a slow provisioning
    // trickle targets subscribers of every region throughout.
    let mut window = [(0u64, 0u64); 3]; // (ok, fail) per phase: before/during/after
    let phase = |at: SimTime| -> usize {
        if at < t(200) {
            0
        } else if at < t(320) {
            1
        } else {
            2
        }
    };
    let mut prov_iter = population.iter().cycle();
    let mut next_prov = t(12);
    for ev in &events {
        // Interleave a provisioning write every 2 s.
        while next_prov <= ev.at {
            let target = prov_iter.next().unwrap();
            let out = udr.modify_services(
                &Identity::Imsi(target.ids.imsi),
                vec![AttrMod::Set(
                    AttrId::OdbMask,
                    AttrValue::U64(next_prov.as_nanos()),
                )],
                SiteId(0),
                next_prov,
            );
            let p = phase(next_prov);
            if out.is_ok() {
                window[p].0 += 1;
            } else {
                window[p].1 += 1;
            }
            next_prov += SimDuration::from_secs(2);
        }
        let sub = &population[ev.subscriber];
        udr.execute(
            OpRequest::procedure(ev.kind, &sub.ids)
                .site(ev.fe_site)
                .at(ev.at),
        )
        .into_procedure();
    }
    udr.advance_to(t(700));

    // ---- report ------------------------------------------------------------
    let fe = udr.metrics.ops(TxnClass::FrontEnd);
    let ps = udr.metrics.ops(TxnClass::Provisioning);
    let mut table = Table::new(["metric", "front-end", "provisioning"])
        .with_title("600 s multinational run with a 120 s partition of site 2");
    table.row(["operations ok".into(), fe.ok.to_string(), ps.ok.to_string()]);
    table.row([
        "availability failures".into(),
        fe.unavailable.to_string(),
        ps.unavailable.to_string(),
    ]);
    table.row([
        "operational availability".into(),
        pct(fe.operational_availability(), 3),
        pct(ps.operational_availability(), 3),
    ]);
    table.row([
        "mean latency".into(),
        udr.metrics.fe_latency.mean().to_string(),
        udr.metrics.ps_latency.mean().to_string(),
    ]);
    table.row([
        "p99 latency".into(),
        udr.metrics.fe_latency.p99().to_string(),
        udr.metrics.ps_latency.p99().to_string(),
    ]);
    println!("\n{table}");

    let mut phases = Table::new(["phase", "prov ok", "prov failed"])
        .with_title("provisioning (writes) by phase — the §4.1 failure mode");
    for (name, (ok, fail)) in ["before partition", "during partition", "after heal"]
        .iter()
        .zip(window)
    {
        phases.row([(*name).into(), ok.to_string(), fail.to_string()]);
    }
    println!("{phases}");

    println!(
        "stale slave reads: {} of {} reads ({}), mean lag {}",
        udr.metrics.staleness.stale_reads,
        udr.metrics.staleness.total_reads(),
        pct(udr.metrics.staleness.stale_fraction(), 2),
        udr.metrics.staleness.mean_lag_time(),
    );
    println!(
        "backbone crossings: {} of SE-bound ops ({})",
        udr.metrics.backbone_ops,
        pct(udr.metrics.backbone_fraction(), 1)
    );
    println!(
        "\nPACELC observed: FE stayed available during the partition ({}), PS writes to the \
         island failed ({}) — the paper's PA/EL vs PC/EC split.",
        udr.pacelc_for(TxnClass::FrontEnd),
        udr.pacelc_for(TxnClass::Provisioning)
    );
}
