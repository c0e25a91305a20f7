//! E13 — §3.5's H–R link and selective placement.
//!
//! "The more distributed data are the lower the chances that one LDAP
//! operation finds the subscriber data in a close location… if the data of
//! a subscriber can be pinned to a location close to the application
//! front-ends in the home region, chances of having to surf the IP
//! back-bone decrease enormously. Only when the user roams…" Sweeps the
//! roaming probability under pinned vs random placement. Emits
//! `BENCH_e13.json` (one row per placement × roaming cell).

use udr_bench::harness::{provisioned_system, run_events, standard_traffic, t};
use udr_bench::json::BenchReport;
use udr_core::UdrConfig;
use udr_metrics::{pct, Table};
use udr_model::config::{PlacementPolicy, TxnClass};
use udr_model::ids::SiteId;
use udr_model::time::SimDuration;
use udr_sim::FaultScript;

struct Row {
    backbone: f64,
    mean_latency: SimDuration,
    fe_availability_during_partition: f64,
}

fn run(placement: PlacementPolicy, roaming: f64) -> Row {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.placement = placement;
    cfg.seed = 44;
    let mut s = provisioned_system(cfg, 150, 44);
    // A partition of site 2 in the middle third measures the H–R claim:
    // remote data is not only slower but less *available*.
    s.udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(80),
        SimDuration::from_secs(40),
        [SiteId(2)],
    ));
    let events = standard_traffic(&s, 0.05, roaming, t(10), t(160), 45);
    let split_start = events.partition_point(|e| e.at < t(80));
    let split_end = events.partition_point(|e| e.at < t(120));

    run_events(&mut s, &events[..split_start], None, SiteId(0));
    let before = *s.udr.metrics.ops(TxnClass::FrontEnd);
    run_events(&mut s, &events[split_start..split_end], None, SiteId(0));
    let during = {
        let mut c = *s.udr.metrics.ops(TxnClass::FrontEnd);
        c.ok -= before.ok;
        c.unavailable -= before.unavailable;
        c.failed_other -= before.failed_other;
        c
    };
    run_events(&mut s, &events[split_end..], None, SiteId(0));

    Row {
        backbone: s.udr.metrics.backbone_fraction(),
        mean_latency: s.udr.metrics.fe_latency.mean(),
        fe_availability_during_partition: during.operational_availability(),
    }
}

fn main() {
    println!(
        "E13 — selective placement vs roaming (§3.5, the H–R link)\n\
         150 subscribers, typical mix, 150 s; site 2 islanded t=80..120;\n\
         FE traffic from home region except when roaming\n"
    );
    let mut table = Table::new([
        "placement",
        "roaming",
        "backbone crossings",
        "mean FE latency",
        "FE availability in partition",
    ])
    .with_title("pinning buys locality, latency and partition survival");
    let mut report = BenchReport::new("e13", 44);
    report
        .config("subscribers", 150u64)
        .config("island_site", 2u64)
        .config("partition_start_s", 80u64)
        .config("partition_s", 40u64);
    for placement in [PlacementPolicy::HomeRegion, PlacementPolicy::Random] {
        for roaming in [0.0, 0.05, 0.2, 0.5] {
            let row = run(placement, roaming);
            report.row(vec![
                ("placement", placement.to_string().into()),
                ("roaming", roaming.into()),
                ("backbone_fraction", row.backbone.into()),
                (
                    "mean_fe_latency_us",
                    row.mean_latency.as_micros_f64().into(),
                ),
                (
                    "fe_availability_in_partition",
                    row.fe_availability_during_partition.into(),
                ),
            ]);
            table.row([
                placement.to_string(),
                pct(roaming, 0),
                pct(row.backbone, 1),
                row.mean_latency.to_string(),
                pct(row.fe_availability_during_partition, 1),
            ]);
        }
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): pinned placement keeps backbone crossings near the roaming\n\
         probability (only roamers' writes travel); random placement pays ~⅔ crossings on\n\
         every write regardless. Latency and in-partition availability follow the same\n\
         order — 'chances of having to surf the IP back-bone decrease enormously'."
    );
}
