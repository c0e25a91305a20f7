//! E2 — §2.3 requirement 4: "a target average response time of 10 ms
//! (excluding network delays) for index-based single subscriber queries".
//!
//! Measures the latency distribution of indexed single-subscriber reads as
//! seen at the PoA, split by where the serving copy sat (local site vs
//! across the backbone), plus the effect of home-region pinning. Emits
//! `BENCH_e02.json` (one row per placement × roaming cell).

use udr_bench::harness::{provisioned_system, standard_traffic, t};
use udr_bench::json::BenchReport;
use udr_core::{OpRequest, UdrConfig};
use udr_metrics::{pct, Histogram, Table};
use udr_model::config::PlacementPolicy;
use udr_model::time::SimDuration;

fn run(placement: PlacementPolicy, roaming: f64) -> (Histogram, f64) {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.placement = placement;
    cfg.ldap_servers_per_cluster = 4;
    let mut s = provisioned_system(cfg, 200, 2);
    let events = standard_traffic(&s, 0.05, roaming, t(10), t(130), 3);
    for ev in &events {
        let sub = &s.population[ev.subscriber];
        s.udr.execute(
            OpRequest::procedure(ev.kind, &sub.ids)
                .site(ev.fe_site)
                .at(ev.at),
        );
    }
    (
        s.udr.metrics.fe_latency.clone(),
        s.udr.metrics.backbone_fraction(),
    )
}

fn main() {
    println!(
        "E2 — the 10 ms indexed-query target (§2.3 req 4)\n\
         workload: 200 subscribers, mixed procedures, 120 s, WAN median 15 ms\n"
    );
    let mut table = Table::new([
        "placement / roaming",
        "mean",
        "p50",
        "p99",
        "max",
        "backbone ops",
        "10ms target",
    ])
    .with_title("front-end operation latency at the PoA");
    let mut report = BenchReport::new("e02", UdrConfig::figure2().seed);
    report
        .config("subscribers", 200u64)
        .config("ldap_servers_per_cluster", 4u64)
        .config("traffic_s", 120u64)
        .config("target_mean_ms", 10u64);

    for (name, placement, roaming) in [
        ("home-region, 0% roaming", PlacementPolicy::HomeRegion, 0.0),
        ("home-region, 5% roaming", PlacementPolicy::HomeRegion, 0.05),
        (
            "home-region, 30% roaming",
            PlacementPolicy::HomeRegion,
            0.30,
        ),
        (
            "random placement, 5% roaming",
            PlacementPolicy::Random,
            0.05,
        ),
    ] {
        let (hist, backbone) = run(placement, roaming);
        let target = if hist.mean() < SimDuration::from_millis(10) {
            "MET"
        } else {
            "MISSED"
        };
        report.row(vec![
            ("placement", placement.to_string().into()),
            ("roaming", roaming.into()),
            ("mean_us", hist.mean().as_micros_f64().into()),
            ("p50_us", hist.p50().as_micros_f64().into()),
            ("p99_us", hist.p99().as_micros_f64().into()),
            ("max_us", hist.max().as_micros_f64().into()),
            ("backbone_fraction", backbone.into()),
            ("target_10ms", target.into()),
        ]);
        table.row([
            name.to_owned(),
            hist.mean().to_string(),
            hist.p50().to_string(),
            hist.p99().to_string(),
            hist.max().to_string(),
            pct(backbone, 1),
            target.to_owned(),
        ]);
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): with data pinned near its front-ends the average sits far\n\
         below 10 ms (RAM engine + LAN); every backbone crossing costs one WAN round trip,\n\
         so the average degrades with roaming and with unpinned placement — the reason\n\
         §3.3.1 resolves locations locally and §3.5 pins subscribers to their home region."
    );
}
