//! Batch provisioning through a backbone glitch (§4.1): "a network glitch
//! as short as 30 seconds may cause a batch that's been running for hours
//! to fail".
//!
//! Runs the same batch under the paper's first realization (master/slave,
//! PC on partition) and under the §5 evolution (multi-master, PA on
//! partition), with and without PS retries.
//!
//! ```sh
//! cargo run --release --example batch_provisioning
//! ```

use udr::core::{BatchItem, Udr, UdrConfig};
use udr::metrics::{pct, Table};
use udr::model::ids::SiteId;
use udr::model::{ReplicationMode, SimDuration, SimTime};
use udr::sim::{FaultScript, SimRng};
use udr::workload::{PopulationBuilder, RetryPolicy};

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

fn run(mode: ReplicationMode, retries: u32) -> (String, udr::core::BatchReport, u64, u64) {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = mode;
    cfg.seed = 31;
    let mut udr = Udr::build(cfg).expect("valid configuration");

    let mut rng = SimRng::seed_from_u64(17);
    let population = PopulationBuilder::new(3).build(1200, &mut rng);
    let items: Vec<BatchItem> = population
        .iter()
        .map(|s| BatchItem::Create {
            ids: s.ids.clone(),
            home_region: s.home_region,
        })
        .collect();

    // 10 items/s ⇒ a 120 s batch; the glitch hits at t=40 for 30 s.
    udr.schedule_script(&FaultScript::new(0).glitch(t(40), SimDuration::from_secs(30)));
    let report = udr.run_provisioning_batch(
        items,
        10.0,
        t(0),
        SiteId(0),
        RetryPolicy::fixed(retries, SimDuration::from_secs(10)),
        1,
    );
    udr.advance_to(t(1200));
    let label = format!("{mode} / {} attempt(s)", retries);
    (
        label,
        report,
        udr.metrics.merges,
        udr.metrics.merge_conflicts,
    )
}

fn main() {
    println!("batch: 1200 create-subscription items at 10/s; 30 s backbone glitch at t=40\n");
    let mut table = Table::new([
        "configuration",
        "succeeded",
        "failed (manual)",
        "retries",
        "peak backlog",
        "merges",
        "conflicts",
    ])
    .with_title("§4.1 batch vs glitch — master/slave vs §5 multi-master");

    for (mode, retries) in [
        (ReplicationMode::AsyncMasterSlave, 1),
        (ReplicationMode::AsyncMasterSlave, 5),
        (ReplicationMode::MultiMaster, 1),
        (ReplicationMode::MultiMaster, 5),
    ] {
        let (label, report, merges, conflicts) = run(mode, retries);
        table.row([
            label,
            report.succeeded.to_string(),
            format!(
                "{} ({})",
                report.failed,
                pct(report.manual_intervention_fraction(), 1)
            ),
            report.retries.to_string(),
            format!("{:.0}", report.backlog.max().unwrap_or(0.0)),
            merges.to_string(),
            conflicts.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Reading: with master/slave and no retries, every item that hit the glitch failed and\n\
         needs manual completion (the §4.1 cost). Retries shrink the damage but grow the\n\
         backlog; multi-master keeps taking writes during the glitch (PA), at the price of a\n\
         consistency-restoration merge after heal (§5)."
    );
}
