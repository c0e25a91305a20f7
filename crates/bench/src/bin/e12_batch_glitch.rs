//! E12 — §3.3 and §4.1: batch provisioning vs network glitches.
//!
//! "When using batched provisioning, a network glitch as short as 30
//! seconds may cause a batch that's been running for hours to fail. At the
//! very best… the provider needs to send someone to check what parts of
//! the batch failed and apply those parts manually." Sweeps glitch length
//! and retry policy; reports manual-intervention fractions and the §3.3
//! back-log growth. Emits `BENCH_e12.json` (one row per swept cell) for
//! cross-PR tracking.

use udr_bench::harness::t;
use udr_bench::json::BenchReport;
use udr_core::{BatchItem, Udr, UdrConfig};
use udr_metrics::{pct, Table};
use udr_model::config::ReplicationMode;
use udr_model::ids::SiteId;
use udr_model::time::SimDuration;
use udr_sim::{FaultScript, SimRng};
use udr_workload::{PopulationBuilder, RetryPolicy};

struct Row {
    failed: usize,
    manual: f64,
    retries: u64,
    peak_backlog: f64,
    finish_s: f64,
}

fn run(mode: ReplicationMode, glitch_s: u64, attempts: u32, access_chunk: usize) -> Row {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = mode;
    cfg.seed = 12;
    let mut udr = Udr::build(cfg).unwrap();
    let mut rng = SimRng::seed_from_u64(12);
    let population = PopulationBuilder::new(3).build(1800, &mut rng);
    let items: Vec<BatchItem> = population
        .iter()
        .map(|s| BatchItem::Create {
            ids: s.ids.clone(),
            home_region: s.home_region,
        })
        .collect();
    if glitch_s > 0 {
        udr.schedule_script(&FaultScript::new(0).glitch(t(60), SimDuration::from_secs(glitch_s)));
    }
    // 10 items/s ⇒ nominally a 180 s batch.
    let report = udr.run_provisioning_batch(
        items,
        10.0,
        t(0),
        SiteId(0),
        RetryPolicy::fixed(attempts, SimDuration::from_secs(15)),
        access_chunk,
    );
    Row {
        failed: report.failed,
        manual: report.manual_intervention_fraction(),
        retries: report.retries,
        peak_backlog: report.backlog.max().unwrap_or(0.0),
        finish_s: report.finished_at.as_secs_f64(),
    }
}

fn main() {
    println!(
        "E12 — batch provisioning vs backbone glitches (§3.3, §4.1)\n\
         1800 create-subscription items at 10/s (180 s batch); glitch at t=60\n"
    );
    let mut table = Table::new([
        "mode",
        "glitch",
        "retry policy",
        "items failed",
        "manual intervention",
        "retries",
        "peak backlog",
        "batch done at",
    ])
    .with_title("the §4.1 batch failure mode, swept");
    let mut report = BenchReport::new("e12", 12);
    report
        .config("items", 1800u64)
        .config("items_per_sec", 10.0)
        .config("glitch_at_s", 60u64)
        .config("retry_backoff_s", 15u64);
    for (mode, label) in [
        (ReplicationMode::AsyncMasterSlave, "master/slave"),
        (ReplicationMode::MultiMaster, "multi-master"),
    ] {
        for glitch_s in [0u64, 30, 120] {
            for attempts in [1u32, 6] {
                let row = run(mode, glitch_s, attempts, 1);
                // Framed-access guard: coalescing the access path into
                // 8-op frames amortises wire cost but must not move a
                // single verdict — same failures, same retries, same
                // back-log, same finish instant.
                let framed = run(mode, glitch_s, attempts, 8);
                assert_eq!(
                    (row.failed, row.retries, framed.manual == row.manual),
                    (framed.failed, framed.retries, true),
                    "framed access changed {label} glitch={glitch_s}s verdicts"
                );
                assert_eq!(
                    (row.peak_backlog, row.finish_s),
                    (framed.peak_backlog, framed.finish_s),
                    "framed access changed {label} glitch={glitch_s}s timeline"
                );
                table.row([
                    label.to_owned(),
                    if glitch_s == 0 {
                        "none".to_owned()
                    } else {
                        format!("{glitch_s} s")
                    },
                    if attempts == 1 {
                        "none".to_owned()
                    } else {
                        format!("{attempts} attempts")
                    },
                    row.failed.to_string(),
                    pct(row.manual, 1),
                    row.retries.to_string(),
                    format!("{:.0}", row.peak_backlog),
                    format!("{:.0} s", row.finish_s),
                ]);
                report.row(vec![
                    ("mode", mode.to_string().into()),
                    ("glitch_s", glitch_s.into()),
                    ("max_attempts", u64::from(attempts).into()),
                    ("items_failed", row.failed.into()),
                    ("manual_intervention_fraction", row.manual.into()),
                    ("retries", row.retries.into()),
                    ("peak_backlog", row.peak_backlog.into()),
                    ("finished_at_s", row.finish_s.into()),
                ]);
            }
        }
    }
    println!("{table}");
    println!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): a 30 s glitch with no retries fails ~⅔ of the items that\n\
         arrived during it (those homed across the shattered backbone) — each one a manual\n\
         intervention. Retries trade failures for back-log growth and a longer batch; a\n\
         longer glitch scales both. Multi-master keeps accepting everything (PA on the\n\
         partition), which is precisely what §4.1 reports service providers demanding."
    );
    println!(
        "\nFramed-access guard: every cell re-ran with 8-op framed access \
         (access_chunk 8); verdicts, back-log and finish instants \
         were identical to the per-op wire shape."
    );
}
