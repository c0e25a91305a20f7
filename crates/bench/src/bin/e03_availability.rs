//! E3 — §2.3 requirement 3: "on average any given subscriber's data must
//! be available 99.999% of the time", plus the structural claim that the
//! Figure 2 layout serves 100 % of the base "as long as one PoA and one SE
//! are reachable".
//!
//! Injects a random SE outage process (MTBF/MTTR) and integrates
//! subscriber-weighted structural availability over a simulated week, for
//! replication factors 1–3; then verifies the one-SE-left claim directly.
//! Emits `BENCH_e03.json` (one row per replication factor) for cross-PR
//! tracking.

use udr_bench::harness::{provisioned_system, t};
use udr_bench::json::{BenchReport, JsonValue};
use udr_core::UdrConfig;
use udr_metrics::{pct, AvailabilityLedger, Table};
use udr_model::ids::{SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_sim::{FaultScript, SimRng};
use udr_workload::OutageProcess;

fn weekly_availability(rf: u8, process: OutageProcess, seed: u64) -> f64 {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication_factor = rf;
    cfg.seed = seed;
    let mut s = provisioned_system(cfg, 90, seed);
    let horizon = t(7 * 24 * 3600);
    let mut rng = SimRng::seed_from_u64(seed ^ 0xABCD);
    s.udr
        .schedule_script(&process.schedule(3, horizon, &mut rng));

    // Integrate structural readability (subscriber-weighted) in 30 s steps
    // using the availability ledger's semantics.
    let subs = s.udr.total_subscribers();
    let mut ledger = AvailabilityLedger::new(subs, SimTime::ZERO);
    let step = SimDuration::from_secs(30);
    let mut at = SimTime::ZERO;
    while at < horizon {
        s.udr.advance_to(at);
        let readable = s.udr.readable_subscriber_fraction(SiteId(0));
        if readable < 1.0 {
            let affected = ((1.0 - readable) * subs as f64).round() as u64;
            ledger.record_outage(affected, step);
        }
        at += step;
    }
    ledger.availability(horizon)
}

fn main() {
    println!(
        "E3 — five-nines data availability (§2.3 req 3, footnote 4)\n\
         outage process: per-SE MTBF 24 h, MTTR 30 min (≈97.96% single-SE availability);\n\
         one simulated week, 3 sites × 1 SE\n"
    );
    let process = OutageProcess {
        mtbf: SimDuration::from_hours(24),
        mttr: SimDuration::from_mins(30),
    };
    println!(
        "single-SE analytic availability: {}\n",
        pct(process.single_se_availability(), 4)
    );

    let mut table = Table::new([
        "replication factor",
        "measured availability",
        "nines",
        "five nines?",
    ])
    .with_title("subscriber-weighted structural availability over one week");
    let mut report = BenchReport::new("e03", 100);
    report
        .config("subscribers", 90u64)
        .config("sites", 3u64)
        .config("mtbf_hours", 24u64)
        .config("mttr_mins", 30u64)
        .config("seeds_averaged", 5u64)
        .config("single_se_availability", process.single_se_availability());
    for rf in [1u8, 2, 3] {
        // Average over five seeds to smooth the outage process.
        let runs: Vec<f64> = (0..5)
            .map(|i| weekly_availability(rf, process, 100 + i))
            .collect();
        let avail = runs.iter().sum::<f64>() / runs.len() as f64;
        let nines = if avail >= 1.0 {
            9.0
        } else {
            -(1.0 - avail).log10()
        };
        table.row([
            format!("RF {rf}"),
            pct(avail, 5),
            format!("{nines:.1}"),
            if avail >= 0.99999 {
                "yes".to_owned()
            } else {
                "no".to_owned()
            },
        ]);
        report.row(vec![
            ("scenario", "weekly-outage-process".into()),
            ("replication_factor", u64::from(rf).into()),
            ("availability", avail.into()),
            ("nines", nines.into()),
            ("five_nines", i64::from(avail >= 0.99999).into()),
        ]);
    }
    println!("{table}");

    // Structural claim: with RF=3 over 3 SEs, the base stays 100 % readable
    // with only one SE alive (§2.3's Figure 2 walk-through).
    let mut s = provisioned_system(UdrConfig::figure2(), 90, 9);
    s.udr.schedule_script(
        &FaultScript::new(0)
            .se_crash(t(10), SeId(0))
            .se_crash(t(10), SeId(1)),
    );
    s.udr.advance_to(t(11));
    let frac = s.udr.readable_subscriber_fraction(SiteId(2));
    println!(
        "one-SE-left check: 2 of 3 SEs crashed → {} of the subscriber base readable \
         (paper: 100%)",
        pct(frac, 1)
    );
    report.row(vec![
        ("scenario", "one-se-left".into()),
        ("replication_factor", 3u64.into()),
        ("availability", frac.into()),
        ("nines", JsonValue::Null),
        ("five_nines", JsonValue::Null),
    ]);
    println!("wrote {}", report.write().display());
    println!(
        "\nShape check (paper): RF 1 tracks the raw SE availability (<< 5 nines); RF 2\n\
         improves by orders of magnitude; RF 3 reaches the 99.999% target because data\n\
         loss requires three simultaneous outages."
    );
}
