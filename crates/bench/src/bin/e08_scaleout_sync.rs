//! E8 — §3.4.2 and §3.5's F-R-S triangle: the cost of scale-out.
//!
//! Provisioned maps: a new cluster's location stage "syncs its
//! identity-location maps with peer instances … this synchronization takes
//! some time, during which operations issued on the PoA realized by the
//! new blade cluster cannot be handled" — an availability window that
//! grows with N. Cached maps avoid the window "but every cache miss
//! implies locating the subscriber data by querying multiple or even all
//! the SE in the system" — a probe storm that hurts scalability instead.

use udr_bench::harness::{provisioned_system, t};
use udr_bench::json::BenchReport;
use udr_core::{OpRequest, UdrConfig};
use udr_metrics::Table;
use udr_model::config::LocatorKind;
use udr_model::error::UdrError;
use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::time::SimDuration;

const SEED: u64 = 13;
const READS: u64 = 500;
const POPULATION_STEPS: [u64; 3] = [2_000, 16_000, 64_000];

struct Row {
    subscribers: u64,
    window: Option<SimDuration>,
    blocked_ops: u64,
    probes: u64,
}

fn run(locator: LocatorKind, n: u64) -> Row {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.locator = locator;
    cfg.seed = SEED;
    let mut s = provisioned_system(cfg, n, 21);
    let start = s.udr.now().max(t(10)) + SimDuration::from_secs(10);
    let idx = s.udr.add_cluster(SiteId(1), start);
    let window = s
        .udr
        .cluster_sync_done_at(idx)
        .map(|done| done.duration_since(start));

    // Drive 200 reads through site 1; the round-robin alternates between
    // the old (ready) and new (possibly syncing) PoA.
    let mut blocked = 0u64;
    let probes_before = s.udr.metrics.dls_probes;
    let mut at = start + SimDuration::from_millis(5);
    for i in 0..READS {
        let sub = &s.population[(i % n) as usize];
        let out = s
            .udr
            .execute(
                OpRequest::procedure(ProcedureKind::SmsDelivery, &sub.ids)
                    .site(SiteId(1))
                    .at(at),
            )
            .into_procedure();
        if matches!(out.failure, Some(UdrError::LocationStageSyncing)) {
            blocked += 1;
        }
        at += SimDuration::from_millis(10);
    }
    Row {
        subscribers: n,
        window,
        blocked_ops: blocked,
        probes: s.udr.metrics.dls_probes - probes_before,
    }
}

fn main() {
    println!(
        "E8 — scale-out: the location-stage sync window vs the cache-miss storm (§3.4.2)\n\
         a new cluster joins site 1 after provisioning; 500 reads then flow through\n\
         site 1 (round-robin across the site's two PoAs) over 5 s\n"
    );
    let mut table = Table::new([
        "locator",
        "subscribers",
        "sync window",
        "ops refused (syncing)",
        "SE probes triggered",
    ])
    .with_title("what adding a cluster costs, by locator realisation");
    let mut report = BenchReport::new("e08", SEED);
    report.config("reads_through_new_site", READS).config(
        "population_steps",
        POPULATION_STEPS
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );
    for locator in [
        LocatorKind::ProvisionedMaps,
        LocatorKind::CachedMaps,
        LocatorKind::ConsistentHashing,
    ] {
        for n in POPULATION_STEPS {
            let row = run(locator, n);
            table.row([
                locator.to_string(),
                row.subscribers.to_string(),
                row.window
                    .map_or_else(|| "none".to_owned(), |w| w.to_string()),
                row.blocked_ops.to_string(),
                row.probes.to_string(),
            ]);
            report.row(vec![
                ("locator", locator.to_string().into()),
                ("subscribers", row.subscribers.into()),
                (
                    "sync_window_us",
                    row.window.map(|w| w.as_micros_f64()).into(),
                ),
                ("blocked_ops", row.blocked_ops.into()),
                ("se_probes", row.probes.into()),
            ]);
        }
    }
    println!("{table}");
    println!("machine-readable rows: {}", report.write().display());
    println!(
        "Shape check (paper): the provisioned-map window grows linearly with N (entries\n\
         copied), and every operation landing on the new PoA inside the window is refused —\n\
         the R cost of S. Cached maps have no window but fire a probe to every SE per cold\n\
         miss (the scalability hurdle); consistent hashing has neither, at the price of\n\
         losing selective placement (§3.5). The F–R–S triangle, row by row."
    );
}
