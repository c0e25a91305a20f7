//! E5 — §3.3.2: stale reads on slave copies under asynchronous replication.
//!
//! "Since asynchronous replication does not guarantee real-time sync
//! between replicas, there's a certain chance that a read operation on a
//! slave replica gets stale data." The chance is a function of the write
//! rate and the replication lag (backbone delay); this experiment sweeps
//! both. Emits `BENCH_e05.json` (one row per cell) for cross-PR
//! tracking; standard output is the table.

use udr_bench::harness::{provisioned_system, t};
use udr_bench::json::BenchReport;
use udr_core::{OpRequest, UdrConfig};
use udr_metrics::{pct, Table};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::identity::Identity;
use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::time::SimDuration;
use udr_sim::net::{LatencyModel, LinkProfile};

/// Population seed of every cell (the deployment seed varies per cell).
const SEED: u64 = 11;

/// One cell: write every `write_gap` at the home site, read from a remote
/// site at a random offset inside the gap; report the stale fraction.
#[allow(clippy::explicit_counter_loop)] // `i` also seeds per-round values
fn run(write_gap: SimDuration, wan_median_ms: u64) -> (f64, f64) {
    let mut cfg = UdrConfig::figure2();
    cfg.seed = 5 + wan_median_ms;
    let mut s = provisioned_system(cfg, 30, SEED);
    // Re-profile every inter-site link with the requested median.
    let wan = LinkProfile {
        latency: LatencyModel::wan(SimDuration::from_millis(wan_median_ms)),
        loss: 0.0,
    };
    for a in 0..3u32 {
        for b in 0..3u32 {
            if a != b {
                s.udr
                    .net
                    .topology_mut()
                    .set_link(SiteId(a), SiteId(b), wan.clone());
            }
        }
    }

    // Home-region subscribers of site 0 only: master at site 0, slave read
    // from site 1.
    let home0: Vec<usize> = s
        .population
        .iter()
        .enumerate()
        .filter(|(_, sub)| sub.home_region == 0)
        .map(|(i, _)| i)
        .collect();
    let mut at = t(10);
    let mut i = 0u64;
    let rounds = 600;
    for _ in 0..rounds {
        let sub = &s.population[home0[(i % home0.len() as u64) as usize]];
        let id = Identity::Imsi(sub.ids.imsi);
        let w = s.udr.modify_services(
            &id,
            vec![AttrMod::Set(AttrId::AuthSqn, AttrValue::U64(i))],
            SiteId(0),
            at,
        );
        assert!(w.is_ok());
        // Read from site 1 at a deterministic offset pattern inside the gap
        // (1/4, 2/4, 3/4 of the gap across rounds).
        let offset = write_gap.mul_f64(0.25 * ((i % 3 + 1) as f64));
        let r = s
            .udr
            .execute(
                OpRequest::procedure(ProcedureKind::CallSetupMo, &sub.ids)
                    .site(SiteId(1))
                    .at(at + offset),
            )
            .into_procedure();
        assert!(r.success);
        at += write_gap;
        i += 1;
    }
    (
        s.udr.metrics.staleness.stale_slave_fraction(),
        s.udr.metrics.staleness.mean_lag_time().as_millis_f64(),
    )
}

fn main() {
    println!(
        "E5 — slave-read staleness vs write rate and backbone lag (§3.3.2)\n\
         write at the master site, read the same subscriber from a remote PoA\n\
         at 1/4..3/4 of the write gap; async master/slave replication\n"
    );
    let mut table = Table::new([
        "write gap",
        "WAN median",
        "stale slave reads",
        "mean lag of stale reads",
    ])
    .with_title("stale fraction grows with write rate × replication lag");
    let mut report = BenchReport::new("e05", SEED);
    report
        .config("subscribers", 30u64)
        .config("rounds", 600u64)
        .config("read_site", 1u64);
    for gap_ms in [1000u64, 100, 30] {
        for wan_ms in [5u64, 15, 60] {
            let (stale, mean_lag_ms) = run(SimDuration::from_millis(gap_ms), wan_ms);
            report.row(vec![
                ("write_gap", format!("{gap_ms} ms").into()),
                ("wan_median", format!("{wan_ms} ms").into()),
                ("stale_slave_fraction", stale.into()),
                ("mean_stale_lag_ms", mean_lag_ms.into()),
            ]);
            table.row([
                format!("{gap_ms} ms"),
                format!("{wan_ms} ms"),
                pct(stale, 1),
                format!("{mean_lag_ms:.1} ms"),
            ]);
        }
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): with slow writes (1 s gap) and a 5 ms backbone, almost every\n\
         remote read is fresh; push the write gap toward the one-way delay and staleness\n\
         approaches the fraction of the gap covered by the lag — at 30 ms gaps over a 60 ms\n\
         backbone, essentially every slave read is stale. This is the consistency cost of\n\
         the §3.3.1/§3.3.2 latency decisions (EL in PACELC)."
    );
}
