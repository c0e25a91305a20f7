//! E11 — §5: tunable durability for provisioning transactions.
//!
//! "The service provider has to be allowed to tune the degree of
//! durability it wants for provisioning transactions… the latency penalty
//! for achieving close to 100% guaranteed durability is so high that some
//! unwary service providers might think it twice."
//!
//! Compares async, dual-in-sequence and Cassandra-style quorums on commit
//! latency and on what a lagging-master crash costs, under identical load
//! and faults. Emits `BENCH_e11.json` (one row per replication mode) for
//! cross-PR tracking; standard output is the table.

use udr_bench::harness::{provisioned_system, t};
use udr_bench::json::BenchReport;
use udr_core::UdrConfig;
use udr_metrics::Table;
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::ReplicationMode;
use udr_model::identity::Identity;
use udr_model::ids::SiteId;
use udr_model::time::SimDuration;
use udr_sim::FaultScript;

const SUBSCRIBERS: u64 = 60;
const SEED: u64 = 23;

struct Row {
    mode: String,
    mean: SimDuration,
    p99: SimDuration,
    ok: u64,
    refused: u64,
    lost: u64,
    partial: u64,
}

fn run(mode: ReplicationMode) -> Row {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = mode;
    cfg.frash.failover_detection = SimDuration::from_secs(2);
    cfg.seed = SEED;
    let mut s = provisioned_system(cfg, SUBSCRIBERS, SEED);
    let home0: Vec<_> = s
        .population
        .iter()
        .filter(|p| p.home_region == 0)
        .cloned()
        .collect();
    let master = s
        .udr
        .group(
            s.udr
                .lookup_authority(&Identity::Imsi(home0[0].ids.imsi))
                .unwrap()
                .partition,
        )
        .master();

    // Isolate site 0 (master + its PS) for 10 s, crash the master inside
    // the window: whatever async accepted there is unreplicated.
    s.udr.schedule_script(
        &FaultScript::new(0)
            .clean_partition(t(55), SimDuration::from_secs(10), [SiteId(0)])
            .se_outage(t(60), SimDuration::from_secs(20), master),
    );

    let mut ok = 0u64;
    let mut refused = 0u64;
    let mut at = t(10);
    let mut i = 0u64;
    while at < t(120) {
        let sub = &home0[(i % home0.len() as u64) as usize];
        let out = s.udr.modify_services(
            &Identity::Imsi(sub.ids.imsi),
            vec![AttrMod::Set(AttrId::AuthSqn, AttrValue::U64(i))],
            SiteId(0),
            at,
        );
        if out.is_ok() {
            ok += 1;
        } else {
            refused += 1;
        }
        i += 1;
        at += SimDuration::from_millis(50);
    }
    s.udr.advance_to(t(300));
    Row {
        mode: mode.to_string(),
        mean: s.udr.metrics.ps_latency.mean(),
        p99: s.udr.metrics.ps_latency.p99(),
        ok,
        refused,
        lost: s.udr.metrics.lost_commits,
        partial: s.udr.metrics.partial_commits,
    }
}

fn main() {
    println!(
        "E11 — the durability dial (§5): async vs dual-in-sequence vs quorum\n\
         20 writes/s to site-0 masters; site 0 isolated t=55..65; master\n\
         crashes t=60..80; WAN median 15 ms\n"
    );
    let mut table = Table::new([
        "replication",
        "mean commit",
        "p99 commit",
        "writes ok",
        "writes refused",
        "commits lost",
        "partial (1-replica)",
    ])
    .with_title("latency paid vs transactions lost");
    let mut report = BenchReport::new("e11", SEED);
    report
        .config("subscribers", SUBSCRIBERS)
        .config("writes_per_sec", 20u64)
        .config("isolated_at_s", 55u64)
        .config("isolation_s", 10u64)
        .config("crash_at_s", 60u64)
        .config("outage_s", 20u64);
    for mode in [
        ReplicationMode::AsyncMasterSlave,
        ReplicationMode::DualInSequence,
        ReplicationMode::Quorum { n: 3, w: 2, r: 2 },
        ReplicationMode::Quorum { n: 3, w: 3, r: 1 },
    ] {
        let row = run(mode);
        report.row(vec![
            ("replication", row.mode.as_str().into()),
            ("mean_commit_us", row.mean.as_micros_f64().into()),
            ("p99_commit_us", row.p99.as_micros_f64().into()),
            ("writes_ok", row.ok.into()),
            ("writes_refused", row.refused.into()),
            ("commits_lost", row.lost.into()),
            ("partial_commits", row.partial.into()),
        ]);
        table.row([
            row.mode,
            row.mean.to_string(),
            row.p99.to_string(),
            row.ok.to_string(),
            row.refused.to_string(),
            row.lost.to_string(),
            row.partial.to_string(),
        ]);
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): async commits in microseconds and silently loses the isolated\n\
         window's writes; dual-in-sequence adds one sequential WAN ack (~2x one-way) and\n\
         converts would-be-lost commits into refusals with at most one replica updated\n\
         (§5's acceptable failure); w=2 quorums behave similarly at parallel-ack cost; w=3\n\
         waits for the slowest replica — 'so high that some unwary service providers might\n\
         think it twice'. Durability is bought with latency and availability, never free."
    );
}
