//! E20 — the middle of the consistency spectrum: session guarantees and
//! bounded-staleness read routing (§3.3.2, §3.6, §6).
//!
//! The paper's first realization exposes only the spectrum's extremes —
//! nearest-copy reads (PA/EL, stale data tolerated) and master-only reads
//! (PC/EC, every remote read pays the backbone). §6 asks "how to increase
//! consistency for transactions coming from application front-ends
//! without heavily impacting the latency those front-ends perceive"; the
//! classic answer is Terry-style session guarantees and bounded
//! staleness. This experiment sweeps all four read policies under async
//! replication and backbone latency: each sessioned subscriber writes at
//! its home site and re-reads from a remote front-end inside the write
//! gap, the regime where nearest-copy reads go stale.
//!
//! Shape asserted (and emitted as `BENCH_e20.json`):
//! * `session-consistent`: zero broken guarantees *and* zero stale reads
//!   on the own-write workload;
//! * `bounded-staleness(max_lag=K)`: observed replica lag never exceeds K;
//! * both intermediate policies read faster than `master-only` once
//!   replication has a write gap to catch up in — the latency-vs-staleness
//!   frontier the spectrum promises.

use udr_bench::harness::{provisioned_system, t};
use udr_bench::json::BenchReport;
use udr_core::{OpRequest, UdrConfig};
use udr_metrics::{pct, Histogram, Table};
use udr_model::config::ReadPolicy;
use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::session::SessionToken;
use udr_model::time::SimDuration;
use udr_sim::net::{LatencyModel, LinkProfile};

const SEED: u64 = 20;
/// Write→read rounds per cell.
const ROUNDS: u64 = 240;
/// Provisioned subscribers (spread over 3 home regions).
const SUBSCRIBERS: u64 = 24;
/// The bounded-staleness budget swept (LSNs of replica lag).
const MAX_LAG: u64 = 2;

/// The four points of the spectrum, weakest to strongest.
fn policies() -> [ReadPolicy; 4] {
    [
        ReadPolicy::NearestCopy,
        ReadPolicy::BoundedStaleness { max_lag: MAX_LAG },
        ReadPolicy::SessionConsistent,
        ReadPolicy::MasterOnly,
    ]
}

/// One measured cell of the sweep.
struct Cell {
    policy: ReadPolicy,
    wan_ms: u64,
    gap_ms: u64,
    reads: Histogram,
    stale_reads: u64,
    stale_fraction: f64,
    redirects: u64,
    violations: u64,
    max_bounded_lag: u64,
}

/// Run one cell: each round, a sessioned home-region-0 subscriber runs a
/// LocationUpdate (read + write) at its home site, then re-reads its own
/// record (CallSetupMo) from the site-1 front-end at 1/4..3/4 of the
/// write gap — remote reads racing replication.
fn run(policy: ReadPolicy, wan_ms: u64, gap: SimDuration) -> Cell {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.fe_read_policy = policy;
    cfg.seed = SEED + wan_ms + gap.as_nanos() % 7;
    let mut s = provisioned_system(cfg, SUBSCRIBERS, 11);
    // Re-profile every inter-site link with the requested median (no
    // loss, so every cell measures routing policy, not retries).
    let wan = LinkProfile {
        latency: LatencyModel::wan(SimDuration::from_millis(wan_ms)),
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

    // Home-region-0 subscribers: master at site 0, remote reads from
    // site 1.
    let home0: Vec<usize> = s
        .population
        .iter()
        .enumerate()
        .filter(|(_, sub)| sub.home_region == 0)
        .map(|(i, _)| i)
        .collect();
    let mut tokens: Vec<SessionToken> = vec![SessionToken::new(); home0.len()];

    let mut reads = Histogram::new();
    let mut at = t(10);
    for i in 0..ROUNDS {
        let slot = (i % home0.len() as u64) as usize;
        let sub = &s.population[home0[slot]];
        let w = s
            .udr
            .execute(
                OpRequest::procedure(ProcedureKind::LocationUpdate, &sub.ids)
                    .site(SiteId(0))
                    .at(at)
                    .session(&mut tokens[slot]),
            )
            .into_procedure();
        assert!(w.success, "home-site write failed: {:?}", w.failure);
        // Deterministic offsets inside the gap (1/4, 2/4, 3/4 across
        // rounds), same pattern as E5.
        let offset = gap.mul_f64(0.25 * ((i % 3 + 1) as f64));
        let r = s
            .udr
            .execute(
                OpRequest::procedure(ProcedureKind::CallSetupMo, &sub.ids)
                    .site(SiteId(1))
                    .at(at + offset)
                    .session(&mut tokens[slot]),
            )
            .into_procedure();
        assert!(r.success, "remote read failed: {:?}", r.failure);
        reads.record(r.latency);
        at += gap;
    }

    let m = &s.udr.metrics;
    Cell {
        policy,
        wan_ms,
        gap_ms: gap.as_nanos() / 1_000_000,
        reads,
        stale_reads: m.staleness.stale_reads,
        stale_fraction: m.staleness.stale_fraction(),
        redirects: m.guarantees.master_redirects,
        violations: m.guarantees.violations(),
        max_bounded_lag: m.guarantees.max_bounded_lag(),
    }
}

fn main() {
    println!(
        "E20 — session guarantees and bounded staleness across the consistency spectrum\n\
         sessioned subscribers write at the home site and re-read their own record from\n\
         a remote PoA at 1/4..3/4 of the write gap; async master/slave replication\n"
    );
    let mut table = Table::new([
        "policy",
        "WAN median",
        "write gap",
        "read p50",
        "read p99",
        "stale reads",
        "redirects",
        "violations",
    ])
    .with_title("latency vs staleness: the four points of the spectrum");
    let mut report = BenchReport::new("e20", SEED);
    report
        .config("subscribers", SUBSCRIBERS)
        .config("rounds", ROUNDS)
        .config("max_lag", MAX_LAG)
        .config("replication", "async-master-slave");

    let mut cells: Vec<Cell> = Vec::new();
    for wan_ms in [15u64, 60] {
        for gap_ms in [400u64, 40] {
            for policy in policies() {
                let cell = run(policy, wan_ms, SimDuration::from_millis(gap_ms));
                table.row([
                    cell.policy.to_string(),
                    format!("{wan_ms} ms"),
                    format!("{gap_ms} ms"),
                    format!("{:.2} ms", cell.reads.p50().as_millis_f64()),
                    format!("{:.2} ms", cell.reads.p99().as_millis_f64()),
                    pct(cell.stale_fraction, 1),
                    cell.redirects.to_string(),
                    cell.violations.to_string(),
                ]);
                report.row(vec![
                    ("policy", cell.policy.to_string().into()),
                    ("wan_ms", wan_ms.into()),
                    ("gap_ms", gap_ms.into()),
                    ("reads", cell.reads.count().into()),
                    ("read_mean_ms", cell.reads.mean().as_millis_f64().into()),
                    ("read_p50_ms", cell.reads.p50().as_millis_f64().into()),
                    ("read_p99_ms", cell.reads.p99().as_millis_f64().into()),
                    ("stale_reads", cell.stale_reads.into()),
                    ("stale_fraction", cell.stale_fraction.into()),
                    ("master_redirects", cell.redirects.into()),
                    ("violations", cell.violations.into()),
                    ("max_bounded_lag", cell.max_bounded_lag.into()),
                ]);
                cells.push(cell);
            }
        }
    }
    println!("{table}");

    // ---- the guarantees the spectrum promises, asserted -----------------
    for cell in &cells {
        match cell.policy {
            ReadPolicy::SessionConsistent => {
                assert_eq!(
                    cell.violations, 0,
                    "session guarantees broken at wan={} gap={}",
                    cell.wan_ms, cell.gap_ms
                );
                assert_eq!(
                    cell.stale_reads, 0,
                    "session read missed its own write at wan={} gap={}",
                    cell.wan_ms, cell.gap_ms
                );
            }
            ReadPolicy::BoundedStaleness { max_lag } => {
                assert_eq!(
                    cell.violations, 0,
                    "staleness bound broken at wan={} gap={}",
                    cell.wan_ms, cell.gap_ms
                );
                assert!(
                    cell.max_bounded_lag <= max_lag,
                    "observed lag {} exceeds bound {max_lag}",
                    cell.max_bounded_lag
                );
            }
            ReadPolicy::NearestCopy | ReadPolicy::MasterOnly => {
                assert_eq!(cell.violations, 0); // nothing guarded, nothing broken
            }
        }
    }
    // With a relaxed write gap, both intermediate policies serve remote
    // reads from the caught-up local slave and beat master-only reads.
    for wan_ms in [15u64, 60] {
        let mean = |policy: ReadPolicy| {
            cells
                .iter()
                .find(|c| c.policy == policy && c.wan_ms == wan_ms && c.gap_ms == 400)
                .map(|c| c.reads.mean().as_millis_f64())
                .expect("cell measured")
        };
        let master_only = mean(ReadPolicy::MasterOnly);
        let bounded = mean(ReadPolicy::BoundedStaleness { max_lag: MAX_LAG });
        let session = mean(ReadPolicy::SessionConsistent);
        assert!(
            bounded < master_only && session < master_only,
            "intermediate policies must read faster than master-only over a {wan_ms} ms \
             backbone: bounded {bounded:.2} ms, session {session:.2} ms, \
             master-only {master_only:.2} ms"
        );
    }

    println!("wrote {}", report.write().display());
    println!(
        "\nShape check (paper §3.6/§6): nearest-copy is fastest but serves stale data when\n\
         reads race replication; master-only is always fresh but every remote read pays\n\
         the backbone RTT. Bounded staleness caps the lag at {MAX_LAG} LSNs and session\n\
         guarantees (read-your-writes + monotonic reads) eliminate own-write misses —\n\
         both keep reading at near-local latency once replication catches up inside the\n\
         write gap, and degrade to master redirects (never to broken guarantees) when it\n\
         cannot. The middle of the consistency spectrum is real and measurable."
    );
}
