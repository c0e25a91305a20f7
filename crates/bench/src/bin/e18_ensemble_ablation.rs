//! E18 — ablation: how many geographically-disperse replicas? (§3.1, §6)
//!
//! §3.1 decision 2 requires "two or more geographically-disperse
//! locations" but the paper leaves the count open (Figure 2 shows RF 3).
//! Under master/slave the count only buys durability; under §6's
//! agreement protocols it *is* the fault-tolerance and latency knob: a
//! 2f+1 ensemble survives f site losses, and every extra member widens
//! the majority a commit must reach across the backbone. This ablation
//! sweeps the ensemble size and measures what each additional site buys
//! and costs on identical geography. Emits `BENCH_e18.json` (one row per
//! ensemble size); standard output is the table.

use udr_bench::consensus_harness::{
    committed_fraction, fate_latencies, settled_cluster, submit_paced, LatencyKind,
};
use udr_bench::harness::t;
use udr_bench::json::BenchReport;
use udr_metrics::{pct, Histogram, Table};
use udr_model::ids::SeId;
use udr_model::time::SimDuration;
use udr_sim::net::Topology;
use udr_sim::FaultScript;

struct Row {
    /// Steady-state commit latency at the leader PoA.
    latency: Histogram,
    /// Protocol messages per committed command.
    msgs_per_commit: f64,
    /// Availability with f = ⌊(n-1)/2⌋ sites crashed (should be 100 %).
    avail_at_f: f64,
    /// Availability with f+1 sites crashed (should be 0 %).
    avail_past_f: f64,
}

fn run(n: usize) -> Row {
    // Phase 1: steady-state latency + message cost.
    let mut s = settled_cluster(Topology::multinational(n), n as u64);
    let ids = submit_paced(
        &mut s.cluster,
        t(10),
        300,
        SimDuration::from_millis(50),
        s.leader.0,
        0,
    );
    let before = s.cluster.report().messages.total;
    // 300 submissions every 50 ms starting at t=10 s end at t=25 s.
    let report = s.cluster.run_until(t(25) + SimDuration::from_secs(20));
    assert!(report.violations.is_empty());
    let latency = fate_latencies(&report, &ids, LatencyKind::Commit);
    let msgs_per_commit = (report.messages.total - before) as f64 / ids.len().max(1) as f64;

    // Phase 2: crash exactly f sites → still available; one more → frozen.
    let f = (n - 1) / 2;
    let avail = |crashes: usize, seed: u64| -> f64 {
        let mut s = settled_cluster(Topology::multinational(n), seed);
        // Crash sites other than the leader first; the leader dies last if
        // needed, which also exercises failover.
        let mut victims: Vec<u32> = (0..n as u32)
            .filter(|i| *i != s.leader.0)
            .take(crashes)
            .collect();
        if victims.len() < crashes {
            victims.push(s.leader.0);
        }
        let crashes = victims
            .iter()
            .enumerate()
            .fold(FaultScript::new(0), |script, (k, v)| {
                script.se_crash(t(6) + SimDuration::from_millis(100 * k as u64), SeId(*v))
            });
        s.cluster.schedule_script(&crashes);
        let origin = (0..n as u32)
            .find(|i| !victims.contains(i))
            .expect("a survivor");
        let ids = submit_paced(
            &mut s.cluster,
            t(10),
            40,
            SimDuration::from_millis(250),
            origin,
            0,
        );
        let report = s.cluster.run_until(t(60));
        assert!(report.violations.is_empty());
        committed_fraction(&report, &ids, None)
    };

    Row {
        latency,
        msgs_per_commit,
        avail_at_f: avail(f, 100 + n as u64),
        avail_past_f: avail(f + 1, 200 + n as u64),
    }
}

fn main() {
    println!(
        "E18 — replica-count ablation for agreement-based provisioning (§3.1, §6)\n\
         full-mesh multinational backbone (15 ms WAN median), leader-local client;\n\
         f = max crashed sites the ensemble must survive\n"
    );
    let mut table = Table::new([
        "ensemble",
        "tolerates f",
        "commit mean/p95 ms",
        "msgs/commit",
        "avail @ f down",
        "avail @ f+1 down",
    ])
    .with_title("what each extra geographically-disperse site buys and costs");
    let mut report = BenchReport::new("e18", 3);
    report
        .config("steady_submissions", 300u64)
        .config("crash_probe_submissions", 40u64);
    for n in [3usize, 5, 7] {
        let row = run(n);
        table.row([
            format!("{n} sites"),
            ((n - 1) / 2).to_string(),
            format!(
                "{:.1} / {:.1}",
                row.latency.mean().as_millis_f64(),
                row.latency.percentile(95.0).as_millis_f64()
            ),
            format!("{:.1}", row.msgs_per_commit),
            pct(row.avail_at_f, 1),
            pct(row.avail_past_f, 1),
        ]);
        report.row(vec![
            ("ensemble", n.into()),
            ("tolerates_f", ((n - 1) / 2).into()),
            ("commit_mean_ms", row.latency.mean().as_millis_f64().into()),
            (
                "commit_p95_ms",
                row.latency.percentile(95.0).as_millis_f64().into(),
            ),
            ("msgs_per_commit", row.msgs_per_commit.into()),
            ("avail_at_f", row.avail_at_f.into()),
            ("avail_past_f", row.avail_past_f.into()),
        ]);
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check: fault tolerance steps only at odd sizes (2f+1), so each step from\n\
         3→5→7 buys one more survivable site loss. Commit latency barely moves — the\n\
         majority round trip is bounded by the median backbone RTT, not the ensemble\n\
         size — but message cost grows linearly (≈3n per commit: accept, accepted,\n\
         learn; plus (n−1) lease acks per heartbeat), which is backbone bandwidth\n\
         the §2.2 cost argument has to absorb.\n\
         Availability is a step function: 100% with f sites down, 0% with f+1 — the\n\
         sharp CAP boundary that makes capacity planning for 99.999% (§2.3) tractable."
    );
}
