//! E17 — the latency price of agreement (PACELC "else" case, §5/§6).
//!
//! §5: "the latency penalty for achieving close to 100% guaranteed
//! durability is so high that some unwary service providers might think it
//! twice before going down that way", and §6 asks "how to increase
//! consistency for transactions coming from application front-ends without
//! heavily impacting the latency those front-ends perceive."
//!
//! This experiment prices every coordination scheme the repository
//! implements against the same backbone, sweeping the WAN one-way median:
//! asynchronous shipping (commit waits for nothing), §5's dual-in-sequence
//! (one sequential round trip), Cassandra-style quorums (w-th fastest of
//! parallel round trips) and measured multi-Paxos (one majority round trip
//! at the leader; forward + learn legs when the client's PoA is not the
//! leader's site).
//!
//! Emits `BENCH_e17.json` (one row per WAN median, mean and p95 per
//! scheme); standard output is the table.

use udr_bench::consensus_harness::{fate_latencies, settled_cluster, submit_paced, LatencyKind};
use udr_bench::harness::t;
use udr_bench::json::{BenchReport, JsonValue};
use udr_consensus::NodeId;
use udr_metrics::Histogram;
use udr_metrics::Table;
use udr_model::ids::SeId;
use udr_model::time::SimDuration;
use udr_replication::quorum_write;
use udr_sim::net::{LatencyModel, LinkProfile, Network, Topology};
use udr_sim::SimRng;

const TRIALS: usize = 4_000;

fn topo(wan_ms: u64) -> Topology {
    let lan = LinkProfile::lossless(LatencyModel::lan());
    let wan = LinkProfile {
        latency: LatencyModel::wan(SimDuration::from_millis(wan_ms)),
        loss: 1e-4,
    };
    Topology::full_mesh(3, lan, wan)
}

/// Sampled analytic schemes: per-trial RTTs from the same link models the
/// runtime uses.
fn analytic(wan_ms: u64) -> (Histogram, Histogram, Histogram, Histogram) {
    let mut net = Network::new(topo(wan_ms));
    let mut rng = SimRng::seed_from_u64(wan_ms ^ 0xE17);
    let site = |i: u32| udr_model::ids::SiteId(i);
    let mut h_async = Histogram::new();
    let mut h_dual = Histogram::new();
    let mut h_q2 = Histogram::new();
    let mut h_q3 = Histogram::new();
    for _ in 0..TRIALS {
        // Local commit work is the LAN round trip to the SE.
        let local = net
            .round_trip(site(0), site(0), &mut rng)
            .unwrap_or(SimDuration::ZERO);
        h_async.record(local);

        let r1 = net.round_trip(site(0), site(1), &mut rng);
        let r2 = net.round_trip(site(0), site(2), &mut rng);
        // Dual-in-sequence: local apply, then one sequential round trip to
        // the geographically closest second replica.
        let second = match (r1, r2) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        h_dual.record(local + second.unwrap_or(SimDuration::ZERO));

        // Quorum n=3: master's own apply is ~local, peers in parallel.
        let responses = vec![(SeId(0), Some(local)), (SeId(1), r1), (SeId(2), r2)];
        let w2 = quorum_write(&responses, 2);
        if w2.committed {
            h_q2.record(w2.latency);
        }
        let w3 = quorum_write(&responses, 3);
        if w3.committed {
            h_q3.record(w3.latency);
        }
    }
    (h_async, h_dual, h_q2, h_q3)
}

/// Measured multi-Paxos: steady-state commits at the leader's PoA and at a
/// follower PoA (forward + learn legs included).
fn paxos(wan_ms: u64) -> (Histogram, Histogram) {
    let mut s = settled_cluster(topo(wan_ms), wan_ms ^ 3);
    let leader = s.leader;
    let follower = (0..3u32).find(|i| NodeId(*i) != leader).unwrap();

    let gap = SimDuration::from_millis(50);
    let at_leader = submit_paced(&mut s.cluster, t(10), 400, gap, leader.0, 0);
    let at_follower = submit_paced(
        &mut s.cluster,
        t(10) + SimDuration::from_millis(25),
        400,
        gap,
        follower,
        10_000,
    );
    // 400 submissions every 50 ms starting at t=10 s end at t=30 s.
    let report = s.cluster.run_until(t(30) + SimDuration::from_secs(30));
    assert!(report.violations.is_empty());
    (
        fate_latencies(&report, &at_leader, LatencyKind::Client),
        fate_latencies(&report, &at_follower, LatencyKind::Client),
    )
}

fn cell(h: &Histogram) -> String {
    if h.is_empty() {
        return "-".to_owned();
    }
    format!(
        "{:.1} / {:.1}",
        h.mean().as_millis_f64(),
        h.percentile(95.0).as_millis_f64()
    )
}

/// Mean and p95 of `h` in ms as report cells (`null` when nothing
/// committed, where the table prints `-`).
fn ms_cells(h: &Histogram) -> (JsonValue, JsonValue) {
    let some = !h.is_empty();
    (
        some.then(|| h.mean().as_millis_f64()).into(),
        some.then(|| h.percentile(95.0).as_millis_f64()).into(),
    )
}

fn main() {
    println!(
        "E17 — commit latency vs durability scheme (PACELC EL/EC, §5/§6)\n\
         3 sites full mesh; per-cell: mean / p95 in ms; client at site 0\n"
    );
    let mut table = Table::new([
        "wan median",
        "async (EL)",
        "dual-in-seq",
        "quorum w=2",
        "quorum w=3",
        "paxos@leader",
        "paxos@follower",
    ])
    .with_title("provisioning commit latency, mean / p95 ms");
    let mut report = BenchReport::new("e17", 0xE17);
    report
        .config("trials", TRIALS)
        .config("sites", 3u64)
        .config("paxos_submissions_per_poa", 400u64);
    for wan_ms in [5u64, 15, 40, 80] {
        let (a, d, q2, q3) = analytic(wan_ms);
        let (pl, pf) = paxos(wan_ms);
        table.row([
            format!("{wan_ms} ms"),
            cell(&a),
            cell(&d),
            cell(&q2),
            cell(&q3),
            cell(&pl),
            cell(&pf),
        ]);
        let mut row = vec![("wan_median_ms", wan_ms.into())];
        for (mean_key, p95_key, h) in [
            ("async_mean_ms", "async_p95_ms", &a),
            ("dual_in_seq_mean_ms", "dual_in_seq_p95_ms", &d),
            ("quorum_w2_mean_ms", "quorum_w2_p95_ms", &q2),
            ("quorum_w3_mean_ms", "quorum_w3_p95_ms", &q3),
            ("paxos_leader_mean_ms", "paxos_leader_p95_ms", &pl),
            ("paxos_follower_mean_ms", "paxos_follower_p95_ms", &pf),
        ] {
            let (mean, p95) = ms_cells(h);
            row.push((mean_key, mean));
            row.push((p95_key, p95));
        }
        report.row(row);
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): async commits at LAN speed regardless of the backbone — the\n\
         EL choice §3.3.1 makes. Every durable scheme pays ≥1 WAN round trip, scaling\n\
         linearly with backbone distance: dual-in-sequence ≈ 1 sequential RTT, quorum w=2\n\
         ≈ the faster peer's RTT, w=3 ≈ the slower peer's RTT, Paxos ≈ 1 majority RTT at\n\
         the leader and ≈ 2 RTTs through a follower PoA (forward + learn). At multi-\n\
         national distances (40–80 ms) the penalty is 2–3 orders of magnitude over the\n\
         10 ms response-time budget of §2.3 — exactly why §5 warns providers to 'think it\n\
         twice' and why the paper keeps consensus off the FE fast path."
    );
}
