//! E16 — §6 future work: distributed agreement (Paxos) vs the paper's
//! master/slave and §5's multi-master, through the same partition.
//!
//! "One promising alternative to the master-slave replication approach
//! described above lies on efficient distributed agreement protocols like
//! e.g. Paxos \[15\] or similar solutions \[16\]." The §5 evolution bought
//! provisioning availability with multi-master at the price of divergence
//! and a restoration merge; consensus buys *majority-side* availability at
//! zero divergence. This experiment drives the same dual-PS write pattern
//! as E10 through all three schemes and an identical site-2 island.
//!
//! Availability is scored the way the paper scores it (§4.1): a
//! provisioning transaction counts only if it completes during the window
//! — a write stuck until heal is a failed activation and a manual-repair
//! cost. "Eventual" additionally reports what consensus salvages after
//! heal without any human intervention (queued commands commit on their
//! own; pre-UDC networks needed someone to "check what parts of the batch
//! failed and apply those parts manually").
//!
//! Emits `BENCH_e16.json` (one row per partition length × scheme);
//! standard output is the table.

use udr_bench::consensus_harness::{committed_fraction, settled_cluster, submit_paced};
use udr_bench::harness::{islanded_dual_ps, t};
use udr_bench::json::BenchReport;
use udr_metrics::{pct, Table};
use udr_model::config::ReplicationMode;
use udr_model::ids::SiteId;
use udr_model::time::SimDuration;
use udr_sim::net::Topology;
use udr_sim::FaultScript;

struct Row {
    island_avail: f64,
    majority_avail: f64,
    eventual: f64,
    conflicts: u64,
}

/// Master/slave or multi-master through the real UDR (per-side counting,
/// the drive E10 uses).
fn run_udr(mode: ReplicationMode, partition_s: u64, gap_ms: u64) -> Row {
    let run = islanded_dual_ps(mode, partition_s, gap_ms);
    let (isl, maj) = (run.island, run.majority);
    Row {
        island_avail: isl.ok as f64 / isl.attempts.max(1) as f64,
        majority_avail: maj.ok as f64 / maj.attempts.max(1) as f64,
        // Failed master/slave and multi-master writes are lost client
        // calls; nothing retries them, so eventual = during-window.
        eventual: (isl.ok + maj.ok) as f64 / (isl.attempts + maj.attempts).max(1) as f64,
        conflicts: run.scenario.udr.metrics.merge_conflicts,
    }
}

/// Paxos over the same 3-site backbone and island.
fn run_paxos(partition_s: u64, gap_ms: u64) -> Row {
    // Leadership settles during warm-up, long before the outage.
    let mut s = settled_cluster(Topology::multinational(3), 77);
    let start = t(100);
    let window = SimDuration::from_secs(partition_s);
    let end = start.saturating_add(window);
    s.cluster
        .schedule_script(&FaultScript::new(0).clean_partition(start, window, [SiteId(2)]));

    // Same interleaved dual-PS cadence `run_udr` drives: site 0 writes on
    // the cadence, site 2 half a gap later.
    let gap = SimDuration::from_millis(gap_ms);
    let count = (partition_s * 1000).saturating_sub(37).div_ceil(gap_ms);
    let majority_ids = submit_paced(
        &mut s.cluster,
        start + SimDuration::from_millis(37),
        count,
        gap,
        0,
        0,
    );
    let island_ids = submit_paced(
        &mut s.cluster,
        start + SimDuration::from_millis(37 + gap_ms / 2),
        count,
        gap,
        2,
        1_000_000,
    );
    // Long tail: heal, catch up, drain forwarded commands.
    let report = s.cluster.run_until(end + SimDuration::from_secs(120));
    assert!(
        report.violations.is_empty(),
        "consensus safety broke: {:?}",
        report.violations
    );

    let all: Vec<_> = island_ids.iter().chain(&majority_ids).copied().collect();
    Row {
        island_avail: committed_fraction(&report, &island_ids, Some(end)),
        majority_avail: committed_fraction(&report, &majority_ids, Some(end)),
        eventual: committed_fraction(&report, &all, None),
        conflicts: 0, // single decided log: divergence is impossible
    }
}

fn main() {
    println!(
        "E16 — distributed agreement vs master/slave vs multi-master (§5, §6)\n\
         3 sites, site 2 islanded; two PS instances (sites 0 and 2) write\n\
         throughout the window; identical cadence for all three schemes\n"
    );
    let mut table = Table::new([
        "mode",
        "partition",
        "island PS avail",
        "majority PS avail",
        "eventual",
        "conflicts",
    ])
    .with_title("provisioning availability during the window, by replication scheme");
    let mut report = BenchReport::new("e16", 77);
    report
        .config("subscribers", 90u64)
        .config("island_site", 2u64)
        .config("tail_s", 120u64);
    for (partition_s, gap_ms) in [(30u64, 500u64), (120, 500), (600, 500)] {
        for mode in ["master/slave", "multi-master", "paxos"] {
            let row = match mode {
                "master/slave" => run_udr(ReplicationMode::AsyncMasterSlave, partition_s, gap_ms),
                "multi-master" => run_udr(ReplicationMode::MultiMaster, partition_s, gap_ms),
                _ => run_paxos(partition_s, gap_ms),
            };
            table.row([
                mode.to_owned(),
                format!("{partition_s} s"),
                pct(row.island_avail, 1),
                pct(row.majority_avail, 1),
                pct(row.eventual, 1),
                row.conflicts.to_string(),
            ]);
            report.row(vec![
                ("mode", mode.into()),
                ("partition_s", partition_s.into()),
                ("gap_ms", gap_ms.into()),
                ("island_avail", row.island_avail.into()),
                ("majority_avail", row.majority_avail.into()),
                ("eventual", row.eventual.into()),
                ("conflicts", row.conflicts.into()),
            ]);
        }
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (§5/§6): master/slave is PC — each side only commits writes whose\n\
         master it holds (~1/3 vs ~2/3), no conflicts. Multi-master is PA — both sides\n\
         near 100%, but conflicts grow with the window and a restoration merge follows.\n\
         Paxos sits where §6 points: the majority side stays ~100% available with zero\n\
         conflicts; the island commits nothing during the window (its writes queue and\n\
         commit on their own after heal — 100% eventual, no manual repair), which is the\n\
         CAP-optimal trade for provisioning: no lost activations on the majority side and\n\
         no §5 restoration process ever."
    );
}
