//! E15 — the §3.2 ablation: what if the UDR had used 2PC across SEs?
//!
//! "ACID properties are guaranteed for transactions running on the same
//! storage element only… This prevents from having to run consensus
//! protocols like e.g. 2-Phase Commit (2PC) across geographically disperse
//! locations, which may be expensive." We measure how expensive: commit
//! latency vs participant spread, and the in-doubt blocking a partition
//! inflicts on prepared participants. Emits `BENCH_e15.json` (one row per
//! transaction shape); standard output is the table.

use udr_bench::json::BenchReport;
use udr_metrics::{pct, Table};
use udr_model::ids::{SeId, SiteId};
use udr_model::time::SimDuration;
use udr_replication::twophase::{two_phase_commit, TwoPcOutcome};
use udr_sim::net::{Cut, Network, Topology};
use udr_sim::SimRng;
use udr_storage::COST_MODEL;

const TIMEOUT: SimDuration = SimDuration::from_millis(500);
const ROUNDS: usize = 2000;

struct Cell {
    mean: SimDuration,
    p_committed: f64,
    p_in_doubt: f64,
}

/// Run `ROUNDS` distributed transactions over participants at the given
/// sites, coordinator at site 0, optionally with site `cut` islanded
/// mid-protocol (between prepare and commit — the dangerous window).
fn run(participant_sites: &[u32], cut_between_phases: Option<u32>, seed: u64) -> Cell {
    let mut net = Network::new(Topology::multinational(3));
    let mut rng = SimRng::seed_from_u64(seed);
    let participants: Vec<SeId> = (0..participant_sites.len())
        .map(|i| SeId(i as u32))
        .collect();

    let mut total = SimDuration::ZERO;
    let mut committed = 0usize;
    let mut in_doubt = 0usize;
    for round in 0..ROUNDS {
        // Phase-1 round trips.
        let prepare: Vec<Option<SimDuration>> = participant_sites
            .iter()
            .map(|s| net.round_trip(SiteId(0), SiteId(*s), &mut rng))
            .collect();
        // The cut (if any) lands between the phases on 10% of rounds.
        let handle = match cut_between_phases {
            Some(site) if round % 10 == 0 => {
                Some(net.start_partition(Cut::isolating([SiteId(site)])))
            }
            _ => None,
        };
        let commit: Vec<Option<SimDuration>> = participant_sites
            .iter()
            .map(|s| net.round_trip(SiteId(0), SiteId(*s), &mut rng))
            .collect();
        if let Some(h) = handle {
            net.heal_partition(h);
        }
        let votes = vec![true; participants.len()];
        let out = two_phase_commit(&participants, &prepare, &commit, &votes, TIMEOUT);
        match out {
            TwoPcOutcome::Committed { latency } => {
                committed += 1;
                // Plus the engine work at each participant (parallel).
                total += latency + COST_MODEL.commit_ram;
            }
            TwoPcOutcome::InDoubt { latency, .. } => {
                in_doubt += 1;
                total += latency;
            }
            TwoPcOutcome::Aborted { latency, .. } => {
                total += latency;
            }
        }
    }
    Cell {
        mean: total / ROUNDS as u64,
        p_committed: committed as f64 / ROUNDS as f64,
        p_in_doubt: in_doubt as f64 / ROUNDS as f64,
    }
}

/// Baseline: a plain single-SE transaction (no 2PC): one exchange + engine.
fn run_single(site: u32, seed: u64) -> Cell {
    let mut net = Network::new(Topology::multinational(3));
    let mut rng = SimRng::seed_from_u64(seed);
    let mut total = SimDuration::ZERO;
    let mut committed = 0usize;
    for _ in 0..ROUNDS {
        match net.round_trip(SiteId(0), SiteId(site), &mut rng) {
            Some(rtt) => {
                committed += 1;
                total += rtt + COST_MODEL.commit_ram;
            }
            None => total += TIMEOUT,
        }
    }
    Cell {
        mean: total / ROUNDS as u64,
        p_committed: committed as f64 / ROUNDS as f64,
        p_in_doubt: 0.0,
    }
}

fn main() {
    println!(
        "E15 — ablation: cross-SE 2PC, the protocol §3.2 avoids\n\
         coordinator at site 0; WAN median 15 ms one-way; engine commit 5 µs;\n\
         'partition mid-protocol' = 10% of rounds lose a participant between\n\
         prepare and commit\n"
    );
    // Baseline for comparison: a single-SE transaction costs one network
    // exchange to the SE plus the engine commit — no coordination at all.
    let single_local = run_single(0, 1);
    let single_remote = run_single(1, 2);

    let mut table = Table::new([
        "transaction shape",
        "mean commit latency",
        "committed",
        "in-doubt (locks held)",
    ])
    .with_title("single-element transactions vs cross-element 2PC");
    let mut report = BenchReport::new("e15", 1);
    report
        .config("rounds", ROUNDS)
        .config("timeout_ms", TIMEOUT.as_millis_f64())
        .config("coordinator_site", 0u64);
    let mut row = |label: &str, seed: u64, cell: &Cell| {
        table.row([
            label.into(),
            cell.mean.to_string(),
            pct(cell.p_committed, 1),
            pct(cell.p_in_doubt, 2),
        ]);
        report.row(vec![
            ("transaction_shape", label.into()),
            ("seed", seed.into()),
            ("mean_commit_latency_us", cell.mean.as_micros_f64().into()),
            ("committed", cell.p_committed.into()),
            ("in_doubt", cell.p_in_doubt.into()),
        ]);
    };
    row(
        "single SE, same site (the paper's design)",
        1,
        &single_local,
    );
    row("single SE, remote site", 2, &single_remote);
    for (label, sites) in [
        ("2PC across 2 SEs, same site", vec![0u32, 0]),
        ("2PC across 2 SEs, two sites", vec![0, 1]),
        ("2PC across 3 SEs, three sites", vec![0, 1, 2]),
    ] {
        let seed = 3 + sites.len() as u64;
        row(label, seed, &run(&sites, None, seed));
    }
    row(
        "2PC across 3 sites, partitions mid-protocol",
        7,
        &run(&[0, 1, 2], Some(2), 7),
    );
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): geographically disperse 2PC pays two sequential WAN rounds\n\
         (~4x one-way delay ≈ 60 ms vs ~30 ms for one remote exchange and ~0.6 ms local),\n\
         and a partition between the phases strands prepared participants in-doubt with\n\
         row locks held until the coordinator returns — on a backbone measured in minutes\n\
         of outage, that is minutes of blocked subscriber rows. Exactly the expense and\n\
         hazard §3.2's single-element ACID sidesteps; the price paid instead is\n\
         READ_UNCOMMITTED across elements and PS-side cleanup logic."
    );
}
