//! E25 — consensus replication under the partition-fault campaign: the
//! CP corner of the CAP matrix, proven rather than claimed.
//!
//! Every cell drives the e22 traffic shape (seeded roaming reads + a
//! unique-value write oracle) through one fault scenario against a
//! figure-2 deployment running `consensus(n=3)` replication — each
//! partition a Multi-Paxos ensemble, reads served from the leader's
//! committed prefix behind a read-index round, writes committed through
//! the replicated log.
//!
//! Shape asserted (and emitted as `BENCH_e25.json`):
//! * **CP outright, every cell**: zero stale reads, zero lost or
//!   duplicated acknowledged writes, zero guarantee violations, zero
//!   Paxos safety violations — across all five fault scenarios;
//! * **typed refusals on the minority side**: a severed cut costs reads
//!   *and* writes availability (no majority ⇒ no serving leader), and
//!   every refusal is a typed partition error, never a generic timeout;
//! * **leader failover works**: crash and partition scenarios elect new
//!   leaders mid-run and the ensemble re-converges within a couple of
//!   election timeouts of heal;
//! * **linearizability, checked**: every cell's full per-subscriber
//!   interval history — including timed-out "zombie" writes that may
//!   commit late — passes a Wing & Gong single-register check;
//! * **the grid is deterministic**: replaying a cell yields a
//!   field-identical verdict and byte-identical report rows.

use udr_bench::campaign::{row_bytes, run_cell, verdict_cells, CampaignConfig, CellOutcome};
use udr_bench::json::{stage_latency_value, BenchReport, JsonValue};
use udr_bench::traceio::emit_trace;
use udr_metrics::{pct, Table};
use udr_model::config::{ReadPolicy, ReplicationMode};
use udr_model::time::SimDuration;
use udr_trace::{TraceConfig, SLOW_OP_THRESHOLD};
use udr_workload::PartitionScenario;

const SEED: u64 = 25;
/// Cells replayed for the byte-identical determinism regression.
const DETERMINISM_CELLS: usize = 3;
/// Re-convergence budget after heal: a couple of election timeouts
/// (750 ms each) plus catch-up slack.
const HEAL_BUDGET: SimDuration = SimDuration::from_millis(3000);

const MODE: ReplicationMode = ReplicationMode::Consensus { n: 3 };

fn policies() -> [ReadPolicy; 2] {
    // Under consensus every read is served by the leader regardless of
    // the policy label; both labels must therefore measure identically
    // CP. MasterOnly is the honest label, NearestCopy the adversarial
    // one.
    [ReadPolicy::MasterOnly, ReadPolicy::NearestCopy]
}

fn cell_config(policy: ReadPolicy, scenario: PartitionScenario) -> CampaignConfig {
    let mut cc = CampaignConfig::new(MODE, policy, scenario);
    cc.seed = SEED;
    cc
}

fn row_cells(out: &CellOutcome) -> Vec<(&'static str, JsonValue)> {
    let v = &out.verdict;
    let mut cells = verdict_cells(v);
    cells.extend([
        ("heal_ms", v.heal_time.as_millis_f64().into()),
        ("observed_stance", v.observed_stance().into()),
        ("elections", out.elections.into()),
        ("leader_changes", out.leader_changes.into()),
        ("consensus_commits", out.commits.into()),
        ("safety_violations", (out.violations.len() as u64).into()),
        ("history_ops", (out.history.len() as u64).into()),
        (
            "linearizable",
            u64::from(out.history.check().is_ok()).into(),
        ),
    ]);
    cells
}

/// `--trace` mode: replay one cell with full tracing and export the
/// flight recorder instead of running the grid. One traced consensus
/// write must read as one causal span tree — op span, the four pipeline
/// stage spans, the propose→chosen→commit round and the apply instants —
/// in the emitted Perfetto file.
fn trace_main() {
    let mut cc = cell_config(ReadPolicy::MasterOnly, PartitionScenario::CleanPartition);
    cc.trace = TraceConfig::full();
    println!(
        "E25 --trace — one [consensus × master-only × clean-partition] cell under\n\
         TraceConfig::full(): every operation's causal span tree goes to the flight\n\
         recorder, slow ops (≥ {}) are kept as exemplars\n",
        SLOW_OP_THRESHOLD
    );
    let out = run_cell(&cc, &cc.script());
    assert!(out.verdict.sound(), "traced cell verdict unsound");
    assert!(
        out.violations.is_empty(),
        "traced cell violated Paxos safety: {:?}",
        out.violations
    );
    let export = out.trace.expect("tracing was enabled");

    // The tentpole acceptance shape: at least one write's trace carries
    // both its pipeline stage spans and its consensus round.
    let all_records = || {
        export
            .records
            .iter()
            .chain(export.exemplars.iter().flat_map(|e| e.records.iter()))
    };
    let names_of = |trace: u64| -> Vec<&str> {
        all_records()
            .filter(|r| r.trace == trace)
            .map(|r| r.name)
            .collect()
    };
    let committed_write = all_records()
        .filter(|r| r.name == "consensus.commit" && r.trace != 0)
        // Prefer an oracle write from the traffic phase; any committed
        // write (e.g. a provisioning op.add) still proves the tree.
        .max_by_key(|r| (names_of(r.trace).contains(&"op.modify"), r.trace))
        .expect("a traced consensus write committed");
    let names = names_of(committed_write.trace);
    assert!(
        names.iter().any(|n| n.starts_with("op.")),
        "trace {} lacks its operation span (has {names:?})",
        committed_write.trace
    );
    for needed in ["stage.access", "stage.replication", "consensus.chosen"] {
        assert!(
            names.contains(&needed),
            "trace {} lacks {needed} (has {names:?})",
            committed_write.trace
        );
    }
    println!(
        "causal tree check: trace {} carries {} records including its consensus round",
        committed_write.trace,
        names.len()
    );

    emit_trace("e25", &export);
}

fn main() {
    if std::env::args().any(|a| a == "--trace") {
        trace_main();
        return;
    }
    println!(
        "E25 — consensus replication under the partition-fault campaign\n\
         each cell runs consensus(n=3) Multi-Paxos ensembles through a fault scenario\n\
         and must come out CP outright: zero stale reads, zero lost acked writes,\n\
         typed minority-side refusals, a linearizable history, and leader failover\n\
         that re-converges within the election-timeout budget\n"
    );

    let mut table = Table::new([
        "policy",
        "scenario",
        "read avail (fault)",
        "write avail (fault)",
        "stale",
        "lost",
        "elections",
        "handoffs",
        "heal",
        "linearizable",
    ])
    .with_title("the consensus CP column, cell by cell");
    let mut report = BenchReport::new("e25", SEED);
    let probe = cell_config(ReadPolicy::MasterOnly, PartitionScenario::CleanPartition);
    report
        .config("subscribers", probe.subscribers)
        .config("read_rate_per_sub", probe.read_rate)
        .config("write_period_ms", probe.write_period.as_millis_f64())
        .config("roaming", probe.roaming)
        .config("fault_window_s", probe.fault_duration.as_millis_f64() / 1e3)
        .config("heal_budget_ms", HEAL_BUDGET.as_millis_f64());

    let mut cells: Vec<CellOutcome> = Vec::new();
    for policy in policies() {
        for scenario in PartitionScenario::ALL {
            let cc = cell_config(policy, scenario);
            assert!(cc.is_valid(), "consensus cells must all be valid");
            let out = run_cell(&cc, &cc.script());
            let v = &out.verdict;
            table.row([
                v.policy.clone(),
                v.scenario.clone(),
                pct(v.read_availability_in_fault(), 1),
                pct(v.write_availability_in_fault(), 1),
                v.stale_reads.to_string(),
                v.lost_acked_writes.to_string(),
                out.elections.to_string(),
                out.leader_changes.to_string(),
                format!("{:.0} ms", v.heal_time.as_millis_f64()),
                if out.history.check().is_ok() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
            report.row(row_cells(&out));
            cells.push(out);
        }
    }
    report.config("cells_measured", cells.len() as u64);
    // Full per-stage latency histograms of the probe cell, embedded as
    // the nested `"metrics"` section (rows stay flat for diff tooling).
    let first = &cells[0];
    report.metrics(
        "stage_latency_cell",
        format!(
            "{} × {} × {}",
            first.verdict.mode, first.verdict.policy, first.verdict.scenario
        ),
    );
    report.metrics("stage_latency", stage_latency_value(&first.stage_latency));
    println!("{table}");

    // ---- CP, asserted outright in every cell ---------------------------
    for out in &cells {
        let v = &out.verdict;
        let cell = format!("[consensus × {} × {}]", v.policy, v.scenario);
        assert_eq!(v.expected_pacelc, "PC/EC", "{cell}: wrong PACELC class");
        assert_eq!(
            v.stale_reads, 0,
            "{cell}: a committed-prefix read was stale"
        );
        assert_eq!(
            v.lost_acked_writes, 0,
            "{cell}: an acknowledged write is missing from the chosen log"
        );
        assert_eq!(
            v.duplicated_records, 0,
            "{cell}: a write was chosen twice or a copy leaked"
        );
        assert_eq!(
            v.guarantee_violations, 0,
            "{cell}: a guarded read lied instead of failing"
        );
        assert_eq!(
            v.unexpected_failures, 0,
            "{cell}: a fault produced a data-level error (bug, not unavailability)"
        );
        assert!(v.sound(), "{cell}: verdict unsound");
        assert!(
            out.violations.is_empty(),
            "{cell}: Paxos safety violated: {:?}",
            out.violations
        );
        assert!(
            out.commits >= v.writes_ok_in_fault + v.writes_ok_outside,
            "{cell}: an acknowledged write was never committed through the log"
        );
        assert!(out.elections > 0, "{cell}: no election ever ran");
        if let Err(e) = out.history.check() {
            panic!("{cell}: history is not linearizable: {e}");
        }
        assert!(
            v.availability_outside() >= 0.99,
            "{cell}: consensus must serve while no fault is active, got {}",
            pct(v.availability_outside(), 2)
        );
        assert!(
            v.heal_time <= HEAL_BUDGET,
            "{cell}: re-convergence took {} (budget {HEAL_BUDGET})",
            v.heal_time
        );
    }

    // ---- severed cuts: minority-side refusals, typed -------------------
    for out in &cells {
        let v = &out.verdict;
        if !PartitionScenario::ALL
            .iter()
            .any(|s| s.severs_connectivity() && s.to_string() == v.scenario)
        {
            continue;
        }
        let cell = format!("[consensus × {} × {}]", v.policy, v.scenario);
        assert!(
            v.reads_ok_in_fault < v.reads_in_fault,
            "{cell}: a severed cut must cost minority-side reads"
        );
        assert!(
            v.writes_ok_in_fault < v.writes_in_fault,
            "{cell}: a severed cut must cost minority-side writes"
        );
        assert_eq!(
            v.generic_timeouts, 0,
            "{cell}: severed-cut refusals must be typed, not generic timeouts"
        );
    }

    // ---- leader failover actually exercised ----------------------------
    for scenario in [
        PartitionScenario::CleanPartition,
        PartitionScenario::SeOutage,
    ] {
        for out in cells
            .iter()
            .filter(|o| o.verdict.scenario == scenario.to_string())
        {
            assert!(
                out.leader_changes >= 1,
                "[consensus × {} × {scenario}]: the fault must force at least one \
                 serving-leader hand-off, saw {}",
                out.verdict.policy,
                out.leader_changes
            );
        }
    }

    // ---- determinism: replaying a cell is byte-identical ---------------
    let mut replayed = 0usize;
    'outer: for scenario in PartitionScenario::ALL {
        for policy in policies() {
            let cc = cell_config(policy, scenario);
            let first = cells
                .iter()
                .find(|o| {
                    o.verdict.policy == policy.to_string()
                        && o.verdict.scenario == scenario.to_string()
                })
                .expect("measured cell present");
            let again = run_cell(&cc, &cc.script());
            assert_eq!(
                first.verdict, again.verdict,
                "cell verdict not reproducible"
            );
            assert_eq!(
                (first.elections, first.leader_changes, first.commits),
                (again.elections, again.leader_changes, again.commits),
                "protocol evidence not reproducible"
            );
            assert_eq!(
                row_bytes("e25-determinism", SEED, row_cells(first)),
                row_bytes("e25-determinism", SEED, row_cells(&again)),
                "report rows not byte-identical across replays"
            );
            replayed += 1;
            if replayed == DETERMINISM_CELLS {
                break 'outer;
            }
        }
    }
    assert_eq!(replayed, DETERMINISM_CELLS);
    println!("determinism: {replayed} cells replayed byte-identically\n");

    println!("wrote {}", report.write().display());
    println!(
        "\nShape check: consensus replication occupies the CP corner the paper's §3.6\n\
         PACELC table predicts for PC/EC configurations — across a clean cut, one-way\n\
         loss, flapping, WAN brown-out and an SE crash, no cell ever serves a stale\n\
         byte or loses an acknowledged write; the minority side refuses with typed\n\
         errors while the majority keeps serving, leaders fail over mid-run, and the\n\
         recorded interval history of every cell is linearizable — including timed-out\n\
         writes that legally commit after the fault heals."
    );
}
