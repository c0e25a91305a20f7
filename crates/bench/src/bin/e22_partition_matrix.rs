//! E22 — the CAP verdict matrix: deterministic partition-fault campaigns
//! across the full (replication mode × read policy × fault scenario)
//! grid (§3.2, §3.6, §4.1, §5).
//!
//! Every cell drives the same seeded traffic (read-only roaming
//! procedures + a monotone write oracle) through one fault scenario —
//! clean partition, asymmetric one-way loss, link flapping, WAN
//! degradation, SE crash+recover — and records a [`CapVerdict`]:
//! availability inside and outside the fault window, typed-vs-generic
//! failure classes, stale reads, divergence, heal time, and the
//! post-heal oracle scan.
//!
//! Shape asserted (and emitted as `BENCH_e22.json`) — the paper's CAP
//! placement, now CI-enforced:
//! * **nobody loses an acknowledged write after heal**, in any cell, and
//!   nobody duplicates a record or breaks a guarded-read guarantee;
//! * **AP-leaning cells stay available through the cut**: nearest-copy
//!   reads ride out every scenario at ≥ 99 % availability (accruing
//!   bounded staleness instead), and multi-master keeps ≥ 99 % write
//!   availability through a clean cut at the price of divergence merges;
//! * **CP-leaning cells show measurable unavailability windows but zero
//!   stale reads**: master-only cells never serve stale data, fail
//!   *typed* (never a generic timeout) while cut off, the synchronous
//!   modes refuse writes whose replication requirement spans the cut,
//!   and quorum r+w>n consults are fresh outright in every scenario —
//!   the w-ack applies the record on every responder synchronously, so
//!   the overlap replica is fresh at consult time, not eventually;
//! * **the whole grid is deterministic**: replaying a cell yields a
//!   field-identical verdict and byte-identical report rows.

use udr_bench::campaign::{row_bytes, run_cell, verdict_cells, CampaignConfig};
use udr_bench::json::{BenchReport, JsonValue};
use udr_bench::traceio::emit_trace;
use udr_metrics::{pct, CapVerdict, Table, VerdictMatrix};
use udr_model::config::{ReadPolicy, ReplicationMode};
use udr_trace::TraceConfig;
use udr_workload::PartitionScenario;

const SEED: u64 = 22;
/// Bounded-staleness budget swept in the policy axis.
const MAX_LAG: u64 = 4;
/// Cells replayed for the byte-identical determinism regression.
const DETERMINISM_CELLS: usize = 3;

fn modes() -> [ReplicationMode; 4] {
    [
        ReplicationMode::AsyncMasterSlave,
        // The paper's §5 "apply in sequence to two replicas" mode — the
        // semisync/2PC-style point of the spectrum.
        ReplicationMode::DualInSequence,
        ReplicationMode::Quorum { n: 3, w: 2, r: 2 },
        ReplicationMode::MultiMaster,
    ]
}

fn policies() -> [ReadPolicy; 4] {
    [
        ReadPolicy::NearestCopy,
        ReadPolicy::BoundedStaleness { max_lag: MAX_LAG },
        ReadPolicy::SessionConsistent,
        ReadPolicy::MasterOnly,
    ]
}

fn row_cells(v: &CapVerdict) -> Vec<(&'static str, JsonValue)> {
    let mut cells = verdict_cells(v);
    cells.extend([
        ("divergence_merges", v.divergence_merges.into()),
        ("merge_conflicts", v.merge_conflicts.into()),
        ("heal_ms", v.heal_time.as_millis_f64().into()),
        ("observed_stance", v.observed_stance().into()),
    ]);
    cells
}

/// `--trace` mode: replay one async-master-slave cell with full tracing
/// and export the flight recorder instead of running the grid.
fn trace_main() {
    let mut cc = CampaignConfig::new(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        PartitionScenario::CleanPartition,
    );
    cc.trace = TraceConfig::full();
    println!(
        "E22 --trace — one [async-master-slave × nearest-copy × clean-partition] cell\n\
         under TraceConfig::full(); QoS, replication-routing and shipper decisions land\n\
         as instants on each operation's span tree\n"
    );
    let out = run_cell(&cc, &cc.script());
    assert!(out.verdict.sound(), "traced cell verdict unsound");
    let export = out.trace.expect("tracing was enabled");
    let has = |name: &str| {
        export
            .records
            .iter()
            .chain(export.exemplars.iter().flat_map(|e| e.records.iter()))
            .any(|r| r.name == name)
    };
    for needed in ["stage.access", "stage.storage", "fault.partition"] {
        assert!(has(needed), "trace export lacks any {needed} record");
    }
    emit_trace("e22", &export);
}

fn main() {
    if std::env::args().any(|a| a == "--trace") {
        trace_main();
        return;
    }
    println!(
        "E22 — deterministic partition-fault campaigns and the CAP verdict matrix\n\
         every (replication mode × read policy × scenario) cell drives seeded roaming\n\
         reads + a monotone write oracle through a fault script, then audits what the\n\
         configuration actually gave up\n"
    );

    let mut matrix = VerdictMatrix::new();
    let mut table = Table::new([
        "mode",
        "policy",
        "scenario",
        "PACELC",
        "read avail (fault)",
        "write avail (fault)",
        "stale",
        "merges",
        "heal",
        "stance",
    ])
    .with_title("the CAP verdict matrix, cell by cell");
    let mut report = BenchReport::new("e22", SEED);
    let probe = CampaignConfig::new(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        PartitionScenario::CleanPartition,
    );
    report
        .config("subscribers", probe.subscribers)
        .config("read_rate_per_sub", probe.read_rate)
        .config("write_period_ms", probe.write_period.as_millis_f64())
        .config("roaming", probe.roaming)
        .config("fault_window_s", probe.fault_duration.as_millis_f64() / 1e3)
        .config("max_lag", MAX_LAG);

    let mut skipped = 0u64;
    for mode in modes() {
        for policy in policies() {
            for scenario in PartitionScenario::ALL {
                let cc = CampaignConfig::new(mode, policy, scenario);
                if !cc.is_valid() {
                    // Guarded read policies are rejected under quorum and
                    // multi-master replication by config validation; the
                    // grid records the hole rather than faking a cell.
                    skipped += 1;
                    continue;
                }
                let v = run_cell(&cc, &cc.script()).verdict;
                table.row([
                    v.mode.clone(),
                    v.policy.clone(),
                    v.scenario.clone(),
                    v.expected_pacelc.clone(),
                    pct(v.read_availability_in_fault(), 1),
                    pct(v.write_availability_in_fault(), 1),
                    v.stale_reads.to_string(),
                    v.divergence_merges.to_string(),
                    format!("{:.0} ms", v.heal_time.as_millis_f64()),
                    v.observed_stance().to_string(),
                ]);
                report.row(row_cells(&v));
                matrix.push(v);
            }
        }
    }
    report.config("cells_measured", matrix.len());
    report.config("cells_skipped_invalid", skipped);
    println!("{table}");
    println!(
        "{} cells measured, {skipped} (mode × policy) combinations rejected by config \
         validation (guarded reads under quorum/multi-master)\n",
        matrix.len()
    );

    // ---- the non-negotiables, every cell ------------------------------
    for v in matrix.cells() {
        let cell = format!("[{} × {} × {}]", v.mode, v.policy, v.scenario);
        assert_eq!(
            v.lost_acked_writes, 0,
            "{cell}: lost an acknowledged write after heal"
        );
        assert_eq!(
            v.duplicated_records, 0,
            "{cell}: duplicated a partition copy"
        );
        assert_eq!(
            v.guarantee_violations, 0,
            "{cell}: a guarded read lied instead of failing"
        );
        assert_eq!(
            v.unexpected_failures, 0,
            "{cell}: a fault produced a data-level error (bug, not unavailability)"
        );
        assert!(v.sound());
    }

    // ---- AP-leaning cells stay available through the fault -------------
    // Quorum replication is excluded: its reads consult an r-ensemble
    // regardless of the policy label, so no read policy makes it PA
    // (`pacelc_for` says so, and the matrix confirms it).
    let quorum = ReplicationMode::Quorum { n: 3, w: 2, r: 2 }.to_string();
    for v in matrix.select(|v| v.policy == ReadPolicy::NearestCopy.to_string() && v.mode != quorum)
    {
        assert!(
            v.read_availability_in_fault() >= 0.99,
            "[{} × {} × {}]: nearest-copy reads must ride out the fault, got {}",
            v.mode,
            v.policy,
            v.scenario,
            pct(v.read_availability_in_fault(), 2)
        );
    }
    let mm = ReplicationMode::MultiMaster.to_string();
    let clean = PartitionScenario::CleanPartition.to_string();
    for v in matrix.select(|v| v.mode == mm && v.scenario == clean) {
        assert!(
            v.write_availability_in_fault() >= 0.99,
            "[multi-master × {} × clean-partition]: writes must survive the cut, got {}",
            v.policy,
            pct(v.write_availability_in_fault(), 2)
        );
        assert!(
            v.divergence_merges >= 1,
            "[multi-master × {} × clean-partition]: cross-cut writes must diverge and merge",
            v.policy
        );
    }

    // ---- CP-leaning cells: unavailability windows, never stale ---------
    let master_only = ReadPolicy::MasterOnly.to_string();
    for v in matrix.select(|v| v.policy == master_only && v.mode != quorum) {
        assert_eq!(
            v.stale_reads, 0,
            "[{} × master-only × {}]: a CP read served stale data",
            v.mode, v.scenario
        );
    }
    // Quorum r+w>n freshness holds outright, in every scenario and under
    // every policy label: the w-ack carries the record onto every
    // responder synchronously, so the overlap member a consult is
    // guaranteed to reach is fresh *at consult time* — and the audit
    // measures against the acknowledged tail, the only data anyone was
    // promised. This used to be reported-not-asserted; now it is a gate.
    for v in matrix.select(|v| v.mode == quorum) {
        assert_eq!(
            v.stale_reads, 0,
            "[quorum × {} × {}]: an r+w>n consult served stale data",
            v.policy, v.scenario
        );
    }
    for scenario in PartitionScenario::ALL
        .iter()
        .filter(|s| s.severs_connectivity())
    {
        for v in matrix.select(|v| v.policy == master_only && v.scenario == scenario.to_string()) {
            assert!(
                v.reads_ok_in_fault < v.reads_in_fault,
                "[{} × master-only × {}]: a severed cut must cost CP reads availability",
                v.mode,
                v.scenario
            );
            assert_eq!(
                v.generic_timeouts, 0,
                "[{} × master-only × {}]: clean cuts must fail typed, not time out",
                v.mode, v.scenario
            );
        }
    }
    for mode in [
        ReplicationMode::DualInSequence,
        ReplicationMode::Quorum { n: 3, w: 2, r: 2 },
    ] {
        for v in matrix.select(|v| v.mode == mode.to_string() && v.scenario == clean) {
            assert!(
                v.writes_ok_in_fault < v.writes_in_fault,
                "[{} × {} × clean-partition]: a synchronous mode must refuse writes \
                 whose replication spans the cut",
                v.mode,
                v.policy
            );
        }
    }

    // ---- determinism: replaying a cell is byte-identical ---------------
    let mut replayed = 0usize;
    'outer: for mode in modes() {
        for policy in policies() {
            let cc = CampaignConfig::new(mode, policy, PartitionScenario::CleanPartition);
            if !cc.is_valid() {
                continue;
            }
            let first = matrix
                .get(&mode.to_string(), &policy.to_string(), "clean-partition")
                .expect("measured cell present");
            let again = run_cell(&cc, &cc.script()).verdict;
            assert_eq!(first, &again, "cell verdict not reproducible");
            assert_eq!(
                row_bytes("e22-determinism", SEED, row_cells(first)),
                row_bytes("e22-determinism", SEED, row_cells(&again)),
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
        "\nShape check (paper §3.6/§4.1/§5): the CAP trade is real per cell. AP-leaning\n\
         configurations (nearest-copy reads; multi-master writes) ride out every fault\n\
         at ≥ 99 % availability and pay in staleness and divergence merges; CP-leaning\n\
         configurations (master-only reads; in-sequence and quorum writes) never serve\n\
         a stale byte but show measurable unavailability windows while cut off — and\n\
         every such refusal is a *typed* partition error, distinguishable from a bug.\n\
         Nobody, anywhere in the grid, loses an acknowledged write after heal."
    );
}
