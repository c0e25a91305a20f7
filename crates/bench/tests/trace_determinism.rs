//! The tracing layer's standing contracts, pinned as regressions:
//!
//! 1. **Observability is free and inert** — `TraceConfig::disabled()`
//!    (the default) leaves a cell's measured timeline bit-identical to
//!    a traced run of the same seed: tracing observes, never steers;
//! 2. **Same seed ⇒ same digest** — replaying a traced cell reproduces
//!    the digest exactly (a proptest over seeds, low case count: each
//!    case drives a full campaign cell);
//! 3. **Stage spans account exactly** — per-stage span durations of a
//!    traced operation sum to its `LatencyBreakdown`, field for field;
//! 4. **Export round-trips** — the JSONL export is structurally sound
//!    (and `tools/trace_summarize.py --check` accepts it when a python3
//!    interpreter is on PATH).

use proptest::prelude::*;
use udr_bench::campaign::{run_cell, CampaignConfig};
use udr_core::{OpRequest, Udr};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{ReadPolicy, ReplicationMode, TxnClass};
use udr_model::identity::Identity;
use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};
use udr_trace::TraceConfig;
use udr_workload::PartitionScenario;

/// A short traced consensus cell (the e25 shape at smoke size).
fn consensus_cell(seed: u64) -> CampaignConfig {
    let mut cc = CampaignConfig::new(
        ReplicationMode::Consensus { n: 3 },
        ReadPolicy::MasterOnly,
        PartitionScenario::CleanPartition,
    );
    cc.seed = seed;
    cc.subscribers = 5;
    cc.read_rate = 0.12;
    cc.traffic_end = SimTime::ZERO + SimDuration::from_secs(35);
    cc.fault_duration = SimDuration::from_secs(10);
    cc.trace = TraceConfig::full();
    cc
}

/// A short async-master-slave cell (the e22 shape at smoke size).
fn async_cell(seed: u64) -> CampaignConfig {
    let mut cc = CampaignConfig::new(
        ReplicationMode::AsyncMasterSlave,
        ReadPolicy::NearestCopy,
        PartitionScenario::CleanPartition,
    );
    cc.seed = seed;
    cc.subscribers = 5;
    cc.read_rate = 0.12;
    cc.traffic_end = SimTime::ZERO + SimDuration::from_secs(35);
    cc.fault_duration = SimDuration::from_secs(10);
    cc
}

#[test]
fn disabled_tracing_leaves_the_timeline_bit_identical() {
    // Same seed, tracing off vs fully on: every measured field of the
    // verdict must agree. This is the "observability is free" gate —
    // a tracer that burned RNG draws, scheduled events or perturbed
    // timing would diverge here.
    let plain = async_cell(17);
    let bare = run_cell(&plain, &plain.script());
    assert!(bare.trace.is_none(), "disabled tracing must export nothing");

    let mut traced = async_cell(17);
    traced.trace = TraceConfig::full();
    let seen = run_cell(&traced, &traced.script());
    assert_eq!(
        bare.verdict, seen.verdict,
        "tracing changed the measured timeline"
    );
    assert!(!seen.trace.expect("tracing enabled").records.is_empty());
}

proptest! {
    // Each case replays one full campaign cell twice; keep the count
    // low — this is a determinism pin, not a search.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn same_seed_reproduces_the_trace_digest(seed in 1u64..1_000) {
        let cc = consensus_cell(seed);
        let a = run_cell(&cc, &cc.script());
        let b = run_cell(&cc, &cc.script());
        let (ea, eb) = (a.trace.expect("enabled"), b.trace.expect("enabled"));
        prop_assert_eq!(ea.digest, eb.digest, "same seed, different digest");
        prop_assert_eq!(ea.records.len(), eb.records.len());
        prop_assert_eq!(a.verdict, b.verdict);
    }
}

#[test]
fn stage_spans_sum_to_the_latency_breakdown() {
    let mut cfg = udr_core::UdrConfig::figure2();
    cfg.trace = TraceConfig::full();
    let mut udr = Udr::build(cfg).expect("valid config");
    let ids = udr_workload::PopulationBuilder::new(3)
        .build(1, &mut udr_sim::SimRng::seed_from_u64(3))
        .remove(0)
        .ids;
    let t0 = SimTime::ZERO + SimDuration::from_millis(1);
    assert!(udr
        .provision_subscriber(&ids, 0, SiteId(0), t0)
        .op
        .result
        .is_ok());

    let at = SimTime::ZERO + SimDuration::from_secs(1);
    let op = LdapOp::Modify {
        dn: Dn::for_identity(Identity::Imsi(ids.imsi)),
        mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(7))],
    };
    let out = udr
        .execute(
            OpRequest::new(&op)
                .class(TxnClass::FrontEnd)
                .site(SiteId(1))
                .at(at),
        )
        .into_op();
    assert!(out.result.is_ok(), "{:?}", out.result);

    // The op under test is the newest trace in the recorder.
    let export = udr.trace_export();
    let trace = export
        .records
        .iter()
        .map(|r| r.trace)
        .max()
        .expect("records retained");
    let stage_sum = |stage: &str| -> SimDuration {
        export
            .records
            .iter()
            .filter(|r| r.trace == trace && r.name == stage)
            .filter_map(|r| r.dur)
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    };
    assert_eq!(stage_sum("stage.access"), out.breakdown.access);
    assert_eq!(stage_sum("stage.location"), out.breakdown.location);
    assert_eq!(stage_sum("stage.replication"), out.breakdown.replication);
    assert_eq!(stage_sum("stage.storage"), out.breakdown.storage);
}

#[test]
fn jsonl_export_round_trips_through_the_summarizer() {
    let mut cc = consensus_cell(7);
    cc.subscribers = 4;
    let out = run_cell(&cc, &cc.script());
    let export = out.trace.expect("tracing enabled");

    // Structural round-trip without a JSON parser: line counts match
    // the export, every line is one object of a known kind.
    let jsonl = export.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines[0].starts_with("{\"kind\":\"meta\""));
    assert!(lines[0].contains(&format!("\"digest\":\"{:016x}\"", export.digest)));
    let count_of = |kind: &str| {
        let tag = format!("{{\"kind\":\"{kind}\"");
        lines.iter().filter(|l| l.starts_with(&tag)).count()
    };
    assert_eq!(count_of("rec"), export.records.len());
    assert_eq!(count_of("exemplar"), export.exemplars.len());
    assert_eq!(
        count_of("exrec"),
        export
            .exemplars
            .iter()
            .map(|e| e.records.len())
            .sum::<usize>()
    );
    assert_eq!(
        lines.len(),
        1 + count_of("rec") + count_of("exemplar") + count_of("exrec"),
        "unknown line kinds in the export"
    );
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
    let chrome = export.to_chrome_json();
    assert!(chrome.starts_with("{\"traceEvents\":[\n"));

    // Full round-trip through the real consumer when python3 exists
    // (it does in CI; absent interpreters skip, not fail).
    let dir = std::env::temp_dir().join(format!("udr-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("TRACE_roundtrip.jsonl");
    std::fs::write(&path, &jsonl).expect("write jsonl");
    let summarize = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tools/trace_summarize.py"
    );
    match std::process::Command::new("python3")
        .arg(summarize)
        .arg("--check")
        .arg(&path)
        .output()
    {
        Ok(run) => assert!(
            run.status.success(),
            "trace_summarize.py --check rejected the export:\n{}",
            String::from_utf8_lossy(&run.stderr)
        ),
        Err(_) => eprintln!("python3 unavailable; skipped the summarizer round-trip"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
