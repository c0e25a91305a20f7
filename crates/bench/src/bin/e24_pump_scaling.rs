//! E24 — sharded parallel event pump: sustained rate vs lane count.
//!
//! The tentpole question: with the simulator's event pump split into
//! per-partition lanes under a conservative lookahead barrier, how does
//! sustained pipeline event throughput scale with lanes — without giving
//! up the deterministic merge (same seed ⇒ byte-identical timeline)?
//!
//! The workload is the e23 pipeline-stage shape: per-shard engine
//! commits (98%) mixed with serialized cross-shard barriers (2%),
//! default 200k events over 8 shards (`E24_EVENTS` or a positional
//! argument overrides — CI runs a small-N smoke). Each lane count
//! replays the same schedule; the campaign digests every run's
//! per-shard subsequences and refuses to report a row that diverged
//! from the sequential pop's timeline (a one-lane pump popped in
//! `(time, seq)` order).
//!
//! Sustained rate uses the drain's **critical path** (Σ per-round max
//! lane busy time + serialized cross time — what an N-core box pays);
//! wall clock is reported alongside. On the full workload the 4-lane
//! row must sustain ≥ 2× the 1-lane row. Emits `BENCH_e24.json`.

use udr_bench::json::{BenchReport, JsonValue};
use udr_bench::pump_campaign::{run, run_traced, PumpCampaignConfig};
use udr_bench::traceio::{trace_headline, write_trace_files};
use udr_metrics::Table;
use udr_trace::{TraceConfig, Tracer};

fn configured_events() -> u64 {
    // First numeric argument wins; flags like `--trace` pass through.
    for arg in std::env::args().skip(1) {
        if let Ok(n) = arg.parse() {
            return n;
        }
    }
    if let Ok(v) = std::env::var("E24_EVENTS") {
        if let Ok(n) = v.trim().parse() {
            return n;
        }
    }
    200_000
}

fn main() {
    let n = configured_events();
    let traced = std::env::args().any(|a| a == "--trace");
    let cfg = if n >= PumpCampaignConfig::full().events {
        let mut c = PumpCampaignConfig::full();
        c.events = n;
        c
    } else {
        PumpCampaignConfig::small(n)
    };
    println!(
        "E24 — parallel pump scaling: {} events over {} shards, {:.0}% cross-lane\n",
        cfg.events,
        cfg.shards,
        cfg.cross_ratio * 100.0
    );

    let mut tracer = Tracer::new(if traced {
        TraceConfig::full()
    } else {
        TraceConfig::disabled()
    });
    let out = if traced {
        run_traced(&cfg, &mut tracer)
    } else {
        run(&cfg)
    };

    let mut table = Table::new([
        "lanes",
        "events",
        "wall s",
        "critical path s",
        "sustained ev/s",
        "vs 1 lane",
        "efficiency",
    ])
    .with_title("deterministic merge held at every lane count (digest-checked)");
    let mut report = BenchReport::new("e24", cfg.seed);
    report
        .config("events", cfg.events)
        .config("shards", cfg.shards)
        .config("cross_ratio", cfg.cross_ratio)
        .config("digest", format!("{:016x}", out.digest));

    let sequential = &out.baseline;
    table.row([
        "sequential".to_owned(),
        sequential.events.to_string(),
        format!("{:.3}", sequential.wall_s),
        format!("{:.3}", sequential.critical_path_s),
        format!("{:.0}", sequential.sustained_per_sec),
        "—".to_owned(),
        "—".to_owned(),
    ]);
    report.row(vec![
        ("lanes", 0u64.into()),
        ("label", "sequential".into()),
        ("events", sequential.events.into()),
        ("wall_s", sequential.wall_s.into()),
        ("critical_path_s", sequential.critical_path_s.into()),
        ("sustained_per_sec", sequential.sustained_per_sec.into()),
        ("speedup_vs_1", JsonValue::Null),
        ("efficiency", JsonValue::Null),
    ]);
    for row in &out.rows {
        let speedup = out.speedup(row.lanes);
        table.row([
            row.lanes.to_string(),
            row.events.to_string(),
            format!("{:.3}", row.wall_s),
            format!("{:.3}", row.critical_path_s),
            format!("{:.0}", row.sustained_per_sec),
            format!("{speedup:.2}×"),
            format!("{:.0}%", row.efficiency * 100.0),
        ]);
        report.row(vec![
            ("lanes", (row.lanes as u64).into()),
            ("label", "sharded".into()),
            ("events", row.events.into()),
            ("wall_s", row.wall_s.into()),
            ("critical_path_s", row.critical_path_s.into()),
            ("sustained_per_sec", row.sustained_per_sec.into()),
            ("speedup_vs_1", speedup.into()),
            ("efficiency", row.efficiency.into()),
        ]);
    }
    println!("{table}");
    println!(
        "\ndigest {:016x} — identical for the sequential pop and every lane count\n\
         (per-shard subsequences + barrier trace; asserted, not sampled)",
        out.digest
    );

    // Acceptance gates. Timing on tiny smoke runs is noise-dominated, so
    // the 2× bar applies from 50k events up; the determinism gate (the
    // digest asserts inside `run`) applies always.
    let speedup4 = out.speedup(4);
    if cfg.events >= 50_000 {
        assert!(
            speedup4 >= 2.0,
            "4-lane sustained rate must be ≥ 2× the 1-lane rate, got {speedup4:.2}×"
        );
    } else {
        assert!(
            speedup4 > 1.0,
            "4-lane sustained rate must beat 1 lane even on a smoke run, got {speedup4:.2}×"
        );
    }

    let path = report.write().expect("write BENCH_e24.json");
    println!("\nwrote {}", path.display());

    if traced {
        let export = tracer.export();
        println!("trace: {}", trace_headline(&export));
        let (jsonl, chrome) = write_trace_files("e24", &export).expect("write trace files");
        println!(
            "wrote {} and {} (per-lane busy/idle slices of every sharded row)",
            jsonl.display(),
            chrome.display()
        );
    }
}
