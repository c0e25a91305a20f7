//! E23 — the million-subscriber scale campaign (§2.1, §3.3.1).
//!
//! The paper sizes a UDR at tens of millions of subscribers served from
//! RAM. This experiment streams a configurable population (default 10⁶,
//! `E23_SUBSCRIBERS` or a positional argument overrides — CI runs a small-N smoke)
//! through every hot layer in turn:
//!
//! 1. **intern** — identity generation through the global interner;
//! 2. **ingest** — transactional commits into the sharded columnar stores;
//! 3. **read**   — random zero-copy point reads against the live stores;
//! 4. **image**  — a snapshot of one shard, its payloads shared;
//! 5. **ship**   — batched log shipping of a full shard to a fresh slave;
//! 6. **pipeline** — the full figure-2 request path under batched
//!    shipping.
//!
//! Emits `BENCH_e23.json`: one row per stage (sustained ops/sec, p50/p99
//! per-item wall latency) plus a campaign summary row with records
//! in-store, store/interner footprints and peak RSS. The campaign digest
//! is seed-stable, which the determinism smoke test replays.

use udr_bench::json::{BenchReport, JsonValue};
use udr_bench::scale::{run, ScaleConfig};
use udr_bench::traceio::{trace_headline, write_trace_files};
use udr_metrics::Table;
use udr_trace::TraceConfig;

fn configured_subscribers() -> u64 {
    // First numeric argument wins; flags like `--trace` pass through.
    for arg in std::env::args().skip(1) {
        if let Ok(n) = arg.parse() {
            return n;
        }
    }
    if let Ok(v) = std::env::var("E23_SUBSCRIBERS") {
        if let Ok(n) = v.trim().parse() {
            return n;
        }
    }
    1_000_000
}

fn main() {
    let n = configured_subscribers();
    let traced = std::env::args().any(|a| a == "--trace");
    let mut cfg = if n >= 1_000_000 {
        let mut c = ScaleConfig::full();
        c.subscribers = n;
        c.reads = n;
        c
    } else {
        ScaleConfig::small(n)
    };
    if traced {
        cfg.trace = TraceConfig::full();
    }
    println!(
        "E23 — scale campaign: {} subscribers over {} shards (§2.1, §3.3.1)\n",
        cfg.subscribers, cfg.shards
    );

    let out = run(&cfg);

    let mut table = Table::new(["stage", "items", "wall s", "items/s", "p50 µs", "p99 µs"]);
    let mut report = BenchReport::new("e23", cfg.seed);
    report
        .config("subscribers", cfg.subscribers)
        .config("shards", cfg.shards)
        .config("reads", cfg.reads)
        .config("pipeline_ops", cfg.pipeline_ops)
        .config("batch_max_records", cfg.ship_batch.max_records)
        .config("batch_linger_us", cfg.ship_batch.linger.as_micros_f64());

    for s in &out.stages {
        table.row([
            s.stage.to_owned(),
            s.items.to_string(),
            format!("{:.3}", s.wall_s),
            format!("{:.0}", s.per_sec),
            format!("{:.1}", s.p50_ns as f64 / 1_000.0),
            format!("{:.1}", s.p99_ns as f64 / 1_000.0),
        ]);
        report.row(vec![
            ("row", "stage".into()),
            ("stage", s.stage.into()),
            ("items", s.items.into()),
            ("wall_s", s.wall_s.into()),
            ("per_sec", s.per_sec.into()),
            ("p50_ns", s.p50_ns.into()),
            ("p99_ns", s.p99_ns.into()),
        ]);
    }
    println!("{table}");

    println!(
        "\nin-store: {} records, {:.1} MiB (stores) + {:.1} MiB interner ({} symbols)\n\
         shipping: {} records in {} batches ({:.1} records/batch)\n\
         pipeline: {} provisioning retries\n\
         image: {:.1} MiB snapshot; peak RSS {:.1} MiB; digest {:016x}",
        out.records_in_store,
        out.store_bytes as f64 / (1024.0 * 1024.0),
        out.interner_bytes as f64 / (1024.0 * 1024.0),
        out.interned_symbols,
        out.shipped_records,
        out.shipped_batches,
        out.shipped_records as f64 / out.shipped_batches.max(1) as f64,
        out.pipeline_retries,
        out.image_bytes as f64 / (1024.0 * 1024.0),
        out.peak_rss_kb as f64 / 1024.0,
        out.digest,
    );

    // Headline assertions: the campaign must actually hold the population
    // and actually coalesce.
    assert_eq!(
        out.records_in_store, cfg.subscribers,
        "population not fully resident"
    );
    assert!(
        out.shipped_batches < out.shipped_records,
        "shipping failed to coalesce"
    );

    report.row(vec![
        ("row", "summary".into()),
        ("records_in_store", out.records_in_store.into()),
        ("store_bytes", out.store_bytes.into()),
        ("interned_symbols", out.interned_symbols.into()),
        ("interner_bytes", out.interner_bytes.into()),
        ("shipped_records", out.shipped_records.into()),
        ("shipped_batches", out.shipped_batches.into()),
        ("pipeline_retries", out.pipeline_retries.into()),
        ("image_bytes", out.image_bytes.into()),
        ("peak_rss_kb", out.peak_rss_kb.into()),
        ("digest", JsonValue::Str(format!("{:016x}", out.digest))),
    ]);
    let path = report.write();
    println!("\nwrote {}", path.display());

    if let Some(export) = &out.trace {
        println!("trace: {}", trace_headline(export));
        let (jsonl, chrome) = write_trace_files("e23", export).expect("write trace files");
        println!(
            "wrote {} and {} (pipeline stage of the campaign)",
            jsonl.display(),
            chrome.display()
        );
    }
}
