//! `--trace 1`: the per-layer metrics.
//!
//! A cold repetition through `Udr::execute` gives the reference digest; a
//! traced one (see [`Drive::Traced`]) gives each layer's host time in situ
//! and must reach that digest — the proof that the staged drive *is*
//! `execute`. The isolated replays of [`crate::isolated`] follow in the same
//! process.

use std::io::Write;

use udr_trace::TraceConfig;

use crate::drive::{run_rep, Drive, OpSpans, Rep, ADVANCE, CTX, NOT_RUN, SPAN_NAMES};
use crate::inputs::{Inputs, Spec};
use crate::stats::{mean, quantile, Clock, Metrics};
use crate::{isolated, Outcome};

/// Operations from the head of the stream whose spans are written out.
const TRACE_HEAD_OPS: usize = 2_000;
/// Slowest operations whose spans are written out as well: the stalls.
const TRACE_SLOWEST_OPS: usize = 200;

/// Mean of one reading over the operations that have it, and how many do.
fn mean_where(
    inputs: &Inputs,
    spans: &[OpSpans],
    write: Option<bool>,
    reading: impl Fn(&OpSpans) -> u32,
) -> (f64, u64) {
    let (sum, n) = spans
        .iter()
        .zip(&inputs.ops)
        .filter(|(_, op)| write.is_none_or(|w| op.is_write() == w))
        .map(|(s, _)| reading(s))
        .filter(|&ns| ns != NOT_RUN)
        .fold((0.0, 0u64), |(sum, n), ns| (sum + f64::from(ns), n + 1));
    (if n == 0 { 0.0 } else { sum / n as f64 }, n)
}

pub fn run(spec: &Spec, inputs: &Inputs, seed: u64, out_dir: Option<&str>) -> Outcome {
    // A process's first repetition faults its heap in from the OS and runs
    // up to 40 % slower than the following ones on the write-heavy
    // workloads, so no host time is read off the cold one: it supplies the
    // digest, the counts and how much resident memory set-up adds.
    let cold = run_rep(spec, inputs, seed, Drive::Execute, TraceConfig::disabled());
    let traced = run_rep(spec, inputs, seed, Drive::Traced, TraceConfig::disabled());
    let n_ops = inputs.ops.len() as u64;
    let mut check_failures = cold.check_failures.clone();
    check_failures.extend(traced.check_failures.iter().cloned());
    // Allocator counts are not compared: `execute` formats a tenant label
    // for its tracer on every operation, which the staged drive bypasses.
    if traced.digest != cold.digest {
        check_failures.push(format!(
            "traced drive reached sim-time digest {:016x}, Udr::execute {:016x}",
            traced.digest, cold.digest
        ));
    }

    let mut m = Metrics::default();
    let spans = &traced.spans;

    // ---- in situ: the stage split -------------------------------------------
    // `pipeline_sum` adds up what a staged operation spends in the stages
    // after the advance, per staged operation, to set against what
    // `Udr::execute` takes for the operations that alternate with them.
    let staged_ops = spans.iter().filter(|s| s.execute_ns == NOT_RUN).count() as f64;
    let mut pipeline_sum = 0.0;
    for (span, name) in SPAN_NAMES.iter().enumerate() {
        if span == CTX {
            continue;
        }
        // A kind the workload never issues reads 0 over n = 0 samples.
        let (read, n_read) = mean_where(inputs, spans, Some(false), |s| s.ns[span]);
        let (write, n_write) = mean_where(inputs, spans, Some(true), |s| s.ns[span]);
        m.push(format!("{name}.read_ns"), read, "ns", Clock::Host, n_read);
        m.push(
            format!("{name}.write_ns"),
            write,
            "ns",
            Clock::Host,
            n_write,
        );
        if span != ADVANCE {
            pipeline_sum += (read * n_read as f64 + write * n_write as f64) / staged_ops;
        }
    }
    let (advance_mean, _) = mean_where(inputs, spans, None, |s| s.ns[ADVANCE]);
    let (execute_mean, n_execute) = mean_where(inputs, spans, None, |s| s.execute_ns);
    m.push(
        "core.glue_ns",
        execute_mean - pipeline_sum,
        "ns",
        Clock::Host,
        n_execute,
    );
    m.push(
        "core.stage_sum_share",
        (advance_mean + pipeline_sum) / (advance_mean + execute_mean),
        "ratio",
        Clock::Host,
        n_ops,
    );
    let mut sorted = traced.op_ns.clone();
    sorted.sort_unstable();
    m.push(
        "core.execute.p999_us",
        f64::from(quantile(&sorted, 0.999)) / 1e3,
        "us",
        Clock::Host,
        n_ops,
    );
    m.push(
        "core.execute.max_ms",
        f64::from(*sorted.last().expect("at least one op")) / 1e6,
        "ms",
        Clock::Host,
        n_ops,
    );
    let subs = inputs.subs.len() as u64;
    m.push(
        "core.provision_ns",
        traced.provision_ns_per_sub,
        "ns",
        Clock::Host,
        subs,
    );
    m.push(
        "core.provision_allocs",
        cold.provision_allocs.calls as f64 / subs as f64,
        "1",
        Clock::Count,
        subs,
    );

    // ---- in situ: the pump -----------------------------------------------------
    let events: u64 = spans.iter().map(|s| u64::from(s.events)).sum();
    let longest_advance = spans
        .iter()
        .map(|s| s.ns[ADVANCE])
        .max()
        .expect("at least one op");
    m.push(
        "sim.pump.events_per_op",
        events as f64 / n_ops as f64,
        "1",
        Clock::Count,
        n_ops,
    );
    m.push(
        "sim.pump.ns_per_event",
        // Consensus writes pump the queue past the next arrivals from inside
        // `route`, which can leave `Udr::run` nothing to process.
        if events == 0 {
            0.0
        } else {
            advance_mean * n_ops as f64 / events as f64
        },
        "ns",
        Clock::Host,
        events,
    );
    m.push(
        "sim.pump.max_event_ms",
        f64::from(longest_advance) / 1e6,
        "ms",
        Clock::Host,
        n_ops,
    );

    // ---- in situ: memory, shipping, sim-side shares -----------------------------
    m.push(
        "storage.rss_kb_per_sub",
        (cold.rss_after_setup_kb as f64 - cold.rss_after_build_kb as f64)
            / cold.provisioned.max(1) as f64,
        "kB",
        Clock::Host,
        cold.provisioned,
    );
    m.push(
        "heap.live_after_setup_mb",
        cold.heap_live_after_setup as f64 / 1e6,
        "MB",
        Clock::Count,
        1,
    );
    m.push(
        "heap.peak_mb",
        cold.heap_peak as f64 / 1e6,
        "MB",
        Clock::Count,
        1,
    );
    m.push(
        "replication.records_per_batch",
        cold.shipped_records as f64 / cold.shipping_batches.max(1) as f64,
        "1",
        Clock::Count,
        cold.shipping_batches,
    );
    m.push(
        "replication.max_lag",
        cold.max_lag_before_drain as f64,
        "1",
        Clock::Count,
        1,
    );
    m.push(
        "failed_share",
        cold.failed as f64 / n_ops as f64,
        "ratio",
        Clock::Sim,
        n_ops,
    );
    m.push(
        "stale_read_share",
        cold.stale_reads as f64 / cold.ok_searches.max(1) as f64,
        "ratio",
        Clock::Sim,
        cold.ok_searches,
    );

    // ---- what the measuring costs --------------------------------------------------
    // A staged operation from the end of its advance to its outcome (ctx,
    // stages, clamp, clock readings) against `Udr::execute` on its neighbours.
    let (staged_mean, _) = mean_where(inputs, spans, None, |s| {
        if s.execute_ns == NOT_RUN {
            s.ns[CTX..].iter().filter(|&&ns| ns != NOT_RUN).sum::<u32>()
        } else {
            NOT_RUN
        }
    });
    m.push(
        "trace.harness_overhead_share",
        (staged_mean - execute_mean) / (advance_mean + execute_mean),
        "ratio",
        Clock::Host,
        n_ops,
    );
    // The library's own flight recorder, on the one workload that mixes
    // reads and writes; 0 elsewhere. Set against the traced repetition's
    // whole operations, the nearest warm reading there is.
    let recorder_overhead = if spec.recorder_rep {
        let recorded = run_rep(spec, inputs, seed, Drive::Execute, TraceConfig::full());
        if recorded.digest != cold.digest {
            check_failures.push(format!(
                "flight recorder changed the sim-time digest to {:016x}",
                recorded.digest
            ));
        }
        let whole = |rep: &Rep| mean(rep.op_ns.iter().map(|&ns| f64::from(ns)));
        (whole(&recorded) - whole(&traced)) / whole(&traced)
    } else {
        0.0
    };
    m.push(
        "trace.recorder_overhead_share",
        recorder_overhead,
        "ratio",
        Clock::Host,
        n_ops,
    );

    isolated::run(inputs, seed, &mut m);

    if let Some(dir) = out_dir {
        let path = format!("{dir}/trace_{}.jsonl", spec.name);
        if let Err(e) = write_spans(&path, inputs, &traced) {
            check_failures.push(format!("cannot write {path}: {e}"));
        }
    }

    Outcome {
        metrics: m,
        attempted: n_ops,
        failed: cold.failed,
        check_failures,
        digest: traced.digest,
    }
}

/// Write the spans of the first [`TRACE_HEAD_OPS`] operations and of the
/// [`TRACE_SLOWEST_OPS`] slowest, one JSON object per line. Every span of
/// one operation shares its `op` index; the others name the operation's
/// own span, `core.op`, as `parent`.
fn write_spans(path: &str, inputs: &Inputs, traced: &Rep) -> std::io::Result<()> {
    let n = traced.spans.len();
    let mut slowest: Vec<usize> = (0..n).collect();
    slowest.sort_unstable_by_key(|&i| std::cmp::Reverse(traced.op_ns[i]));
    let mut chosen: Vec<usize> = (0..TRACE_HEAD_OPS.min(n))
        .chain(slowest.into_iter().take(TRACE_SLOWEST_OPS))
        .collect();
    chosen.sort_unstable();
    chosen.dedup();

    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for i in chosen {
        let spans = &traced.spans[i];
        let kind = if inputs.ops[i].is_write() {
            "modify"
        } else {
            "search"
        };
        let mut line = |name: &str, start: u64, ns: u32, parent: &str| {
            writeln!(
                out,
                "{{\"name\": \"{name}\", \"op\": {i}, \"kind\": \"{kind}\", \
                 \"start_ns\": {start}, \"end_ns\": {}, \"parent\": {parent}}}",
                start + u64::from(ns)
            )
        };
        line("core.op", spans.start_ns, traced.op_ns[i], "null")?;
        let mut cursor = spans.start_ns;
        let children = SPAN_NAMES
            .iter()
            .copied()
            .zip(spans.ns)
            .chain([("core.execute", spans.execute_ns)]);
        for (name, ns) in children {
            if ns != NOT_RUN {
                line(name, cursor, ns, "\"core.op\"")?;
                cursor += u64::from(ns);
            }
        }
    }
    out.flush()
}
