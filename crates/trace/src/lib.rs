//! # udr-trace
//!
//! Sim-clock-native structured tracing for the UDR simulator: a bounded
//! ring-buffer **flight recorder** of span/instant records plus always-on
//! **slow-op exemplar capture**, exported as compact JSONL and as Chrome
//! trace-event JSON loadable in Perfetto.
//!
//! Design constraints (see `docs/OBSERVABILITY.md`):
//!
//! - **Deterministic**: records carry only virtual time ([`SimTime`]) and
//!   IDs allocated from per-[`Tracer`] counters, so the same seed produces
//!   a byte-identical trace digest regardless of host timing.
//! - **Zero cost when disabled**: [`TraceConfig::disabled`] (the default)
//!   makes every entry point a single branch; no allocation, no ID burn.
//! - **Causal**: each operation gets a fresh trace ID threaded through the
//!   pipeline context and onto scheduled events/replication messages, so
//!   one subscriber operation yields one span tree covering all four
//!   pipeline stages, QoS decisions, shipper flushes and consensus rounds.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::collections::VecDeque;

use udr_model::time::{SimDuration, SimTime};

/// Flight-recorder ring capacity, in records. Oldest records are evicted
/// (and counted in [`TraceExport::dropped`]) once full.
pub const RING_CAPACITY: usize = 1 << 16;

/// Any operation whose end-to-end latency reaches this threshold is
/// retained with its full span tree as an exemplar: the paper's 10 ms
/// latency target (§2.3).
pub const SLOW_OP_THRESHOLD: SimDuration = SimDuration::from_millis(10);

/// How many slowest exemplars a tracer retains (top-K by latency).
pub const EXEMPLAR_CAPACITY: usize = 16;

/// Tracing switch. The default ([`TraceConfig::disabled`]) records nothing;
/// [`TraceConfig::full`] records every operation into a
/// [`RING_CAPACITY`]-record ring plus the [`EXEMPLAR_CAPACITY`] slowest
/// operations at or above [`SLOW_OP_THRESHOLD`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When `false` no IDs are allocated and every tracer
    /// entry point returns immediately.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing off — the default; must leave sim behaviour and hot-path
    /// costs unchanged.
    pub const fn disabled() -> Self {
        TraceConfig { enabled: false }
    }

    /// Record every trace, plus slow-op exemplars at the paper's 10 ms
    /// target.
    pub const fn full() -> Self {
        TraceConfig { enabled: true }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Trace context threaded through the pipeline and carried on scheduled
/// events: the owning trace plus the span new records should parent to.
///
/// `trace == 0` means "not traced" (tracing disabled, or a background
/// record with no owning operation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// Owning trace ID (0 = none/background).
    pub trace: u64,
    /// Current parent span ID (0 = root).
    pub span: u64,
}

impl SpanCtx {
    /// The "not traced" context.
    pub const NONE: SpanCtx = SpanCtx { trace: 0, span: 0 };

    /// Whether this context belongs to a live traced operation.
    pub fn is_active(&self) -> bool {
        self.trace != 0
    }
}

/// One flight-recorder record: a span (`dur: Some`) or an instant
/// (`dur: None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Owning trace (0 = background).
    pub trace: u64,
    /// This record's span ID (0 for instants).
    pub span: u64,
    /// Parent span ID (0 = root of the trace).
    pub parent: u64,
    /// Static record name, e.g. `"stage.access"` or `"consensus.propose"`.
    pub name: &'static str,
    /// Start instant (sim clock).
    pub start: SimTime,
    /// Span length; `None` marks an instant event.
    pub dur: Option<SimDuration>,
    /// Free-form annotation built from deterministic data only.
    pub arg: Option<String>,
}

/// A retained slow operation: its root metadata plus full span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The operation's trace ID.
    pub trace: u64,
    /// Root operation name (e.g. `"op.modify"`).
    pub name: &'static str,
    /// Operation start instant.
    pub start: SimTime,
    /// End-to-end latency that breached the slow-op threshold.
    pub latency: SimDuration,
    /// Outcome label (`"ok"` or the error's short name).
    pub status: &'static str,
    /// Every record the operation emitted, root span included.
    pub records: Vec<TraceRecord>,
}

/// An in-flight operation's staged records (moved to the ring and/or the
/// exemplar store when the op ends).
#[derive(Debug)]
struct ActiveOp {
    trace: u64,
    root: u64,
    name: &'static str,
    start: SimTime,
    /// Extra root-status argument (e.g. the issuing tenant), appended to
    /// the status label when the op ends.
    arg: Option<String>,
    records: Vec<TraceRecord>,
}

/// The flight recorder. One per [`Udr`](../udr_core/struct.Udr.html);
/// owned by the deployment so every layer can reach it.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    next_trace: u64,
    next_span: u64,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
    active: Option<ActiveOp>,
    exemplars: Vec<Exemplar>,
}

impl Tracer {
    /// Build a tracer for the given configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            cfg,
            next_trace: 1,
            next_span: 1,
            ring: VecDeque::new(),
            dropped: 0,
            active: None,
            exemplars: Vec::new(),
        }
    }

    /// Whether tracing is on at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Trace ID of the operation currently in flight (0 if none) — used
    /// to stamp trace context onto events scheduled on the op's behalf.
    pub fn active_trace(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.trace)
    }

    /// Allocate a span ID (deterministic counter).
    pub fn alloc_span(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    /// Start tracing one operation at `at`; returns the context the
    /// pipeline threads through its stages, or [`SpanCtx::NONE`] when
    /// tracing is disabled. Exactly one op may be active at a time (the
    /// pipeline is synchronous); nested begin replaces silently-never —
    /// callers pair begin/end around `pipeline::run`.
    pub fn begin_op(&mut self, name: &'static str, at: SimTime) -> SpanCtx {
        self.begin_op_with(name, at, None)
    }

    /// [`Tracer::begin_op`] with an extra argument string appended to the
    /// root span's status on [`Tracer::end_op`] (e.g. `tenant=tenant1`),
    /// so per-op dimensions travel in the trace without widening every
    /// record.
    pub fn begin_op_with(
        &mut self,
        name: &'static str,
        at: SimTime,
        arg: Option<String>,
    ) -> SpanCtx {
        if !self.cfg.enabled {
            return SpanCtx::NONE;
        }
        let trace = self.next_trace;
        self.next_trace += 1;
        let root = self.alloc_span();
        self.active = Some(ActiveOp {
            trace,
            root,
            name,
            start: at,
            arg,
            records: Vec::new(),
        });
        SpanCtx { trace, span: root }
    }

    /// Finish the active operation: emit its root span, move the staged
    /// tree into the flight recorder, and retain it as an exemplar if
    /// `latency` breached [`SLOW_OP_THRESHOLD`].
    pub fn end_op(&mut self, latency: SimDuration, status: &'static str) {
        let Some(mut active) = self.active.take() else {
            return;
        };
        active.records.push(TraceRecord {
            trace: active.trace,
            span: active.root,
            parent: 0,
            name: active.name,
            start: active.start,
            dur: Some(latency),
            arg: Some(match &active.arg {
                Some(extra) => format!("{status} {extra}"),
                None => status.to_string(),
            }),
        });
        if latency >= SLOW_OP_THRESHOLD {
            self.retain_exemplar(&active, latency, status);
        }
        for rec in active.records {
            self.push_ring(rec);
        }
    }

    /// Keep the finished op in the top-K slowest set (latency descending,
    /// trace ID ascending as the deterministic tie-break).
    fn retain_exemplar(&mut self, active: &ActiveOp, latency: SimDuration, status: &'static str) {
        self.exemplars.push(Exemplar {
            trace: active.trace,
            name: active.name,
            start: active.start,
            latency,
            status,
            records: active.records.clone(),
        });
        self.exemplars
            .sort_by_key(|e| (std::cmp::Reverse(e.latency), e.trace));
        self.exemplars.truncate(EXEMPLAR_CAPACITY);
    }

    /// Record a completed span. Routed to the active op's staging buffer
    /// when it belongs to that trace, else straight to the flight
    /// recorder.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        trace: u64,
        span: u64,
        parent: u64,
        name: &'static str,
        start: SimTime,
        dur: SimDuration,
        arg: Option<String>,
    ) {
        if !self.cfg.enabled {
            return;
        }
        self.route(TraceRecord {
            trace,
            span,
            parent,
            name,
            start,
            dur: Some(dur),
            arg,
        });
    }

    /// Record an instant event.
    pub fn instant(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        at: SimTime,
        arg: Option<String>,
    ) {
        if !self.cfg.enabled {
            return;
        }
        self.route(TraceRecord {
            trace,
            span: 0,
            parent,
            name,
            start: at,
            dur: None,
            arg,
        });
    }

    fn route(&mut self, rec: TraceRecord) {
        if let Some(active) = &mut self.active {
            if rec.trace == active.trace {
                active.records.push(rec);
                return;
            }
        }
        self.push_ring(rec);
    }

    fn push_ring(&mut self, rec: TraceRecord) {
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }

    /// Number of records evicted from (or refused by) the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// FNV-1a digest over every record currently retained (flight
    /// recorder first, then exemplar trees). Same seed ⇒ same digest,
    /// independent of host timing.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for rec in &self.ring {
            hash_record(&mut h, rec);
        }
        for ex in &self.exemplars {
            h.bytes(ex.name.as_bytes());
            h.u64(ex.trace);
            h.u64(ex.start.as_nanos());
            h.u64(ex.latency.as_nanos());
            h.bytes(ex.status.as_bytes());
            for rec in &ex.records {
                hash_record(&mut h, rec);
            }
        }
        h.finish()
    }

    /// Snapshot everything retained so far for export.
    pub fn export(&self) -> TraceExport {
        TraceExport {
            records: self.ring.iter().cloned().collect(),
            exemplars: self.exemplars.clone(),
            dropped: self.dropped,
            digest: self.digest(),
        }
    }
}

fn hash_record(h: &mut Fnv, rec: &TraceRecord) {
    h.bytes(rec.name.as_bytes());
    h.u64(rec.trace);
    h.u64(rec.span);
    h.u64(rec.parent);
    h.u64(rec.start.as_nanos());
    match rec.dur {
        Some(d) => {
            h.u64(1);
            h.u64(d.as_nanos());
        }
        None => h.u64(0),
    }
    if let Some(arg) = &rec.arg {
        h.bytes(arg.as_bytes());
    }
}

/// FNV-1a 64-bit (the workspace's standard seedable content hash).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything a tracer retained, ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceExport {
    /// Flight-recorder contents, oldest first.
    pub records: Vec<TraceRecord>,
    /// Slow-op exemplars, slowest first.
    pub exemplars: Vec<Exemplar>,
    /// Records evicted from the ring before export.
    pub dropped: u64,
    /// Deterministic digest (see [`Tracer::digest`]).
    pub digest: u64,
}

impl TraceExport {
    /// Compact JSONL: one object per line. Line kinds:
    ///
    /// - `meta` — digest (hex), drop count, record/exemplar counts;
    /// - `rec` — one flight-recorder record;
    /// - `exemplar` — one slow-op header;
    /// - `exrec` — one record of the preceding exemplar's tree.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"kind\":\"meta\",\"digest\":\"{:016x}\",\"dropped\":{},\"records\":{},\"exemplars\":{}}}\n",
            self.digest,
            self.dropped,
            self.records.len(),
            self.exemplars.len()
        ));
        for rec in &self.records {
            record_line(&mut out, "rec", rec);
        }
        for ex in &self.exemplars {
            out.push_str(&format!(
                "{{\"kind\":\"exemplar\",\"trace\":{},\"name\":{},\"start_ns\":{},\"latency_ns\":{},\"status\":{}}}\n",
                ex.trace,
                json_str(ex.name),
                ex.start.as_nanos(),
                ex.latency.as_nanos(),
                json_str(ex.status)
            ));
            for rec in &ex.records {
                record_line(&mut out, "exrec", rec);
            }
        }
        out
    }

    /// Chrome trace-event JSON (the `traceEvents` array format), loadable
    /// in Perfetto / `chrome://tracing`. Spans become `"X"` (complete)
    /// events and instants `"i"` events; each trace renders as its own
    /// thread (`tid` = trace ID) so one operation reads as one track.
    /// Records retained both in the flight recorder and in an exemplar
    /// tree are emitted once.
    pub fn to_chrome_json(&self) -> String {
        let mut seen: std::collections::HashSet<(u64, u64, u64, u64, &str)> =
            std::collections::HashSet::new();
        let mut events: Vec<String> = Vec::new();
        for ex in &self.exemplars {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                ex.trace,
                json_str(&format!("slow {} ({})", ex.name, ex.latency))
            ));
        }
        for rec in self
            .records
            .iter()
            .chain(self.exemplars.iter().flat_map(|e| e.records.iter()))
        {
            let key = (
                rec.trace,
                rec.span,
                rec.parent,
                rec.start.as_nanos(),
                rec.name,
            );
            if !seen.insert(key) {
                continue;
            }
            events.push(chrome_event(rec));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Append one JSONL record line.
fn record_line(out: &mut String, kind: &str, rec: &TraceRecord) {
    out.push_str(&format!(
        "{{\"kind\":\"{kind}\",\"trace\":{},\"span\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"dur_ns\":{},\"arg\":{}}}\n",
        rec.trace,
        rec.span,
        rec.parent,
        json_str(rec.name),
        rec.start.as_nanos(),
        rec.dur
            .map_or_else(|| "null".to_string(), |d| d.as_nanos().to_string()),
        rec.arg
            .as_deref()
            .map_or_else(|| "null".to_string(), json_str),
    ));
}

/// One Chrome trace event. `ts`/`dur` are microseconds; sub-microsecond
/// precision is kept as a fixed three-decimal fraction so output is
/// byte-deterministic.
fn chrome_event(rec: &TraceRecord) -> String {
    let ts = micros(rec.start.as_nanos());
    let args = format!(
        "{{\"span\":{},\"parent\":{}{}}}",
        rec.span,
        rec.parent,
        rec.arg
            .as_deref()
            .map_or(String::new(), |a| format!(",\"arg\":{}", json_str(a)))
    );
    match rec.dur {
        Some(d) => format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"dur\":{},\"args\":{args}}}",
            json_str(rec.name),
            rec.trace,
            micros(d.as_nanos())
        ),
        None => format!(
            "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\"args\":{args}}}",
            json_str(rec.name),
            rec.trace
        ),
    }
}

/// Nanoseconds as a decimal microsecond literal (`"12.345"`).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Minimal JSON string escape (the trace emits ASCII names and args).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut tr = Tracer::new(TraceConfig::disabled());
        assert!(!tr.enabled());
        let ctx = tr.begin_op("op.search", t(0));
        assert_eq!(ctx, SpanCtx::NONE);
        tr.instant(0, 0, "x", t(1), None);
        tr.end_op(SimDuration::from_millis(50), "ok");
        let export = tr.export();
        assert!(export.records.is_empty());
        assert!(export.exemplars.is_empty());
    }

    #[test]
    fn sampled_op_lands_in_ring_with_root_span() {
        let mut tr = Tracer::new(TraceConfig::full());
        let ctx = tr.begin_op("op.modify", t(0));
        assert!(ctx.is_active());
        let stage = tr.alloc_span();
        tr.span(
            ctx.trace,
            stage,
            ctx.span,
            "stage.access",
            t(0),
            SimDuration::from_micros(80),
            None,
        );
        tr.end_op(SimDuration::from_micros(300), "ok");
        let export = tr.export();
        assert_eq!(export.records.len(), 2);
        let root = export.records.last().unwrap();
        assert_eq!(root.name, "op.modify");
        assert_eq!(root.parent, 0);
        assert_eq!(export.records[0].parent, root.span);
        // Fast op: no exemplar.
        assert!(export.exemplars.is_empty());
    }

    #[test]
    fn exemplars_keep_top_k_by_latency() {
        let mut tr = Tracer::new(TraceConfig::full());
        // A slow op keeps its whole staged tree, root span included.
        let ctx = tr.begin_op("op.add", t(0));
        tr.instant(ctx.trace, ctx.span, "qos.shed", t(5), None);
        tr.end_op(SimDuration::from_millis(12), "timeout");
        let export = tr.export();
        assert_eq!(export.exemplars.len(), 1);
        assert_eq!(export.exemplars[0].records.len(), 2);
        // 17 slow ops at 12 ms and 13..=28 ms: the fastest one falls out.
        for ms in 13u64..=28 {
            tr.begin_op("op.search", t(0));
            tr.end_op(SimDuration::from_millis(ms), "ok");
        }
        let latencies: Vec<u64> = tr
            .export()
            .exemplars
            .iter()
            .map(|e| e.latency.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(EXEMPLAR_CAPACITY, 16);
        assert_eq!(latencies, (13u64..=28).rev().collect::<Vec<_>>());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut tr = Tracer::new(TraceConfig::full());
        let records = RING_CAPACITY as u64 + 1;
        for i in 0..records {
            tr.instant(0, 0, "fault.crash", SimTime(i), None);
        }
        let export = tr.export();
        assert_eq!(records, 65_537);
        assert_eq!(export.records.len(), RING_CAPACITY);
        assert_eq!(export.dropped, 1);
        assert_eq!(export.records[0].start, SimTime(1));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let run = |extra: bool| {
            let mut tr = Tracer::new(TraceConfig::full());
            let ctx = tr.begin_op("op.search", t(0));
            tr.instant(ctx.trace, ctx.span, "loc.stale_retry", t(1), None);
            if extra {
                tr.instant(ctx.trace, ctx.span, "qos.shed", t(2), None);
            }
            tr.end_op(SimDuration::from_micros(500), "ok");
            tr.digest()
        };
        assert_eq!(run(false), run(false));
        assert_ne!(run(false), run(true));
    }

    #[test]
    fn background_records_bypass_active_staging() {
        let mut tr = Tracer::new(TraceConfig::full());
        let ctx = tr.begin_op("op.search", t(0));
        tr.instant(0, 0, "repl.deliver_batch", t(1), None);
        tr.end_op(SimDuration::from_micros(100), "ok");
        let export = tr.export();
        // Background instant first (direct to ring), then the op's root.
        assert_eq!(export.records[0].name, "repl.deliver_batch");
        assert_eq!(export.records[0].trace, 0);
        assert_eq!(export.records[1].trace, ctx.trace);
    }

    #[test]
    fn jsonl_has_meta_and_counts() {
        let mut tr = Tracer::new(TraceConfig::full());
        let ctx = tr.begin_op("op.compare", t(0));
        tr.instant(
            ctx.trace,
            ctx.span,
            "qos.degrade",
            t(1),
            Some("x\"y".into()),
        );
        tr.end_op(SimDuration::from_millis(11), "ok");
        let export = tr.export();
        let jsonl = export.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"kind\":\"meta\""));
        assert!(lines[0].contains(&format!("{:016x}", export.digest)));
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"rec\""))
                .count(),
            export.records.len()
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"exemplar\""))
                .count(),
            1
        );
        // Escaped quote survives.
        assert!(jsonl.contains("x\\\"y"));
    }

    #[test]
    fn chrome_json_dedups_exemplar_overlap() {
        let mut tr = Tracer::new(TraceConfig::full());
        tr.begin_op("op.search", t(0));
        tr.end_op(SimDuration::from_millis(20), "ok");
        let chrome = tr.export().to_chrome_json();
        // The root span is in both the ring and the exemplar tree but must
        // appear once.
        assert_eq!(chrome.matches("\"ph\":\"X\"").count(), 1);
        assert!(chrome.contains("\"ph\":\"M\""));
        // 20 ms ⇒ ts dur 20000.000 µs.
        assert!(chrome.contains("\"dur\":20000.000"));
    }

    #[test]
    fn span_ids_are_seed_free_and_monotonic() {
        let mut tr = Tracer::new(TraceConfig::full());
        let a = tr.alloc_span();
        let b = tr.alloc_span();
        assert!(b > a);
    }
}
