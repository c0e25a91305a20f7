//! Machine-readable experiment output: a `BENCH_<name>.json` file next to
//! the human-readable table, so the perf trajectory of an experiment can
//! be tracked across PRs (`{"name", "seed", "config": {...}, "rows":
//! [{...}, ...]}`). Hand-rolled serialisation — config and rows hold
//! scalars only (the flat shape `tools/bench_compare.py` diffs); the
//! optional top-level `"metrics"` object may nest (full histogram
//! snapshots live there, see [`BenchReport::metrics`]).

use std::fmt::Write as _;
use std::path::PathBuf;

use udr_metrics::HistogramSnapshot;

/// One cell in a report.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// An integer.
    Int(i64),
    /// A float (non-finite values serialise as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// Explicit null (e.g. "no sync window").
    Null,
    /// A nested array. Only valid under the report's `"metrics"` key —
    /// `config` and `rows` stay flat so row-diffing tools keep working.
    Array(Vec<JsonValue>),
    /// A nested object (same restriction as [`JsonValue::Array`]).
    Object(Vec<(String, JsonValue)>),
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v as i64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Int(v as i64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn value_into(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        JsonValue::Float(f) if f.is_finite() => {
            let _ = write!(out, "{f}");
        }
        JsonValue::Float(_) | JsonValue::Null => out.push_str("null"),
        JsonValue::Str(s) => escape_into(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                value_into(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(pairs) => object_into(out, pairs),
    }
}

fn object_into(out: &mut String, pairs: &[(String, JsonValue)]) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        escape_into(out, k);
        out.push_str(": ");
        value_into(out, v);
    }
    out.push('}');
}

/// A machine-readable experiment report: configuration, seed and one
/// object per result row.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    name: String,
    seed: u64,
    config: Vec<(String, JsonValue)>,
    metrics: Vec<(String, JsonValue)>,
    rows: Vec<Vec<(String, JsonValue)>>,
}

impl BenchReport {
    /// A report for experiment `name` (e.g. `"e19"`) run under `seed`.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        BenchReport {
            name: name.into(),
            seed,
            ..BenchReport::default()
        }
    }

    /// Record one configuration knob.
    pub fn config(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        self.config.push((key.into(), value.into()));
        self
    }

    /// Record one entry of the top-level `"metrics"` object — the one
    /// place nested values ([`JsonValue::Array`]/[`JsonValue::Object`],
    /// e.g. full histogram snapshots) are allowed. The section is only
    /// emitted when non-empty, so reports that never call this
    /// serialise byte-identically to before it existed.
    pub fn metrics(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        self.metrics.push((key.into(), value.into()));
        self
    }

    /// Append one result row of `(column, value)` cells.
    pub fn row(&mut self, cells: Vec<(&str, JsonValue)>) -> &mut Self {
        self.rows
            .push(cells.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        self
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serialise the report.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.rows.len() * 128);
        out.push_str("{\n  \"name\": ");
        escape_into(&mut out, &self.name);
        let _ = write!(out, ",\n  \"seed\": {},\n  \"config\": ", self.seed);
        object_into(&mut out, &self.config);
        if !self.metrics.is_empty() {
            out.push_str(",\n  \"metrics\": ");
            object_into(&mut out, &self.metrics);
        }
        out.push_str(",\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    ");
            object_into(&mut out, row);
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<NAME>.json` into the current directory, returning
    /// the path. Panics, failing the run, when the file cannot be written.
    pub fn write(&self) -> PathBuf {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        if let Err(e) = std::fs::write(&path, self.to_json()) {
            panic!("cannot write {}: {e}", path.display());
        }
        path
    }
}

/// Serialise one latency [`HistogramSnapshot`] as a nested object:
/// headline stats plus the full `(bucket_floor_ns, count)` table. Only
/// valid under a report's `"metrics"` key.
fn histogram_value(s: &HistogramSnapshot) -> JsonValue {
    JsonValue::Object(vec![
        ("count".into(), s.count.into()),
        ("mean_ns".into(), s.mean_ns.into()),
        ("min_ns".into(), s.min_ns.into()),
        ("max_ns".into(), s.max_ns.into()),
        ("p50_ns".into(), s.p50_ns.into()),
        ("p99_ns".into(), s.p99_ns.into()),
        (
            "buckets".into(),
            JsonValue::Array(
                s.buckets
                    .iter()
                    .map(|&(floor, count)| JsonValue::Array(vec![floor.into(), count.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// Serialise a run's per-stage latency histograms as one object keyed
/// by pipeline stage — the [`udr_core::UdrMetrics`] snapshot experiments
/// embed under their report's `"metrics"` key.
pub fn stage_latency_value(m: &udr_core::StageLatencyMetrics) -> JsonValue {
    JsonValue::Object(vec![
        ("access".into(), histogram_value(&m.access.snapshot())),
        ("location".into(), histogram_value(&m.location.snapshot())),
        (
            "replication".into(),
            histogram_value(&m.replication.snapshot()),
        ),
        ("storage".into(), histogram_value(&m.storage.snapshot())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serialises_typed_cells() {
        let mut r = BenchReport::new("e99", 42);
        r.config("subscribers", 1000u64).config("locator", "maps");
        r.row(vec![
            ("phase", "scale-out".into()),
            ("latency_us", 12.5.into()),
            ("blocked", 3u64.into()),
            ("window", JsonValue::Null),
        ]);
        let json = r.to_json();
        assert!(json.contains("\"name\": \"e99\""));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"subscribers\": 1000"));
        assert!(json.contains("\"latency_us\": 12.5"));
        assert!(json.contains("\"window\": null"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = BenchReport::new("e\"x\"", 1);
        r.row(vec![("k", "a\\b\nc".into())]);
        let json = r.to_json();
        assert!(json.contains("\"e\\\"x\\\"\""));
        assert!(json.contains("a\\\\b\\nc"));
    }

    #[test]
    fn option_cells_map_to_null() {
        let none: Option<u64> = None;
        assert_eq!(JsonValue::from(none), JsonValue::Null);
        assert_eq!(JsonValue::from(Some(3u64)), JsonValue::Int(3));
    }

    #[test]
    fn metrics_section_nests_and_is_omitted_when_empty() {
        let mut r = BenchReport::new("e98", 7);
        r.row(vec![("k", 1u64.into())]);
        assert!(!r.to_json().contains("\"metrics\""));

        let mut hist = udr_metrics::Histogram::default();
        hist.record(udr_model::time::SimDuration::from_micros(250));
        r.metrics("stage_latency", histogram_value(&hist.snapshot()));
        let json = r.to_json();
        assert!(json.contains("\"metrics\": {\"stage_latency\": {\"count\": 1"));
        assert!(json.contains("\"buckets\": [["));
        // The nested section parses as JSON (round-trip through the
        // schema checker's expectations is covered in CI).
        assert!(json.contains("\"rows\": [\n"));
    }
}
