//! Writing trace exports next to the `BENCH_*.json` reports.
//!
//! Every `--trace` experiment run emits the same pair of files into the
//! current directory:
//!
//! - `TRACE_<name>.jsonl` — the compact line format
//!   `tools/trace_summarize.py` consumes;
//! - `TRACE_<name>.chrome.json` — Chrome trace-event JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.

use std::path::PathBuf;

use udr_trace::TraceExport;

/// Write `TRACE_<name>.jsonl` and `TRACE_<name>.chrome.json` into the
/// current directory, returning both paths (JSONL first).
pub fn write_trace_files(name: &str, export: &TraceExport) -> std::io::Result<(PathBuf, PathBuf)> {
    let jsonl = PathBuf::from(format!("TRACE_{name}.jsonl"));
    std::fs::write(&jsonl, export.to_jsonl())?;
    let chrome = PathBuf::from(format!("TRACE_{name}.chrome.json"));
    std::fs::write(&chrome, export.to_chrome_json())?;
    Ok((jsonl, chrome))
}

/// One-line summary of an export for experiment stdout: record and
/// exemplar counts, drops, and the deterministic digest.
pub fn trace_headline(export: &TraceExport) -> String {
    format!(
        "{} records, {} exemplars, {} dropped, digest {:016x}",
        export.records.len(),
        export.exemplars.len(),
        export.dropped,
        export.digest
    )
}

/// The `--trace` tail of e22 and e25: print the export's headline, write
/// both files and say where they went. Panics, failing the run, when the
/// files cannot be written.
pub fn emit_trace(name: &str, export: &TraceExport) {
    println!("trace: {}", trace_headline(export));
    let (jsonl, chrome) = write_trace_files(name, export).expect("write trace files");
    println!(
        "wrote {} and {}\n(open the .chrome.json in https://ui.perfetto.dev; \
         summarize with tools/trace_summarize.py {})",
        jsonl.display(),
        chrome.display(),
        jsonl.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_names_the_digest() {
        let export = TraceExport {
            records: Vec::new(),
            exemplars: Vec::new(),
            dropped: 0,
            digest: 0xabc,
        };
        assert!(trace_headline(&export).ends_with("digest 0000000000000abc"));
    }
}
