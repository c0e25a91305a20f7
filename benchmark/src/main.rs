//! `udr-perf` — a host-time benchmark of the full UDR request pipeline.
//!
//! `udr-perf --workload W --seed N --seconds S --trace 0|1 [--out-dir DIR]`
//!
//! `--trace 0` runs a few identical repetitions through
//! `Udr::execute` and reports the end-to-end metrics; `--trace 1` drives
//! the same stream stage by stage, replays it against one crate at a time
//! and reports the per-layer metrics. The last line of standard output is
//! the result object `BENCHMARK.json`'s contract asks for; `--out-dir` also
//! gets the metrics with clock and sample count for `run.sh` to collect,
//! and the traced run's spans.

mod alloc;
mod drive;
mod inputs;
mod isolated;
mod stats;
mod traced;
mod untraced;

use std::process::ExitCode;

use inputs::Inputs;
use stats::Metrics;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What a run hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, in words; empty means correct.
    pub check_failures: Vec<String>,
    /// Sim-side fingerprint, for diffing parent against change.
    pub digest: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 12,
        trace: false,
        out_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--out-dir" => args.out_dir = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("udr-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = inputs::find(&args.workload) else {
        let names: Vec<_> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("udr-perf: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };

    let inputs = Inputs::generate(spec, args.seed, args.seconds);
    let outcome = if args.trace {
        traced::run(spec, &inputs, args.seed, args.out_dir.as_deref())
    } else {
        untraced::run(spec, &inputs, args.seed)
    };

    println!(
        "{} — {}\n{} seed {} trace {}: {} ops/repetition over {} subscribers, digest {:016x}",
        spec.name,
        spec.why,
        spec.name,
        args.seed,
        u8::from(args.trace),
        inputs.ops.len(),
        inputs.subs.len(),
        outcome.digest
    );
    print!("{}", outcome.metrics.table());
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    if let Some(dir) = &args.out_dir {
        let path = format!(
            "{dir}/result_{}_{}.members",
            spec.name,
            u8::from(args.trace)
        );
        if let Err(e) = std::fs::write(&path, outcome.metrics.result_members()) {
            eprintln!("udr-perf: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.check_failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        outcome.metrics.driver_json()
    );
    ExitCode::SUCCESS
}
