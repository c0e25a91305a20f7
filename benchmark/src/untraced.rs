//! `--trace 0`: the end-to-end metrics, from identical repetitions
//! through `Udr::execute`.
//!
//! The repetitions do identical work, so host-time figures take the median
//! over repetitions, slice by slice and operation by operation. The
//! median, not the minimum: this box alternates between a quiet state and
//! a ~15 % slower one it spends most of its time in, for seconds at a
//! stretch, so a minimum reads one state or the other depending on whether
//! a repetition happened to catch the rarer quiet spell.

use udr_trace::TraceConfig;

use crate::drive::{run_rep, Drive, Rep, SEGMENTS};
use crate::inputs::{Inputs, Spec};
use crate::stats::{proc_status_kb, quantile, Clock, Metrics};
use crate::Outcome;

/// Median of one reading across the repetitions.
fn median_across<T: Copy + PartialOrd>(reps: &[Rep], reading: impl Fn(&Rep) -> T) -> T {
    let mut readings: Vec<T> = reps.iter().map(reading).collect();
    readings.sort_by(|a, b| a.partial_cmp(b).expect("readings are numbers"));
    readings[readings.len() / 2]
}

/// Per-operation host latency, median across repetitions, ascending.
fn median_op_ns_sorted(reps: &[Rep]) -> Vec<u32> {
    let n = reps[0].op_ns.len();
    let mut ns: Vec<u32> = (0..n)
        .map(|i| median_across(reps, |r| r.op_ns[i]))
        .collect();
    ns.sort_unstable();
    ns
}

/// Σ over slices of that slice's median wall time across repetitions.
fn median_segment_ns(reps: &[Rep]) -> u64 {
    (0..SEGMENTS)
        .map(|s| median_across(reps, |r| r.seg_ns[s]))
        .sum()
}

/// Sim latencies of the successful operations, ascending.
fn ok_sim_ns_sorted(rep: &Rep) -> Vec<u64> {
    let mut ns: Vec<u64> = rep
        .sim_ns
        .iter()
        .zip(&rep.ok)
        .filter_map(|(&ns, &ok)| ok.then_some(ns))
        .collect();
    ns.sort_unstable();
    ns
}

/// Everything but host time must repeat bit for bit across repetitions.
fn check_identical(reps: &[Rep], failures: &mut Vec<String>) {
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.digest != first.digest {
            failures.push(format!(
                "sim-time digest of repetition {i} is {:016x}, of repetition 0 {:016x}",
                rep.digest, first.digest
            ));
        }
        // The measured phase allocates only inside the library, from one
        // thread, on identical inputs; a difference means the library's
        // behaviour depends on something other than its inputs (hash-map
        // iteration order is the usual source).
        if rep.measured_allocs != first.measured_allocs {
            failures.push(format!(
                "allocator counts of repetition {i} are {:?}, of repetition 0 {:?}",
                rep.measured_allocs, first.measured_allocs
            ));
        }
    }
}

pub fn run(spec: &Spec, inputs: &Inputs, seed: u64) -> Outcome {
    let reps: Vec<Rep> = (0..spec.reps)
        .map(|_| run_rep(spec, inputs, seed, Drive::Execute, TraceConfig::disabled()))
        .collect();
    let first = &reps[0];
    let n_ops = inputs.ops.len() as u64;

    let mut check_failures = first.check_failures.clone();
    check_identical(&reps, &mut check_failures);

    for (i, rep) in reps.iter().enumerate() {
        let mut sorted = rep.op_ns.clone();
        sorted.sort_unstable();
        println!(
            "repetition {i}: set-up {:.3} s, measured {:.3} s, p50 {:.3} us",
            rep.setup_s,
            rep.seg_ns.iter().sum::<u64>() as f64 / 1e9,
            f64::from(quantile(&sorted, 0.5)) / 1e3
        );
    }
    let op_ns = median_op_ns_sorted(&reps);
    let sim_ns = ok_sim_ns_sorted(first);
    let mut m = Metrics::default();
    m.push(
        "setup_s",
        median_across(&reps, |r| r.setup_s),
        "s",
        Clock::Host,
        spec.reps as u64,
    );
    m.push(
        "ops_per_s",
        n_ops as f64 / (median_segment_ns(&reps) as f64 / 1e9),
        "1/s",
        Clock::Host,
        n_ops,
    );
    m.push(
        "host_p50_us",
        f64::from(quantile(&op_ns, 0.5)) / 1e3,
        "us",
        Clock::Host,
        n_ops,
    );
    m.push(
        "host_p99_us",
        f64::from(quantile(&op_ns, 0.99)) / 1e3,
        "us",
        Clock::Host,
        n_ops,
    );
    m.push(
        "alloc_bytes_per_op",
        first.measured_allocs.bytes as f64 / n_ops as f64,
        "B",
        Clock::Count,
        n_ops,
    );
    m.push(
        "allocs_per_op",
        first.measured_allocs.calls as f64 / n_ops as f64,
        "1",
        Clock::Count,
        n_ops,
    );
    m.push(
        "peak_rss_mb",
        proc_status_kb("VmHWM:") as f64 / 1024.0,
        "MB",
        Clock::Host,
        1,
    );
    m.push(
        "sim_p50_us",
        quantile(&sim_ns, 0.5) as f64 / 1e3,
        "sim_us",
        Clock::Sim,
        sim_ns.len() as u64,
    );
    m.push(
        "sim_p99_us",
        quantile(&sim_ns, 0.99) as f64 / 1e3,
        "sim_us",
        Clock::Sim,
        sim_ns.len() as u64,
    );

    Outcome {
        metrics: m,
        attempted: n_ops,
        failed: first.failed,
        check_failures,
        digest: first.digest,
    }
}
