//! Offline stand-in for `criterion`.
//!
//! The registry is unreachable in this build environment, so this crate
//! implements the criterion API surface the benches use — groups with an
//! element-throughput annotation, `bench_function` over
//! `iter_batched_ref`, the `criterion_group!`/`criterion_main!` macros —
//! on top of a small wall-clock timing loop. Numbers print as mean
//! ns/iter without statistical machinery; good enough to compare hot
//! paths and to keep bench targets compiling and runnable.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How long each benchmark is measured for.
const MEASURE_TARGET: Duration = Duration::from_millis(200);

/// Batch sizing hint (accepted, not load-bearing here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Timing loop handed to the benchmark closure.
pub struct Bencher {
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Measure a routine over fresh setup state each iteration, passing the
    /// state by mutable reference (setup time excluded).
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        let mut measured = Duration::ZERO;
        let mut iters = 0u64;
        while measured < MEASURE_TARGET {
            let mut input = setup();
            let start = Instant::now();
            black_box(routine(&mut input));
            measured += start.elapsed();
            iters += 1;
            drop(input);
        }
        self.total = measured;
        self.iters = iters;
    }
}

fn report(group: &str, id: &str, b: &Bencher, throughput: Option<Throughput>) {
    if b.iters == 0 {
        println!("{group}/{id}: no iterations recorded");
        return;
    }
    let ns = b.total.as_nanos() as f64 / b.iters as f64;
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:.0} elem/s", n as f64 * 1e9 / ns)
        }
        None => String::new(),
    };
    println!("{group}/{id}: {ns:.1} ns/iter ({} iters){rate}", b.iters);
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Annotate per-iteration throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmark a routine.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            total: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        report(&self.name, &id.id, &b, self.throughput);
        self
    }

    /// End the group.
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _parent: self,
        }
    }
}

/// Declare a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declare the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
