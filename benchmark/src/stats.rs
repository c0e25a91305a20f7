//! Small shared pieces: percentiles, the digest hash, procfs readings and
//! the metric record both output formats are printed from.

use std::fmt::Write as _;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`).
pub fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("field present in /proc/self/status")
}

/// The value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Which clock (or none) a metric is read from.
#[derive(Clone, Copy)]
pub enum Clock {
    /// Wall time of this machine: how fast the engine runs.
    Host,
    /// The simulated clock: what the modelled design delivers. Must not
    /// move under a host-time optimisation.
    Sim,
    /// An exact count; repeats bit for bit on a seed.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Samples behind the value.
    pub n: u64,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        clock: Clock,
        n: u64,
    ) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not a finite number");
        self.0.push(Metric {
            name,
            value,
            unit,
            clock,
            n,
        });
    }

    /// A plain table for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            writeln!(
                out,
                "  {:<34} {:>18.4} {:<6} {:<5} n={}",
                m.name,
                m.value,
                m.unit,
                m.clock.label(),
                m.n
            )
            .expect("write to String");
        }
        out
    }

    /// The `metrics` object of the driver's result line.
    pub fn driver_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The members (no braces) of this run's object in `result.json`, so
    /// `run.sh` can join the untraced and traced runs of one workload.
    pub fn result_members(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"clock\": \"{}\", \"n\": {}}}",
                    m.name,
                    m.value,
                    m.unit,
                    m.clock.label(),
                    m.n
                )
            })
            .collect();
        fields.join(",\n")
    }
}
