//! Time series of gauge values (e.g. the PS back-log depth of §3.3, which
//! "might cause a back-log of operations to grow at the PS").

use udr_model::time::SimTime;

/// An append-only `(time, value)` series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample; time must be non-decreasing (out-of-order samples
    /// are clamped to the last time).
    pub fn push(&mut self, at: SimTime, value: f64) {
        let at = match self.points.last() {
            Some((last, _)) if *last > at => *last,
            _ => at,
        };
        self.points.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }

    /// Maximum value, if any.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|(_, v)| *v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// Render a compact sparkline-style summary for reports: sampled values
    /// at `n` evenly spaced indices.
    pub fn sampled(&self, n: usize) -> Vec<f64> {
        if self.points.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let idx = i * (self.points.len() - 1) / n.max(1).max(1);
                self.points[idx.min(self.points.len() - 1)].1
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn push_and_stats() {
        let mut s = TimeSeries::new();
        s.push(t(0), 0.0);
        s.push(t(10), 5.0);
        s.push(t(20), 1.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn out_of_order_clamps() {
        let mut s = TimeSeries::new();
        s.push(t(10), 1.0);
        s.push(t(5), 2.0); // clamped to t(10)
        assert_eq!(s.points()[1].0, t(10));
    }

    #[test]
    fn empty_series_defaults() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        assert_eq!(s.max(), None);
        assert!(s.sampled(5).is_empty());
    }

    #[test]
    fn sampled_returns_n_points() {
        let mut s = TimeSeries::new();
        for i in 0..100 {
            s.push(t(i), i as f64);
        }
        let v = s.sampled(10);
        assert_eq!(v.len(), 10);
        assert!(v[9] >= v[0]);
    }
}
