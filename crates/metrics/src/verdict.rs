//! The CAP verdict: what one (replication mode × read policy × fault
//! scenario) cell actually gives up during a deterministic fault
//! campaign.
//!
//! The paper's whole argument is that a subscriber database must pick
//! its spot on the CAP spectrum *per procedure class*; a [`CapVerdict`]
//! turns that claim into numbers a CI assertion can hold. Each cell
//! records its availability windows (operations attempted and served
//! while the fault was active vs outside it), the consistency debt it
//! accrued (stale reads, broken guarantees, multi-master divergence),
//! the durability outcome (acknowledged writes lost or records
//! duplicated after heal — always asserted zero), and how long the
//! deployment took to re-converge after the fault cleared.
//!
//! Failure classification is the load-bearing part: a fault campaign
//! must distinguish **unavailable by design** (the typed availability
//! errors a CP-leaning configuration is *supposed* to return while cut
//! off) from **a bug** (data-level errors, which no fault should ever
//! produce). [`CapVerdict::record`] splits the two using
//! [`UdrError::is_availability_failure`], and additionally counts which
//! availability failures arrived as generic timeouts rather than typed
//! partition errors.

use udr_model::error::UdrError;
use udr_model::time::SimDuration;

/// Outcome accounting for one cell of the fault-campaign grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapVerdict {
    /// Replication mode label (e.g. `async-master-slave`).
    pub mode: String,
    /// Front-end read policy label (e.g. `nearest-copy`).
    pub policy: String,
    /// Fault scenario label (e.g. `clean-partition`).
    pub scenario: String,
    /// The PACELC class the configuration predicts for front-end traffic
    /// (e.g. `PA/EL`) — what the measured shape is checked against.
    pub expected_pacelc: String,
    /// Read procedures attempted while the fault was active.
    pub reads_in_fault: u64,
    /// Read procedures served while the fault was active.
    pub reads_ok_in_fault: u64,
    /// Write operations attempted while the fault was active.
    pub writes_in_fault: u64,
    /// Write operations acknowledged while the fault was active.
    pub writes_ok_in_fault: u64,
    /// Read procedures attempted outside fault windows.
    pub reads_outside: u64,
    /// Read procedures served outside fault windows.
    pub reads_ok_outside: u64,
    /// Write operations attempted outside fault windows.
    pub writes_outside: u64,
    /// Write operations acknowledged outside fault windows.
    pub writes_ok_outside: u64,
    /// Failures that are the configuration refusing to serve — typed
    /// availability errors (unreachable master, failed replication
    /// requirement, shed load). CP-leaning cells are *expected* to
    /// accrue these while cut off.
    pub unavailable_by_design: u64,
    /// Failures that indicate a bug: data-level errors no fault should
    /// produce (unknown identity, missing record, lock conflict).
    /// Asserted zero in every cell.
    pub unexpected_failures: u64,
    /// Availability failures that surfaced as generic [`UdrError::Timeout`]
    /// rather than a typed partition error — loss-induced timeouts are
    /// legitimate (a dropped message *is* a timeout to the client), but a
    /// clean partition should never produce one.
    pub generic_timeouts: u64,
    /// Reads that returned stale data (from the staleness tracker).
    pub stale_reads: u64,
    /// Broken bounded-staleness / session guarantees. Asserted zero:
    /// guarded policies fail closed, never lie.
    pub guarantee_violations: u64,
    /// Acknowledged writes whose value was missing after heal (oracle
    /// scan). Asserted zero in every cell.
    pub lost_acked_writes: u64,
    /// Partition copies found outside their replica set after heal.
    /// Asserted zero in every cell.
    pub duplicated_records: u64,
    /// Multi-master consistency-restoration runs after heal.
    pub divergence_merges: u64,
    /// Conflicting records those merges resolved.
    pub merge_conflicts: u64,
    /// Time from the last fault window closing until replication fully
    /// re-converged (zero lag everywhere, no diverged branches).
    pub heal_time: SimDuration,
}

impl CapVerdict {
    /// A fresh verdict for one grid cell.
    pub fn new(
        mode: impl Into<String>,
        policy: impl Into<String>,
        scenario: impl Into<String>,
        expected_pacelc: impl Into<String>,
    ) -> Self {
        CapVerdict {
            mode: mode.into(),
            policy: policy.into(),
            scenario: scenario.into(),
            expected_pacelc: expected_pacelc.into(),
            ..CapVerdict::default()
        }
    }

    /// Record one driven operation: whether it was a write, whether a
    /// fault was active when it was issued, and its failure (if any).
    pub fn record(&mut self, is_write: bool, in_fault: bool, failure: Option<&UdrError>) {
        let (attempts, ok) = match (is_write, in_fault) {
            (false, true) => (&mut self.reads_in_fault, &mut self.reads_ok_in_fault),
            (true, true) => (&mut self.writes_in_fault, &mut self.writes_ok_in_fault),
            (false, false) => (&mut self.reads_outside, &mut self.reads_ok_outside),
            (true, false) => (&mut self.writes_outside, &mut self.writes_ok_outside),
        };
        *attempts += 1;
        match failure {
            None => *ok += 1,
            Some(e) if e.is_availability_failure() => {
                self.unavailable_by_design += 1;
                if matches!(e, UdrError::Timeout) {
                    self.generic_timeouts += 1;
                }
            }
            Some(_) => self.unexpected_failures += 1,
        }
    }

    fn ratio(ok: u64, attempts: u64) -> f64 {
        if attempts == 0 {
            1.0
        } else {
            ok as f64 / attempts as f64
        }
    }

    /// Fraction of in-fault reads that were served (1.0 with none).
    pub fn read_availability_in_fault(&self) -> f64 {
        Self::ratio(self.reads_ok_in_fault, self.reads_in_fault)
    }

    /// Fraction of in-fault writes that were acknowledged.
    pub fn write_availability_in_fault(&self) -> f64 {
        Self::ratio(self.writes_ok_in_fault, self.writes_in_fault)
    }

    /// Fraction of all in-fault operations that were served.
    pub fn availability_in_fault(&self) -> f64 {
        Self::ratio(
            self.reads_ok_in_fault + self.writes_ok_in_fault,
            self.reads_in_fault + self.writes_in_fault,
        )
    }

    /// Fraction of operations outside fault windows that were served.
    pub fn availability_outside(&self) -> f64 {
        Self::ratio(
            self.reads_ok_outside + self.writes_ok_outside,
            self.reads_outside + self.writes_outside,
        )
    }

    /// Total operations driven through the cell.
    pub fn total_ops(&self) -> u64 {
        self.reads_in_fault + self.writes_in_fault + self.reads_outside + self.writes_outside
    }

    /// The stance the cell *measured*: AP-leaning cells keep serving
    /// through the fault, CP-leaning cells show an unavailability window.
    pub fn observed_stance(&self) -> &'static str {
        if self.availability_in_fault() >= 0.99 {
            "AP-leaning"
        } else {
            "CP-leaning"
        }
    }

    /// Whether the cell upheld the non-negotiables every point of the
    /// spectrum must keep: no lost acknowledged writes, no duplicated
    /// records, no broken guarantees, no bug-class failures.
    pub fn sound(&self) -> bool {
        self.lost_acked_writes == 0
            && self.duplicated_records == 0
            && self.guarantee_violations == 0
            && self.unexpected_failures == 0
    }
}

/// The assembled verdict matrix: one [`CapVerdict`] per grid cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerdictMatrix {
    cells: Vec<CapVerdict>,
}

impl VerdictMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        VerdictMatrix::default()
    }

    /// Append one measured cell.
    pub fn push(&mut self, cell: CapVerdict) {
        self.cells.push(cell);
    }

    /// The measured cells, in insertion order.
    pub fn cells(&self) -> &[CapVerdict] {
        &self.cells
    }

    /// Number of measured cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells were measured.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Look up the cell for `(mode, policy, scenario)`.
    pub fn get(&self, mode: &str, policy: &str, scenario: &str) -> Option<&CapVerdict> {
        self.cells
            .iter()
            .find(|c| c.mode == mode && c.policy == policy && c.scenario == scenario)
    }

    /// Cells matching a predicate.
    pub fn select<'a>(
        &'a self,
        pred: impl Fn(&CapVerdict) -> bool + 'a,
    ) -> impl Iterator<Item = &'a CapVerdict> + 'a {
        self.cells.iter().filter(move |c| pred(c))
    }

    /// The distinct scenario labels, in first-seen order.
    pub fn scenarios(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.scenario.as_str()) {
                out.push(&c.scenario);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::ids::{SeId, SubscriberUid};

    fn cell() -> CapVerdict {
        CapVerdict::new("async", "nearest-copy", "clean-partition", "PA/EL")
    }

    #[test]
    fn record_splits_windows_and_classes() {
        let mut v = cell();
        v.record(false, true, None);
        v.record(false, true, None);
        v.record(
            false,
            true,
            Some(&UdrError::Unreachable {
                se: SeId(0),
                reason: "partition",
            }),
        );
        v.record(true, false, None);
        v.record(true, true, Some(&UdrError::Timeout));
        v.record(false, false, Some(&UdrError::NotFound(SubscriberUid(1))));
        assert_eq!(v.reads_in_fault, 3);
        assert_eq!(v.reads_ok_in_fault, 2);
        assert_eq!(v.writes_in_fault, 1);
        assert_eq!(v.writes_ok_in_fault, 0);
        assert_eq!(v.writes_outside, 1);
        assert_eq!(v.writes_ok_outside, 1);
        assert_eq!(v.unavailable_by_design, 2);
        assert_eq!(v.generic_timeouts, 1);
        assert_eq!(v.unexpected_failures, 1);
        assert_eq!(v.total_ops(), 6);
        assert!(!v.sound(), "a data-level failure is a bug");
    }

    #[test]
    fn availability_math() {
        let mut v = cell();
        assert_eq!(v.availability_in_fault(), 1.0);
        assert_eq!(v.availability_outside(), 1.0);
        for _ in 0..99 {
            v.record(false, true, None);
        }
        v.record(
            false,
            true,
            Some(&UdrError::Unreachable {
                se: SeId(1),
                reason: "partition",
            }),
        );
        assert!((v.read_availability_in_fault() - 0.99).abs() < 1e-9);
        assert!((v.availability_in_fault() - 0.99).abs() < 1e-9);
        assert_eq!(v.write_availability_in_fault(), 1.0);
        assert_eq!(v.observed_stance(), "AP-leaning");
        v.record(
            false,
            true,
            Some(&UdrError::Unreachable {
                se: SeId(1),
                reason: "partition",
            }),
        );
        assert_eq!(v.observed_stance(), "CP-leaning");
    }

    #[test]
    fn soundness_gate() {
        let mut v = cell();
        assert!(v.sound());
        v.lost_acked_writes = 1;
        assert!(!v.sound());
        v.lost_acked_writes = 0;
        v.guarantee_violations = 1;
        assert!(!v.sound());
    }

    #[test]
    fn matrix_lookup_and_axes() {
        let mut m = VerdictMatrix::new();
        m.push(cell());
        m.push(CapVerdict::new(
            "quorum(n=3,w=2,r=2)",
            "master-only",
            "clean-partition",
            "PC/EC",
        ));
        m.push(CapVerdict::new(
            "async",
            "nearest-copy",
            "wan-degradation",
            "PA/EL",
        ));
        assert_eq!(m.len(), 3);
        assert!(m.get("async", "nearest-copy", "clean-partition").is_some());
        assert!(m.get("async", "master-only", "clean-partition").is_none());
        assert_eq!(m.scenarios(), vec!["clean-partition", "wan-degradation"]);
        assert_eq!(m.select(|c| c.mode == "async").count(), 2);
    }
}
