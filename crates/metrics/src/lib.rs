//! # udr-metrics
//!
//! The measurement substrate every experiment uses to regenerate the
//! paper's claims:
//!
//! * [`hist`] — log-bucketed latency histograms (the §2.3 10 ms target);
//! * [`availability`] — subscriber-seconds availability ledgers with the
//!   footnote-4 averaging semantics, plus per-class operation counters;
//! * [`staleness`] — stale-read accounting for slave reads (§3.3.2);
//! * [`guarantees`] — kept/broken-guarantee accounting for the
//!   intermediate read policies (bounded staleness, session guarantees);
//! * [`qos`] — per-priority-class offered/admitted/shed/goodput
//!   accounting for the admission-control subsystem;
//! * [`verdict`] — the CAP verdict matrix: per (replication mode × read
//!   policy × fault scenario) cell accounting of availability windows,
//!   consistency debt and post-heal durability for fault campaigns;
//! * [`series`] — gauge time series (PS back-log depth, §3.3);
//! * [`report`] — fixed-width tables for paper-style output.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod availability;
pub mod guarantees;
pub mod hist;
pub mod qos;
pub mod report;
pub mod series;
pub mod staleness;
pub mod verdict;

pub use availability::{AvailabilityLedger, OpCounter};
pub use guarantees::GuaranteeTracker;
pub use hist::{Histogram, HistogramSnapshot};
pub use qos::{ClassCounters, QosTracker, TenantCounters};
pub use report::{pct, thousands, Table};
pub use series::TimeSeries;
pub use staleness::StalenessTracker;
pub use verdict::{CapVerdict, VerdictMatrix};
