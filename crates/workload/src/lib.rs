//! # udr-workload
//!
//! Workload generation for the experiments: deterministic subscriber
//! populations ([`population`]), Poisson front-end traffic with procedure
//! mixes, roaming, hotspots and re-registration storms ([`traffic`]), and fault
//! processes (random SE outages, periodic partitions — [`faultgen`]).
//!
//! The paper's claims are about *rates and mixes* — 1–3 LDAP ops per
//! typical procedure, read-mostly FE traffic vs write-heavy provisioning —
//! which these generators reproduce synthetically (no production traces
//! exist; see DESIGN.md substitutions). The [`retry`] module models the
//! client side of failure: retries re-enter the offered load, which is
//! what turns a transient overload into a metastable storm.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod faultgen;
pub mod population;
pub mod retry;
pub mod traffic;

pub use faultgen::{periodic_partitions, FaultPlacement, OutageProcess, PartitionScenario};
pub use population::{PopulationBuilder, Subscriber};
pub use retry::RetryPolicy;
pub use traffic::{
    ProcedureMix, SessionBook, StormKind, StormSpec, TenantSlice, TrafficEvent, TrafficModel,
};

/// Verdict and report rows key on `Display` labels, so no two of `values`
/// may print alike.
#[cfg(test)]
pub(crate) fn assert_distinct_labels<T: std::fmt::Display>(values: &[T]) {
    let labels: std::collections::HashSet<String> = values.iter().map(T::to_string).collect();
    assert_eq!(labels.len(), values.len(), "duplicate label in {labels:?}");
}
