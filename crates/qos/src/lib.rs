//! # udr-qos
//!
//! Admission control and overload protection for the UDR front door.
//!
//! The paper's availability story assumes the UDR stays *up* under
//! telecom signalling load, but real HLR/HSS deployments die to overload,
//! not to partitions: a site outage triggers mass re-registration, the
//! retry traffic of failed procedures re-enters the offered load, and the
//! system settles into a metastable state where it spends all capacity on
//! work that times out anyway. This crate is the missing layer between
//! the workload and the four-stage pipeline:
//!
//! * [`PriorityClass`] — per-procedure-kind priority (re-exported from
//!   `udr-model`, where `UdrError::Shed` carries it): emergency traffic
//!   outranks call setup outranks registration outranks queries outranks
//!   provisioning;
//! * [`TokenBucket`] / [`ClassBuckets`] — per-class rate ceilings where a
//!   starved high-priority class borrows budget downward before ever
//!   being shed (no priority inversion by construction);
//! * [`AdmissionController`] — one per blade cluster: combines the rate
//!   ceilings with CoDel-style queue-delay shedding (measure the LDAP
//!   station's queueing delay against per-class targets; sustained
//!   excess sheds the lowest classes first) and drives the adaptive
//!   consistency degradation of sustained overload;
//! * [`QosConfig`] — the knob set, disabled by default so existing
//!   deployments behave exactly as before.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod bucket;
pub mod config;

pub use admission::AdmissionController;
pub use bucket::{ClassBuckets, TokenBucket};
pub use config::{QosConfig, RateLimit};
pub use udr_model::qos::{PriorityClass, ShedReason};
