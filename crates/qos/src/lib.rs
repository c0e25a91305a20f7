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
//! * [`TokenBucket`] / [`ClassBuckets`] — one tenant's per-class rate
//!   budgets: each class spends from its own bucket only, and an empty
//!   bucket sheds that class ([`ShedReason::RateLimit`]);
//! * [`AdmissionController`] — one per blade cluster: CoDel-style
//!   queue-delay shedding (measure the LDAP station's queueing delay
//!   against per-class targets; sustained excess sheds the lowest
//!   classes first, so no priority inversion by construction) that
//!   drives the adaptive consistency degradation of sustained overload;
//! * [`QosConfig`] — the on/off switch, off by default so existing
//!   deployments behave exactly as before; the controller's timings are
//!   the constants [`SHED_TARGET`], [`SHED_INTERVAL`] and
//!   [`DEGRADE_AFTER`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod bucket;
pub mod config;

pub use admission::AdmissionController;
pub use bucket::{ClassBuckets, TokenBucket};
pub use config::{QosConfig, DEGRADE_AFTER, SHED_INTERVAL, SHED_TARGET};
pub use udr_model::qos::{PriorityClass, ShedReason};
