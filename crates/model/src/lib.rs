//! # udr-model
//!
//! Shared vocabulary for the UDR reproduction of *CAP Limits in Telecom
//! Subscriber Database Design* (Arauz, VLDB 2014): subscriber identities and
//! profiles, topology identifiers, the FRASH configuration knobs of §3, the
//! PACELC classification of §3.6, error types, and virtual time units.
//!
//! Everything here is deliberately dependency-light so that every other crate
//! (storage engine, replication, location stage, LDAP layer, simulator) can
//! speak the same types without cycles.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod attrs;
pub mod config;
pub mod error;
pub mod identity;
pub mod ids;
pub mod intern;
#[allow(unsafe_code)]
mod payload;
pub mod procedures;
pub mod profile;
pub mod qos;
pub mod session;
pub mod tenant;
pub mod time;

pub use attrs::{AttrId, AttrMod, AttrValue, Entry};
pub use config::{
    DurabilityMode, FrashConfig, IsolationLevel, LocatorKind, Pacelc, PlacementPolicy, ReadPolicy,
    ReplicationMode, TxnClass,
};
pub use error::{UdrError, UdrResult};
pub use identity::{Identity, IdentityKind, IdentitySet, Impi, Impu, Imsi, Msisdn};
pub use ids::{
    ClusterId, FrontEndId, LdapServerId, PartitionId, PoaId, ProvisioningSystemId, ReplicaId,
    ReplicaRole, SeId, SiteId, SubPartitionId, SubscriberUid,
};
pub use intern::IdentityInterner;
pub use procedures::{ProcedureKind, ProvisioningKind};
pub use profile::SubscriberProfile;
pub use qos::{PriorityClass, ShedReason};
pub use session::{RawLsn, SessionToken};
pub use tenant::{Capability, CapabilitySet, TenantBudget, TenantDirectory, TenantGrant, TenantId};
pub use time::{SimDuration, SimTime};

/// Verdict and report rows key on `Display` labels, so no two of `values`
/// may print alike.
#[cfg(test)]
pub(crate) fn assert_distinct_labels<T: std::fmt::Display>(values: &[T]) {
    let labels: std::collections::HashSet<String> = values.iter().map(T::to_string).collect();
    assert_eq!(labels.len(), values.len(), "duplicate label in {labels:?}");
}
