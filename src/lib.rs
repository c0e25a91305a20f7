//! Umbrella crate re-exporting the full UDR reproduction.
#![deny(unsafe_code)]

pub use udr_consensus as consensus;
pub use udr_core as core;
pub use udr_dls as dls;
pub use udr_ldap as ldap;
pub use udr_metrics as metrics;
pub use udr_model as model;
pub use udr_preudc as preudc;
pub use udr_qos as qos;
pub use udr_replication as replication;
pub use udr_sim as sim;
pub use udr_storage as storage;
pub use udr_workload as workload;
