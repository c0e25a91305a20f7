//! # udr-core
//!
//! The assembled UDR network function of the paper: blade clusters with
//! PoAs, LDAP servers and data-location stages; geo-replicated Storage
//! Elements; the FE and PS client paths with their §3.3 routing policies;
//! fault handling (partitions, crashes, failover); multi-master
//! restoration; and the §3.5 capacity model.
//!
//! Every client operation runs through the explicit four-stage
//! [`pipeline`] (`AccessStage → LocationStage → ReplicationStage →
//! StorageStage`), which calls the serving cluster's
//! [`DataLocationStage`](udr_dls::DataLocationStage) and the routed
//! [`StorageElement`](udr_storage::StorageElement) directly. Every
//! decision that depends on the replication mode — the
//! [`ReplicationStage`] and the copy families' background work — lives in
//! [`replication`]; the Multi-Paxos ensembles live in [`consensus_mode`].
//! [`Udr`] itself is the deployment container and event pump. The access stage fronts
//! everything with per-cluster QoS admission control
//! ([`udr_qos::AdmissionController`], disabled by default): priority-
//! class-aware load shedding before an operation costs server CPU, and
//! adaptive consistency degradation under sustained overload.
//!
//! Entry points:
//! * [`Udr::build`] a deployment from [`UdrConfig`];
//! * [`Udr::execute`] with an [`OpRequest`] — FE operations and network
//!   procedures (session, priority, tenant and framing as builder
//!   options); [`Udr::provision_subscriber`] — PS lifecycle flows;
//! * [`Udr::schedule_script`] + [`Udr::advance_to`] — fault injection and
//!   virtual time;
//! * [`Udr::metrics`] — everything measured.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod capacity;
pub mod config;
pub mod consensus_mode;
pub mod metrics_agg;
pub mod ops;
pub mod pipeline;
pub mod procedures;
pub mod provisioning;
pub mod rebalance;
pub mod replication;
pub mod udr;

pub use capacity::CapacityModel;
pub use config::UdrConfig;
pub use metrics_agg::{StageLatencyMetrics, UdrMetrics};
pub use ops::{ExecOutcome, OpOutcome, OpPayload, OpRequest};
pub use pipeline::{AccessStage, LatencyBreakdown, LocationStage, PipelineCtx, StorageStage};
pub use procedures::{procedure_ops, ProcedureOutcome};
pub use provisioning::{BatchItem, BatchReport, ProvisionOutcome};
pub use rebalance::{MigrationPlan, MoveReason, Rebalancer};
pub use replication::ReplicationStage;
pub use udr::{Cluster, Udr, UdrEvent};
