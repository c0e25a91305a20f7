//! # udr-bench
//!
//! The benchmark harness regenerating every figure and numeric claim of
//! the paper. Each experiment is a binary (`cargo run --release -p
//! udr-bench --bin eNN_*`); the shared scaffolding lives here. Criterion
//! microbenchmarks (storage engine, DLS lookup, LDAP codec, replication
//! apply) live under `benches/`.
//!
//! See DESIGN.md §3 for the experiment ↔ paper mapping and EXPERIMENTS.md
//! for recorded paper-vs-measured results.

#![warn(missing_docs)]

pub mod campaign;
pub mod consensus_harness;
pub mod harness;
pub mod json;
pub mod linear;
pub mod pump_campaign;
pub mod scale;
pub mod traceio;

pub use campaign::{run_cell, CampaignConfig, CellOutcome};
pub use consensus_harness::{
    committed_fraction, fate_latencies, settled_cluster, submit_paced, LatencyKind, SettledCluster,
};
pub use harness::{provisioned_system, run_events, Scenario};
pub use json::{BenchReport, JsonValue};
pub use linear::{HistOp, History, OpKind};
pub use pump_campaign::{run as run_pump, LaneRow, PumpCampaignConfig, PumpOutcome};
pub use scale::{run as run_scale, ScaleConfig, ScaleOutcome, StageStats};
pub use traceio::{trace_headline, write_trace_files};
