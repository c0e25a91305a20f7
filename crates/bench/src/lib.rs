//! # udr-bench
//!
//! The benchmark harness regenerating every figure and numeric claim of
//! the paper. Each experiment is a binary (`cargo run --release -p
//! udr-bench --bin eNN_*`); the shared scaffolding lives in the modules
//! here, and callers import through them (`udr_bench::campaign::run_cell`,
//! `udr_bench::harness::provisioned_system`). Two Criterion sweeps the
//! `udr-perf` ledger lacks live under `benches/`: `scale/intern` (fresh
//! identity interning) and `ldap/admit` (framed LDAP admission).
//!
//! See DESIGN.md §3 for the experiment ↔ paper mapping and EXPERIMENTS.md
//! for recorded paper-vs-measured results.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod campaign;
pub mod check;
pub mod consensus_harness;
pub mod harness;
pub mod json;
pub mod linear;
pub mod scale;
pub mod traceio;
