//! # udr-replication
//!
//! Replication for the UDR, covering every propagation scheme the paper
//! discusses:
//!
//! * [`shipping`] — the first realization's asynchronous master→slave log
//!   shipping (§3.3.1 decision 2), with FIFO channels, catch-up after
//!   partitions and snapshot reseeds after log truncation;
//! * [`migration`] — the lifecycle of a live partition move (a copy that
//!   catches up as a learner on its partition's shipping ledger and joins
//!   the group at cutover; the replica sets themselves live in
//!   `udr_dls::ShardMap`);
//! * [`quorum`] — the §5 Cassandra-style `(n, w)` write round;
//! * [`multimaster`] — §5 multi-master divergence and the
//!   consistency-restoration merge (state-based LWW with conflict counts);
//! * [`twophase`] — the cross-SE 2PC the paper rejects (§3.2), implemented
//!   so the ablation experiment can measure the cost and blocking hazard.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod migration;
pub mod multimaster;
pub mod quorum;
pub mod shipping;
pub mod twophase;

pub use migration::MigrationState;
pub use multimaster::{merge_branches, restoration_duration, MergeOutcome, MergeStats};
pub use quorum::{quorum_write, QuorumWriteOutcome};
pub use shipping::{AsyncShipper, BatchDelivery, Enqueue, ShipBatchConfig};
pub use twophase::{two_phase_commit, TwoPcOutcome};
