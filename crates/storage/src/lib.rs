//! # udr-storage
//!
//! The Storage Element substrate of the UDR: an in-RAM, transactional,
//! versioned store with the exact semantics the paper's §3.1–§3.2 design
//! decisions prescribe:
//!
//! * ACID transactions **within one element only** — no 2PC across SEs;
//! * READ_COMMITTED isolation (readers never block, writers take row
//!   locks that fail fast on conflict);
//! * a per-replica LSN-ordered commit log that doubles as the replication
//!   stream, so slaves replay exactly the master's serialization order;
//! * durability modes: none, periodic RAM→disk snapshots (§3.1 decision 1),
//!   or synchronous dump-before-commit (footnote 6);
//! * a crash/restore lifecycle in which RAM vanishes and disk survives.
//!
//! The engine is clock-free (timestamps are injected), so the same code runs
//! under the discrete-event simulator and under `udr-perf`'s wall-clock
//! isolated replays.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod durability;
pub mod engine;
pub mod log;
pub mod se;
pub mod store;
pub mod version;

pub use durability::{CostModel, Disk, SnapshotScheduler, COST_MODEL};
pub use engine::{Engine, EngineSnapshot, TxnId};
pub use log::CommitLog;
pub use se::{Replica, SeState, StorageElement};
pub use store::{RecordStore, RecordView};
pub use version::{Change, Changes, CommitRecord, Lsn, RecordVersion};
