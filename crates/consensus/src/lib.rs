//! # udr-consensus
//!
//! The paper closes (§6) by naming the replacement candidate for its
//! master/slave replication: *"one promising alternative to the master-slave
//! replication approach described above lies on efficient distributed
//! agreement protocols like e.g. Paxos \[15\] or similar solutions \[16\]"*
//! (\[16\] is Apache ZooKeeper). This crate builds that alternative so the
//! repository can measure what §5 only argues: with majority agreement,
//! provisioning writes stay **available on the majority side of a partition
//! and consistent everywhere** — no §5 restoration merge, no conflicts —
//! at the price of one majority round trip over the backbone per commit
//! (the PACELC "EC" cost the paper predicts would make "unwary service
//! providers … think it twice").
//!
//! What is implemented:
//!
//! * [`ballot`] — totally ordered ballots `(round, node)` and log slots;
//! * [`msg`] — the wire protocol: Prepare/Promise, Accept/Accepted, Learn,
//!   heartbeats, catch-up transfers and client command forwarding;
//! * [`log`] — the chosen log: agreement checking, contiguous apply
//!   watermark, exactly-once iteration for the storage apply layer;
//! * [`replica`] — one multi-Paxos node: acceptor + learner + leader
//!   election with randomized timeouts and a stable-leader fast path
//!   (phase 1 amortized across slots, the property that makes ZooKeeper's
//!   primary-order broadcast affordable);
//! * [`runtime`] — a deterministic cluster harness wiring N replicas to the
//!   simulated IP backbone of [`udr_sim`], with partition schedules, node
//!   crashes, message loss, and per-command fate/latency accounting.
//!
//! The protocol follows Paxos safety to the letter: an acceptor never
//! accepts below its promise; a new leader re-proposes the
//! highest-ballot accepted value per slot and fills gaps with no-ops;
//! chosen values are immutable. Node crashes in the [`runtime`] model a
//! process stop with acceptor state intact on restart (the paper's SAF
//! platform keeps process state on replicated disk), which is the
//! persistence Paxos requires.
//!
//! ```
//! use udr_consensus::runtime::{ClusterConfig, ConsensusCluster};
//! use udr_model::ids::SubscriberUid;
//! use udr_model::time::{SimDuration, SimTime};
//! use udr_sim::net::Topology;
//!
//! // Three sites, one consensus node each, default timeouts.
//! let mut cluster = ConsensusCluster::new(Topology::multinational(3), ClusterConfig::default(), 7);
//! cluster.submit_write_at(SimTime(0) + SimDuration::from_secs(2), 0, SubscriberUid(42), None);
//! let report = cluster.run_until(SimTime(0) + SimDuration::from_secs(5));
//! assert_eq!(report.committed(), 1);
//! assert!(report.violations.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ballot;
pub mod log;
pub mod msg;
pub mod replica;
pub mod runtime;

pub use ballot::{Ballot, NodeId, Slot};
pub use log::ChosenLog;
pub use msg::{CmdId, Command, Envelope, Message, Payload};
pub use replica::{Replica, ReplicaConfig, Role};
pub use runtime::{ClusterConfig, CommandFate, ConsensusCluster, MsgStats, RunReport};
