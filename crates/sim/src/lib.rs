//! # udr-sim
//!
//! The deterministic discrete-event substrate replacing the paper's
//! multi-national deployment: a virtual clock and one event queue popped in
//! `(time, seq)` order ([`pump::ShardedPump`]), the simulated IP network
//! with LAN/backbone latency models, partitions and loss ([`net`]), fault
//! scripts ([`faults`]), CPU processing stations ([`service`]) and seeded
//! random sources ([`rng`]).
//!
//! CAP/PACELC behaviour depends only on message delay, ordering and
//! reachability; simulating those deterministically lets every experiment in
//! the benchmark harness regenerate the paper's shapes reproducibly.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod faults;
pub mod net;
pub mod pump;
pub mod rng;
pub mod service;

pub use faults::{Fault, FaultPhase, FaultScript};
pub use net::{
    Cut, CutHandle, Degrade, DegradeHandle, LatencyModel, LinkOutcome, LinkProfile, NetStats,
    Network, Topology,
};
pub use pump::{LaneClass, PumpConfig, ShardedPump};
pub use rng::SimRng;
pub use service::{Overload, Station};
