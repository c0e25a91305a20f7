//! # udr-preudc
//!
//! The **pre-UDC baseline**: the node-based telecom network the paper's UDC
//! architecture replaces (Figures 1 and 3, §2.1/§2.4). Subscriber data
//! lives in standalone HLR/HSS silos — one partition each, no replication,
//! no transactions — and identity routing lives in per-site SLF instances
//! that provisioning must write one by one.
//!
//! Built so experiment E14 can measure the paper's motivation directly:
//! multi-node provisioning without atomicity leaves the network
//! inconsistent on partial failures (divergent/dangling routes, subscribers
//! provisioned-but-dead), silo crashes take their whole partition down, and
//! repairs wait for the network to heal — all of which the UDR's
//! single-writer transaction (Figure 4) eliminates.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod network;
pub mod nodes;

pub use network::{PreUdcNetwork, PreUdcStats, ProvisionResult};
pub use nodes::{HlrId, HlrNode, SlfNode};
