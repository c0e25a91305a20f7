//! # udr-dls
//!
//! The Data Location Stage of the UDR: the component that maps subscriber
//! identities (IMSI/MSISDN/IMPU/IMPI) to the partition/SE holding their
//! data. §3.5 of the paper weighs three realisations, all implemented here:
//!
//! * [`maps`] — provisioned identity-location maps: one index per identity
//!   kind, supporting selective placement (the paper's choice; it models
//!   the lookup as O(log N), the host index here is hashed);
//! * [`cache`] — maps built on the fly and cached: no scale-out sync
//!   window, but every miss broadcasts a probe to many/all SEs;
//! * [`ring`] — consistent hashing: O(1) lookups, no selective placement.
//!
//! [`sync`] models the §3.4.2 scale-out synchronisation window during which
//! a new PoA cannot serve; [`placement`] implements random vs home-region
//! subscription placement; [`shardmap`] is the epoch-versioned partition →
//! replica-set table (members, master, retired master) that lets
//! placements move and masters fail over while traffic flows;
//! [`stage`] is the per-PoA instance the pipeline calls: it hosts one of
//! the three realisations, chosen when the stage is built.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod maps;
pub mod placement;
pub mod ring;
pub mod shardmap;
pub mod stage;
pub mod sync;

pub use cache::{CacheOutcome, CachedLocator};
pub use maps::{IdentityLocationMap, Location};
pub use placement::PlacementContext;
pub use ring::ConsistentHashRing;
pub use shardmap::{Epoch, ReplicationGroup, ShardMap};
pub use stage::{DataLocationStage, Resolution};
pub use sync::{StageSync, SyncState};
