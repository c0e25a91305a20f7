//! Live partition migration: the lifecycle of a copy moving to a new SE.
//!
//! The target is seeded from an
//! [`EngineSnapshot`](udr_storage::EngineSnapshot) and then joins its
//! partition's shipping ledger as a *learner*
//! ([`AsyncShipper::register_learner`](crate::AsyncShipper::register_learner)):
//! it hears every commit and is caught up and reseeded as a slave is, but
//! it is not a group member until cutover, so no commit waits for it, no
//! failover promotes it and no read routes to it (Raft's catch-up of a new
//! server as a non-voting member, Ongaro 2014, §4.2.1). The orchestrator
//! drives the [`MigrationState`] machine:
//!
//! ```text
//! Seeding ──▶ CatchingUp ──▶ Frozen ──▶ Done
//!    │             │            │
//!    └─────────────┴────────────┴──────▶ Aborted
//! ```
//!
//! * `Seeding` — the snapshot is in transfer; commits already ship to it;
//! * `CatchingUp` — the transfer is done; the move waits for the target's
//!   lag to close while writes flow;
//! * `Frozen` — the source refuses writes for the final hand-off window;
//! * `Done` / `Aborted` — cutover applied, or the move was abandoned
//!   (fault on either end) without any epoch change.

use udr_model::time::SimTime;

/// Lifecycle of one live partition migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationState {
    /// Snapshot transfer to the target is in progress.
    Seeding {
        /// When the transfer completes and the move may cut over.
        ready_at: SimTime,
    },
    /// The target closes its lag behind the master while traffic flows.
    CatchingUp,
    /// Final window: the source is write-frozen, the last records ship.
    Frozen {
        /// When the freeze began (availability-window accounting).
        since: SimTime,
    },
    /// Cutover applied; the target owns the copy.
    Done,
    /// The move was abandoned; the source keeps serving unchanged.
    Aborted,
}

impl MigrationState {
    /// Whether the migration is still running (not terminal).
    pub fn is_active(&self) -> bool {
        !matches!(self, MigrationState::Done | MigrationState::Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_terminal_states() {
        assert!(MigrationState::Seeding {
            ready_at: SimTime(5)
        }
        .is_active());
        assert!(MigrationState::CatchingUp.is_active());
        assert!(MigrationState::Frozen { since: SimTime(9) }.is_active());
        assert!(!MigrationState::Done.is_active());
        assert!(!MigrationState::Aborted.is_active());
    }
}
