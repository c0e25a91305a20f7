//! Live partition migration: the data-movement counterpart of the
//! replica channels in [`shipping`](crate::shipping).
//!
//! A live partition migration reuses the replication machinery — seed the
//! target from an [`EngineSnapshot`](udr_storage::EngineSnapshot), then
//! stream the master's log tail until the target converges — but the
//! target is *not* a group member while it catches up: commits must not
//! wait for it, failovers must not promote it, and read policies must not
//! route to it. A migration therefore keeps its own shipping ledger (an
//! [`AsyncShipper`](crate::AsyncShipper) with the target as its one
//! registered slave) next to the group's, plus the [`MigrationState`]
//! machine the orchestrator drives:
//!
//! ```text
//! Seeding ──▶ CatchingUp ──▶ Frozen ──▶ Done
//!    │             │            │
//!    └─────────────┴────────────┴──────▶ Aborted
//! ```
//!
//! * `Seeding` — the snapshot is in transfer; nothing ships yet;
//! * `CatchingUp` — periodic passes ship the log suffix while writes flow;
//! * `Frozen` — the source refuses writes for the final hand-off window;
//! * `Done` / `Aborted` — cutover applied, or the move was abandoned
//!   (fault on either end) without any epoch change.

use udr_model::time::SimTime;

/// Lifecycle of one live partition migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationState {
    /// Snapshot transfer to the target is in progress.
    Seeding {
        /// When the transfer completes and tail shipping may start.
        ready_at: SimTime,
    },
    /// The target applies the master's log tail while traffic flows.
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
