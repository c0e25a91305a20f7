//! Scale-out synchronisation of the data-location stage (§3.4.2).
//!
//! "In every new blade cluster deployed, a data location stage instance is
//! created automatically … this distribution stage instance syncs its
//! identity-location maps with peer instances in other blade clusters …
//! however, this synchronization takes some time, during which operations
//! issued on the PoA realized by the new blade cluster cannot be handled.
//! Therefore data availability (R) is affected."

use udr_model::time::{SimDuration, SimTime};

/// The synchronisation state of one data-location stage instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncState {
    /// Still copying provisioned maps from a peer; the PoA cannot serve.
    Syncing {
        /// When the copy completes.
        done_at: SimTime,
    },
    /// Fully synchronised; the PoA serves normally.
    Ready,
}

// ~40 B/entry over a backbone plus local B-tree insert: ≈3 µs/entry keeps
// a 10M-entry sync in the tens of seconds, matching the "takes some time"
// the paper worries about.

/// Fixed handshake/setup cost of a map copy.
pub const SYNC_BASE: SimDuration = SimDuration::from_millis(100);
/// Per-entry transfer + index-build cost of a map copy.
pub const SYNC_PER_ENTRY: SimDuration = SimDuration::from_micros(3);

/// Total time to copy `entries` bindings from a peer.
fn transfer_time(entries: usize) -> SimDuration {
    SYNC_BASE + SYNC_PER_ENTRY * entries as u64
}

/// Tracks a stage instance's sync lifecycle.
#[derive(Debug, Clone)]
pub struct StageSync {
    state: SyncState,
    /// Completed sync rounds.
    pub rounds: u64,
}

impl StageSync {
    /// A stage that is ready immediately (the first cluster of a
    /// deployment, provisioned from scratch).
    pub fn ready() -> Self {
        StageSync {
            state: SyncState::Ready,
            rounds: 0,
        }
    }

    /// A stage that starts syncing `entries` bindings at `now`.
    pub fn syncing(now: SimTime, entries: usize) -> Self {
        StageSync {
            state: SyncState::Syncing {
                done_at: now + transfer_time(entries),
            },
            rounds: 0,
        }
    }

    /// Whether the stage can resolve identities at `now`; flips to ready
    /// when the sync window has elapsed.
    pub fn is_ready(&mut self, now: SimTime) -> bool {
        if let SyncState::Syncing { done_at } = self.state {
            if now >= done_at {
                self.state = SyncState::Ready;
                self.rounds += 1;
            }
        }
        self.state == SyncState::Ready
    }

    /// Peek the state without advancing it.
    pub fn state(&self) -> SyncState {
        self.state
    }

    /// When the current sync completes, if syncing.
    pub fn done_at(&self) -> Option<SimTime> {
        match self.state {
            SyncState::Syncing { done_at } => Some(done_at),
            SyncState::Ready => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_entries() {
        let t1m = transfer_time(1_000_000);
        let t10m = transfer_time(10_000_000);
        // Linear in entries once past the fixed base.
        assert_eq!(t10m - SYNC_BASE, (t1m - SYNC_BASE) * 10);
        // 10M entries ≈ 30.5 s with defaults: a visible availability window.
        assert!(t10m > SimDuration::from_secs(20));
        assert!(t10m < SimDuration::from_secs(60));
    }

    #[test]
    fn stage_blocks_until_done() {
        let mut s = StageSync::syncing(SimTime::ZERO, 1_000_000);
        assert!(!s.is_ready(SimTime::ZERO));
        assert!(!s.is_ready(SimTime::ZERO + SimDuration::from_secs(1)));
        assert!(s.is_ready(SimTime::ZERO + SimDuration::from_secs(10)));
        assert_eq!(s.rounds, 1);
        // Stays ready.
        assert!(s.is_ready(SimTime::ZERO));
    }

    #[test]
    fn ready_stage_serves_immediately() {
        let mut s = StageSync::ready();
        assert!(s.is_ready(SimTime::ZERO));
        assert_eq!(s.done_at(), None);
    }

    #[test]
    fn done_at_exposed_while_syncing() {
        let s = StageSync::syncing(SimTime::ZERO, 123);
        let window = SYNC_BASE + SYNC_PER_ENTRY * 123;
        assert_eq!(s.done_at(), Some(SimTime::ZERO + window));
    }
}
