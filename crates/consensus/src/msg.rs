//! The consensus wire protocol.
//!
//! Every message type maps to a phase of multi-Paxos: `Prepare`/`Promise`
//! (phase 1, leader election), `Accept`/`Accepted` (phase 2, one per log
//! slot under a stable leader), `Learn` (choice dissemination),
//! `Heartbeat` (failure detection + commit-watermark gossip), the catch-up
//! pair (log transfer for lagging replicas) and `Forward` (client command
//! routed from a non-leader to the believed leader, like ZooKeeper
//! followers forwarding writes to the primary).

use udr_model::attrs::Entry;
use udr_model::ids::SubscriberUid;

use crate::ballot::{Ballot, Slot};

/// Unique id of a client command. `CmdId(0)` is reserved for leader-issued
/// no-ops (gap filling after failover) and is exempt from deduplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CmdId(pub u64);

impl CmdId {
    /// The reserved no-op id.
    pub const NOOP: CmdId = CmdId(0);

    /// Whether this is the reserved no-op id.
    pub fn is_noop(self) -> bool {
        self == CmdId::NOOP
    }
}

impl std::fmt::Display for CmdId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cmd{}", self.0)
    }
}

/// What a log entry does when applied to subscriber storage.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Chosen to fill a gap during leader change; applies as nothing.
    Noop,
    /// A provisioning write: set (or, with `None`, delete) one record.
    Write {
        /// The record written.
        uid: SubscriberUid,
        /// New value; `None` deletes.
        entry: Option<Entry>,
    },
    /// A configuration change riding the log: the migration cutover
    /// command for a live partition move. Replicating it through the
    /// same totally ordered log that carries writes makes the cutover
    /// exactly-once and totally ordered against the data stream — the
    /// replica group switches membership at one agreed log position
    /// instead of behind a write-freeze window.
    Reconfig {
        /// Id of the migration task the cutover belongs to.
        migration: u64,
    },
}

/// A client command as replicated through the log.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// Deduplication id; unique per client submission.
    pub id: CmdId,
    /// The effect.
    pub payload: Payload,
}

impl Command {
    /// A gap-filling no-op.
    pub fn noop() -> Self {
        Command {
            id: CmdId::NOOP,
            payload: Payload::Noop,
        }
    }

    /// A subscriber write command.
    pub fn write(id: CmdId, uid: SubscriberUid, entry: Option<Entry>) -> Self {
        Command {
            id,
            payload: Payload::Write { uid, entry },
        }
    }

    /// A migration-cutover configuration change (see [`Payload::Reconfig`]).
    pub fn reconfig(id: CmdId, migration: u64) -> Self {
        Command {
            id,
            payload: Payload::Reconfig { migration },
        }
    }

    /// Whether this is a no-op.
    pub fn is_noop(&self) -> bool {
        matches!(self.payload, Payload::Noop)
    }
}

/// One protocol message. See the module docs for the phase each belongs to.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Phase-1a: a campaigner asks acceptors to promise ballot `ballot`.
    /// `committed` is the campaigner's chosen watermark so acceptors only
    /// report accepted entries it might be missing.
    Prepare {
        /// The campaigned ballot.
        ballot: Ballot,
        /// Campaigner's contiguous chosen watermark.
        committed: Slot,
    },
    /// Phase-1b: the acceptor's promise not to accept below `ballot`.
    Promise {
        /// The promised ballot (echoed).
        ballot: Ballot,
        /// Accepted-but-not-known-chosen entries above the campaigner's
        /// watermark: `(slot, accepted ballot, value)`.
        accepted: Vec<(Slot, Ballot, Command)>,
        /// Chosen entries above the campaigner's watermark — these are
        /// already decided, the campaigner absorbs them directly.
        chosen: Vec<(Slot, Command)>,
    },
    /// Phase-1b refusal: the acceptor already promised higher.
    PrepareNack {
        /// The higher promise the campaigner has to outbid.
        promised: Ballot,
    },
    /// Phase-2a: the leader proposes `cmd` at `slot` under `ballot`.
    /// `committed` gossips the leader's chosen watermark (piggybacked
    /// commit notification, as ZAB does).
    Accept {
        /// The leader's ballot.
        ballot: Ballot,
        /// The log slot proposed.
        slot: Slot,
        /// The proposed command.
        cmd: Command,
        /// Leader's contiguous chosen watermark.
        committed: Slot,
    },
    /// Phase-2b: the acceptor accepted `(ballot, slot)`.
    Accepted {
        /// The ballot accepted under (echoed).
        ballot: Ballot,
        /// The slot accepted.
        slot: Slot,
    },
    /// Phase-2b refusal: the acceptor already promised higher.
    AcceptNack {
        /// The higher promise.
        promised: Ballot,
    },
    /// The leader announces a chosen `(slot, cmd)` to all learners.
    Learn {
        /// The decided slot.
        slot: Slot,
        /// The decided command.
        cmd: Command,
    },
    /// Leader liveness + watermark gossip; followers reset election timers.
    Heartbeat {
        /// The leader's ballot.
        ballot: Ballot,
        /// Leader's contiguous chosen watermark.
        committed: Slot,
    },
    /// A lagging learner asks for chosen entries above `above`.
    CatchUpRequest {
        /// The requester's chosen watermark.
        above: Slot,
    },
    /// Chosen-entry transfer answering a [`Message::CatchUpRequest`].
    CatchUpReply {
        /// Chosen entries `(slot, cmd)` above the requested watermark.
        chosen: Vec<(Slot, Command)>,
    },
    /// A non-leader forwards a client command to the believed leader.
    Forward {
        /// The forwarded command.
        cmd: Command,
    },
}

impl Message {
    /// Short label for statistics tables.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Prepare { .. } => "prepare",
            Message::Promise { .. } => "promise",
            Message::PrepareNack { .. } => "prepare_nack",
            Message::Accept { .. } => "accept",
            Message::Accepted { .. } => "accepted",
            Message::AcceptNack { .. } => "accept_nack",
            Message::Learn { .. } => "learn",
            Message::Heartbeat { .. } => "heartbeat",
            Message::CatchUpRequest { .. } => "catchup_req",
            Message::CatchUpReply { .. } => "catchup_reply",
            Message::Forward { .. } => "forward",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_command_is_noop() {
        let n = Command::noop();
        assert!(n.is_noop());
        assert!(n.id.is_noop());
    }

    #[test]
    fn write_command_carries_uid() {
        let c = Command::write(CmdId(7), SubscriberUid(42), None);
        assert!(!c.is_noop());
        match c.payload {
            Payload::Write { uid, ref entry } => {
                assert_eq!(uid, SubscriberUid(42));
                assert!(entry.is_none());
            }
            _ => panic!("expected a write"),
        }
    }

    #[test]
    fn reconfig_command_is_effective_but_not_a_write() {
        let c = Command::reconfig(CmdId(9), 3);
        assert!(!c.is_noop(), "reconfig must survive iter_effective");
        match c.payload {
            Payload::Reconfig { migration } => assert_eq!(migration, 3),
            _ => panic!("expected a reconfig"),
        }
    }

    #[test]
    fn message_kinds_are_distinct() {
        let msgs = [
            Message::Prepare {
                ballot: Ballot::ZERO,
                committed: Slot::ZERO,
            },
            Message::Promise {
                ballot: Ballot::ZERO,
                accepted: vec![],
                chosen: vec![],
            },
            Message::PrepareNack {
                promised: Ballot::ZERO,
            },
            Message::Accept {
                ballot: Ballot::ZERO,
                slot: Slot(1),
                cmd: Command::noop(),
                committed: Slot::ZERO,
            },
            Message::Accepted {
                ballot: Ballot::ZERO,
                slot: Slot(1),
            },
            Message::AcceptNack {
                promised: Ballot::ZERO,
            },
            Message::Learn {
                slot: Slot(1),
                cmd: Command::noop(),
            },
            Message::Heartbeat {
                ballot: Ballot::ZERO,
                committed: Slot::ZERO,
            },
            Message::CatchUpRequest { above: Slot::ZERO },
            Message::CatchUpReply { chosen: vec![] },
            Message::Forward {
                cmd: Command::noop(),
            },
        ];
        let mut kinds: Vec<_> = msgs.iter().map(|m| m.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), msgs.len());
    }
}
