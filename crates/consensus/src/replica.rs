//! One multi-Paxos node: acceptor + learner + (when elected) leader.
//!
//! The replica is a pure state machine: `handle`/`tick`/`submit` consume an
//! input at a virtual instant and push the messages to send onto a sink the
//! caller owns and drains, so a caller that keeps one sink allocates
//! nothing per input. All timing (delays, loss, partitions) lives in the
//! runtime, which makes every protocol path unit-testable without a
//! network and keeps runs deterministic.
//!
//! Protocol shape — classic multi-Paxos with a stable leader:
//!
//! * **Election (phase 1).** A follower that loses contact with the leader
//!   campaigns with a ballot above everything it has seen. Acceptors
//!   promise and report accepted entries the campaigner may be missing;
//!   on a majority of promises the campaigner leads, re-proposes the
//!   highest-ballot accepted value per open slot and fills gaps with
//!   no-ops (the Paxos safety rule).
//! * **Steady state (phase 2).** The leader assigns one slot per client
//!   command and needs a single majority round trip per commit — phase 1
//!   is paid once per leadership, which is what makes leader-based
//!   agreement affordable over the paper's backbone (and is exactly the
//!   primary-order broadcast structure ZooKeeper uses).
//! * **Learning.** Chosen decisions are broadcast; lagging learners pull
//!   missed decisions with catch-up transfers.
//!
//! Randomized election timeouts (each replica forks its own [`SimRng`])
//! keep campaigns from colliding forever; ballots are totally ordered so
//! colliding campaigns are safe, just slow.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use udr_model::ids::IdSet;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::SimRng;

use crate::ballot::{Ballot, NodeId, Slot};
use crate::log::{AgreementViolation, ChosenLog};
use crate::msg::{CmdId, Command, Message};

/// Timing knobs of one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// How long a follower waits without leader contact before campaigning
    /// (a uniform jitter of up to half this value is added per wait).
    pub election_timeout: SimDuration,
    /// Leader heartbeat period. Must be well below `election_timeout`.
    pub heartbeat_interval: SimDuration,
    /// Retransmission period for unacknowledged proposals, pending command
    /// forwards and catch-up requests.
    pub retry_interval: SimDuration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            election_timeout: SimDuration::from_millis(750),
            heartbeat_interval: SimDuration::from_millis(100),
            retry_interval: SimDuration::from_millis(200),
        }
    }
}

/// The replica's current posture in the election protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepting and learning; expects heartbeats from a leader.
    Follower,
    /// Campaigning: sent `Prepare`, collecting promises.
    Candidate,
    /// Owns the current ballot; proposes client commands.
    Leader,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Role::Follower => "follower",
            Role::Candidate => "candidate",
            Role::Leader => "leader",
        })
    }
}

/// A message the replica wants sent.
#[derive(Debug, Clone, PartialEq)]
pub enum Outbound {
    /// Send to one peer.
    To(NodeId, Message),
    /// Send to every *other* ensemble member.
    Broadcast(Message),
}

/// A client command waiting at a non-leader (or at a candidate).
#[derive(Debug, Clone)]
struct PendingCmd {
    cmd: Command,
    /// `None` until the first forward attempt.
    last_sent: Option<SimTime>,
}

/// A leader's proposal awaiting a majority.
#[derive(Debug, Clone)]
struct Inflight {
    cmd: Command,
    /// Last instant the `Accept` was sent.
    sent: SimTime,
    /// Nodes that accepted it under the current ballot (leader included),
    /// one bit per [`NodeId`]: a repeated ack sets a bit already set.
    acks: u64,
}

/// One consensus node.
#[derive(Debug)]
pub struct Replica {
    id: NodeId,
    n: usize,
    cfg: ReplicaConfig,
    rng: SimRng,

    role: Role,
    /// Acceptor: highest ballot promised.
    promised: Ballot,
    /// Acceptor: accepted but not known-chosen entries.
    accepted: BTreeMap<Slot, (Ballot, Command)>,
    /// Learner: the decided sequence.
    log: ChosenLog,

    /// Campaign/leadership ballot (only meaningful as candidate/leader).
    ballot: Ballot,
    /// Distinct promisers for the current campaign (includes self).
    promised_from: BTreeSet<NodeId>,
    /// Highest-ballot accepted entries gathered during the campaign.
    merged: BTreeMap<Slot, (Ballot, Command)>,
    /// Leader: proposals awaiting a majority, with their acks.
    inflight: BTreeMap<Slot, Inflight>,
    /// Ids of commands currently in flight (deduplication).
    inflight_ids: IdSet<CmdId>,
    /// Next free slot while leading.
    next_slot: Slot,
    /// Commands waiting for a leader (at followers/candidates, or moved
    /// back from `inflight` when a leader steps down).
    pending: VecDeque<PendingCmd>,
    pending_ids: IdSet<CmdId>,

    /// Failure detector.
    leader_hint: Option<NodeId>,
    election_due: SimTime,
    last_heartbeat_sent: SimTime,
    last_catchup_request: Option<SimTime>,

    /// Decisions learned since the last drain: what the cluster harness
    /// times commands by (the deployment applies by its own cursor and
    /// only drains it).
    newly_chosen: Vec<(Slot, Command)>,
    /// Safety violations observed (always empty in a correct run).
    violations: Vec<AgreementViolation>,
    /// Elections this node started.
    pub elections_started: u64,
}

impl Replica {
    /// A fresh follower. `n` is the ensemble size, at most 64 (a
    /// proposal's acks are one bit per node); `seed` feeds the node-local
    /// jitter stream.
    pub fn new(id: NodeId, n: usize, cfg: ReplicaConfig, seed: u64) -> Self {
        assert!(n >= 1, "an ensemble needs at least one node");
        assert!(n <= 64, "acks are a 64-bit node mask");
        assert!(
            cfg.heartbeat_interval < cfg.election_timeout,
            "heartbeats must outpace election timeouts"
        );
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC0_5E_0A_11 ^ id.0 as u64);
        let election_due = SimTime::ZERO + Self::timeout_with_jitter(&cfg, &mut rng);
        Replica {
            id,
            n,
            cfg,
            rng,
            role: Role::Follower,
            promised: Ballot::ZERO,
            accepted: BTreeMap::new(),
            log: ChosenLog::new(),
            ballot: Ballot::ZERO,
            promised_from: BTreeSet::new(),
            merged: BTreeMap::new(),
            inflight: BTreeMap::new(),
            inflight_ids: IdSet::default(),
            next_slot: Slot(1),
            pending: VecDeque::new(),
            pending_ids: IdSet::default(),
            leader_hint: None,
            election_due,
            last_heartbeat_sent: SimTime::ZERO,
            last_catchup_request: None,
            newly_chosen: Vec::new(),
            violations: Vec::new(),
            elections_started: 0,
        }
    }

    fn timeout_with_jitter(cfg: &ReplicaConfig, rng: &mut SimRng) -> SimDuration {
        let jitter = rng.below(cfg.election_timeout.as_nanos().max(2) / 2);
        cfg.election_timeout + SimDuration::from_nanos(jitter)
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The decided log.
    pub fn log(&self) -> &ChosenLog {
        &self.log
    }

    /// Who this node believes leads (itself when leader).
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// The ballot this node last campaigned under or promised.
    pub fn current_ballot(&self) -> Ballot {
        if self.role == Role::Follower {
            self.promised
        } else {
            self.ballot
        }
    }

    /// Take the decisions learned since the previous call. The buffer
    /// keeps its capacity; dropping the iterator unread discards them.
    /// Whoever drives the replica must drain it, or it grows with the log.
    pub fn drain_newly_chosen(&mut self) -> std::vec::Drain<'_, (Slot, Command)> {
        self.newly_chosen.drain(..)
    }

    /// Take any safety violations observed (must stay empty).
    pub fn take_violations(&mut self) -> Vec<AgreementViolation> {
        std::mem::take(&mut self.violations)
    }

    /// Commands queued waiting for a leader.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Read-index gate: true when this node leads and has no proposal in
    /// flight, i.e. its committed prefix reflects every command it has
    /// acknowledged taking. A linearizable read served off the leader's
    /// committed state needs this to hold (plus a majority round-trip to
    /// confirm the leadership is not stale) — a deposed or mid-proposal
    /// leader must not serve.
    pub fn read_index_ready(&self) -> bool {
        self.role == Role::Leader && self.inflight.is_empty()
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// A client (or the runtime on behalf of one) hands this node a
    /// command. The leader proposes immediately; others forward to the
    /// believed leader or queue until one is known. Messages to send are
    /// pushed onto `out`.
    pub fn submit(&mut self, now: SimTime, cmd: Command, out: &mut Vec<Outbound>) {
        self.ingest_command(now, cmd, out);
    }

    /// Periodic timer: drives elections, heartbeats, retransmissions and
    /// pending-command forwarding. Messages to send are pushed onto `out`.
    pub fn tick(&mut self, now: SimTime, out: &mut Vec<Outbound>) {
        match self.role {
            Role::Leader => {
                // Retransmit stale proposals (lost Accepts) and heartbeat.
                let retry_before = now.duration_since(SimTime::ZERO).as_nanos()
                    >= self.cfg.retry_interval.as_nanos();
                if retry_before {
                    let cutoff = SimTime(now.as_nanos() - self.cfg.retry_interval.as_nanos());
                    for (slot, p) in &mut self.inflight {
                        if p.sent <= cutoff {
                            p.sent = now;
                            out.push(Outbound::Broadcast(Message::Accept {
                                ballot: self.ballot,
                                slot: *slot,
                                cmd: p.cmd.clone(),
                                committed: self.log.committed(),
                            }));
                        }
                    }
                }
                if now.duration_since(self.last_heartbeat_sent) >= self.cfg.heartbeat_interval {
                    self.last_heartbeat_sent = now;
                    out.push(Outbound::Broadcast(Message::Heartbeat {
                        ballot: self.ballot,
                        committed: self.log.committed(),
                    }));
                }
            }
            Role::Follower => {
                if now >= self.election_due {
                    self.start_election(now, out);
                } else {
                    self.forward_pending(now, out);
                }
            }
            Role::Candidate => {
                if now >= self.election_due {
                    // Campaign stalled (lost messages or a split): rebid.
                    self.start_election(now, out);
                }
            }
        }
    }

    /// Process one incoming message. Messages to send are pushed onto
    /// `out`.
    pub fn handle(&mut self, now: SimTime, from: NodeId, msg: Message, out: &mut Vec<Outbound>) {
        match msg {
            Message::Prepare { ballot, committed } => {
                self.on_prepare(now, from, ballot, committed, out)
            }
            Message::Promise {
                ballot,
                accepted,
                chosen,
            } => self.on_promise(now, from, ballot, accepted, chosen, out),
            Message::PrepareNack { promised } => self.on_nack(now, promised),
            Message::Accept {
                ballot,
                slot,
                cmd,
                committed,
            } => self.on_accept(now, from, ballot, slot, cmd, committed, out),
            Message::Accepted { ballot, slot } => self.on_accepted(from, ballot, slot, out),
            Message::AcceptNack { promised } => self.on_nack(now, promised),
            Message::Learn { slot, cmd } => {
                if Some(from) == self.leader_hint {
                    self.touch_leader(now);
                }
                self.learn(slot, cmd);
            }
            Message::Heartbeat { ballot, committed } => {
                self.on_heartbeat(now, from, ballot, committed, out)
            }
            Message::CatchUpRequest { above } => {
                let chosen = self.log.suffix(above);
                if !chosen.is_empty() {
                    out.push(Outbound::To(from, Message::CatchUpReply { chosen }));
                }
            }
            Message::CatchUpReply { chosen } => {
                for (slot, cmd) in chosen {
                    self.learn(slot, cmd);
                }
            }
            Message::Forward { cmd } => self.ingest_command(now, cmd, out),
        }
    }

    // ------------------------------------------------------------------
    // Acceptor paths
    // ------------------------------------------------------------------

    fn on_prepare(
        &mut self,
        now: SimTime,
        from: NodeId,
        ballot: Ballot,
        committed: Slot,
        out: &mut Vec<Outbound>,
    ) {
        if ballot > self.promised {
            self.promised = ballot;
            if self.role != Role::Follower && ballot.node != self.id {
                self.step_down(now);
            }
            self.leader_hint = Some(ballot.node);
            self.touch_leader(now);
            let accepted: Vec<(Slot, Ballot, Command)> = self
                .accepted
                .range(committed.next()..)
                .map(|(s, (b, c))| (*s, *b, c.clone()))
                .collect();
            let chosen = self.log.suffix(committed);
            out.push(Outbound::To(
                from,
                Message::Promise {
                    ballot,
                    accepted,
                    chosen,
                },
            ));
        } else {
            out.push(Outbound::To(
                from,
                Message::PrepareNack {
                    promised: self.promised,
                },
            ));
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_accept(
        &mut self,
        now: SimTime,
        from: NodeId,
        ballot: Ballot,
        slot: Slot,
        cmd: Command,
        committed: Slot,
        out: &mut Vec<Outbound>,
    ) {
        if ballot >= self.promised {
            self.promised = ballot;
            if self.role != Role::Follower && ballot.node != self.id {
                self.step_down(now);
            }
            self.leader_hint = Some(ballot.node);
            self.touch_leader(now);
            if self.log.get(slot).is_none() {
                self.accepted.insert(slot, (ballot, cmd));
            }
            out.push(Outbound::To(from, Message::Accepted { ballot, slot }));
            self.maybe_request_catchup(now, from, committed, out);
        } else {
            out.push(Outbound::To(
                from,
                Message::AcceptNack {
                    promised: self.promised,
                },
            ));
        }
    }

    fn on_heartbeat(
        &mut self,
        now: SimTime,
        from: NodeId,
        ballot: Ballot,
        committed: Slot,
        out: &mut Vec<Outbound>,
    ) {
        if ballot >= self.promised {
            self.promised = ballot;
            if self.role != Role::Follower && ballot.node != self.id {
                self.step_down(now);
            }
            self.leader_hint = Some(ballot.node);
            self.touch_leader(now);
            self.maybe_request_catchup(now, from, committed, out);
            self.forward_pending(now, out);
        }
    }

    fn maybe_request_catchup(
        &mut self,
        now: SimTime,
        leader: NodeId,
        leader_committed: Slot,
        out: &mut Vec<Outbound>,
    ) {
        let due = self
            .last_catchup_request
            .is_none_or(|last| now.duration_since(last) >= self.cfg.retry_interval);
        if leader_committed > self.log.committed() && due {
            self.last_catchup_request = Some(now);
            out.push(Outbound::To(
                leader,
                Message::CatchUpRequest {
                    above: self.log.committed(),
                },
            ));
        }
    }

    // ------------------------------------------------------------------
    // Campaign paths
    // ------------------------------------------------------------------

    fn start_election(&mut self, now: SimTime, out: &mut Vec<Outbound>) {
        self.elections_started += 1;
        self.role = Role::Candidate;
        let floor = self.promised.round.max(self.ballot.round);
        self.ballot = Ballot::new(floor + 1, self.id);
        self.promised = self.ballot; // self-promise
        self.leader_hint = None;
        self.promised_from.clear();
        self.promised_from.insert(self.id);
        self.merged = self
            .accepted
            .range(self.log.committed().next()..)
            .map(|(s, v)| (*s, v.clone()))
            .collect();
        self.election_due = now + Self::timeout_with_jitter(&self.cfg, &mut self.rng);
        if self.promised_from.len() >= self.majority() {
            self.become_leader(now, out);
        } else {
            out.push(Outbound::Broadcast(Message::Prepare {
                ballot: self.ballot,
                committed: self.log.committed(),
            }));
        }
    }

    fn on_promise(
        &mut self,
        now: SimTime,
        from: NodeId,
        ballot: Ballot,
        accepted: Vec<(Slot, Ballot, Command)>,
        chosen: Vec<(Slot, Command)>,
        out: &mut Vec<Outbound>,
    ) {
        // Absorb decided entries regardless of campaign state: they are facts.
        for (slot, cmd) in chosen {
            self.learn(slot, cmd);
        }
        if self.role != Role::Candidate || ballot != self.ballot {
            return;
        }
        for (slot, b, cmd) in accepted {
            if self.log.get(slot).is_some() {
                continue; // already decided locally
            }
            match self.merged.get(&slot) {
                Some((existing, _)) if *existing >= b => {}
                _ => {
                    self.merged.insert(slot, (b, cmd));
                }
            }
        }
        self.promised_from.insert(from);
        if self.promised_from.len() >= self.majority() {
            self.become_leader(now, out);
        }
    }

    fn become_leader(&mut self, now: SimTime, out: &mut Vec<Outbound>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.inflight.clear();
        self.inflight_ids.clear();

        // Re-propose constrained slots, filling gaps with no-ops so the
        // log's contiguous prefix can advance (Paxos's value-restriction
        // rule: a slot some acceptor accepted must be re-proposed with the
        // highest-ballot value seen for it).
        let merged = std::mem::take(&mut self.merged);
        let committed = self.log.committed();
        let horizon = merged
            .keys()
            .next_back()
            .copied()
            .unwrap_or(Slot::ZERO)
            .max(self.log.max_slot());
        self.next_slot = horizon.max(committed).next();

        let mut slot = committed.next();
        while slot <= horizon {
            if self.log.get(slot).is_none() {
                let cmd = merged
                    .get(&slot)
                    .map(|(_, c)| c.clone())
                    .unwrap_or_else(Command::noop);
                self.propose(now, slot, cmd, out);
            }
            slot = slot.next();
        }

        // Campaign won: announce immediately so followers stop campaigning,
        // then serve anything clients queued while leaderless.
        self.last_heartbeat_sent = now;
        out.push(Outbound::Broadcast(Message::Heartbeat {
            ballot: self.ballot,
            committed: self.log.committed(),
        }));
        let queued: Vec<Command> = self.pending.drain(..).map(|p| p.cmd).collect();
        self.pending_ids.clear();
        for cmd in queued {
            self.ingest_command(now, cmd, out);
        }
    }

    fn step_down(&mut self, now: SimTime) {
        self.role = Role::Follower;
        // Keep client commands alive across the leadership change: they go
        // back to pending and will be forwarded to the new leader.
        let inflight = std::mem::take(&mut self.inflight);
        self.inflight_ids.clear();
        for (_, p) in inflight {
            if !p.cmd.is_noop() {
                self.queue_pending(p.cmd);
            }
        }
        self.merged.clear();
        self.promised_from.clear();
        self.election_due = now + Self::timeout_with_jitter(&self.cfg, &mut self.rng);
    }

    fn on_nack(&mut self, now: SimTime, promised: Ballot) {
        if promised > self.promised {
            self.promised = promised;
        }
        if self.role != Role::Follower && promised > self.ballot {
            self.step_down(now);
            // Give the owner of the higher ballot a chance to lead before
            // campaigning again.
            self.leader_hint = Some(promised.node);
        }
    }

    // ------------------------------------------------------------------
    // Leader paths
    // ------------------------------------------------------------------

    fn ingest_command(&mut self, now: SimTime, cmd: Command, out: &mut Vec<Outbound>) {
        if !cmd.id.is_noop()
            && (self.log.contains_id(cmd.id) || self.inflight_ids.contains(&cmd.id))
        {
            return; // duplicate of something already proposed/decided
        }
        match self.role {
            Role::Leader => {
                let slot = self.next_slot;
                self.next_slot = self.next_slot.next();
                self.propose(now, slot, cmd, out);
            }
            Role::Follower | Role::Candidate => {
                match self.leader_hint {
                    Some(leader) if leader != self.id => {
                        if self.queue_pending(cmd.clone()) {
                            // Remember it (re-forwarded on tick if the
                            // leader dies) and forward right away.
                            if let Some(entry) = self.pending.back_mut() {
                                entry.last_sent = Some(now);
                            }
                            out.push(Outbound::To(leader, Message::Forward { cmd }));
                        }
                    }
                    _ => {
                        self.queue_pending(cmd);
                    }
                }
            }
        }
    }

    fn queue_pending(&mut self, cmd: Command) -> bool {
        if !cmd.id.is_noop() && !self.pending_ids.insert(cmd.id) {
            return false;
        }
        self.pending.push_back(PendingCmd {
            cmd,
            last_sent: None,
        });
        true
    }

    fn forward_pending(&mut self, now: SimTime, out: &mut Vec<Outbound>) {
        let Some(leader) = self.leader_hint else {
            return;
        };
        if leader == self.id {
            return;
        }
        for p in &mut self.pending {
            let due = p
                .last_sent
                .is_none_or(|last| now.duration_since(last) >= self.cfg.retry_interval);
            if due {
                p.last_sent = Some(now);
                out.push(Outbound::To(
                    leader,
                    Message::Forward { cmd: p.cmd.clone() },
                ));
            }
        }
    }

    fn propose(&mut self, now: SimTime, slot: Slot, cmd: Command, out: &mut Vec<Outbound>) {
        debug_assert_eq!(self.role, Role::Leader);
        // Self-accept.
        self.accepted.insert(slot, (self.ballot, cmd.clone()));
        if !cmd.id.is_noop() {
            self.inflight_ids.insert(cmd.id);
        }
        self.inflight.insert(
            slot,
            Inflight {
                cmd: cmd.clone(),
                sent: now,
                acks: node_bit(self.id),
            },
        );
        out.push(Outbound::Broadcast(Message::Accept {
            ballot: self.ballot,
            slot,
            cmd,
            committed: self.log.committed(),
        }));
        self.maybe_choose(slot, out);
    }

    fn on_accepted(&mut self, from: NodeId, ballot: Ballot, slot: Slot, out: &mut Vec<Outbound>) {
        if self.role != Role::Leader || ballot != self.ballot {
            return;
        }
        if let Some(p) = self.inflight.get_mut(&slot) {
            p.acks |= node_bit(from);
        }
        self.maybe_choose(slot, out);
    }

    fn maybe_choose(&mut self, slot: Slot, out: &mut Vec<Outbound>) {
        let majority = self.majority();
        let Entry::Occupied(p) = self.inflight.entry(slot) else {
            return;
        };
        if (p.get().acks.count_ones() as usize) < majority {
            return;
        }
        let cmd = p.remove().cmd;
        self.inflight_ids.remove(&cmd.id);
        self.learn(slot, cmd.clone());
        out.push(Outbound::Broadcast(Message::Learn { slot, cmd }));
    }

    // ------------------------------------------------------------------
    // Learner path
    // ------------------------------------------------------------------

    fn learn(&mut self, slot: Slot, cmd: Command) {
        match self.log.record(slot, cmd.clone()) {
            Ok(true) => {
                self.newly_chosen.push((slot, cmd.clone()));
                // The decision is final; acceptor state for it is obsolete,
                // and a queued copy of the command is satisfied.
                self.accepted.remove(&slot);
                if !cmd.id.is_noop() && self.pending_ids.remove(&cmd.id) {
                    self.pending.retain(|p| p.cmd.id != cmd.id);
                }
            }
            Ok(false) => {}
            Err(v) => self.violations.push(v),
        }
    }

    fn touch_leader(&mut self, now: SimTime) {
        self.election_due = now + Self::timeout_with_jitter(&self.cfg, &mut self.rng);
    }
}

/// `node`'s bit in a proposal's ack mask.
fn node_bit(node: NodeId) -> u64 {
    1 << node.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::ids::SubscriberUid;

    fn cfg() -> ReplicaConfig {
        ReplicaConfig::default()
    }

    fn w(id: u64) -> Command {
        Command::write(CmdId(id), SubscriberUid(id), None)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// What `r.tick` sends.
    fn tick(r: &mut Replica, now: SimTime) -> Vec<Outbound> {
        let mut out = Vec::new();
        r.tick(now, &mut out);
        out
    }

    /// What `r.handle` sends.
    fn handle(r: &mut Replica, now: SimTime, from: NodeId, msg: Message) -> Vec<Outbound> {
        let mut out = Vec::new();
        r.handle(now, from, msg, &mut out);
        out
    }

    /// What `r.submit` sends.
    fn submit(r: &mut Replica, now: SimTime, cmd: Command) -> Vec<Outbound> {
        let mut out = Vec::new();
        r.submit(now, cmd, &mut out);
        out
    }

    fn accepted(ballot: Ballot, slot: u64) -> Message {
        Message::Accepted {
            ballot,
            slot: Slot(slot),
        }
    }

    /// Walk a 3-node ensemble to a stable leader by hand-delivering
    /// messages; returns (replicas, leader index).
    fn elect_leader() -> (Vec<Replica>, usize) {
        let mut nodes: Vec<Replica> = (0..3)
            .map(|i| Replica::new(NodeId(i), 3, cfg(), 42))
            .collect();
        // Force node 0 to campaign.
        let due = nodes[0].election_due;
        let mut out = tick(&mut nodes[0], due);
        assert_eq!(nodes[0].role(), Role::Candidate);
        // Deliver the Prepare to peers, collect promises.
        let prepare = match out.pop() {
            Some(Outbound::Broadcast(m)) => m,
            other => panic!("expected broadcast prepare, got {other:?}"),
        };
        let mut promises = Vec::new();
        for i in 1..3u32 {
            for o in handle(&mut nodes[i as usize], due, NodeId(0), prepare.clone()) {
                if let Outbound::To(to, m) = o {
                    assert_eq!(to, NodeId(0));
                    promises.push((NodeId(i), m));
                }
            }
        }
        for (from, m) in promises {
            handle(&mut nodes[0], due, from, m);
        }
        assert_eq!(nodes[0].role(), Role::Leader);
        (nodes, 0)
    }

    /// Node 0 of a 5-node ensemble, leading in round 2 on promises from
    /// nodes 1 and 2 (its round-1 campaign drew none), and the instant it
    /// won.
    fn leader_of_five() -> (Replica, SimTime) {
        let mut r = Replica::new(NodeId(0), 5, cfg(), 5);
        let mut due = r.election_due;
        tick(&mut r, due);
        due = r.election_due;
        tick(&mut r, due);
        let ballot = r.current_ballot();
        assert_eq!(ballot, Ballot::new(2, NodeId(0)));
        for from in 1..=2 {
            let promise = Message::Promise {
                ballot,
                accepted: vec![],
                chosen: vec![],
            };
            handle(&mut r, due, NodeId(from), promise);
        }
        assert_eq!(r.role(), Role::Leader);
        (r, due)
    }

    #[test]
    fn a_majority_of_five_is_three_distinct_acks_under_the_current_ballot() {
        let (mut r, now) = leader_of_five();
        let ballot = r.current_ballot();
        submit(&mut r, now, w(1));
        // The leader's own ack and node 1's, however often node 1 repeats it.
        for _ in 0..4 {
            assert!(handle(&mut r, now, NodeId(1), accepted(ballot, 1)).is_empty());
        }
        assert_eq!(r.log().committed(), Slot::ZERO);
        // Node 2 acking under the round-1 ballot is not an ack for round 2.
        let stale = Ballot::new(1, NodeId(0));
        assert!(handle(&mut r, now, NodeId(2), accepted(stale, 1)).is_empty());
        assert_eq!(r.log().committed(), Slot::ZERO);
        assert!(!r.read_index_ready());
        // Node 2 under the current ballot is the third.
        let out = handle(&mut r, now, NodeId(2), accepted(ballot, 1));
        assert_eq!(r.log().committed(), Slot(1));
        assert!(out.iter().any(
            |o| matches!(o, Outbound::Broadcast(Message::Learn { slot, .. }) if *slot == Slot(1))
        ));
        assert!(r.read_index_ready());
        // A late ack for a chosen slot changes nothing.
        assert!(handle(&mut r, now, NodeId(3), accepted(ballot, 1)).is_empty());
        assert_eq!(r.log().len(), 1);
    }

    #[test]
    #[should_panic(expected = "64-bit node mask")]
    fn an_ensemble_wider_than_the_ack_mask_is_refused() {
        Replica::new(NodeId(0), 65, cfg(), 1);
    }

    #[test]
    fn one_sink_collects_the_output_of_several_inputs() {
        let (mut nodes, leader) = elect_leader();
        let mut out = Vec::new();
        nodes[leader].submit(t(2000), w(1), &mut out);
        nodes[leader].submit(t(2000), w(2), &mut out);
        let slots: Vec<Slot> = out
            .iter()
            .filter_map(|o| match o {
                Outbound::Broadcast(Message::Accept { slot, .. }) => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(slots, vec![Slot(1), Slot(2)], "appended, not replaced");
    }

    #[test]
    fn lone_node_elects_itself_and_commits() {
        let mut r = Replica::new(NodeId(0), 1, cfg(), 1);
        let due = r.election_due;
        tick(&mut r, due);
        assert_eq!(r.role(), Role::Leader);
        submit(&mut r, due, w(1));
        assert_eq!(r.log().committed(), Slot(1));
        assert_eq!(r.log().get(Slot(1)).unwrap().id, CmdId(1));
    }

    #[test]
    fn three_node_election_and_commit_round() {
        let (mut nodes, leader) = elect_leader();
        let now = t(2000);
        // Leader proposes; acceptors accept; majority chooses.
        let out = submit(&mut nodes[leader], now, w(7));
        let accept = out
            .iter()
            .find_map(|o| match o {
                Outbound::Broadcast(m @ Message::Accept { .. }) => Some(m.clone()),
                _ => None,
            })
            .expect("leader must broadcast an accept");
        let reply = handle(&mut nodes[1], now, NodeId(0), accept);
        let accepted = match &reply[0] {
            Outbound::To(_, m @ Message::Accepted { .. }) => m.clone(),
            other => panic!("expected accepted, got {other:?}"),
        };
        let out = handle(&mut nodes[leader], now, NodeId(1), accepted);
        // With 2/3 acks the command is chosen and learned broadcast.
        assert_eq!(nodes[leader].log().committed(), Slot(1));
        assert!(out.iter().any(
            |o| matches!(o, Outbound::Broadcast(Message::Learn { slot, .. }) if *slot == Slot(1))
        ));
    }

    #[test]
    fn acceptor_rejects_stale_ballots() {
        let mut r = Replica::new(NodeId(1), 3, cfg(), 9);
        let high = Ballot::new(5, NodeId(2));
        let out = handle(
            &mut r,
            t(0),
            NodeId(2),
            Message::Prepare {
                ballot: high,
                committed: Slot::ZERO,
            },
        );
        assert!(matches!(&out[0], Outbound::To(_, Message::Promise { .. })));
        // A lower campaign is refused with the promised ballot.
        let low = Ballot::new(3, NodeId(0));
        let out = handle(
            &mut r,
            t(1),
            NodeId(0),
            Message::Prepare {
                ballot: low,
                committed: Slot::ZERO,
            },
        );
        match &out[0] {
            Outbound::To(to, Message::PrepareNack { promised }) => {
                assert_eq!(*to, NodeId(0));
                assert_eq!(*promised, high);
            }
            other => panic!("expected nack, got {other:?}"),
        }
        // Accept below the promise is also refused.
        let out = handle(
            &mut r,
            t(2),
            NodeId(0),
            Message::Accept {
                ballot: low,
                slot: Slot(1),
                cmd: w(1),
                committed: Slot::ZERO,
            },
        );
        assert!(matches!(
            &out[0],
            Outbound::To(_, Message::AcceptNack { .. })
        ));
    }

    #[test]
    fn new_leader_repropose_highest_ballot_value() {
        // Node 2 campaigns; node 1 promises carrying an accepted entry for
        // slot 1 under an old ballot. The new leader must re-propose that
        // value, not its own.
        let mut leader = Replica::new(NodeId(2), 3, cfg(), 3);
        let due = leader.election_due;
        tick(&mut leader, due);
        let ballot = leader.current_ballot();
        let old = Ballot::new(1, NodeId(0));
        let out = handle(
            &mut leader,
            due,
            NodeId(1),
            Message::Promise {
                ballot,
                accepted: vec![(Slot(1), old, w(99))],
                chosen: vec![],
            },
        );
        assert_eq!(leader.role(), Role::Leader);
        let reproposed = out.iter().any(|o| {
            matches!(o, Outbound::Broadcast(Message::Accept { slot, cmd, .. })
                if *slot == Slot(1) && cmd.id == CmdId(99))
        });
        assert!(reproposed, "constrained slot must be re-proposed: {out:?}");
    }

    #[test]
    fn gaps_fill_with_noops_on_leader_change() {
        let mut leader = Replica::new(NodeId(2), 3, cfg(), 3);
        let due = leader.election_due;
        tick(&mut leader, due);
        let ballot = leader.current_ballot();
        // Promise reports an accepted entry at slot 3 only: slots 1-2 are
        // gaps the new leader must close with no-ops.
        let out = handle(
            &mut leader,
            due,
            NodeId(1),
            Message::Promise {
                ballot,
                accepted: vec![(Slot(3), Ballot::new(1, NodeId(0)), w(33))],
                chosen: vec![],
            },
        );
        let mut noop_slots = Vec::new();
        for o in &out {
            if let Outbound::Broadcast(Message::Accept { slot, cmd, .. }) = o {
                if cmd.is_noop() {
                    noop_slots.push(*slot);
                }
            }
        }
        assert_eq!(noop_slots, vec![Slot(1), Slot(2)]);
    }

    #[test]
    fn follower_forwards_submissions_to_leader() {
        let mut f = Replica::new(NodeId(1), 3, cfg(), 4);
        // Learn of a leader via heartbeat.
        handle(
            &mut f,
            t(0),
            NodeId(0),
            Message::Heartbeat {
                ballot: Ballot::new(1, NodeId(0)),
                committed: Slot::ZERO,
            },
        );
        let out = submit(&mut f, t(1), w(5));
        assert!(matches!(&out[0],
            Outbound::To(to, Message::Forward { cmd }) if *to == NodeId(0) && cmd.id == CmdId(5)));
        // Still queued for re-forwarding until observed chosen.
        assert_eq!(f.pending_len(), 1);
        handle(
            &mut f,
            t(2),
            NodeId(0),
            Message::Learn {
                slot: Slot(1),
                cmd: w(5),
            },
        );
        assert_eq!(f.pending_len(), 0);
    }

    #[test]
    fn leaderless_submissions_queue_until_leader_known() {
        let mut f = Replica::new(NodeId(1), 3, cfg(), 4);
        assert!(submit(&mut f, t(0), w(5)).is_empty());
        assert_eq!(f.pending_len(), 1);
        // Heartbeat announces a leader: pending flushes as Forward.
        let out = handle(
            &mut f,
            t(1),
            NodeId(0),
            Message::Heartbeat {
                ballot: Ballot::new(1, NodeId(0)),
                committed: Slot::ZERO,
            },
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, Outbound::To(to, Message::Forward { .. }) if *to == NodeId(0))));
    }

    #[test]
    fn duplicate_submissions_are_ignored() {
        let (mut nodes, leader) = elect_leader();
        let now = t(2000);
        submit(&mut nodes[leader], now, w(7));
        let out = submit(&mut nodes[leader], now, w(7));
        assert!(out.is_empty(), "duplicate while inflight must be dropped");
        // And once chosen it is still deduplicated.
        let ballot = nodes[leader].current_ballot();
        handle(
            &mut nodes[leader],
            now,
            NodeId(1),
            Message::Accepted {
                ballot,
                slot: Slot(1),
            },
        );
        assert_eq!(nodes[leader].log().committed(), Slot(1));
        let out = submit(&mut nodes[leader], now, w(7));
        assert!(out.is_empty());
    }

    #[test]
    fn leader_steps_down_on_higher_ballot() {
        let (mut nodes, leader) = elect_leader();
        let now = t(3000);
        submit(&mut nodes[leader], now, w(1));
        let higher = nodes[leader].current_ballot().succeed(NodeId(2));
        handle(
            &mut nodes[leader],
            now,
            NodeId(2),
            Message::Prepare {
                ballot: higher,
                committed: Slot::ZERO,
            },
        );
        assert_eq!(nodes[leader].role(), Role::Follower);
        // The in-flight client command went back to pending, not lost.
        assert_eq!(nodes[leader].pending_len(), 1);
    }

    #[test]
    fn lagging_learner_requests_catchup() {
        let mut f = Replica::new(NodeId(1), 3, cfg(), 4);
        let out = handle(
            &mut f,
            t(0),
            NodeId(0),
            Message::Heartbeat {
                ballot: Ballot::new(1, NodeId(0)),
                committed: Slot(4),
            },
        );
        let req = out.iter().find_map(|o| match o {
            Outbound::To(to, Message::CatchUpRequest { above }) => Some((*to, *above)),
            _ => None,
        });
        assert_eq!(req, Some((NodeId(0), Slot::ZERO)));
    }

    #[test]
    fn catchup_reply_fills_log() {
        let mut f = Replica::new(NodeId(1), 3, cfg(), 4);
        handle(
            &mut f,
            t(0),
            NodeId(0),
            Message::CatchUpReply {
                chosen: vec![(Slot(1), w(1)), (Slot(2), w(2))],
            },
        );
        assert_eq!(f.log().committed(), Slot(2));
        let chosen = f.drain_newly_chosen();
        assert_eq!(chosen.len(), 2);
    }

    #[test]
    fn catchup_request_served_from_log() {
        let (mut nodes, leader) = elect_leader();
        let now = t(2000);
        submit(&mut nodes[leader], now, w(1));
        let ballot = nodes[leader].current_ballot();
        handle(
            &mut nodes[leader],
            now,
            NodeId(1),
            Message::Accepted {
                ballot,
                slot: Slot(1),
            },
        );
        let out = handle(
            &mut nodes[leader],
            now,
            NodeId(2),
            Message::CatchUpRequest { above: Slot::ZERO },
        );
        match &out[0] {
            Outbound::To(to, Message::CatchUpReply { chosen }) => {
                assert_eq!(*to, NodeId(2));
                assert_eq!(chosen.len(), 1);
                assert_eq!(chosen[0].0, Slot(1));
            }
            other => panic!("expected catch-up reply, got {other:?}"),
        }
    }

    #[test]
    fn heartbeats_defer_elections() {
        let mut f = Replica::new(NodeId(1), 3, cfg(), 4);
        let mut now = t(0);
        // Regular heartbeats: no election for a long horizon.
        for _ in 0..100 {
            handle(
                &mut f,
                now,
                NodeId(0),
                Message::Heartbeat {
                    ballot: Ballot::new(1, NodeId(0)),
                    committed: Slot::ZERO,
                },
            );
            now += SimDuration::from_millis(100);
            let out = tick(&mut f, now);
            assert_eq!(f.role(), Role::Follower);
            assert!(out.is_empty());
        }
        // Silence: the next tick past the deadline campaigns.
        now += SimDuration::from_millis(3000);
        tick(&mut f, now);
        assert_eq!(f.role(), Role::Candidate);
        assert_eq!(f.elections_started, 1);
    }

    #[test]
    fn candidate_rebids_with_higher_round_after_timeout() {
        let mut c = Replica::new(NodeId(0), 3, cfg(), 4);
        let due = c.election_due;
        tick(&mut c, due);
        let first = c.current_ballot();
        // No promises arrive; past the rebid deadline a new campaign starts.
        let rebid_at = c.election_due;
        tick(&mut c, rebid_at);
        let second = c.current_ballot();
        assert!(second > first);
        assert_eq!(c.elections_started, 2);
    }

    #[test]
    fn leader_retransmits_unacked_proposals() {
        let (mut nodes, leader) = elect_leader();
        let now = t(2000);
        submit(&mut nodes[leader], now, w(1));
        // No Accepted arrives; after the retry interval the Accept re-sends.
        let later = now + SimDuration::from_millis(250);
        let out = tick(&mut nodes[leader], later);
        assert!(out.iter().any(|o| matches!(
            o,
            Outbound::Broadcast(Message::Accept { slot, .. }) if *slot == Slot(1)
        )));
    }

    #[test]
    fn learn_is_idempotent_and_detects_conflicts() {
        let mut f = Replica::new(NodeId(1), 3, cfg(), 4);
        handle(
            &mut f,
            t(0),
            NodeId(0),
            Message::Learn {
                slot: Slot(1),
                cmd: w(1),
            },
        );
        handle(
            &mut f,
            t(1),
            NodeId(0),
            Message::Learn {
                slot: Slot(1),
                cmd: w(1),
            },
        );
        assert!(f.take_violations().is_empty());
        // A conflicting decision (impossible in a correct protocol run) is
        // surfaced, not silently applied.
        handle(
            &mut f,
            t(2),
            NodeId(0),
            Message::Learn {
                slot: Slot(1),
                cmd: w(2),
            },
        );
        let v = f.take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].slot, Slot(1));
    }
}
