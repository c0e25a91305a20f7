//! One Paxos ensemble: the replicas, their outbox and their mailbox.
//!
//! Two hosts run [`Replica`]s: [`ConsensusCluster`], the bare cluster of
//! e16–e18 and the invariant battery, and the deployment's per-partition
//! groups in `udr_core`. Both own an [`Ensemble`], which does what they
//! share: it feeds a replica one input, expands a broadcast to every other
//! node in index order, holds each message the host decides to deliver
//! until its delivery, and answers what every host asks — the live
//! leader, the majority, whether a command is chosen, and whether the
//! nodes' logs agree. Each host keeps only what is its own: the clock and
//! tick model, the up/down source, the random stream, command-id
//! allocation, message accounting and trace stamping, and what it does
//! with chosen commands.
//!
//! A step allocates nothing once an ensemble is warm. Every replica input
//! pushes what it sends onto the ensemble's one outbox, which
//! [`Ensemble::step`] drains and keeps. A message in flight waits in the
//! ensemble's mailbox, a slab whose slots a LIFO free list recycles; the
//! host's delivery event holds only its `u32` ticket, and a host takes the
//! message out ([`Ensemble::take`]) before anything else, so a message
//! dropped at a down or cut-off node frees its slot too. The one message
//! that carries a vector of decisions, a catch-up reply (or a promise),
//! takes it from the ensemble's spare list, and its receiver puts the
//! emptied vector back; only a reply longer than every spare, or one lost
//! on the way, costs an allocation.
//!
//! The hosts still differ in their delivery rule. The deployment draws no
//! network sample for a message to a down node and drops a message at
//! delivery if a cut has started since it was sent; the cluster does
//! neither. One rule for both would move e16–e18's figures, so it is left
//! to a change that carries its own baseline diff.
//!
//! [`ConsensusCluster`]: crate::runtime::ConsensusCluster

use udr_model::time::SimTime;

use crate::ballot::{Ballot, NodeId, Slot};
use crate::msg::{CmdId, Command, Message};
use crate::replica::{Outbound, Replica, ReplicaConfig, Role};

/// `n` replicas and the messages in flight between them.
pub struct Ensemble {
    /// The protocol state machines, node `i` at index `i`.
    replicas: Vec<Replica>,
    /// What the replica being stepped sends; empty between steps, kept so
    /// a step allocates nothing.
    outbox: Vec<Outbound>,
    /// The protocol messages in flight between the nodes.
    mailbox: Mailbox,
    /// Each replica's own agreement violations, drained after every step.
    violations: Vec<String>,
    /// Emptied `chosen` vectors of catch-up replies and promises, lent to
    /// the replica being stepped (see `Replica::spare_chosen`): the
    /// receiver hands its emptied vector back and the next sender fills
    /// it, so a warm catch-up reply allocates nothing.
    spare_chosen: Vec<Vec<(Slot, Command)>>,
}

impl Ensemble {
    /// `n` fresh followers, each built from `cfg` and `seed`.
    pub fn new(n: usize, cfg: ReplicaConfig, seed: u64) -> Self {
        Ensemble {
            replicas: (0..n as u32)
                .map(|i| Replica::new(NodeId(i), n, cfg.clone(), seed))
                .collect(),
            outbox: Vec::new(),
            mailbox: Mailbox::default(),
            violations: Vec::new(),
            spare_chosen: Vec::new(),
        }
    }

    /// The replicas, node `i` at index `i`.
    pub fn nodes(&self) -> &[Replica] {
        &self.replicas
    }

    /// Majority threshold of the ensemble.
    pub fn majority(&self) -> usize {
        self.replicas.len() / 2 + 1
    }

    /// Feed `node` one input (`input` pushes what the replica sends onto
    /// the ensemble's one outbox), then offer every message it sent, a
    /// broadcast expanded to every other node in index order, to
    /// `route(from, to, ticket, msg)`. A route that schedules the delivery
    /// under `ticket` returns `true`, and the ensemble then holds the
    /// message until the host [`take`](Self::take)s it; one that returns
    /// `false` drops it.
    pub fn step(
        &mut self,
        node: usize,
        input: impl FnOnce(&mut Replica, &mut Vec<Outbound>),
        mut route: impl FnMut(usize, usize, u32, &Message) -> bool,
    ) {
        let mut outbox = std::mem::take(&mut self.outbox);
        let replica = &mut self.replicas[node];
        std::mem::swap(&mut replica.spare_chosen, &mut self.spare_chosen);
        input(replica, &mut outbox);
        std::mem::swap(&mut replica.spare_chosen, &mut self.spare_chosen);
        for v in replica.take_violations() {
            self.violations.push(format!("{}: {v}", replica.id()));
        }
        for out in outbox.drain(..) {
            match out {
                Outbound::To(to, msg) => {
                    if route(node, to.index(), self.mailbox.next_ticket(), &msg) {
                        self.mailbox.post(msg);
                    }
                }
                Outbound::Broadcast(msg) => {
                    for to in (0..self.replicas.len()).filter(|to| *to != node) {
                        if route(node, to, self.mailbox.next_ticket(), &msg) {
                            self.mailbox.post(msg.clone());
                        }
                    }
                }
            }
        }
        self.outbox = outbox;
    }

    /// Hold `msg` until its delivery; returns its ticket. [`step`](Self::step)
    /// posts what a replica sends; a host posts directly only to inject a
    /// message of its own.
    pub fn post(&mut self, msg: Message) -> u32 {
        self.mailbox.post(msg)
    }

    /// The message `ticket` names, freeing its slot.
    ///
    /// # Panics
    ///
    /// If `ticket` was already taken.
    pub fn take(&mut self, ticket: u32) -> Message {
        self.mailbox.take(ticket)
    }

    /// Messages posted and not yet taken.
    pub fn in_flight(&self) -> usize {
        self.mailbox.live()
    }

    /// Take the decisions `node` learned since the previous call (see
    /// [`Replica::drain_newly_chosen`]).
    pub fn drain_newly_chosen(&mut self, node: usize) -> std::vec::Drain<'_, (Slot, Command)> {
        self.replicas[node].drain_newly_chosen()
    }

    /// The live leader: among the nodes `is_up` admits that are in the
    /// `Leader` role, the one holding the highest ballot (a deposed leader
    /// that has not yet heard of its successor loses the tie).
    pub fn leader(&self, is_up: impl Fn(usize) -> bool) -> Option<usize> {
        (0..self.replicas.len())
            .filter(|i| is_up(*i) && self.replicas[*i].role() == Role::Leader)
            .max_by_key(|i| self.replicas[*i].current_ballot())
    }

    /// Whether any node has chosen command `id`.
    pub fn chosen(&self, id: CmdId) -> bool {
        self.replicas.iter().any(|r| r.log().contains_id(id))
    }

    /// Elections started across the nodes.
    pub fn elections(&self) -> u64 {
        self.replicas.iter().map(|r| r.elections_started).sum()
    }

    /// The deepest contiguous chosen slot any node holds.
    pub fn committed_watermark(&self) -> Slot {
        self.replicas
            .iter()
            .map(|r| r.log().committed())
            .max()
            .unwrap_or(Slot::ZERO)
    }

    /// Every agreement violation observed (empty in a correct run): what
    /// each replica found against its own log, then every pair of logs
    /// checked against each other — a down node's decided prefix must
    /// still agree. A pair compares the slots both still hold one by one,
    /// and what either compacted by the digest of its prefix at the higher
    /// of their bases ([`ChosenLog::agrees_with`]), so a conflict stays
    /// reported after compaction took its slot.
    ///
    /// [`ChosenLog::agrees_with`]: crate::ChosenLog::agrees_with
    pub fn agreement_violations(&self) -> Vec<String> {
        let mut violations = self.violations.clone();
        for (a, ra) in self.replicas.iter().enumerate() {
            for (b, rb) in self.replicas.iter().enumerate().skip(a + 1) {
                if let Err(v) = ra.log().agrees_with(rb.log()) {
                    violations.push(format!("n{a} vs n{b}: {v}"));
                }
            }
        }
        violations
    }

    /// Compact node `i`'s chosen log through `floor(i)`
    /// ([`ChosenLog::compact_through`], which clamps it to the log's
    /// watermark); floors no log's base is below change nothing. The host
    /// picks for each node a floor no reader of its log lies below.
    ///
    /// Nothing is compacted while a command already chosen may yet be
    /// chosen, or learned, at a second slot (`second_copy_pending`):
    /// each log shadows the second copy only while it holds the first.
    ///
    /// [`ChosenLog::compact_through`]: crate::ChosenLog::compact_through
    pub fn compact_through(&mut self, floor: impl Fn(usize) -> Slot) {
        let moves = |(i, r): (usize, &Replica)| r.log().base() < floor(i).min(r.log().committed());
        if !self.replicas.iter().enumerate().any(moves) || self.second_copy_pending() {
            return;
        }
        for (i, replica) in self.replicas.iter_mut().enumerate() {
            replica.compact_log_through(floor(i));
        }
    }

    /// Node `node` takes a copy of node `from`'s decided log in place of
    /// its own, keeping its own decisions above `from`'s base: the host's
    /// install of a node that restored behind the other logs' compacted
    /// base. The node drops what it had queued or proposed, and a leader
    /// or candidate steps down at `now`.
    pub fn install_log(&mut self, now: SimTime, node: usize, from: usize) {
        let log = self.replicas[from].log().clone();
        self.replicas[node].install_log(now, log);
    }

    /// Whether a command chosen at one slot may still be chosen at, or has
    /// not yet reached every log at, another. That takes a leader change
    /// around a re-forwarded command, so it is rare, and one of:
    /// * a node holds a proposal of the command at another slot (a value
    ///   it accepted, or one a campaign gathered), which a new leader may
    ///   choose there;
    /// * a message in flight carries one: a `Forward`, which a leader
    ///   whose log no longer holds the id would propose afresh, or an
    ///   `Accept` or `Promise` for another slot;
    /// * a log holds a shadowed second copy another log has not decided
    ///   yet: that log must still hold the first copy when it learns it.
    ///
    /// A pending command needs no check: its node has not learned the
    /// command's slot. While the node is up its cursor holds the floor
    /// below that slot; a node that was down restores either above the
    /// base, or behind it, and then drops its pending commands with its
    /// log ([`Ensemble::install_log`]).
    fn second_copy_pending(&self) -> bool {
        let chosen_elsewhere = |slot: Option<Slot>, cmd: &Command| {
            !cmd.id.is_noop()
                && self.replicas.iter().any(|q| {
                    q.log().contains_id(cmd.id)
                        && slot.is_none_or(|s| q.log().get(s).is_none_or(|held| held.id != cmd.id))
                })
        };
        let proposals = self
            .replicas
            .iter()
            .flat_map(Replica::proposals)
            .map(|(slot, cmd)| (Some(slot), cmd));
        let undecided = |slot: Slot| self.replicas.iter().any(|q| !q.log().is_decided(slot));
        proposals
            .chain(self.mailbox.proposals())
            .any(|(slot, cmd)| chosen_elsewhere(slot, cmd))
            || self
                .replicas
                .iter()
                .flat_map(|r| r.log().shadowed_slots())
                .any(undecided)
    }
}

/// Protocol messages in flight, each held in a slot a host's delivery
/// event names by its ticket. A delivered slot goes on a free list and the
/// next message posted takes the most recently freed one, so once the slab
/// has grown to the most messages ever in flight at once, posting a
/// message allocates nothing.
#[derive(Default)]
struct Mailbox {
    slots: Vec<Option<Message>>,
    free: Vec<u32>,
}

impl Mailbox {
    /// The ticket the next [`post`](Self::post) returns.
    fn next_ticket(&self) -> u32 {
        match self.free.last() {
            Some(ticket) => *ticket,
            None => self.slots.len() as u32,
        }
    }

    /// Hold `msg` until its delivery; returns its ticket.
    fn post(&mut self, msg: Message) -> u32 {
        match self.free.pop() {
            Some(ticket) => {
                self.slots[ticket as usize] = Some(msg);
                ticket
            }
            None => {
                self.slots.push(Some(msg));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The message `ticket` names, freeing its slot.
    fn take(&mut self, ticket: u32) -> Message {
        let msg = self.slots[ticket as usize]
            .take()
            .expect("a ticket is delivered once");
        self.free.push(ticket);
        msg
    }

    /// The commands the messages in flight propose, each with the slot it
    /// is proposed at, if any: a `Forward`'s command (no slot yet), an
    /// `Accept`'s, and a `Promise`'s accepted values.
    fn proposals(&self) -> impl Iterator<Item = (Option<Slot>, &Command)> + '_ {
        self.slots.iter().flatten().flat_map(|msg| {
            let (single, accepted): (_, &[(Slot, Ballot, Command)]) = match msg {
                Message::Forward { cmd } => (Some((None, cmd)), &[]),
                Message::Accept { slot, cmd, .. } => (Some((Some(*slot), cmd)), &[]),
                Message::Promise { accepted, .. } => (None, accepted),
                _ => (None, &[]),
            };
            let accepted = accepted.iter().map(|(slot, _, cmd)| (Some(*slot), cmd));
            single.into_iter().chain(accepted)
        })
    }

    /// Messages posted and not yet taken.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat(committed: u64) -> Message {
        Message::Heartbeat {
            ballot: Ballot::ZERO,
            committed: Slot(committed),
            sent: SimTime::ZERO,
        }
    }

    fn trio() -> Ensemble {
        Ensemble::new(3, ReplicaConfig::default(), 1)
    }

    #[test]
    fn a_freed_ticket_is_the_next_one_posted() {
        let mut mailbox = Mailbox::default();
        let tickets: Vec<u32> = (0..3).map(|i| mailbox.post(heartbeat(i))).collect();
        assert_eq!(tickets, [0, 1, 2]);
        assert_eq!(mailbox.take(1), heartbeat(1));
        assert_eq!(mailbox.next_ticket(), 1);
        assert_eq!(mailbox.post(heartbeat(3)), 1);
        assert_eq!(mailbox.take(0), heartbeat(0));
        assert_eq!(mailbox.take(2), heartbeat(2));
        // Last freed, first reused.
        assert_eq!(mailbox.post(heartbeat(4)), 2);
        assert_eq!(mailbox.post(heartbeat(5)), 0);
        assert_eq!(mailbox.live(), 3);
        // Three in flight at most, so the slab holds three slots.
        assert_eq!(mailbox.slots.len(), 3);
        assert_eq!(mailbox.next_ticket(), 3);
    }

    #[test]
    fn a_broadcast_reaches_every_other_node_in_index_order() {
        let mut ensemble = Ensemble::new(5, ReplicaConfig::default(), 1);
        let mut sent = Vec::new();
        ensemble.step(
            2,
            |_, out| out.push(Outbound::Broadcast(heartbeat(7))),
            |from, to, ticket, msg| {
                assert_eq!(*msg, heartbeat(7));
                sent.push((from, to, ticket));
                true
            },
        );
        assert_eq!(sent, [(2, 0, 0), (2, 1, 1), (2, 3, 2), (2, 4, 3)]);
        assert_eq!(ensemble.in_flight(), 4);
        for (_, _, ticket) in sent {
            assert_eq!(ensemble.take(ticket), heartbeat(7));
        }
        assert_eq!(ensemble.in_flight(), 0);
    }

    #[test]
    fn a_refused_message_leaves_no_live_ticket() {
        let mut ensemble = trio();
        let mut offered = Vec::new();
        ensemble.step(
            0,
            |_, out| {
                out.push(Outbound::To(NodeId(1), heartbeat(1)));
                out.push(Outbound::Broadcast(heartbeat(2)));
            },
            |_, to, ticket, _| {
                offered.push((to, ticket));
                to == 2
            },
        );
        // Refused offers do not use up their ticket: the one accepted
        // message is ticket 0 whatever was refused before it.
        assert_eq!(offered, [(1, 0), (1, 0), (2, 0)]);
        assert_eq!(ensemble.in_flight(), 1);
        assert_eq!(ensemble.take(0), heartbeat(2));
        ensemble.step(
            0,
            |_, out| out.push(Outbound::Broadcast(heartbeat(3))),
            |_, _, _, _| false,
        );
        assert_eq!(ensemble.in_flight(), 0);
    }

    fn write(id: u64) -> Command {
        Command::write(CmdId(id), udr_model::ids::SubscriberUid(id), None)
    }

    /// Have `node` learn `cmd` at `slot`.
    fn learn(ensemble: &mut Ensemble, node: usize, slot: u64, cmd: Command) {
        let msg = Message::Learn {
            slot: Slot(slot),
            cmd,
        };
        ensemble.step(
            node,
            |r, out| r.handle(udr_model::time::SimTime::ZERO, NodeId(0), msg, out),
            |_, _, _, _| false,
        );
    }

    /// A command chosen twice, at slots 1 and 3, that node 2 has learned
    /// only at slot 1: compacting slot 1 away first would leave node 2
    /// nothing to shadow slot 3 with, so compaction waits for it.
    #[test]
    fn a_second_copy_not_yet_learned_everywhere_holds_compaction() {
        let mut ensemble = trio();
        for node in 0..3 {
            learn(&mut ensemble, node, 1, write(1));
            learn(&mut ensemble, node, 2, write(2));
        }
        for node in 0..2 {
            learn(&mut ensemble, node, 3, write(1));
        }
        ensemble.compact_through(|_| Slot(2));
        assert!(ensemble
            .nodes()
            .iter()
            .all(|r| r.log().base() == Slot::ZERO));

        learn(&mut ensemble, 2, 3, write(1));
        ensemble.compact_through(|_| Slot(2));
        for r in ensemble.nodes() {
            assert_eq!(r.log().base(), Slot(2));
            assert_eq!(r.log().effective_after(Slot(2)).count(), 0, "{}", r.id());
        }
    }

    /// An `Accept` in flight that proposes a chosen command at another
    /// slot holds compaction until it is delivered; one for the command's
    /// own slot does not.
    #[test]
    fn an_accept_in_flight_for_a_second_slot_holds_compaction() {
        let mut ensemble = trio();
        for node in 0..3 {
            learn(&mut ensemble, node, 1, write(1));
        }
        let accept = |slot| Message::Accept {
            ballot: Ballot::ZERO,
            slot: Slot(slot),
            cmd: write(1),
            committed: Slot(1),
        };
        let same = ensemble.post(accept(1));
        let second = ensemble.post(accept(2));
        ensemble.compact_through(|_| Slot(1));
        assert!(ensemble
            .nodes()
            .iter()
            .all(|r| r.log().base() == Slot::ZERO));

        ensemble.take(second);
        ensemble.compact_through(|_| Slot(1));
        assert!(ensemble.nodes().iter().all(|r| r.log().base() == Slot(1)));
        ensemble.take(same);
    }

    #[test]
    fn conflicting_logs_are_reported_pairwise() {
        let mut ensemble = trio();
        assert!(ensemble.agreement_violations().is_empty());
        for (node, id) in [(0, 1), (1, 1), (2, 2)] {
            learn(&mut ensemble, node, 1, write(id));
        }
        let violations = ensemble.agreement_violations();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].starts_with("n0 vs n2"), "{violations:?}");
        assert!(violations[1].starts_with("n1 vs n2"), "{violations:?}");
    }
}
