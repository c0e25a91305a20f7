//! Consensus replication mode: per-partition Multi-Paxos replica groups
//! embedded in the deployment's event pump, and the routing through them.
//!
//! Under [`ReplicationMode::Consensus`] the ordinary master/slave
//! machinery — asynchronous shippers, failover checks, snapshot reseeds —
//! is switched off. Each partition instead runs an `n`-node
//! [`udr_consensus::Replica`] ensemble whose membership is the replication
//! group's alone: node `i` of partition `p` lives on
//! `groups[p].members()[i]`, and a cutover's `replace_member` swaps in
//! place. Protocol timers ([`UdrEvent::ConsensusTick`]) and message
//! deliveries ([`UdrEvent::ConsensusDeliver`]) flow through the
//! deployment's one event pump, so consensus traffic interleaves
//! deterministically with faults and client operations.
//!
//! This module holds the groups and the paths only the deployment has:
//! routing (the consensus arm of `ReplicationStage::route` calls
//! `Udr::consensus_route`), the tick and delivery rule, apply and the
//! reconfig cutover. Where consensus and the copy families answer the same question
//! (catch-up, crash, restore, lag, settle) the answer is one function in
//! [`crate::replication`] with a consensus arm, reading the ensemble state
//! this module exposes to the crate.
//!
//! Each group hosts an [`Ensemble`], the same host `udr_consensus`'s
//! cluster harness runs on: it steps the replicas, fans out and holds
//! their messages (a [`UdrEvent::ConsensusDeliver`] carries only a `u32`
//! ticket), and names the live leader. Its [module doc] says how a
//! protocol step stays allocation-free. A chosen write becomes a commit record
//! holding its one change inline. What a consensus write still allocates
//! is its post-image and its share of chosen-log growth.
//!
//! The log replicates *state*, not operations: the serving leader computes
//! the post-image of a write against its committed store and the chosen
//! [`Payload::Write`] carries it, so every replica applies the identical
//! record (`Udr::consensus_apply`). A replica's engine therefore always
//! equals its applied committed prefix — the structural property that
//! makes stale reads impossible when reads are routed to the serving
//! leader (`Udr::consensus_read`).
//!
//! Crashes model a process stop with acceptor state preserved across
//! restart (the persistence Paxos requires): a down node simply stops
//! ticking and receiving; on restore (`Udr::restore_se`) its engine is
//! rolled forward from the recovered disk position by replaying the chosen
//! log from `cursor_for_writes`.
//!
//! Migration cutovers ride the log as [`Payload::Reconfig`] commands —
//! exactly-once (command-id dedup plus first-apply-wins) and totally
//! ordered against the write stream, replacing the legacy write-freeze
//! window (see `Udr::run_consensus_migrations`).
//!
//! [`ReplicationMode::Consensus`]: udr_model::config::ReplicationMode::Consensus
//! [module doc]: udr_consensus::ensemble
//! [`Payload::Write`]: udr_consensus::Payload::Write
//! [`Payload::Reconfig`]: udr_consensus::Payload::Reconfig

use udr_consensus::replica::Outbound;
use udr_consensus::{
    ChosenLog, CmdId, Command, Ensemble, NodeId, Payload, Replica, ReplicaConfig, Slot,
};
use udr_ldap::LdapOp;
use udr_model::attrs::Entry;
use udr_model::error::UdrError;
use udr_model::ids::{PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr_model::time::{SimDuration, SimTime};
use udr_replication::MigrationState;
use udr_storage::{Change, CommitRecord, Lsn};

use crate::ops::OpOutcome;
use crate::pipeline::{sample_rtt, PipelineCtx, ReadRoute};
use crate::udr::{Udr, UdrEvent, LANE};

/// How often each partition's ensemble runs its protocol timers
/// (election timeouts, heartbeats, forward retries, catch-up probes).
pub(crate) const CONSENSUS_TICK_INTERVAL: SimDuration = SimDuration::from_millis(50);

/// One partition's Multi-Paxos ensemble and its apply bookkeeping. Node
/// `i` is hosted by the partition's `groups[p].members()[i]`.
pub(crate) struct ConsensusGroup {
    /// The protocol state machines (RAM *and* the durable acceptor state —
    /// preserved across SE crashes, as Paxos requires) and the messages in
    /// flight between them.
    pub(crate) ensemble: Ensemble,
    /// Apply cursor per node: the slot up to which this node's storage
    /// holds its log's effective entries. `consensus_apply` resumes
    /// strictly above it and leaves it at the log's `committed()`.
    pub(crate) applied: Vec<Slot>,
    /// Scratch for the read-index echoes of one `consensus_read`, kept so
    /// a read allocates nothing.
    echoes: Vec<SimDuration>,
    /// Last observed serving leader (bookkeeping for failover counting).
    last_leader: Option<usize>,
    /// Serving-leader hand-offs observed (failovers under consensus).
    leader_changes: u64,
}

impl ConsensusGroup {
    /// A fresh ensemble of `n` followers.
    pub(crate) fn new(n: usize, seed: u64, partition: u32) -> Self {
        let seed = seed ^ 0x9A05 ^ ((partition as u64) << 8);
        ConsensusGroup {
            ensemble: Ensemble::new(n, ReplicaConfig::default(), seed),
            applied: vec![Slot::ZERO; n],
            echoes: Vec::with_capacity(n),
            last_leader: None,
            leader_changes: 0,
        }
    }
}

/// The apply cursor equivalent to `writes` committed records: the slot of
/// the `writes`-th effective `Write` entry, so a recovering engine at LSN
/// `writes` resumes exactly where its disk state left off. Reconfig
/// entries above the cursor are re-applied; the first-apply-wins guard in
/// [`Udr::consensus_reconfig_applied`] makes that a no-op. The one walk
/// of the log's history left, paid per restore.
pub(crate) fn cursor_for_writes(log: &ChosenLog, writes: u64) -> Slot {
    if writes == 0 {
        return Slot::ZERO;
    }
    log.iter_effective()
        .filter(|(_, cmd)| matches!(cmd.payload, Payload::Write { .. }))
        .nth(writes as usize - 1)
        // More writes on disk than the durable log exposes cannot happen.
        .map_or_else(|| log.committed(), |(slot, _)| slot)
}

impl Udr {
    /// Whether ensemble node `i` of partition `p` is up (its hosting SE).
    pub(crate) fn consensus_node_up(&self, p: usize, i: usize) -> bool {
        let se = self.groups[p].members()[i];
        self.ses[se.index()].is_up()
    }

    fn consensus_node_site(&self, p: usize, i: usize) -> SiteId {
        let se = self.groups[p].members()[i];
        self.ses[se.index()].site()
    }

    /// Allocate the next client command id (0 is the reserved no-op).
    fn consensus_alloc_cmd_id(&mut self) -> CmdId {
        let id = self.next_cmd_id;
        self.next_cmd_id += 1;
        CmdId(id)
    }

    /// The *serving* leader of partition `p`: the live leader, provided it
    /// structurally reaches a majority of the ensemble (itself included).
    /// A leader stranded on the minority side of a cut cannot confirm its
    /// lease and is not allowed to serve — the read-index check that makes
    /// minority-side refusals typed instead of stale.
    pub(crate) fn consensus_serving_leader(&self, p: usize) -> Option<usize> {
        let ensemble = &self.consensus[p].ensemble;
        let leader = ensemble.leader(|i| self.consensus_node_up(p, i))?;
        let leader_site = self.consensus_node_site(p, leader);
        let n = ensemble.nodes().len();
        let reach = (0..n)
            .filter(|j| {
                self.consensus_node_up(p, *j)
                    && self
                        .net
                        .reachable(leader_site, self.consensus_node_site(p, *j))
            })
            .count();
        (reach >= ensemble.majority()).then_some(leader)
    }

    /// Up ensemble members of partition `p` reachable from `from`
    /// (the "acks available" figure a typed refusal reports).
    fn consensus_reachable_from(&self, p: usize, from: SiteId) -> usize {
        (0..self.consensus[p].ensemble.nodes().len())
            .filter(|j| {
                self.consensus_node_up(p, *j)
                    && self.net.reachable(from, self.consensus_node_site(p, *j))
            })
            .count()
    }

    /// Submit a command at node `node` of `partition`'s ensemble and route
    /// whatever the protocol wants sent. `trace` (0 = untraced) rides every
    /// protocol message the submission fans out, so a traced client write
    /// can be followed propose → chosen → apply across the ensemble.
    fn consensus_submit_via(
        &mut self,
        t: SimTime,
        partition: PartitionId,
        node: usize,
        cmd: Command,
        trace: u64,
    ) {
        if trace != 0 && self.tracer.enabled() {
            self.tracer.instant(
                trace,
                0,
                "consensus.propose",
                t,
                Some(format!("p{} via n{node} cmd={}", partition.0, cmd.id.0)),
            );
        }
        self.consensus_step(t, partition, node, trace, |r, out| r.submit(t, cmd, out));
    }

    /// The replication stage under consensus, which bypasses copy routing:
    /// a write commits through the partition's ensemble, a read is served
    /// from the serving leader's committed prefix.
    pub(crate) fn consensus_route(
        &mut self,
        ctx: &mut PipelineCtx,
        partition: PartitionId,
    ) -> Result<(), OpOutcome> {
        if ctx.op.is_write() {
            self.consensus_write(ctx, partition)
        } else {
            self.consensus_read(ctx, partition)
        }
    }

    /// Reach partition `p`'s serving consensus leader from the serving LDAP
    /// server: one round trip, charged to replication. Returns the leader's
    /// member index, SE and site. No serving leader (an election gap or a
    /// minority-side leader), a cut path or a lost message each refuse
    /// with a typed error after the operation timeout.
    fn reach_consensus_leader(
        &mut self,
        ctx: &mut PipelineCtx,
        p: usize,
    ) -> Result<(usize, SeId, SiteId), OpOutcome> {
        let Some(leader) = self.consensus_serving_leader(p) else {
            ctx.breakdown.replication += self.cfg.frash.op_timeout;
            return Err(ctx.fail(UdrError::ReplicationFailed {
                acked: self.consensus_reachable_from(p, ctx.server_site),
                required: self.consensus[p].ensemble.majority(),
            }));
        };
        let leader_se = self.groups[p].members()[leader];
        let leader_site = self.ses[leader_se.index()].site();
        if !self.net.reachable(ctx.server_site, leader_site) {
            ctx.breakdown.replication += self.cfg.frash.op_timeout;
            return Err(ctx.fail(UdrError::Unreachable {
                se: leader_se,
                reason: "partition",
            }));
        }
        let Some(rtt) = sample_rtt(self, ctx.server_site, leader_site) else {
            ctx.breakdown.replication += self.cfg.frash.op_timeout;
            return Err(ctx.fail(UdrError::Timeout));
        };
        ctx.breakdown.replication += rtt;
        Ok((leader, leader_se, leader_site))
    }

    /// Consensus write: replicate the post-image through the partition's
    /// Multi-Paxos group and acknowledge only once the command is chosen.
    ///
    /// The leader computes the post-image against its committed store (the
    /// ensemble's serialization point), submits it as a log command, and
    /// routing waits — in virtual time, driving the event pump — for the
    /// choice. No serving leader, an unreachable leader or an election
    /// gap all yield *typed* refusals ([`UdrError::is_partition_induced`]),
    /// never a silent downgrade: the CP contract of the mode.
    ///
    /// Returns `Err` in both directions: a refusal carries the error, a
    /// chosen command carries the completed [`OpOutcome`] directly (the
    /// storage work already happened inside the replica group, so the
    /// storage stage must not run again).
    fn consensus_write(
        &mut self,
        ctx: &mut PipelineCtx,
        partition: PartitionId,
    ) -> Result<(), OpOutcome> {
        let p = partition.index();
        let majority = self.consensus[p].ensemble.majority();
        let (leader, leader_se, leader_site) = self.reach_consensus_leader(ctx, p)?;
        ctx.crossed_backbone = leader_site != ctx.server_site;

        // The leader serializes the write against its committed state and
        // replicates the *post-image*, so every replica applies the
        // identical record regardless of local history.
        let uid = ctx.loc().uid;
        let current = match self.ses[leader_se.index()].read_committed(partition, uid) {
            Ok(cur) => cur,
            Err(e) => return Err(ctx.fail(e)),
        };
        let costs = self.ses[leader_se.index()].cost_model();
        let entry = match ctx.op {
            LdapOp::Add { entry, .. } => {
                if current.is_some() {
                    return Err(ctx.fail(UdrError::AlreadyExists(uid)));
                }
                ctx.breakdown.storage += costs.write;
                Some(entry.clone())
            }
            LdapOp::Modify { mods, .. } => {
                let Some(mut entry) = current else {
                    return Err(ctx.fail(UdrError::NotFound(uid)));
                };
                ctx.breakdown.storage += costs.read + costs.write;
                entry.apply(mods);
                Some(entry)
            }
            LdapOp::Delete { .. } => {
                if current.is_none() {
                    return Err(ctx.fail(UdrError::NotFound(uid)));
                }
                ctx.breakdown.storage += costs.write;
                None
            }
            _ => unreachable!("consensus_write only runs for write ops"),
        };

        let cmd_id = self.consensus_alloc_cmd_id();
        let t0 = self.now().max(ctx.now);
        self.consensus_submit_via(
            t0,
            partition,
            leader,
            Command::write(cmd_id, uid, entry),
            ctx.span.trace,
        );

        // Drive the pump until the command is chosen or the operation
        // budget runs out (margin below the timeout so a success is not
        // re-classified by the ok-over-deadline clamp).
        let allowed_wait = self
            .cfg
            .frash
            .op_timeout
            .saturating_sub(ctx.breakdown.total() + SimDuration::from_millis(2));
        let deadline = t0 + allowed_wait;
        let mut t = t0;
        let chosen_at = loop {
            if self.consensus[p].ensemble.chosen(cmd_id) {
                break Some(t);
            }
            if t >= deadline {
                break None;
            }
            t = (t + SimDuration::from_millis(1)).min(deadline);
            self.advance_to(t);
        };
        match chosen_at {
            Some(at) => {
                if ctx.span.is_active() && self.tracer.enabled() {
                    let commit_span = self.tracer.alloc_span();
                    self.tracer.span(
                        ctx.span.trace,
                        commit_span,
                        ctx.span.span,
                        "consensus.commit",
                        t0,
                        at.duration_since(t0),
                        Some(format!("p{} cmd={}", partition.0, cmd_id.0)),
                    );
                    self.tracer.instant(
                        ctx.span.trace,
                        commit_span,
                        "consensus.chosen",
                        at,
                        Some(format!("p{} cmd={}", partition.0, cmd_id.0)),
                    );
                }
                ctx.breakdown.replication += at.duration_since(t0);
                self.metrics.consensus_commits += 1;
                let written_lsn = self.ses[leader_se.index()]
                    .last_lsn(partition)
                    .map(|l| l.raw())
                    .unwrap_or(0);
                if let Some(token) = ctx.session.as_deref_mut() {
                    token.observe_write(partition, written_lsn);
                }
                Err(OpOutcome {
                    result: Ok(None),
                    latency: ctx.breakdown.total(),
                    served_by: Some(leader_se),
                    crossed_backbone: ctx.crossed_backbone,
                    breakdown: ctx.breakdown,
                })
            }
            None => {
                // Not chosen in time. The submission may still commit
                // later (a requeued proposal surviving a leader change) —
                // campaign oracles treat unacknowledged writes as
                // possibly-effective, exactly like a real client.
                if ctx.span.is_active() && self.tracer.enabled() {
                    self.tracer.instant(
                        ctx.span.trace,
                        ctx.span.span,
                        "consensus.timeout",
                        deadline,
                        Some(format!("p{} cmd={} not chosen", partition.0, cmd_id.0)),
                    );
                }
                ctx.breakdown.replication += allowed_wait;
                Err(ctx.fail(UdrError::ReplicationFailed {
                    acked: self.consensus_reachable_from(p, leader_site),
                    required: majority,
                }))
            }
        }
    }

    /// Consensus read: serve from the serving leader's committed prefix
    /// after a read-index confirmation round.
    ///
    /// The leader's lease is confirmed by a majority round trip (itself
    /// included), which rules out a deposed leader serving a stale prefix
    /// — the structural no-stale-reads property the e25 campaign asserts.
    /// The storage stage then reads the leader's committed store without
    /// another round trip, as it does for a quorum-served read.
    fn consensus_read(
        &mut self,
        ctx: &mut PipelineCtx,
        partition: PartitionId,
    ) -> Result<(), OpOutcome> {
        let p = partition.index();
        let majority = self.consensus[p].ensemble.majority();
        let (leader, leader_se, leader_site) = self.reach_consensus_leader(ctx, p)?;

        // Read-index confirmation: a majority echo (leader included)
        // proves the leader has not been silently deposed.
        let mut echoes = std::mem::take(&mut self.consensus[p].echoes);
        echoes.clear();
        for j in 0..self.consensus[p].ensemble.nodes().len() {
            if j == leader || !self.consensus_node_up(p, j) {
                continue;
            }
            let peer_site = self.consensus_node_site(p, j);
            if let Some(echo) = sample_rtt(self, leader_site, peer_site) {
                echoes.push(echo);
            }
        }
        echoes.sort_unstable();
        let acked = echoes.len() + 1;
        // The (majority-1)-th fastest echo completes the confirmation.
        let confirmed_after = echoes.get(majority - 2).copied();
        self.consensus[p].echoes = echoes;
        let Some(confirmed_after) = confirmed_after else {
            ctx.breakdown.replication += self.cfg.frash.op_timeout;
            return Err(ctx.fail(UdrError::ReplicationFailed {
                acked,
                required: majority,
            }));
        };
        ctx.breakdown.replication += confirmed_after;
        ctx.target = Some(leader_se);
        ctx.read_route = ReadRoute::Leader;
        Ok(())
    }

    /// `ConsensusTick`: run every up replica's protocol timers, apply what
    /// got chosen, and re-arm the partition's timer.
    pub(crate) fn consensus_tick(&mut self, t: SimTime, partition: PartitionId) {
        let p = partition.index();
        for i in 0..self.consensus[p].ensemble.nodes().len() {
            if !self.consensus_node_up(p, i) {
                continue;
            }
            self.consensus_step(t, partition, i, 0, |r, out| r.tick(t, out));
        }
        self.consensus_apply(t, partition);
        self.note_consensus_leadership(p);
        self.schedule_event(
            t + CONSENSUS_TICK_INTERVAL,
            UdrEvent::ConsensusTick { partition },
        );
    }

    /// `ConsensusDeliver`: hand the protocol message `ticket` names to its
    /// destination replica. The message may arrive after a cut started or
    /// the node crashed; then it is simply lost (retries and catch-up
    /// re-cover it), and its mailbox slot is freed all the same. `trace`
    /// is the context the sender stamped (0 = untraced); responses the
    /// handler generates inherit it, so the causal chain survives
    /// multi-hop rounds.
    pub(crate) fn consensus_deliver(
        &mut self,
        t: SimTime,
        partition: PartitionId,
        to: usize,
        from: usize,
        ticket: u32,
        trace: u64,
    ) {
        let p = partition.index();
        let msg = self.consensus[p].ensemble.take(ticket);
        if !self.consensus_node_up(p, to) {
            return;
        }
        let from_site = self.consensus_node_site(p, from);
        let to_site = self.consensus_node_site(p, to);
        if !self.net.reachable(from_site, to_site) {
            return;
        }
        if trace != 0 && self.tracer.enabled() {
            self.tracer.instant(
                trace,
                0,
                "consensus.msg",
                t,
                Some(format!("p{} n{from}→n{to}", partition.0)),
            );
        }
        self.consensus_step(t, partition, to, trace, |r, out| {
            r.handle(t, NodeId(from as u32), msg, out)
        });
        // Only `to`'s log can have grown; every other node applied its own
        // when it last handled a message or ticked.
        let applied = self.consensus_apply_node(t, partition, to);
        if applied > 0 && trace != 0 && self.tracer.enabled() {
            self.tracer.instant(
                trace,
                0,
                "consensus.apply",
                t,
                Some(format!("p{} n={applied}", partition.0)),
            );
        }
        self.note_consensus_leadership(p);
    }

    /// Feed node `node` of `partition`'s ensemble one input (`input`
    /// pushes what the replica sends onto the ensemble's one outbox), then
    /// route what it sends over the simulated network, stamping each
    /// message with the originating `trace` context. A message to a down
    /// node is not sent; a cut or link loss loses the datagram, as for
    /// replication deliveries.
    fn consensus_step(
        &mut self,
        t: SimTime,
        partition: PartitionId,
        node: usize,
        trace: u64,
        input: impl FnOnce(&mut Replica, &mut Vec<Outbound>),
    ) {
        let members = self.groups[partition.index()].members();
        self.consensus[partition.index()]
            .ensemble
            .step(node, input, |from, to, ticket, _| {
                let (from_se, to_se) = (
                    &self.ses[members[from].index()],
                    &self.ses[members[to].index()],
                );
                if !to_se.is_up() {
                    return false;
                }
                let path = self.net.send(from_se.site(), to_se.site(), &mut self.rng);
                let Some(delay) = path.delay() else {
                    return false;
                };
                self.metrics.consensus_messages += 1;
                let deliver = UdrEvent::ConsensusDeliver {
                    partition,
                    to,
                    from,
                    ticket,
                    trace,
                };
                self.events.schedule_at(LANE, t + delay, deliver);
                true
            });
    }

    /// Apply newly chosen commands on every up replica (ticks and restore;
    /// a delivery applies at its destination only).
    pub(crate) fn consensus_apply(&mut self, t: SimTime, partition: PartitionId) {
        for i in 0..self.consensus[partition.index()].ensemble.nodes().len() {
            self.consensus_apply_node(t, partition, i);
        }
    }

    /// Roll node `i`'s engine forward to its log's effective committed
    /// prefix, resuming at the node's slot cursor — the cost is the newly
    /// chosen entries, not the log's history. `Write` entries become
    /// ordinary commit records (the LSN is the node's own next position —
    /// every node applies the identical `Write` subsequence, so the
    /// engines stay byte-identical); `Reconfig` entries execute the
    /// migration cutover exactly once. Returns how many entries it
    /// applied; a down node applies nothing.
    fn consensus_apply_node(&mut self, t: SimTime, partition: PartitionId, i: usize) -> usize {
        let p = partition.index();
        if !self.consensus_node_up(p, i) {
            return 0;
        }
        let mut applied = 0;
        loop {
            let next = {
                let g = &self.consensus[p];
                g.ensemble.nodes()[i]
                    .log()
                    .effective_after(g.applied[i])
                    .next()
                    .map(|(slot, cmd)| (slot, cmd.clone()))
            };
            let Some((slot, cmd)) = next else { break };
            // Advance the cursor *before* applying: a reconfig apply
            // re-seeds membership state and must not be clobbered by a
            // store made after it.
            self.consensus[p].applied[i] = slot;
            applied += 1;
            match cmd.payload {
                Payload::Noop => {}
                Payload::Write { uid, entry } => {
                    let se = self.groups[p].members()[i];
                    let lsn = self.ses[se.index()]
                        .last_lsn(partition)
                        .unwrap_or(Lsn::ZERO)
                        .next();
                    let written_by = self.groups[p].members()[0];
                    let record = CommitRecord {
                        lsn,
                        committed_at: t,
                        written_by,
                        changes: Change { uid, entry }.into(),
                    };
                    let _ = self.ses[se.index()].apply_replicated(partition, &record);
                }
                Payload::Reconfig { migration } => {
                    self.consensus_reconfig_applied(t, migration);
                }
            }
        }
        // Nothing effective is left above the cursor (trailing no-ops and
        // shadowed duplicates at most): rest it on the watermark, which is
        // what `Udr::replication_settled` compares.
        let g = &mut self.consensus[p];
        g.applied[i] = g.ensemble.nodes()[i].log().committed();
        // The apply cursor already tracks what is new; the replica's own
        // list of new decisions (the cluster harness's latency feed)
        // would otherwise hold a second copy of the whole log.
        g.ensemble.drain_newly_chosen(i);
        applied
    }

    /// Track serving-leader hand-offs (the consensus notion of failover).
    fn note_consensus_leadership(&mut self, p: usize) {
        let leader = self.consensus_serving_leader(p);
        if let Some(l) = leader {
            let g = &mut self.consensus[p];
            if g.last_leader != Some(l) {
                if g.last_leader.is_some() {
                    g.leader_changes += 1;
                }
                g.last_leader = Some(l);
            }
        }
    }

    /// Elections started across all ensembles (proof a campaign actually
    /// exercised leader failover).
    pub fn consensus_elections(&self) -> u64 {
        self.consensus.iter().map(|g| g.ensemble.elections()).sum()
    }

    /// Serving-leader hand-offs observed across all partitions.
    pub fn consensus_leader_changes(&self) -> u64 {
        self.consensus.iter().map(|g| g.leader_changes).sum()
    }

    /// Paxos safety violations observed in every partition's ensemble,
    /// each replica's own and every pair of logs checked against each
    /// other (always empty in a correct run — fault campaigns assert this
    /// outright).
    pub fn consensus_violations(&self) -> Vec<String> {
        self.consensus
            .iter()
            .enumerate()
            .flat_map(|(p, g)| {
                let violations = g.ensemble.agreement_violations().into_iter();
                violations.map(move |v| format!("partition {p}: {v}"))
            })
            .collect()
    }

    /// The committed watermark of each partition's ensemble — the deepest
    /// contiguous chosen slot any of its replicas holds, no-ops included
    /// (log-growth visibility for experiments).
    pub fn consensus_committed_slots(&self) -> Vec<u64> {
        self.consensus
            .iter()
            .map(|g| g.ensemble.committed_watermark().0)
            .collect()
    }

    /// The effective `Write` post-images in one partition's final chosen
    /// log, in commit order, read from the replica with the deepest
    /// committed watermark. Campaign oracles check acknowledged writes by
    /// value against this: an acked write is durable iff its post-image
    /// appears here, and appears exactly once.
    pub fn consensus_write_history(
        &self,
        partition: PartitionId,
    ) -> Vec<(SubscriberUid, Option<Entry>)> {
        let g = &self.consensus[partition.index()];
        let best = g
            .ensemble
            .nodes()
            .iter()
            .max_by_key(|r| r.log().committed())
            .expect("ensembles are never empty");
        best.log()
            .iter_effective()
            .filter_map(|(_, cmd)| match &cmd.payload {
                Payload::Write { uid, entry } => Some((*uid, entry.clone())),
                _ => None,
            })
            .collect()
    }

    /// Drive active migrations under consensus (`run_catchup` calls it on
    /// each `CatchupTick` instead of the legacy channel catch-up): once the
    /// seed transfer is done, the cutover is a [`Payload::Reconfig`]
    /// command submitted through the serving leader — exactly-once and
    /// totally ordered against the write stream, no write-freeze window.
    pub(crate) fn run_consensus_migrations(&mut self, t: SimTime) {
        for id in 0..self.migrations.len() {
            let (plan, state, started) = {
                let m = &self.migrations[id];
                (m.plan, m.state, m.channel.is_some())
            };
            if !state.is_active() || !started {
                continue;
            }
            if !self.migration_feasible(&plan) {
                self.migration_abort(t, id as u64);
                continue;
            }
            let p = plan.partition.index();
            match state {
                MigrationState::Seeding { ready_at } if t < ready_at => {}
                MigrationState::Seeding { .. } => {
                    // Seed transfer done: replicate the cutover decision.
                    // No serving leader right now (election in progress)
                    // simply retries on the next tick.
                    if let Some(l) = self.consensus_serving_leader(p) {
                        let cmd_id = self.consensus_alloc_cmd_id();
                        self.consensus_submit_via(
                            t,
                            plan.partition,
                            l,
                            Command::reconfig(cmd_id, id as u64),
                            0,
                        );
                        self.migrations[id].state = MigrationState::CatchingUp;
                    }
                }
                // CatchingUp: the reconfig is in flight through the log;
                // `consensus_reconfig_applied` completes (or aborts) it.
                _ => {}
            }
        }
    }

    /// A chosen [`Payload::Reconfig`] executes here, once per migration:
    /// the first replica to apply it performs the cutover (swap the
    /// member in the replication group, in place, so the moved node keeps
    /// its index and its protocol state; carry the
    /// retiring copy's exact storage state to the target, bump the
    /// shard-map epoch); every later apply finds the migration already in
    /// a terminal state and no-ops — the exactly-once guarantee.
    fn consensus_reconfig_applied(&mut self, t: SimTime, migration: u64) {
        let Some(m) = self.migrations.get(migration as usize) else {
            return;
        };
        let (plan, state) = (m.plan, m.state);
        if !state.is_active() {
            return; // already cut over (or aborted): exactly-once no-op
        }
        if !self.migration_feasible(&plan) {
            self.migration_abort(t, migration);
            return;
        }
        let p = plan.partition.index();
        let role = if self.groups[p].master() == plan.from {
            ReplicaRole::Master
        } else {
            ReplicaRole::Slave
        };
        // The replica process migrates with its replicated state: the
        // target takes the retiring copy's engine verbatim (exactly the
        // node's applied prefix — LSN continuity, no cursor rewind).
        if self
            .seed_copy(plan.partition, plan.from, plan.to, role)
            .is_err()
        {
            self.migration_abort(t, migration);
            return;
        }
        self.groups[p]
            .replace_member(plan.from, plan.to)
            .expect("cutover swap validated");
        self.complete_cutover(migration);
        self.metrics.consensus_commits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::{MigrationPlan, MoveReason};
    use crate::UdrConfig;
    use udr_consensus::Message;
    use udr_model::attrs::{AttrId, AttrMod, AttrValue};
    use udr_model::config::{DurabilityMode, ReplicationMode};
    use udr_model::identity::{Identity, IdentitySet, Imsi, Msisdn};
    use udr_sim::FaultScript;

    fn write(id: u64) -> Command {
        Command::write(CmdId(id), udr_model::ids::SubscriberUid(id), None)
    }

    const P0: PartitionId = PartitionId(0);
    const SUBSCRIBERS: u64 = 6;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn imsi(n: u64) -> Imsi {
        Imsi::new(format!("21401{n:010}")).unwrap()
    }

    /// One modify per subscriber, 100 ms apart from `start_ms`, each
    /// writing a value no other round writes.
    fn modify_round(udr: &mut Udr, round: u64, start_ms: u64) {
        for n in 0..SUBSCRIBERS {
            let out = udr.modify_services(
                &Identity::Imsi(imsi(n)),
                vec![AttrMod::Set(
                    AttrId::OdbMask,
                    AttrValue::U64(round * 100 + n),
                )],
                SiteId(0),
                at(start_ms + n * 100),
            );
            assert!(out.is_ok(), "round {round} write {n}: {:?}", out.result);
        }
    }

    /// Move partition 0's ensemble node `node` onto a fresh SE and wait
    /// for the cutover; returns the migration id.
    fn migrate_node(udr: &mut Udr, node: usize, start_ms: u64) -> u64 {
        let from = udr.groups[0].members()[node];
        let to = udr.add_se(udr.ses[from.index()].site(), at(start_ms));
        let id = udr.start_migration(
            MigrationPlan {
                partition: P0,
                from,
                to,
                reason: MoveReason::ScaleOut,
            },
            at(start_ms),
        );
        udr.advance_to(at(start_ms + 4_000));
        assert_eq!(udr.migration_state(id), Some(MigrationState::Done));
        assert_eq!(udr.groups[0].members()[node], to);
        id
    }

    fn effective_writes(log: &ChosenLog) -> u64 {
        log.iter_effective()
            .filter(|(_, cmd)| matches!(cmd.payload, Payload::Write { .. }))
            .count() as u64
    }

    /// How many commit records `se`'s copy of partition 0 has applied.
    fn lsn_of(udr: &Udr, se: SeId) -> u64 {
        udr.ses[se.index()].last_lsn(P0).expect("hosted").raw()
    }

    /// Node `i`'s copy of partition 0, without the per-node apply instant.
    fn records(udr: &Udr, i: usize) -> Vec<(SubscriberUid, Lsn, SeId, Option<Entry>)> {
        let se = udr.groups[0].members()[i];
        let engine = udr.ses[se.index()].engine(P0).expect("member hosts it");
        let mut rows: Vec<_> = engine
            .iter_committed()
            .map(|v| (v.uid, v.lsn, v.written_by, v.entry.cloned()))
            .collect();
        rows.sort_by_key(|row| row.0);
        rows
    }

    /// One partition on a `Consensus{n:3}` ensemble, `SUBSCRIBERS`
    /// provisioned from 2 s on, 100 ms apart.
    fn provisioned(durability: DurabilityMode) -> Udr {
        let mut cfg = UdrConfig::figure2();
        cfg.partitions = 1;
        cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
        cfg.frash.durability = durability;
        cfg.seed = 22;
        let mut udr = Udr::build(cfg).unwrap();
        for n in 0..SUBSCRIBERS {
            let ids = IdentitySet {
                imsi: imsi(n),
                msisdn: Msisdn::new(format!("346{n:08}")).unwrap(),
                impus: vec![],
                impi: None,
            };
            let out = udr.provision_subscriber(&ids, 0, SiteId(0), at(2_000 + n * 100));
            assert!(out.is_ok(), "provisioning {n}: {:?}", out.op.result);
        }
        udr
    }

    /// The deployment applies decisions through its own slot cursor; the
    /// replicas' lists of new decisions must not keep a second copy of the
    /// log for the whole run.
    #[test]
    fn applied_decisions_are_not_kept_twice() {
        let mut udr = provisioned(DurabilityMode::None);
        for round in 1..=3 {
            modify_round(&mut udr, round, 2_000 + round * 1_000);
        }
        udr.advance_to(at(7_000));
        assert!(udr.replication_settled());
        let ensemble = &mut udr.consensus[0].ensemble;
        for i in 0..3 {
            assert!(ensemble.nodes()[i].log().committed() > Slot(3 * SUBSCRIBERS));
            assert!(
                ensemble.drain_newly_chosen(i).next().is_none(),
                "node {i} still holds decisions it applied"
            );
        }
    }

    /// Node 0's SE masters the partition and stamps every apply as
    /// `written_by`, so moving node 0 is a master move cut over through
    /// the log: mastership, the shard map and the stamp all follow it.
    #[test]
    fn moving_node_0_moves_the_master() {
        let mut udr = provisioned(DurabilityMode::None);
        modify_round(&mut udr, 1, 5_000);
        assert_eq!(udr.groups[0].master(), udr.groups[0].members()[0]);
        migrate_node(&mut udr, 0, 7_000); // asserts `Done`
        let new = udr.groups[0].members()[0];
        assert_eq!(udr.groups[0].master(), new);
        assert_eq!(udr.shard_map().master_of(P0), Some(new));
        modify_round(&mut udr, 2, 12_000);
        udr.advance_to(at(14_000));
        assert!(udr.replication_settled());
        let rows = records(&udr, 0);
        assert_eq!(rows.len(), SUBSCRIBERS as usize);
        assert!(rows.iter().all(|(_, _, by, _)| *by == new));
        for i in 1..3 {
            assert_eq!(records(&udr, i), rows, "node {i} diverged");
        }
    }

    /// Crash the serving leader mid-stream and bring it back, with a
    /// cutover on each side of what its disk recovers (`snapshot`: a disk
    /// image between the two; otherwise nothing survives) and one command
    /// id chosen in two slots: the replay must land the engine on the
    /// node's committed prefix with every write applied once.
    fn crash_and_restore_a_member(durability: DurabilityMode, snapshot: bool) {
        let mut udr = provisioned(durability);
        let f = udr.consensus_serving_leader(0).expect("a leader serves");
        let f_se = udr.groups[0].members()[f];
        // Neither the node under test nor member 0, whose id every apply
        // stamps as `written_by`.
        let mover = if f == 1 { 2 } else { 1 };

        modify_round(&mut udr, 1, 5_000);
        let first = migrate_node(&mut udr, mover, 7_000);
        modify_round(&mut udr, 2, 12_000);
        udr.advance_to(at(14_000));
        let on_disk = lsn_of(&udr, f_se);
        if snapshot {
            udr.ses[f_se.index()].force_snapshot(at(14_000));
        }
        modify_round(&mut udr, 3, 15_000);
        let second = migrate_node(&mut udr, mover, 17_000);
        modify_round(&mut udr, 4, 22_000);

        // A second slot for round 1's first write, as a re-forward around
        // a leader change leaves behind. Every node learns it; the leader
        // crashes before it would propose into that slot itself.
        udr.advance_to(at(24_000));
        assert!(udr.replication_settled());
        let log = udr.consensus[0].ensemble.nodes()[f].log();
        let (_, twin) = log
            .iter_effective()
            .filter(|(_, cmd)| matches!(cmd.payload, Payload::Write { .. }))
            .nth(SUBSCRIBERS as usize)
            .expect("round 1 is in the log");
        let (twin, twin_slot) = (twin.clone(), log.committed().next());
        for to in 0..3 {
            let ticket = udr.consensus[0].ensemble.post(Message::Learn {
                slot: twin_slot,
                cmd: twin.clone(),
            });
            udr.consensus_deliver(at(24_000), P0, to, (to + 1) % 3, ticket, 0);
        }
        let writes_at_crash = effective_writes(udr.consensus[0].ensemble.nodes()[f].log());
        assert_eq!(
            lsn_of(&udr, f_se),
            writes_at_crash,
            "the twin must not be applied"
        );

        udr.schedule_script(&FaultScript::new(0).se_outage(
            at(24_001),
            SimDuration::from_secs(10),
            f_se,
        ));
        modify_round(&mut udr, 5, 30_000);

        // Restore replays the node's own log from the recovered position:
        // rounds 3 and 4, the second cutover (a no-op by now) and the
        // shadowed twin — or, from nothing, all of it.
        udr.advance_to(at(34_001));
        let recovered = if snapshot { on_disk } else { 0 };
        assert!(recovered < writes_at_crash);
        assert_eq!(
            lsn_of(&udr, f_se),
            writes_at_crash,
            "replay from LSN {recovered} must end where the crash left off"
        );
        assert_eq!(
            udr.consensus[0].applied[f],
            udr.consensus[0].ensemble.nodes()[f].log().committed()
        );

        modify_round(&mut udr, 6, 36_000);
        udr.advance_to(at(60_000));

        let l = udr.consensus_serving_leader(0).expect("a leader serves");
        assert_ne!(l, f, "the crash must have moved leadership");
        let g = &udr.consensus[0];
        let log = g.ensemble.nodes()[f].log();
        assert_eq!(log.committed(), g.ensemble.nodes()[l].log().committed());
        assert_eq!(g.applied[f], log.committed());
        assert!(udr.replication_settled());
        assert_eq!(records(&udr, f), records(&udr, l));
        assert_eq!(records(&udr, f).len(), SUBSCRIBERS as usize);
        assert_eq!(
            lsn_of(&udr, f_se),
            effective_writes(log),
            "one commit record per effective write"
        );
        assert_eq!(effective_writes(log), 7 * SUBSCRIBERS);
        assert_eq!(log.iter().filter(|(_, c)| c.id == twin.id).count(), 2);
        assert_eq!(log.get(twin_slot).map(|c| c.id), Some(twin.id));
        for id in [first, second] {
            assert_eq!(udr.migration_state(id), Some(MigrationState::Done));
        }
        assert_eq!(udr.metrics.migrations_completed, 2);
        assert_eq!(udr.metrics.migrations_aborted, 0);
        assert!(udr.consensus_violations().is_empty());
    }

    /// A message that reaches a node after it crashed is dropped, and its
    /// mailbox slot is freed all the same: once the run settles after the
    /// crash and the restore, no ticket is left live.
    #[test]
    fn messages_dropped_at_a_crashed_node_free_their_tickets() {
        let mut udr = provisioned(DurabilityMode::None);
        let leader = udr.consensus_serving_leader(0).expect("a leader serves");
        let f_se = udr.groups[0].members()[(leader + 1) % 3];
        // A write returns once the leader has chosen it, while the Learns
        // announcing it are still on the wire; the follower crashes
        // before its Learn arrives.
        modify_round(&mut udr, 1, 5_000);
        assert!(
            udr.consensus[0].ensemble.in_flight() > 0,
            "nothing in flight"
        );
        udr.schedule_script(&FaultScript::new(0).se_outage(
            udr.now(),
            SimDuration::from_secs(2),
            f_se,
        ));
        modify_round(&mut udr, 2, 6_000);
        udr.advance_to(at(9_000));
        assert!(udr.ses[f_se.index()].is_up());
        modify_round(&mut udr, 3, 9_000);
        udr.advance_to(at(12_000));
        assert!(udr.replication_settled());

        // Heartbeats keep a message or two on the wire for part of every
        // interval; a leaked ticket stays live for good.
        let mut now = at(12_000);
        let drained = (0..200).any(|_| {
            now += SimDuration::from_millis(1);
            udr.advance_to(now);
            udr.consensus[0].ensemble.in_flight() == 0
        });
        assert!(
            drained,
            "{} tickets live throughout the 200 ms after settling",
            udr.consensus[0].ensemble.in_flight()
        );
    }

    /// Two nodes that learn different commands for one slot each hold a
    /// log that agrees with itself; only comparing the logs pairwise
    /// shows the conflict.
    #[test]
    fn conflicting_decisions_on_two_nodes_are_reported() {
        let mut udr = provisioned(DurabilityMode::None);
        udr.advance_to(at(3_000));
        assert!(udr.consensus_violations().is_empty());
        // Far above anything the leader proposes during the test.
        let slot = Slot(udr.consensus[0].ensemble.committed_watermark().0 + 1_000);
        for (to, from, id) in [(0, 1, 1_001), (1, 0, 1_002)] {
            let ticket = udr.consensus[0].ensemble.post(Message::Learn {
                slot,
                cmd: write(id),
            });
            udr.consensus_deliver(at(3_000), P0, to, from, ticket, 0);
        }
        let violations = udr.consensus_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("partition 0: n0 vs n1"),
            "{violations:?}"
        );
    }

    #[test]
    fn restore_resumes_at_the_slot_of_the_recovered_lsn() {
        let hourly = DurabilityMode::PeriodicSnapshot {
            interval: SimDuration::from_secs(3_600),
        };
        crash_and_restore_a_member(hourly, true);
    }

    #[test]
    fn restore_without_a_disk_image_replays_the_whole_log() {
        crash_and_restore_a_member(DurabilityMode::None, false);
    }

    #[test]
    fn cursor_for_writes_lands_after_the_nth_write() {
        let mut log = ChosenLog::default();
        // slot1: noop, slot2: write, slot3: reconfig, slot4: write
        log.record(Slot(1), Command::noop()).unwrap();
        log.record(Slot(2), write(1)).unwrap();
        log.record(Slot(3), Command::reconfig(CmdId(9), 0)).unwrap();
        log.record(Slot(4), write(2)).unwrap();
        // Effective entries: write1 @2, reconfig @3, write2 @4.
        assert_eq!(cursor_for_writes(&log, 0), Slot::ZERO);
        assert_eq!(cursor_for_writes(&log, 1), Slot(2)); // reconfig re-applies (no-op)
        assert_eq!(cursor_for_writes(&log, 2), Slot(4));
        // More writes on disk than the log exposes cannot happen (the log
        // is durable); the cursor saturates at the watermark.
        assert_eq!(cursor_for_writes(&log, 7), Slot(4));
        // A re-forwarded duplicate and a trailing no-op count for nothing.
        log.record(Slot(5), write(1)).unwrap();
        log.record(Slot(6), write(3)).unwrap();
        log.record(Slot(7), Command::noop()).unwrap();
        assert_eq!(cursor_for_writes(&log, 3), Slot(6));
        assert_eq!(cursor_for_writes(&log, 4), Slot(7));
    }
}
