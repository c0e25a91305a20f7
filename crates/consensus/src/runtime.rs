//! A deterministic consensus cluster over the simulated backbone.
//!
//! The runtime is a host of an [`Ensemble`] (one node per site of a
//! [`Topology`]): it routes the ensemble's messages through the
//! [`Network`] — sampling latency and loss, honouring partitions — and
//! drives timers and deliveries from one [`ShardedPump`], the event queue
//! every simulation here runs on. Fault scripts (partitions, node
//! crashes/restarts) and client submissions are registered up front;
//! [`ConsensusCluster::run_until`] then replays everything on the virtual
//! clock and reports per-command fates, leader changes, message costs and
//! (never, in a correct build) agreement violations. The deployment's
//! per-partition groups host the same [`Ensemble`], so what this harness
//! checks is the code the deployment runs, bar the delivery rule the
//! [`ensemble`](crate::ensemble) module doc describes.
//!
//! Node crashes model a process stop with acceptor state preserved across
//! restart — the persistence Paxos requires and which the paper's SAF
//! execution platform provides (§3.4.1). Losing acceptor state would need a
//! reconfiguration protocol, which is out of scope for the §6 comparison.

use std::collections::BTreeMap;

use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::{Cut, CutHandle, Network, Topology};
use udr_sim::{Fault, FaultScript, LaneClass, PumpConfig, ShardedPump, SimRng};

use crate::ballot::{NodeId, Slot};
use crate::ensemble::Ensemble;
use crate::msg::{CmdId, Command};
use crate::replica::{first_tick, Outbound, Replica, Role, TICK_INTERVAL};

/// The argument of [`ConsensusCluster::new`]. It carries nothing: the
/// protocol's timers are the constants of [`replica`](crate::replica), and
/// `new` ignores it. The type stays because the benchmark package's
/// isolated replay builds its cluster with `ClusterConfig::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterConfig;

/// What happened to one submitted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandFate {
    /// When the client handed it to the cluster.
    pub submitted_at: SimTime,
    /// The node it was submitted through.
    pub origin: NodeId,
    /// First instant any node learned it chosen (`None` = not committed
    /// by the end of the run).
    pub chosen_at: Option<SimTime>,
    /// When the *origin* node learned it chosen (client-visible commit).
    pub learned_at_origin: Option<SimTime>,
    /// The slot it occupies.
    pub slot: Option<Slot>,
}

impl CommandFate {
    /// Cluster-side commit latency (first choose − submission).
    pub fn commit_latency(&self) -> Option<SimDuration> {
        self.chosen_at.map(|t| t.duration_since(self.submitted_at))
    }

    /// Client-perceived latency (origin learns − submission).
    pub fn client_latency(&self) -> Option<SimDuration> {
        self.learned_at_origin
            .map(|t| t.duration_since(self.submitted_at))
    }
}

/// Message-cost accounting for a run.
#[derive(Debug, Clone, Default)]
pub struct MsgStats {
    /// Messages sent, by protocol phase.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Total messages sent.
    pub total: u64,
    /// Messages that crossed the inter-site backbone.
    pub wan: u64,
}

impl MsgStats {
    fn count(&mut self, kind: &'static str, wan: bool) {
        *self.by_kind.entry(kind).or_insert(0) += 1;
        self.total += 1;
        if wan {
            self.wan += 1;
        }
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Fate of every submitted command, by id.
    pub fates: BTreeMap<CmdId, CommandFate>,
    /// Elections started across all nodes.
    pub elections: u64,
    /// `(instant, node)` each time a node won leadership.
    pub leader_changes: Vec<(SimTime, NodeId)>,
    /// Message-cost accounting.
    pub messages: MsgStats,
    /// Agreement violations observed (must be empty; kept for testing).
    pub violations: Vec<String>,
    /// Per-node contiguous chosen watermark at the end of the run.
    pub final_committed: Vec<Slot>,
}

impl RunReport {
    /// Commands committed (chosen anywhere) by the end of the run.
    pub fn committed(&self) -> usize {
        self.fates
            .values()
            .filter(|f| f.chosen_at.is_some())
            .count()
    }

    /// Commands still unchosen at the end of the run.
    pub fn uncommitted(&self) -> usize {
        self.fates.len() - self.committed()
    }

    /// Commit latencies of every committed command, in submission order.
    pub fn commit_latencies(&self) -> Vec<SimDuration> {
        self.fates
            .values()
            .filter_map(CommandFate::commit_latency)
            .collect()
    }
}

/// The class argument the pump's scheduling calls take and ignore.
const LANE: LaneClass = LaneClass::Local(0);

enum Ev {
    Deliver { to: usize, from: usize, ticket: u32 },
    Tick { node: NodeId },
    Submit { origin: NodeId, cmd: Command },
    StartCut { idx: usize },
    Heal { idx: usize },
    Crash { node: NodeId },
    Restart { node: NodeId },
}

/// N replicas, one per site, over the simulated backbone.
pub struct ConsensusCluster {
    ensemble: Ensemble,
    sites: Vec<SiteId>,
    down: Vec<bool>,
    net: Network,
    queue: ShardedPump<Ev>,
    rng: SimRng,
    cuts: Vec<Cut>,
    active_cuts: Vec<Option<CutHandle>>,
    next_cmd: u64,
    fates: BTreeMap<CmdId, CommandFate>,
    leader_changes: Vec<(SimTime, NodeId)>,
    messages: MsgStats,
    ticks_started: bool,
}

impl ConsensusCluster {
    /// One consensus node per site of `topo`.
    pub fn new(topo: Topology, _cfg: ClusterConfig, seed: u64) -> Self {
        let n = topo.sites();
        let sites: Vec<SiteId> = (0..n as u32).map(SiteId).collect();
        ConsensusCluster {
            ensemble: Ensemble::new(n, seed),
            sites,
            down: vec![false; n],
            net: Network::new(topo),
            queue: ShardedPump::new(PumpConfig::single()),
            rng: SimRng::seed_from_u64(seed ^ 0x5EED_CAFE),
            cuts: Vec::new(),
            active_cuts: Vec::new(),
            next_cmd: 1,
            fates: BTreeMap::new(),
            leader_changes: Vec::new(),
            messages: MsgStats::default(),
            ticks_started: false,
        }
    }

    /// Ensemble size.
    pub fn len(&self) -> usize {
        self.ensemble.nodes().len()
    }

    /// Whether the ensemble is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.ensemble.nodes().is_empty()
    }

    /// Read access to a replica (assertions in tests).
    pub fn node(&self, i: usize) -> &Replica {
        &self.ensemble.nodes()[i]
    }

    /// The current leader: among live nodes that believe they lead, the
    /// one holding the highest ballot.
    pub fn current_leader(&self) -> Option<NodeId> {
        self.ensemble
            .leader(|i| !self.down[i])
            .map(|i| NodeId(i as u32))
    }

    /// `k` as a node of this cluster.
    ///
    /// # Panics
    ///
    /// If the cluster has no node `k`.
    fn node_id(&self, k: u32) -> NodeId {
        let n = self.len();
        assert!(
            (k as usize) < n,
            "node {k} is outside the {n}-node ensemble"
        );
        NodeId(k)
    }

    /// Queue a subscriber-write command through node `origin` at `at`.
    /// Returns the assigned command id.
    ///
    /// # Panics
    ///
    /// If the cluster has no node `origin`.
    pub fn submit_write_at(
        &mut self,
        at: SimTime,
        origin: u32,
        uid: udr_model::ids::SubscriberUid,
        entry: Option<udr_model::attrs::Entry>,
    ) -> CmdId {
        let origin = self.node_id(origin);
        let id = CmdId(self.next_cmd);
        self.next_cmd += 1;
        self.queue.schedule_at(
            LANE,
            at,
            Ev::Submit {
                origin,
                cmd: Command::write(id, uid, entry),
            },
        );
        id
    }

    /// Inject a [`FaultScript`]. Nodes sit one per site, so a compiled
    /// partition's island `SiteId`s are node sites: the island is cut off
    /// at its instant and healed after its duration. `SeId(n)` names node
    /// `n`: a crash stops it (acceptor state survives), a restore restarts
    /// it.
    ///
    /// # Panics
    ///
    /// On any other fault kind — a backbone glitch, one-way loss or WAN
    /// brown-out. The bare cluster models cuts and crashes only. Also on
    /// a crash or restore of an `SeId` the cluster has no node for.
    pub fn schedule_script(&mut self, script: &FaultScript) {
        for (at, fault) in script.timeline() {
            let ev = match fault {
                Fault::Partition { island, duration } => {
                    let idx = self.cuts.len();
                    self.cuts.push(Cut { island });
                    self.active_cuts.push(None);
                    self.queue.schedule_at(LANE, at, Ev::StartCut { idx });
                    self.queue
                        .schedule_at(LANE, at.saturating_add(duration), Ev::Heal { idx });
                    continue;
                }
                Fault::SeCrash { se } => Ev::Crash {
                    node: self.node_id(se.0),
                },
                Fault::SeRestore { se } => Ev::Restart {
                    node: self.node_id(se.0),
                },
                other => panic!("the consensus cluster models cuts and crashes only: {other:?}"),
            };
            self.queue.schedule_at(LANE, at, ev);
        }
    }

    fn start_ticks(&mut self) {
        if self.ticks_started {
            return;
        }
        self.ticks_started = true;
        for i in 0..self.len() {
            self.queue.schedule_at(
                LANE,
                first_tick(i),
                Ev::Tick {
                    node: NodeId(i as u32),
                },
            );
        }
    }

    /// Feed `node` one input through the ensemble, sending what it sends
    /// over the backbone, then account for what it learned.
    fn step(
        &mut self,
        now: SimTime,
        node: NodeId,
        input: impl FnOnce(&mut Replica, &mut Vec<Outbound>),
    ) {
        self.ensemble
            .step(node.index(), input, |from, to, ticket, msg| {
                let (sf, st) = (self.sites[from], self.sites[to]);
                self.messages.count(msg.kind(), sf != st);
                // Lost / unreachable: dropped; retransmission timers recover.
                let Some(delay) = self.net.send(sf, st, &mut self.rng).delay() else {
                    return false;
                };
                self.queue
                    .schedule_at(LANE, now + delay, Ev::Deliver { to, from, ticket });
                true
            });
        self.post_process(now, node);
    }

    fn post_process(&mut self, now: SimTime, node: NodeId) {
        let was_leader = self.leader_changes.last().map(|(_, n)| *n);
        if self.node(node.index()).role() == Role::Leader && was_leader != Some(node) {
            // A node observed winning leadership since the last change.
            self.leader_changes.push((now, node));
        }
        for (slot, cmd) in self.ensemble.drain_newly_chosen(node.index()) {
            if cmd.id.is_noop() {
                continue;
            }
            if let Some(fate) = self.fates.get_mut(&cmd.id) {
                if fate.chosen_at.is_none() {
                    fate.chosen_at = Some(now);
                    fate.slot = Some(slot);
                }
                if fate.origin == node && fate.learned_at_origin.is_none() {
                    fate.learned_at_origin = Some(now);
                }
            }
        }
    }

    /// Run the virtual clock until `horizon`, consuming every scheduled
    /// event. Can be called repeatedly with growing horizons.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        self.start_ticks();
        while let Some((now, ev)) = self.queue.pop_until(horizon) {
            match ev {
                Ev::Deliver { to, from, ticket } => {
                    let msg = self.ensemble.take(ticket);
                    if self.down[to] {
                        continue;
                    }
                    let (to, from) = (NodeId(to as u32), NodeId(from as u32));
                    self.step(now, to, |r, out| r.handle(now, from, msg, out));
                }
                Ev::Tick { node } => {
                    self.queue
                        .schedule_at(LANE, now + TICK_INTERVAL, Ev::Tick { node });
                    if self.down[node.index()] {
                        continue;
                    }
                    self.step(now, node, |r, out| r.tick(now, out));
                }
                Ev::Submit { origin, cmd } => {
                    self.fates.insert(
                        cmd.id,
                        CommandFate {
                            submitted_at: now,
                            origin,
                            chosen_at: None,
                            learned_at_origin: None,
                            slot: None,
                        },
                    );
                    if self.down[origin.index()] {
                        continue; // client hit a dead PoA: counts as failed
                    }
                    self.step(now, origin, |r, out| r.submit(now, cmd, out));
                }
                Ev::StartCut { idx } => {
                    let handle = self.net.start_partition(self.cuts[idx].clone());
                    self.active_cuts[idx] = Some(handle);
                }
                Ev::Heal { idx } => {
                    if let Some(handle) = self.active_cuts[idx].take() {
                        self.net.heal_partition(handle);
                    }
                }
                Ev::Crash { node } => self.down[node.index()] = true,
                Ev::Restart { node } => self.down[node.index()] = false,
            }
        }
        self.report()
    }

    /// Snapshot the current report without running further.
    pub fn report(&mut self) -> RunReport {
        RunReport {
            fates: self.fates.clone(),
            elections: self.ensemble.elections(),
            leader_changes: self.leader_changes.clone(),
            messages: self.messages.clone(),
            violations: self.ensemble.agreement_violations(),
            final_committed: self
                .ensemble
                .nodes()
                .iter()
                .map(|r| r.log().committed())
                .collect(),
        }
    }

    /// Network counters (backbone crossings, losses, blocks).
    pub fn net_stats(&self) -> udr_sim::net::NetStats {
        self.net.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::ids::{SeId, SubscriberUid};

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn quiet_cluster(sites: usize, seed: u64) -> ConsensusCluster {
        ConsensusCluster::new(Topology::multinational(sites), ClusterConfig, seed)
    }

    #[test]
    fn healthy_cluster_commits_everything() {
        let mut cluster = quiet_cluster(3, 1);
        for i in 0..20 {
            cluster.submit_write_at(
                secs(2) + SimDuration::from_millis(100 * i),
                (i % 3) as u32,
                SubscriberUid(i),
                None,
            );
        }
        let report = cluster.run_until(secs(10));
        assert_eq!(
            report.committed(),
            20,
            "uncommitted: {}",
            report.uncommitted()
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // One stable leader: a single election in a quiet network.
        assert_eq!(
            report.leader_changes.len(),
            1,
            "{:?}",
            report.leader_changes
        );
    }

    #[test]
    fn commit_latency_is_about_one_wan_round_trip() {
        let mut cluster = quiet_cluster(3, 2);
        // Let leadership settle, then measure steady-state commits.
        for i in 0..50 {
            cluster.submit_write_at(
                secs(5) + SimDuration::from_millis(50 * i),
                0,
                SubscriberUid(i),
                None,
            );
        }
        let report = cluster.run_until(secs(20));
        assert_eq!(report.committed(), 50);
        let latencies = report.commit_latencies();
        let mean_ms =
            latencies.iter().map(|d| d.as_millis_f64()).sum::<f64>() / latencies.len() as f64;
        // One-way WAN median is 15 ms: a majority commit needs roughly one
        // round trip (30 ms) when the origin is the leader, up to ~3 legs
        // when forwarded. Anything above ~100 ms would mean retry storms.
        assert!(
            (10.0..100.0).contains(&mean_ms),
            "mean commit latency {mean_ms} ms"
        );
        assert!(report.violations.is_empty());
    }

    #[test]
    fn minority_partition_blocks_commits_on_island() {
        let mut cluster = quiet_cluster(3, 3);
        // Let a leader emerge first.
        cluster.run_until(secs(4));
        let leader = cluster.current_leader().expect("stable leader");
        // Partition a NON-leader island; submit through the islanded node.
        let island = (0..3u32).find(|i| NodeId(*i) != leader).unwrap();
        cluster.schedule_script(&FaultScript::new(0).clean_partition(
            secs(5),
            SimDuration::from_secs(20),
            [SiteId(island)],
        ));
        cluster.submit_write_at(secs(10), island, SubscriberUid(1), None);
        let mid = cluster.run_until(secs(20));
        assert_eq!(mid.committed(), 0, "islanded client must not commit");
        // After heal the forwarded command goes through.
        let end = cluster.run_until(secs(40));
        assert_eq!(end.committed(), 1);
        assert!(end.violations.is_empty());
    }

    #[test]
    fn majority_side_keeps_committing_when_leader_is_islanded() {
        let mut cluster = quiet_cluster(5, 4);
        cluster.run_until(secs(4));
        let leader = cluster.current_leader().expect("stable leader");
        // Island the leader alone: the other four re-elect and continue.
        cluster.schedule_script(&FaultScript::new(0).clean_partition(
            secs(5),
            SimDuration::from_secs(30),
            [SiteId(leader.0)],
        ));
        let majority_node = (0..5u32).find(|i| NodeId(*i) != leader).unwrap();
        for i in 0..10 {
            cluster.submit_write_at(
                secs(8) + SimDuration::from_millis(200 * i),
                majority_node,
                SubscriberUid(i),
                None,
            );
        }
        let report = cluster.run_until(secs(30));
        assert_eq!(report.committed(), 10, "majority side must stay available");
        assert!(report.leader_changes.len() >= 2, "re-election expected");
        assert!(report.violations.is_empty());
        // Heal: the old leader rejoins and catches up.
        let report = cluster.run_until(secs(60));
        assert!(report.violations.is_empty());
        let max = report.final_committed.iter().max().copied().unwrap();
        assert_eq!(
            report.final_committed[leader.index()],
            max,
            "old leader must catch up after heal: {:?}",
            report.final_committed
        );
    }

    #[test]
    fn leader_crash_fails_over_without_losing_commits() {
        let mut cluster = quiet_cluster(3, 5);
        cluster.run_until(secs(4));
        let leader = cluster.current_leader().expect("stable leader");
        let other = (0..3u32).find(|i| NodeId(*i) != leader).unwrap();
        // Commit some load, crash the leader, keep submitting elsewhere.
        for i in 0..5 {
            cluster.submit_write_at(
                secs(4) + SimDuration::from_millis(100 * i),
                other,
                SubscriberUid(i),
                None,
            );
        }
        // The ex-leader restarts at 26 s, after the first checkpoint.
        cluster.schedule_script(&FaultScript::new(0).se_outage(
            secs(6),
            SimDuration::from_secs(20),
            SeId(leader.0),
        ));
        for i in 5..10 {
            cluster.submit_write_at(
                secs(8) + SimDuration::from_millis(100 * i),
                other,
                SubscriberUid(i),
                None,
            );
        }
        let report = cluster.run_until(secs(25));
        assert_eq!(report.committed(), 10);
        assert!(report.violations.is_empty());

        // Restart: the crashed ex-leader catches back up.
        let report = cluster.run_until(secs(60));
        assert!(report.violations.is_empty());
        let max = report.final_committed.iter().max().copied().unwrap();
        assert_eq!(report.final_committed[leader.index()], max);
    }

    #[test]
    fn lossy_backbone_still_commits_via_retransmission() {
        let mut topo = Topology::multinational(3);
        // 5 % loss on every backbone link.
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    let mut profile = topo.link(SiteId(a), SiteId(b)).clone();
                    profile.loss = 0.05;
                    topo.set_link(SiteId(a), SiteId(b), profile);
                }
            }
        }
        let mut cluster = ConsensusCluster::new(topo, ClusterConfig, 6);
        for i in 0..30 {
            cluster.submit_write_at(
                secs(3) + SimDuration::from_millis(150 * i),
                (i % 3) as u32,
                SubscriberUid(i),
                None,
            );
        }
        let report = cluster.run_until(secs(30));
        assert_eq!(report.committed(), 30);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn submissions_to_crashed_node_fail() {
        let mut cluster = quiet_cluster(3, 7);
        cluster.run_until(secs(4));
        cluster.schedule_script(&FaultScript::new(0).se_crash(secs(5), SeId(2)));
        cluster.submit_write_at(secs(6), 2, SubscriberUid(1), None);
        let report = cluster.run_until(secs(15));
        assert_eq!(report.committed(), 0);
        assert_eq!(report.uncommitted(), 1);
    }

    #[test]
    fn logs_are_prefix_consistent_across_nodes() {
        let mut cluster = quiet_cluster(5, 8);
        // Origins avoid node 3, which crashes mid-run (a client talking to
        // a dead PoA fails by design; that case is covered separately).
        let origins = [0u32, 1, 2, 4];
        for i in 0..40 {
            cluster.submit_write_at(
                secs(2) + SimDuration::from_millis(75 * i),
                origins[(i % 4) as usize],
                SubscriberUid(i),
                None,
            );
        }
        // A mid-run partition plus a node crash for good measure.
        cluster.schedule_script(
            &FaultScript::new(0)
                .clean_partition(secs(3), SimDuration::from_secs(4), [SiteId(1)])
                .se_outage(secs(4), SimDuration::from_secs(5), SeId(3)),
        );
        let report = cluster.run_until(secs(40));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.committed(), 40);
        // All live nodes converge to the same watermark eventually.
        let max = report.final_committed.iter().max().copied().unwrap();
        for (i, wm) in report.final_committed.iter().enumerate() {
            assert_eq!(*wm, max, "node {i} watermark {wm} != {max}");
        }
    }

    #[test]
    fn report_accounts_message_kinds() {
        let mut cluster = quiet_cluster(3, 9);
        cluster.submit_write_at(secs(3), 0, SubscriberUid(1), None);
        let report = cluster.run_until(secs(6));
        assert!(report.messages.total > 0);
        assert!(report.messages.by_kind.contains_key("prepare"));
        assert!(report.messages.by_kind.contains_key("accept"));
        assert!(report.messages.by_kind.contains_key("heartbeat"));
        assert!(report.messages.wan > 0, "consensus must cross the backbone");
    }

    /// Messages that reach a node while it is down are dropped, and their
    /// mailbox slots are freed all the same: once the run quiesces after
    /// the crash and the restart, no ticket is left live.
    #[test]
    fn messages_dropped_at_a_crashed_node_free_their_tickets() {
        let mut cluster = quiet_cluster(3, 11);
        cluster.run_until(secs(4));
        let leader = cluster.current_leader().expect("stable leader");
        let follower = (0..3u32).find(|i| NodeId(*i) != leader).unwrap();
        for i in 0..10 {
            cluster.submit_write_at(
                secs(5) + SimDuration::from_millis(10 * i),
                leader.0,
                SubscriberUid(i),
                None,
            );
        }
        // Down while the writes' Accepts and Learns and the heartbeats
        // are on their way to it.
        cluster.schedule_script(&FaultScript::new(0).se_outage(
            secs(5) + SimDuration::from_millis(20),
            SimDuration::from_secs(2),
            SeId(follower),
        ));
        let report = cluster.run_until(secs(10));
        assert_eq!(report.committed(), 10);
        assert!(report.violations.is_empty(), "{:?}", report.violations);

        // Heartbeats keep a message or two on the wire for part of every
        // interval; a leaked ticket stays live for good.
        let mut now = secs(10);
        let drained = (0..200).any(|_| {
            now += SimDuration::from_millis(1);
            cluster.run_until(now);
            cluster.ensemble.in_flight() == 0
        });
        assert!(
            drained,
            "{} tickets live throughout the 200 ms after quiescing",
            cluster.ensemble.in_flight()
        );
    }

    #[test]
    #[should_panic(expected = "node 3 is outside the 3-node ensemble")]
    fn a_fault_script_naming_a_missing_node_is_refused() {
        let mut cluster = quiet_cluster(3, 12);
        cluster.schedule_script(&FaultScript::new(0).se_crash(secs(1), SeId(3)));
    }

    #[test]
    #[should_panic(expected = "node 5 is outside the 3-node ensemble")]
    fn a_submission_through_a_missing_node_is_refused() {
        let mut cluster = quiet_cluster(3, 13);
        cluster.submit_write_at(secs(1), 5, SubscriberUid(1), None);
    }

    #[test]
    fn client_latency_includes_learn_leg() {
        let mut cluster = quiet_cluster(3, 10);
        cluster.run_until(secs(4));
        let leader = cluster.current_leader().expect("leader");
        let follower = (0..3u32).find(|i| NodeId(*i) != leader).unwrap();
        let id = cluster.submit_write_at(secs(5), follower, SubscriberUid(1), None);
        let report = cluster.run_until(secs(10));
        let fate = &report.fates[&id];
        let commit = fate.commit_latency().expect("committed");
        let client = fate.client_latency().expect("learned at origin");
        assert!(client >= commit, "origin learns after the leader chooses");
    }
}
