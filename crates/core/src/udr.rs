//! The UDR network function: the assembled system of Figure 2.
//!
//! A [`Udr`] owns the simulated network, every blade cluster (PoA + LDAP
//! servers + data-location stage), every Storage Element, the replication
//! groups and shipping channels, and an event queue carrying replication
//! deliveries, durability snapshots, fault injections and failovers.
//!
//! Drivers (examples, tests, experiments) interleave client calls with
//! virtual time: every client entry point first drains internal events up
//! to the call instant, so replication lag, partitions and crashes unfold
//! deterministically relative to traffic.

use std::collections::BTreeMap;

use udr_dls::{DataLocationStage, IdentityLocationMap, PlacementContext, ShardMap};
use udr_ldap::{LdapServer, PointOfAccess};
use udr_model::config::{DurabilityMode, LocatorKind, Pacelc, ReplicationMode, TxnClass};
use udr_model::error::UdrResult;
use udr_model::ids::{
    ClusterId, IdMap, LdapServerId, PartitionId, PoaId, ReplicaRole, SeId, SiteId,
};
use udr_model::qos::PriorityClass;
use udr_model::tenant::{TenantDirectory, TenantGrant, TenantId};
use udr_model::time::{SimDuration, SimTime};
use udr_qos::{AdmissionController, ClassBuckets, TokenBucket};
use udr_replication::multimaster::{merge_branches, restoration_duration};
use udr_replication::{AsyncShipper, MigrationChannel, MigrationState, ReplicationGroup};
use udr_sim::faults::{Fault, FaultSchedule, FaultScript};
use udr_sim::net::{Cut, CutHandle, Degrade, DegradeHandle, Network, Topology};
use udr_sim::{LaneClass, ShardedPump, SimRng};
use udr_storage::{CommitRecord, Lsn, StorageElement};
use udr_trace::{TraceExport, Tracer};

use crate::config::UdrConfig;
use crate::consensus_mode::{ConsensusGroup, CONSENSUS_TICK_INTERVAL};
use crate::metrics_agg::UdrMetrics;
use crate::rebalance::MigrationPlan;

/// How often stalled replication channels retry catch-up.
pub(crate) const CATCHUP_INTERVAL: SimDuration = SimDuration::from_millis(200);
/// Per-record cost of the consistency-restoration scan (§5 merge).
const MERGE_COST_PER_RECORD: SimDuration = SimDuration::from_micros(5);
/// Catch-up lag (records) at which a master move freezes writes for the
/// final hand-off window.
const MIGRATION_FREEZE_LAG: u64 = 64;
/// Lag at which a slave-copy move may cut over: the remainder flows over
/// the group's ordinary replica channel after the swap, no freeze needed.
const MIGRATION_SLAVE_CUTOVER_LAG: u64 = 32;
/// Fixed setup cost of a migration snapshot transfer.
const MIGRATION_SEED_BASE: SimDuration = SimDuration::from_millis(50);
/// Snapshot transfer throughput (bytes per microsecond ≙ 100 MB/s).
const MIGRATION_SEED_BYTES_PER_US: u64 = 100;

/// One blade cluster: PoA, LDAP servers and a data-location stage (§3.4.1).
pub struct Cluster {
    /// Cluster identity.
    pub id: ClusterId,
    /// Hosting site.
    pub site: SiteId,
    /// The L4 balancer.
    pub poa: PointOfAccess,
    /// LDAP servers (indices into the deployment's server table).
    pub servers: Vec<LdapServerId>,
    /// The local data-location stage instance.
    pub stage: DataLocationStage,
}

/// Internal events driving the deployment between client calls.
#[derive(Debug, Clone)]
pub enum UdrEvent {
    /// A replicated commit record arrives at a slave.
    ReplDeliver {
        /// Partition replicated.
        partition: PartitionId,
        /// Destination slave.
        slave: SeId,
        /// The record.
        record: CommitRecord,
    },
    /// A coalesced batch of commit records arrives at a slave as one
    /// message (batched shipping).
    ReplDeliverBatch {
        /// Partition replicated.
        partition: PartitionId,
        /// Destination slave.
        slave: SeId,
        /// The records, in LSN order.
        records: Vec<CommitRecord>,
        /// Trace of the operation that opened the batch (0 = untraced),
        /// so a shipped batch's arrival shows up on the opener's track.
        trace: u64,
    },
    /// A shipping batch's linger timer fires: flush the channel's open
    /// batch if it is still the same generation.
    ShipFlush {
        /// Partition whose channel lingered.
        partition: PartitionId,
        /// Destination slave.
        slave: SeId,
        /// Open-batch generation the timer was armed for.
        seq: u64,
    },
    /// Periodic durability snapshot on one SE.
    SnapshotTick {
        /// The SE to snapshot.
        se: SeId,
    },
    /// Periodic catch-up pass over all stalled replication channels.
    CatchupTick,
    /// A network partition starts.
    PartitionStart {
        /// The cuts to apply.
        cuts: Vec<Cut>,
        /// How long until heal.
        duration: SimDuration,
    },
    /// A network partition heals.
    PartitionHeal {
        /// Handles returned when the cuts were applied.
        handles: Vec<CutHandle>,
    },
    /// A link degradation (one-way loss, WAN brown-out) starts.
    DegradeStart {
        /// The degradation to apply.
        degrade: Degrade,
        /// How long until it clears.
        duration: SimDuration,
    },
    /// A link degradation clears.
    DegradeHeal {
        /// Handle returned when the degradation was applied.
        handle: DegradeHandle,
    },
    /// A storage element crashes.
    SeCrash {
        /// The failing SE.
        se: SeId,
    },
    /// A storage element restores from local disk.
    SeRestore {
        /// The recovering SE.
        se: SeId,
    },
    /// Failover detection fires for a partition whose master crashed.
    FailoverCheck {
        /// The partition to check.
        partition: PartitionId,
    },
    /// A live partition migration begins: snapshot-seed the target and
    /// open its migration channel.
    MigrationStart {
        /// Index into the deployment's migration ledger.
        id: u64,
    },
    /// A migration's atomic cutover: swap group membership, release the
    /// retired copy, bump the shard-map epoch.
    MigrationCutover {
        /// Index into the deployment's migration ledger.
        id: u64,
    },
    /// A migration is abandoned (fault on an endpoint or the path): the
    /// target's partial copy is dropped and the epoch does not advance.
    MigrationAbort {
        /// Index into the deployment's migration ledger.
        id: u64,
    },
    /// A record shipped over a migration channel arrives at the target.
    MigrationDeliver {
        /// Index into the deployment's migration ledger.
        id: u64,
        /// The record.
        record: CommitRecord,
    },
    /// Consensus mode: one partition ensemble's protocol timer fires
    /// (election timeouts, heartbeats, retries).
    ConsensusTick {
        /// The partition whose ensemble ticks.
        partition: PartitionId,
    },
    /// Consensus mode: a protocol message arrives at an ensemble member.
    ConsensusDeliver {
        /// The partition whose ensemble the message belongs to.
        partition: PartitionId,
        /// Destination node index within the ensemble.
        to: usize,
        /// Sending node index within the ensemble.
        from: usize,
        /// Where the protocol message waits in the ensemble's mailbox: a
        /// message is larger than most events, and holding it there keeps
        /// it out of every event and off the allocator.
        ticket: u32,
        /// Trace of the operation this message works for (0 = protocol
        /// background), propagated from the submit through every response
        /// so a commit round reads as one causal chain.
        trace: u64,
    },
}

// Every scheduled event is moved through the pump's heaps at this size;
// the largest variant sets it (a link degradation).
const _: () = assert!(std::mem::size_of::<UdrEvent>() == 80);

impl UdrEvent {
    /// Schedule-time lane classification for the sharded pump
    /// ([`udr_sim::ShardedPump`]): partition-scoped events (replication
    /// deliveries, batch flushes, failover checks) are local to lane
    /// `partition % lanes`; everything that touches shared deployment
    /// state — the network fabric, whole SEs, the periodic sweeps,
    /// migrations spanning two partitions — serializes through the
    /// cross-lane queue. The merged `(time, seq)` order is identical
    /// either way; classification shrinks per-heap sizes and marks
    /// which events a lane-isolated drain may run concurrently.
    pub fn lane_class(&self) -> LaneClass {
        match self {
            UdrEvent::ReplDeliver { partition, .. }
            | UdrEvent::ReplDeliverBatch { partition, .. }
            | UdrEvent::ShipFlush { partition, .. }
            | UdrEvent::FailoverCheck { partition }
            | UdrEvent::ConsensusTick { partition }
            | UdrEvent::ConsensusDeliver { partition, .. } => LaneClass::Local(partition.index()),
            UdrEvent::SnapshotTick { .. }
            | UdrEvent::CatchupTick
            | UdrEvent::PartitionStart { .. }
            | UdrEvent::PartitionHeal { .. }
            | UdrEvent::DegradeStart { .. }
            | UdrEvent::DegradeHeal { .. }
            | UdrEvent::SeCrash { .. }
            | UdrEvent::SeRestore { .. }
            | UdrEvent::MigrationStart { .. }
            | UdrEvent::MigrationCutover { .. }
            | UdrEvent::MigrationAbort { .. }
            | UdrEvent::MigrationDeliver { .. } => LaneClass::Cross,
        }
    }
}

/// One tracked live migration (see [`MigrationPlan`] for the intent and
/// [`MigrationState`] for the lifecycle).
pub(crate) struct MigrationTask {
    pub(crate) plan: MigrationPlan,
    pub(crate) state: MigrationState,
    /// The shipping ledger; `None` until [`UdrEvent::MigrationStart`]
    /// fires (and again after a terminal state).
    pub(crate) channel: Option<MigrationChannel>,
}

/// The assembled UDR network function.
pub struct Udr {
    pub(crate) cfg: UdrConfig,
    /// The simulated IP network (public so experiments can inspect stats).
    pub net: Network,
    pub(crate) rng: SimRng,
    pub(crate) events: ShardedPump<UdrEvent>,
    pub(crate) ses: Vec<StorageElement>,
    pub(crate) clusters: Vec<Cluster>,
    /// Per-cluster QoS admission controllers (parallel to `clusters`).
    pub(crate) qos: Vec<AdmissionController>,
    /// Per-tenant rate-budget buckets (parallel to the tenant directory;
    /// deployment-wide, not per-cluster — the budget is the tenant's
    /// contractual spend on the whole UDR). Rebuilt lazily whenever the
    /// directory's epoch moves, so mid-run grant/revoke/budget changes
    /// take effect on the next operation.
    pub(crate) tenant_buckets: Vec<ClassBuckets>,
    /// Directory epoch `tenant_buckets` was derived from.
    pub(crate) tenant_buckets_epoch: u64,
    pub(crate) servers: Vec<LdapServer>,
    pub(crate) groups: Vec<ReplicationGroup>,
    pub(crate) shippers: Vec<AsyncShipper>,
    /// The authoritative epoch-versioned partition → SE assignment table.
    /// `groups` is the runtime view of the same assignments; every
    /// reassignment flows through [`ShardMap::reassign`] so route caches
    /// can version-check their views.
    pub(crate) shard_map: ShardMap,
    /// Live migrations, by id (completed/aborted entries stay for audit).
    pub(crate) migrations: Vec<MigrationTask>,
    /// Operations routed per partition (hotspot detection).
    pub(crate) ops_per_partition: Vec<u64>,
    pub(crate) placement: PlacementContext,
    /// Ground-truth identity→location bindings (what the PS provisioned).
    pub(crate) authority: IdentityLocationMap,
    /// Clusters hosted at each site.
    pub(crate) clusters_at_site: Vec<Vec<usize>>,
    /// Round-robin cursor per site for PoA selection.
    pub(crate) next_cluster_rr: Vec<usize>,
    /// Live subscriber count per partition (availability weighting).
    pub(crate) subs_per_partition: Vec<u64>,
    /// Multi-master divergence start per partition (§5).
    pub(crate) diverged: BTreeMap<PartitionId, SimTime>,
    /// Currently active partition windows.
    pub(crate) active_cuts: Vec<(CutHandle, SimTime)>,
    /// Master LSN captured at crash time, for lost-commit accounting.
    pub(crate) master_lsn_at_crash: IdMap<PartitionId, Lsn>,
    /// Highest LSN per partition whose quorum write round reached `w`
    /// acks — the acknowledged tail quorum-served reads are audited
    /// against. Records above it were never promised to anybody.
    pub(crate) quorum_acked: Vec<Lsn>,
    /// Scratch for the responders of one quorum read consult, kept so a
    /// read allocates nothing.
    pub(crate) quorum_responders: Vec<(SeId, SimDuration)>,
    /// Per-partition Multi-Paxos ensembles; empty unless the deployment
    /// runs [`ReplicationMode::Consensus`].
    pub(crate) consensus: Vec<ConsensusGroup>,
    /// Next consensus command id (0 is the protocol's reserved no-op).
    pub(crate) next_cmd_id: u64,
    /// Paxos safety violations observed (always empty in a correct run).
    pub(crate) consensus_violations: Vec<String>,
    pub(crate) next_uid: u64,
    /// Run metrics.
    pub metrics: UdrMetrics,
    /// The structured-tracing flight recorder (inert unless
    /// [`UdrConfig::trace`] enables it).
    pub tracer: Tracer,
}

impl Udr {
    /// Build a deployment from configuration.
    pub fn build(cfg: UdrConfig) -> UdrResult<Self> {
        cfg.validate()?;
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let net = Network::new(Topology::multinational(cfg.sites as usize));

        // ---- storage elements, clusters, servers -------------------------
        let mut ses = Vec::new();
        let mut clusters = Vec::new();
        let mut servers = Vec::new();
        let mut clusters_at_site = vec![Vec::new(); cfg.sites as usize];
        let total_ses = cfg.total_ses() as usize;
        for site in 0..cfg.sites {
            for _ in 0..cfg.clusters_per_site {
                let cluster_idx = clusters.len();
                let cluster_id = ClusterId(cluster_idx as u32);
                let mut poa = PointOfAccess::new(PoaId(cluster_idx as u32), SiteId(site));
                let mut server_ids = Vec::new();
                for _ in 0..cfg.ldap_servers_per_cluster {
                    let id = LdapServerId(servers.len() as u32);
                    servers.push(LdapServer::with_rate(
                        id,
                        SiteId(site),
                        cluster_id,
                        cfg.ldap_ops_per_sec,
                    ));
                    poa.register(id);
                    server_ids.push(id);
                }
                for _ in 0..cfg.ses_per_cluster {
                    let se_id = SeId(ses.len() as u32);
                    ses.push(StorageElement::new(
                        se_id,
                        SiteId(site),
                        cfg.frash.durability,
                    ));
                }
                let stage = match cfg.frash.locator {
                    LocatorKind::ProvisionedMaps => DataLocationStage::provisioned(),
                    LocatorKind::CachedMaps => {
                        DataLocationStage::cached(cfg.dls_cache_capacity, total_ses)
                    }
                    LocatorKind::ConsistentHashing => DataLocationStage::hashed(
                        udr_dls::ConsistentHashRing::new((0..cfg.partitions).map(PartitionId), 64),
                    ),
                };
                clusters.push(Cluster {
                    id: cluster_id,
                    site: SiteId(site),
                    poa,
                    servers: server_ids,
                    stage,
                });
                clusters_at_site[site as usize].push(cluster_idx);
            }
        }

        // ---- partitions: masters round-robin, secondaries geo-spread ----
        let rf = cfg.frash.replication_factor as usize;
        let mut groups = Vec::with_capacity(cfg.partitions as usize);
        let mut shippers = Vec::with_capacity(cfg.partitions as usize);
        for p in 0..cfg.partitions {
            let master_idx = (p as usize) % ses.len();
            let mut members = vec![SeId(master_idx as u32)];
            let mut used_sites = vec![ses[master_idx].site()];
            // Prefer SEs at sites not yet covered (§3.1 decision 2:
            // geographically-disperse copies).
            let mut offset = 1usize;
            while members.len() < rf && offset < ses.len() {
                let idx = (master_idx + offset) % ses.len();
                let site = ses[idx].site();
                let id = SeId(idx as u32);
                if !members.contains(&id) && !used_sites.contains(&site) {
                    members.push(id);
                    used_sites.push(site);
                }
                offset += 1;
            }
            // Fallback: fill with any distinct SEs.
            let mut offset = 1usize;
            while members.len() < rf && offset < ses.len() {
                let id = SeId(((master_idx + offset) % ses.len()) as u32);
                if !members.contains(&id) {
                    members.push(id);
                }
                offset += 1;
            }
            let pid = PartitionId(p);
            for (i, se) in members.iter().enumerate() {
                let role = if i == 0 {
                    ReplicaRole::Master
                } else {
                    ReplicaRole::Slave
                };
                ses[se.index()].add_replica(pid, role);
            }
            let mut shipper = AsyncShipper::new();
            for se in members.iter().skip(1) {
                shipper.register_slave(*se, Lsn::ZERO);
            }
            groups.push(ReplicationGroup::new(pid, members)?);
            shippers.push(shipper);
        }

        // ---- placement context -------------------------------------------
        let mut by_region: Vec<Vec<PartitionId>> = vec![Vec::new(); cfg.sites as usize];
        for g in &groups {
            let site = ses[g.master().index()].site();
            by_region[site.index()].push(g.partition());
        }
        let placement = PlacementContext::new(by_region);

        // ---- initial events -----------------------------------------------
        let mut events = ShardedPump::new(cfg.pump);
        let tick = UdrEvent::CatchupTick;
        events.schedule_at(tick.lane_class(), SimTime::ZERO + CATCHUP_INTERVAL, tick);
        if let DurabilityMode::PeriodicSnapshot { interval } = cfg.frash.durability {
            for se in &ses {
                let snap = UdrEvent::SnapshotTick { se: se.id() };
                events.schedule_at(snap.lane_class(), SimTime::ZERO + interval, snap);
            }
        }

        // Consensus mode: one ensemble per partition over the group's
        // members, with staggered protocol timers so lanes do not beat in
        // lockstep.
        let mut consensus = Vec::new();
        if let ReplicationMode::Consensus { n } = cfg.frash.replication {
            for p in 0..groups.len() {
                consensus.push(ConsensusGroup::new(n as usize, cfg.seed, p as u32));
                let tick = UdrEvent::ConsensusTick {
                    partition: PartitionId(p as u32),
                };
                events.schedule_at(
                    tick.lane_class(),
                    SimTime::ZERO
                        + CONSENSUS_TICK_INTERVAL
                        + SimDuration::from_micros(137 * p as u64),
                    tick,
                );
            }
        }

        let shard_map = ShardMap::new(groups.iter().map(|g| (g.partition(), g.members().to_vec())));

        let sites = cfg.sites as usize;
        let qos = clusters.iter().map(|_| cfg.qos.controller()).collect();
        let tenant_buckets = Self::build_tenant_buckets(&cfg.tenants);
        let tenant_buckets_epoch = cfg.tenants.epoch();
        let tracer = Tracer::new(cfg.trace);
        Ok(Udr {
            subs_per_partition: vec![0; cfg.partitions as usize],
            ops_per_partition: vec![0; cfg.partitions as usize],
            quorum_acked: vec![Lsn::ZERO; cfg.partitions as usize],
            quorum_responders: Vec::new(),
            cfg,
            net,
            rng: rng.fork(1),
            events,
            ses,
            clusters,
            qos,
            tenant_buckets,
            tenant_buckets_epoch,
            servers,
            groups,
            shippers,
            shard_map,
            migrations: Vec::new(),
            placement,
            authority: IdentityLocationMap::new(),
            clusters_at_site,
            next_cluster_rr: vec![0; sites],
            diverged: BTreeMap::new(),
            active_cuts: Vec::new(),
            master_lsn_at_crash: IdMap::default(),
            consensus,
            next_cmd_id: 1,
            consensus_violations: Vec::new(),
            next_uid: 1,
            metrics: UdrMetrics::default(),
            tracer,
        })
    }

    /// Snapshot everything the flight recorder retained (records,
    /// exemplars, deterministic digest). Empty when tracing is disabled.
    pub fn trace_export(&self) -> TraceExport {
        self.tracer.export()
    }

    /// The deployment configuration.
    pub fn config(&self) -> &UdrConfig {
        &self.cfg
    }

    /// The PACELC class this deployment yields for a transaction class
    /// (§3.6's claim, derived from the configuration).
    pub fn pacelc_for(&self, class: TxnClass) -> Pacelc {
        self.cfg.frash.pacelc_for(class)
    }

    /// Current virtual time of the internal event queue.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// The replication group of a partition.
    pub fn group(&self, partition: PartitionId) -> &ReplicationGroup {
        &self.groups[partition.index()]
    }

    /// The storage element with the given id.
    pub fn se(&self, se: SeId) -> &StorageElement {
        &self.ses[se.index()]
    }

    /// Number of storage elements.
    pub fn se_count(&self) -> usize {
        self.ses.len()
    }

    /// The authoritative epoch-versioned shard map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// Operations routed to a partition so far (hotspot detection).
    pub fn partition_ops(&self, partition: PartitionId) -> u64 {
        self.ops_per_partition
            .get(partition.index())
            .copied()
            .unwrap_or(0)
    }

    /// Seed partition load counters directly (planner tests).
    #[cfg(test)]
    pub(crate) fn note_partition_ops_for_test(&mut self, partition: PartitionId, n: u64) {
        self.ops_per_partition[partition.index()] += n;
    }

    /// Total provisioned subscribers.
    pub fn total_subscribers(&self) -> u64 {
        self.subs_per_partition.iter().sum()
    }

    // ---- event engine ------------------------------------------------------

    /// Inject a fault schedule (partitions, glitches, SE outages).
    pub fn schedule_faults(&mut self, schedule: FaultSchedule) {
        let sites = self.cfg.sites as usize;
        for (at, fault) in schedule.into_sorted() {
            match fault {
                Fault::Partition { island, duration } => self.schedule_event(
                    at,
                    UdrEvent::PartitionStart {
                        cuts: vec![Cut { island }],
                        duration,
                    },
                ),
                Fault::BackboneGlitch { duration } => self.schedule_event(
                    at,
                    UdrEvent::PartitionStart {
                        cuts: Fault::glitch_cuts(sites),
                        duration,
                    },
                ),
                Fault::OneWayLoss { from, duration } => self.schedule_event(
                    at,
                    UdrEvent::DegradeStart {
                        degrade: Degrade::one_way_loss(from),
                        duration,
                    },
                ),
                Fault::WanDegrade {
                    latency_factor,
                    loss,
                    duration,
                } => self.schedule_event(
                    at,
                    UdrEvent::DegradeStart {
                        degrade: Degrade::backbone(latency_factor, loss),
                        duration,
                    },
                ),
                Fault::SeCrash { se } => self.schedule_event(at, UdrEvent::SeCrash { se }),
                Fault::SeRestore { se } => self.schedule_event(at, UdrEvent::SeRestore { se }),
            }
        }
    }

    /// Compile and inject a [`FaultScript`] campaign. The compiled
    /// timeline is a pure function of the script, so replaying the same
    /// script against the same deployment seed reproduces the identical
    /// fault sequence.
    pub fn schedule_script(&mut self, script: &FaultScript) {
        self.schedule_faults(script.compile());
    }

    /// Schedule an internal event on its classified pump lane.
    pub(crate) fn schedule_event(&mut self, at: SimTime, event: UdrEvent) {
        let class = event.lane_class();
        self.events.schedule_at(class, at, event);
    }

    /// Drain internal events up to `now`. Every client entry point calls
    /// this first; experiments may also call it to let the system settle.
    pub fn advance_to(&mut self, now: SimTime) {
        while let Some((t, event)) = self.events.pop_until(now) {
            self.handle_event(t, event);
        }
    }

    /// Run the deployment's event pump to `until` and return how many
    /// events it processed.
    ///
    /// This is [`Udr::advance_to`] under the [`PumpConfig`] the
    /// deployment was built with (`cfg.pump`): events pop in merged
    /// `(time, seq)` order across all lanes, so any lane count replays
    /// the byte-identical timeline — handlers mutate shared deployment
    /// state (the network, the shard map, cross-partition metrics), so
    /// the full UDR always consumes the merge sequentially. Workloads
    /// whose state decomposes per lane (the e24 campaign's per-shard
    /// engines) use [`udr_sim::ShardedPump::drain_parallel`] directly to
    /// overlap lanes on worker threads.
    ///
    /// [`PumpConfig`]: udr_sim::PumpConfig
    pub fn run(&mut self, until: SimTime) -> u64 {
        let before = self.events.processed();
        self.advance_to(until);
        self.events.processed() - before
    }

    fn handle_event(&mut self, t: SimTime, event: UdrEvent) {
        if self.tracer.enabled() {
            self.trace_event(t, &event);
        }
        match event {
            UdrEvent::ReplDeliver {
                partition,
                slave,
                record,
            } => {
                self.deliver_replication(partition, slave, record);
            }
            UdrEvent::ReplDeliverBatch {
                partition,
                slave,
                mut records,
                trace: _,
            } => {
                for record in records.drain(..) {
                    self.deliver_replication(partition, slave, record);
                }
                self.shippers[partition.index()].recycle(records);
            }
            UdrEvent::ShipFlush {
                partition,
                slave,
                seq,
            } => self.ship_flush(t, partition, slave, seq),
            UdrEvent::SnapshotTick { se } => {
                let interval = match self.cfg.frash.durability {
                    DurabilityMode::PeriodicSnapshot { interval } => interval,
                    _ => return,
                };
                self.ses[se.index()].maybe_snapshot(t);
                self.schedule_event(t + interval, UdrEvent::SnapshotTick { se });
            }
            UdrEvent::CatchupTick => {
                self.run_catchup(t);
                self.schedule_event(t + CATCHUP_INTERVAL, UdrEvent::CatchupTick);
            }
            UdrEvent::PartitionStart { cuts, duration } => {
                let mut handles = Vec::with_capacity(cuts.len());
                for cut in cuts {
                    let h = self.net.start_partition(cut);
                    handles.push(h);
                    self.active_cuts.push((h, t));
                }
                self.schedule_event(t + duration, UdrEvent::PartitionHeal { handles });
            }
            UdrEvent::PartitionHeal { handles } => {
                for h in handles {
                    self.net.heal_partition(h);
                    self.active_cuts.retain(|(handle, _)| *handle != h);
                }
                if !self.net.partitioned() {
                    self.run_restorations();
                }
            }
            UdrEvent::DegradeStart { degrade, duration } => {
                let handle = self.net.start_degrade(degrade);
                self.schedule_event(t + duration, UdrEvent::DegradeHeal { handle });
            }
            UdrEvent::DegradeHeal { handle } => self.net.heal_degrade(handle),
            UdrEvent::SeCrash { se } => self.crash_se(t, se),
            UdrEvent::SeRestore { se } => self.restore_se(se),
            UdrEvent::FailoverCheck { partition } => self.failover_check(partition),
            UdrEvent::MigrationStart { id } => self.migration_start(t, id),
            UdrEvent::MigrationCutover { id } => self.migration_cutover(t, id),
            UdrEvent::MigrationAbort { id } => self.migration_abort(t, id),
            UdrEvent::MigrationDeliver { id, record } => self.migration_deliver(id, record),
            UdrEvent::ConsensusTick { partition } => self.consensus_tick(t, partition),
            UdrEvent::ConsensusDeliver {
                partition,
                to,
                from,
                ticket,
                trace,
            } => self.consensus_deliver(t, partition, to, from, ticket, trace),
        }
    }

    /// Flight-recorder instants for background events worth seeing on a
    /// timeline (faults, migration phases, traced batch arrivals). Bare
    /// periodic ticks and per-record deliveries are deliberately skipped:
    /// they would drown the ring without adding causality.
    fn trace_event(&mut self, t: SimTime, event: &UdrEvent) {
        match event {
            UdrEvent::ReplDeliverBatch {
                partition,
                slave,
                records,
                trace,
            } => self.tracer.instant(
                *trace,
                0,
                "repl.deliver_batch",
                t,
                Some(format!(
                    "p{} se{} n={}",
                    partition.index(),
                    slave.index(),
                    records.len()
                )),
            ),
            UdrEvent::PartitionStart { cuts, duration } => self.tracer.instant(
                0,
                0,
                "fault.partition",
                t,
                Some(format!("cuts={} dur={duration}", cuts.len())),
            ),
            UdrEvent::PartitionHeal { .. } => self.tracer.instant(0, 0, "fault.heal", t, None),
            UdrEvent::DegradeStart { duration, .. } => {
                self.tracer
                    .instant(0, 0, "fault.degrade", t, Some(format!("dur={duration}")))
            }
            UdrEvent::DegradeHeal { .. } => {
                self.tracer.instant(0, 0, "fault.degrade_heal", t, None)
            }
            UdrEvent::SeCrash { se } => {
                self.tracer
                    .instant(0, 0, "fault.crash", t, Some(format!("se{}", se.index())))
            }
            UdrEvent::SeRestore { se } => {
                self.tracer
                    .instant(0, 0, "fault.restore", t, Some(format!("se{}", se.index())))
            }
            UdrEvent::FailoverCheck { partition } => self.tracer.instant(
                0,
                0,
                "fault.failover_check",
                t,
                Some(format!("p{}", partition.index())),
            ),
            UdrEvent::MigrationStart { id } => {
                self.tracer
                    .instant(0, 0, "migr.start", t, Some(format!("id={id}")))
            }
            UdrEvent::MigrationCutover { id } => {
                self.tracer
                    .instant(0, 0, "migr.cutover", t, Some(format!("id={id}")))
            }
            UdrEvent::MigrationAbort { id } => {
                self.tracer
                    .instant(0, 0, "migr.abort", t, Some(format!("id={id}")))
            }
            UdrEvent::ReplDeliver { .. }
            | UdrEvent::ShipFlush { .. }
            | UdrEvent::SnapshotTick { .. }
            | UdrEvent::CatchupTick
            | UdrEvent::MigrationDeliver { .. }
            | UdrEvent::ConsensusTick { .. }
            | UdrEvent::ConsensusDeliver { .. } => {}
        }
    }

    fn deliver_replication(&mut self, partition: PartitionId, slave: SeId, record: CommitRecord) {
        // The message may arrive after a partition started or the slave
        // crashed; then it is simply lost (catch-up re-ships later).
        let master = self.groups[partition.index()].master();
        let master_site = self.ses[master.index()].site();
        let slave_site = self.ses[slave.index()].site();
        if !self.ses[slave.index()].is_up() || !self.net.reachable(master_site, slave_site) {
            return;
        }
        let lsn = record.lsn;
        if self.ses[slave.index()]
            .apply_replicated(partition, &record)
            .is_ok()
        {
            self.shippers[partition.index()].on_applied(slave, lsn);
        }
    }

    /// Linger timer for a shipping batch: sample the path once and flush
    /// the channel's open batch as a single message, if it is still the
    /// generation the timer was armed for.
    fn ship_flush(&mut self, t: SimTime, partition: PartitionId, slave: SeId, seq: u64) {
        let p = partition.index();
        let master = self.groups[p].master();
        if !self.ses[master.index()].is_up() {
            return;
        }
        let master_site = self.ses[master.index()].site();
        let slave_site = self.ses[slave.index()].site();
        let delay = if self.ses[slave.index()].is_up() {
            self.net
                .send(master_site, slave_site, &mut self.rng)
                .delay()
        } else {
            None
        };
        if let Some(batch) = self.shippers[p].flush_if_open(slave, seq, t, delay) {
            if self.tracer.enabled() {
                self.tracer.instant(
                    batch.trace,
                    0,
                    "ship.flush",
                    t,
                    Some(format!(
                        "p{} se{} n={} linger",
                        p,
                        slave.index(),
                        batch.records.len()
                    )),
                );
            }
            self.schedule_event(
                batch.arrives,
                UdrEvent::ReplDeliverBatch {
                    partition,
                    slave: batch.slave,
                    records: batch.records,
                    trace: batch.trace,
                },
            );
        }
    }

    fn run_catchup(&mut self, t: SimTime) {
        if !self.net.partitioned() {
            // Divergence can arise without any cut: under multi-master a
            // *crashed* master makes each client site elect its own
            // acting master. No heal event will ever fire for that, so
            // the periodic tick merges outstanding branches as soon as
            // connectivity is whole (a no-op otherwise).
            self.run_restorations();
        }
        if self.consensus_mode() {
            // No shipping channels under consensus: the ensembles'
            // catch-up protocol keeps lagging replicas current. Only the
            // migration state machines ride this tick.
            self.run_consensus_migrations(t);
            return;
        }
        for p in 0..self.groups.len() {
            let pid = PartitionId(p as u32);
            let master = self.groups[p].master();
            if !self.ses[master.index()].is_up() {
                continue;
            }
            let master_site = self.ses[master.index()].site();
            // By index: nothing below changes the group, and the idle tick
            // collects nothing.
            for i in 0..self.groups[p].members().len() {
                let slave = self.groups[p].members()[i];
                if slave == master || !self.ses[slave.index()].is_up() {
                    continue;
                }
                let slave_site = self.ses[slave.index()].site();
                if !self.net.reachable(master_site, slave_site) {
                    continue;
                }
                // Reseed when the master's log can no longer serve the gap.
                let needs_reseed = {
                    let master_engine = self.ses[master.index()]
                        .engine(pid)
                        .expect("master hosts partition");
                    self.shippers[p].needs_reseed(slave, master_engine)
                };
                if needs_reseed {
                    self.reseed_from(pid, master, slave);
                    continue;
                }
                let lag = {
                    let master_engine = self.ses[master.index()]
                        .engine(pid)
                        .expect("master hosts partition");
                    self.shippers[p].lag(slave, master_engine).unwrap_or(0)
                };
                if lag == 0 {
                    continue;
                }
                let delay = self
                    .net
                    .send(master_site, slave_site, &mut self.rng)
                    .delay();
                let deliveries = {
                    let master_engine = self.ses[master.index()]
                        .engine(pid)
                        .expect("master hosts partition");
                    self.shippers[p].catch_up(slave, master_engine, t, delay)
                };
                for d in deliveries {
                    self.schedule_event(
                        d.arrives,
                        UdrEvent::ReplDeliver {
                            partition: pid,
                            slave: d.slave,
                            record: d.record,
                        },
                    );
                }
            }
        }
        self.run_migration_catchup(t);
    }

    fn crash_se(&mut self, t: SimTime, se: SeId) {
        if !self.ses[se.index()].is_up() {
            return;
        }
        if self.consensus_mode() {
            // No failover machinery: the ensemble's elections handle
            // mastership, and the chosen log is the durable acceptor
            // state the protocol requires — it survives the crash.
            self.ses[se.index()].crash();
            return;
        }
        // Capture mastered partitions and their LSNs before RAM vanishes.
        let mastered: Vec<(PartitionId, Lsn)> = self
            .groups
            .iter()
            .filter(|g| g.master() == se)
            .map(|g| {
                let lsn = self.ses[se.index()]
                    .last_lsn(g.partition())
                    .unwrap_or(Lsn::ZERO);
                (g.partition(), lsn)
            })
            .collect();
        self.ses[se.index()].crash();
        for (pid, lsn) in mastered {
            self.master_lsn_at_crash.insert(pid, lsn);
            if self.cfg.frash.auto_failover {
                self.schedule_event(
                    t + self.cfg.frash.failover_detection,
                    UdrEvent::FailoverCheck { partition: pid },
                );
            }
        }
    }

    fn failover_check(&mut self, partition: PartitionId) {
        let p = partition.index();
        let master = self.groups[p].master();
        if self.ses[master.index()].is_up() {
            return; // master came back before detection completed
        }
        let alive: Vec<(SeId, Lsn)> = self.groups[p]
            .slaves()
            .filter(|s| self.ses[s.index()].is_up())
            .map(|s| {
                (
                    s,
                    self.ses[s.index()].last_lsn(partition).unwrap_or(Lsn::ZERO),
                )
            })
            .collect();
        let Some(candidate) = self.groups[p].promotion_candidate(&alive) else {
            return; // total outage: nothing to promote
        };
        let candidate_lsn = alive
            .iter()
            .find(|(s, _)| *s == candidate)
            .map(|(_, l)| *l)
            .unwrap_or(Lsn::ZERO);
        if let Some(crash_lsn) = self.master_lsn_at_crash.get(&partition) {
            // §4.2: transactions committed at the master but not yet
            // replicated are lost by the promotion.
            self.metrics.lost_commits += crash_lsn.raw().saturating_sub(candidate_lsn.raw());
        }
        self.groups[p]
            .promote(candidate)
            .expect("candidate is a member");
        let _ = self.ses[candidate.index()].set_role(partition, ReplicaRole::Master);
        // Mastership moved: bump the shard-map epoch so route caches learn
        // (lazily) that the old owner is retired.
        self.sync_shard_map(partition);
        self.rebuild_shipper(partition, candidate_lsn);
        self.metrics.failovers += 1;
    }

    /// Replace `partition`'s shipping ledger with a fresh one around the
    /// group's current master, whose position is `master_lsn`: an up slave
    /// registers at what it holds, capped at `master_lsn`, and a down one
    /// at zero (its restore reseeds or re-registers it).
    fn rebuild_shipper(&mut self, partition: PartitionId, master_lsn: Lsn) {
        let mut shipper = AsyncShipper::new();
        for slave in self.groups[partition.index()].slaves() {
            let lsn = if self.ses[slave.index()].is_up() {
                self.ses[slave.index()]
                    .last_lsn(partition)
                    .unwrap_or(Lsn::ZERO)
                    .min(master_lsn)
            } else {
                Lsn::ZERO
            };
            shipper.register_slave(slave, lsn);
        }
        self.shippers[partition.index()] = shipper;
    }

    fn restore_se(&mut self, se: SeId) {
        let recovered = self.ses[se.index()].restore(self.events.now());
        if self.consensus_mode() {
            // Reset the apply cursor to the recovered disk position and
            // replay the chosen log's committed prefix; no lost-commit
            // accounting — consensus never acknowledged anything the log
            // does not hold.
            self.consensus_restore(self.events.now(), se, &recovered);
            return;
        }
        let recovered_map: IdMap<PartitionId, Lsn> = recovered.into_iter().collect();
        // Rejoin every group this SE belongs to.
        let member_of: Vec<PartitionId> = self
            .groups
            .iter()
            .filter(|g| g.contains(se))
            .map(|g| g.partition())
            .collect();
        for pid in member_of {
            let p = pid.index();
            let is_master = self.groups[p].master() == se;
            let recovered_lsn = recovered_map.get(&pid).copied();
            if is_master {
                self.restore_master(pid, se, recovered_lsn);
            } else {
                self.restore_slave(pid, se, recovered_lsn);
            }
        }
    }

    /// A crashed master restores while still holding mastership (failover
    /// disabled, not yet fired, or no candidate existed).
    fn restore_master(&mut self, pid: PartitionId, se: SeId, recovered: Option<Lsn>) {
        let p = pid.index();
        let restored_lsn = recovered.unwrap_or(Lsn::ZERO);
        if recovered.is_none() {
            self.ses[se.index()].add_replica(pid, ReplicaRole::Slave);
        }
        // If a slave is ahead of the restored disk state, prefer rebuilding
        // the master from the most caught-up slave: less data loss.
        let best_slave: Option<(SeId, Lsn)> = self.groups[p]
            .slaves()
            .filter(|s| self.ses[s.index()].is_up())
            .map(|s| (s, self.ses[s.index()].last_lsn(pid).unwrap_or(Lsn::ZERO)))
            .max_by_key(|(_, l)| *l);
        let crash_lsn = self
            .master_lsn_at_crash
            .remove(&pid)
            .unwrap_or(restored_lsn);
        let base_lsn = match best_slave {
            Some((donor, donor_lsn)) if donor_lsn > restored_lsn => {
                let snapshot = self.ses[donor.index()]
                    .engine(pid)
                    .expect("donor hosts partition")
                    .snapshot();
                self.ses[se.index()].seed_replica(pid, ReplicaRole::Master, snapshot);
                self.metrics.reseeds += 1;
                donor_lsn
            }
            _ => {
                let _ = self.ses[se.index()].set_role(pid, ReplicaRole::Master);
                restored_lsn
            }
        };
        self.metrics.lost_commits += crash_lsn.raw().saturating_sub(base_lsn.raw());
        // Slaves ahead of the rebuilt master hold orphaned commits: reseed
        // them down to the master's lineage.
        let ahead: Vec<SeId> = self.groups[p]
            .slaves()
            .filter(|s| {
                self.ses[s.index()].is_up()
                    && self.ses[s.index()].last_lsn(pid).unwrap_or(Lsn::ZERO) > base_lsn
            })
            .collect();
        for slave in ahead {
            self.reseed_from(pid, se, slave);
        }
        self.rebuild_shipper(pid, base_lsn);
    }

    /// A crashed SE restores as a slave (its mastership moved or it always
    /// was a slave).
    fn restore_slave(&mut self, pid: PartitionId, se: SeId, recovered: Option<Lsn>) {
        let p = pid.index();
        let master = self.groups[p].master();
        let master_lsn = if self.ses[master.index()].is_up() {
            self.ses[master.index()].last_lsn(pid).unwrap_or(Lsn::ZERO)
        } else {
            Lsn::ZERO
        };
        match recovered {
            Some(lsn) if lsn <= master_lsn => {
                self.shippers[p].register_slave(se, lsn);
            }
            _ => {
                // Nothing on disk, or disk state ahead of the current
                // master's lineage (orphaned commits): reseed.
                if self.ses[master.index()].is_up() {
                    if recovered.is_none() {
                        self.ses[se.index()].add_replica(pid, ReplicaRole::Slave);
                    }
                    self.reseed_from(pid, master, se);
                } else {
                    self.ses[se.index()].add_replica(pid, ReplicaRole::Slave);
                    self.shippers[p].register_slave(se, Lsn::ZERO);
                }
            }
        }
    }

    /// Seed `target`'s replica of `pid` from `source`'s current state.
    fn reseed_from(&mut self, pid: PartitionId, source: SeId, target: SeId) {
        let snapshot = self.ses[source.index()]
            .engine(pid)
            .expect("source hosts partition")
            .snapshot();
        let lsn = snapshot.last_lsn;
        self.ses[target.index()].seed_replica(pid, ReplicaRole::Slave, snapshot);
        self.shippers[pid.index()].reseeded(target, lsn);
        self.metrics.reseeds += 1;
    }

    // ---- multi-master restoration (§5) --------------------------------------

    /// Earliest active partition start (divergence stamp for new branches).
    pub(crate) fn earliest_active_cut(&self) -> Option<SimTime> {
        self.active_cuts.iter().map(|(_, t)| *t).min()
    }

    fn run_restorations(&mut self) {
        if self.cfg.frash.replication != ReplicationMode::MultiMaster || self.diverged.is_empty() {
            return;
        }
        let diverged: Vec<(PartitionId, SimTime)> =
            self.diverged.iter().map(|(p, t)| (*p, *t)).collect();
        self.diverged.clear();
        for (pid, since) in diverged {
            let p = pid.index();
            let members: Vec<SeId> = self.groups[p]
                .members()
                .iter()
                .copied()
                .filter(|se| self.ses[se.index()].is_up())
                .collect();
            if members.is_empty() {
                continue;
            }
            let outcome = {
                let engines: Vec<&udr_storage::Engine> = members
                    .iter()
                    .map(|se| {
                        self.ses[se.index()]
                            .engine(pid)
                            .expect("member hosts partition")
                    })
                    .collect();
                merge_branches(since, &engines)
            };
            let master = self.groups[p].master();
            for se in &members {
                let role = if *se == master {
                    ReplicaRole::Master
                } else {
                    ReplicaRole::Slave
                };
                self.ses[se.index()].seed_replica(pid, role, outcome.snapshot.clone());
            }
            // Every up member now holds the merged state.
            self.rebuild_shipper(pid, outcome.snapshot.last_lsn);
            self.metrics.merges += 1;
            self.metrics.merge_conflicts += outcome.stats.conflicts as u64;
            self.metrics.merge_records += outcome.stats.records_examined as u64;
            self.metrics.merge_time +=
                restoration_duration(outcome.stats.records_examined, MERGE_COST_PER_RECORD);
        }
    }

    // ---- structural availability probes -------------------------------------

    /// Whether `partition` currently has a readable copy reachable from
    /// `from_site` (any up replica on a reachable site).
    pub fn partition_readable_from(&self, partition: PartitionId, from_site: SiteId) -> bool {
        self.groups[partition.index()].members().iter().any(|se| {
            self.ses[se.index()].is_up()
                && self.net.reachable(from_site, self.ses[se.index()].site())
        })
    }

    /// Fraction of subscribers whose data is readable from `from_site`,
    /// weighted by per-partition population.
    pub fn readable_subscriber_fraction(&self, from_site: SiteId) -> f64 {
        let total: u64 = self.subs_per_partition.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ok: u64 = self
            .groups
            .iter()
            .filter(|g| self.partition_readable_from(g.partition(), from_site))
            .map(|g| self.subs_per_partition[g.partition().index()])
            .sum();
        ok as f64 / total as f64
    }

    /// The largest replication lag (log records) any up slave currently
    /// shows against its partition master. Crashed endpoints are skipped
    /// — they cannot catch up until they restore.
    pub fn max_replica_lag(&self) -> u64 {
        if self.consensus_mode() {
            return self.consensus_replica_lag();
        }
        let mut max = 0u64;
        for (p, group) in self.groups.iter().enumerate() {
            let master = group.master();
            if !self.ses[master.index()].is_up() {
                continue;
            }
            let Ok(engine) = self.ses[master.index()].engine(group.partition()) else {
                continue;
            };
            for slave in group.slaves() {
                if !self.ses[slave.index()].is_up() {
                    continue;
                }
                if let Some(lag) = self.shippers[p].lag(slave, engine) {
                    max = max.max(lag);
                }
            }
        }
        max
    }

    /// Whether replication has fully re-converged: zero lag on every
    /// live channel, no diverged multi-master branches awaiting merge,
    /// and no partition or degradation still active. The condition the
    /// heal-time measurement of a fault campaign waits for.
    pub fn replication_settled(&self) -> bool {
        if self.consensus_mode() {
            return !self.net.partitioned() && !self.net.degraded() && self.consensus_settled();
        }
        !self.net.partitioned()
            && !self.net.degraded()
            && self.diverged.is_empty()
            && self.max_replica_lag() == 0
    }

    /// Coalesced shipping batches delivered across all partitions'
    /// channels (zero under per-record shipping).
    pub fn shipping_batches(&self) -> u64 {
        self.shippers.iter().map(|s| s.batches).sum()
    }

    /// Records shipped (including catch-up re-ships) across all channels.
    pub fn shipped_records(&self) -> u64 {
        self.shippers.iter().map(|s| s.shipped).sum()
    }

    /// Allocate the next subscriber uid.
    pub(crate) fn alloc_uid(&mut self) -> u64 {
        let uid = self.next_uid;
        self.next_uid += 1;
        uid
    }

    /// Borrow cluster by index.
    pub fn cluster(&self, idx: usize) -> &Cluster {
        &self.clusters[idx]
    }

    /// Borrow a cluster's QoS admission controller (experiments inspect
    /// shedding/degradation state through this).
    pub fn qos_controller(&self, idx: usize) -> &AdmissionController {
        &self.qos[idx]
    }

    /// Mutate the tenant directory at runtime (grant/revoke/budget
    /// changes). Every mutation bumps the directory epoch, which makes
    /// the pipeline rebuild the derived rate-budget buckets before the
    /// next operation — a revocation takes effect immediately.
    pub fn tenant_directory_mut(&mut self) -> &mut TenantDirectory {
        &mut self.cfg.tenants
    }

    /// Materialize per-tenant [`ClassBuckets`] from the directory's
    /// budget entries (tenants without budgets get an unlimited stack).
    fn build_tenant_buckets(dir: &TenantDirectory) -> Vec<ClassBuckets> {
        dir.tenants()
            .map(|tenant| {
                let mut buckets = ClassBuckets::unlimited();
                if let Some(grant) = dir.grant_of(tenant) {
                    for class in PriorityClass::ALL {
                        if let Some(budget) = grant.budget(class) {
                            buckets.set(class, TokenBucket::new(budget.rate, budget.burst));
                        }
                    }
                }
                buckets
            })
            .collect()
    }

    /// Rebuild the derived per-tenant buckets when the directory's epoch
    /// moved (no-op — one integer compare — on the hot path otherwise).
    pub(crate) fn sync_tenant_buckets(&mut self) {
        let epoch = self.cfg.tenants.epoch();
        if epoch != self.tenant_buckets_epoch {
            self.tenant_buckets = Self::build_tenant_buckets(&self.cfg.tenants);
            self.tenant_buckets_epoch = epoch;
        }
    }

    /// The rate-budget buckets of `tenant`; `None` when the tenant has no
    /// budget on any class (the common uncapped case skips bucket work
    /// entirely).
    pub(crate) fn tenant_bucket_mut(&mut self, tenant: TenantId) -> Option<&mut ClassBuckets> {
        let has_budgets = self
            .cfg
            .tenants
            .grant_of(tenant)
            .is_some_and(TenantGrant::has_budgets);
        if has_budgets {
            self.tenant_buckets.get_mut(tenant.index())
        } else {
            None
        }
    }

    /// Pick the serving cluster for a client at `site` (round-robin over
    /// the site's clusters).
    pub(crate) fn pick_cluster(&mut self, site: SiteId) -> usize {
        let list = &self.clusters_at_site[site.index()];
        debug_assert!(!list.is_empty(), "site without clusters");
        let rr = &mut self.next_cluster_rr[site.index()];
        let idx = list[*rr % list.len()];
        *rr = (*rr + 1) % list.len().max(1);
        idx
    }

    // ---- scale-out (§3.4.2) --------------------------------------------------

    /// Deploy an additional blade cluster at `site` (scale-out). The new
    /// cluster's data-location stage must first sync its identity-location
    /// maps from a peer; until the sync window elapses the new PoA answers
    /// [`UdrError::LocationStageSyncing`](udr_model::error::UdrError) —
    /// the §3.4.2 availability impact. With cached or hashed locators there
    /// is no sync window.
    ///
    /// Returns the new cluster's index.
    pub fn add_cluster(&mut self, site: SiteId, now: SimTime) -> usize {
        self.advance_to(now);
        let cluster_idx = self.clusters.len();
        let cluster_id = ClusterId(cluster_idx as u32);
        let mut poa = PointOfAccess::new(PoaId(cluster_idx as u32), site);
        let mut server_ids = Vec::new();
        for _ in 0..self.cfg.ldap_servers_per_cluster {
            let id = LdapServerId(self.servers.len() as u32);
            self.servers.push(LdapServer::with_rate(
                id,
                site,
                cluster_id,
                self.cfg.ldap_ops_per_sec,
            ));
            poa.register(id);
            server_ids.push(id);
        }
        let mut stage = match self.cfg.frash.locator {
            LocatorKind::ProvisionedMaps => {
                // Copy the maps from a peer stage; the transfer blocks the
                // new PoA for the sync window.
                let entries = self.authority.len();
                let cost = udr_dls::SyncCostModel::default();
                let mut stage = DataLocationStage::provisioned_syncing(now, entries, &cost);
                stage.import(self.authority.export());
                stage
            }
            LocatorKind::CachedMaps => {
                DataLocationStage::cached(self.cfg.dls_cache_capacity, self.ses.len())
            }
            LocatorKind::ConsistentHashing => DataLocationStage::hashed(
                udr_dls::ConsistentHashRing::new((0..self.cfg.partitions).map(PartitionId), 64),
            ),
        };
        // The sync copies a current view: the stage joins at today's epoch.
        stage.install_map_epoch(self.shard_map.epoch());
        self.clusters.push(Cluster {
            id: cluster_id,
            site,
            poa,
            servers: server_ids,
            stage,
        });
        self.qos.push(self.cfg.qos.controller());
        self.clusters_at_site[site.index()].push(cluster_idx);
        cluster_idx
    }

    /// When the cluster's location stage finishes syncing (`None` when it
    /// is already serving).
    pub fn cluster_sync_done_at(&self, cluster_idx: usize) -> Option<SimTime> {
        self.clusters[cluster_idx].stage.sync_done_at()
    }

    // ---- elastic scale-out: live partition migration -------------------------

    /// Deploy an additional (empty) Storage Element at `site`. The
    /// newcomer hosts nothing until a [`Rebalancer`](crate::Rebalancer)
    /// plan moves partitions onto it.
    ///
    /// # Panics
    ///
    /// Panics immediately when `site` is outside the deployment's
    /// topology (sites are fixed at build time; an out-of-range site
    /// would otherwise only surface as an index panic deep inside the
    /// event pump).
    pub fn add_se(&mut self, site: SiteId, now: SimTime) -> SeId {
        assert!(
            site.index() < self.cfg.sites as usize,
            "{site} is outside the {}-site topology",
            self.cfg.sites
        );
        self.advance_to(now);
        let id = SeId(self.ses.len() as u32);
        self.ses
            .push(StorageElement::new(id, site, self.cfg.frash.durability));
        if let DurabilityMode::PeriodicSnapshot { interval } = self.cfg.frash.durability {
            self.schedule_event(
                self.events.now().max(now) + interval,
                UdrEvent::SnapshotTick { se: id },
            );
        }
        id
    }

    /// Begin executing a [`MigrationPlan`] at `at`: the move runs online
    /// through the event pump (snapshot reseed → log catch-up → freeze →
    /// atomic cutover that bumps the shard-map epoch), interleaved
    /// deterministically with traffic and faults. Returns the migration
    /// id for [`Udr::migration_state`] queries. Invalid or fault-hit plans
    /// abort cleanly without advancing the epoch.
    pub fn start_migration(&mut self, plan: MigrationPlan, at: SimTime) -> u64 {
        let id = self.migrations.len() as u64;
        self.migrations.push(MigrationTask {
            plan,
            state: MigrationState::Seeding { ready_at: at },
            channel: None,
        });
        // Every accepted request counts as started, including ones that
        // abort at validation: started == completed + aborted always.
        self.metrics.migrations_started += 1;
        self.schedule_event(at, UdrEvent::MigrationStart { id });
        id
    }

    /// The lifecycle state of a migration started earlier.
    pub fn migration_state(&self, id: u64) -> Option<MigrationState> {
        self.migrations.get(id as usize).map(|m| m.state)
    }

    /// Migrations not yet in a terminal state.
    pub fn active_migrations(&self) -> usize {
        self.migrations
            .iter()
            .filter(|m| m.state.is_active())
            .count()
    }

    /// `MigrationStart`: snapshot the partition master, seed the target's
    /// copy and open the migration channel at the snapshot LSN.
    fn migration_start(&mut self, t: SimTime, id: u64) {
        let plan = self.migrations[id as usize].plan;
        let p = plan.partition.index();
        let valid = plan.from != plan.to
            && p < self.groups.len()
            && plan.to.index() < self.ses.len()
            && self.groups[p].contains(plan.from)
            && !self.groups[p].contains(plan.to)
            && self.ses[plan.from.index()].is_up()
            && self.ses[plan.to.index()].is_up();
        if !valid || !self.ses[self.groups[p].master().index()].is_up() {
            self.migration_abort(t, id);
            return;
        }
        let master = self.groups[p].master();
        let engine = self.ses[master.index()]
            .engine(plan.partition)
            .expect("master hosts partition");
        let bytes = engine.store().snapshot_bytes() as u64;
        let snapshot = engine.snapshot();
        let lsn = snapshot.last_lsn;
        self.ses[plan.to.index()].seed_replica(plan.partition, ReplicaRole::Slave, snapshot);
        let transfer =
            MIGRATION_SEED_BASE + SimDuration::from_micros(bytes / MIGRATION_SEED_BYTES_PER_US);
        let task = &mut self.migrations[id as usize];
        task.channel = Some(MigrationChannel::new(plan.to, lsn));
        task.state = MigrationState::Seeding {
            ready_at: t + transfer,
        };
    }

    /// Drive every active migration one catch-up step (runs on each
    /// `CatchupTick`, after the replica channels; a consensus deployment
    /// runs `run_consensus_migrations` instead).
    fn run_migration_catchup(&mut self, t: SimTime) {
        for id in 0..self.migrations.len() {
            let (plan, state, started) = {
                let m = &self.migrations[id];
                (m.plan, m.state, m.channel.is_some())
            };
            if !state.is_active() || !started {
                continue;
            }
            let p = plan.partition.index();
            let master = self.groups[p].master();
            // Fault policy: a crashed endpoint or a cut on the shipping
            // path abandons the move — restarting later is cheaper than
            // reasoning about a half-seeded copy across a partition.
            let endpoints_up = self.ses[plan.from.index()].is_up()
                && self.ses[plan.to.index()].is_up()
                && self.ses[master.index()].is_up();
            let master_site = self.ses[master.index()].site();
            let to_site = self.ses[plan.to.index()].site();
            if !endpoints_up || !self.net.reachable(master_site, to_site) {
                self.migration_abort(t, id as u64);
                continue;
            }
            match state {
                MigrationState::Seeding { ready_at } if t < ready_at => continue,
                MigrationState::Seeding { .. } => {
                    self.migrations[id].state = MigrationState::CatchingUp;
                }
                _ => {}
            }
            // A truncated master log (or a failover onto a new lineage)
            // invalidates the seed: reseed from the current master.
            let needs_reseed = {
                let engine = self.ses[master.index()]
                    .engine(plan.partition)
                    .expect("master hosts partition");
                self.migrations[id]
                    .channel
                    .as_ref()
                    .expect("started migration has channel")
                    .needs_reseed(engine)
            };
            if needs_reseed {
                let snapshot = self.ses[master.index()]
                    .engine(plan.partition)
                    .expect("master hosts partition")
                    .snapshot();
                let lsn = snapshot.last_lsn;
                self.ses[plan.to.index()].seed_replica(
                    plan.partition,
                    ReplicaRole::Slave,
                    snapshot,
                );
                self.migrations[id]
                    .channel
                    .as_mut()
                    .expect("started migration has channel")
                    .reseeded(lsn);
                self.metrics.reseeds += 1;
                continue;
            }
            let lag = {
                let engine = self.ses[master.index()]
                    .engine(plan.partition)
                    .expect("master hosts partition");
                self.migrations[id]
                    .channel
                    .as_ref()
                    .expect("started migration has channel")
                    .lag(engine)
            };
            if plan.from == master {
                // Master move: converge, freeze the log, cut over at
                // exact equality.
                if lag <= MIGRATION_FREEZE_LAG
                    && !matches!(self.migrations[id].state, MigrationState::Frozen { .. })
                {
                    let _ = self.ses[master.index()].freeze_partition(plan.partition);
                    self.migrations[id].state = MigrationState::Frozen { since: t };
                }
                if matches!(self.migrations[id].state, MigrationState::Frozen { .. }) && lag == 0 {
                    // The cutover itself is a coordination round between
                    // the endpoints: the freeze window is never zero.
                    let coord = self
                        .net
                        .round_trip(master_site, to_site, &mut self.rng)
                        .unwrap_or(SimDuration::from_millis(1));
                    self.schedule_event(t + coord, UdrEvent::MigrationCutover { id: id as u64 });
                    continue;
                }
            } else if lag <= MIGRATION_SLAVE_CUTOVER_LAG {
                // Slave move: the ordinary replica channel closes the
                // remainder after the swap; no freeze needed.
                self.schedule_event(t, UdrEvent::MigrationCutover { id: id as u64 });
                continue;
            }
            if lag == 0 {
                continue;
            }
            let delay = self.net.send(master_site, to_site, &mut self.rng).delay();
            let deliveries = {
                let ses = &self.ses;
                let engine = ses[master.index()]
                    .engine(plan.partition)
                    .expect("master hosts partition");
                self.migrations[id]
                    .channel
                    .as_mut()
                    .expect("started migration has channel")
                    .catch_up(engine, t, delay)
            };
            self.metrics.migration_records_shipped += deliveries.len() as u64;
            for d in deliveries {
                self.schedule_event(
                    d.arrives,
                    UdrEvent::MigrationDeliver {
                        id: id as u64,
                        record: d.record,
                    },
                );
            }
        }
    }

    /// `MigrationDeliver`: apply one migrated record on the target copy.
    fn migration_deliver(&mut self, id: u64, record: CommitRecord) {
        let Some(m) = self.migrations.get(id as usize) else {
            return;
        };
        if !m.state.is_active() || m.channel.is_none() {
            return;
        }
        let plan = m.plan;
        let master = self.groups[plan.partition.index()].master();
        let master_site = self.ses[master.index()].site();
        let to_site = self.ses[plan.to.index()].site();
        if !self.ses[plan.to.index()].is_up() || !self.net.reachable(master_site, to_site) {
            return;
        }
        let lsn = record.lsn;
        if self.ses[plan.to.index()]
            .apply_replicated(plan.partition, &record)
            .is_ok()
        {
            if let Some(ch) = self.migrations[id as usize].channel.as_mut() {
                ch.on_applied(lsn);
            }
        }
    }

    /// `MigrationCutover`: atomically swap the copy into the replica set,
    /// release the retired copy and bump the shard-map epoch.
    fn migration_cutover(&mut self, t: SimTime, id: u64) {
        let (plan, state) = {
            let m = &self.migrations[id as usize];
            (m.plan, m.state)
        };
        if !state.is_active() {
            return;
        }
        let p = plan.partition.index();
        let master = self.groups[p].master();
        let was_master_move = plan.from == master;
        let master_site = self.ses[master.index()].site();
        let to_site = self.ses[plan.to.index()].site();
        let to_ok = self.ses[plan.to.index()].is_up() && self.net.reachable(master_site, to_site);
        let target_lsn = self.ses[plan.to.index()]
            .last_lsn(plan.partition)
            .unwrap_or(Lsn::ZERO);
        let master_lsn = self.ses[master.index()]
            .last_lsn(plan.partition)
            .unwrap_or(Lsn::ZERO);
        // A master hand-off must be exact: every committed record is on
        // the target before the old master retires (zero loss).
        if !to_ok || (was_master_move && target_lsn != master_lsn) {
            self.migration_abort(t, id);
            return;
        }
        self.groups[p]
            .replace_member(plan.from, plan.to)
            .expect("cutover swap validated");
        let new_role = if was_master_move {
            ReplicaRole::Master
        } else {
            ReplicaRole::Slave
        };
        let _ = self.ses[plan.to.index()].set_role(plan.partition, new_role);
        if was_master_move {
            // Rebuild the shipping ledger around the new master (same
            // lineage, so the slaves' applied LSNs carry over).
            self.rebuild_shipper(plan.partition, master_lsn);
        } else {
            self.shippers[p].unregister_slave(plan.from);
            self.shippers[p].register_slave(plan.to, target_lsn.min(master_lsn));
        }
        // Hand-off complete: the retired copy releases its RAM and disk.
        let _ = self.ses[plan.from.index()].release_partition(plan.partition);
        self.sync_shard_map(plan.partition);
        self.rebuild_placement();
        if plan.reason == crate::rebalance::MoveReason::HotspotSplit {
            // The relocation served this load; reset the counter so the
            // planner chases *current* heat, not history (otherwise the
            // same partition stays the maximum forever and periodic
            // re-planning thrashes its master back and forth).
            self.ops_per_partition[p] = 0;
        }
        if let MigrationState::Frozen { since } = state {
            self.metrics.migration_freeze_time += t.duration_since(since);
        }
        let task = &mut self.migrations[id as usize];
        task.state = MigrationState::Done;
        task.channel = None;
        self.metrics.migrations_completed += 1;
    }

    /// `MigrationAbort`: abandon the move without touching the epoch; the
    /// old owner keeps serving unchanged.
    pub(crate) fn migration_abort(&mut self, t: SimTime, id: u64) {
        let Some(m) = self.migrations.get(id as usize) else {
            return;
        };
        let (plan, state) = (m.plan, m.state);
        if !state.is_active() {
            return;
        }
        if let MigrationState::Frozen { since } = state {
            self.ses[plan.from.index()].unfreeze_partition(plan.partition);
            self.metrics.migration_freeze_time += t.duration_since(since);
        }
        // Drop the target's partial copy — it never joined the group.
        // (The plan may be arbitrarily malformed — e.g. an out-of-range
        // partition — and must still abort cleanly, not panic.)
        let joined = self
            .groups
            .get(plan.partition.index())
            .is_some_and(|g| g.contains(plan.to));
        if plan.to.index() < self.ses.len() && !joined {
            let _ = self.ses[plan.to.index()].release_partition(plan.partition);
        }
        let task = &mut self.migrations[id as usize];
        task.state = MigrationState::Aborted;
        task.channel = None;
        self.metrics.migrations_aborted += 1;
    }

    /// Re-publish `partition`'s current replica set into the shard map
    /// (epoch bump). The one call every membership/mastership change must
    /// make — `ReplicationGroup::members()` keeps insertion order, which
    /// stops being master-first after a promotion, so the master is
    /// re-ordered to the front here ([`ShardMap::reassign`]'s contract).
    pub(crate) fn sync_shard_map(&mut self, partition: PartitionId) {
        let g = &self.groups[partition.index()];
        let master = g.master();
        let mut members = Vec::with_capacity(g.members().len());
        members.push(master);
        members.extend(g.members().iter().copied().filter(|se| *se != master));
        self.shard_map.reassign(partition, members);
    }

    /// Recompute the placement context from current partition masters
    /// (masters move sites on cutover/failover).
    pub(crate) fn rebuild_placement(&mut self) {
        let mut by_region: Vec<Vec<PartitionId>> = vec![Vec::new(); self.cfg.sites as usize];
        for g in &self.groups {
            let site = self.ses[g.master().index()].site();
            by_region[site.index()].push(g.partition());
        }
        self.placement = PlacementContext::new(by_region);
    }
}
