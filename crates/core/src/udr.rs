//! The UDR network function: the assembled system of Figure 2.
//!
//! A [`Udr`] owns the simulated network, every blade cluster (PoA + LDAP
//! servers + data-location stage), every Storage Element, the shard map
//! and shipping channels, and an event queue carrying replication
//! deliveries, durability snapshots, fault injections and failovers.
//!
//! Drivers (examples, tests, experiments) interleave client calls with
//! virtual time: every client entry point first drains internal events up
//! to the call instant, so replication lag, partitions and crashes unfold
//! deterministically relative to traffic.
//!
//! This module is the container, the pump, fault injection and the
//! migration bookkeeping both migration engines share (the ledger, the
//! feasibility check, abort and the end of a cutover). How an event plays
//! out depends on the replication mode, and that is decided elsewhere:
//! [`crate::replication`] handles the copy families' deliveries, catch-up,
//! crashes, failover, restores, restoration and channel migrations, and
//! [`crate::consensus_mode`] handles the ensembles' timers and messages.

use std::collections::BTreeMap;

use udr_dls::{
    DataLocationStage, IdentityLocationMap, PlacementContext, ReplicationGroup, ShardMap,
};
use udr_ldap::{LdapServer, PointOfAccess};
use udr_model::config::{DurabilityMode, LocatorKind, Pacelc, TxnClass};
use udr_model::error::UdrResult;
use udr_model::ids::{
    ClusterId, IdMap, LdapServerId, PartitionId, PoaId, ReplicaRole, SeId, SiteId,
};
use udr_model::qos::PriorityClass;
use udr_model::tenant::{TenantDirectory, TenantGrant, TenantId};
use udr_model::time::{SimDuration, SimTime};
use udr_qos::{AdmissionController, ClassBuckets, TokenBucket};
use udr_replication::{AsyncShipper, BatchDelivery, MigrationState};
use udr_sim::faults::{Fault, FaultScript};
use udr_sim::net::{Cut, CutHandle, Degrade, DegradeHandle, Network, Topology};
use udr_sim::{LaneClass, PumpConfig, ShardedPump, SimRng};
use udr_storage::{Lsn, StorageElement};
use udr_trace::{TraceExport, Tracer};

use crate::config::UdrConfig;
use crate::consensus_mode::ConsensusGroup;
use crate::metrics_agg::UdrMetrics;
use crate::rebalance::{MigrationPlan, MoveReason};

/// How often stalled replication channels retry catch-up.
const CATCHUP_INTERVAL: SimDuration = SimDuration::from_millis(200);
/// Fixed setup cost of a migration snapshot transfer.
const MIGRATION_SEED_BASE: SimDuration = SimDuration::from_millis(50);
/// Snapshot transfer throughput (bytes per microsecond ≙ 100 MB/s).
const MIGRATION_SEED_BYTES_PER_US: u64 = 100;
/// Bindings a cached-locator stage holds (§3.5 alternative).
const DLS_CACHE_CAPACITY: usize = 65_536;

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
    /// A shipped batch of commit records arrives at a slave or learner as
    /// one message: a commit's batch (a batch of one under the default
    /// per-record shipping) or a catch-up pass's.
    ReplDeliverBatch {
        /// Partition replicated.
        partition: PartitionId,
        /// The batch as its channel flushed it; its trace (0 = untraced)
        /// puts the arrival on the track of the op that opened it.
        batch: BatchDelivery,
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
    /// A live partition migration begins: snapshot-seed the target and,
    /// under a shipping family, register it as a learner on its
    /// partition's ledger.
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

// Every scheduled event is moved through the pump's heap at this size;
// the largest variant sets it (a link degradation).
const _: () = assert!(std::mem::size_of::<UdrEvent>() == 80);

/// The class argument the pump's scheduling calls take and ignore.
pub(crate) const LANE: LaneClass = LaneClass::Local(0);

/// One tracked live migration (see [`MigrationPlan`] for the intent and
/// [`MigrationState`] for the lifecycle).
pub(crate) struct MigrationTask {
    pub(crate) plan: MigrationPlan,
    pub(crate) state: MigrationState,
    /// Whether [`UdrEvent::MigrationStart`] has seeded the target.
    pub(crate) started: bool,
}

impl MigrationTask {
    /// The plan and state of a move an engine drives: started, not yet
    /// done or aborted.
    pub(crate) fn running(&self) -> Option<(MigrationPlan, MigrationState)> {
        (self.started && self.state.is_active()).then_some((self.plan, self.state))
    }
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
    /// The one partition → replica-set table: each partition's members,
    /// its master and the epoch route caches version-check their views
    /// against. Failover and cutover change it only through
    /// [`ShardMap::promote`] and [`ShardMap::replace_member`], which bump
    /// the epoch in the same call.
    pub(crate) shard_map: ShardMap,
    pub(crate) shippers: Vec<AsyncShipper>,
    /// Live migrations, by id (completed/aborted entries stay for audit).
    pub(crate) migrations: Vec<MigrationTask>,
    /// Operations routed per partition (hotspot detection).
    pub(crate) ops_per_partition: Vec<u64>,
    pub(crate) placement: PlacementContext,
    /// The deployment's one identity table: every identity→location
    /// binding the PS provisioned. Provisioned stages resolve through it
    /// and hold no copy of it.
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
    /// runs [`ReplicationMode::Consensus`](udr_model::config::ReplicationMode::Consensus).
    pub(crate) consensus: Vec<ConsensusGroup>,
    /// Next consensus command id (0 is the protocol's reserved no-op).
    pub(crate) next_cmd_id: u64,
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

        // ---- storage elements (clusters are wired once `udr` exists) ------
        let mut ses = Vec::new();
        for site in 0..cfg.sites {
            for _ in 0..cfg.ses_per_cluster {
                let se_id = SeId(ses.len() as u32);
                ses.push(StorageElement::new(
                    se_id,
                    SiteId(site),
                    cfg.frash.durability,
                ));
            }
        }

        // ---- partitions: masters round-robin, secondaries geo-spread ----
        let rf = cfg.frash.replication_factor as usize;
        let mut replica_sets = Vec::with_capacity(cfg.partitions as usize);
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
            replica_sets.push(members);
        }
        let shard_map = ShardMap::new(replica_sets)?;

        // ---- initial events -----------------------------------------------
        let mut events = ShardedPump::new(PumpConfig::single());
        let tick = UdrEvent::CatchupTick;
        events.schedule_at(LANE, SimTime::ZERO + CATCHUP_INTERVAL, tick);
        if let DurabilityMode::PeriodicSnapshot { interval } = cfg.frash.durability {
            for se in &ses {
                let snap = UdrEvent::SnapshotTick { se: se.id() };
                events.schedule_at(LANE, SimTime::ZERO + interval, snap);
            }
        }

        let sites = cfg.sites as usize;
        let tenant_buckets = Self::build_tenant_buckets(&cfg.tenants);
        let tenant_buckets_epoch = cfg.tenants.epoch();
        let tracer = Tracer::new(cfg.trace);
        let mut udr = Udr {
            subs_per_partition: vec![0; cfg.partitions as usize],
            ops_per_partition: vec![0; cfg.partitions as usize],
            quorum_acked: vec![Lsn::ZERO; cfg.partitions as usize],
            quorum_responders: Vec::new(),
            cfg,
            net,
            rng: rng.fork(1),
            events,
            ses,
            clusters: Vec::new(),
            qos: Vec::new(),
            tenant_buckets,
            tenant_buckets_epoch,
            servers: Vec::new(),
            shard_map,
            shippers: Vec::new(),
            migrations: Vec::new(),
            placement: PlacementContext::default(),
            authority: IdentityLocationMap::new(),
            clusters_at_site: vec![Vec::new(); sites],
            next_cluster_rr: vec![0; sites],
            diverged: BTreeMap::new(),
            active_cuts: Vec::new(),
            master_lsn_at_crash: IdMap::default(),
            consensus: Vec::new(),
            next_cmd_id: 1,
            next_uid: 1,
            metrics: UdrMetrics::default(),
            tracer,
        };
        udr.rebuild_placement();
        let total_ses = udr.ses.len();
        for site in 0..udr.cfg.sites {
            let stage = match udr.cfg.frash.locator {
                LocatorKind::ProvisionedMaps => DataLocationStage::provisioned(),
                LocatorKind::CachedMaps => DataLocationStage::cached(DLS_CACHE_CAPACITY, total_ses),
                LocatorKind::ConsistentHashing => DataLocationStage::hashed(
                    udr_dls::ConsistentHashRing::new((0..udr.cfg.partitions).map(PartitionId), 64),
                ),
            };
            udr.push_cluster(SiteId(site), stage);
        }
        udr.build_replication();
        Ok(udr)
    }

    /// Panics unless `site` is one of the deployment's sites: sites are
    /// fixed at build time, and an out-of-range site would otherwise only
    /// surface as an index panic after the deployment was half changed.
    fn assert_in_topology(&self, site: SiteId) {
        assert!(
            site.index() < self.cfg.sites as usize,
            "{site} is outside the {}-site topology",
            self.cfg.sites
        );
    }

    /// Wire a blade cluster at `site` around `stage`: a new PoA, the
    /// configured number of LDAP servers registered with it, and the
    /// cluster's QoS controller. Returns the new cluster's index.
    ///
    /// # Panics
    ///
    /// Panics when `site` is outside the deployment's topology, before
    /// anything is added.
    fn push_cluster(&mut self, site: SiteId, stage: DataLocationStage) -> usize {
        self.assert_in_topology(site);
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
        &self.shard_map.groups()[partition.index()]
    }

    /// The storage element with the given id.
    pub fn se(&self, se: SeId) -> &StorageElement {
        &self.ses[se.index()]
    }

    /// Number of storage elements.
    pub fn se_count(&self) -> usize {
        self.ses.len()
    }

    /// The epoch-versioned shard map: every partition's replica set and
    /// master.
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

    /// Inject a [`FaultScript`] campaign (partitions, glitches, grey
    /// failures, SE outages). The compiled timeline is a pure function of
    /// the script, so replaying the same script against the same
    /// deployment seed reproduces the identical fault sequence.
    pub fn schedule_script(&mut self, script: &FaultScript) {
        let sites = self.cfg.sites as usize;
        for (at, fault) in script.timeline() {
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

    /// Schedule an internal event on the pump.
    pub(crate) fn schedule_event(&mut self, at: SimTime, event: UdrEvent) {
        self.events.schedule_at(LANE, at, event);
    }

    /// Drain internal events up to `now`. Every client entry point calls
    /// this first; experiments may also call it to let the system settle.
    pub fn advance_to(&mut self, now: SimTime) {
        while self.step_until(now).is_some() {}
    }

    /// Handle the next event due at or before `deadline` and return its
    /// instant, or `None` when no event is due by then.
    pub(crate) fn step_until(&mut self, deadline: SimTime) -> Option<SimTime> {
        let (t, event) = self.events.pop_until(deadline)?;
        self.handle_event(t, event);
        Some(t)
    }

    /// Run the deployment's event pump to `until` and return how many
    /// events it processed.
    ///
    /// This is [`Udr::advance_to`]: events pop from the one queue in
    /// `(time, seq)` order, one at a time, because handlers mutate shared
    /// deployment state (the network, the shard map, cross-partition
    /// metrics).
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
            UdrEvent::ReplDeliverBatch { partition, batch } => self.deliver_batch(partition, batch),
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
    /// timeline (faults, a migration's start, the arrival of a batch a
    /// traced op opened). Bare periodic ticks and batches no traced op
    /// opened (every batch of one and every catch-up batch) are deliberately
    /// skipped: they would drown the ring without adding causality. A
    /// migration's cutover and abort are recorded where they happen
    /// (`complete_cutover`, `migration_abort`), not as events.
    fn trace_event(&mut self, t: SimTime, event: &UdrEvent) {
        match event {
            UdrEvent::ReplDeliverBatch { partition, batch } if batch.trace != 0 => {
                let (slave, n) = (batch.slave.0, batch.records.len());
                let arg = format!("p{} se{slave} n={n}", partition.0);
                self.tracer
                    .instant(batch.trace, 0, "repl.deliver_batch", t, Some(arg))
            }
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
            UdrEvent::ReplDeliverBatch { .. }
            | UdrEvent::MigrationCutover { .. }
            | UdrEvent::ShipFlush { .. }
            | UdrEvent::SnapshotTick { .. }
            | UdrEvent::CatchupTick
            | UdrEvent::ConsensusTick { .. }
            | UdrEvent::ConsensusDeliver { .. } => {}
        }
    }

    // ---- structural availability probes -------------------------------------

    /// Whether `partition` currently has a readable copy reachable from
    /// `from_site` (any up replica on a reachable site).
    fn partition_readable_from(&self, partition: PartitionId, from_site: SiteId) -> bool {
        self.group(partition).members().iter().any(|se| {
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
            .shard_map
            .partitions()
            .filter(|p| self.partition_readable_from(*p, from_site))
            .map(|p| self.subs_per_partition[p.index()])
            .sum();
        ok as f64 / total as f64
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
    /// cluster's data-location stage must first sync the deployment's
    /// identity table from a peer; until the sync window, sized by that
    /// table's entry count, elapses the new PoA answers
    /// [`UdrError::LocationStageSyncing`](udr_model::error::UdrError) —
    /// the §3.4.2 availability impact. With cached or hashed locators there
    /// is no sync window.
    ///
    /// Returns the new cluster's index.
    ///
    /// # Panics
    ///
    /// Panics when `site` is outside the deployment's topology, before
    /// the cluster is wired.
    pub fn add_cluster(&mut self, site: SiteId, now: SimTime) -> usize {
        self.advance_to(now);
        let mut stage = match self.cfg.frash.locator {
            // The new PoA syncs the deployment's table, whose size sets the
            // sync window that blocks it; it then resolves through that
            // table, so nothing is copied.
            LocatorKind::ProvisionedMaps => {
                DataLocationStage::provisioned_syncing(now, self.authority.len())
            }
            LocatorKind::CachedMaps => {
                DataLocationStage::cached(DLS_CACHE_CAPACITY, self.ses.len())
            }
            LocatorKind::ConsistentHashing => DataLocationStage::hashed(
                udr_dls::ConsistentHashRing::new((0..self.cfg.partitions).map(PartitionId), 64),
            ),
        };
        // The sync brings a current view: the stage joins at today's epoch.
        stage.install_map_epoch(self.shard_map.epoch());
        self.push_cluster(site, stage)
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
    /// topology (an out-of-range site would otherwise only surface as an
    /// index panic deep inside the event pump).
    pub fn add_se(&mut self, site: SiteId, now: SimTime) -> SeId {
        self.assert_in_topology(site);
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
            started: false,
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
    /// copy and, under a shipping family, register the target as a learner
    /// on the partition's ledger at the snapshot LSN.
    fn migration_start(&mut self, t: SimTime, id: u64) {
        let plan = self.migrations[id as usize].plan;
        let p = plan.partition.index();
        if !self.migration_feasible(&plan)
            || !self.ses[self.shard_map.groups()[p].master().index()].is_up()
        {
            self.migration_abort(t, id);
            return;
        }
        let master = self.shard_map.groups()[p].master();
        let bytes = self.ses[master.index()]
            .engine(plan.partition)
            .expect("master hosts partition")
            .store()
            .snapshot_bytes() as u64;
        let lsn = self
            .seed_copy(plan.partition, master, plan.to, ReplicaRole::Slave)
            .expect("master hosts partition");
        let transfer =
            MIGRATION_SEED_BASE + SimDuration::from_micros(bytes / MIGRATION_SEED_BYTES_PER_US);
        // Under consensus there is no ledger: the reconfig moves the copy.
        if let Some(shipper) = self.shippers.get_mut(p) {
            shipper.register_learner(plan.to, lsn);
        }
        let task = &mut self.migrations[id as usize];
        task.started = true;
        task.state = MigrationState::Seeding {
            ready_at: t + transfer,
        };
    }

    /// Whether `plan` can run: the partition exists, the source is a
    /// member and the target is not, and both endpoints are up. Checked
    /// when any move starts, and by the consensus engine again on each
    /// tick and when its reconfig applies. (A malformed plan, such as an
    /// out-of-range partition or a target equal to its source, fails here
    /// too.)
    pub(crate) fn migration_feasible(&self, plan: &MigrationPlan) -> bool {
        let Some(group) = self.shard_map.group(plan.partition) else {
            return false;
        };
        group.contains(plan.from)
            && !group.contains(plan.to)
            && plan.to.index() < self.ses.len()
            && self.ses[plan.from.index()].is_up()
            && self.ses[plan.to.index()].is_up()
    }

    /// The end every cutover shares, after the engine has swapped the copy
    /// into the shard map (which bumped the epoch): the retired copy
    /// releases its RAM and disk, placement follows the masters, a
    /// hotspot's load counter resets, and the migration is done.
    pub(crate) fn complete_cutover(&mut self, t: SimTime, id: u64) {
        if self.tracer.enabled() {
            self.tracer
                .instant(0, 0, "migr.cutover", t, Some(format!("id={id}")));
        }
        let plan = self.migrations[id as usize].plan;
        let _ = self.ses[plan.from.index()].release_partition(plan.partition);
        self.rebuild_placement();
        if plan.reason == MoveReason::HotspotSplit {
            // The relocation served this load; reset the counter so the
            // planner chases *current* heat, not history (otherwise the
            // same partition stays the maximum forever and periodic
            // re-planning thrashes its master back and forth).
            self.ops_per_partition[plan.partition.index()] = 0;
        }
        self.migrations[id as usize].state = MigrationState::Done;
        self.metrics.migrations_completed += 1;
    }

    /// Abandon a move (fault on an endpoint or the path) without touching
    /// the epoch: the target's partial copy and its learner channel are
    /// dropped, so it no longer holds the log back, and the old owner keeps
    /// serving unchanged.
    pub(crate) fn migration_abort(&mut self, t: SimTime, id: u64) {
        let Some(m) = self.migrations.get(id as usize) else {
            return;
        };
        let (plan, state) = (m.plan, m.state);
        if !state.is_active() {
            return;
        }
        if self.tracer.enabled() {
            self.tracer
                .instant(0, 0, "migr.abort", t, Some(format!("id={id}")));
        }
        if let MigrationState::Frozen { since } = state {
            self.ses[plan.from.index()].unfreeze_partition(plan.partition);
            self.metrics.migration_freeze_time += t.duration_since(since);
        }
        // Drop the target's partial copy — it never joined the group.
        // (The plan may be arbitrarily malformed — e.g. an out-of-range
        // partition — and must still abort cleanly, not panic.)
        let joined = self
            .shard_map
            .group(plan.partition)
            .is_some_and(|g| g.contains(plan.to));
        if plan.to.index() < self.ses.len() && !joined {
            let _ = self.ses[plan.to.index()].release_partition(plan.partition);
            if let Some(shipper) = self.shippers.get_mut(plan.partition.index()) {
                shipper.unregister_slave(plan.to);
            }
        }
        self.migrations[id as usize].state = MigrationState::Aborted;
        self.metrics.migrations_aborted += 1;
    }

    /// Recompute the placement context from current partition masters.
    /// Runs at build and at the end of every migration cutover; a
    /// failover leaves placement on the retired master's site until the
    /// partition's next cutover.
    fn rebuild_placement(&mut self) {
        let mut by_region: Vec<Vec<PartitionId>> = vec![Vec::new(); self.cfg.sites as usize];
        for (p, g) in self.shard_map.iter() {
            let site = self.ses[g.master().index()].site();
            by_region[site.index()].push(p);
        }
        self.placement = PlacementContext::new(by_region);
    }
}
