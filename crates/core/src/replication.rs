//! The copy families: how a partition's copies stay in sync — §3.3.1
//! asynchronous master→slave shipping, §5 dual-in-sequence, quorum and
//! multi-master, §6 consensus.
//!
//! Every decision that depends on the deployment's [`ReplicationMode`] is
//! made in this module, by a `match` on the mode:
//! * per operation, [`ReplicationStage`], the pipeline's third stage,
//!   picks the serving copy under the read policy, consults read quorums,
//!   elects a multi-master acting master and, once the storage stage has
//!   committed, ships the record and waits for what the mode requires.
//!   Under consensus it hands the operation to the partition's ensemble
//!   (`Udr::consensus_route`);
//! * in the background, the event pump calls the shipping families' work
//!   here: batch delivery and linger flushes, the periodic catch-up, crash
//!   capture and failover, master and slave restore, multi-master
//!   restoration and the channel migration engine;
//! * for drivers, [`Udr::max_replica_lag`] and [`Udr::replication_settled`]
//!   read the shipping ledgers or the ensembles alike.
//!
//! The ensembles themselves (protocol timers, messages, apply, the
//! reconfig cutover) live in [`crate::consensus_mode`]. What every family
//! shares (groups, shard map, migration ledger) lives in [`Udr`].
//!
//! There is no protocol trait or enum beside [`ReplicationMode`]: the
//! families share most of their state, and each arm reads the fields of
//! [`Udr`] it needs between calls that take all of it.

use udr_ldap::LdapOp;
use udr_model::attrs::Entry;
use udr_model::config::{ReadPolicy, ReplicationMode, TxnClass};
use udr_model::error::{UdrError, UdrResult};
use udr_model::ids::{IdMap, PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr_model::session::RawLsn;
use udr_model::time::{SimDuration, SimTime};
use udr_replication::multimaster::{merge_branches, restoration_duration};
use udr_replication::quorum::quorum_write;
use udr_replication::{AsyncShipper, Enqueue, MigrationState};
use udr_storage::{CommitRecord, Lsn};

use crate::consensus_mode::{cursor_for_writes, ConsensusGroup, CONSENSUS_TICK_INTERVAL};
use crate::ops::OpOutcome;
use crate::pipeline::{sample_rtt, PipelineCtx, ReadRoute};
use crate::udr::{Udr, UdrEvent};

/// Per-record cost of the consistency-restoration scan (§5 merge).
const MERGE_COST_PER_RECORD: SimDuration = SimDuration::from_micros(5);
/// Catch-up lag (records) at which a master move freezes writes for the
/// final hand-off window.
const MIGRATION_FREEZE_LAG: u64 = 64;
/// Lag at which a slave-copy move may cut over: the remainder flows over
/// the group's ordinary replica channel after the swap, no freeze needed.
const MIGRATION_SLAVE_CUTOVER_LAG: u64 = 32;

/// Stage 3 of the [`pipeline`](crate::pipeline) — replica routing and
/// replication effects: picks the SE that serves the operation under the
/// configured copy family and read policy (§3.3), consults read quorums
/// (§5), and — after the storage stage commits — propagates the record and
/// waits for whatever the mode requires. Under consensus (§6) routing is
/// the ensembles' own (`Udr::consensus_route` in
/// [`crate::consensus_mode`]): a write commits there and a read comes back
/// routed to the serving leader.
pub struct ReplicationStage;

impl ReplicationStage {
    /// Routing half of the stage: pick the serving SE (or consult a read
    /// quorum) under the configured replication mode and read policy.
    pub fn route(udr: &mut Udr, ctx: &mut PipelineCtx) -> Result<(), OpOutcome> {
        let location = ctx.loc();
        // Per-partition load accounting (hotspot detection for the
        // rebalancer).
        if let Some(slot) = udr.ops_per_partition.get_mut(location.partition.index()) {
            *slot += 1;
        }

        match udr.cfg.frash.replication {
            ReplicationMode::Consensus { .. } => {
                return udr.consensus_route(ctx, location.partition);
            }
            // Quorum mode handles reads through the ensemble, not one copy.
            ReplicationMode::Quorum { r, .. } if !ctx.op.is_write() => {
                return Self::quorum_consult(udr, ctx, location.partition, r);
            }
            _ => {}
        }

        let target = if ctx.op.is_write() {
            Self::write_target(udr, location.partition, ctx.server_site, ctx.now)
        } else {
            let policy = Self::read_policy(udr, ctx.class);
            Self::read_target(udr, ctx, location.partition, policy)
        };
        match target {
            Some(se) => {
                ctx.target = Some(se);
                Ok(())
            }
            None => {
                let master = udr.groups[location.partition.index()].master();
                ctx.breakdown.replication += udr.cfg.frash.op_timeout;
                Err(ctx.fail(UdrError::Unreachable {
                    se: master,
                    reason: "partition",
                }))
            }
        }
    }

    /// The read policy of a transaction class: front-end reads follow the
    /// configured policy; provisioning reads master copies only (§3.3.3).
    fn read_policy(udr: &Udr, class: TxnClass) -> ReadPolicy {
        match class {
            TxnClass::FrontEnd => udr.cfg.frash.fe_read_policy,
            TxnClass::Provisioning => ReadPolicy::MasterOnly,
        }
    }

    /// Pick the SE serving a read under a policy.
    fn read_target(
        udr: &mut Udr,
        ctx: &mut PipelineCtx,
        partition: PartitionId,
        policy: ReadPolicy,
    ) -> Option<SeId> {
        let from_site = ctx.server_site;
        match policy {
            ReadPolicy::MasterOnly => {
                let master = udr.groups[partition.index()].master();
                Self::copy_usable(udr, from_site, master).then_some(master)
            }
            // Nearest-copy is the guarded selection with a zero floor:
            // every copy qualifies, so the preference chain (same-site →
            // master → any reachable copy) decides alone and no redirect
            // ever fires.
            ReadPolicy::NearestCopy => Self::guarded_target(udr, ctx, partition, 0),
            // The middle of the consistency spectrum: both intermediate
            // policies reduce to "nearest copy whose applied LSN has
            // reached a freshness floor". Under sustained overload the
            // QoS controller may downgrade them to nearest-copy — lag
            // lookups and master redirects are latency the deployment can
            // no longer afford; the trade is recorded as an explicit
            // policy downgrade, never taken silently.
            _ if Self::degrade_guarded_read(udr, ctx) => {
                Self::guarded_target(udr, ctx, partition, 0)
            }
            ReadPolicy::BoundedStaleness { max_lag } => {
                let reference = Self::reference_lsn(udr, partition, from_site);
                ctx.bounded_reference = Some(reference);
                Self::guarded_target(udr, ctx, partition, reference.saturating_sub(max_lag))
            }
            ReadPolicy::SessionConsistent => {
                let required = ctx
                    .session
                    .as_ref()
                    .map(|token| token.required_lsn(partition))
                    .unwrap_or(0);
                Self::guarded_target(udr, ctx, partition, required)
            }
        }
    }

    /// Whether the serving cluster's sustained-overload state downgrades
    /// this guarded read to nearest-copy. Records the downgrade (the
    /// explicit consistency-for-latency trade) when it does.
    fn degrade_guarded_read(udr: &mut Udr, ctx: &mut PipelineCtx) -> bool {
        if !udr.qos[ctx.cluster_idx].degraded(ctx.now) {
            return false;
        }
        udr.metrics.guarantees.record_policy_downgrade();
        ctx.policy_downgraded = true;
        if ctx.span.is_active() && udr.tracer.enabled() {
            let state = udr.qos[ctx.cluster_idx].pressure_label(ctx.now);
            udr.tracer.instant(
                ctx.span.trace,
                ctx.span.span,
                "qos.degrade",
                ctx.now + ctx.breakdown.total(),
                Some(format!("guarded read → nearest-copy ({state})")),
            );
        }
        true
    }

    /// Whether `se` can serve a request issued from `from_site` at all.
    fn copy_usable(udr: &Udr, from_site: SiteId, se: SeId) -> bool {
        udr.ses[se.index()].is_up() && udr.net.reachable(from_site, udr.ses[se.index()].site())
    }

    /// The applied LSN of `se`'s copy of `partition` as the router may
    /// assume it: the engine's own position for the master, the shipping
    /// ledger's *confirmed* position for slaves — never ahead of the
    /// slave's true state, so a routing decision based on it is safe.
    fn routed_applied_lsn(udr: &Udr, partition: PartitionId, se: SeId) -> RawLsn {
        let p = partition.index();
        let engine_lsn = || {
            udr.ses[se.index()]
                .last_lsn(partition)
                .map(|l| l.raw())
                .unwrap_or(0)
        };
        if udr.groups[p].master() == se {
            return engine_lsn();
        }
        match udr.shippers[p].applied(se) {
            Some(lsn) => lsn.raw(),
            // No shipping channel (e.g. mid-rebuild): the engine is the
            // only source of truth left.
            None => engine_lsn(),
        }
    }

    /// The log position staleness is measured against: the master's
    /// position while it is up, else the freshest position any reachable
    /// copy advertises (best-known state during a master outage).
    fn reference_lsn(udr: &Udr, partition: PartitionId, from_site: SiteId) -> RawLsn {
        let group = &udr.groups[partition.index()];
        let master = group.master();
        if udr.ses[master.index()].is_up() {
            return Self::routed_applied_lsn(udr, partition, master);
        }
        group
            .members()
            .iter()
            .copied()
            .filter(|se| Self::copy_usable(udr, from_site, *se))
            .map(|se| Self::routed_applied_lsn(udr, partition, se))
            .max()
            .unwrap_or(0)
    }

    /// The copy-selection preference chain over the usable copies whose
    /// routed applied LSN has reached `required` (every copy when it is
    /// 0, with no lag lookup): the lowest-id one at `from_site`, then the
    /// master, then the lowest-id one anywhere.
    fn preferred_copy(
        udr: &Udr,
        partition: PartitionId,
        from_site: SiteId,
        required: RawLsn,
    ) -> Option<SeId> {
        let group = &udr.groups[partition.index()];
        let master = group.master();
        let usable = |se: SeId| {
            Self::copy_usable(udr, from_site, se)
                && (required == 0 || Self::routed_applied_lsn(udr, partition, se) >= required)
        };
        group
            .members()
            .iter()
            .copied()
            .filter(|se| udr.ses[se.index()].site() == from_site && usable(*se))
            .min()
            .or_else(|| usable(master).then_some(master))
            .or_else(|| {
                group
                    .members()
                    .iter()
                    .copied()
                    .filter(|se| usable(*se))
                    .min()
            })
    }

    /// Lag-aware replica selection shared by every slave-read policy:
    /// the nearest usable copy whose applied LSN has reached `required`,
    /// preferring same-site, then the master, then any reachable copy.
    /// `required = 0` is plain nearest-copy routing (every copy
    /// qualifies, no lag lookups). When the copy nearest-copy routing
    /// would have used fails the floor, the read bounces off it and is
    /// redirected: the wasted hop is charged to
    /// [`LatencyBreakdown::replication`](crate::LatencyBreakdown::replication) and counted in
    /// [`udr_metrics::GuaranteeTracker::master_redirects`]. Returns
    /// `None` when no reachable copy qualifies (the consistency side of
    /// the trade: the read fails rather than violate its floor).
    fn guarded_target(
        udr: &mut Udr,
        ctx: &mut PipelineCtx,
        partition: PartitionId,
        required: RawLsn,
    ) -> Option<SeId> {
        let from_site = ctx.server_site;
        // The copy plain nearest-copy routing would have used (no
        // freshness filter), so redirects are charged whenever the floor
        // changes the routing decision.
        let nearest = Self::preferred_copy(udr, partition, from_site, 0);
        let pick = Self::preferred_copy(udr, partition, from_site, required)?;
        if let Some(near) = nearest {
            if near != pick {
                // The nearest copy answered "too stale, redirect": one
                // wasted round trip before the fresher copy serves.
                let near_site = udr.ses[near.index()].site();
                if let Some(rtt) = sample_rtt(udr, from_site, near_site) {
                    ctx.breakdown.replication += rtt;
                }
                udr.metrics.guarantees.record_master_redirect();
                if ctx.span.is_active() && udr.tracer.enabled() {
                    udr.tracer.instant(
                        ctx.span.trace,
                        ctx.span.span,
                        "repl.redirect",
                        ctx.now + ctx.breakdown.total(),
                        Some(format!(
                            "se{} too stale, redirected to se{}",
                            near.0, pick.0
                        )),
                    );
                }
            }
        }
        Some(pick)
    }

    /// Pick the SE taking a write; under multi-master an acting master is
    /// elected on the client's side of a partition (§5).
    fn write_target(
        udr: &mut Udr,
        partition: PartitionId,
        from_site: SiteId,
        now: SimTime,
    ) -> Option<SeId> {
        let master = udr.groups[partition.index()].master();
        if Self::copy_usable(udr, from_site, master) {
            return Some(master);
        }
        if udr.cfg.frash.replication != ReplicationMode::MultiMaster {
            return None;
        }
        // Acting master: the master is out of reach, so the preference
        // chain picks the lowest-id usable copy, same-site first — a
        // deterministic choice, so every client on this side of the cut
        // elects the same copy.
        let candidate = Self::preferred_copy(udr, partition, from_site, 0)?;
        if udr.ses[candidate.index()].role(partition) != Some(ReplicaRole::Master) {
            let _ = udr.ses[candidate.index()].set_role(partition, ReplicaRole::Master);
        }
        let diverged_at = udr.earliest_active_cut().unwrap_or(now);
        udr.diverged.entry(partition).or_insert(diverged_at);
        Some(candidate)
    }

    /// Quorum read consult (§5 Cassandra comparison): wait for the `r`
    /// nearest reachable replicas, then serve from the freshest of them.
    fn quorum_consult(
        udr: &mut Udr,
        ctx: &mut PipelineCtx,
        partition: PartitionId,
        r: u8,
    ) -> Result<(), OpOutcome> {
        let p = partition.index();
        let mut responders = std::mem::take(&mut udr.quorum_responders);
        responders.clear();
        for i in 0..udr.groups[p].members().len() {
            let se = udr.groups[p].members()[i];
            if !udr.ses[se.index()].is_up() {
                continue;
            }
            let site = udr.ses[se.index()].site();
            if let Some(rtt) = sample_rtt(udr, ctx.server_site, site) {
                responders.push((se, rtt));
            }
        }
        responders.sort_by_key(|(_, rtt)| *rtt);
        let available = responders.len();
        // The r-th fastest answer ends the wait; the freshest copy among
        // the consulted serves.
        let consulted = responders.get(..r as usize).map(|consulted| {
            let (serving, _) = consulted
                .iter()
                .max_by_key(|(se, _)| udr.ses[se.index()].last_lsn(partition).unwrap_or(Lsn::ZERO))
                .copied()
                .expect("r >= 1 consulted");
            let wait = consulted.last().map_or(SimDuration::ZERO, |(_, rtt)| *rtt);
            (serving, wait)
        });
        udr.quorum_responders = responders;
        let Some((serving, wait)) = consulted else {
            ctx.breakdown.replication += udr.cfg.frash.op_timeout;
            return Err(ctx.fail(UdrError::ReplicationFailed {
                acked: available,
                required: r as usize,
            }));
        };
        ctx.breakdown.replication += wait;
        ctx.target = Some(serving);
        ctx.read_route = ReadRoute::Quorum;
        if ctx.span.is_active() && udr.tracer.enabled() {
            udr.tracer.instant(
                ctx.span.trace,
                ctx.span.span,
                "repl.quorum_consult",
                ctx.now + ctx.breakdown.total(),
                Some(format!("r={r} serving=se{}", serving.0)),
            );
        }
        Ok(())
    }

    /// Post-commit half of the stage: propagate the committed record per
    /// the replication mode, account read staleness, and assemble the
    /// final outcome.
    pub fn finish(udr: &mut Udr, ctx: &mut PipelineCtx, mut value: Option<Entry>) -> OpOutcome {
        let se_id = ctx.target.expect("storage stage ran");
        let location = ctx.loc();

        if let Some(record) = ctx.record.take() {
            let commit_done = ctx.now + ctx.breakdown.total();
            let write_lsn = record.lsn.raw();
            match Self::replicate_after_commit(udr, location.partition, se_id, &record, commit_done)
            {
                Ok(extra) => {
                    ctx.breakdown.replication += extra;
                    // Raise the session's read-your-writes floor to the
                    // committed position.
                    if let Some(token) = ctx.session.as_deref_mut() {
                        token.observe_write(location.partition, write_lsn);
                    }
                }
                Err(e) => {
                    udr.metrics.partial_commits += 1;
                    return ctx.fail(e);
                }
            }
        }

        if !ctx.op.is_write() {
            if ctx.read_route == ReadRoute::Leader {
                // Leader committed-prefix read: fresh by construction.
                udr.metrics.staleness.record_master_read();
            } else {
                Self::record_read_staleness(
                    udr,
                    location.partition,
                    location.uid,
                    se_id,
                    ctx.read_route == ReadRoute::Quorum,
                );
            }
            Self::account_guarantees(udr, ctx, location.partition, se_id);
            // Attribute projection. (Filter matching and Bind/Compare
            // shaping already happened in the storage stage.)
            if let LdapOp::Search { attrs, .. } | LdapOp::SearchFilter { attrs, .. } = ctx.op {
                if !attrs.is_empty() {
                    value = value.map(|entry| entry.project(attrs));
                }
            }
        }

        OpOutcome {
            result: Ok(value),
            latency: ctx.breakdown.total(),
            served_by: Some(se_id),
            crossed_backbone: ctx.crossed_backbone,
            breakdown: ctx.breakdown,
        }
    }

    /// Propagate a committed record per the replication mode; returns the
    /// extra commit latency the client observes.
    fn replicate_after_commit(
        udr: &mut Udr,
        partition: PartitionId,
        master: SeId,
        record: &CommitRecord,
        now: SimTime,
    ) -> UdrResult<SimDuration> {
        let p = partition.index();
        let master_site = udr.ses[master.index()].site();

        // Asynchronous shipping happens in every mode (it is the stream
        // the slaves replay); the mode decides what the commit *waits* for,
        // and only what that wait reads is kept from the walk over the
        // slaves: the first live ack round trip (dual-in-sequence) or every
        // member's response, the master's first (quorum).
        let batching = !udr.cfg.ship_batch.is_per_record();
        let mut first_live_rtt = None;
        let quorum = matches!(udr.cfg.frash.replication, ReplicationMode::Quorum { .. });
        // Master counts as the first ack at its local commit cost.
        let mut responses = if quorum {
            vec![(master, Some(SimDuration::ZERO))]
        } else {
            Vec::new()
        };
        for i in 0..udr.groups[p].members().len() {
            let slave = udr.groups[p].members()[i];
            if slave == master {
                continue;
            }
            let slave_site = udr.ses[slave.index()].site();
            let up = udr.ses[slave.index()].is_up();
            let delay = if up {
                udr.net.send(master_site, slave_site, &mut udr.rng).delay()
            } else {
                None
            };
            if batching {
                // Coalesce: the record joins the channel's open batch; the
                // batch ships as one message at its cap or linger deadline.
                let cfg = udr.cfg.ship_batch;
                match udr.shippers[p].enqueue(slave, record, &cfg) {
                    Enqueue::Opened { seq } => {
                        // The opener's trace rides the batch: stamp it so
                        // the eventual flush and delivery attribute to the
                        // op that started the linger window.
                        let trace = udr.tracer.active_trace();
                        if trace != 0 {
                            udr.shippers[p].stamp_open_trace(slave, trace);
                        }
                        udr.schedule_event(
                            now + cfg.linger,
                            UdrEvent::ShipFlush {
                                partition,
                                slave,
                                seq,
                            },
                        );
                    }
                    Enqueue::Full => {
                        if let Some(b) = udr.shippers[p].flush_open(slave, now, delay) {
                            if udr.tracer.enabled() && b.trace != 0 {
                                udr.tracer.instant(
                                    b.trace,
                                    0,
                                    "ship.flush",
                                    now,
                                    Some(format!(
                                        "p{} se{} n={} cap",
                                        partition.0,
                                        b.slave.0,
                                        b.records.len()
                                    )),
                                );
                            }
                            udr.schedule_event(
                                b.arrives,
                                UdrEvent::ReplDeliverBatch {
                                    partition,
                                    slave: b.slave,
                                    records: b.records,
                                    trace: b.trace,
                                },
                            );
                        }
                    }
                    Enqueue::Joined | Enqueue::Refused => {}
                }
            } else if let Some(d) = udr.shippers[p].ship(slave, record, now, delay) {
                udr.schedule_event(
                    d.arrives,
                    UdrEvent::ReplDeliver {
                        partition,
                        slave: d.slave,
                        record: d.record,
                    },
                );
            }
            // The ack round trip is twice the one-way delay.
            let rtt = delay.map(|d| d * 2);
            first_live_rtt = first_live_rtt.or(rtt);
            if quorum {
                responses.push((slave, rtt));
            }
        }

        match udr.cfg.frash.replication {
            ReplicationMode::Consensus { .. } => {
                unreachable!(
                    "consensus writes commit through the replica group, not the storage pipeline"
                )
            }
            ReplicationMode::AsyncMasterSlave | ReplicationMode::MultiMaster => {
                Ok(SimDuration::ZERO)
            }
            ReplicationMode::DualInSequence => {
                // §5: apply in sequence to two replicas, commit when both
                // succeed. The wait is the designated second copy's ack.
                first_live_rtt.ok_or(UdrError::ReplicationFailed {
                    acked: 1,
                    required: 2,
                })
            }
            ReplicationMode::Quorum { w, .. } => {
                let out = quorum_write(&responses, w as usize);
                // §5 ack carry-over: a replica whose ack the commit wait
                // counted has applied the record by the time the client
                // sees the commit — the ack IS the apply confirmation.
                // Carrying the responders forward synchronously (failed
                // rounds included: a replica that received the write keeps
                // it even when the coordinator never reaches `w`) is what
                // lets a r+w>n read quorum guarantee freshness at consult
                // time rather than eventually.
                Self::carry_over_quorum_acks(udr, partition, master, &out.applied);
                if out.committed {
                    // Advance the acknowledged tail: freshness promises
                    // (and the staleness audit) reach exactly this far.
                    let acked = &mut udr.quorum_acked[p];
                    *acked = (*acked).max(record.lsn);
                    Ok(out.latency)
                } else {
                    Err(UdrError::ReplicationFailed {
                        acked: out.applied.len(),
                        required: w as usize,
                    })
                }
            }
        }
    }

    /// Apply the master-log suffix each quorum responder is missing, at
    /// ack time. W-sets vary per write, so an acked slave may be missing
    /// earlier records too — prefix completeness requires replaying the
    /// whole gap, not just the current record. The asynchronous
    /// deliveries already in flight for the same LSNs arrive later as
    /// duplicates and are dropped by the engine's gap check.
    fn carry_over_quorum_acks(udr: &mut Udr, partition: PartitionId, master: SeId, acked: &[SeId]) {
        let p = partition.index();
        for &slave in acked {
            if slave == master {
                continue;
            }
            let Ok(applied) = udr.ses[slave.index()].last_lsn(partition) else {
                continue;
            };
            let suffix: Vec<CommitRecord> = match udr.ses[master.index()].engine(partition) {
                Ok(engine) => engine.log().since(applied).cloned().collect(),
                Err(_) => continue,
            };
            // A truncated log cannot serve the gap; the periodic catch-up
            // pass reseeds the slave from a snapshot instead.
            if suffix.first().map(|r| r.lsn) != Some(applied.next()) {
                continue;
            }
            for record in &suffix {
                if udr.ses[slave.index()]
                    .apply_replicated(partition, record)
                    .is_err()
                {
                    break;
                }
                udr.shippers[p].on_applied(slave, record.lsn);
            }
        }
    }

    /// Audit a served read against its policy's promise and update the
    /// session token: record kept/broken guarantees for the intermediate
    /// policies, then raise the session's monotonic-reads floor to the
    /// applied position the serving engine exposed.
    fn account_guarantees(udr: &mut Udr, ctx: &mut PipelineCtx, partition: PartitionId, se: SeId) {
        if ctx.read_route != ReadRoute::Routed {
            // Quorum consults and leader reads pick their own copy outside
            // the read-policy routing; auditing them against a policy that
            // never ran would report phantom violations.
            // (`FrashConfig::validate` rejects guarded policies under
            // quorum and consensus replication anyway.)
            return;
        }
        // What the read actually saw: the serving engine's applied LSN
        // (at least the ledger-confirmed position routing relied on).
        let served_lsn = udr.ses[se.index()]
            .last_lsn(partition)
            .map(|l| l.raw())
            .unwrap_or(0);
        // A read explicitly downgraded to nearest-copy under overload made
        // no freshness promise, so there is nothing to audit — the
        // downgrade was recorded when routing took the trade. The session
        // token still advances below.
        let policy = if ctx.policy_downgraded {
            ReadPolicy::NearestCopy
        } else {
            Self::read_policy(udr, ctx.class)
        };
        match policy {
            ReadPolicy::BoundedStaleness { max_lag } => {
                let reference = ctx
                    .bounded_reference
                    .unwrap_or_else(|| Self::reference_lsn(udr, partition, ctx.server_site));
                udr.metrics
                    .guarantees
                    .record_bounded_read(reference.saturating_sub(served_lsn), max_lag);
            }
            ReadPolicy::SessionConsistent => {
                let required = ctx
                    .session
                    .as_ref()
                    .map(|token| token.required_lsn(partition))
                    .unwrap_or(0);
                udr.metrics
                    .guarantees
                    .record_session_read(served_lsn, required);
            }
            ReadPolicy::NearestCopy | ReadPolicy::MasterOnly => {}
        }
        if let Some(token) = ctx.session.as_deref_mut() {
            token.observe_read(partition, served_lsn);
        }
    }

    /// Record whether a read served by `se` returned stale data relative
    /// to the partition master.
    ///
    /// Quorum-served reads are audited against the *acknowledged* tail
    /// instead of the master's raw engine state: under quorum replication
    /// the master's log also holds partially-committed records whose
    /// write round never reached `w` — nobody was promised those, so
    /// serving behind them is not staleness. Up to the acked watermark
    /// the §5 ack carry-over plus the r+w>n overlap guarantee the
    /// consulted set contains a fresh copy, which is what makes the
    /// audit assertable outright.
    fn record_read_staleness(
        udr: &mut Udr,
        partition: PartitionId,
        uid: SubscriberUid,
        se: SeId,
        quorum_served: bool,
    ) {
        let master = udr.groups[partition.index()].master();
        if se == master {
            udr.metrics.staleness.record_master_read();
            return;
        }
        // Metadata-only comparison: borrow views, never clone payloads.
        let version = |at: SeId| {
            udr.ses[at.index()]
                .engine(partition)
                .ok()
                .and_then(|e| e.committed_view(uid).map(|v| (v.lsn, v.committed_at)))
        };
        // A down master leaves no ground truth, so the read counts as fresh
        // (conservative). So does a quorum-served read behind a master
        // version that was never acknowledged: it is as fresh as any
        // promise made.
        let master_ver = version(master).filter(|(m_lsn, _)| {
            udr.ses[master.index()].is_up()
                && !(quorum_served && *m_lsn > udr.quorum_acked[partition.index()])
        });
        let (lag, age) = match (master_ver, version(se)) {
            (Some((m_lsn, m_at)), Some((s_lsn, s_at))) if m_lsn > s_lsn => {
                (m_lsn.raw() - s_lsn.raw(), m_at.duration_since(s_at))
            }
            (Some((m_lsn, _)), None) => (m_lsn.raw().max(1), SimDuration::ZERO),
            _ => (0, SimDuration::ZERO),
        };
        udr.metrics.staleness.record_slave_read(lag, age);
    }
}

impl Udr {
    // ---- construction ------------------------------------------------------

    /// Build the per-partition replication state of the deployment's mode,
    /// once [`Udr::build`] has placed the groups: under consensus one
    /// Multi-Paxos ensemble per partition over the group's members, with
    /// protocol timers staggered so ensembles do not beat in lockstep; under
    /// every other mode one shipping ledger per partition.
    pub(crate) fn build_replication(&mut self) {
        match self.cfg.frash.replication {
            ReplicationMode::Consensus { n } => {
                for p in 0..self.groups.len() {
                    let ensemble = ConsensusGroup::new(n as usize, self.cfg.seed, p as u32);
                    self.consensus.push(ensemble);
                    self.schedule_event(
                        SimTime::ZERO
                            + CONSENSUS_TICK_INTERVAL
                            + SimDuration::from_micros(137 * p as u64),
                        UdrEvent::ConsensusTick {
                            partition: PartitionId(p as u32),
                        },
                    );
                }
            }
            _ => {
                self.shippers = (0..self.groups.len() as u32)
                    .map(|p| self.shipping_ledger(PartitionId(p), Lsn::ZERO))
                    .collect();
            }
        }
    }

    /// A shipping ledger for `partition` around the group's current master,
    /// whose position is `master_lsn`: an up slave registers at what it
    /// holds, capped at `master_lsn`, and a down one at zero (its restore
    /// reseeds or re-registers it).
    fn shipping_ledger(&self, partition: PartitionId, master_lsn: Lsn) -> AsyncShipper {
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
        shipper
    }

    // ---- shipping: delivery, catch-up, faults ------------------------------

    /// A shipped batch arrives at `slave`: apply its records in order, then
    /// hand the emptied vector back to the ledger for the next batch.
    pub(crate) fn deliver_batch(
        &mut self,
        partition: PartitionId,
        slave: SeId,
        mut records: Vec<CommitRecord>,
    ) {
        for record in records.drain(..) {
            self.deliver_replication(partition, slave, record);
        }
        self.shippers[partition.index()].recycle(records);
    }

    /// A shipped record arrives at `slave`.
    pub(crate) fn deliver_replication(
        &mut self,
        partition: PartitionId,
        slave: SeId,
        record: CommitRecord,
    ) {
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
    pub(crate) fn ship_flush(&mut self, t: SimTime, partition: PartitionId, slave: SeId, seq: u64) {
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

    /// `CatchupTick`: merge diverged multi-master branches once the network
    /// is whole, re-ship what stalled channels are missing, and drive the
    /// active migrations one step.
    pub(crate) fn run_catchup(&mut self, t: SimTime) {
        if !self.net.partitioned() {
            // Divergence can arise without any cut: under multi-master a
            // *crashed* master makes each client site elect its own
            // acting master. No heal event will ever fire for that, so
            // the periodic tick merges outstanding branches as soon as
            // connectivity is whole (a no-op otherwise).
            self.run_restorations();
        }
        match self.cfg.frash.replication {
            // No shipping channels under consensus: the ensembles'
            // catch-up protocol keeps lagging replicas current. Only the
            // migration state machines ride this tick.
            ReplicationMode::Consensus { .. } => self.run_consensus_migrations(t),
            _ => {
                self.catch_up_channels(t);
                self.run_migration_catchup(t);
            }
        }
    }

    /// Re-ship to every reachable up slave what its channel is missing, or
    /// reseed it when the master's log can no longer serve the gap.
    fn catch_up_channels(&mut self, t: SimTime) {
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
                let (needs_reseed, lag) = {
                    let master_engine = self.ses[master.index()]
                        .engine(pid)
                        .expect("master hosts partition");
                    let shipper = &self.shippers[p];
                    (
                        shipper.needs_reseed(slave, master_engine),
                        shipper.lag(slave, master_engine).unwrap_or(0),
                    )
                };
                // Reseed when the master's log can no longer serve the gap.
                if needs_reseed {
                    self.reseed_from(pid, master, slave);
                    continue;
                }
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
    }

    /// `SeCrash`: the SE loses its RAM. Under a shipping family the LSN of
    /// every partition it masters is captured first, for lost-commit
    /// accounting, and failover detection is armed.
    pub(crate) fn crash_se(&mut self, t: SimTime, se: SeId) {
        if !self.ses[se.index()].is_up() {
            return;
        }
        if let ReplicationMode::Consensus { .. } = self.cfg.frash.replication {
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

    /// `FailoverCheck`: promote the freshest live slave of a partition
    /// whose master is still down.
    pub(crate) fn failover_check(&mut self, partition: PartitionId) {
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
        self.shippers[p] = self.shipping_ledger(partition, candidate_lsn);
        self.metrics.failovers += 1;
    }

    /// `SeRestore`: the SE comes back with what its disk recovered and
    /// rejoins every group it belongs to. Under consensus the chosen log
    /// survived the crash (durable acceptor state): the node's apply cursor
    /// resets to the recovered disk position and the rest of its committed
    /// prefix replays. There is no lost-commit accounting there: consensus
    /// never acknowledged anything the log does not hold.
    pub(crate) fn restore_se(&mut self, se: SeId) {
        let t = self.events.now();
        let recovered: IdMap<PartitionId, Lsn> =
            self.ses[se.index()].restore(t).into_iter().collect();
        for p in 0..self.groups.len() {
            let Some(i) = self.groups[p].members().iter().position(|m| *m == se) else {
                continue;
            };
            let pid = PartitionId(p as u32);
            let lsn = recovered.get(&pid).copied();
            let is_master = self.groups[p].master() == se;
            match self.cfg.frash.replication {
                ReplicationMode::Consensus { .. } => {
                    if lsn.is_none() {
                        // Nothing on disk (in-RAM durability): rejoin
                        // empty; the replay rebuilds the whole prefix.
                        let role = if is_master {
                            ReplicaRole::Master
                        } else {
                            ReplicaRole::Slave
                        };
                        self.ses[se.index()].add_replica(pid, role);
                    }
                    let writes = lsn.unwrap_or(Lsn::ZERO).raw();
                    self.consensus[p].applied[i] =
                        cursor_for_writes(self.consensus[p].ensemble.nodes()[i].log(), writes);
                    self.consensus_apply(t, pid);
                }
                _ if is_master => self.restore_master(pid, se, lsn),
                _ => self.restore_slave(pid, se, lsn),
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
                self.seed_copy(pid, donor, se, ReplicaRole::Master)
                    .expect("donor hosts partition");
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
        self.shippers[p] = self.shipping_ledger(pid, base_lsn);
    }

    /// A crashed SE restores as a slave (its mastership moved or it always
    /// was a slave).
    fn restore_slave(&mut self, pid: PartitionId, se: SeId, recovered: Option<Lsn>) {
        let p = pid.index();
        let master = self.groups[p].master();
        let master_lsn = self.ses[master.index()]
            .is_up()
            .then(|| self.ses[master.index()].last_lsn(pid).unwrap_or(Lsn::ZERO));
        match recovered {
            // A recovered copy resumes where its disk left off, unless it
            // is ahead of an up master's lineage. Under a down master it is
            // kept as it is: whoever masters next settles the lineage —
            // failover promotes the freshest live copy, and a restoring
            // master reseeds the slaves ahead of it.
            Some(lsn) if master_lsn.is_none_or(|m| lsn <= m) => {
                self.shippers[p].register_slave(se, lsn);
            }
            // Disk state ahead of the master (orphaned commits): reseed.
            Some(_) => self.reseed_from(pid, master, se),
            // Nothing on disk: rejoin empty, seeded from an up master.
            None => {
                self.ses[se.index()].add_replica(pid, ReplicaRole::Slave);
                if master_lsn.is_some() {
                    self.reseed_from(pid, master, se);
                } else {
                    self.shippers[p].register_slave(se, Lsn::ZERO);
                }
            }
        }
    }

    /// Snapshot `source`'s copy of `pid` and seed `target`'s copy from it
    /// in `role`; returns the seeded LSN, or an error when `source` hosts
    /// no copy.
    pub(crate) fn seed_copy(
        &mut self,
        pid: PartitionId,
        source: SeId,
        target: SeId,
        role: ReplicaRole,
    ) -> UdrResult<Lsn> {
        let snapshot = self.ses[source.index()].engine(pid)?.snapshot();
        let lsn = snapshot.last_lsn;
        self.ses[target.index()].seed_replica(pid, role, snapshot);
        Ok(lsn)
    }

    /// Seed `target`'s slave copy of `pid` from `source`'s current state
    /// and move its channel to the seeded position.
    fn reseed_from(&mut self, pid: PartitionId, source: SeId, target: SeId) {
        let lsn = self
            .seed_copy(pid, source, target, ReplicaRole::Slave)
            .expect("source hosts partition");
        self.shippers[pid.index()].reseeded(target, lsn);
        self.metrics.reseeds += 1;
    }

    // ---- multi-master restoration (§5) --------------------------------------

    /// Earliest active partition start (divergence stamp for new branches).
    pub(crate) fn earliest_active_cut(&self) -> Option<SimTime> {
        self.active_cuts.iter().map(|(_, t)| *t).min()
    }

    /// Merge every diverged multi-master partition's branches on its up
    /// members and reseed them all with the result (§5 consistency
    /// restoration).
    pub(crate) fn run_restorations(&mut self) {
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
            self.shippers[p] = self.shipping_ledger(pid, outcome.snapshot.last_lsn);
            self.metrics.merges += 1;
            self.metrics.merge_conflicts += outcome.stats.conflicts as u64;
            self.metrics.merge_records += outcome.stats.records_examined as u64;
            self.metrics.merge_time +=
                restoration_duration(outcome.stats.records_examined, MERGE_COST_PER_RECORD);
        }
    }

    // ---- convergence ---------------------------------------------------------

    /// The largest replication lag (log records) any up copy currently
    /// shows: against its partition master under a shipping family, as the
    /// widest committed-watermark spread between up members of an ensemble
    /// under consensus. Crashed endpoints are skipped — they cannot catch
    /// up until they restore.
    pub fn max_replica_lag(&self) -> u64 {
        let mut max = 0u64;
        for (p, group) in self.groups.iter().enumerate() {
            if let ReplicationMode::Consensus { .. } = self.cfg.frash.replication {
                let g = &self.consensus[p];
                let nodes = g.ensemble.nodes();
                let (lo, hi) = (0..nodes.len())
                    .filter(|i| self.consensus_node_up(p, *i))
                    .map(|i| nodes[i].log().committed().0)
                    .fold((u64::MAX, 0), |(lo, hi), mark| (lo.min(mark), hi.max(mark)));
                max = max.max(hi.saturating_sub(lo));
                continue;
            }
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

    /// Whether replication has fully re-converged, the condition the
    /// heal-time measurement of a fault campaign waits for: no partition or
    /// degradation is still active and, under a shipping family, every live
    /// channel has zero lag and no diverged multi-master branch awaits its
    /// merge. Under consensus every ensemble instead needs a serving leader
    /// with nothing in flight, and every up node's committed watermark and
    /// apply cursor must rest on the leader's watermark.
    pub fn replication_settled(&self) -> bool {
        if self.net.partitioned() || self.net.degraded() {
            return false;
        }
        match self.cfg.frash.replication {
            ReplicationMode::Consensus { .. } => self.consensus.iter().enumerate().all(|(p, g)| {
                let Some(l) = self.consensus_serving_leader(p) else {
                    return false;
                };
                let nodes = g.ensemble.nodes();
                let leader = &nodes[l];
                if leader.pending_len() != 0 || !leader.read_index_ready() {
                    return false;
                }
                let watermark = leader.log().committed();
                (0..nodes.len())
                    .filter(|i| self.consensus_node_up(p, *i))
                    .all(|i| nodes[i].log().committed() == watermark && g.applied[i] == watermark)
            }),
            _ => self.diverged.is_empty() && self.max_replica_lag() == 0,
        }
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

    // ---- the channel migration engine ---------------------------------------

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
            let (needs_reseed, lag) = {
                let engine = self.ses[master.index()]
                    .engine(plan.partition)
                    .expect("master hosts partition");
                let channel = self.migrations[id]
                    .channel
                    .as_ref()
                    .expect("started migration has channel");
                (
                    channel.needs_reseed(plan.to, engine),
                    channel.lag(plan.to, engine).unwrap_or(0),
                )
            };
            // A truncated master log (or a failover onto a new lineage)
            // invalidates the seed: reseed from the current master.
            if needs_reseed {
                let lsn = self
                    .seed_copy(plan.partition, master, plan.to, ReplicaRole::Slave)
                    .expect("master hosts partition");
                self.migrations[id]
                    .channel
                    .as_mut()
                    .expect("started migration has channel")
                    .register_slave(plan.to, lsn);
                self.metrics.reseeds += 1;
                continue;
            }
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
                    .catch_up(plan.to, engine, t, delay)
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
    pub(crate) fn migration_deliver(&mut self, id: u64, record: CommitRecord) {
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
                ch.on_applied(plan.to, lsn);
            }
        }
    }

    /// `MigrationCutover`: atomically swap the copy into the replica set,
    /// release the retired copy and bump the shard-map epoch.
    pub(crate) fn migration_cutover(&mut self, t: SimTime, id: u64) {
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
            self.shippers[p] = self.shipping_ledger(plan.partition, master_lsn);
        } else {
            self.shippers[p].unregister_slave(plan.from);
            self.shippers[p].register_slave(plan.to, target_lsn.min(master_lsn));
        }
        if let MigrationState::Frozen { since } = state {
            self.metrics.migration_freeze_time += t.duration_since(since);
        }
        self.complete_cutover(id);
    }
}
