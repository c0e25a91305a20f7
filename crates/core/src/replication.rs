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
//!   here: batch delivery and linger flushes, the periodic catch-up and
//!   log truncation, crash capture and failover, master and slave restore,
//!   multi-master restoration and the channel migration engine;
//! * for drivers, [`Udr::max_replica_lag`] and [`Udr::replication_settled`]
//!   read the shipping ledgers or the ensembles alike.
//!
//! The ensembles themselves (protocol timers, messages, apply, the
//! reconfig cutover) live in [`crate::consensus_mode`]. What every family
//! shares (the shard map and the migration ledger) lives in [`Udr`].
//!
//! There is no protocol trait or enum beside [`ReplicationMode`]: the
//! families share most of their state, and each arm reads the fields of
//! [`Udr`] it needs between calls that take all of it.

use udr_consensus::Slot;
use udr_ldap::LdapOp;
use udr_model::attrs::Entry;
use udr_model::config::{ReadPolicy, ReplicationMode, TxnClass};
use udr_model::error::{UdrError, UdrResult};
use udr_model::ids::{IdMap, PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr_model::session::RawLsn;
use udr_model::time::{SimDuration, SimTime};
use udr_replication::multimaster::{merge_branches, restoration_duration};
use udr_replication::quorum::quorum_write;
use udr_replication::{AsyncShipper, BatchDelivery, Enqueue, MigrationState};
use udr_storage::{CommitRecord, Lsn};

use crate::consensus_mode::{ConsensusGroup, CONSENSUS_TICK_INTERVAL};
use crate::ops::OpOutcome;
use crate::pipeline::{sample_rtt, PipelineCtx, ReadRoute};
use crate::rebalance::MigrationPlan;
use crate::udr::{Udr, UdrEvent};

/// Per-record cost of the consistency-restoration scan (§5 merge).
const MERGE_COST_PER_RECORD: SimDuration = SimDuration::from_micros(5);
/// Catch-up lag (records) at which a master move freezes writes for the
/// final hand-off window.
const MIGRATION_FREEZE_LAG: u64 = 64;
/// Lag at which a slave-copy move may cut over: the target's channel,
/// a slave's from the swap on, ships the remainder; no freeze needed.
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
                let master = udr.group(location.partition).master();
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
                let master = udr.group(partition).master();
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
        if udr.shard_map.groups()[p].master() == se {
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
        let group = udr.group(partition);
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
        let group = udr.group(partition);
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
        let master = udr.group(partition).master();
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
        for i in 0..udr.shard_map.groups()[p].members().len() {
            let se = udr.shard_map.groups()[p].members()[i];
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
        let mut first_live_rtt = None;
        let quorum = matches!(udr.cfg.frash.replication, ReplicationMode::Quorum { .. });
        // Master counts as the first ack at its local commit cost.
        let mut responses = if quorum {
            vec![(master, Some(SimDuration::ZERO))]
        } else {
            Vec::new()
        };
        for i in 0..udr.shard_map.groups()[p].members().len() {
            let slave = udr.shard_map.groups()[p].members()[i];
            if slave == master {
                continue;
            }
            let delay = udr.ship_delay(master_site, slave);
            Self::ship(udr, partition, slave, record, now, delay);
            // The ack round trip is twice the one-way delay.
            let rtt = delay.map(|d| d * 2);
            first_live_rtt = first_live_rtt.or(rtt);
            if quorum {
                responses.push((slave, rtt));
            }
        }
        // Learners hear every commit as the slaves do, after them, and
        // count toward no acknowledgement.
        for i in 0..udr.shippers[p].learners().len() {
            let learner = udr.shippers[p].learners()[i];
            let delay = udr.ship_delay(master_site, learner);
            Self::ship(udr, partition, learner, record, now, delay);
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

    /// Put `record` on `slave`'s channel (a slave's or a learner's): it
    /// joins the channel's open batch, and the batch ships as one message
    /// at its cap or linger deadline. At the default cap of one every
    /// record fills its batch and ships at once. `delay` is the sampled
    /// one-way delay to `slave`, `None` when it is unreachable.
    fn ship(
        udr: &mut Udr,
        partition: PartitionId,
        slave: SeId,
        record: &CommitRecord,
        now: SimTime,
        delay: Option<SimDuration>,
    ) {
        let p = partition.index();
        let cfg = udr.cfg.ship_batch;
        match udr.shippers[p].enqueue(slave, record, &cfg) {
            Enqueue::Opened { seq } => {
                // The opener's trace rides the batch: stamp it so the
                // eventual flush and delivery attribute to the op that
                // started the linger window.
                let trace = udr.tracer.active_trace();
                if trace != 0 {
                    udr.shippers[p].stamp_open_trace(slave, trace);
                }
                let flush = UdrEvent::ShipFlush {
                    partition,
                    slave,
                    seq,
                };
                udr.schedule_event(now + cfg.linger, flush);
            }
            Enqueue::Full => {
                if let Some(b) = udr.shippers[p].flush_open(slave, now, delay) {
                    let traced = b.trace != 0;
                    udr.send_batch(now, partition, b, traced.then_some("cap"));
                }
            }
            Enqueue::Joined | Enqueue::Refused => {}
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
        let master = udr.group(partition).master();
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
    /// once [`Udr::build`] has built the shard map: under consensus one
    /// Multi-Paxos ensemble per partition over the group's members, with
    /// protocol timers staggered so ensembles do not beat in lockstep; under
    /// every other mode one shipping ledger per partition.
    pub(crate) fn build_replication(&mut self) {
        match self.cfg.frash.replication {
            ReplicationMode::Consensus { n } => {
                for p in 0..self.shard_map.groups().len() {
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
                let partitions = self.shard_map.groups().len();
                self.shippers = vec![AsyncShipper::new(); partitions];
                for p in 0..partitions as u32 {
                    self.shipping_ledger(PartitionId(p), Lsn::ZERO);
                }
            }
        }
    }

    /// Build `partition`'s shipping ledger around the group's current
    /// master, whose position is `master_lsn`, in place of the old one: an
    /// up slave registers at what it holds, capped at `master_lsn`, and a
    /// down one at zero (its restore reseeds or re-registers it). The old
    /// ledger's learners carry over by the same rule, unless the group took
    /// one in (a master move's target): the ledger is the one owner of a
    /// partition's learners, and this the one place that builds it. An up
    /// copy ahead of `master_lsn` holds commits of a lineage the master does
    /// not continue and is reseeded from it; after a failover only a learner
    /// can be, since the freshest slave was promoted. The old ledger's
    /// shipped-record and batch totals carry over: they count the
    /// partition's shipping, not one ledger's.
    fn shipping_ledger(&mut self, partition: PartitionId, master_lsn: Lsn) {
        let p = partition.index();
        let group = self.group(partition);
        let up = |se: SeId| self.ses[se.index()].is_up();
        let held = |se: SeId| {
            self.ses[se.index()]
                .last_lsn(partition)
                .unwrap_or(Lsn::ZERO)
        };
        let position = |se: SeId| {
            if up(se) {
                held(se).min(master_lsn)
            } else {
                Lsn::ZERO
            }
        };
        let mut ledger = AsyncShipper::new();
        ledger.shipped = self.shippers[p].shipped;
        ledger.batches = self.shippers[p].batches;
        for slave in group.slaves() {
            ledger.register_slave(slave, position(slave));
        }
        let learners = self.shippers[p].learners().iter();
        for &learner in learners.filter(|se| !group.contains(**se)) {
            ledger.register_learner(learner, position(learner));
        }
        let ahead: Vec<SeId> = ledger
            .slaves()
            .filter(|se| up(*se) && held(*se) > master_lsn)
            .collect();
        let master = group.master();
        self.shippers[p] = ledger;
        for copy in ahead {
            self.reseed_from(partition, master, copy);
        }
    }

    // ---- shipping: delivery, catch-up, faults ------------------------------

    /// `ReplDeliverBatch`: a shipped batch arrives at its slave. Apply it in
    /// order, confirm the highest LSN applied, rewind the channel if the
    /// batch was lost, and hand the vector back to the ledger for the next
    /// batch. The batch is lost when it arrives after the slave crashed or
    /// a cut parted it from the partition's master; a record the copy
    /// already holds, or one beyond a gap, is skipped.
    pub(crate) fn deliver_batch(&mut self, partition: PartitionId, batch: BatchDelivery) {
        let BatchDelivery { slave, records, .. } = batch;
        let master_site = self.ses[self.group(partition).master().index()].site();
        let se = &mut self.ses[slave.index()];
        let mut applied = None;
        if se.is_up() && self.net.reachable(master_site, se.site()) {
            for record in &records {
                if se.apply_replicated(partition, record).is_ok() {
                    applied = Some(record.lsn);
                }
            }
        }
        let channel = &mut self.shippers[partition.index()];
        if let Some(lsn) = applied {
            channel.on_applied(slave, lsn);
        }
        channel.rewind(slave, &records);
        channel.recycle(records);
    }

    /// Sample the one-way delay of a shipping message from `from_site` to
    /// `to`: `None` when `to` is down (no sample drawn) or unreachable.
    fn ship_delay(&mut self, from_site: SiteId, to: SeId) -> Option<SimDuration> {
        if !self.ses[to.index()].is_up() {
            return None;
        }
        let to_site = self.ses[to.index()].site();
        self.net.send(from_site, to_site, &mut self.rng).delay()
    }

    /// Put a flushed batch on the wire: its `ReplDeliverBatch` arrives at
    /// `batch.arrives`. A flush named by `flushed` (its cause, `cap` or
    /// `linger`) leaves a `ship.flush` instant when tracing is on.
    fn send_batch(
        &mut self,
        now: SimTime,
        partition: PartitionId,
        batch: BatchDelivery,
        flushed: Option<&str>,
    ) {
        if let Some(cause) = flushed.filter(|_| self.tracer.enabled()) {
            let (slave, n) = (batch.slave.0, batch.records.len());
            let arg = format!("p{} se{slave} n={n} {cause}", partition.0);
            self.tracer
                .instant(batch.trace, 0, "ship.flush", now, Some(arg));
        }
        let arrives = batch.arrives;
        self.schedule_event(arrives, UdrEvent::ReplDeliverBatch { partition, batch });
    }

    /// Linger timer for a shipping batch: sample the path once and flush
    /// the channel's open batch as a single message, if it is still the
    /// generation the timer was armed for.
    pub(crate) fn ship_flush(&mut self, t: SimTime, partition: PartitionId, slave: SeId, seq: u64) {
        let master = self.group(partition).master();
        if !self.ses[master.index()].is_up() {
            return;
        }
        let delay = self.ship_delay(self.ses[master.index()].site(), slave);
        let shipper = &mut self.shippers[partition.index()];
        if let Some(batch) = shipper.flush_if_open(slave, seq, t, delay) {
            self.send_batch(t, partition, batch, Some("linger"));
        }
    }

    /// `CatchupTick`: merge diverged multi-master branches once the network
    /// is whole, ship what channels have not yet put in flight, drive the
    /// active migrations one step, then truncate the commit logs behind
    /// their slowest readers.
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
        self.truncate_logs();
    }

    /// Truncate every replica's commit log behind its slowest reader, the
    /// last step of each `CatchupTick`.
    ///
    /// Under a shipping family every member of a group is truncated through
    /// one floor ([`Udr::log_floor`]): any member may master the partition
    /// next, and its log must then serve every reader the old master's did.
    /// Under consensus no code reads an engine's log (a restore replays the
    /// chosen log, and a migration seeds from a snapshot), so each replica
    /// keeps only what it applied since the last tick; and every node's
    /// chosen log is compacted through its partition's floor
    /// ([`Udr::chosen_floor`]), or through the slot its own SE's disk image
    /// resumes at where that is lower (Raft's rule: a node discards only
    /// what its own snapshot holds). A waiting client write never needs a
    /// compacted id: it stops at the event that chooses it, and this tick
    /// chooses no client command (it submits only reconfigs, and with
    /// n ≥ 3 a choice needs a remote ack). Truncation and compaction drop
    /// only what no later read reaches, so no simulated result depends on
    /// them. They draw nothing from the RNG, schedule nothing and, once the
    /// logs are warm, allocate nothing; on a tick where no floor moved they
    /// change nothing.
    fn truncate_logs(&mut self) {
        let consensus = matches!(
            self.cfg.frash.replication,
            ReplicationMode::Consensus { .. }
        );
        for p in 0..self.shard_map.groups().len() {
            let pid = PartitionId(p as u32);
            let floor = (!consensus).then(|| self.log_floor(pid));
            for &se in self.shard_map.groups()[p].members() {
                let se = &mut self.ses[se.index()];
                // Under consensus, through the replica's own position.
                if let Some(upto) = floor.or_else(|| se.last_lsn(pid).ok()) {
                    se.truncate_log(pid, upto);
                }
            }
            if consensus {
                let through = self.chosen_floor(pid);
                self.refresh_image_slots(pid);
                let g = &mut self.consensus[p];
                g.ensemble.compact_through(|i| through.min(g.images[i].1));
            }
        }
    }

    /// The slot through which every chosen log of `pid` may be compacted
    /// under consensus, as far as the other nodes are concerned: the lowest
    /// up node's apply cursor. Catch-up requests, promise piggybacks and
    /// elections all read at or above it. A down node holds nothing back
    /// from the others' logs; its own log keeps what its disk image needs
    /// replayed (`ConsensusGroup::images`), and should it restore behind
    /// the others' bases it installs a peer's copy (`Udr::restore_se`).
    fn chosen_floor(&self, pid: PartitionId) -> Slot {
        let p = pid.index();
        let g = &self.consensus[p];
        (0..g.applied.len())
            .filter(|&i| self.consensus_node_up(p, i))
            .map(|i| g.applied[i])
            .min()
            .unwrap_or(Slot::ZERO)
    }

    /// Bring `ConsensusGroup::images` of `pid` up to each member's disk:
    /// a node whose image changed since the last tick walks its held slots
    /// to the image's write count, once per save.
    fn refresh_image_slots(&mut self, pid: PartitionId) {
        let p = pid.index();
        for (i, se) in self.shard_map.groups()[p].members().iter().enumerate() {
            let lsn = self.ses[se.index()].image_lsn(pid).unwrap_or(Lsn::ZERO);
            let g = &mut self.consensus[p];
            if g.images[i].0 != lsn {
                let log = g.ensemble.nodes()[i].log();
                let resume = log.cursor_for_writes(lsn.raw()).unwrap_or(Slot::ZERO);
                g.images[i] = (lsn, resume);
            }
        }
    }

    /// The highest LSN through which every member's log of `pid` may be
    /// truncated under a shipping family: the lowest position an up reader
    /// may still resume from. The readers, and why each is one:
    /// * every up member's own position. Quorum ack carry-over replays a
    ///   responder's gap from the master's log, and after a failover or a
    ///   master move the new master's log serves each slave from there;
    /// * every up slave's and learner's ship channel's confirmed position: a
    ///   channel that loses a batch rewinds there, and a catch-up pass ships
    ///   the suffix after it.
    ///
    /// A down member holds nothing. A copy that restores below the
    /// master's log is reseeded from the master's snapshot by the next
    /// catch-up pass (`AsyncShipper::needs_reseed`).
    fn log_floor(&self, pid: PartitionId) -> Lsn {
        let p = pid.index();
        let up = |se: &SeId| self.ses[se.index()].is_up();
        let copies = self.shard_map.groups()[p]
            .members()
            .iter()
            .filter(|se| up(se))
            .map(|se| self.ses[se.index()].last_lsn(pid).unwrap_or(Lsn::ZERO));
        let channels = self.shippers[p]
            .slaves()
            .filter(up)
            .filter_map(|se| self.shippers[p].applied(se));
        copies.chain(channels).min().unwrap_or(Lsn::ZERO)
    }

    /// Ship to every reachable up slave, then to every learner, what its
    /// channel has not yet put in flight, or reseed it when the master's log
    /// can no longer serve the gap.
    fn catch_up_channels(&mut self, t: SimTime) {
        for p in 0..self.shard_map.groups().len() {
            let pid = PartitionId(p as u32);
            let master = self.shard_map.groups()[p].master();
            if !self.ses[master.index()].is_up() {
                continue;
            }
            // By index: nothing below changes the group or the learners,
            // and the idle tick collects nothing.
            for i in 0..self.shard_map.groups()[p].members().len() {
                let slave = self.shard_map.groups()[p].members()[i];
                if slave != master {
                    self.catch_up_channel(t, pid, master, slave);
                }
            }
            for i in 0..self.shippers[p].learners().len() {
                let learner = self.shippers[p].learners()[i];
                self.catch_up_channel(t, pid, master, learner);
            }
        }
    }

    /// One catch-up pass over `to`'s channel of `pid`, if `to` is up and
    /// reachable from the up `master`.
    fn catch_up_channel(&mut self, t: SimTime, pid: PartitionId, master: SeId, to: SeId) {
        let master_site = self.ses[master.index()].site();
        let to_site = self.ses[to.index()].site();
        if !self.ses[to.index()].is_up() || !self.net.reachable(master_site, to_site) {
            return;
        }
        let p = pid.index();
        let master_engine = self.ses[master.index()]
            .engine(pid)
            .expect("master hosts partition");
        if self.shippers[p].needs_reseed(to, master_engine) {
            self.reseed_from(pid, master, to);
            return;
        }
        let batch = self.shippers[p].catch_up(to, master_engine, t, || {
            self.net.send(master_site, to_site, &mut self.rng).delay()
        });
        if let Some(batch) = batch {
            self.send_batch(t, pid, batch, None);
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
            .shard_map
            .iter()
            .filter(|(_, g)| g.master() == se)
            .map(|(p, _)| (p, self.ses[se.index()].last_lsn(p).unwrap_or(Lsn::ZERO)))
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
    /// whose master is still down (the most caught-up copy wins, ties
    /// break on the lowest `SeId`).
    pub(crate) fn failover_check(&mut self, partition: PartitionId) {
        let p = partition.index();
        let master = self.shard_map.groups()[p].master();
        if self.ses[master.index()].is_up() {
            return; // master came back before detection completed
        }
        let best = self.shard_map.groups()[p]
            .slaves()
            .filter(|s| self.ses[s.index()].is_up())
            .map(|s| {
                (
                    s,
                    self.ses[s.index()].last_lsn(partition).unwrap_or(Lsn::ZERO),
                )
            })
            .max_by(|(a_se, a_lsn), (b_se, b_lsn)| a_lsn.cmp(b_lsn).then_with(|| b_se.cmp(a_se)));
        let Some((candidate, candidate_lsn)) = best else {
            return; // total outage: nothing to promote
        };
        if let Some(crash_lsn) = self.master_lsn_at_crash.get(&partition) {
            // §4.2: transactions committed at the master but not yet
            // replicated are lost by the promotion.
            self.metrics.lost_commits += crash_lsn.raw().saturating_sub(candidate_lsn.raw());
        }
        // Mastership moves and the epoch bumps, so route caches learn
        // (lazily) that the old owner is retired.
        self.shard_map
            .promote(partition, candidate)
            .expect("candidate is a member");
        let _ = self.ses[candidate.index()].set_role(partition, ReplicaRole::Master);
        self.shipping_ledger(partition, candidate_lsn);
        self.metrics.failovers += 1;
    }

    /// `SeRestore`: the SE comes back with what its disk recovered and
    /// rejoins every group it belongs to. Under consensus the chosen log
    /// survived the crash (durable acceptor state): the node's apply cursor
    /// resets to the recovered disk position and the rest of its committed
    /// prefix replays, and its election timer restarts
    /// (`Replica::rearm_election`), so a node back while the leader is
    /// healthy hears its heartbeats before it would campaign. A node's log is compacted only through the slot its
    /// own image resumes at, so the image and the log hold every write the
    /// node applied; only a node that installed a peer's copy and crashed
    /// before saving it finds the log compacted past its image. That node
    /// drops the copy and keeps the image. A node left without a copy, or
    /// whose log stops short of a peer's base, installs a peer's copy
    /// (`Udr::consensus_installs`). There is no lost-commit accounting
    /// there: consensus never acknowledged anything the logs and images do
    /// not hold.
    pub(crate) fn restore_se(&mut self, se: SeId) {
        let t = self.events.now();
        let recovered: IdMap<PartitionId, Lsn> =
            self.ses[se.index()].restore(t).into_iter().collect();
        for p in 0..self.shard_map.groups().len() {
            let Some(i) = self.shard_map.groups()[p]
                .members()
                .iter()
                .position(|m| *m == se)
            else {
                continue;
            };
            let pid = PartitionId(p as u32);
            let lsn = recovered.get(&pid).copied();
            let is_master = self.shard_map.groups()[p].master() == se;
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
                    let g = &mut self.consensus[p];
                    let log = g.ensemble.nodes()[i].log();
                    match log.cursor_for_writes(writes) {
                        // A cursor below the base has only no-ops and
                        // applied reconfigs between it and the base.
                        Some(cursor) => g.applied[i] = cursor.max(log.base()),
                        // The image predates a peer's copy this node
                        // installed: the copy goes, and a peer's takes its
                        // place. Until then the cursor rests on the base.
                        None => {
                            g.applied[i] = log.base();
                            self.ses[se.index()].unload_partition(pid);
                        }
                    }
                    // Back from an outage, the node listens for a leader's
                    // heartbeats before it campaigns.
                    self.consensus_step(t, pid, i, 0, |r, _| r.rearm_election(t));
                    self.consensus_installs(t, pid);
                    self.consensus_apply(t, pid);
                }
                _ if is_master => self.restore_master(pid, se, lsn),
                _ => self.restore_slave(pid, se, lsn),
            }
        }
    }

    /// Install a peer's copy into every up node of `pid`'s ensemble that
    /// its own log cannot bring to the head: one that hosts no copy, or
    /// whose committed prefix falls short of a peer's compacted base (the
    /// slots between reach it neither by replay nor by catch-up). The
    /// hosting node with the highest apply cursor, ties to the lowest
    /// index, seeds its engine; the node takes that cursor, and that
    /// node's log where its own cannot resume there
    /// (`Ensemble::install_log`); its log serves the rest (Raft's
    /// InstallSnapshot, Ongaro & Ousterhout, USENIX ATC 2014, §7). Each
    /// install counts in `reseeds`. With no peer hosting a copy, a node
    /// without one waits for the next restore.
    fn consensus_installs(&mut self, t: SimTime, pid: PartitionId) {
        let p = pid.index();
        let members = self.shard_map.groups()[p].members().to_vec();
        let hosts = |udr: &Udr, j: usize| udr.ses[members[j].index()].engine(pid).is_ok();
        let max_base = (0..members.len())
            .filter(|&j| hosts(self, j))
            .map(|j| self.consensus[p].ensemble.nodes()[j].log().base())
            .max();
        for j in 0..members.len() {
            let se = members[j];
            let node = &self.consensus[p].ensemble.nodes()[j];
            let behind = !hosts(self, j) || max_base.is_some_and(|b| node.log().committed() < b);
            if !self.ses[se.index()].is_up() || !behind {
                continue;
            }
            let applied = &self.consensus[p].applied;
            let Some(donor) = (0..members.len())
                .filter(|&k| k != j && hosts(self, k))
                .max_by(|&a, &b| applied[a].cmp(&applied[b]).then(b.cmp(&a)))
            else {
                continue;
            };
            let role = if se == self.shard_map.groups()[p].master() {
                ReplicaRole::Master
            } else {
                ReplicaRole::Slave
            };
            self.seed_copy(pid, members[donor], se, role)
                .expect("donor hosts partition");
            let g = &mut self.consensus[p];
            let cursor = g.applied[donor];
            let log = g.ensemble.nodes()[j].log();
            if !(log.base()..=log.committed()).contains(&cursor) {
                g.ensemble.install_log(t, j, donor);
            }
            g.applied[j] = cursor;
            self.metrics.reseeds += 1;
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
        let best_slave: Option<(SeId, Lsn)> = self.shard_map.groups()[p]
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
        self.shipping_ledger(pid, base_lsn);
    }

    /// A crashed SE restores as a slave (its mastership moved or it always
    /// was a slave).
    fn restore_slave(&mut self, pid: PartitionId, se: SeId, recovered: Option<Lsn>) {
        let p = pid.index();
        let master = self.shard_map.groups()[p].master();
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
    fn earliest_active_cut(&self) -> Option<SimTime> {
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
            let members: Vec<SeId> = self.shard_map.groups()[p]
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
            let master = self.shard_map.groups()[p].master();
            for se in &members {
                let role = if *se == master {
                    ReplicaRole::Master
                } else {
                    ReplicaRole::Slave
                };
                self.ses[se.index()].seed_replica(pid, role, outcome.snapshot.clone());
            }
            // Every up member now holds the merged state.
            self.shipping_ledger(pid, outcome.snapshot.last_lsn);
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
        for (partition, group) in self.shard_map.iter() {
            let p = partition.index();
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
            let Ok(engine) = self.ses[master.index()].engine(partition) else {
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

    /// Shipping batches flushed across all partitions' channels; under the
    /// default per-record shipping every commit is a batch of one per
    /// slave.
    pub fn shipping_batches(&self) -> u64 {
        self.shippers.iter().map(|s| s.batches).sum()
    }

    /// Records shipped (including catch-up re-ships) across all channels.
    pub fn shipped_records(&self) -> u64 {
        self.shippers.iter().map(|s| s.shipped).sum()
    }

    /// The confirmed position of `se`'s ship channel for `partition`, a
    /// slave's or a migration target's; `None` when it has none, as a
    /// master has none, and always under consensus.
    pub fn channel_applied(&self, partition: PartitionId, se: SeId) -> Option<Lsn> {
        self.shippers.get(partition.index())?.applied(se)
    }

    // ---- the channel migration engine ---------------------------------------

    /// Drive every active migration one step (runs on each `CatchupTick`,
    /// after the catch-up pass has shipped to the learners; a consensus
    /// deployment runs `run_consensus_migrations` instead). The target is a
    /// learner on its partition's ledger, so shipping, catch-up and reseeds
    /// are the channels' own; what is left here is the abort rule, the end
    /// of seeding, the freeze and the cutover, all read off the learner's
    /// lag.
    fn run_migration_catchup(&mut self, t: SimTime) {
        for id in 0..self.migrations.len() {
            let Some((plan, state)) = self.migrations[id].running() else {
                continue;
            };
            // Fault policy: a crashed endpoint, a cut on the shipping path
            // or a target no longer on the ledger abandons the move —
            // restarting later is cheaper than reasoning about a
            // half-seeded copy across a partition. A slave move whose
            // master alone is down waits for the failover instead: the
            // rebuilt ledger carries the target on as a learner.
            let from_up = self.ses[plan.from.index()].is_up();
            let Some(lag) = self.learner_lag(&plan).filter(|_| from_up) else {
                let master_down = !self.ses[self.group(plan.partition).master().index()].is_up();
                let to_up = self.ses[plan.to.index()].is_up();
                if !(from_up && to_up && master_down && self.cfg.frash.auto_failover) {
                    self.migration_abort(t, id as u64);
                }
                continue;
            };
            match state {
                MigrationState::Seeding { ready_at } if t < ready_at => continue,
                MigrationState::Seeding { .. } => {
                    self.migrations[id].state = MigrationState::CatchingUp;
                }
                _ => {}
            }
            let master = self.group(plan.partition).master();
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
                    let master_site = self.ses[master.index()].site();
                    let to_site = self.ses[plan.to.index()].site();
                    let coord = self
                        .net
                        .round_trip(master_site, to_site, &mut self.rng)
                        .unwrap_or(SimDuration::from_millis(1));
                    self.schedule_event(t + coord, UdrEvent::MigrationCutover { id: id as u64 });
                }
            } else if lag <= MIGRATION_SLAVE_CUTOVER_LAG {
                // Slave move: the learner's channel closes the remainder
                // after the swap, as a slave's; no freeze needed.
                self.schedule_event(t, UdrEvent::MigrationCutover { id: id as u64 });
            }
        }
    }

    /// A move's target's lag behind its partition's master, as the
    /// target's channel on the ledger confirms it; `None` when the master
    /// or the target is down, the path between them is cut, or the target
    /// has no channel.
    fn learner_lag(&self, plan: &MigrationPlan) -> Option<u64> {
        let master = &self.ses[self.group(plan.partition).master().index()];
        let to = &self.ses[plan.to.index()];
        if !master.is_up() || !to.is_up() || !self.net.reachable(master.site(), to.site()) {
            return None;
        }
        let engine = master.engine(plan.partition).ok()?;
        self.shippers[plan.partition.index()].lag(plan.to, engine)
    }

    /// `MigrationCutover`: atomically swap the copy into the replica set,
    /// release the retired copy and bump the shard-map epoch.
    pub(crate) fn migration_cutover(&mut self, t: SimTime, id: u64) {
        let Some((plan, state)) = self.migrations[id as usize].running() else {
            return;
        };
        let p = plan.partition.index();
        let master = self.shard_map.groups()[p].master();
        let was_master_move = plan.from == master;
        // A master hand-off must be exact: every committed record is on
        // the target before the old master retires (zero loss).
        let lag = self.learner_lag(&plan);
        if lag.is_none() || (was_master_move && lag != Some(0)) {
            self.migration_abort(t, id);
            return;
        }
        self.shard_map
            .replace_member(plan.partition, plan.from, plan.to)
            .expect("cutover swap validated");
        if was_master_move {
            let _ = self.ses[plan.to.index()].set_role(plan.partition, ReplicaRole::Master);
            // Rebuild the shipping ledger around the new master (same
            // lineage, so the slaves' applied LSNs carry over).
            let master_lsn = self.ses[plan.to.index()].last_lsn(plan.partition);
            self.shipping_ledger(plan.partition, master_lsn.unwrap_or(Lsn::ZERO));
        } else {
            // The target was seeded as a slave copy; its channel carries on.
            self.shippers[p].unregister_slave(plan.from);
            self.shippers[p].promote_learner(plan.to);
        }
        if let MigrationState::Frozen { since } = state {
            self.metrics.migration_freeze_time += t.duration_since(since);
        }
        self.complete_cutover(t, id);
    }
}
