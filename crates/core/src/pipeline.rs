//! The end-to-end operation pipeline: the paper's stack of separable
//! decisions (§3.2–§3.4) made explicit.
//!
//! Every client operation traverses four stages, each owning one of the
//! paper's design decisions:
//!
//! ```text
//! AccessStage ──▶ LocationStage ──▶ ReplicationStage ──▶ StorageStage
//!  (PoA + LDAP     (DLS resolution,   (copy routing,       (single-SE
//!   server, §3.4)    §3.3.1/§3.5)       quorum/multi-        transaction,
//!                                       master, §3.3/§5)     §3.2)
//!                                      ◀── finish: post-commit
//!                                          replication + staleness
//! ```
//!
//! The location stage calls the serving cluster's
//! [`udr_dls::DataLocationStage`], which hosts provisioned maps, cached
//! maps or the consistent-hash ring as chosen by the deployment's
//! `LocatorKind`; the storage stage calls the routed
//! [`udr_storage::StorageElement`]. A [`PipelineCtx`] carries the
//! operation plus the accumulated [`LatencyBreakdown`], so experiments
//! can attribute end-to-end latency to the stage that caused it.
//!
//! This module holds the context, the chain and three of the stages. The
//! third, [`ReplicationStage`], is the one that depends on the replication
//! mode, so it lives with the copy families in [`crate::replication`]; no
//! code here asks which mode the deployment runs.
//!
//! [`Udr`] itself routes nothing per operation: it is the deployment
//! container and event pump, and `ops.rs` is a thin entry point that
//! builds a context and runs this chain.

use udr_dls::{Location, Resolution};
use udr_ldap::{FrameCursor, LdapOp};
use udr_model::attrs::Entry;
use udr_model::config::{IsolationLevel, TxnClass};
use udr_model::error::{UdrError, UdrResult};
use udr_model::identity::Identity;
use udr_model::ids::{PartitionId, SeId, SiteId, SubscriberUid};
use udr_model::qos::{PriorityClass, ShedReason};
use udr_model::session::{RawLsn, SessionToken};
use udr_model::tenant::{Capability, TenantId};
use udr_model::time::{SimDuration, SimTime};
use udr_storage::{CommitRecord, StorageElement};
use udr_trace::SpanCtx;

use crate::ops::OpOutcome;
use crate::replication::ReplicationStage;
use crate::udr::Udr;

/// Per-stage latency attribution for one operation.
///
/// Components always sum to [`OpOutcome::latency`] except when the
/// operation was failed by the timeout clamp in
/// [`Udr::execute`](crate::Udr::execute), where the breakdown keeps
/// the attempt's decomposition while the reported latency is the timeout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Client ↔ PoA round trip plus LDAP server queueing and processing.
    pub access: SimDuration,
    /// Data-location resolution, including any SE probe broadcasts.
    pub location: SimDuration,
    /// Replica routing and replication waits: commit acknowledgements in
    /// the synchronous modes, ensemble consults on quorum reads.
    pub replication: SimDuration,
    /// Storage-element round trip plus engine execution and commit cost.
    pub storage: SimDuration,
}

impl LatencyBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> SimDuration {
        self.access + self.location + self.replication + self.storage
    }
}

/// Mutable state threaded through the stages for one operation.
pub struct PipelineCtx<'a> {
    /// The operation being executed.
    pub op: &'a LdapOp,
    /// Issuing transaction class (FE or PS).
    pub class: TxnClass,
    /// QoS priority class of the operation (derived from the issuing
    /// procedure kind, or the transaction-class default for bare ops);
    /// the access stage's admission controller sheds on it.
    pub priority: PriorityClass,
    /// Site the client is attached to.
    pub client_site: SiteId,
    /// Arrival instant at the PoA.
    pub now: SimTime,
    /// Operator the issuing front-end belongs to. Defaults to
    /// [`TenantId::DEFAULT`] — the single-operator deployment.
    pub tenant: TenantId,
    /// The capability this operation exercises; what the access stage's
    /// mask AND authorizes. Defaults to the bare direct-read/direct-write
    /// capability of the op itself; procedure drivers override it with
    /// the procedure's capability.
    pub capability: Capability,
    /// The issuing client session's consistency token, when the client
    /// maintains one. Consulted by session-consistent replica selection
    /// and updated with what the operation wrote/observed.
    pub session: Option<&'a mut SessionToken>,
    /// Accumulated latency attribution.
    pub breakdown: LatencyBreakdown,
    /// Trace context of the operation ([`SpanCtx::NONE`] when tracing is
    /// off): `trace` identifies the op's causal tree, `span` the enclosing
    /// span new records should parent to. Stage wrappers rewrite `span`
    /// around each stage so nested instants attach to the stage's span.
    pub span: SpanCtx,
    /// Open framed-batch cursor, when the op is part of a batch: ops
    /// landing on a station the frame already covers skip the
    /// per-message framing share of their service time (§3.3.3 bulk
    /// provisioning). `None` (the default) is the per-op wire path.
    frame: Option<&'a mut FrameCursor>,
    /// Serving cluster (set by the access stage).
    pub(crate) cluster_idx: usize,
    /// Site of the serving LDAP server (set by the access stage).
    pub(crate) server_site: SiteId,
    /// Resolved data location (set by the location stage).
    location: Option<Location>,
    /// The SE chosen to serve the data portion (set by replication
    /// routing).
    pub(crate) target: Option<SeId>,
    /// How replication routing picked `target` for a read.
    pub(crate) read_route: ReadRoute,
    /// Commit record of a committed write, for post-commit replication.
    pub(crate) record: Option<CommitRecord>,
    /// Reference LSN bounded-staleness routing measured lag against,
    /// reused by the post-read audit (deployment state cannot change
    /// between the two within one operation).
    pub(crate) bounded_reference: Option<RawLsn>,
    /// Whether a guarded read policy was downgraded to nearest-copy by
    /// the overload-degradation policy (skips the freshness audit — the
    /// downgrade itself is what gets recorded).
    pub(crate) policy_downgraded: bool,
    /// Whether reaching the SE crossed the inter-site backbone.
    pub(crate) crossed_backbone: bool,
}

/// How the replication stage picked the SE that serves a read.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadRoute {
    /// By the read policy; the storage stage still has to reach the copy
    /// (every write is routed this way too).
    Routed,
    /// The freshest copy of a read quorum, whose consult paid the wait.
    Quorum,
    /// A consensus serving leader, whose read-index round paid the wait;
    /// audited as a master read (staleness is structurally impossible).
    Leader,
}

impl<'a> PipelineCtx<'a> {
    /// A fresh context for one operation.
    pub fn new(op: &'a LdapOp, class: TxnClass, client_site: SiteId, now: SimTime) -> Self {
        PipelineCtx {
            op,
            class,
            priority: PriorityClass::default_for_txn(class),
            client_site,
            now,
            tenant: TenantId::DEFAULT,
            capability: if op.is_write() {
                Capability::DirectWrite
            } else {
                Capability::DirectRead
            },
            session: None,
            breakdown: LatencyBreakdown::default(),
            span: SpanCtx::NONE,
            frame: None,
            cluster_idx: 0,
            server_site: client_site,
            location: None,
            target: None,
            read_route: ReadRoute::Routed,
            record: None,
            bounded_reference: None,
            policy_downgraded: false,
            crossed_backbone: false,
        }
    }

    /// Attach the issuing session's consistency token.
    pub fn with_session(mut self, session: Option<&'a mut SessionToken>) -> Self {
        self.session = session;
        self
    }

    /// Set the operation's QoS priority class (procedures derive it from
    /// their kind; the default is the transaction-class fallback).
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// Attach an open framed-batch cursor (see
    /// [`OpRequest::framed`](crate::OpRequest::framed)).
    pub fn with_frame(mut self, frame: Option<&'a mut FrameCursor>) -> Self {
        self.frame = frame;
        self
    }

    /// Set the issuing tenant and the capability the operation exercises
    /// (procedure drivers pass the procedure's capability; the default is
    /// the op's own direct-read/direct-write).
    pub fn with_tenant(mut self, tenant: TenantId, capability: Capability) -> Self {
        self.tenant = tenant;
        self.capability = capability;
        self
    }

    /// Attach the operation's trace context (from
    /// [`udr_trace::Tracer::begin_op`]; [`SpanCtx::NONE`] disables span
    /// emission for this op).
    pub fn with_trace(mut self, span: SpanCtx) -> Self {
        self.span = span;
        self
    }

    /// Fail with the latency accumulated so far.
    pub(crate) fn fail(&self, err: UdrError) -> OpOutcome {
        OpOutcome {
            result: Err(err),
            latency: self.breakdown.total(),
            served_by: None,
            crossed_backbone: false,
            breakdown: self.breakdown,
        }
    }

    /// The location resolved by the location stage.
    pub(crate) fn loc(&self) -> Location {
        self.location.expect("location stage ran")
    }
}

/// Run the full chain against a deployment.
///
/// [`Udr::execute`](crate::Udr::execute) is the normal entry point
/// (it drains events, applies the operation timeout and records metrics);
/// drive this directly when you need the raw stage outcome — e.g. to run
/// stages against a partially-built context in tests or future
/// partition-parallel executors.
pub fn run(udr: &mut Udr, ctx: &mut PipelineCtx) -> OpOutcome {
    if let Err(out) = traced_stage(udr, ctx, "stage.access", AccessStage::run) {
        return out;
    }
    if let Err(out) = traced_stage(udr, ctx, "stage.location", LocationStage::run) {
        return out;
    }
    if let Err(out) = traced_stage(udr, ctx, "stage.replication", ReplicationStage::route) {
        return out;
    }
    let value = match traced_stage(udr, ctx, "stage.storage", StorageStage::run) {
        Ok(value) => value,
        Err(out) => return out,
    };
    traced_stage(udr, ctx, "stage.replication", |udr, ctx| {
        ReplicationStage::finish(udr, ctx, value)
    })
}

/// Run one pipeline stage, attributing what it added to the
/// [`LatencyBreakdown`] as trace spans.
///
/// When the op is traced, the stage runs under a freshly allocated span id
/// (so instants it emits parent to the stage), and afterwards one span per
/// breakdown field the stage advanced is recorded — named after the
/// *field*, not the stage, so the per-name sums in a trace reproduce the
/// breakdown exactly even when a stage charges several components (a
/// consensus write, which `route` hands to `Udr::consensus_route`, accrues
/// both `replication` and `storage` there and completes inside routing).
/// A stage that added no simulated time leaves one zero-duration span
/// named `hint` so the causal tree still shows it ran.
fn traced_stage<'b, T>(
    udr: &mut Udr,
    ctx: &mut PipelineCtx<'b>,
    hint: &'static str,
    stage: impl FnOnce(&mut Udr, &mut PipelineCtx<'b>) -> T,
) -> T {
    if !ctx.span.is_active() || !udr.tracer.enabled() {
        return stage(udr, ctx);
    }
    let before = ctx.breakdown;
    let start = ctx.now + before.total();
    let parent = ctx.span.span;
    let stage_span = udr.tracer.alloc_span();
    ctx.span.span = stage_span;
    let out = stage(udr, ctx);
    ctx.span.span = parent;
    let after = ctx.breakdown;
    let deltas = [
        ("stage.access", after.access.saturating_sub(before.access)),
        (
            "stage.location",
            after.location.saturating_sub(before.location),
        ),
        (
            "stage.replication",
            after.replication.saturating_sub(before.replication),
        ),
        (
            "stage.storage",
            after.storage.saturating_sub(before.storage),
        ),
    ];
    let mut cursor = start;
    let mut primary_used = false;
    for (name, delta) in deltas {
        if delta.is_zero() {
            continue;
        }
        let id = if primary_used {
            udr.tracer.alloc_span()
        } else {
            primary_used = true;
            stage_span
        };
        udr.tracer
            .span(ctx.span.trace, id, parent, name, cursor, delta, None);
        cursor += delta;
    }
    if !primary_used {
        udr.tracer.span(
            ctx.span.trace,
            stage_span,
            parent,
            hint,
            start,
            SimDuration::ZERO,
            None,
        );
    }
    out
}

pub(crate) fn sample_rtt(udr: &mut Udr, a: SiteId, b: SiteId) -> Option<SimDuration> {
    udr.net.round_trip(a, b, &mut udr.rng)
}

/// Stage 1 — §3.4.1 access: the client reaches a PoA over the local
/// network, the PoA balances over the cluster's LDAP servers, the QoS
/// admission controller decides admit-or-shed on the measured queueing
/// delay, and the chosen server pays protocol queueing + processing.
pub struct AccessStage;

impl AccessStage {
    /// Run the stage: PoA round trip, balancer pick, QoS admission,
    /// server admission.
    pub fn run(udr: &mut Udr, ctx: &mut PipelineCtx) -> Result<(), OpOutcome> {
        // Client ↔ PoA: the FE is always close to a PoA (§3.3.2), so this
        // is a LAN round trip.
        let Some(poa_rtt) = sample_rtt(udr, ctx.client_site, ctx.client_site) else {
            ctx.breakdown = LatencyBreakdown {
                access: udr.cfg.frash.op_timeout,
                ..LatencyBreakdown::default()
            };
            return Err(ctx.fail(UdrError::Timeout));
        };
        ctx.breakdown.access += poa_rtt;

        // PoA balances over the cluster's LDAP servers.
        ctx.cluster_idx = udr.pick_cluster(ctx.client_site);
        let Some(server_id) = udr.clusters[ctx.cluster_idx].poa.pick() else {
            return Err(ctx.fail(UdrError::Overload));
        };
        ctx.server_site = udr.clusters[ctx.cluster_idx].site;

        // Admission-time authorization: one dense-table index plus one
        // branch-free mask AND against the tenant's capability bitmask,
        // *before* any QoS accounting. A denial is a policy verdict, not
        // a load condition: it is typed [`UdrError::Forbidden`], never
        // counted as shed, and never retried.
        if !udr.cfg.tenants.allows(ctx.tenant, ctx.capability) {
            if ctx.span.is_active() && udr.tracer.enabled() {
                udr.tracer.instant(
                    ctx.span.trace,
                    ctx.span.span,
                    "auth.forbidden",
                    ctx.now + ctx.breakdown.total(),
                    Some(format!(
                        "tenant={} capability={}",
                        ctx.tenant, ctx.capability
                    )),
                );
            }
            return Err(ctx.fail(UdrError::Forbidden {
                tenant: ctx.tenant,
                capability: ctx.capability,
            }));
        }

        // Per-tenant rate budget: the authorized tenant spends from its
        // own per-class buckets — one class never draws on another's and
        // no tenant lends to another — so one tenant's storm exhausts
        // only its own budget. Cluster-level CoDel shedding below stays
        // shared: it protects the deployment, this protects the
        // neighbours.
        udr.sync_tenant_buckets();
        if let Some(buckets) = udr.tenant_bucket_mut(ctx.tenant) {
            if !buckets.admit(ctx.priority, ctx.now) {
                if ctx.span.is_active() && udr.tracer.enabled() {
                    udr.tracer.instant(
                        ctx.span.trace,
                        ctx.span.span,
                        "qos.tenant_shed",
                        ctx.now + ctx.breakdown.total(),
                        Some(format!("tenant={} class={}", ctx.tenant, ctx.priority)),
                    );
                }
                return Err(ctx.fail(UdrError::Shed {
                    class: ctx.priority,
                    reason: ShedReason::RateLimit,
                }));
            }
        }

        // QoS admission: the controller sees the queueing delay the
        // picked server would impose and sheds the lowest classes first
        // when it stays above target. Shedding here — before the op
        // consumes server CPU — is the whole point: rejected work must
        // cost nothing, or the rejection itself melts down. (The whole
        // block is skipped — including the delay measurement — when
        // admission control is disabled, the default.)
        if udr.cfg.qos.enabled {
            let queue_delay = udr.servers[server_id.index()].queue_delay(ctx.now);
            if let Err(reason) = udr.qos[ctx.cluster_idx].admit(ctx.priority, queue_delay, ctx.now)
            {
                // Audit for priority inversion: no class this one
                // outranks may be admittable at the same instant.
                // Structurally impossible by controller design; counted
                // to prove it live.
                let controller = &udr.qos[ctx.cluster_idx];
                let inverted = PriorityClass::ALL[ctx.priority.rank() + 1..]
                    .iter()
                    .any(|lower| controller.would_admit(*lower, queue_delay, ctx.now));
                if inverted {
                    udr.metrics.qos.record_inversion();
                }
                if ctx.span.is_active() && udr.tracer.enabled() {
                    let state = udr.qos[ctx.cluster_idx].pressure_label(ctx.now);
                    udr.tracer.instant(
                        ctx.span.trace,
                        ctx.span.span,
                        "qos.shed",
                        ctx.now + ctx.breakdown.total(),
                        Some(format!(
                            "class={} reason={reason} state={state}",
                            ctx.priority
                        )),
                    );
                }
                return Err(ctx.fail(UdrError::Shed {
                    class: ctx.priority,
                    reason,
                }));
            }
        }

        // Protocol processing (queueing + service) at the server. An op
        // whose batch frame already covers this station continues the
        // frame and skips the per-message framing share; admission (the
        // queue bound) and the arrival instant are identical either way,
        // so batching never changes whether an op is served.
        let continues = ctx
            .frame
            .as_ref()
            .is_some_and(|frame| frame.contains(server_id));
        let Some(done) = udr.servers[server_id.index()].admit_framed(ctx.op, ctx.now, continues)
        else {
            return Err(ctx.fail(UdrError::Overload));
        };
        if let Some(frame) = ctx.frame.as_deref_mut() {
            frame.record(server_id);
        }
        ctx.breakdown.access += done.duration_since(ctx.now);
        Ok(())
    }
}

/// Stage 2 — §3.3.1 decision 1: resolve the identity to a data location
/// through the cluster's [`udr_dls::DataLocationStage`]. A provisioned
/// stage reads the deployment's one identity table once its sync window has
/// ended. Cached and hashed realisations may require an SE probe broadcast
/// (§3.5's scalability hurdle).
///
/// The stage also version-checks the cluster stage's routing view against the
/// deployment's epoch-versioned shard map: a lookup resolved under a
/// stale epoch whose partition moved since (live migration cutover or
/// failover) first bounces off the retired owner — one wasted round trip,
/// charged to [`LatencyBreakdown::location`] — then refreshes the view
/// and retries **once**. Partitions that did not move refresh for free.
pub struct LocationStage;

impl LocationStage {
    /// Run the stage: resolve the operation's identity via the cluster's
    /// location stage, probing SEs on a miss and retrying a stale-epoch
    /// route at most once.
    pub fn run(udr: &mut Udr, ctx: &mut PipelineCtx) -> Result<(), OpOutcome> {
        let identity = *ctx.op.dn().identity();
        let current = udr.shard_map.epoch();
        let mut retried = false;
        loop {
            let stage = &mut udr.clusters[ctx.cluster_idx].stage;
            let (observed, resolution) = (
                stage.map_epoch(),
                stage.resolve_in(&udr.authority, &identity, ctx.now, None),
            );
            return match resolution {
                Resolution::Found(loc) => {
                    if !retried
                        && observed < current
                        && udr.shard_map.routing_changed_since(loc.partition, observed)
                    {
                        // Stale route: the op reached the retired owner,
                        // which answered "moved, epoch=N". Pay the bounce,
                        // refresh the view, resolve again.
                        if let Some(old) = udr.shard_map.retired_master(loc.partition) {
                            let old_site = udr.ses[old.index()].site();
                            if let Some(rtt) = sample_rtt(udr, ctx.server_site, old_site) {
                                ctx.breakdown.location += rtt;
                            }
                        }
                        udr.metrics.stale_route_retries += 1;
                        if ctx.span.is_active() && udr.tracer.enabled() {
                            udr.tracer.instant(
                                ctx.span.trace,
                                ctx.span.span,
                                "loc.stale_retry",
                                ctx.now + ctx.breakdown.total(),
                                Some(format!("p{} epoch {observed}→{current}", loc.partition.0)),
                            );
                        }
                        udr.clusters[ctx.cluster_idx]
                            .stage
                            .install_map_epoch(current);
                        retried = true;
                        continue;
                    }
                    if observed < current {
                        // Unmoved partition: piggyback the refresh for free.
                        udr.clusters[ctx.cluster_idx]
                            .stage
                            .install_map_epoch(current);
                    }
                    ctx.location = Some(loc);
                    Ok(())
                }
                Resolution::Unknown => {
                    Err(ctx.fail(UdrError::UnknownIdentity(identity.to_string())))
                }
                Resolution::Syncing => Err(ctx.fail(UdrError::LocationStageSyncing)),
                Resolution::NeedsProbe { ses_to_probe } => {
                    Self::probe(udr, ctx, &identity, ses_to_probe)
                }
            };
        }
    }

    /// Location-stage miss: broadcast a location probe to the SEs. The answer
    /// comes from the owning partition's master; absence is known only
    /// after the slowest reachable SE answers.
    fn probe(
        udr: &mut Udr,
        ctx: &mut PipelineCtx,
        identity: &Identity,
        ses_to_probe: usize,
    ) -> Result<(), OpOutcome> {
        udr.metrics.dls_probes += ses_to_probe as u64;
        match udr.authority.lookup(identity) {
            Some(loc) => {
                // The probe fans out in parallel; the client proceeds as
                // soon as the owning partition's master answers positively.
                let owner = udr.group(loc.partition).master();
                if !udr.ses[owner.index()].is_up() {
                    return Err(ctx.fail(UdrError::SeUnavailable(owner)));
                }
                let owner_site = udr.ses[owner.index()].site();
                let Some(owner_rtt) = sample_rtt(udr, ctx.server_site, owner_site) else {
                    ctx.breakdown.location += udr.cfg.frash.op_timeout;
                    return Err(ctx.fail(UdrError::Unreachable {
                        se: owner,
                        reason: "partition",
                    }));
                };
                ctx.breakdown.location += owner_rtt;
                udr.clusters[ctx.cluster_idx]
                    .stage
                    .fill_cache(identity, loc);
                ctx.location = Some(loc);
                Ok(())
            }
            None => {
                // Absence is known only once the slowest reachable probed
                // SE has answered "not here".
                let sites: Vec<SiteId> = udr
                    .ses
                    .iter()
                    .take(ses_to_probe)
                    .map(|se| se.site())
                    .collect();
                let mut worst = SimDuration::ZERO;
                for site in sites {
                    if let Some(rtt) = sample_rtt(udr, ctx.server_site, site) {
                        worst = worst.max(rtt);
                    }
                }
                ctx.breakdown.location += worst;
                Err(ctx.fail(UdrError::UnknownIdentity(identity.to_string())))
            }
        }
    }
}

/// Stage 4 — §3.2 decision 1: execute the operation on one
/// [`StorageElement`] (SEs are transactional; nothing spans elements).
///
/// A write runs inside a single-element transaction. A read opens none: it
/// reads the latest committed version. That is exactly what a one-read
/// transaction returns: at READ_COMMITTED a transaction that wrote nothing
/// sees the committed version.
pub struct StorageStage;

impl StorageStage {
    /// Run the stage: reach the routed SE, then serve a read off its
    /// committed store or execute a write in a single-element transaction.
    pub fn run(udr: &mut Udr, ctx: &mut PipelineCtx) -> Result<Option<Entry>, OpOutcome> {
        let se_id = ctx.target.expect("replication stage routed");
        let location = ctx.loc();
        let se_site = udr.ses[se_id.index()].site();
        ctx.crossed_backbone = se_site != ctx.server_site;

        // A quorum consult or a read-index round already paid the ensemble
        // wait; a routed operation still has to reach its SE.
        if ctx.read_route == ReadRoute::Routed {
            let Some(se_rtt) = sample_rtt(udr, ctx.server_site, se_site) else {
                ctx.breakdown = LatencyBreakdown {
                    storage: udr.cfg.frash.op_timeout,
                    ..LatencyBreakdown::default()
                };
                ctx.crossed_backbone = false;
                // A cut on the path is a *partition* failure and must say
                // so — fault campaigns distinguish "unavailable by design"
                // from bugs by the error type. Only genuine message loss
                // (the pair is connected, the datagram vanished) reads as
                // a timeout.
                let err = if udr.net.reachable(ctx.server_site, se_site) {
                    UdrError::Timeout
                } else {
                    UdrError::Unreachable {
                        se: se_id,
                        reason: "partition",
                    }
                };
                return Err(ctx.fail(err));
            };
            ctx.breakdown.storage += se_rtt;
        }

        if ctx.op.is_write() {
            let commit_at = ctx.now + ctx.breakdown.total();
            let (result, engine_cost, record) = Self::run_txn(
                &mut udr.ses[se_id.index()],
                ctx.op,
                location.partition,
                location.uid,
                commit_at,
            );
            ctx.breakdown.storage += engine_cost;
            ctx.record = record;
            return result.map_err(|e| ctx.fail(e));
        }

        // An SE that cannot serve (down, or hosting no copy) refuses
        // before the engine does any work, so it charges no read.
        let se = &udr.ses[se_id.index()];
        let entry = match se.read_committed(location.partition, location.uid) {
            Ok(entry) => entry,
            Err(e) => return Err(ctx.fail(e)),
        };
        let costs = se.cost_model();
        ctx.breakdown.storage += match ctx.op {
            LdapOp::SearchFilter { filter, .. } => {
                costs.read + costs.read * filter.assertion_count() as u64
            }
            _ => costs.read,
        };
        match entry {
            Some(entry) => Ok(Self::shape_read(ctx.op, entry)),
            None => Err(ctx.fail(UdrError::NotFound(location.uid))),
        }
    }

    /// Shape a committed entry per read-operation semantics. Filtered
    /// searches (§1/§2.2 BI clients) return the entry only when it
    /// satisfies the filter — a non-match is an empty result set, not an
    /// error. Binds authenticate against the directory front-end; the
    /// engine only verifies the entry exists (credential checking is out of
    /// the paper's scope), so they return no payload. Compares return
    /// `Some(asserted attr)` for compareTrue and `None` for compareFalse
    /// (RFC 2251 §4.10 mapped onto the payload).
    fn shape_read(op: &LdapOp, entry: Entry) -> Option<Entry> {
        match op {
            LdapOp::SearchFilter { filter, .. } => filter.matches(&entry).then_some(entry),
            LdapOp::Bind { .. } => None,
            LdapOp::Compare { attr, value, .. } => {
                (entry.get(*attr) == Some(value)).then(|| entry.project(&[*attr]))
            }
            _ => Some(entry),
        }
    }

    /// One single-element transaction covering a write, at the intra-SE
    /// level §3.2 decision 2 fixes: READ_COMMITTED.
    #[allow(clippy::type_complexity)]
    fn run_txn(
        se: &mut StorageElement,
        op: &LdapOp,
        partition: PartitionId,
        uid: SubscriberUid,
        commit_at: SimTime,
    ) -> (UdrResult<Option<Entry>>, SimDuration, Option<CommitRecord>) {
        let costs = se.cost_model();
        let (read_cost, write_cost) = (costs.read, costs.write);
        let mut cost = SimDuration::ZERO;

        let txn = match se.begin(partition, IsolationLevel::ReadCommitted) {
            Ok(t) => t,
            Err(e) => return (Err(e), cost, None),
        };
        let staged: UdrResult<Option<Entry>> = match op {
            LdapOp::Add { entry, .. } => {
                cost += write_cost;
                se.insert(partition, txn, uid, entry.clone()).map(|_| None)
            }
            LdapOp::Modify { mods, .. } => {
                cost += read_cost + write_cost;
                se.modify(partition, txn, uid, mods).map(|_| None)
            }
            LdapOp::Delete { .. } => {
                cost += write_cost;
                se.delete(partition, txn, uid).map(|_| None)
            }
            LdapOp::Search { .. }
            | LdapOp::SearchFilter { .. }
            | LdapOp::Bind { .. }
            | LdapOp::Compare { .. } => unreachable!("reads open no transaction"),
        };
        match staged {
            Ok(value) => match se.commit(partition, txn, commit_at) {
                Ok((record, commit_cost)) => {
                    cost += commit_cost;
                    (Ok(value), cost, record)
                }
                Err(e) => (Err(e), cost, None),
            },
            Err(e) => {
                se.abort(partition, txn);
                (Err(e), cost, None)
            }
        }
    }
}
