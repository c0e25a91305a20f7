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
//! The copy families of §3.3/§5 are routed here; consensus (§6) routing
//! lives with the ensembles in [`crate::consensus_mode`]. In every mode
//! the replication group alone says which SEs host a partition.
//!
//! [`Udr`] itself no longer routes anything per-operation: it is the
//! deployment container and event pump, and `ops.rs` is a thin entry
//! point that builds a context and runs this chain.

use udr_dls::{Location, Resolution};
use udr_ldap::{FrameCursor, LdapOp};
use udr_model::attrs::Entry;
use udr_model::config::{ReadPolicy, ReplicationMode, TxnClass};
use udr_model::error::{UdrError, UdrResult};
use udr_model::identity::Identity;
use udr_model::ids::{PartitionId, ReplicaRole, SeId, SiteId, SubscriberUid};
use udr_model::qos::{PriorityClass, ShedReason};
use udr_model::session::{RawLsn, SessionToken};
use udr_model::tenant::{Capability, TenantId};
use udr_model::time::{SimDuration, SimTime};
use udr_replication::quorum::quorum_write;
use udr_replication::Enqueue;
use udr_storage::{CommitRecord, StorageElement};
use udr_trace::SpanCtx;

use crate::ops::OpOutcome;
use crate::udr::{Udr, UdrEvent};

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
    cluster_idx: usize,
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
    record: Option<CommitRecord>,
    /// Reference LSN bounded-staleness routing measured lag against,
    /// reused by the post-read audit (deployment state cannot change
    /// between the two within one operation).
    bounded_reference: Option<RawLsn>,
    /// Whether a guarded read policy was downgraded to nearest-copy by
    /// the overload-degradation policy (skips the freshness audit — the
    /// downgrade itself is what gets recorded).
    policy_downgraded: bool,
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
        // own per-class buckets, isolated — no downward borrowing and no
        // lending across tenants — so one tenant's storm exhausts only
        // its own budget. Cluster-level CoDel shedding below stays
        // shared: it protects the deployment, this protects the
        // neighbours.
        udr.sync_tenant_buckets();
        if let Some(buckets) = udr.tenant_bucket_mut(ctx.tenant) {
            if !buckets.admit_isolated(ctx.priority, ctx.now) {
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
/// through the cluster's [`udr_dls::DataLocationStage`]. Cached and hashed
/// realisations may require an SE probe broadcast (§3.5's scalability
/// hurdle).
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
            let (observed, resolution) =
                (stage.map_epoch(), stage.resolve(&identity, ctx.now, None));
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
        match udr.authority.peek(identity) {
            Some(loc) => {
                // The probe fans out in parallel; the client proceeds as
                // soon as the owning partition's master answers positively.
                let owner = udr.groups[loc.partition.index()].master();
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

/// Stage 3 — replica routing and replication effects: picks the SE that
/// serves the operation under the configured copy family and read policy
/// (§3.3), consults read quorums (§5), and — after the storage stage
/// commits — propagates the record and waits for whatever the mode
/// requires. Under consensus (§6) routing is the ensembles' own
/// (`Udr::consensus_route` in [`crate::consensus_mode`]): a write commits
/// there and a read comes back routed to the serving leader.
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

        if udr.consensus_mode() {
            return udr.consensus_route(ctx, location.partition);
        }

        // Quorum mode handles reads through the ensemble, not one copy.
        if let ReplicationMode::Quorum { r, .. } = udr.cfg.frash.replication {
            if !ctx.op.is_write() {
                return Self::quorum_consult(udr, ctx, location.partition, r);
            }
        }

        let read_policy = match ctx.class {
            TxnClass::FrontEnd => udr.cfg.frash.fe_read_policy,
            TxnClass::Provisioning => udr.cfg.frash.ps_read_policy,
        };
        let target = if ctx.op.is_write() {
            Self::write_target(udr, location.partition, ctx.server_site, ctx.now)
        } else {
            Self::read_target(udr, ctx, location.partition, read_policy)
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
            ReadPolicy::BoundedStaleness { max_lag } => {
                if Self::degrade_guarded_read(udr, ctx) {
                    return Self::guarded_target(udr, ctx, partition, 0);
                }
                let reference = Self::reference_lsn(udr, partition, from_site);
                ctx.bounded_reference = Some(reference);
                Self::guarded_target(udr, ctx, partition, reference.saturating_sub(max_lag))
            }
            ReadPolicy::SessionConsistent => {
                if Self::degrade_guarded_read(udr, ctx) {
                    return Self::guarded_target(udr, ctx, partition, 0);
                }
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

    /// Lag-aware replica selection shared by every slave-read policy:
    /// the nearest usable copy whose applied LSN has reached `required`,
    /// preferring same-site, then the master, then any reachable copy.
    /// `required = 0` is plain nearest-copy routing (every copy
    /// qualifies, no lag lookups). When the copy nearest-copy routing
    /// would have used fails the floor, the read bounces off it and is
    /// redirected: the wasted hop is charged to
    /// [`LatencyBreakdown::replication`] and counted in
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
        // Selection is pure inspection; mutation (RTT sampling, metrics)
        // happens after the borrows end.
        let (nearest, pick) = {
            let group = &udr.groups[partition.index()];
            let master = group.master();
            let members = group.members();
            let qualifies = |se: SeId| {
                required == 0 || Self::routed_applied_lsn(udr, partition, se) >= required
            };

            // The copy plain nearest-copy routing would have used (full
            // preference chain, no freshness filter), so redirects are
            // charged whenever the floor changes the routing decision.
            let nearest = members
                .iter()
                .copied()
                .filter(|se| {
                    udr.ses[se.index()].site() == from_site
                        && Self::copy_usable(udr, from_site, *se)
                })
                .min()
                .or_else(|| Self::copy_usable(udr, from_site, master).then_some(master))
                .or_else(|| {
                    members
                        .iter()
                        .copied()
                        .filter(|se| Self::copy_usable(udr, from_site, *se))
                        .min()
                });
            let pick = members
                .iter()
                .copied()
                .filter(|se| {
                    udr.ses[se.index()].site() == from_site
                        && Self::copy_usable(udr, from_site, *se)
                        && qualifies(*se)
                })
                .min()
                .or_else(|| {
                    (Self::copy_usable(udr, from_site, master) && qualifies(master))
                        .then_some(master)
                })
                .or_else(|| {
                    members
                        .iter()
                        .copied()
                        .filter(|se| Self::copy_usable(udr, from_site, *se) && qualifies(*se))
                        .min()
                });
            (nearest, pick)
        };
        let pick = pick?;
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
        let group = &udr.groups[partition.index()];
        let master = group.master();
        let master_ok = udr.ses[master.index()].is_up()
            && udr.net.reachable(from_site, udr.ses[master.index()].site());
        if master_ok {
            return Some(master);
        }
        if udr.cfg.frash.replication != ReplicationMode::MultiMaster {
            return None;
        }
        // Acting master: same-site preferred, then lowest SeId — a
        // deterministic choice, so every client on this side of the cut
        // elects the same copy.
        let candidate = group
            .members()
            .iter()
            .copied()
            .filter(|se| {
                udr.ses[se.index()].is_up()
                    && udr.net.reachable(from_site, udr.ses[se.index()].site())
            })
            .min_by_key(|se| (udr.ses[se.index()].site() != from_site, *se))?;
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
                .max_by_key(|(se, _)| {
                    udr.ses[se.index()]
                        .last_lsn(partition)
                        .unwrap_or(udr_storage::Lsn::ZERO)
                })
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
        if ctx.policy_downgraded {
            // The read was explicitly downgraded to nearest-copy under
            // overload: no freshness promise was made, so there is
            // nothing to audit — the downgrade was recorded when routing
            // took the trade. The session token still advances below.
            if let Some(token) = ctx.session.as_deref_mut() {
                let served_lsn = udr.ses[se.index()]
                    .last_lsn(partition)
                    .map(|l| l.raw())
                    .unwrap_or(0);
                token.observe_read(partition, served_lsn);
            }
            return;
        }
        let policy = match ctx.class {
            TxnClass::FrontEnd => udr.cfg.frash.fe_read_policy,
            TxnClass::Provisioning => udr.cfg.frash.ps_read_policy,
        };
        // What the read actually saw: the serving engine's applied LSN
        // (at least the ledger-confirmed position routing relied on).
        let served_lsn = udr.ses[se.index()]
            .last_lsn(partition)
            .map(|l| l.raw())
            .unwrap_or(0);
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
        if !udr.ses[master.index()].is_up() {
            // No ground truth to compare against; count as a fresh slave
            // read (conservative).
            udr.metrics
                .staleness
                .record_slave_read(0, SimDuration::ZERO);
            return;
        }
        // Metadata-only comparison: borrow views, never clone payloads.
        let master_ver = udr.ses[master.index()]
            .engine(partition)
            .ok()
            .and_then(|e| e.committed_view(uid).map(|v| (v.lsn, v.committed_at)));
        if quorum_served {
            if let Some((m_lsn, _)) = master_ver {
                if m_lsn > udr.quorum_acked[partition.index()] {
                    // The master's version was never acknowledged: the
                    // read is as fresh as any promise made.
                    udr.metrics
                        .staleness
                        .record_slave_read(0, SimDuration::ZERO);
                    return;
                }
            }
        }
        let slave_ver = udr.ses[se.index()]
            .engine(partition)
            .ok()
            .and_then(|e| e.committed_view(uid).map(|v| (v.lsn, v.committed_at)));
        match (master_ver, slave_ver) {
            (Some((m_lsn, m_at)), Some((s_lsn, s_at))) if m_lsn > s_lsn => {
                let lag = m_lsn.raw() - s_lsn.raw();
                let age = m_at.duration_since(s_at);
                udr.metrics.staleness.record_slave_read(lag, age);
            }
            (Some((m_lsn, _)), None) => {
                udr.metrics
                    .staleness
                    .record_slave_read(m_lsn.raw().max(1), SimDuration::ZERO);
            }
            _ => udr
                .metrics
                .staleness
                .record_slave_read(0, SimDuration::ZERO),
        }
    }
}

/// Stage 4 — §3.2 decision 1: execute the operation on one
/// [`StorageElement`] (SEs are transactional; nothing spans elements).
///
/// A write runs inside a single-element transaction. A read opens none: it
/// reads the latest committed version. That is exactly what a one-read
/// transaction returns. At READ_COMMITTED a transaction that wrote nothing
/// sees the committed version. READ_UNCOMMITTED would also see other
/// transactions' staged writes, but every transaction this stage opens
/// commits or aborts before [`StorageStage::run`] returns, so between calls
/// there are none to see.
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
            let isolation = udr.cfg.frash.intra_se_isolation;
            let commit_at = ctx.now + ctx.breakdown.total();
            let (result, engine_cost, record) = Self::run_txn(
                &mut udr.ses[se_id.index()],
                ctx.op,
                location.partition,
                location.uid,
                isolation,
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

    /// One single-element transaction covering a write.
    #[allow(clippy::type_complexity)]
    fn run_txn(
        se: &mut StorageElement,
        op: &LdapOp,
        partition: PartitionId,
        uid: SubscriberUid,
        isolation: udr_model::config::IsolationLevel,
        commit_at: SimTime,
    ) -> (UdrResult<Option<Entry>>, SimDuration, Option<CommitRecord>) {
        let costs = se.cost_model();
        let (read_cost, write_cost) = (costs.read, costs.write);
        let mut cost = SimDuration::ZERO;

        let txn = match se.begin(partition, isolation) {
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
