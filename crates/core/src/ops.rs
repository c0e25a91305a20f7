//! The client entry point for operations and procedures: one request
//! builder, one `execute`.
//!
//! The actual end-to-end path — PoA access, data-location resolution,
//! replica routing, storage transaction, post-commit replication — lives
//! in [`pipeline`] as an explicit four-stage chain. This module builds a
//! [`PipelineCtx`] from an [`OpRequest`], runs the chain (once for a bare
//! op, per-op with fail-fast for a procedure), enforces the operation
//! timeout and records metrics.
//!
//! Every optional concern (session token, priority class, batch framing,
//! tenant) is a builder method on [`OpRequest`]:
//!
//! ```text
//! udr.execute(OpRequest::new(&op).session(&mut tok).tenant(id))
//! udr.execute(OpRequest::procedure(kind, &ids).site(fe).at(now))
//! ```

use udr_model::attrs::Entry;
use udr_model::config::TxnClass;
use udr_model::error::{UdrError, UdrResult};
use udr_model::identity::IdentitySet;
use udr_model::ids::{SeId, SiteId};
use udr_model::procedures::ProcedureKind;
use udr_model::qos::PriorityClass;
use udr_model::session::SessionToken;
use udr_model::tenant::{Capability, TenantId};
use udr_model::time::SimDuration;
use udr_model::time::SimTime;

use udr_ldap::{FrameCursor, LdapOp};

use crate::pipeline::{self, LatencyBreakdown, PipelineCtx};
use crate::procedures::{procedure_ops, ProcedureOutcome};
use crate::udr::Udr;

/// Result of one end-to-end operation.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// The payload (entry for searches, `None` for writes) or the failure.
    pub result: UdrResult<Option<Entry>>,
    /// End-to-end latency as perceived by the client (excludes the client's
    /// own access network, matching §2.3's "excluding network delays"
    /// framing for the 10 ms target measured at the PoA boundary).
    pub latency: SimDuration,
    /// The SE that served the data portion, when one was reached.
    pub served_by: Option<SeId>,
    /// Whether reaching the SE crossed the inter-site backbone.
    pub crossed_backbone: bool,
    /// Per-stage attribution of `latency` (see [`LatencyBreakdown`] for
    /// the timeout-clamp caveat).
    pub breakdown: LatencyBreakdown,
}

impl OpOutcome {
    pub(crate) fn fail(err: UdrError, latency: SimDuration) -> Self {
        OpOutcome {
            result: Err(err),
            latency,
            served_by: None,
            crossed_backbone: false,
            breakdown: LatencyBreakdown::default(),
        }
    }

    /// Whether the operation succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// What an [`OpRequest`] executes: a single LDAP operation or a whole
/// network procedure (its LDAP sequence, run fail-fast).
#[derive(Debug)]
pub enum OpPayload<'a> {
    /// One LDAP operation.
    Op(&'a LdapOp),
    /// One 3GPP network procedure for a subscriber.
    Procedure {
        /// The procedure to run.
        kind: ProcedureKind,
        /// The subscriber's identities.
        ids: &'a IdentitySet,
    },
}

/// One request against the UDR, with every optional concern as a builder
/// method instead of a positional parameter. Consumed by
/// [`Udr::execute`] — the single entry point.
///
/// Defaults: [`TxnClass::FrontEnd`], site 0, `t = 0`, no session, no
/// frame, [`TenantId::DEFAULT`], priority derived from the payload (the
/// deployment's procedure→class mapping, or the transaction-class
/// fallback for bare ops), capability derived from the payload (the
/// procedure's own capability, or direct-read/direct-write for bare ops).
#[derive(Debug)]
pub struct OpRequest<'a> {
    payload: OpPayload<'a>,
    class: TxnClass,
    priority: Option<PriorityClass>,
    site: SiteId,
    at: SimTime,
    session: Option<&'a mut SessionToken>,
    frame: Option<&'a mut FrameCursor>,
    tenant: TenantId,
    capability: Option<Capability>,
}

impl<'a> OpRequest<'a> {
    /// A request executing one LDAP operation.
    pub fn new(op: &'a LdapOp) -> Self {
        OpRequest {
            payload: OpPayload::Op(op),
            class: TxnClass::FrontEnd,
            priority: None,
            site: SiteId(0),
            at: SimTime::ZERO,
            session: None,
            frame: None,
            tenant: TenantId::DEFAULT,
            capability: None,
        }
    }

    /// A request running one network procedure for a subscriber.
    pub fn procedure(kind: ProcedureKind, ids: &'a IdentitySet) -> Self {
        OpRequest {
            payload: OpPayload::Procedure { kind, ids },
            class: TxnClass::FrontEnd,
            priority: None,
            site: SiteId(0),
            at: SimTime::ZERO,
            session: None,
            frame: None,
            tenant: TenantId::DEFAULT,
            capability: None,
        }
    }

    /// Set the issuing transaction class (FE or PS).
    #[must_use]
    pub fn class(mut self, class: TxnClass) -> Self {
        self.class = class;
        self
    }

    /// Override the QoS priority class (the default derives it from the
    /// payload).
    #[must_use]
    pub fn priority(mut self, priority: PriorityClass) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Set the site the issuing client is attached to.
    #[must_use]
    pub fn site(mut self, site: SiteId) -> Self {
        self.site = site;
        self
    }

    /// Set the arrival instant at the PoA.
    #[must_use]
    pub fn at(mut self, at: SimTime) -> Self {
        self.at = at;
        self
    }

    /// Attach the client's session-consistency token (session-consistent
    /// reads honour it; writes and reads raise its floors).
    #[must_use]
    pub fn session(mut self, session: &'a mut SessionToken) -> Self {
        self.session = Some(session);
        self
    }

    /// Attach an open framed-batch cursor (§3.3.3 bulk provisioning):
    /// ops landing on a station the frame already covers skip the
    /// per-message framing share of their service time. Admission,
    /// routing and results stay per-op — the frame changes cost, never
    /// semantics.
    #[must_use]
    pub fn framed(mut self, frame: &'a mut FrameCursor) -> Self {
        self.frame = Some(frame);
        self
    }

    /// Set the issuing tenant (default: [`TenantId::DEFAULT`], the
    /// single-operator deployment).
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Override the capability the request exercises (the default derives
    /// it from the payload; provisioning flows pass their
    /// [`Capability::Provisioning`] here).
    #[must_use]
    pub fn capability(mut self, capability: Capability) -> Self {
        self.capability = Some(capability);
        self
    }
}

/// Result of [`Udr::execute`]: an [`OpOutcome`] for a bare-op request, a
/// [`ProcedureOutcome`] for a procedure request.
#[derive(Debug, Clone)]
pub enum ExecOutcome {
    /// The request executed one LDAP operation.
    Op(OpOutcome),
    /// The request ran one network procedure.
    Procedure(ProcedureOutcome),
}

impl ExecOutcome {
    /// The bare-op outcome.
    ///
    /// # Panics
    ///
    /// Panics when the request ran a procedure.
    pub fn into_op(self) -> OpOutcome {
        match self {
            ExecOutcome::Op(out) => out,
            ExecOutcome::Procedure(_) => panic!("request ran a procedure, not a bare op"),
        }
    }

    /// The procedure outcome.
    ///
    /// # Panics
    ///
    /// Panics when the request executed a bare op.
    pub fn into_procedure(self) -> ProcedureOutcome {
        match self {
            ExecOutcome::Procedure(out) => out,
            ExecOutcome::Op(_) => panic!("request executed a bare op, not a procedure"),
        }
    }

    /// Whether the request succeeded end-to-end.
    pub fn is_ok(&self) -> bool {
        match self {
            ExecOutcome::Op(out) => out.is_ok(),
            ExecOutcome::Procedure(out) => out.success,
        }
    }

    /// End-to-end latency (sum of operation latencies for a procedure).
    pub fn latency(&self) -> SimDuration {
        match self {
            ExecOutcome::Op(out) => out.latency,
            ExecOutcome::Procedure(out) => out.latency,
        }
    }
}

impl Udr {
    /// Execute one request — the single entry point for client work.
    ///
    /// A bare-op request traverses the
    /// [`AccessStage → LocationStage → ReplicationStage → StorageStage`](crate::pipeline)
    /// chain once; a procedure request runs its LDAP sequence through the
    /// same chain sequentially, failing fast on the first failed
    /// operation (the network procedure would be aborted). Either way the
    /// wrapper drains internal events up to the arrival instant first,
    /// applies the §2.3 operation timeout per op, and records run
    /// metrics (including the per-tenant view).
    pub fn execute(&mut self, req: OpRequest<'_>) -> ExecOutcome {
        match req.payload {
            OpPayload::Op(op) => {
                let priority = req
                    .priority
                    .unwrap_or_else(|| PriorityClass::default_for_txn(req.class));
                let capability = req.capability.unwrap_or_else(|| {
                    if op.is_write() {
                        Capability::DirectWrite
                    } else {
                        Capability::DirectRead
                    }
                });
                ExecOutcome::Op(self.execute_one(
                    op,
                    req.class,
                    priority,
                    req.site,
                    req.at,
                    req.tenant,
                    capability,
                    req.session,
                    req.frame,
                ))
            }
            OpPayload::Procedure { kind, ids } => {
                // Every operation of the procedure carries the procedure's
                // QoS priority class (the request's own, else the built-in
                // telecom mapping) so admission control sheds whole
                // procedures coherently — and the procedure's capability,
                // so authorization does too.
                let priority = req
                    .priority
                    .unwrap_or_else(|| PriorityClass::for_procedure(kind));
                let capability = req.capability.unwrap_or(Capability::Procedure(kind));
                let ops = procedure_ops(kind, ids, req.site);
                let mut session = req.session;
                let mut frame = req.frame;
                let mut latency = SimDuration::ZERO;
                let mut ops_ok = 0u32;
                for op in &ops {
                    let outcome = self.execute_one(
                        op,
                        req.class,
                        priority,
                        req.site,
                        req.at + latency,
                        req.tenant,
                        capability,
                        session.as_deref_mut(),
                        frame.as_deref_mut(),
                    );
                    latency += outcome.latency;
                    match outcome.result {
                        Ok(_) => ops_ok += 1,
                        Err(e) => {
                            return ExecOutcome::Procedure(ProcedureOutcome {
                                kind,
                                success: false,
                                latency,
                                ops_ok,
                                ops_failed: 1,
                                failure: Some(e),
                            })
                        }
                    }
                }
                ExecOutcome::Procedure(ProcedureOutcome {
                    kind,
                    success: true,
                    latency,
                    ops_ok,
                    ops_failed: 0,
                    failure: None,
                })
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_one(
        &mut self,
        op: &LdapOp,
        class: TxnClass,
        priority: PriorityClass,
        client_site: SiteId,
        now: SimTime,
        tenant: TenantId,
        capability: Capability,
        session: Option<&mut SessionToken>,
        frame: Option<&mut FrameCursor>,
    ) -> OpOutcome {
        self.advance_to(now);
        let timeout = self.cfg.frash.op_timeout;

        let label = self.tracer.enabled().then(|| format!("tenant={tenant}"));
        let span = self.tracer.begin_op_with(op_trace_name(op), now, label);
        let mut ctx = PipelineCtx::new(op, class, client_site, now)
            .with_session(session)
            .with_priority(priority)
            .with_tenant(tenant, capability)
            .with_frame(frame)
            .with_trace(span);
        let mut outcome = pipeline::run(self, &mut ctx);
        if outcome.is_ok() && outcome.latency > timeout {
            let breakdown = outcome.breakdown;
            outcome = OpOutcome::fail(UdrError::Timeout, timeout);
            outcome.breakdown = breakdown;
        }
        self.record_op_metrics(class, priority, tenant, &outcome);
        if span.is_active() {
            self.tracer
                .end_op(outcome.latency, outcome_trace_status(&outcome));
        }
        outcome
    }

    /// Record run metrics for one finished operation — shared by the
    /// per-op and framed paths so both account identically. QoS counts
    /// land once, in the tenant × class matrix (the per-class view sums
    /// it). A [`UdrError::Forbidden`] denial is counted *only* as
    /// forbidden: it never entered the QoS domain, so it must not read as
    /// offered load or shed traffic anywhere.
    fn record_op_metrics(
        &mut self,
        class: TxnClass,
        priority: PriorityClass,
        tenant: TenantId,
        outcome: &OpOutcome,
    ) {
        if let Err(UdrError::Forbidden { .. }) = &outcome.result {
            self.metrics.qos.record_tenant_forbidden(tenant);
            self.metrics.ops_mut(class).other_failure();
            return;
        }
        self.metrics.qos.record_tenant_offered(tenant, priority);
        match &outcome.result {
            Ok(_) => {
                self.metrics.ops_mut(class).success();
                self.metrics.latency_mut(class).record(outcome.latency);
                self.metrics
                    .qos
                    .record_tenant_completed(tenant, priority, outcome.latency);
                if outcome.served_by.is_some() {
                    if outcome.crossed_backbone {
                        self.metrics.backbone_ops += 1;
                    } else {
                        self.metrics.local_ops += 1;
                    }
                }
            }
            Err(e) if e.is_availability_failure() => {
                if matches!(e, UdrError::PartitionFrozen(_)) {
                    self.metrics.migration_blocked_ops += 1;
                }
                if let UdrError::Shed { class, reason } = e {
                    self.metrics.qos.record_tenant_shed(tenant, *class, *reason);
                } else {
                    self.metrics.qos.record_tenant_failed(tenant, priority);
                }
                self.metrics.ops_mut(class).availability_failure();
            }
            Err(_) => {
                self.metrics.qos.record_tenant_failed(tenant, priority);
                self.metrics.ops_mut(class).other_failure();
            }
        }
        if outcome.is_ok() {
            self.metrics.stage_latency.record(&outcome.breakdown);
        }
    }
}

/// Root-span name of an operation's trace.
fn op_trace_name(op: &LdapOp) -> &'static str {
    match op {
        LdapOp::Bind { .. } => "op.bind",
        LdapOp::Search { .. } => "op.search",
        LdapOp::SearchFilter { .. } => "op.search_filter",
        LdapOp::Compare { .. } => "op.compare",
        LdapOp::Add { .. } => "op.add",
        LdapOp::Modify { .. } => "op.modify",
        LdapOp::Delete { .. } => "op.delete",
    }
}

/// Compact status label recorded on an operation's root span (and in its
/// slow-op exemplar, when retained).
fn outcome_trace_status(outcome: &OpOutcome) -> &'static str {
    match &outcome.result {
        Ok(_) => "ok",
        Err(e) => match e {
            UdrError::InvalidIdentity { .. } => "invalid-identity",
            UdrError::UnknownIdentity(_) => "unknown-identity",
            UdrError::NotFound(_) => "not-found",
            UdrError::AlreadyExists(_) => "already-exists",
            UdrError::Unreachable { .. } => "unreachable",
            UdrError::NotMaster { .. } => "not-master",
            UdrError::WriteConflict(_) => "write-conflict",
            UdrError::TxnAborted { .. } => "txn-aborted",
            UdrError::TxnInvalid => "txn-invalid",
            UdrError::SeUnavailable(_) => "se-unavailable",
            UdrError::LocationStageSyncing => "dls-syncing",
            UdrError::PartitionFrozen(_) => "partition-frozen",
            UdrError::ReplicationFailed { .. } => "replication-failed",
            UdrError::Codec(_) => "codec",
            UdrError::Timeout => "timeout",
            UdrError::Overload => "overload",
            UdrError::Shed { .. } => "shed",
            UdrError::Forbidden { .. } => "forbidden",
            UdrError::UidSpaceExhausted(_) => "uid-space-exhausted",
            UdrError::Config(_) => "config",
        },
    }
}
