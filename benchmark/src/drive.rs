//! One repetition of a workload: build a figure-2 deployment, provision
//! the population, drive the operation stream through it from one thread,
//! drain, and check what came back.
//!
//! The stream is driven either through [`Udr::execute`] (the untraced,
//! end-to-end measurement) or traced: the pump advance timed on its own,
//! then alternate operations stage by stage through the same public calls
//! `execute` makes, with a host clock reading between each, and the others
//! through `execute`. Both must produce the same [`Rep::digest`].

use std::time::Instant;

use udr_core::{
    AccessStage, LocationStage, OpOutcome, OpRequest, PipelineCtx, ReplicationStage, StorageStage,
    Udr, UdrConfig,
};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrValue};
use udr_model::config::{ReadPolicy, ReplicationMode, TxnClass};
use udr_model::error::UdrError;
use udr_model::identity::Identity;
use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};
use udr_replication::ShipBatchConfig;
use udr_sim::net::LinkProfile;
use udr_trace::TraceConfig;

use crate::alloc::{self, Counts};
use crate::inputs::{Inputs, Op, Spec, OP_GAP, SETTLE};
use crate::stats::{fnv1a, proc_status_kb, FNV_OFFSET};

/// Equal slices of the operation stream whose wall times are taken
/// separately, so that one disturbed slice does not taint the whole run.
pub const SEGMENTS: usize = 20;
/// Keys read back from every site after the final drain.
const READBACK_KEYS: usize = 1_000;
/// A stage the operation never reached.
pub const NOT_RUN: u32 = u32::MAX;

/// How the operation stream is driven.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `Udr::execute`, one clock pair per operation.
    Execute,
    /// `Udr::run` timed on its own before every operation; then even
    /// operations through the calls `execute` makes, one clock reading
    /// between each, and odd ones through `execute`. Alternating inside one
    /// repetition puts both drives under the same state of the machine,
    /// which two repetitions seconds apart are not.
    Traced,
}

/// The timed calls of one staged operation, in the order `execute` makes
/// them. All but [`CTX`] are layers with metrics of their own.
/// [`ADVANCE`] is timed for every operation of a traced repetition.
pub const SPAN_NAMES: [&str; 7] = [
    "core.advance",
    "core.ctx",
    "core.access",
    "core.location",
    "core.route",
    "core.storage",
    "core.finish",
];
pub const ADVANCE: usize = 0;
/// Building the `PipelineCtx`: no layer's work, so it counts as glue.
pub const CTX: usize = 1;

/// Host-time spans of one operation of a traced repetition.
#[derive(Clone, Copy)]
pub struct OpSpans {
    /// Start of the operation, ns since the measured phase began.
    pub start_ns: u64,
    /// Duration of each of [`SPAN_NAMES`]; [`NOT_RUN`] for a stage the
    /// operation never reached — all but the advance, when it went through
    /// `Udr::execute`.
    pub ns: [u32; 7],
    /// `Udr::execute` after the advance, for the operations that went
    /// through it; [`NOT_RUN`] for the staged ones.
    pub execute_ns: u32,
    /// Pump events `Udr::run` processed before the operation.
    pub events: u32,
}

/// What one repetition measured and observed.
pub struct Rep {
    pub setup_s: f64,
    pub provision_ns_per_sub: f64,
    pub provision_allocs: Counts,
    pub provisioned: u64,
    pub rss_after_build_kb: u64,
    pub rss_after_setup_kb: u64,
    pub heap_live_after_setup: u64,
    pub heap_peak: u64,
    /// Wall time of each of the [`SEGMENTS`] slices.
    pub seg_ns: Vec<u64>,
    /// Host latency of each operation, pump advance included.
    pub op_ns: Vec<u32>,
    /// Sim-time latency of each operation, as the client perceives it.
    pub sim_ns: Vec<u64>,
    /// Whether each operation succeeded.
    pub ok: Vec<bool>,
    pub measured_allocs: Counts,
    pub spans: Vec<OpSpans>,
    pub max_lag_before_drain: u64,
    pub shipped_records: u64,
    pub shipping_batches: u64,
    /// Operations that failed, set-up's provisioning ones included.
    pub failed: u64,
    pub stale_reads: u64,
    pub ok_searches: u64,
    /// Final check failures, in words (empty when all passed).
    pub check_failures: Vec<String>,
    /// FNV-1a over every operation's `(ok, sim latency, error)` and the
    /// final subscriber and shipping totals: the sim-side fingerprint.
    pub digest: u64,
}

fn config(spec: &Spec, seed: u64, trace: TraceConfig) -> UdrConfig {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = spec.replication;
    cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    cfg.ship_batch = ShipBatchConfig::coalesce(64, SimDuration::from_millis(5));
    cfg.seed = seed;
    cfg.trace = trace;
    cfg
}

/// Figure 2's backbone drops one message in 10⁴, which fails about that
/// share of operations. The benchmark's contract wants workloads on which
/// none fails, so the deployment keeps its latency model and loses the loss.
fn make_backbone_lossless(udr: &mut Udr) {
    let sites = udr.config().sites;
    for a in 0..sites {
        for b in a + 1..sites {
            let (a, b) = (SiteId(a), SiteId(b));
            let latency = udr.net.topology().link(a, b).latency.clone();
            udr.net
                .topology_mut()
                .set_link(a, b, LinkProfile::lossless(latency));
        }
    }
}

fn elapsed_u32(from: Instant, to: Instant) -> u32 {
    u32::try_from((to - from).as_nanos()).unwrap_or(NOT_RUN - 1)
}

/// `Udr::execute`'s timeout clamp (§2.3), which the staged drive must
/// repeat because it bypasses `execute`.
fn clamp_timeout(udr: &Udr, outcome: OpOutcome) -> OpOutcome {
    let timeout = udr.config().frash.op_timeout;
    if outcome.is_ok() && outcome.latency > timeout {
        return OpOutcome {
            result: Err(UdrError::Timeout),
            latency: timeout,
            served_by: None,
            crossed_backbone: false,
            breakdown: outcome.breakdown,
        };
    }
    outcome
}

/// One operation of a traced repetition. A staged operation goes through
/// the public calls `Udr::execute` makes for a bare op, mirroring
/// `pipeline::run`: an `Err(outcome)` from a stage *is* the operation's
/// outcome (consensus writes complete inside `route`).
fn traced_op(
    udr: &mut Udr,
    op: &Op,
    at: SimTime,
    staged: bool,
    phase_start: Instant,
) -> (OpOutcome, OpSpans, u32) {
    let t0 = Instant::now();
    let mut spans = OpSpans {
        start_ns: (t0 - phase_start).as_nanos() as u64,
        ns: [NOT_RUN; 7],
        execute_ns: NOT_RUN,
        events: 0,
    };
    let mut last = t0;
    let mut next_span = 0;
    let mut lap = |spans: &mut OpSpans| {
        let now = Instant::now();
        spans.ns[next_span] = elapsed_u32(last, now);
        next_span += 1;
        last = now;
    };
    spans.events = udr.run(at) as u32;
    lap(&mut spans);
    if !staged {
        // `execute` drains the pump again and finds it empty.
        let out = udr
            .execute(OpRequest::new(&op.ldap).site(op.site).at(at))
            .into_op();
        let done = Instant::now();
        spans.execute_ns = elapsed_u32(last, done);
        return (out, spans, elapsed_u32(t0, done));
    }
    let mut ctx = PipelineCtx::new(&op.ldap, TxnClass::FrontEnd, op.site, at);
    lap(&mut spans);
    let outcome = 'chain: {
        let r = AccessStage::run(udr, &mut ctx);
        lap(&mut spans);
        if let Err(out) = r {
            break 'chain out;
        }
        let r = LocationStage::run(udr, &mut ctx);
        lap(&mut spans);
        if let Err(out) = r {
            break 'chain out;
        }
        let r = ReplicationStage::route(udr, &mut ctx);
        lap(&mut spans);
        if let Err(out) = r {
            break 'chain out;
        }
        let r = StorageStage::run(udr, &mut ctx);
        lap(&mut spans);
        let value = match r {
            Ok(value) => value,
            Err(out) => break 'chain out,
        };
        let out = ReplicationStage::finish(udr, &mut ctx, value);
        lap(&mut spans);
        out
    };
    let outcome = clamp_timeout(udr, outcome);
    let total = elapsed_u32(t0, Instant::now());
    (outcome, spans, total)
}

/// Run one repetition.
pub fn run_rep(spec: &Spec, inputs: &Inputs, seed: u64, drive: Drive, trace: TraceConfig) -> Rep {
    alloc::reset_peak();
    let n_ops = inputs.ops.len();

    // ---- set-up: build, provision, settle ---------------------------------
    let setup_started = Instant::now();
    let mut udr = Udr::build(config(spec, seed, trace)).expect("valid benchmark config");
    make_backbone_lossless(&mut udr);
    let rss_after_build_kb = proc_status_kb("VmRSS:");
    let allocs_before = Counts::now();
    let provision_started = Instant::now();
    let mut provisioned = 0u64;
    for (i, sub) in inputs.subs.iter().enumerate() {
        let out = udr.provision_subscriber(
            &sub.ids,
            sub.home_region,
            SiteId(0),
            Inputs::provision_at(i),
        );
        provisioned += u64::from(out.is_ok());
    }
    let provision_ns_per_sub =
        provision_started.elapsed().as_nanos() as f64 / inputs.subs.len() as f64;
    let provision_allocs = Counts::now().since(allocs_before);
    udr.advance_to(inputs.first_op_at());
    let setup_s = setup_started.elapsed().as_secs_f64();
    let rss_after_setup_kb = proc_status_kb("VmRSS:");
    let heap_live_after_setup = alloc::live_bytes();

    // ---- measured phase ------------------------------------------------------
    let mut seg_ns = Vec::with_capacity(SEGMENTS);
    let mut op_ns = Vec::with_capacity(n_ops);
    let mut sim_ns = Vec::with_capacity(n_ops);
    let mut ok = Vec::with_capacity(n_ops);
    let mut read_value = Vec::with_capacity(n_ops);
    let mut errors: Vec<(usize, String)> = Vec::new();
    let mut spans = Vec::with_capacity(if drive == Drive::Traced { n_ops } else { 0 });
    let allocs_before = Counts::now();
    let phase_start = Instant::now();
    for seg in 0..SEGMENTS {
        let range = n_ops * seg / SEGMENTS..n_ops * (seg + 1) / SEGMENTS;
        let seg_start = Instant::now();
        for i in range {
            let op = &inputs.ops[i];
            let at = inputs.op_at(i);
            let (out, ns) = match drive {
                Drive::Execute => {
                    let t0 = Instant::now();
                    let out = udr
                        .execute(OpRequest::new(&op.ldap).site(op.site).at(at))
                        .into_op();
                    (out, elapsed_u32(t0, Instant::now()))
                }
                Drive::Traced => {
                    let (out, s, ns) = traced_op(&mut udr, op, at, i % 2 == 0, phase_start);
                    spans.push(s);
                    (out, ns)
                }
            };
            op_ns.push(ns);
            sim_ns.push(out.latency.as_nanos());
            ok.push(out.is_ok());
            read_value.push(match &out.result {
                Ok(Some(entry)) => odb_mask(entry),
                Ok(None) => 0,
                Err(e) => {
                    errors.push((i, e.to_string()));
                    0
                }
            });
        }
        seg_ns.push(seg_start.elapsed().as_nanos() as u64);
    }
    let measured_allocs = Counts::now().since(allocs_before);
    let heap_peak = alloc::peak_bytes();

    // ---- drain and check -----------------------------------------------------
    let max_lag_before_drain = udr.max_replica_lag();
    let end = inputs.op_at(n_ops) + SETTLE;
    udr.run(end);
    let mut check_failures = Vec::new();
    // Only the async modes must report settled: consensus ensembles were
    // seen to idle one committed entry apart (lag 1) for over a minute of
    // sim-time, and their reads go through the leader's read index anyway,
    // so the read-back below is the whole check there.
    let consensus = matches!(spec.replication, ReplicationMode::Consensus { .. });
    if !consensus && !udr.replication_settled() {
        check_failures.push(format!(
            "replication not settled {SETTLE:?} after the last op (lag {})",
            udr.max_replica_lag()
        ));
    }
    let shadow = Shadow::replay(inputs, &sim_ns, &ok, &read_value);
    readback(&mut udr, inputs, &shadow, end, &mut check_failures);
    if consensus && shadow.stale_reads != 0 {
        check_failures.push(format!(
            "{} stale reads under consensus, which promises none",
            shadow.stale_reads
        ));
    }
    let failed = errors.len() as u64 + (inputs.subs.len() as u64 - provisioned);
    if failed as f64 >= 1e-3 * n_ops as f64 {
        check_failures.push(format!("{failed} of {n_ops} operations failed"));
    }

    let mut digest = FNV_OFFSET;
    let mut next_error = errors.iter().peekable();
    for i in 0..n_ops {
        digest = fnv1a(digest, &[u8::from(ok[i])]);
        digest = fnv1a(digest, &sim_ns[i].to_be_bytes());
        if let Some((_, text)) = next_error.next_if(|(at, _)| *at == i) {
            digest = fnv1a(digest, text.as_bytes());
        }
    }
    let shipped_records = udr.shipped_records();
    let total_subscribers = udr.total_subscribers();
    digest = fnv1a(digest, &total_subscribers.to_be_bytes());
    digest = fnv1a(digest, &shipped_records.to_be_bytes());

    Rep {
        setup_s,
        provision_ns_per_sub,
        provision_allocs,
        provisioned,
        rss_after_build_kb,
        rss_after_setup_kb,
        heap_live_after_setup,
        heap_peak,
        seg_ns,
        op_ns,
        sim_ns,
        ok,
        measured_allocs,
        spans,
        max_lag_before_drain,
        shipped_records,
        shipping_batches: udr.shipping_batches(),
        failed,
        stale_reads: shadow.stale_reads,
        ok_searches: shadow.ok_searches,
        check_failures,
        digest,
    }
}

fn odb_mask(entry: &udr_model::attrs::Entry) -> u64 {
    entry
        .get(AttrId::OdbMask)
        .and_then(AttrValue::as_u64)
        .unwrap_or(u64::MAX)
}

/// The benchmark's own record of what each subscriber's `OdbMask` must be:
/// the value of the last `Modify` the deployment acknowledged.
struct Shadow {
    /// Per subscriber: the newest acknowledged value (0 = as provisioned).
    acked: Vec<u64>,
    /// Per subscriber: whether a `Modify` failed, which leaves the stored
    /// value undetermined.
    unsure: Vec<bool>,
    stale_reads: u64,
    ok_searches: u64,
}

impl Shadow {
    /// Walk the stream in arrival order. A `Modify` counts as acknowledged
    /// from the sim instant its reply reached the client, so a `Search`
    /// arriving while an earlier `Modify` is still in flight may return the
    /// older value without being stale.
    fn replay(inputs: &Inputs, sim_ns: &[u64], ok: &[bool], read_value: &[u64]) -> Shadow {
        let n = inputs.subs.len();
        let mut shadow = Shadow {
            acked: vec![0; n],
            unsure: vec![false; n],
            stale_reads: 0,
            ok_searches: 0,
        };
        // Per subscriber: (ack instant, value) of writes not yet acknowledged.
        let mut in_flight: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); n];
        for (i, op) in inputs.ops.iter().enumerate() {
            let key = op.key as usize;
            let at = inputs.op_at(i);
            let acked = &mut shadow.acked[key];
            in_flight[key].retain(|&(ack_at, value)| {
                if ack_at <= at {
                    *acked = (*acked).max(value);
                }
                ack_at > at
            });
            match (op.is_write(), ok[i]) {
                (true, true) => in_flight[key].push((at + SimDuration(sim_ns[i]), op.value)),
                (true, false) => shadow.unsure[key] = true,
                (false, true) => {
                    shadow.ok_searches += 1;
                    shadow.stale_reads += u64::from(read_value[i] < *acked);
                }
                (false, false) => {}
            }
        }
        for (key, writes) in in_flight.iter().enumerate() {
            for &(_, value) in writes {
                shadow.acked[key] = shadow.acked[key].max(value);
            }
        }
        shadow
    }
}

/// After the drain every site must read back the shadow's value.
fn readback(
    udr: &mut Udr,
    inputs: &Inputs,
    shadow: &Shadow,
    from: SimTime,
    failures: &mut Vec<String>,
) {
    let n = inputs.subs.len();
    let mut at = from;
    let mut wrong = 0u64;
    for k in 0..READBACK_KEYS.min(n) {
        let key = k * n / READBACK_KEYS.min(n);
        if shadow.unsure[key] {
            continue;
        }
        let op = LdapOp::Search {
            base: Dn::for_identity(Identity::Imsi(inputs.subs[key].ids.imsi)),
            attrs: vec![AttrId::OdbMask],
        };
        for site in 0..udr.config().sites {
            at += OP_GAP;
            let out = udr
                .execute(OpRequest::new(&op).site(SiteId(site)).at(at))
                .into_op();
            match &out.result {
                Ok(Some(entry)) if odb_mask(entry) == shadow.acked[key] => {}
                _ => wrong += 1,
            }
        }
    }
    if wrong > 0 {
        failures.push(format!(
            "{wrong} read-backs after the drain did not return the last acknowledged value"
        ));
    }
}
