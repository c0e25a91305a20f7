//! Deterministic fault-campaign cells: drive one (replication mode ×
//! read policy × fault scenario) configuration through a seeded
//! [`FaultScript`] and measure what it actually gives up, as a
//! [`CapVerdict`]. One driver, [`run_cell`], serves every replication
//! family: e22 runs the shipping families through it, e25 the consensus
//! column.
//!
//! One cell runs four deterministic streams against a loss-free
//! figure-2 deployment:
//!
//! 1. a read-only front-end stream (Poisson, roaming) from every site;
//! 2. a per-subscriber write stream carrying a **sequence oracle**: each
//!    write sets `OdbMask` to a globally increasing sequence number, and
//!    every *acknowledged* value is remembered;
//! 3. the compiled fault timeline of the scenario's [`FaultScript`];
//! 4. a post-traffic settle phase that polls until replication fully
//!    re-converges (the heal-time measurement).
//!
//! Three decisions follow the mode's advertised contract and are made
//! once, from [`CampaignConfig::mode`]:
//!
//! * **what a read observes** — the shipping families run read
//!   procedures; a consensus cell reads `OdbMask` with a one-attribute
//!   search and records every read and write into an interval
//!   [`History`] for the linearizability checker;
//! * **the oracle-write values** — they start above `1 << 32`, clear of
//!   any provisioned `OdbMask`, so a history read names exactly one
//!   write (the shipping families' reports are byte-identical with this
//!   base, so every family uses it);
//! * **the lost-write oracle** — for the shipping families, a monotone
//!   scan of every master: a final value *below* the highest acknowledged
//!   sequence is a lost acknowledged write (writes per subscriber are
//!   issued sequentially in virtual time, so last-writer-wins merges
//!   preserve monotonicity). Under consensus that scan would misjudge a
//!   legal "zombie" — a timed-out lower write that commits after a later
//!   acknowledged one — so an acknowledged value is durable iff it appears
//!   in the final chosen log, and a value chosen twice is a duplicate.
//!   Any partition copy hosted outside its replica set is a duplicate too.
//!
//! Writes are quiesced for one second before each scheduled SE crash:
//! the campaign measures the *replication* loss channel, not the §4.2
//! volatile-media durability gap (e09/e11 measure that one on purpose).
//!
//! Everything — population, traffic, faults, network jitter — derives
//! from the cell seed, so replaying a cell reproduces the identical
//! [`CellOutcome`], field for field. CI regresses on exactly that.

use std::collections::HashMap;

use udr_core::{OpRequest, StageLatencyMetrics, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_metrics::CapVerdict;
use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};
use udr_model::config::{ReadPolicy, ReplicationMode, TxnClass};
use udr_model::identity::Identity;
use udr_model::ids::{SeId, SiteId};
use udr_model::procedures::ProcedureKind;
use udr_model::session::SessionToken;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::FaultScript;
use udr_trace::{TraceConfig, TraceExport};
use udr_workload::{PartitionScenario, ProcedureMix, SessionBook, TrafficModel};

use crate::harness::provisioned_system;
use crate::json::{BenchReport, JsonValue};
use crate::linear::{HistOp, History, OpKind};

/// How long writes are quiesced ahead of a scheduled SE crash.
const CRASH_QUIESCE: SimDuration = SimDuration::from_secs(1);
/// Settle-poll step while waiting for replication to re-converge.
const SETTLE_STEP: SimDuration = SimDuration::from_millis(50);
/// Give-up horizon for the settle poll.
const SETTLE_LIMIT: SimDuration = SimDuration::from_secs(60);
/// Every N-th write of a subscriber is issued from a roamed site.
const ROAM_EVERY: u64 = 5;
/// Oracle-write values live above this base.
const SEQ_BASE: u64 = 1 << 32;

/// One cell of the fault-campaign grid.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Replication mode under test.
    pub mode: ReplicationMode,
    /// Front-end read policy under test.
    pub fe_policy: ReadPolicy,
    /// Fault scenario under test.
    pub scenario: PartitionScenario,
    /// Cell seed: population, traffic, faults and network jitter all
    /// derive from it.
    pub seed: u64,
    /// Provisioned subscribers (spread over the 3 home regions).
    pub subscribers: u64,
    /// Read procedures per subscriber per second.
    pub read_rate: f64,
    /// Gap between one subscriber's oracle writes.
    pub write_period: SimDuration,
    /// Probability a read roams outside the home region.
    pub roaming: f64,
    /// When traffic starts.
    pub traffic_start: SimTime,
    /// When traffic stops.
    pub traffic_end: SimTime,
    /// When the fault window opens.
    pub fault_at: SimTime,
    /// How long the fault window lasts.
    pub fault_duration: SimDuration,
    /// Tracing for the cell's deployment. Disabled by default; when
    /// enabled the cell's [`TraceExport`] comes back in
    /// [`CellOutcome::trace`]. The trace never feeds the verdict, so
    /// enabling it must not change any measured field.
    pub trace: TraceConfig,
}

impl CampaignConfig {
    /// The standard e22 cell: 18 subscribers, 50 s of traffic, a 20 s
    /// fault window opening at t=20 s.
    pub fn new(mode: ReplicationMode, fe_policy: ReadPolicy, scenario: PartitionScenario) -> Self {
        let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
        CampaignConfig {
            mode,
            fe_policy,
            scenario,
            seed: 22,
            subscribers: 18,
            read_rate: 0.3,
            write_period: SimDuration::from_millis(2500),
            roaming: 0.35,
            traffic_start: t(10),
            traffic_end: t(60),
            fault_at: t(20),
            fault_duration: SimDuration::from_secs(20),
            trace: TraceConfig::disabled(),
        }
    }

    /// The deployment this cell builds: figure-2 with the cell's
    /// replication mode and front-end read policy.
    pub fn udr_config(&self) -> UdrConfig {
        let mut cfg = UdrConfig::figure2();
        cfg.frash.replication = self.mode;
        cfg.frash.fe_read_policy = self.fe_policy;
        cfg.seed = self.seed ^ 0xE22;
        cfg.trace = self.trace;
        cfg
    }

    /// Whether the (mode × policy) pair is a valid configuration.
    /// Guarded read policies are rejected under quorum and multi-master
    /// replication (`FrashConfig::validate`); the grid skips those cells.
    pub fn is_valid(&self) -> bool {
        self.udr_config().validate().is_ok()
    }

    /// The scenario's fault script for this cell.
    pub fn script(&self) -> FaultScript {
        self.scenario.script(
            self.seed,
            self.udr_config().sites,
            self.fault_at,
            self.fault_duration,
        )
    }
}

/// What one campaign cell yields: the CAP verdict, the recorded
/// history, the protocol evidence, the stage latency and the trace.
/// The protocol evidence is 0 or empty for the shipping families.
#[derive(Debug)]
pub struct CellOutcome {
    /// The CAP verdict.
    pub verdict: CapVerdict,
    /// Consensus cells: the per-subscriber interval history of every
    /// read and write the cell issued (refused or timed-out writes
    /// recorded as pending — they may commit later), plus one final
    /// committed read per subscriber. Empty for the shipping families.
    pub history: History,
    /// Elections started across all ensembles (failover evidence).
    pub elections: u64,
    /// Serving-leader hand-offs observed (failover evidence).
    pub leader_changes: u64,
    /// Paxos safety violations observed — asserted empty in every cell.
    pub violations: Vec<String>,
    /// Client commands committed through the consensus logs after
    /// provisioning (its commits are zeroed with the other counters).
    pub commits: u64,
    /// Per-stage latency histograms of every successful operation the
    /// cell drove (the serialisable `UdrMetrics` slice e25 embeds in its
    /// report's `"metrics"` object).
    pub stage_latency: StageLatencyMetrics,
    /// The cell's trace export when [`CampaignConfig::trace`] is
    /// enabled; `None` otherwise. Never feeds the verdict.
    pub trace: Option<TraceExport>,
}

/// One merged traffic item, issued from `site`: a read when `read`
/// names its procedure, an oracle write otherwise.
struct CampaignOp {
    at: SimTime,
    subscriber: usize,
    site: SiteId,
    read: Option<ProcedureKind>,
}

/// The `OdbMask` value an entry holds.
fn odb_mask(entry: &Entry) -> Option<u64> {
    match entry.get(AttrId::OdbMask) {
        Some(AttrValue::U64(v)) => Some(*v),
        _ => None,
    }
}

/// The `OdbMask` value the subscriber's authoritative master holds.
fn master_odb_mask(udr: &Udr, identity: &Identity) -> Option<u64> {
    udr.lookup_authority(identity)
        .and_then(|loc| {
            let master = udr.shard_map().master_of(loc.partition)?;
            udr.se(master)
                .read_committed(loc.partition, loc.uid)
                .ok()
                .flatten()
        })
        .and_then(|entry| odb_mask(&entry))
}

/// Attach the subscriber's session token, when it has one.
fn sessioned<'a>(req: OpRequest<'a>, token: Option<&'a mut SessionToken>) -> OpRequest<'a> {
    match token {
        Some(token) => req.session(token),
        None => req,
    }
}

/// Run one campaign cell under `script` — the scenario's own
/// ([`CampaignConfig::script`]) or any other (the determinism regression
/// replays random ones).
pub fn run_cell(cc: &CampaignConfig, script: &FaultScript) -> CellOutcome {
    let cfg = cc.udr_config();
    cfg.validate().expect("campaign cell configuration invalid");
    let sites = cfg.sites;
    let expected = cfg.frash.pacelc_for(TxnClass::FrontEnd).to_string();
    let consensus = matches!(cc.mode, ReplicationMode::Consensus { .. });
    let mut s = provisioned_system(cfg, cc.subscribers, cc.seed ^ 0x5EED);

    // Loss-free links: every failure in the run is then attributable to
    // the injected faults, never to background WAN loss.
    for a in 0..sites {
        for b in a + 1..sites {
            let mut link = s.udr.net.topology().link(SiteId(a), SiteId(b)).clone();
            link.loss = 0.0;
            s.udr
                .net
                .topology_mut()
                .set_link(SiteId(a), SiteId(b), link);
        }
    }

    s.udr.schedule_script(script);

    // Seed the checker with each subscriber's provisioned register value.
    let mut history = History::new();
    if consensus {
        for (i, sub) in s.population.iter().enumerate() {
            let initial = master_odb_mask(&s.udr, &sub.ids.imsi.into());
            history.set_initial(i, initial.unwrap_or(0));
        }
    }

    // ---- the two traffic streams, merged into one virtual-time order --
    let mut model = TrafficModel::flat(cc.read_rate, sites);
    model.mix = ProcedureMix::read_only();
    model.roaming_probability = cc.roaming;
    let mut rng = udr_sim::SimRng::seed_from_u64(cc.seed ^ 0xA11CE);
    let reads = model.generate(&s.population, cc.traffic_start, cc.traffic_end, &mut rng);

    let crash_instants = script.crash_instants();
    let quiesced = |at: SimTime| {
        crash_instants
            .iter()
            .any(|c| at + CRASH_QUIESCE >= *c && at < *c)
    };
    let mut ops: Vec<CampaignOp> = reads
        .iter()
        .map(|ev| CampaignOp {
            at: ev.at,
            subscriber: ev.subscriber,
            site: ev.fe_site,
            read: Some(ev.kind),
        })
        .collect();
    for (i, sub) in s.population.iter().enumerate() {
        // Spread subscribers' write phases evenly across one period.
        let offset =
            SimDuration::from_nanos(cc.write_period.as_nanos() * i as u64 / cc.subscribers.max(1));
        let mut at = cc.traffic_start + offset;
        let mut k = 0u64;
        while at < cc.traffic_end {
            if !quiesced(at) {
                // Mostly home-site writes (home-region placement puts the
                // master there); every ROAM_EVERY-th write roams, which is
                // what exercises cross-cut writes and multi-master
                // divergence.
                let site = if k % ROAM_EVERY == ROAM_EVERY - 1 {
                    SiteId((sub.home_region + 1 + (k as u32 % (sites - 1))) % sites)
                } else {
                    SiteId(sub.home_region)
                };
                ops.push(CampaignOp {
                    at,
                    subscriber: i,
                    site,
                    read: None,
                });
            }
            at += cc.write_period;
            k += 1;
        }
    }
    // Stable, so reads stay ahead of writes at equal instants.
    ops.sort_by_key(|op| op.at);

    // ---- drive ---------------------------------------------------------
    let mut verdict = CapVerdict::new(
        cc.mode.to_string(),
        cc.fe_policy.to_string(),
        cc.scenario.to_string(),
        expected,
    );
    let mut sessions = SessionBook::all(s.population.len());
    let mut seq = SEQ_BASE;
    let mut acked: Vec<u64> = vec![0; s.population.len()];
    let heal_at = script.end();
    let mut settled_at: Option<SimTime> = None;
    for &CampaignOp {
        at,
        subscriber,
        site,
        read,
    } in &ops
    {
        let in_fault = script.active_at(at);
        match read {
            Some(kind) => {
                let ids = &s.population[subscriber].ids;
                let session = sessions.token_mut(subscriber);
                let failure = if consensus {
                    let search = LdapOp::Search {
                        base: Dn::for_identity(Identity::Imsi(ids.imsi)),
                        attrs: vec![AttrId::OdbMask],
                    };
                    let req = OpRequest::new(&search).site(site).at(at);
                    let out = s.udr.execute(sessioned(req, session)).into_op();
                    match out.result {
                        Ok(entry) => {
                            let observed = entry.as_ref().and_then(odb_mask).unwrap_or(0);
                            history.record(
                                subscriber,
                                HistOp {
                                    inv: at,
                                    resp: Some(at + out.latency),
                                    kind: OpKind::Read(observed),
                                },
                            );
                            None
                        }
                        Err(e) => Some(e),
                    }
                } else {
                    let req = OpRequest::procedure(kind, ids).site(site).at(at);
                    let out = s.udr.execute(sessioned(req, session));
                    out.into_procedure().failure
                };
                verdict.record(false, in_fault, failure.as_ref());
            }
            None => {
                seq += 1;
                let write = LdapOp::Modify {
                    dn: Dn::for_identity(Identity::Imsi(s.population[subscriber].ids.imsi)),
                    mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(seq))],
                };
                let req = OpRequest::new(&write).site(site).at(at);
                let out = s
                    .udr
                    .execute(sessioned(req, sessions.token_mut(subscriber)))
                    .into_op();
                // A refused or timed-out write may still commit after the
                // fault heals ("zombie write"): pending, never acknowledged.
                let resp = match &out.result {
                    Ok(_) => {
                        acked[subscriber] = seq;
                        verdict.record(true, in_fault, None);
                        Some(at + out.latency)
                    }
                    Err(e) => {
                        verdict.record(true, in_fault, Some(e));
                        None
                    }
                };
                if consensus {
                    history.record(
                        subscriber,
                        HistOp {
                            inv: at,
                            resp,
                            kind: OpKind::Write(seq),
                        },
                    );
                }
            }
        }
        // Heal-time probe: the first instant at or after the last fault
        // window closing at which replication is observed fully
        // re-converged (probed at op granularity while traffic still
        // flows, then at SETTLE_STEP granularity after it stops).
        if settled_at.is_none() && at >= heal_at && s.udr.replication_settled() {
            settled_at = Some(at);
        }
    }

    // ---- settle: wait out re-election and catch-up ---------------------
    let baseline = heal_at.max(cc.traffic_end);
    let limit = baseline + SETTLE_LIMIT;
    let mut now = baseline;
    s.udr.advance_to(now);
    while !s.udr.replication_settled() && now < limit {
        now += SETTLE_STEP;
        s.udr.advance_to(now);
    }
    assert!(
        s.udr.replication_settled(),
        "replication never re-converged after {SETTLE_LIMIT}: lag={} partitioned={} degraded={}",
        s.udr.max_replica_lag(),
        s.udr.net.partitioned(),
        s.udr.net.degraded(),
    );
    verdict.heal_time = settled_at.unwrap_or(now).duration_since(heal_at);

    // ---- post-heal oracles --------------------------------------------
    if consensus {
        // Every acknowledged value must appear as a chosen post-image,
        // and no value may be chosen twice.
        let mut chosen: HashMap<u64, u64> = HashMap::new();
        for partition in s.udr.shard_map().partitions() {
            for (_, entry) in s.udr.consensus_write_history(partition) {
                if let Some(v) = entry.as_ref().and_then(odb_mask).filter(|&v| v >= SEQ_BASE) {
                    *chosen.entry(v).or_insert(0) += 1;
                }
            }
        }
        let lost = acked
            .iter()
            .filter(|&&a| a != 0 && !chosen.contains_key(&a));
        verdict.lost_acked_writes += lost.count() as u64;
        verdict.duplicated_records += chosen.values().map(|&n| n - 1).sum::<u64>();
        // Close every key's history with a committed read of the final
        // state: whatever the store converged to must itself be
        // linearizable against the recorded operations.
        for (i, sub) in s.population.iter().enumerate() {
            if let Some(v) = master_odb_mask(&s.udr, &sub.ids.imsi.into()) {
                let read = OpKind::Read(v);
                history.record(
                    i,
                    HistOp {
                        inv: now,
                        resp: Some(now),
                        kind: read,
                    },
                );
            }
        }
    } else {
        // An acknowledged write may be *overwritten* by a later sequence
        // (including a timed-out-but-committed one); it may never vanish.
        for (i, sub) in s.population.iter().enumerate() {
            if acked[i] != 0
                && master_odb_mask(&s.udr, &sub.ids.imsi.into()).is_none_or(|v| v < acked[i])
            {
                verdict.lost_acked_writes += 1;
            }
        }
    }
    for partition in s.udr.shard_map().partitions() {
        let members = s.udr.shard_map().members_of(partition).unwrap_or(&[]);
        for i in 0..s.udr.se_count() {
            let se = s.udr.se(SeId(i as u32));
            if se.partitions().any(|p| p == partition) && !members.contains(&se.id()) {
                verdict.duplicated_records += 1;
            }
        }
    }

    // ---- consistency debt from the run metrics ------------------------
    let m = &s.udr.metrics;
    verdict.stale_reads = m.staleness.stale_reads;
    verdict.guarantee_violations = m.guarantees.violations();
    verdict.divergence_merges = m.merges;
    verdict.merge_conflicts = m.merge_conflicts;
    CellOutcome {
        verdict,
        history,
        elections: s.udr.consensus_elections(),
        leader_changes: s.udr.consensus_leader_changes(),
        violations: s.udr.consensus_violations(),
        commits: s.udr.metrics.consensus_commits,
        stage_latency: std::mem::take(&mut s.udr.metrics.stage_latency),
        trace: s.udr.tracer.enabled().then(|| s.udr.trace_export()),
    }
}

/// The first 20 report columns of a cell, which e22 and e25 both emit
/// in this order: labels, traffic counts, availability, failure classes
/// and the oracle audit.
pub fn verdict_cells(v: &CapVerdict) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("mode", v.mode.clone().into()),
        ("policy", v.policy.clone().into()),
        ("scenario", v.scenario.clone().into()),
        ("expected_pacelc", v.expected_pacelc.clone().into()),
        ("reads_in_fault", v.reads_in_fault.into()),
        ("reads_ok_in_fault", v.reads_ok_in_fault.into()),
        ("writes_in_fault", v.writes_in_fault.into()),
        ("writes_ok_in_fault", v.writes_ok_in_fault.into()),
        ("reads_outside", v.reads_outside.into()),
        ("writes_outside", v.writes_outside.into()),
        ("read_avail_in_fault", v.read_availability_in_fault().into()),
        (
            "write_avail_in_fault",
            v.write_availability_in_fault().into(),
        ),
        ("avail_outside", v.availability_outside().into()),
        ("unavailable_by_design", v.unavailable_by_design.into()),
        ("unexpected_failures", v.unexpected_failures.into()),
        ("generic_timeouts", v.generic_timeouts.into()),
        ("stale_reads", v.stale_reads.into()),
        ("guarantee_violations", v.guarantee_violations.into()),
        ("lost_acked_writes", v.lost_acked_writes.into()),
        ("duplicated_records", v.duplicated_records.into()),
    ]
}

/// Serialise one report row on its own, under report `name` — the byte
/// string two replays of the same cell must agree on.
pub fn row_bytes(name: &str, seed: u64, cells: Vec<(&str, JsonValue)>) -> String {
    let mut r = BenchReport::new(name, seed);
    r.row(cells);
    r.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(
        mode: ReplicationMode,
        policy: ReadPolicy,
        scenario: PartitionScenario,
    ) -> CampaignConfig {
        let mut cc = CampaignConfig::new(mode, policy, scenario);
        cc.subscribers = 6;
        cc.read_rate = 0.15;
        cc.traffic_end = SimTime::ZERO + SimDuration::from_secs(40);
        cc.fault_duration = SimDuration::from_secs(12);
        cc
    }

    #[test]
    fn invalid_grid_cells_are_detectable() {
        let bad = CampaignConfig::new(
            ReplicationMode::MultiMaster,
            ReadPolicy::SessionConsistent,
            PartitionScenario::CleanPartition,
        );
        assert!(!bad.is_valid());
        let good = CampaignConfig::new(
            ReplicationMode::MultiMaster,
            ReadPolicy::NearestCopy,
            PartitionScenario::CleanPartition,
        );
        assert!(good.is_valid());
    }

    #[test]
    fn clean_partition_cell_measures_the_ap_shape() {
        let cc = small(
            ReplicationMode::AsyncMasterSlave,
            ReadPolicy::NearestCopy,
            PartitionScenario::CleanPartition,
        );
        let v = run_cell(&cc, &cc.script()).verdict;
        assert!(v.total_ops() > 100, "too little traffic: {}", v.total_ops());
        assert!(v.reads_in_fault > 0 && v.reads_outside > 0);
        assert!(v.sound(), "cell broke a non-negotiable: {v:?}");
        assert!(
            v.read_availability_in_fault() >= 0.99,
            "nearest-copy reads must ride out the cut: {}",
            v.read_availability_in_fault()
        );
        assert_eq!(v.lost_acked_writes, 0);
        assert_eq!(v.generic_timeouts, 0, "clean cuts must fail typed");
    }

    #[test]
    fn cells_replay_identically() {
        let cc = small(
            ReplicationMode::DualInSequence,
            ReadPolicy::BoundedStaleness { max_lag: 4 },
            PartitionScenario::Flapping,
        );
        let a = run_cell(&cc, &cc.script()).verdict;
        let b = run_cell(&cc, &cc.script()).verdict;
        assert_eq!(a, b, "same cell, different verdicts");
        assert!(a.sound());
    }
}
