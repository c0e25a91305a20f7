//! Shared experiment scaffolding: provisioned systems, traffic driving
//! (with or without client retries), the interleaved PS write stream
//! most experiments use, and the islanded dual-PS drive of e10 and e16.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use udr_core::{OpRequest, Udr, UdrConfig};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::ReplicationMode;
use udr_model::error::UdrError;
use udr_model::identity::{Identity, IdentitySet, Impi, Impu, Imsi, Msisdn};
use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::tenant::TenantId;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::{FaultScript, SimRng};
use udr_workload::retry::RetryPolicy;
use udr_workload::{PopulationBuilder, Subscriber, TrafficEvent, TrafficModel};

/// Virtual-time shorthand.
pub fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// The identities of test subscriber `n`: IMSI `21401` and MSISDN `346`
/// followed by `n`, and no IMS identities.
pub fn numbered_ids(n: u64) -> IdentitySet {
    IdentitySet {
        imsi: Imsi::new(format!("21401{n:010}")).expect("a numbered IMSI is valid"),
        msisdn: Msisdn::new(format!("346{n:08}")).expect("a numbered MSISDN is valid"),
        impus: vec![],
        impi: None,
    }
}

/// Test subscriber `n`'s identities with one IMPU and an IMPI, `user`
/// followed by `n` at `ims.example.com`.
pub fn numbered_ims_ids(n: u64) -> IdentitySet {
    let user = format!("user{n}@ims.example.com");
    IdentitySet {
        impus: vec![Impu::new(format!("sip:{user}")).expect("a numbered IMPU is valid")],
        impi: Some(Impi::new(user).expect("a numbered IMPI is valid")),
        ..numbered_ids(n)
    }
}

/// How the PS retries one operation (§2.4): up to `attempts` tries, each
/// moving its clock on by `step`.
#[derive(Debug, Clone, Copy)]
pub struct PsRetry {
    /// Tries in all, the first included.
    pub attempts: u32,
    /// How far each try moves the PS's clock on, success or not.
    pub step: SimDuration,
}

impl PsRetry {
    /// The PS's rule: rare WAN loss can time a try out, so four tries,
    /// 2 ms apart.
    pub const STANDARD: PsRetry = PsRetry {
        attempts: 4,
        step: SimDuration::from_millis(2),
    };

    /// Issue `op` at `*at`, and again while it fails with a retryable
    /// error and tries are left; `*at` moves on by `step` after every
    /// try. Returns the last try's result and the number of retries.
    pub fn run<T>(
        self,
        at: &mut SimTime,
        mut op: impl FnMut(SimTime) -> Result<T, UdrError>,
    ) -> (Result<T, UdrError>, u64) {
        let mut retries = 0;
        loop {
            let result = op(*at);
            *at += self.step;
            match result {
                Err(e) if e.is_retryable() && retries + 1 < self.attempts => retries += 1,
                result => return (result, u64::from(retries)),
            }
        }
    }
}

/// Run the event pump in 100 ms steps from `at` until every migration
/// reaches a terminal state, and return the instant it got to; panics when
/// one is still running 30 s on.
pub fn settle_migrations(udr: &mut Udr, mut at: SimTime) -> SimTime {
    for _ in 0..300 {
        if udr.active_migrations() == 0 {
            break;
        }
        at += SimDuration::from_millis(100);
        udr.advance_to(at);
    }
    assert_eq!(udr.active_migrations(), 0, "migrations never settled");
    at
}

/// A reusable experiment scenario: a built UDR plus its population.
pub struct Scenario {
    /// The system under test.
    pub udr: Udr,
    /// The provisioned population.
    pub population: Vec<Subscriber>,
}

/// Build a UDR and provision `n` subscribers (home regions per the
/// population builder), leaving virtual time just past the provisioning
/// phase.
pub fn provisioned_system(cfg: UdrConfig, n: u64, seed: u64) -> Scenario {
    let mut udr = Udr::build(cfg).expect("valid experiment configuration");
    let mut rng = SimRng::seed_from_u64(seed);
    let population = PopulationBuilder::new(udr.config().sites).build(n, &mut rng);
    let mut at = SimTime::ZERO + SimDuration::from_millis(1);
    if matches!(
        udr.config().frash.replication,
        ReplicationMode::Consensus { .. }
    ) {
        // Let the ensembles elect their first leaders before provisioning
        // traffic arrives; writes during the initial election gap would
        // only burn retry budget. Non-consensus runs are untouched.
        udr.run(t(5));
        at = t(5) + SimDuration::from_millis(1);
    }
    for sub in &population {
        let (result, _) = PsRetry::STANDARD.run(&mut at, |at| {
            udr.provision_subscriber(&sub.ids, sub.home_region, SiteId(0), at)
                .op
                .result
        });
        if let Err(e) = result {
            panic!("provisioning failed: {e}");
        }
    }
    // Zero the counters so experiments measure only their own phase.
    udr.metrics.ps_ops = Default::default();
    udr.metrics.ps_latency = Default::default();
    udr.metrics.fe_ops = Default::default();
    udr.metrics.fe_latency = Default::default();
    udr.metrics.stage_latency = Default::default();
    udr.metrics.backbone_ops = 0;
    udr.metrics.local_ops = 0;
    udr.metrics.consensus_commits = 0;
    Scenario { udr, population }
}

/// Drive a pre-generated FE event stream, optionally interleaving a PS
/// write every `ps_every` (None = no PS stream). Returns (fe events run,
/// ps writes attempted).
pub fn run_events(
    scenario: &mut Scenario,
    events: &[TrafficEvent],
    ps_every: Option<SimDuration>,
    ps_site: SiteId,
) -> (u64, u64) {
    let mut fe_count = 0u64;
    let mut ps_count = 0u64;
    let mut ps_idx = 0usize;
    let mut next_ps = events.first().map(|e| e.at).unwrap_or(SimTime::ZERO);
    for ev in events {
        if let Some(gap) = ps_every {
            while next_ps <= ev.at {
                let sub = &scenario.population[ps_idx % scenario.population.len()];
                scenario.udr.modify_services(
                    &Identity::Imsi(sub.ids.imsi),
                    vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(ps_idx as u64))],
                    ps_site,
                    next_ps,
                );
                ps_idx += 1;
                ps_count += 1;
                next_ps += gap;
            }
        }
        let sub = &scenario.population[ev.subscriber];
        scenario.udr.execute(
            OpRequest::procedure(ev.kind, &sub.ids)
                .site(ev.fe_site)
                .at(ev.at)
                .tenant(ev.tenant),
        );
        fe_count += 1;
    }
    (fe_count, ps_count)
}

/// Deployment seed of the islanded dual-PS drive.
pub const DUAL_PS_SEED: u64 = 77;

/// Writes one PS instance attempted and how many succeeded.
#[derive(Debug, Clone, Copy, Default)]
pub struct SideCount {
    /// Writes that succeeded.
    pub ok: u64,
    /// Writes attempted.
    pub attempts: u64,
}

impl SideCount {
    fn record(&mut self, ok: bool) {
        self.attempts += 1;
        self.ok += u64::from(ok);
    }
}

/// The scenario and per-side write counts [`islanded_dual_ps`] leaves.
pub struct DualPsRun {
    /// The deployment after the drive and its settle tail.
    pub scenario: Scenario,
    /// Writes from the PS instance at site 0, the majority side.
    pub majority: SideCount,
    /// Writes from the PS instance at site 2, the island.
    pub island: SideCount,
}

/// §5's two PS instances writing through a site-2 island.
///
/// Builds figure 2 under `mode` (seed [`DUAL_PS_SEED`], 90 subscribers
/// provisioned with seed 8) and islands site 2 from t = 100 s for
/// `partition_s`. Throughout the window both sides write the same
/// subscribers: `OdbMask` from site 0 every `gap_ms` (first at
/// 100 s + 37 ms) and `CallForwarding` from site 2 half a gap later. Then
/// the pump runs 120 s past the heal.
pub fn islanded_dual_ps(mode: ReplicationMode, partition_s: u64, gap_ms: u64) -> DualPsRun {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = mode;
    cfg.seed = DUAL_PS_SEED;
    let mut s = provisioned_system(cfg, 90, 8);
    s.udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(partition_s),
        [SiteId(2)],
    ));

    let mut at = t(100) + SimDuration::from_millis(37);
    let end = t(100) + SimDuration::from_secs(partition_s);
    let (mut majority, mut island) = (SideCount::default(), SideCount::default());
    let mut i = 0u64;
    while at < end {
        let sub = &s.population[(i % s.population.len() as u64) as usize];
        let id = Identity::Imsi(sub.ids.imsi);
        let w = s.udr.modify_services(
            &id,
            vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i))],
            SiteId(0),
            at,
        );
        majority.record(w.is_ok());
        let w = s.udr.modify_services(
            &id,
            vec![AttrMod::Set(
                AttrId::CallForwarding,
                format!("34{i:09}").into(),
            )],
            SiteId(2),
            at + SimDuration::from_millis(gap_ms / 2),
        );
        island.record(w.is_ok());
        i += 1;
        at += SimDuration::from_millis(gap_ms);
    }
    s.udr.advance_to(end + SimDuration::from_secs(120));
    DualPsRun {
        scenario: s,
        majority,
        island,
    }
}

/// Final fate of one offered procedure driven through
/// [`run_events_with_retries`].
#[derive(Debug, Clone)]
pub struct RetriedProcedure {
    /// The procedure kind offered.
    pub kind: ProcedureKind,
    /// The tenant that offered it.
    pub tenant: TenantId,
    /// When the *first* attempt started (the offered-load instant).
    pub offered_at: SimTime,
    /// Attempts consumed (1 = succeeded or gave up first try).
    pub attempts: u32,
    /// Whether any attempt eventually succeeded.
    pub success: bool,
    /// When the final attempt finished.
    pub finished_at: SimTime,
    /// The last attempt's failure, when all attempts failed.
    pub failure: Option<UdrError>,
}

/// Drive an FE event stream where failed procedures are *retried by the
/// client* under `policy` — and every retry re-enters the offered load
/// at its backoff instant, interleaved in virtual-time order with the
/// not-yet-run originals. This is the loop that reproduces metastable
/// retry storms: under overload, retry traffic competes with (and
/// displaces) first attempts.
///
/// Non-retryable failures (data errors) stop a procedure immediately;
/// retryable ones ([`UdrError::is_retryable`]) consume attempts until
/// the policy's budget runs out. Returns one record per original event,
/// in the input order.
pub fn run_events_with_retries(
    scenario: &mut Scenario,
    events: &[TrafficEvent],
    policy: &RetryPolicy,
    seed: u64,
) -> Vec<RetriedProcedure> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut records: Vec<RetriedProcedure> = events
        .iter()
        .map(|ev| RetriedProcedure {
            kind: ev.kind,
            tenant: ev.tenant,
            offered_at: ev.at,
            attempts: 0,
            success: false,
            finished_at: ev.at,
            failure: None,
        })
        .collect();
    // Min-heap over (instant, tiebreak sequence): originals and pending
    // retries drain in one deterministic virtual-time order.
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (idx, ev) in events.iter().enumerate() {
        heap.push(Reverse((ev.at, seq, idx)));
        seq += 1;
    }
    while let Some(Reverse((at, _, idx))) = heap.pop() {
        let ev = &events[idx];
        let sub = &scenario.population[ev.subscriber];
        let attempt = records[idx].attempts;
        let out = scenario
            .udr
            .execute(
                OpRequest::procedure(ev.kind, &sub.ids)
                    .site(ev.fe_site)
                    .at(at)
                    .tenant(ev.tenant),
            )
            .into_procedure();
        records[idx].attempts = attempt + 1;
        records[idx].finished_at = at + out.latency;
        if out.success {
            records[idx].success = true;
            // A recovered procedure carries no failure: the field means
            // "why it ultimately failed", not "did it ever stumble".
            records[idx].failure = None;
            continue;
        }
        let failure = out.failure.expect("failed procedure carries its error");
        let retryable = failure.is_retryable();
        records[idx].failure = Some(failure);
        if retryable && policy.should_retry(attempt) {
            let backoff = policy.backoff(attempt, &mut rng);
            heap.push(Reverse((at + out.latency + backoff, seq, idx)));
            seq += 1;
        }
    }
    records
}

/// Generate a standard traffic stream for a scenario.
pub fn standard_traffic(
    scenario: &Scenario,
    per_sub_rate: f64,
    roaming: f64,
    start: SimTime,
    end: SimTime,
    seed: u64,
) -> Vec<TrafficEvent> {
    let mut model = TrafficModel::flat(per_sub_rate, scenario.udr.config().sites);
    model.roaming_probability = roaming;
    let mut rng = SimRng::seed_from_u64(seed);
    model.generate(&scenario.population, start, end, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioned_system_is_clean() {
        let s = provisioned_system(UdrConfig::figure2(), 30, 1);
        assert_eq!(s.udr.total_subscribers(), 30);
        assert_eq!(s.udr.metrics.fe_ops.attempts(), 0);
        assert_eq!(s.udr.metrics.ps_ops.attempts(), 0);
    }

    #[test]
    fn retries_recover_transient_failures_deterministically() {
        let run = || {
            let mut cfg = UdrConfig::figure2();
            cfg.ldap_servers_per_cluster = 1;
            cfg.ldap_ops_per_sec = 400.0; // overloadable
            let mut s = provisioned_system(cfg, 20, 6);
            let events = standard_traffic(&s, 1.2, 0.0, t(10), t(30), 7);
            let policy = RetryPolicy::exponential(4, SimDuration::from_millis(40));
            run_events_with_retries(&mut s, &events, &policy, 13)
        };
        let records = run();
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.attempts >= 1));
        assert!(records.iter().all(|r| r.attempts <= 4));
        // Retries happen and recover at least some failures.
        let retried = records.iter().filter(|r| r.attempts > 1).count();
        let recovered = records
            .iter()
            .filter(|r| r.attempts > 1 && r.success)
            .count();
        assert!(retried > 0, "the overloaded station must force retries");
        assert!(recovered > 0, "some retries must land after the backlog");
        // The whole retry loop is deterministic per seed.
        let again = run();
        assert_eq!(records.len(), again.len());
        for (a, b) in records.iter().zip(&again) {
            assert_eq!(a.attempts, b.attempts);
            assert_eq!(a.success, b.success);
            assert_eq!(a.finished_at, b.finished_at);
        }
    }

    #[test]
    fn run_events_drives_both_streams() {
        let mut s = provisioned_system(UdrConfig::figure2(), 30, 2);
        let events = standard_traffic(&s, 0.05, 0.0, t(10), t(40), 3);
        let (fe, ps) = run_events(&mut s, &events, Some(SimDuration::from_secs(5)), SiteId(0));
        assert_eq!(fe as usize, events.len());
        assert!(ps > 0);
        assert!(s.udr.metrics.fe_ops.ok > 0);
        assert!(s.udr.metrics.ps_ops.ok > 0);
    }
}

#[cfg(test)]
mod consensus_smoke {
    use super::*;
    use udr_model::config::{ReadPolicy, ReplicationMode};

    #[test]
    fn consensus_mode_provisions_and_serves() {
        let mut cfg = UdrConfig::figure2();
        cfg.frash.replication = ReplicationMode::Consensus { n: 3 };
        cfg.frash.replication_factor = 3;
        cfg.frash.fe_read_policy = ReadPolicy::MasterOnly;
        let mut s = provisioned_system(cfg, 10, 1);
        assert_eq!(s.udr.total_subscribers(), 10);
        let events = standard_traffic(&s, 0.1, 0.3, t(10), t(30), 5);
        let (fe, _) = run_events(&mut s, &events, Some(SimDuration::from_secs(5)), SiteId(0));
        assert!(fe > 0);
        assert!(s.udr.metrics.fe_ops.ok > 0, "{:?}", s.udr.metrics.fe_ops);
        assert_eq!(
            s.udr.metrics.fe_ops.unavailable + s.udr.metrics.fe_ops.failed_other,
            0
        );
        assert!(s.udr.metrics.ps_ops.ok > 0);
        assert!(s.udr.metrics.consensus_commits > 0);
        assert!(s.udr.metrics.consensus_messages > 0);
        assert!(s.udr.consensus_violations().is_empty());
        assert_eq!(s.udr.metrics.staleness.stale_fraction(), 0.0);
    }
}
