//! E26 — multi-tenant isolation: one operator's retry storm must not
//! spend another operator's budget.
//!
//! §2.1 frames the UDR as a consolidation point for *several operators*.
//! E21 showed per-class admission control protects call setups from a
//! re-registration storm — but class protection alone is tenant-blind:
//! when tenant A's handsets storm, the shared registration bucket sheds
//! *every* tenant's registrations, so innocent tenant B pays for A's
//! outage. This experiment runs the same e21-style storm (8× aggregate
//! re-registration load, naive 6-attempt client retries) launched
//! entirely from tenant A's subscriber range, twice:
//!
//! * **shared** — both tenants ride the cluster-level class buckets
//!   only: B's call setups survive (class protection) but B's
//!   registrations are collateral damage of A's storm;
//! * **isolated** — tenant A carries a per-tenant registration budget
//!   (checked *after* the O(1) capability mask, *before* cluster
//!   admission): the storm is throttled to A's own budget at the door,
//!   the cluster stays healthy, and B's registrations ride through.
//!
//! Asserted and emitted as `BENCH_e26.json`:
//! * tenant B call-setup goodput ≥ 95 % through the storm (isolated);
//! * tenant A throttled to its budget (admitted ≤ rate × window + slack);
//! * zero cross-tenant leaks: every op is accounted to its own tenant,
//!   capability denials land on the offending tenant only, and an
//!   unknown tenant is forbidden everything;
//! * zero priority inversions in both runs;
//! * the same seed replays byte-identically (both runs executed twice).

use udr_bench::harness::{provisioned_system, run_events_with_retries, t, RetriedProcedure};
use udr_bench::json::BenchReport;
use udr_core::{OpRequest, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_metrics::{pct, Table};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{ReadPolicy, TxnClass};
use udr_model::error::UdrError;
use udr_model::identity::Identity;
use udr_model::ids::SiteId;
use udr_model::qos::PriorityClass;
use udr_model::tenant::{Capability, CapabilitySet, TenantBudget, TenantDirectory, TenantId};
use udr_model::time::SimDuration;
use udr_qos::QosConfig;
use udr_sim::SimRng;
use udr_workload::retry::RetryPolicy;
use udr_workload::{StormKind, TenantSlice, TrafficModel};

const SEED: u64 = 26;
/// Provisioned subscribers: 0..30 belong to tenant A, 30..60 to B.
const SUBSCRIBERS: u64 = 60;
const SPLIT: usize = 30;
/// Baseline procedures per subscriber per second.
const BASE_RATE: f64 = 5.0;
/// Storm extra load, as a multiple of the baseline aggregate — launched
/// entirely from tenant A's range.
const STORM_MULT: f64 = 8.0;
/// De-rated per-server LDAP throughput (ops/s), as in e21.
const LDAP_OPS_PER_SEC: f64 = 650.0;
/// Traffic window.
const RUN_START: u64 = 10;
const RUN_END: u64 = 90;
/// Storm window.
const STORM_START: u64 = 30;
const STORM_SECS: u64 = 30;
/// Tenant A's registration budget in the isolated run (LDAP ops/s).
const A_REG_RATE: f64 = 100.0;
const A_REG_BURST: f64 = 20.0;

const TENANT_A: TenantId = TenantId(0);
const TENANT_B: TenantId = TenantId(1);

/// Per-(tenant, class) tallies over the storm window.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct ClassTally {
    offered: u64,
    succeeded: u64,
    attempts: u64,
}

impl ClassTally {
    fn goodput(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.succeeded as f64 / self.offered as f64
        }
    }
}

#[derive(Debug, PartialEq)]
struct RunResult {
    label: &'static str,
    a_call: ClassTally,
    a_reg: ClassTally,
    b_call: ClassTally,
    b_reg: ClassTally,
    /// Tenant A registration-class LDAP ops past admission, whole run.
    a_reg_admitted: u64,
    a_offered: u64,
    b_offered: u64,
    total_offered: u64,
    a_shed: u64,
    b_shed: u64,
    inversions: u64,
    a_forbidden: u64,
    b_forbidden: u64,
    ghost_forbidden: u64,
    b_call_p99_ms: f64,
}

fn storm_window(r: &RetriedProcedure) -> bool {
    r.offered_at >= t(STORM_START) && r.offered_at < t(STORM_START + STORM_SECS)
}

fn directory(isolated: bool) -> TenantDirectory {
    let mut dir = TenantDirectory::empty();
    let a = dir.add_tenant(CapabilitySet::ALL);
    dir.add_tenant(CapabilitySet::front_end());
    if isolated {
        dir.set_budget(
            a,
            PriorityClass::Registration,
            TenantBudget {
                rate: A_REG_RATE,
                burst: A_REG_BURST,
            },
        );
    }
    dir
}

fn run(label: &'static str, isolated: bool) -> RunResult {
    let mut cfg = UdrConfig::figure2();
    cfg.ldap_servers_per_cluster = 1;
    cfg.ldap_ops_per_sec = LDAP_OPS_PER_SEC;
    cfg.frash.fe_read_policy = ReadPolicy::BoundedStaleness { max_lag: 4 };
    cfg.qos = QosConfig::protective();
    cfg.tenants = directory(isolated);
    cfg.seed = SEED;
    let mut s = provisioned_system(cfg, SUBSCRIBERS, 5);

    // A's post-outage mass re-registration: the storm surge targets
    // tenant A's subscriber range only; B's baseline rides alongside.
    let model = TrafficModel::with_storm(
        BASE_RATE,
        3,
        StormKind::Reregistration,
        t(STORM_START),
        SimDuration::from_secs(STORM_SECS),
        STORM_MULT,
    )
    .with_tenancy(vec![
        TenantSlice {
            tenant: TENANT_A,
            start: 0,
            end: SPLIT,
        },
        TenantSlice {
            tenant: TENANT_B,
            start: SPLIT,
            end: SUBSCRIBERS as usize,
        },
    ])
    .storm_from(TENANT_A);
    let mut rng = SimRng::seed_from_u64(SEED ^ 0x5707);
    let events = model.generate(&s.population, t(RUN_START), t(RUN_END), &mut rng);

    let records = run_events_with_retries(&mut s, &events, &RetryPolicy::aggressive(6), SEED);

    let mut tallies = [[ClassTally::default(); 2]; 2];
    for r in records.iter().filter(|r| storm_window(r)) {
        let class_idx = match PriorityClass::for_procedure(r.kind) {
            PriorityClass::CallSetup => 0,
            PriorityClass::Registration => 1,
            _ => continue,
        };
        let tally = &mut tallies[r.tenant.index()][class_idx];
        tally.offered += 1;
        tally.attempts += u64::from(r.attempts);
        if r.success {
            tally.succeeded += 1;
        }
    }

    // ---- capability probes: denials land on the offender only ---------
    let probe_sub = &s.population[SPLIT].ids; // a B subscriber
    let bare_write = LdapOp::Modify {
        dn: Dn::for_identity(Identity::Imsi(probe_sub.imsi)),
        mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(1))],
    };
    let denied = s
        .udr
        .execute(
            OpRequest::new(&bare_write)
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(RUN_END + 2))
                .tenant(TENANT_B),
        )
        .into_op();
    assert!(
        matches!(
            denied.result,
            Err(UdrError::Forbidden {
                tenant: TENANT_B,
                capability: Capability::DirectWrite
            })
        ),
        "front-end tenant must be denied bare writes: {:?}",
        denied.result
    );
    let ghost = TenantId(2);
    let bare_read = LdapOp::Search {
        base: Dn::for_identity(Identity::Imsi(probe_sub.imsi)),
        attrs: vec![AttrId::OdbMask],
    };
    let denied = s
        .udr
        .execute(
            OpRequest::new(&bare_read)
                .site(SiteId(0))
                .at(t(RUN_END + 2))
                .tenant(ghost),
        )
        .into_op();
    assert!(
        matches!(denied.result, Err(UdrError::Forbidden { .. })),
        "an unregistered tenant must be forbidden everything"
    );

    let m = &s.udr.metrics;
    let ca = m.qos.tenant(TENANT_A);
    let cb = m.qos.tenant(TENANT_B);
    let cg = m.qos.tenant(ghost);
    RunResult {
        label,
        a_call: tallies[0][0],
        a_reg: tallies[0][1],
        b_call: tallies[1][0],
        b_reg: tallies[1][1],
        a_reg_admitted: ca.class(PriorityClass::Registration).admitted(),
        a_offered: ca.offered(),
        b_offered: cb.offered(),
        total_offered: m.qos.total_offered(),
        a_shed: ca.shed(),
        b_shed: cb.shed(),
        inversions: m.qos.priority_inversions,
        a_forbidden: ca.forbidden,
        b_forbidden: cb.forbidden,
        ghost_forbidden: cg.forbidden,
        b_call_p99_ms: cb
            .class(PriorityClass::CallSetup)
            .latency
            .p99()
            .as_millis_f64(),
    }
}

fn main() {
    println!(
        "E26 — tenant isolation: tenant A's re-registration storm vs tenant B's \
         traffic\n\
         {SUBSCRIBERS} subscribers split {SPLIT}/{SPLIT} across two operators; \
         {BASE_RATE} proc/s each;\n\
         de-rated {LDAP_OPS_PER_SEC} ops/s LDAP stations; storm: {STORM_MULT}× \
         aggregate re-registration\n\
         load for {STORM_SECS} s from tenant A only; naive ~20 ms client retries \
         (6 attempts);\n\
         isolated run caps tenant A at {A_REG_RATE} registration ops/s\n"
    );

    let shared = run("shared", false);
    let isolated = run("isolated", true);
    // Same-seed replay must be byte-identical — every tally, every
    // counter, both modes.
    assert_eq!(run("shared", false), shared, "shared run must replay");
    assert_eq!(run("isolated", true), isolated, "isolated run must replay");

    let mut table = Table::new([
        "mode",
        "B call goodput",
        "B reg goodput",
        "A reg goodput",
        "A admitted reg",
        "A shed",
        "B shed",
        "inversions",
        "B call p99",
    ])
    .with_title("tenant B through tenant A's storm window");
    let mut report = BenchReport::new("e26", SEED);
    report
        .config("subscribers", SUBSCRIBERS)
        .config("split", SPLIT as u64)
        .config("base_rate", BASE_RATE)
        .config("storm_multiplier", STORM_MULT)
        .config("storm_kind", StormKind::Reregistration.to_string())
        .config("storm_tenant", TENANT_A.to_string())
        .config("ldap_ops_per_sec", LDAP_OPS_PER_SEC)
        .config("a_reg_budget_rate", A_REG_RATE)
        .config("a_reg_budget_burst", A_REG_BURST)
        .config("retry_policy", "aggressive(6)")
        .config("fe_read_policy", "bounded-staleness(max_lag=4)");
    for r in [&shared, &isolated] {
        table.row([
            r.label.to_owned(),
            pct(r.b_call.goodput(), 1),
            pct(r.b_reg.goodput(), 1),
            pct(r.a_reg.goodput(), 1),
            r.a_reg_admitted.to_string(),
            r.a_shed.to_string(),
            r.b_shed.to_string(),
            r.inversions.to_string(),
            format!("{:.2} ms", r.b_call_p99_ms),
        ]);
        report.row(vec![
            ("mode", r.label.into()),
            ("a_call_offered", r.a_call.offered.into()),
            ("a_call_goodput", r.a_call.goodput().into()),
            ("a_reg_offered", r.a_reg.offered.into()),
            ("a_reg_goodput", r.a_reg.goodput().into()),
            ("a_reg_attempts", r.a_reg.attempts.into()),
            ("b_call_offered", r.b_call.offered.into()),
            ("b_call_goodput", r.b_call.goodput().into()),
            ("b_reg_offered", r.b_reg.offered.into()),
            ("b_reg_goodput", r.b_reg.goodput().into()),
            ("a_reg_admitted", r.a_reg_admitted.into()),
            ("a_offered_ops", r.a_offered.into()),
            ("b_offered_ops", r.b_offered.into()),
            ("a_shed_ops", r.a_shed.into()),
            ("b_shed_ops", r.b_shed.into()),
            ("priority_inversions", r.inversions.into()),
            ("a_forbidden", r.a_forbidden.into()),
            ("b_forbidden", r.b_forbidden.into()),
            ("ghost_forbidden", r.ghost_forbidden.into()),
            ("b_call_p99_ms", r.b_call_p99_ms.into()),
        ]);
    }
    println!("{table}");

    // ---- the isolation claims, asserted --------------------------------
    assert!(
        isolated.b_call.goodput() >= 0.95,
        "tenant B call-setup goodput must ride through A's storm (got {})",
        pct(isolated.b_call.goodput(), 1)
    );
    assert!(
        shared.b_call.goodput() >= 0.95,
        "class protection alone already covers call setups (got {})",
        pct(shared.b_call.goodput(), 1)
    );
    // The isolation headline: B's *registrations* survive only when A's
    // storm spends A's own budget.
    assert!(
        shared.b_reg.goodput() < 0.5,
        "without per-tenant budgets A's storm must drown B's registrations \
         in the shared class bucket (got {})",
        pct(shared.b_reg.goodput(), 1)
    );
    assert!(
        isolated.b_reg.goodput() >= 0.9,
        "with A budgeted, B's registrations must ride through (got {})",
        pct(isolated.b_reg.goodput(), 1)
    );
    // A is throttled to its own budget, not starved outright.
    let window = (RUN_END - RUN_START) as f64;
    let budget_ceiling = A_REG_RATE * window * 1.02 + A_REG_BURST;
    assert!(
        (isolated.a_reg_admitted as f64) <= budget_ceiling,
        "A must be throttled to its registration budget: {} admitted, ceiling {}",
        isolated.a_reg_admitted,
        budget_ceiling
    );
    assert!(
        isolated.a_reg_admitted > 0,
        "A's budget must admit its fair share, not zero"
    );
    assert!(
        isolated.a_shed > shared.a_shed / 2,
        "the isolated run must shed A's storm at the tenant door"
    );
    // Zero cross-tenant leaks: every op accounted to its own tenant,
    // denials on the offender only.
    for r in [&shared, &isolated] {
        assert_eq!(
            r.a_offered + r.b_offered,
            r.total_offered,
            "per-tenant offered ops must partition the total exactly"
        );
        assert_eq!(r.a_forbidden, 0, "tenant A was never denied anything");
        assert_eq!(r.b_forbidden, 1, "exactly the bare-write probe");
        assert_eq!(r.ghost_forbidden, 1, "exactly the unknown-tenant probe");
        assert_eq!(r.inversions, 0, "priority inversions must be zero");
    }

    println!("wrote {}", report.write().display());
    println!(
        "\nShape check: class-level admission control is tenant-blind — tenant A's\n\
         storm fills the shared registration bucket and tenant B's registrations\n\
         are shed alongside A's, even though B's operator did nothing wrong. With\n\
         a per-tenant budget the storm spends only A's allowance: the capability\n\
         mask costs one AND, the budget check one token-bucket take, both before\n\
         any server CPU — and B's traffic, call setups and registrations alike,\n\
         rides through untouched. Denials are permanent Forbidden errors (never\n\
         retried, never counted as shed); the unknown tenant proves there is no\n\
         fall-through entitlement."
    );
}
