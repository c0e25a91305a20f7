//! Multi-tenant authorization and isolation through the full pipeline:
//! the capability mask gates every operation in the access stage, a
//! denial is a permanent [`UdrError::Forbidden`] (never shed, never
//! retried), revocations take effect mid-run via the directory epoch,
//! and per-tenant rate budgets spend independently.

use udr_bench::harness::{numbered_ids as ids, t};
use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::TxnClass;
use udr_model::error::UdrError;
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::qos::{PriorityClass, ShedReason};
use udr_model::tenant::{Capability, CapabilitySet, TenantBudget, TenantDirectory, TenantId};
use udr_model::time::{SimDuration, SimTime};
use udr_workload::RetryPolicy;

/// Two tenants: A (0) fully entitled, B (1) front-end only.
fn two_tenant_directory() -> TenantDirectory {
    let mut dir = TenantDirectory::empty();
    dir.add_tenant(CapabilitySet::ALL);
    dir.add_tenant(CapabilitySet::front_end());
    dir
}

fn build(dir: TenantDirectory, n: u64) -> (Udr, Vec<IdentitySet>) {
    let mut cfg = UdrConfig::figure2();
    cfg.tenants = dir;
    let mut udr = Udr::build(cfg).expect("valid config");
    let mut subs = Vec::new();
    for i in 0..n {
        let set = ids(i + 1);
        let out = udr.provision_subscriber(
            &set,
            (i % 3) as u32,
            SiteId(0),
            t(1) + SimDuration::from_millis(i * 20),
        );
        assert!(out.is_ok(), "provisioning {i} failed: {:?}", out.op.result);
        subs.push(set);
    }
    (udr, subs)
}

fn read_op(sub: &IdentitySet) -> LdapOp {
    LdapOp::Search {
        base: Dn::for_identity(Identity::Imsi(sub.imsi)),
        attrs: vec![AttrId::OdbMask],
    }
}

fn write_op(sub: &IdentitySet, v: u64) -> LdapOp {
    LdapOp::Modify {
        dn: Dn::for_identity(Identity::Imsi(sub.imsi)),
        mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(v))],
    }
}

/// A tenant with the empty mask is forbidden every single operation —
/// and a forbidden op is never counted as offered or shed.
#[test]
fn empty_mask_tenant_is_forbidden_everything() {
    let mut dir = two_tenant_directory();
    let nobody = dir.add_tenant(CapabilitySet::EMPTY);
    let (mut udr, subs) = build(dir, 3);

    for kind in ProcedureKind::ALL {
        let out = udr
            .execute(
                OpRequest::procedure(kind, &subs[0])
                    .site(SiteId(0))
                    .at(t(10))
                    .tenant(nobody),
            )
            .into_procedure();
        assert!(!out.success);
        assert_eq!(
            out.failure,
            Some(UdrError::Forbidden {
                tenant: nobody,
                capability: Capability::Procedure(kind)
            })
        );
    }
    let out = udr
        .execute(
            OpRequest::new(&read_op(&subs[0]))
                .site(SiteId(0))
                .at(t(11))
                .tenant(nobody),
        )
        .into_op();
    assert!(matches!(
        out.result,
        Err(UdrError::Forbidden {
            capability: Capability::DirectRead,
            ..
        })
    ));

    let counters = udr.metrics.qos.tenant(nobody);
    assert_eq!(counters.forbidden, ProcedureKind::ALL.len() as u64 + 1);
    assert_eq!(counters.offered(), 0, "denials are not offered load");
    assert_eq!(counters.shed(), 0, "denials are never accounted as shed");
}

/// An unregistered tenant id resolves to the empty mask — forbidden, not
/// a panic, not a fall-through to some default entitlement.
#[test]
fn unknown_tenant_is_forbidden() {
    let (mut udr, subs) = build(two_tenant_directory(), 3);
    let ghost = TenantId(7);
    let out = udr
        .execute(
            OpRequest::procedure(ProcedureKind::SmsDelivery, &subs[1])
                .site(SiteId(1))
                .at(t(10))
                .tenant(ghost),
        )
        .into_procedure();
    assert_eq!(
        out.failure,
        Some(UdrError::Forbidden {
            tenant: ghost,
            capability: Capability::Procedure(ProcedureKind::SmsDelivery)
        })
    );
}

/// The capability boundary holds per-capability: tenant B (front-end
/// mask) runs procedures fine but is denied bare writes and provisioning.
#[test]
fn capability_mask_splits_read_and_write_paths() {
    let (mut udr, subs) = build(two_tenant_directory(), 3);
    let b = TenantId(1);

    let ok = udr
        .execute(
            OpRequest::procedure(ProcedureKind::CallSetupMo, &subs[0])
                .site(SiteId(0))
                .at(t(10))
                .tenant(b),
        )
        .into_procedure();
    assert!(ok.success, "front-end tenant must run procedures: {ok:?}");

    let denied = udr
        .execute(
            OpRequest::new(&write_op(&subs[0], 5))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(11))
                .tenant(b),
        )
        .into_op();
    assert!(matches!(
        denied.result,
        Err(UdrError::Forbidden {
            tenant: TenantId(1),
            capability: Capability::DirectWrite
        })
    ));
    // The denial cost nothing downstream: no replication, no storage.
    assert_eq!(denied.breakdown.replication, SimDuration::ZERO);
    assert_eq!(denied.breakdown.storage, SimDuration::ZERO);
}

/// Revoking a capability mid-run takes effect on the very next operation
/// (the directory epoch invalidates derived state); re-granting restores
/// service.
#[test]
fn revocation_mid_run_takes_effect_on_next_op() {
    let (mut udr, subs) = build(two_tenant_directory(), 3);
    let b = TenantId(1);
    let cap = Capability::Procedure(ProcedureKind::LocationUpdate);
    let run = |udr: &mut Udr, at: SimTime| {
        udr.execute(
            OpRequest::procedure(ProcedureKind::LocationUpdate, &subs[1])
                .site(SiteId(1))
                .at(at)
                .tenant(b),
        )
        .into_procedure()
    };

    assert!(run(&mut udr, t(10)).success);
    udr.tenant_directory_mut().revoke(b, cap);
    let denied = run(&mut udr, t(11));
    assert_eq!(
        denied.failure,
        Some(UdrError::Forbidden {
            tenant: b,
            capability: cap
        })
    );
    udr.tenant_directory_mut().grant(b, cap);
    assert!(run(&mut udr, t(12)).success, "re-grant restores service");
}

/// `Forbidden` is a permanent policy denial: not an availability
/// failure, not retryable, so the client retry loop never spends an
/// attempt on it regardless of the policy's budget.
#[test]
fn forbidden_is_never_retried() {
    let (mut udr, subs) = build(two_tenant_directory(), 3);
    let b = TenantId(1);
    let out = udr
        .execute(
            OpRequest::new(&write_op(&subs[0], 9))
                .class(TxnClass::FrontEnd)
                .site(SiteId(0))
                .at(t(10))
                .tenant(b),
        )
        .into_op();
    let err = out.result.expect_err("front-end tenant cannot bare-write");
    assert!(!err.is_retryable(), "Forbidden must be permanent");
    assert!(!err.is_availability_failure());

    // The harness retry gate is `is_retryable() && policy.should_retry`:
    // even the most aggressive policy never re-offers a denial.
    let policy = RetryPolicy::aggressive(6);
    assert!(policy.should_retry(0), "policy itself has budget");
    assert!(!(err.is_retryable() && policy.should_retry(0)));
}

/// A tenant's rate budget spends only on that tenant: hammering tenant
/// A into its budget ceiling sheds A with `RateLimit` while B's
/// identical traffic is untouched — and the per-tenant counters never
/// bleed into each other.
#[test]
fn tenant_budgets_spend_independently() {
    let mut dir = two_tenant_directory();
    // A may register at most 5 ops/s (burst 2); B is uncapped.
    dir.set_budget(
        TenantId(0),
        PriorityClass::Registration,
        TenantBudget {
            rate: 5.0,
            burst: 2.0,
        },
    );
    let (mut udr, subs) = build(dir, 3);
    let (a, b) = (TenantId(0), TenantId(1));

    let mut shed_a = 0u64;
    let mut ok_b = 0u64;
    for i in 0..40u64 {
        let at = t(10) + SimDuration::from_millis(i * 10); // 100/s offered
        let out_a = udr
            .execute(
                OpRequest::procedure(ProcedureKind::LocationUpdate, &subs[0])
                    .site(SiteId(0))
                    .at(at)
                    .tenant(a),
            )
            .into_procedure();
        if let Some(UdrError::Shed {
            reason: ShedReason::RateLimit,
            ..
        }) = out_a.failure
        {
            shed_a += 1;
        }
        let out_b = udr
            .execute(
                OpRequest::procedure(ProcedureKind::LocationUpdate, &subs[1])
                    .site(SiteId(1))
                    .at(at)
                    .tenant(b),
            )
            .into_procedure();
        if out_b.success {
            ok_b += 1;
        }
    }
    assert!(shed_a > 20, "A must hit its 5/s budget: {shed_a} shed");
    assert_eq!(ok_b, 40, "B's uncapped traffic must be untouched");

    let ca = udr.metrics.qos.tenant(a);
    let cb = udr.metrics.qos.tenant(b);
    // Counters are per LDAP op: LocationUpdate costs 2, a shed procedure
    // stops at its shed op (fail-fast), so A lands between the extremes.
    assert_eq!(cb.offered(), 80);
    assert!(ca.offered() >= 40 && ca.offered() <= 80, "{}", ca.offered());
    assert_eq!(ca.shed(), shed_a);
    assert_eq!(cb.shed(), 0, "B never borrows or pays for A");
    assert_eq!(ca.forbidden + cb.forbidden, 0);
}
