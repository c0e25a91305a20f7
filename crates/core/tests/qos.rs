//! Integration tests of the QoS admission-control subsystem wired into
//! the pipeline: class-aware shedding under overload, zero priority
//! inversions, typed shed errors, per-request priority, and the adaptive
//! consistency degradation of sustained overload.

use udr_bench::harness::{numbered_ims_ids as ids, t};
use udr_core::{OpRequest, Udr, UdrConfig};
use udr_model::config::ReadPolicy;
use udr_model::error::UdrError;
use udr_model::identity::IdentitySet;
use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::qos::{PriorityClass, ShedReason};
use udr_model::time::{SimDuration, SimTime};
use udr_qos::QosConfig;

/// A deployment slow enough to overload from a test loop: one 500 ops/s
/// LDAP server per cluster (2 ms service, 5 ms queue bound).
fn slow_config(qos: QosConfig) -> UdrConfig {
    let mut cfg = UdrConfig::figure2();
    cfg.ldap_servers_per_cluster = 1;
    cfg.ldap_ops_per_sec = 500.0;
    cfg.qos = qos;
    cfg
}

fn provision_n(udr: &mut Udr, n: u64) -> Vec<IdentitySet> {
    let mut subs = Vec::with_capacity(n as usize);
    for i in 0..n {
        let set = ids(i);
        let out = udr.provision_subscriber(
            &set,
            (i % 3) as u32,
            SiteId(0),
            t(1) + SimDuration::from_millis(i * 20),
        );
        assert!(out.is_ok(), "provisioning {i} failed: {:?}", out.op.result);
        subs.push(set);
    }
    subs
}

/// Hammer one site with `kind` procedures back-to-back (zero virtual
/// inter-arrival time) and report (ok, shed, other-failures).
fn hammer(
    udr: &mut Udr,
    subs: &[IdentitySet],
    kind: ProcedureKind,
    at: SimTime,
    count: usize,
) -> (u64, u64, u64) {
    let (mut ok, mut shed, mut other) = (0u64, 0u64, 0u64);
    for i in 0..count {
        let sub = &subs[i % subs.len()];
        let out = udr
            .execute(OpRequest::procedure(kind, sub).site(SiteId(0)).at(at))
            .into_procedure();
        if out.success {
            ok += 1;
        } else if matches!(out.failure, Some(UdrError::Shed { .. })) {
            shed += 1;
        } else {
            other += 1;
        }
    }
    (ok, shed, other)
}

#[test]
fn disabled_qos_changes_nothing_but_overloads_blindly() {
    let mut udr = Udr::build(slow_config(QosConfig::disabled())).unwrap();
    let subs = provision_n(&mut udr, 6);
    // A zero-gap burst saturates the 500 ops/s station.
    let (_, shed, other) = hammer(&mut udr, &subs, ProcedureKind::CallSetupMo, t(10), 60);
    assert_eq!(shed, 0, "disabled QoS must never shed");
    assert!(other > 0, "the raw station still overloads");
    assert_eq!(udr.metrics.qos.total_shed(), 0);
    // Offered load is still accounted per class.
    assert!(udr.metrics.qos.class(PriorityClass::CallSetup).offered > 0);
}

#[test]
fn overload_sheds_low_classes_and_spares_high_with_zero_inversions() {
    let mut udr = Udr::build(slow_config(QosConfig::protective())).unwrap();
    let subs = provision_n(&mut udr, 6);

    // Sustained 3× overload: one procedure per virtual millisecond
    // (alternating registrations and call setups ≈ 1.5 ops/ms) against a
    // 0.5 ops/ms station.
    let (mut call_ok, mut call_shed) = (0u64, 0u64);
    let (mut reg_ok, mut reg_shed) = (0u64, 0u64);
    for i in 0..200u64 {
        let at = t(10) + SimDuration::from_millis(i);
        let sub = &subs[(i as usize) % subs.len()];
        let kind = if i % 2 == 0 {
            ProcedureKind::LocationUpdate
        } else {
            ProcedureKind::CallSetupMo
        };
        let out = udr
            .execute(OpRequest::procedure(kind, sub).site(SiteId(0)).at(at))
            .into_procedure();
        let shed = matches!(out.failure, Some(UdrError::Shed { .. }));
        match kind {
            ProcedureKind::LocationUpdate => {
                if out.success {
                    reg_ok += 1;
                } else if shed {
                    reg_shed += 1;
                }
            }
            _ => {
                if out.success {
                    call_ok += 1;
                } else if shed {
                    call_shed += 1;
                }
            }
        }
    }
    assert!(reg_shed > 0, "registrations must be shed under saturation");
    assert!(
        call_ok > reg_ok,
        "call setups ({call_ok} ok, {call_shed} shed) must fare better than \
         registrations ({reg_ok} ok, {reg_shed} shed)"
    );
    assert_eq!(
        udr.metrics.qos.priority_inversions, 0,
        "no lower class may be admitted where a higher one was shed"
    );
    let reg = udr.metrics.qos.class(PriorityClass::Registration);
    assert!(reg.shed_delay > 0, "sheds carry the queue-delay reason");
}

#[test]
fn shed_error_is_typed_and_retryable() {
    let mut udr = Udr::build(slow_config(QosConfig::protective())).unwrap();
    let subs = provision_n(&mut udr, 4);
    let mut seen_shed = None;
    for i in 0..400u64 {
        let out = udr
            .execute(
                OpRequest::procedure(
                    ProcedureKind::LocationUpdate,
                    &subs[(i as usize) % subs.len()],
                )
                .site(SiteId(0))
                .at(t(10) + SimDuration::from_millis(i / 2)),
            )
            .into_procedure();
        if let Some(UdrError::Shed { class, reason }) = out.failure {
            seen_shed = Some((class, reason));
            break;
        }
    }
    let (class, reason) = seen_shed.expect("saturation must shed something");
    assert_eq!(class, PriorityClass::Registration);
    assert_eq!(reason, ShedReason::QueueDelay);
    assert!(UdrError::Shed { class, reason }.is_retryable());
}

#[test]
fn sustained_overload_downgrades_guarded_reads_and_accounts_them() {
    let mut cfg = slow_config(QosConfig::protective());
    // A 200 ops/s server (5 ms service): a queued op may wait up to 10 ms,
    // past the call-setup class's 8 ms target (16 × `SHED_TARGET`), so
    // call setups themselves shed and the controller stays shedding.
    cfg.ldap_ops_per_sec = 200.0;
    cfg.frash.fe_read_policy = ReadPolicy::BoundedStaleness { max_lag: 2 };
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 6);

    // Sustained saturation at site 0: zero-gap bursts across 2.5 s of
    // virtual time keep the queue above target past the degradation fuse.
    let mut downgraded_reads = 0u64;
    for step in 0..2_500u64 {
        let at = t(10) + SimDuration::from_millis(step);
        for i in 0..4 {
            let out = udr
                .execute(
                    OpRequest::procedure(ProcedureKind::CallSetupMo, &subs[i % subs.len()])
                        .site(SiteId(0))
                        .at(at),
                )
                .into_procedure();
            if out.success {
                downgraded_reads += 1;
            }
        }
    }
    assert!(downgraded_reads > 0);
    let g = &udr.metrics.guarantees;
    assert!(
        g.policy_downgrades > 0,
        "sustained overload must trigger explicit downgrades"
    );
    assert_eq!(
        g.violations(),
        0,
        "downgrades are accounted, never silent violations"
    );
}

#[test]
fn procedure_overrides_reroute_priority() {
    let mut cfg = UdrConfig::figure2();
    cfg.qos = QosConfig::protective();
    let mut udr = Udr::build(cfg).unwrap();
    let subs = provision_n(&mut udr, 3);
    let out = udr
        .execute(
            OpRequest::procedure(ProcedureKind::SmsDelivery, &subs[0])
                .priority(PriorityClass::Provisioning)
                .site(SiteId(0))
                .at(t(10)),
        )
        .into_procedure();
    assert!(out.success);
    // Every op of the procedure was accounted under the request's class.
    assert!(udr.metrics.qos.class(PriorityClass::Provisioning).offered > 0);
    assert_eq!(udr.metrics.qos.class(PriorityClass::CallSetup).offered, 0);
}
