//! End-to-end filtered-search (business intelligence) queries through the
//! assembled UDR — the §1/§2.2 motivation for consolidation, exercised on
//! the same FE read path as network procedures.

use udr::core::{Udr, UdrConfig};
use udr::ldap::Filter;
use udr::model::attrs::{AttrId, AttrMod, AttrValue};
use udr::model::ids::SiteId;
use udr::model::{Identity, SimDuration, SimTime};
use udr::sim::SimRng;
use udr::workload::PopulationBuilder;
use udr_bench::harness::PsRetry;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

fn provisioned() -> (Udr, Vec<udr::workload::Subscriber>) {
    let mut cfg = UdrConfig::figure2();
    cfg.seed = 31;
    let mut udr = Udr::build(cfg).unwrap();
    let mut rng = SimRng::seed_from_u64(31);
    let population = PopulationBuilder::new(3).build(30, &mut rng);
    let mut at = t(0) + SimDuration::from_millis(1);
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
    (udr, population)
}

#[test]
fn filtered_search_returns_entry_only_on_match() {
    let (mut udr, population) = provisioned();
    let sub = &population[0];
    let id = Identity::Imsi(sub.ids.imsi);

    // Bar the line, then ask two questions about it.
    let out = udr.modify_services(
        &id,
        vec![AttrMod::Set(AttrId::CallBarring, AttrValue::Bool(true))],
        SiteId(0),
        t(10),
    );
    assert!(out.is_ok());

    let barred: Filter = "(callBarring=TRUE)".parse().unwrap();
    let out = udr.search_filtered(&id, barred, vec![], SiteId(sub.home_region), t(20));
    let entry = out.result.expect("query served").expect("filter matches");
    assert_eq!(
        entry.get(AttrId::CallBarring).and_then(AttrValue::as_bool),
        Some(true)
    );

    // A non-matching filter is an empty result, not an error.
    let unbarred: Filter = "(!(callBarring=TRUE))".parse().unwrap();
    let out = udr.search_filtered(&id, unbarred, vec![], SiteId(sub.home_region), t(21));
    assert!(out.result.expect("query served").is_none());
}

#[test]
fn filtered_search_projects_requested_attributes() {
    let (mut udr, population) = provisioned();
    let sub = &population[1];
    let id = Identity::Imsi(sub.ids.imsi);

    let any: Filter = "(imsi=*)".parse().unwrap();
    let out = udr.search_filtered(
        &id,
        any,
        vec![AttrId::Imsi, AttrId::Msisdn],
        SiteId(sub.home_region),
        t(20),
    );
    let entry = out
        .result
        .expect("served")
        .expect("every entry has an imsi");
    assert!(entry.contains(AttrId::Imsi));
    assert!(entry.contains(AttrId::Msisdn));
    // Everything not projected is absent (the BI client asked for two).
    assert_eq!(entry.len(), 2, "projection leaked attributes: {entry:?}");
}

#[test]
fn bi_queries_count_as_front_end_reads() {
    let (mut udr, population) = provisioned();
    let sub = &population[2];
    let id = Identity::Imsi(sub.ids.imsi);
    udr.metrics.fe_ops = Default::default();

    let filter: Filter = "(&(imsi=*)(!(callBarring=TRUE)))".parse().unwrap();
    let out = udr.search_filtered(&id, filter, vec![], SiteId(sub.home_region), t(20));
    assert!(out.is_ok());
    assert_eq!(udr.metrics.fe_ops.ok, 1, "BI shares the FE read path");
    // Same 10 ms envelope as any indexed read from the home region.
    assert!(
        out.latency < SimDuration::from_millis(10),
        "latency {}",
        out.latency
    );
}

#[test]
fn complex_filters_survive_the_wire() {
    // The full client path encodes the request; prove the op that reaches
    // the server equals the op the BI client built.
    use udr::ldap::{decode_request, encode_request, LdapOp, LdapRequest};
    let filter: Filter = "(&(|(homeRegion=0)(homeRegion=1))(odbMask<=3)(impuList=sip:*@ims*))"
        .parse()
        .unwrap();
    let (_, population) = provisioned();
    let dn = udr::ldap::Dn::for_identity(Identity::Imsi(population[0].ids.imsi));
    let req = LdapRequest {
        message_id: 77,
        op: LdapOp::SearchFilter {
            base: dn,
            filter,
            attrs: vec![AttrId::Msisdn],
        },
    };
    let decoded = decode_request(&encode_request(&req)).unwrap();
    assert_eq!(decoded, req);
}
