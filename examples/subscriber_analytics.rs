//! Business intelligence over consolidated subscriber data — the UDC
//! motivation the paper opens with.
//!
//! §1: with silo'd nodes, "performing business intelligence and operative
//! research over subscriber data becomes a formidable task, since there's
//! no standardized way of fetching subscriber data from the silos." §2.2
//! adds that "data mining over the subscriber data stored in the UDR is
//! propelling service providers to move to a DLA telecom network."
//!
//! This example provisions a mixed population into the Figure 2 UDR,
//! shapes service profiles through normal PS writes, and then answers four
//! operator questions with standard LDAP filters evaluated against the
//! consolidated repository — counting the work the same questions cost in
//! a pre-UDC network (one vendor-specific full export per silo, plus
//! client-side correlation).
//!
//! ```sh
//! cargo run --release --example subscriber_analytics
//! ```

use udr::core::{Udr, UdrConfig};
use udr::ldap::Filter;
use udr::metrics::Table;
use udr::model::attrs::{AttrId, AttrMod, AttrValue};
use udr::model::identity::Identity;
use udr::model::ids::{SeId, SiteId};
use udr::model::{ReplicaRole, SimDuration, SimTime};
use udr::sim::SimRng;
use udr::workload::PopulationBuilder;
use udr_bench::harness::PsRetry;

fn main() {
    let cfg = UdrConfig::figure2();
    let se_count = cfg.total_ses();
    let mut udr = Udr::build(cfg).expect("valid configuration");

    // Provision 900 subscribers across three home regions, ~35 % IMS.
    let mut rng = SimRng::seed_from_u64(22);
    let population = PopulationBuilder::new(3)
        .ims_fraction(0.35)
        .build(900, &mut rng);
    let mut at = SimTime::ZERO + SimDuration::from_millis(1);
    for sub in &population {
        // Rare WAN message loss can time an attempt out; the PS retries,
        // as §2.4 describes.
        let (result, _) = PsRetry::STANDARD.run(&mut at, |at| {
            udr.provision_subscriber(&sub.ids, sub.home_region, SiteId(0), at)
                .op
                .result
        });
        if let Err(e) = result {
            panic!("provisioning failed: {e}");
        }
    }

    // Shape profiles through ordinary provisioning writes: pay-call barring
    // for ~12 %, operator-determined barring tiers, and a registration state
    // for the ~70 % of SIMs that have attached at least once.
    for (i, sub) in population.iter().enumerate() {
        let mut mods = Vec::new();
        if rng.chance(0.12) {
            mods.push(AttrMod::Set(AttrId::CallBarring, AttrValue::Bool(true)));
        }
        mods.push(AttrMod::Set(
            AttrId::OdbMask,
            AttrValue::U64((i % 8) as u64),
        ));
        if rng.chance(0.70) {
            mods.push(AttrMod::Set(
                AttrId::VlrAddress,
                format!("vlr{}.region{}.example", i % 4, sub.home_region).into(),
            ));
        }
        let id = Identity::Imsi(sub.ids.imsi);
        let (result, _) = PsRetry::STANDARD.run(&mut at, |at| {
            udr.modify_services(&id, mods.clone(), SiteId(0), at).result
        });
        if let Err(e) = result {
            panic!("modify failed: {e}");
        }
    }

    // The operator's questions, as standard RFC 4515 filters.
    let questions: [(&str, &str); 4] = [
        ("lines with pay-call barring", "(callBarring=TRUE)"),
        (
            "region-2 heavy ODB (mask >= 4)",
            "(&(homeRegion=2)(odbMask>=4))",
        ),
        ("IMS subscribers (any sip: IMPU)", "(impuList=sip:*)"),
        ("never-registered SIMs", "(!(vlrAddress=*))"),
    ];

    let mut table = Table::new(["question", "filter", "matches", "entries scanned"])
        .with_title("operator BI queries against the consolidated UDR");
    for (label, filter_src) in questions {
        let filter: Filter = filter_src.parse().expect("valid filter");
        let (mut matches, mut scanned) = (0u64, 0u64);
        // One logical scan over the single data space: every master copy,
        // across all SEs (the UDR's Single Point of Access view).
        for se_idx in 0..se_count {
            let se = udr.se(SeId(se_idx));
            for partition in se.partitions().collect::<Vec<_>>() {
                if se.role(partition) != Some(ReplicaRole::Master) {
                    continue;
                }
                let engine = se.engine(partition).expect("replica exists");
                for view in engine.iter_committed() {
                    let Some(entry) = view.entry else {
                        continue;
                    };
                    scanned += 1;
                    if filter.matches(entry) {
                        matches += 1;
                    }
                }
            }
        }
        table.row([
            label.to_owned(),
            filter_src.to_owned(),
            matches.to_string(),
            scanned.to_string(),
        ]);
    }
    println!("{table}");

    println!(
        "\npre-UDC equivalent (§1): the same four questions require a full data export\n\
         from each of the HLR/HSS silos ({} per question here), each in a vendor-\n\
         specific format, plus client-side correlation of identities across silos —\n\
         the 'formidable task' consolidation removes. With the UDR every question is\n\
         one standard filter against one data space.",
        3 // one silo HLR per site in the Figure 1 baseline
    );
}
