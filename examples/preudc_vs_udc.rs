//! The architectural argument of Figures 3→4, live: the same subscriber
//! activation during the same network glitch, on the pre-UDC node network
//! and on the UDR.
//!
//! §4.1: "a brand new user walks out of the phone shop and activates a
//! device… If the activation fails because there's a network partition at
//! that moment, two very bad things happen" — the user is disappointed,
//! and the provider pays a manual intervention.
//!
//! ```sh
//! cargo run --release --example preudc_vs_udc
//! ```

use udr::core::{OpRequest, Udr, UdrConfig};
use udr::model::ids::SiteId;
use udr::model::{Identity, ProcedureKind, SimDuration, SimTime};
use udr::preudc::PreUdcNetwork;
use udr::sim::net::Cut;
use udr::sim::{FaultScript, SimRng};
use udr::workload::PopulationBuilder;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

fn main() {
    let mut rng = SimRng::seed_from_u64(2014);
    let population = PopulationBuilder::new(3).build(3, &mut rng);
    let alice = &population[0]; // home region from the generator

    println!(
        "subscriber: IMSI {}, home region {}\n",
        alice.ids.imsi, alice.home_region
    );
    println!("--- pre-UDC network (Figure 3): HLR silo + one SLF per site ---");
    {
        let mut net = PreUdcNetwork::new(3, SiteId(0), 7);
        // The backbone to site 2 glitches exactly when the shop clerk hits
        // "activate".
        let cut = net.net.start_partition(Cut::isolating([SiteId(2)]));
        let (result, latency) = net.provision(&alice.ids, alice.home_region, t(0));
        println!("activation result: {result:?} (took {latency})");
        println!("pending manual repairs: {}", net.pending_repairs());
        let (dangling, divergent) = net.audit();
        println!("network audit: {dangling} dangling routes, {divergent} divergent identities");

        // Alice powers her phone on while visiting site 2: dead.
        let id = Identity::Imsi(alice.ids.imsi);
        let (lookup, _) = net.fe_lookup(&id, SiteId(2), t(1));
        println!("phone registers at site 2: {lookup:?}");

        // The glitch heals; a technician (or the nightly repair job) fixes it.
        net.net.heal_partition(cut);
        let repaired = net.run_repairs(t(60));
        println!("after heal + repair pass: {repaired} subscription(s) completed");
        let (lookup, _) = net.fe_lookup(&id, SiteId(2), t(61));
        println!(
            "phone registers at site 2 now: {}",
            if lookup.is_ok() { "OK" } else { "still dead" }
        );
    }

    println!("\n--- UDC network (Figure 4): one UDR write, one transaction ---");
    {
        let mut cfg = UdrConfig::figure2();
        cfg.seed = 7;
        let mut udr = Udr::build(cfg).unwrap();
        udr.schedule_script(&FaultScript::new(0).clean_partition(
            t(0),
            SimDuration::from_secs(30),
            [SiteId(2)],
        ));
        // Same activation, same glitch.
        let out = udr.provision_subscriber(&alice.ids, alice.home_region, SiteId(0), t(1));
        println!(
            "activation result: {} (took {})",
            if out.is_ok() {
                "OK".to_owned()
            } else {
                format!("{:?}", out.op.result)
            },
            out.op.latency
        );
        if !out.is_ok() {
            // Clean failure: the PS just retries after the glitch. Nothing
            // was left half-written anywhere.
            let retry = udr.provision_subscriber(&alice.ids, alice.home_region, SiteId(0), t(40));
            println!(
                "retry after heal: {} (took {})",
                if retry.is_ok() { "OK" } else { "failed" },
                retry.op.latency
            );
        }
        let reg = udr
            .execute(
                OpRequest::procedure(ProcedureKind::Attach, &alice.ids)
                    .site(SiteId(2))
                    .at(t(41)),
            )
            .into_procedure();
        println!(
            "phone registers at site 2: {}",
            if reg.success { "OK" } else { "failed" }
        );
    }

    println!(
        "\nMoral (§2.4): the pre-UDC activation left a half-provisioned subscriber on the\n\
         nodes — working in two countries, dead in the third — until someone repaired it.\n\
         The UDR activation either fully happened or cleanly didn't: the corner case the\n\
         UDC architecture exists to remove."
    );
}
