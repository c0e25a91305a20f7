//! Durability tuning (§3.1 footnote 6 and §5): how much latency does each
//! durability/replication knob cost, and how many committed transactions
//! does a lagging-master crash actually lose under each?
//!
//! "The latency penalty for achieving close to 100% guaranteed durability
//! is so high that some unwary service providers might think it twice
//! before going down that way."
//!
//! Scenario: the master's site is cut off the backbone at t=55 (its local
//! PS keeps writing, slaves stop receiving), the master crashes at t=60,
//! the partition heals at t=65 and the element restores at t=90. Whatever
//! committed between t=55 and t=60 exists nowhere else — each knob handles
//! that differently.
//!
//! ```sh
//! cargo run --release --example durability_tuning
//! ```

use udr::core::{Udr, UdrConfig};
use udr::metrics::Table;
use udr::model::ids::SiteId;
use udr::model::{
    AttrId, AttrMod, AttrValue, DurabilityMode, Identity, ReplicationMode, SimDuration, SimTime,
};
use udr::sim::{FaultScript, SimRng};
use udr::workload::PopulationBuilder;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

struct RunResult {
    label: String,
    mean_commit: SimDuration,
    ok: u64,
    failed: u64,
    lost: u64,
    partial: u64,
}

fn run(durability: DurabilityMode, replication: ReplicationMode, auto_failover: bool) -> RunResult {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.durability = durability;
    cfg.frash.replication = replication;
    cfg.frash.auto_failover = auto_failover;
    cfg.frash.failover_detection = SimDuration::from_secs(2);
    cfg.seed = 5;
    let mut udr = Udr::build(cfg).expect("valid configuration");

    let mut rng = SimRng::seed_from_u64(5);
    let population = PopulationBuilder::new(3).build(60, &mut rng);
    let mut at = t(0) + SimDuration::from_millis(1);
    for sub in &population {
        udr.provision_subscriber(&sub.ids, sub.home_region, SiteId(0), at);
        at += SimDuration::from_millis(2);
    }

    // Only write to subscribers homed at site 0 so every write goes to a
    // site-0 master from the site-0 PS.
    let home0: Vec<_> = population.iter().filter(|s| s.home_region == 0).collect();
    let master = udr
        .group(
            udr.lookup_authority(&Identity::Imsi(home0[0].ids.imsi))
                .unwrap()
                .partition,
        )
        .master();

    udr.schedule_script(
        &FaultScript::new(0)
            .clean_partition(t(55), SimDuration::from_secs(10), [SiteId(0)])
            .se_outage(t(60), SimDuration::from_secs(30), master),
    );

    udr.metrics.ps_latency = Default::default();
    let mut writes = 0u64;
    let mut failed = 0u64;
    let mut i = 0usize;
    let mut at = t(10);
    while at < t(130) {
        let sub = &home0[i % home0.len()];
        let out = udr.modify_services(
            &Identity::Imsi(sub.ids.imsi),
            vec![AttrMod::Set(AttrId::AuthSqn, AttrValue::U64(writes))],
            SiteId(0),
            at,
        );
        if out.is_ok() {
            writes += 1;
        } else {
            failed += 1;
        }
        i += 1;
        at += SimDuration::from_millis(50);
    }
    udr.advance_to(t(300));

    RunResult {
        label: format!(
            "{durability} + {replication}{}",
            if auto_failover { "" } else { " (no failover)" }
        ),
        mean_commit: udr.metrics.ps_latency.mean(),
        ok: writes,
        failed,
        lost: udr.metrics.lost_commits,
        partial: udr.metrics.partial_commits,
    }
}

fn main() {
    println!(
        "durability tuning: 20 writes/s to site-0 masters for 120 s;\n\
         site 0 isolated t=55..65, master crash t=60, restore t=90\n"
    );
    let snapshot = DurabilityMode::PeriodicSnapshot {
        interval: SimDuration::from_secs(30),
    };
    let runs = [
        run(
            DurabilityMode::None,
            ReplicationMode::AsyncMasterSlave,
            true,
        ),
        run(snapshot, ReplicationMode::AsyncMasterSlave, true),
        run(
            DurabilityMode::SyncCommit,
            ReplicationMode::AsyncMasterSlave,
            false,
        ),
        run(snapshot, ReplicationMode::DualInSequence, true),
        run(snapshot, ReplicationMode::Quorum { n: 3, w: 2, r: 2 }, true),
        run(snapshot, ReplicationMode::Quorum { n: 3, w: 3, r: 1 }, true),
    ];
    let mut table = Table::new([
        "configuration",
        "mean write latency",
        "writes ok",
        "writes failed",
        "commits lost",
        "partial commits",
    ])
    .with_title("F vs R: the price of durability (§3.1 fn6, §5)");
    for r in &runs {
        table.row([
            r.label.clone(),
            r.mean_commit.to_string(),
            r.ok.to_string(),
            r.failed.to_string(),
            r.lost.to_string(),
            r.partial.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Reading: async replication is fastest and keeps accepting writes while its site is\n\
         isolated — then loses exactly those commits when the master dies (the §4.2 gap).\n\
         Dual-in-sequence and quorum w=2 refuse those writes instead (fail-rather-than-lose);\n\
         quorum w=3 refuses even more. Sync-commit without failover loses nothing — the §3.1\n\
         fn6 option — but pays fsync on every write and is unavailable until restore. That is\n\
         the F–R slide of Figures 5/6, measured."
    );
}
