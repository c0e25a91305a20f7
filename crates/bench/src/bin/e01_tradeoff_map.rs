//! E1 — Figures 5/6 and §3.6: the FRASH trade-off map, measured.
//!
//! For each design-choice configuration the paper discusses, runs the same
//! mixed workload with one partition episode and places the two
//! transaction classes (blue = front-end, red = provisioning in Figure 6)
//! on the F (latency), A-on-partition (availability) and C (staleness /
//! conflicts) axes, alongside the PACELC class the configuration claims.
//! Emits `BENCH_e01.json` (one row per configuration × class).

use udr_bench::harness::{provisioned_system, run_events, standard_traffic, t};
use udr_bench::json::BenchReport;
use udr_core::UdrConfig;
use udr_metrics::{pct, Table};
use udr_model::config::{DurabilityMode, ReadPolicy, ReplicationMode, TxnClass};
use udr_model::ids::SiteId;
use udr_model::time::SimDuration;
use udr_sim::FaultScript;

struct Variant {
    name: &'static str,
    cfg: UdrConfig,
}

fn variants() -> Vec<Variant> {
    let base = UdrConfig::figure2();
    let mut v = Vec::new();
    v.push(Variant {
        name: "paper first realization",
        cfg: base.clone(),
    });

    let mut c = base.clone();
    c.frash.fe_read_policy = ReadPolicy::MasterOnly;
    v.push(Variant {
        name: "FE reads master-only",
        cfg: c,
    });

    let mut c = base.clone();
    c.frash.durability = DurabilityMode::SyncCommit;
    v.push(Variant {
        name: "sync-commit durability",
        cfg: c,
    });

    let mut c = base.clone();
    c.frash.replication = ReplicationMode::DualInSequence;
    v.push(Variant {
        name: "dual-in-sequence (§5)",
        cfg: c,
    });

    let mut c = base.clone();
    c.frash.replication = ReplicationMode::Quorum { n: 3, w: 2, r: 2 };
    v.push(Variant {
        name: "quorum n3 w2 r2 (§5)",
        cfg: c,
    });

    let mut c = base;
    c.frash.replication = ReplicationMode::MultiMaster;
    v.push(Variant {
        name: "multi-master (§5)",
        cfg: c,
    });
    v
}

fn main() {
    println!(
        "E1 — FRASH trade-off map (Figures 5/6, §3.6)\n\
         workload: 120 subscribers, 0.05 proc/sub/s, 5% roaming, PS write every 1 s;\n\
         site-2 partition t=100..160 inside a 0..240 s run\n"
    );
    let mut table = Table::new([
        "configuration",
        "class",
        "F: mean lat",
        "A on partition",
        "C: stale reads",
        "C: merge conflicts",
        "claimed PACELC",
    ])
    .with_title("measured trade-off points (blue=front-end, red=provisioning rows of Fig. 6)");
    let mut report = BenchReport::new("e01", 42);
    report
        .config("subscribers", 120u64)
        .config("island_site", 2u64)
        .config("partition_start_s", 100u64)
        .config("partition_s", 60u64)
        .config("run_s", 240u64);

    for variant in variants() {
        let mut s = provisioned_system(variant.cfg, 120, 42);
        s.udr.schedule_script(&FaultScript::new(0).clean_partition(
            t(100),
            SimDuration::from_secs(60),
            [SiteId(2)],
        ));
        let events = standard_traffic(&s, 0.05, 0.05, t(10), t(240), 7);

        // Split availability accounting: reset counters right at the
        // partition start by running in two phases.
        let split = events.partition_point(|e| e.at < t(100));
        let (before, after) = events.split_at(split);
        run_events(&mut s, before, Some(SimDuration::from_secs(1)), SiteId(0));
        let healthy_fe = *s.udr.metrics.ops(TxnClass::FrontEnd);
        let healthy_ps = *s.udr.metrics.ops(TxnClass::Provisioning);
        let in_partition: Vec<_> = after.iter().filter(|e| e.at < t(160)).cloned().collect();
        run_events(
            &mut s,
            &in_partition,
            Some(SimDuration::from_secs(1)),
            SiteId(0),
        );
        s.udr.advance_to(t(300));

        let part_fe = {
            let mut c = *s.udr.metrics.ops(TxnClass::FrontEnd);
            c.ok -= healthy_fe.ok;
            c.unavailable -= healthy_fe.unavailable;
            c.failed_other -= healthy_fe.failed_other;
            c
        };
        let part_ps = {
            let mut c = *s.udr.metrics.ops(TxnClass::Provisioning);
            c.ok -= healthy_ps.ok;
            c.unavailable -= healthy_ps.unavailable;
            c.failed_other -= healthy_ps.failed_other;
            c
        };

        for (class, part) in [
            (TxnClass::FrontEnd, part_fe),
            (TxnClass::Provisioning, part_ps),
        ] {
            let mean = s.udr.metrics.latency(class).mean();
            let stale = s.udr.metrics.staleness.stale_fraction();
            let conflicts = s.udr.metrics.merge_conflicts;
            let pacelc = s.udr.config().frash.pacelc_for(class).to_string();
            report.row(vec![
                ("configuration", variant.name.into()),
                ("class", class.to_string().into()),
                ("mean_latency_us", mean.as_micros_f64().into()),
                (
                    "availability_in_partition",
                    part.operational_availability().into(),
                ),
                ("stale_fraction", stale.into()),
                ("merge_conflicts", conflicts.into()),
                ("claimed_pacelc", pacelc.as_str().into()),
            ]);
            table.row([
                variant.name.to_owned(),
                class.to_string(),
                mean.to_string(),
                pct(part.operational_availability(), 1),
                pct(stale, 2),
                conflicts.to_string(),
                pacelc,
            ]);
        }
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): the first realization shows FE≈available/fast/stale (PA/EL)\n\
         and PS≈unavailable-on-partition/consistent (PC/EC); master-only FE reads trade A\n\
         for C; sync-commit and quorum slide F toward C; multi-master lifts PS availability\n\
         at the cost of merge conflicts — every arrow of Figure 5 made measurable."
    );
}
