//! E4 — §3.2 and §4.1: partition behaviour under master/slave replication.
//!
//! "On a network partition, while most transactions coming from
//! application front-ends proceed successfully since those transactions
//! are composed of mostly reads, transactions coming from a PS almost
//! always fail since most provisioning transactions involve writes."
//!
//! Sweeps partition durations and measures per-class success during the
//! window, for both the island side and the majority side. Emits
//! `BENCH_e04.json` (one row per duration and side) for cross-PR
//! tracking; standard output is the table.

use udr_bench::harness::{provisioned_system, t};
use udr_bench::json::BenchReport;
use udr_core::{OpRequest, UdrConfig};
use udr_metrics::{pct, Table};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::identity::Identity;
use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::time::SimDuration;
use udr_sim::FaultScript;

struct WindowCounts {
    fe_ok: u64,
    fe_fail: u64,
    ps_ok: u64,
    ps_fail: u64,
}

/// Population seed of every cell.
const SEED: u64 = 4;

impl WindowCounts {
    fn fe_success(&self) -> f64 {
        self.fe_ok as f64 / (self.fe_ok + self.fe_fail).max(1) as f64
    }

    fn ps_success(&self) -> f64 {
        self.ps_ok as f64 / (self.ps_ok + self.ps_fail).max(1) as f64
    }
}

fn run(duration_s: u64) -> (WindowCounts, WindowCounts) {
    let mut s = provisioned_system(UdrConfig::figure2(), 90, SEED);
    s.udr.schedule_script(&FaultScript::new(0).clean_partition(
        t(100),
        SimDuration::from_secs(duration_s),
        [SiteId(2)],
    ));
    // Drive FE (read-mostly mix) + PS (writes) from both sides during the
    // window.
    let mut island = WindowCounts {
        fe_ok: 0,
        fe_fail: 0,
        ps_ok: 0,
        ps_fail: 0,
    };
    let mut majority = WindowCounts {
        fe_ok: 0,
        fe_fail: 0,
        ps_ok: 0,
        ps_fail: 0,
    };
    let kinds = [
        ProcedureKind::SmsDelivery,
        ProcedureKind::CallSetupMo,
        ProcedureKind::CallSetupMt,
        ProcedureKind::LocationUpdate, // contains one write
    ];
    let mut at = t(100) + SimDuration::from_millis(500);
    let end = t(100) + SimDuration::from_secs(duration_s);
    let mut i = 0usize;
    while at < end {
        let sub = &s.population[i % s.population.len()];
        let kind = kinds[i % kinds.len()];
        // FE on the island side.
        let out = s
            .udr
            .execute(OpRequest::procedure(kind, &sub.ids).site(SiteId(2)).at(at))
            .into_procedure();
        if out.success {
            island.fe_ok += 1;
        } else {
            island.fe_fail += 1;
        }
        // FE on the majority side.
        let out = s
            .udr
            .execute(
                OpRequest::procedure(kind, &sub.ids)
                    .site(SiteId(0))
                    .at(at + SimDuration::from_millis(100)),
            )
            .into_procedure();
        if out.success {
            majority.fe_ok += 1;
        } else {
            majority.fe_fail += 1;
        }
        // PS writes from each side.
        let id = Identity::Imsi(sub.ids.imsi);
        let mods = vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i as u64))];
        let w = s.udr.modify_services(
            &id,
            mods.clone(),
            SiteId(2),
            at + SimDuration::from_millis(200),
        );
        if w.is_ok() {
            island.ps_ok += 1;
        } else {
            island.ps_fail += 1;
        }
        let w = s
            .udr
            .modify_services(&id, mods, SiteId(0), at + SimDuration::from_millis(300));
        if w.is_ok() {
            majority.ps_ok += 1;
        } else {
            majority.ps_fail += 1;
        }
        i += 1;
        at += SimDuration::from_millis(400);
    }
    (island, majority)
}

fn main() {
    println!(
        "E4 — C over A on partition (§3.2, §4.1)\n\
         Figure 2 deployment, site 2 islanded; population homed 1/3 per site;\n\
         FE mix = 3 reads + 1 read/write procedure; PS = pure writes\n"
    );
    let mut table = Table::new(["partition", "side", "FE success", "PS success"])
        .with_title("per-class success during the partition window");
    let mut report = BenchReport::new("e04", SEED);
    report
        .config("subscribers", 90u64)
        .config("island_site", 2u64)
        .config("op_gap_ms", 400u64);
    for duration in [30u64, 120, 600] {
        let (island, majority) = run(duration);
        for (side, counts) in [
            ("island (site 2)", &island),
            ("majority (sites 0+1)", &majority),
        ] {
            report.row(vec![
                ("partition", format!("{duration} s").into()),
                ("side", side.into()),
                ("fe_ok", counts.fe_ok.into()),
                ("fe_fail", counts.fe_fail.into()),
                ("ps_ok", counts.ps_ok.into()),
                ("ps_fail", counts.ps_fail.into()),
                ("fe_success", counts.fe_success().into()),
                ("ps_success", counts.ps_success().into()),
            ]);
        }
        table.row([
            format!("{duration} s"),
            "island (site 2)".to_owned(),
            pct(island.fe_success(), 1),
            pct(island.ps_success(), 1),
        ]);
        table.row([
            String::new(),
            "majority (sites 0+1)".to_owned(),
            pct(majority.fe_success(), 1),
            pct(majority.ps_success(), 1),
        ]);
    }
    println!("{table}");
    // Standard output stays the table alone; the report path goes to stderr.
    eprintln!("wrote {}", report.write().display());
    println!(
        "Shape check (paper): FE success stays high on both sides (pure reads always find\n\
         a local copy; only the write leg of location updates fails when the master is on\n\
         the far side). PS success collapses to the share of subscribers whose master is\n\
         on the caller's side (~2/3 for the majority, ~1/3 for the island) — provisioning\n\
         'almost always fails' for everything homed across the cut."
    );
}
