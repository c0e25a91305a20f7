//! Property tests for the replication layer: the §5 consistency-restoration
//! merge must be convergent, deterministic and branch-order independent for
//! any divergence pattern.

use proptest::prelude::*;

use udr_model::attrs::{AttrId, Entry};
use udr_model::config::IsolationLevel;
use udr_model::ids::{SeId, SubscriberUid};
use udr_model::time::SimTime;
use udr_replication::multimaster::merge_branches;
use udr_storage::Engine;

#[derive(Debug, Clone)]
struct BranchWrite {
    uid: u64,
    val: u64,
    /// Offset after divergence at which the write commits.
    at: u64,
}

fn writes_strategy() -> impl Strategy<Value = Vec<BranchWrite>> {
    prop::collection::vec(
        (0u64..12, any::<u64>(), 1u64..1000).prop_map(|(uid, val, at)| BranchWrite {
            uid,
            val,
            at,
        }),
        0..30,
    )
}

fn entry_with(val: u64) -> Entry {
    let mut e = Entry::new();
    e.set(AttrId::OdbMask, val);
    e
}

fn apply_writes(engine: &mut Engine, diverged: SimTime, writes: &[BranchWrite]) {
    let mut sorted = writes.to_vec();
    sorted.sort_by_key(|w| w.at);
    for w in &sorted {
        let t = engine.begin(IsolationLevel::ReadCommitted);
        engine
            .put(t, SubscriberUid(w.uid), entry_with(w.val))
            .unwrap();
        engine
            .commit(t, SimTime(diverged.as_nanos() + w.at))
            .unwrap();
    }
}

fn snapshot_state(s: &udr_storage::EngineSnapshot) -> Vec<(u64, Option<Entry>)> {
    s.records
        .iter()
        .map(|(u, v)| (u.raw(), v.entry.clone()))
        .collect()
}

proptest! {
    /// Merging in any branch order yields identical state and stats.
    #[test]
    fn merge_is_commutative(
        base in writes_strategy(),
        wa in writes_strategy(),
        wb in writes_strategy(),
        wc in writes_strategy(),
    ) {
        let diverged = SimTime(10_000);
        let mut seed = Engine::new(SeId(0));
        apply_writes(&mut seed, SimTime::ZERO, &base);
        let snap = seed.snapshot();

        let mk = |se: u32, writes: &[BranchWrite]| {
            let mut e = Engine::from_snapshot(SeId(se), snap.clone());
            e.set_se(SeId(se));
            apply_writes(&mut e, diverged, writes);
            e
        };
        let a = mk(0, &wa);
        let b = mk(1, &wb);
        let c = mk(2, &wc);

        let abc = merge_branches(diverged, &[&a, &b, &c]);
        let cba = merge_branches(diverged, &[&c, &b, &a]);
        let bac = merge_branches(diverged, &[&b, &a, &c]);
        prop_assert_eq!(snapshot_state(&abc.snapshot), snapshot_state(&cba.snapshot));
        prop_assert_eq!(snapshot_state(&abc.snapshot), snapshot_state(&bac.snapshot));
        prop_assert_eq!(abc.stats, cba.stats);
    }

    /// After reseeding every branch from the merged snapshot, all replicas
    /// hold identical data (convergence), and every record that was written
    /// post-divergence carries one of the written values (no invented data).
    #[test]
    fn merge_converges_and_invents_nothing(
        wa in writes_strategy(),
        wb in writes_strategy(),
    ) {
        let diverged = SimTime(10_000);
        let seed = Engine::new(SeId(0));
        let snap = seed.snapshot();
        let mk = |se: u32, writes: &[BranchWrite]| {
            let mut e = Engine::from_snapshot(SeId(se), snap.clone());
            e.set_se(SeId(se));
            apply_writes(&mut e, diverged, writes);
            e
        };
        let a = mk(0, &wa);
        let b = mk(1, &wb);
        let merged = merge_branches(diverged, &[&a, &b]);

        for (uid, version) in &merged.snapshot.records {
            let Some(entry) = &version.entry else { continue };
            let val = entry.get(AttrId::OdbMask).and_then(|v| v.as_u64()).unwrap();
            let written: Vec<u64> = wa
                .iter()
                .chain(wb.iter())
                .filter(|w| w.uid == uid.raw())
                .map(|w| w.val)
                .collect();
            prop_assert!(written.contains(&val),
                "uid {} merged to {} not among written {:?}", uid, val, written);
        }

        let ra = Engine::from_snapshot(SeId(0), merged.snapshot.clone());
        let rb = Engine::from_snapshot(SeId(1), merged.snapshot.clone());
        let state = |e: &Engine| {
            let mut v: Vec<_> = e.iter_committed().map(|view| (view.uid, view.entry.cloned())).collect();
            v.sort_by_key(|(u, _)| *u);
            v
        };
        prop_assert_eq!(state(&ra), state(&rb));
    }

    /// Conflicts are bounded by the number of uids written on ≥ 2 branches.
    #[test]
    fn conflicts_bounded_by_shared_uids(
        wa in writes_strategy(),
        wb in writes_strategy(),
    ) {
        let diverged = SimTime(10_000);
        let seed = Engine::new(SeId(0));
        let snap = seed.snapshot();
        let mk = |se: u32, writes: &[BranchWrite]| {
            let mut e = Engine::from_snapshot(SeId(se), snap.clone());
            e.set_se(SeId(se));
            apply_writes(&mut e, diverged, writes);
            e
        };
        let a = mk(0, &wa);
        let b = mk(1, &wb);
        let merged = merge_branches(diverged, &[&a, &b]);

        let ua: std::collections::BTreeSet<u64> = wa.iter().map(|w| w.uid).collect();
        let ub: std::collections::BTreeSet<u64> = wb.iter().map(|w| w.uid).collect();
        let shared = ua.intersection(&ub).count();
        prop_assert!(merged.stats.conflicts <= shared,
            "conflicts {} > shared uids {}", merged.stats.conflicts, shared);
    }
}
