//! Property tests for the interned identity layer: every valid identity
//! string must survive the intern → symbol → resolve round trip exactly,
//! interning must be idempotent (same string ⇒ same symbol), and the
//! digit-packed fast path must never collide with the spilled path.
//! Also the value semantics of the copy-on-write [`Entry`] and of its
//! projected views, and the handle identity of its shared payload. Each
//! attribute's value is its own default about a third of the time, so the
//! blocks that elide defaults are set to them, set away from them, have
//! them removed, projected and flattened.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry, Octets};
use udr_model::identity::{Identity, IdentityKind, Impi, Impu, Imsi, Msisdn};
use udr_model::intern::IdentityInterner;
use udr_model::tenant::{Capability, CapabilitySet};

fn digits(range: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    let pat: &'static str = match (range.start, range.end) {
        (5, 16) => "[0-9]{5,15}",
        (6, 16) => "[0-9]{6,15}",
        _ => panic!("unsupported digit range"),
    };
    pat.prop_map(|s| s)
}

/// One change to an entry, and which mutator carries it.
#[derive(Debug, Clone)]
enum Mutation {
    Set(AttrId, AttrValue),
    Remove(AttrId),
    Apply(Vec<AttrMod>),
}

fn attr_id() -> impl Strategy<Value = AttrId> {
    prop::sample::select(AttrId::ALL.to_vec())
}

/// A copy of `value` that shares no handle with it.
fn fresh(value: &AttrValue) -> AttrValue {
    match value {
        AttrValue::Str(s) => AttrValue::from(&**s),
        AttrValue::Bytes(b) => AttrValue::Bytes(Octets::from(&**b)),
        AttrValue::StrList(l) => AttrValue::StrList(l.iter().map(|t| &**t).collect()),
        AttrValue::U64(_) | AttrValue::Bool(_) => value.clone(),
    }
}

/// A value for `id` drawn as `(pick, value)`: `id`'s default, built
/// fresh, when `pick` is 0 (a third of the time) and `id` has one, else
/// `value`.
fn for_attr(id: AttrId, (pick, value): (u8, AttrValue)) -> AttrValue {
    match id.default_value() {
        Some(default) if pick == 0 => fresh(default),
        _ => value,
    }
}

/// The draw [`for_attr`] takes.
fn drawn() -> impl Strategy<Value = (u8, AttrValue)> {
    (0..3u8, attr_value())
}

/// An attribute and a value for it.
fn valued() -> impl Strategy<Value = (AttrId, AttrValue)> {
    (attr_id(), drawn()).prop_map(|(id, v)| (id, for_attr(id, v)))
}

fn attr_mod() -> impl Strategy<Value = AttrMod> {
    prop_oneof![
        valued().prop_map(|(id, v)| AttrMod::Set(id, v)),
        attr_id().prop_map(AttrMod::Delete),
    ]
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        valued().prop_map(|(id, v)| Mutation::Set(id, v)),
        attr_id().prop_map(Mutation::Remove),
        prop::collection::vec(attr_mod(), 0..4).prop_map(Mutation::Apply),
    ]
}

/// Apply `m` to the entry through its own mutator and to the plain map
/// that models what the entry must hold.
fn mutate(entry: &mut Entry, model: &mut BTreeMap<AttrId, AttrValue>, m: &Mutation) {
    match m {
        Mutation::Set(id, v) => {
            entry.set(*id, v.clone());
            model.insert(*id, v.clone());
        }
        Mutation::Remove(id) => {
            entry.remove(*id);
            model.remove(id);
        }
        Mutation::Apply(mods) => {
            entry.apply(mods);
            for m in mods {
                match m {
                    AttrMod::Set(id, v) => model.insert(*id, v.clone()),
                    AttrMod::Delete(id) => model.remove(id),
                };
            }
        }
    }
}

fn holds(entry: &Entry, model: &BTreeMap<AttrId, AttrValue>) -> bool {
    entry.iter().eq(model.iter())
}

/// Every value kind: integers, flags, strings (multi-byte ones too),
/// octets and string lists, each possibly empty.
fn attr_value() -> impl Strategy<Value = AttrValue> {
    let wide = prop::sample::select(vec!['a', 'é', '✓', '中', '😀']);
    prop_oneof![
        any::<u64>().prop_map(AttrValue::U64),
        any::<bool>().prop_map(AttrValue::Bool),
        "[a-z]{0,12}".prop_map(AttrValue::from),
        prop::collection::vec(wide, 0..6).prop_map(|c| AttrValue::from(String::from_iter(c))),
        prop::collection::vec(any::<u8>(), 0..20).prop_map(AttrValue::from),
        prop::collection::vec("[a-z]{0,6}".prop_map(String::from), 0..3).prop_map(AttrValue::from),
    ]
}

/// A value for each of the 22 attributes, in `AttrId` order.
fn all_attrs() -> impl Strategy<Value = Vec<(AttrId, AttrValue)>> {
    prop::collection::vec(drawn(), AttrId::ALL.len()).prop_map(|values| {
        (AttrId::ALL.into_iter().zip(values))
            .map(|(id, v)| (id, for_attr(id, v)))
            .collect()
    })
}

/// An entry's attributes: all 22, or a random few.
fn attrs() -> impl Strategy<Value = Vec<(AttrId, AttrValue)>> {
    prop_oneof![all_attrs(), prop::collection::vec(valued(), 0..16)]
}

/// The reference projection: copy the selected attributes into a new map
/// (what `ReplicationStage::finish` did before `Entry::project`).
fn project_by_copy(
    model: &BTreeMap<AttrId, AttrValue>,
    attrs: &[AttrId],
) -> BTreeMap<AttrId, AttrValue> {
    model
        .iter()
        .filter(|(id, _)| attrs.contains(id))
        .map(|(id, v)| (*id, v.clone()))
        .collect()
}

/// Every read accessor of `entry` answers as the plain map does.
fn assert_reads_as(entry: &Entry, model: &BTreeMap<AttrId, AttrValue>) {
    assert!(entry.iter().eq(model.iter()), "{entry:?} vs {model:?}");
    assert_eq!(entry.len(), model.len());
    assert_eq!(entry.is_empty(), model.is_empty());
    for id in AttrId::ALL {
        assert_eq!(entry.get(id), model.get(&id), "{id}");
        assert_eq!(entry.contains(id), model.contains_key(&id), "{id}");
    }
    let size: usize = model.values().map(|v| 2 + 48 + v.approx_size()).sum();
    assert_eq!(entry.approx_size(), size);
    let rebuilt: Entry = model.clone().into_iter().collect();
    assert_eq!(*entry, rebuilt);
    assert_eq!(rebuilt, *entry);
    assert_eq!(
        format!("{entry:?}"),
        format!("Entry {{ attrs: {model:?} }}")
    );
}

/// One step on a pool of entry handles.
#[derive(Debug, Clone)]
enum Step {
    /// Mutate handle `.0` (modulo the pool).
    Mutate(usize, Mutation),
    /// Push a clone of handle `.0`.
    Clone(usize),
    /// Push a projection of handle `.0`.
    Project(usize, Vec<AttrId>),
    /// Drop handle `.0`, unless it is the last.
    Drop(usize),
    /// Handle `.0`'s block holds `.1` values over a flat base (`None`: it
    /// is flat). Only the opening script uses it.
    Layout(usize, Option<usize>),
}

/// The steps every case opens with, on the pool's handle 1, a flat entry of
/// all 22 attributes, so that each layout a write can leave is reached
/// before the random steps: a clone shares the flat block (2) and each
/// handle writes a delta over it; handle 2 writes 11 more distinct
/// attributes, each a write to a delta, and the 12th flattens it (a delta
/// holds at most half of what the entry shows); handle 1 writes to its
/// delta again, applies two sets at once, which widen its delta by what
/// they add, is projected (3) and then removes an attribute, which
/// flattens.
fn opening(
    [a, c, removed]: [AttrId; 3],
    offset: usize,
    values: &[(u8, AttrValue)],
    selection: Vec<AttrId>,
) -> Vec<Step> {
    let value = |id: AttrId, k: usize| for_attr(id, values[k].clone());
    let set = |id: AttrId, k: usize| Mutation::Apply(vec![AttrMod::Set(id, value(id, k))]);
    let mut script = vec![
        Step::Clone(1),
        Step::Mutate(1, set(a, 0)),
        Step::Layout(1, Some(1)),
    ];
    for k in 0..12 {
        let id = AttrId::ALL[(offset + k) % AttrId::ALL.len()];
        script.push(Step::Mutate(2, set(id, k + 1)));
        script.push(Step::Layout(2, (k < 11).then_some(k + 1)));
    }
    let two_sets = vec![
        AttrMod::Set(a, value(a, 14)),
        AttrMod::Set(removed, value(removed, 15)),
    ];
    script.extend([
        Step::Mutate(1, set(c, 13)),
        Step::Layout(1, Some(if c == a { 1 } else { 2 })),
        Step::Mutate(1, Mutation::Apply(two_sets)),
        Step::Layout(1, Some(BTreeSet::from([a, c, removed]).len())),
        Step::Project(1, selection),
        Step::Mutate(1, Mutation::Remove(removed)),
        Step::Layout(1, None),
    ]);
    script
}

fn rich_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        mutation(),
        prop::collection::vec(attr_mod(), 0..5).prop_map(Mutation::Apply),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..8usize, rich_mutation()).prop_map(|(i, m)| Step::Mutate(i, m)),
        (0..8usize).prop_map(Step::Clone),
        (0..8usize, prop::collection::vec(attr_id(), 0..10)).prop_map(|(i, a)| Step::Project(i, a)),
        (0..8usize).prop_map(Step::Drop),
    ]
}

proptest! {
    /// A pool of handles to shared payloads, over all 22 attributes and
    /// every value kind, driven by random sets, removes, applies,
    /// projections, clones and drops, reads as a pool of plain maps after
    /// every step: contents, every `get`, `len` and `approx_size` agree, a
    /// clone or a projection that hides nothing is the same handle as its
    /// source, same handles always hold equal maps, and a handle whose
    /// content changed shares its payload with no other. The opening
    /// script reaches deltas over a shared base, writes to a delta, the
    /// flatten boundary, a remove from a delta and a projection of a delta
    /// in every case.
    #[test]
    fn a_pool_of_entry_handles_reads_as_a_pool_of_maps(
        base in attrs(),
        wide in all_attrs(),
        written in (attr_id(), attr_id(), attr_id()),
        offset in 0..AttrId::ALL.len(),
        values in prop::collection::vec(drawn(), 16),
        selection in prop::collection::vec(attr_id(), 0..10),
        steps in prop::collection::vec(step(), 1..40),
    ) {
        let model: BTreeMap<AttrId, AttrValue> = base.into_iter().collect();
        let wide: BTreeMap<AttrId, AttrValue> = wide.into_iter().collect();
        let mut pool: Vec<(Entry, BTreeMap<AttrId, AttrValue>)> = vec![
            (model.clone().into_iter().collect(), model),
            (wide.clone().into_iter().collect(), wide),
        ];
        let (a, c, removed) = written;
        let script = opening([a, c, removed], offset, &values, selection);
        for step in script.iter().chain(&steps) {
            let changed = match step {
                Step::Mutate(i, m) => {
                    let i = i % pool.len();
                    let (entry, model) = &mut pool[i];
                    let before = model.clone();
                    mutate(entry, model, m);
                    (before != *model).then_some(i)
                }
                Step::Clone(i) => {
                    let (entry, model) = pool[i % pool.len()].clone();
                    prop_assert!(entry.same_handle(&pool[i % pool.len()].0));
                    pool.push((entry, model));
                    None
                }
                Step::Project(i, attrs) => {
                    let (entry, model) = &pool[i % pool.len()];
                    let view = entry.project(attrs);
                    let view_model = project_by_copy(model, attrs);
                    prop_assert_eq!(view.same_handle(entry), view_model == *model);
                    pool.push((view, view_model));
                    None
                }
                Step::Drop(i) => {
                    if pool.len() > 1 {
                        pool.swap_remove(i % pool.len());
                    }
                    None
                }
                Step::Layout(i, delta) => {
                    prop_assert_eq!(pool[*i].0.delta_len(), *delta, "handle {}", i);
                    None
                }
            };
            for (k, (entry, model)) in pool.iter().enumerate() {
                prop_assert!(holds(entry, model), "{step:?}: handle {k}");
                for id in AttrId::ALL {
                    prop_assert_eq!(entry.get(id), model.get(&id), "{step:?}: handle {k}, {id}");
                }
                prop_assert_eq!(entry.len(), model.len());
                let size: usize = model.values().map(|v| 2 + 48 + v.approx_size()).sum();
                prop_assert_eq!(entry.approx_size(), size);
                for (other, other_model) in &pool {
                    if entry.same_handle(other) {
                        prop_assert_eq!(model, other_model);
                    }
                }
                if changed == Some(k) {
                    let shared = pool.iter().enumerate().any(|(j, (other, _))| {
                        j != k && Entry::same_handle(entry, other)
                    });
                    prop_assert!(!shared, "{step:?} left handle {k} shared");
                }
            }
        }
    }
}

proptest! {
    /// `Entry` shares its map between clones, yet behaves as a value: a
    /// mutation through one handle is never visible through the other, in
    /// either direction, and equality follows content, not sharing.
    #[test]
    fn entry_clones_are_independent_values(
        base in prop::collection::vec(valued(), 0..12),
        on_clone in prop::collection::vec(mutation(), 1..6),
        on_original in prop::collection::vec(mutation(), 1..6),
    ) {
        let mut original_model: BTreeMap<AttrId, AttrValue> = base.into_iter().collect();
        let mut original: Entry = original_model.clone().into_iter().collect();
        let mut copy = original.clone();
        let mut copy_model = original_model.clone();
        prop_assert_eq!(&copy, &original);

        for m in &on_clone {
            mutate(&mut copy, &mut copy_model, m);
            prop_assert!(holds(&copy, &copy_model));
            prop_assert!(holds(&original, &original_model), "clone's {m:?} leaked");
        }
        for m in &on_original {
            mutate(&mut original, &mut original_model, m);
            prop_assert!(holds(&original, &original_model));
            prop_assert!(holds(&copy, &copy_model), "original's {m:?} leaked");
        }

        prop_assert_eq!(copy == original, copy_model == original_model);
        let rebuilt: Entry = copy_model.into_iter().collect();
        prop_assert_eq!(&rebuilt, &copy);
        prop_assert_eq!(rebuilt.approx_size(), copy.approx_size());
    }

    /// A projection is a view of the shared payload, yet reads and writes
    /// as the copy it replaced: through any nesting of projections and any
    /// mutations made after projecting, every accessor agrees with the
    /// copying projection over a plain map, and neither the entry projected
    /// from nor any other handle to its payload ever changes.
    #[test]
    fn projected_views_read_and_write_as_copies(
        base in prop::collection::vec(valued(), 0..16),
        selections in prop::collection::vec(prop::collection::vec(attr_id(), 0..8), 1..4),
        on_view in prop::collection::vec(mutation(), 0..6),
        on_view_clone in prop::collection::vec(mutation(), 0..4),
    ) {
        let source_model: BTreeMap<AttrId, AttrValue> = base.into_iter().collect();
        let source: Entry = source_model.clone().into_iter().collect();
        let other_handle = source.clone();

        let mut view = source.clone();
        let mut view_model = source_model.clone();
        for attrs in &selections {
            view = view.project(attrs);
            view_model = project_by_copy(&view_model, attrs);
            assert_reads_as(&view, &view_model);
        }
        let untouched_view = view.clone();
        let untouched_model = view_model.clone();
        let mut view_clone = view.clone();
        let mut view_clone_model = view_model.clone();

        for m in &on_view {
            mutate(&mut view, &mut view_model, m);
            assert_reads_as(&view, &view_model);
        }
        for m in &on_view_clone {
            mutate(&mut view_clone, &mut view_clone_model, m);
            assert_reads_as(&view_clone, &view_clone_model);
        }

        assert_reads_as(&view, &view_model);
        assert_reads_as(&untouched_view, &untouched_model);
        assert_reads_as(&source, &source_model);
        assert_reads_as(&other_handle, &source_model);
        prop_assert_eq!(view == view_clone, view_model == view_clone_model);
        prop_assert_eq!(view == source, view_model == source_model);
    }

    /// IMSI: construct → symbol → as_str reproduces the exact digit
    /// string, and re-interning yields the same symbol (dedup).
    #[test]
    fn imsi_round_trips(s in digits(6..16)) {
        let a = Imsi::new(&s).expect("valid imsi");
        prop_assert_eq!(a.as_str(), s.as_str());
        let b = Imsi::new(&s).expect("valid imsi");
        prop_assert_eq!(a.symbol(), b.symbol());
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.mcc(), &s[..3]);
    }

    /// MSISDN round-trips identically.
    #[test]
    fn msisdn_round_trips(s in digits(5..16)) {
        let a = Msisdn::new(&s).expect("valid msisdn");
        prop_assert_eq!(a.as_str(), s.as_str());
        prop_assert_eq!(a, Msisdn::new(&s).expect("valid msisdn"));
    }

    /// IMPU (sip: URIs, non-digit payloads — the spilled interner path)
    /// round-trips identically.
    #[test]
    fn impu_round_trips(user in "[a-z0-9]{1,16}", host in "[a-z]{1,10}") {
        let uri = format!("sip:{user}@{host}.example");
        let a = Impu::new(&uri).expect("valid impu");
        prop_assert_eq!(a.as_str(), uri.as_str());
        prop_assert_eq!(a, Impu::new(&uri).expect("valid impu"));
    }

    /// IMPI (`user@realm`) round-trips identically.
    #[test]
    fn impi_round_trips(user in "[a-z0-9]{1,12}", realm in "[a-z]{1,12}") {
        let s = format!("{user}@{realm}");
        let a = Impi::new(&s).expect("valid impi");
        prop_assert_eq!(a.as_str(), s.as_str());
        prop_assert_eq!(a, Impi::new(&s).expect("valid impi"));
    }

    /// `Identity::parse_as` round-trips through its display string for
    /// every kind, and the symbol survives the trip too.
    #[test]
    fn identity_parse_round_trips(n in "[0-9]{6,15}") {
        for kind in [IdentityKind::Imsi, IdentityKind::Msisdn] {
            let id = Identity::parse_as(kind, &n).expect("digits parse");
            prop_assert_eq!(id.kind(), kind);
            prop_assert_eq!(id.as_str(), n.as_str());
            let again = Identity::parse_as(kind, id.as_str()).expect("reparse");
            prop_assert_eq!(id.symbol(), again.symbol());
        }
    }

    /// The raw interner: packed (pure-digit) and spilled (arbitrary)
    /// strings resolve back exactly and dedup to stable symbols, even
    /// when the same instance interleaves both shapes.
    #[test]
    fn interner_round_trips_mixed_shapes(
        packed in "[0-9]{1,19}",
        spilled in "[ -~]{1,24}",
    ) {
        let interner = IdentityInterner::new();
        let a = interner.intern(&packed);
        let b = interner.intern(&spilled);
        prop_assert_eq!(interner.resolve(a), packed.as_str());
        prop_assert_eq!(interner.resolve(b), spilled.as_str());
        prop_assert_eq!(interner.intern(&packed), a, "packed dedup");
        prop_assert_eq!(interner.intern(&spilled), b, "spilled dedup");
        if packed != spilled {
            prop_assert_ne!(a, b);
        }
    }

    /// `bits`/`from_bits` is the identity on every subset of the
    /// capability universe.
    #[test]
    fn capability_set_round_trips(picks in prop::collection::vec(any::<bool>(), 14)) {
        let mut set = CapabilitySet::EMPTY;
        for (picked, cap) in picks.iter().zip(Capability::ALL) {
            if *picked {
                set = set.grant(cap);
            }
        }
        prop_assert_eq!(CapabilitySet::from_bits(set.bits()), set);
        // Membership agrees with the picks that built the set.
        for (picked, cap) in picks.iter().zip(Capability::ALL) {
            prop_assert_eq!(set.allows(cap), *picked);
        }
    }

    /// `from_bits` drops undefined bits and never invents capabilities.
    #[test]
    fn capability_set_from_bits_is_total(raw in any::<u64>()) {
        let set = CapabilitySet::from_bits(raw);
        prop_assert_eq!(set.bits() & !CapabilitySet::ALL.bits(), 0);
        for cap in Capability::ALL {
            prop_assert_eq!(set.allows(cap), raw & cap.bit() != 0);
        }
    }
}
