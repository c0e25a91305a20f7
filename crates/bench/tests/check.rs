//! The checker's own rule: a marker is lost when its subscriber's master
//! holds no value or one outside `[acknowledged, issued]`, and a copy
//! outside its replica set is a stray.

use udr_bench::check::{stray_copies, write_markers, Markers};
use udr_bench::harness::{provisioned_system, PsRetry, Scenario};
use udr_core::UdrConfig;
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::identity::Identity;
use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};

const FIRST: u64 = 0xC4EC_0000;

/// A figure-2 deployment with 12 subscribers, each holding an
/// acknowledged marker, and an instant after the markers settled.
fn marked() -> (Scenario, Vec<Identity>, Markers, SimTime) {
    let mut s = provisioned_system(UdrConfig::figure2(), 12, 5);
    let identities: Vec<Identity> = s.population.iter().map(|sub| sub.ids.imsi.into()).collect();
    let at = s.udr.now() + SimDuration::from_secs(1);
    let markers = write_markers(&mut s.udr, &identities, FIRST, at, PsRetry::STANDARD);
    (s, identities, markers, at + SimDuration::from_secs(1))
}

/// Write `value` to `identity` from the PS at `at`, outside the markers.
fn overwrite(s: &mut Scenario, identity: &Identity, value: u64, at: SimTime) {
    let mods = vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(value))];
    let out = s.udr.modify_services(identity, mods, SiteId(0), at);
    assert!(out.is_ok(), "overwrite failed: {:?}", out.result);
}

#[test]
fn a_clean_run_loses_nothing_and_leaves_no_stray_copy() {
    let (s, identities, markers, _) = marked();
    assert_eq!(markers.lost(&s.udr), []);
    assert_eq!(stray_copies(&s.udr), []);
    // A subscriber with no acknowledged marker is not judged.
    assert_eq!(Markers::new(identities).lost(&s.udr), []);
}

#[test]
fn an_unrecorded_write_below_the_acknowledged_marker_is_lost() {
    let (mut s, identities, markers, at) = marked();
    overwrite(&mut s, &identities[7], FIRST + 6, at);
    assert_eq!(markers.lost(&s.udr), [identities[7]]);
}

#[test]
fn a_value_above_the_last_issued_marker_is_lost() {
    let (mut s, identities, mut markers, at) = marked();
    // A write that timed out may still commit: it lies inside the window.
    markers.issue(3, FIRST + 1_000, false);
    overwrite(&mut s, &identities[3], FIRST + 1_000, at);
    assert_eq!(markers.lost(&s.udr), []);
    let later = at + SimDuration::from_millis(5);
    overwrite(&mut s, &identities[3], FIRST + 1_001, later);
    assert_eq!(markers.lost(&s.udr), [identities[3]]);
}
