//! Typed view over a subscriber [`Entry`]: the profile a Provisioning System
//! creates and application front-ends consult during network procedures.

use std::sync::{Arc, LazyLock};

use serde::{Deserialize, Serialize};

use crate::attrs::{AttrId, AttrValue, Entry};
use crate::identity::IdentitySet;

/// The values every new subscription starts with. Each is built once per
/// process; a provisioned profile holds a reference to it, not a copy.
struct Defaults {
    status: AttrValue,
    teleservices: AttrValue,
    apn_profiles: AttrValue,
    charging_profile: AttrValue,
}

static DEFAULTS: LazyLock<Defaults> = LazyLock::new(|| {
    let list = |items: &[&str]| AttrValue::StrList(items.iter().map(|s| Arc::from(*s)).collect());
    Defaults {
        status: SubscriberStatus::ServiceGranted.as_str().into(),
        teleservices: list(&["telephony", "sms-mt", "sms-mo"]),
        apn_profiles: list(&["internet"]),
        charging_profile: "default".into(),
    }
});

/// Administrative states for a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubscriberStatus {
    /// Normal service.
    ServiceGranted,
    /// Operator-suspended (e.g. unpaid bill).
    OperatorBarred,
}

impl SubscriberStatus {
    fn as_str(self) -> &'static str {
        match self {
            SubscriberStatus::ServiceGranted => "serviceGranted",
            SubscriberStatus::OperatorBarred => "operatorBarred",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "serviceGranted" => Some(SubscriberStatus::ServiceGranted),
            "operatorBarred" => Some(SubscriberStatus::OperatorBarred),
            _ => None,
        }
    }
}

/// Builder/accessor facade for a subscriber entry.
///
/// `SubscriberProfile` owns an [`Entry`]; the storage engine and replication
/// layers only ever see entries, so the typed view costs nothing on the
/// hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubscriberProfile {
    entry: Entry,
}

impl SubscriberProfile {
    /// Create a fully-populated default profile for a new subscription, as a
    /// provisioning "create" transaction would (§2.4).
    pub fn provision(ids: &IdentitySet, home_region: u32, ki: [u8; 16]) -> Self {
        let impus = (!ids.impus.is_empty()).then(|| {
            let impus = ids.impus.iter().map(|i| Arc::from(i.as_str())).collect();
            (AttrId::ImpuList, AttrValue::StrList(impus))
        });
        let impi = ids.impi.as_ref().map(|i| (AttrId::Impi, i.as_str().into()));
        let defaults = &*DEFAULTS;
        let entry = [
            (AttrId::Imsi, ids.imsi.as_str().into()),
            (AttrId::Msisdn, ids.msisdn.as_str().into()),
        ]
        .into_iter()
        .chain(impus)
        .chain(impi)
        .chain([
            (AttrId::AuthKi, AttrValue::Bytes(Arc::from(ki))),
            (AttrId::AuthAmf, 0x8000u64.into()),
            (AttrId::AuthSqn, 0u64.into()),
            (AttrId::SubscriberStatus, defaults.status.clone()),
            (AttrId::OdbMask, 0u64.into()),
            (AttrId::CallBarring, false.into()),
            (AttrId::Teleservices, defaults.teleservices.clone()),
            (AttrId::ApnProfiles, defaults.apn_profiles.clone()),
            (AttrId::ChargingProfile, defaults.charging_profile.clone()),
            (AttrId::HomeRegion, u64::from(home_region).into()),
            (AttrId::ProvisioningGen, 1u64.into()),
        ])
        .collect();
        SubscriberProfile { entry }
    }

    /// Borrow the underlying entry.
    pub fn entry(&self) -> &Entry {
        &self.entry
    }

    /// Unwrap into the underlying entry.
    pub fn into_entry(self) -> Entry {
        self.entry
    }

    /// The subscriber's administrative state.
    pub fn status(&self) -> Option<SubscriberStatus> {
        self.entry
            .get(AttrId::SubscriberStatus)
            .and_then(AttrValue::as_str)
            .and_then(SubscriberStatus::from_str)
    }

    /// Set the administrative state.
    pub fn set_status(&mut self, s: SubscriberStatus) {
        self.entry.set(AttrId::SubscriberStatus, s.as_str());
    }

    /// Whether pay-call barring is active (§3.2's example supplementary
    /// service).
    pub fn call_barring(&self) -> bool {
        self.entry
            .get(AttrId::CallBarring)
            .and_then(AttrValue::as_bool)
            .unwrap_or(false)
    }

    /// Toggle pay-call barring.
    pub fn set_call_barring(&mut self, barred: bool) {
        self.entry.set(AttrId::CallBarring, barred);
    }

    /// The home region used for selective placement (§3.5).
    pub fn home_region(&self) -> Option<u32> {
        self.entry
            .get(AttrId::HomeRegion)
            .and_then(AttrValue::as_u64)
            .map(|v| v as u32)
    }

    /// The serving VLR address, if CS-attached.
    pub fn vlr_address(&self) -> Option<&str> {
        self.entry
            .get(AttrId::VlrAddress)
            .and_then(AttrValue::as_str)
    }

    /// Record a CS location update (what an Attach/LU procedure writes).
    pub fn set_vlr_address(&mut self, addr: &str) {
        self.entry.set(AttrId::VlrAddress, addr);
    }

    /// The serving MME address, if EPS-attached.
    pub fn mme_address(&self) -> Option<&str> {
        self.entry
            .get(AttrId::MmeAddress)
            .and_then(AttrValue::as_str)
    }

    /// Record an EPS location update.
    pub fn set_mme_address(&mut self, addr: &str) {
        self.entry.set(AttrId::MmeAddress, addr);
    }

    /// Current AKA sequence number.
    pub fn auth_sqn(&self) -> u64 {
        self.entry
            .get(AttrId::AuthSqn)
            .and_then(AttrValue::as_u64)
            .unwrap_or(0)
    }

    /// Advance the AKA sequence number (authentication procedures write it).
    pub fn bump_auth_sqn(&mut self) -> u64 {
        let next = self.auth_sqn() + 32; // SQN advances in batches of vectors
        self.entry.set(AttrId::AuthSqn, next);
        next
    }

    /// Provisioning generation counter.
    pub fn provisioning_gen(&self) -> u64 {
        self.entry
            .get(AttrId::ProvisioningGen)
            .and_then(AttrValue::as_u64)
            .unwrap_or(0)
    }

    /// Bump the provisioning generation (every PS write does this).
    pub fn bump_provisioning_gen(&mut self) -> u64 {
        let next = self.provisioning_gen() + 1;
        self.entry.set(AttrId::ProvisioningGen, next);
        next
    }

    /// Approximate in-RAM footprint of the profile in bytes.
    ///
    /// §2.3 sizes a partition at ~200 GB and §3.5 puts 2·10⁶ subscribers in
    /// one SE, i.e. ≈ 100 kB of raw per-subscriber data in the real product
    /// (profiles there carry far more than our synthetic ones; the *model*
    /// accounts for that with a configurable inflation factor in the
    /// capacity experiment).
    pub fn approx_size(&self) -> usize {
        self.entry.approx_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{Impi, Impu, Imsi, Msisdn};

    fn ids() -> IdentitySet {
        IdentitySet {
            imsi: Imsi::new("214011234567890").unwrap(),
            msisdn: Msisdn::new("34600123456").unwrap(),
            impus: vec![Impu::new("sip:alice@ims.example.com").unwrap()],
            impi: Some(Impi::new("alice@ims.example.com").unwrap()),
        }
    }

    #[test]
    fn provision_populates_core_attributes() {
        let p = SubscriberProfile::provision(&ids(), 2, [7u8; 16]);
        assert_eq!(p.status(), Some(SubscriberStatus::ServiceGranted));
        assert!(!p.call_barring());
        assert_eq!(p.home_region(), Some(2));
        assert_eq!(p.provisioning_gen(), 1);
        assert!(p.entry().contains(AttrId::AuthKi));
        assert!(p.entry().contains(AttrId::ImpuList));
        assert!(p.entry().contains(AttrId::Impi));
    }

    #[test]
    fn location_updates_round_trip() {
        let mut p = SubscriberProfile::provision(&ids(), 0, [0u8; 16]);
        assert_eq!(p.vlr_address(), None);
        p.set_vlr_address("vlr-madrid-01");
        assert_eq!(p.vlr_address(), Some("vlr-madrid-01"));
        p.set_mme_address("mme-madrid-03");
        assert_eq!(p.mme_address(), Some("mme-madrid-03"));
    }

    #[test]
    fn sqn_advances_in_vector_batches() {
        let mut p = SubscriberProfile::provision(&ids(), 0, [0u8; 16]);
        let s0 = p.auth_sqn();
        let s1 = p.bump_auth_sqn();
        assert!(s1 > s0);
        assert_eq!(p.auth_sqn(), s1);
    }

    #[test]
    fn provisioning_gen_counts_writes() {
        let mut p = SubscriberProfile::provision(&ids(), 0, [0u8; 16]);
        p.bump_provisioning_gen();
        p.bump_provisioning_gen();
        assert_eq!(p.provisioning_gen(), 3);
    }

    #[test]
    fn status_and_barring_toggle() {
        let mut p = SubscriberProfile::provision(&ids(), 0, [0u8; 16]);
        p.set_status(SubscriberStatus::OperatorBarred);
        assert_eq!(p.status(), Some(SubscriberStatus::OperatorBarred));
        p.set_call_barring(true);
        assert!(p.call_barring());
    }

    #[test]
    fn profile_size_is_realistic_for_synthetic_data() {
        let p = SubscriberProfile::provision(&ids(), 0, [0u8; 16]);
        let sz = p.approx_size();
        // Synthetic profile should be between a few hundred bytes and a few kB.
        assert!(sz > 200, "size {sz}");
        assert!(sz < 10_000, "size {sz}");
    }
}
