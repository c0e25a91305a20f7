//! The default subscriber profile a Provisioning System creates (§2.4).
//!
//! [`SubscriberProfile::provision`] builds the [`Entry`] a "create
//! subscription" transaction writes: the identities, the authentication
//! data and the default services. Everything after creation reads and
//! writes that entry through LDAP, so the profile has no accessors.
//!
//! The identity attributes hold the interner's own bytes
//! ([`Imsi::text`](crate::identity::Imsi::text) and its kin), so building
//! a profile copies no identity: it allocates its flat block, the Ki
//! octets and, for an IMS subscriber, the IMPU list. The default services
//! are [`AttrId::default_value`]'s, which the flat block holds as mask
//! bits, not as values (`Entry::with_defaults`).

use serde::{Deserialize, Serialize};

use crate::attrs::{AttrId, AttrValue, Entry};
use crate::identity::IdentitySet;

/// A subscriber entry as provisioned; the storage engine and replication
/// layers only ever see the [`Entry`] it unwraps into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubscriberProfile {
    entry: Entry,
}

impl SubscriberProfile {
    /// Create a fully-populated default profile for a new subscription, as a
    /// provisioning "create" transaction would (§2.4).
    pub fn provision(ids: &IdentitySet, home_region: u32, ki: [u8; 16]) -> Self {
        let impus = (!ids.impus.is_empty()).then(|| {
            let impus = ids.impus.iter().map(|i| i.text()).collect();
            (AttrId::ImpuList, AttrValue::StrList(impus))
        });
        let impi = ids.impi.map(|i| (AttrId::Impi, AttrValue::Str(i.text())));
        let attrs = [
            (AttrId::Imsi, AttrValue::Str(ids.imsi.text())),
            (AttrId::Msisdn, AttrValue::Str(ids.msisdn.text())),
        ]
        .into_iter()
        .chain(impus)
        .chain(impi)
        .chain([
            (AttrId::AuthKi, AttrValue::Bytes(ki.into())),
            (AttrId::HomeRegion, u64::from(home_region).into()),
        ]);
        SubscriberProfile {
            entry: Entry::with_defaults(attrs),
        }
    }

    /// Unwrap into the underlying entry.
    pub fn into_entry(self) -> Entry {
        self.entry
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
        let e = SubscriberProfile::provision(&ids(), 2, [7u8; 16]).into_entry();
        let get = |id| e.get(id).cloned();
        assert_eq!(get(AttrId::SubscriberStatus), Some("serviceGranted".into()));
        assert_eq!(get(AttrId::CallBarring), Some(false.into()));
        assert_eq!(get(AttrId::HomeRegion), Some(2u64.into()));
        assert_eq!(get(AttrId::ProvisioningGen), Some(1u64.into()));
        assert!(e.contains(AttrId::AuthKi));
        assert!(e.contains(AttrId::ImpuList));
        assert!(e.contains(AttrId::Impi));
    }

    #[test]
    fn profile_size_is_realistic_for_synthetic_data() {
        let sz = SubscriberProfile::provision(&ids(), 0, [0u8; 16])
            .into_entry()
            .approx_size();
        // Synthetic profile should be between a few hundred bytes and a few kB.
        assert!(sz > 200, "size {sz}");
        assert!(sz < 10_000, "size {sz}");
    }
}
