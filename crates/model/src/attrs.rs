//! The attribute-oriented subscriber data model.
//!
//! The UDC specifications mandate an LDAP view of subscriber data but leave
//! "structure and semantics of subscriber data" open (§1). We model an entry
//! as an ordered attribute map — the common denominator between the storage
//! engine (which stores whole entries as record versions) and the LDAP layer
//! (which reads and modifies attributes).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Well-known subscriber attributes (the columns of HLR/HSS data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u16)]
pub enum AttrId {
    // -- identity group -----------------------------------------------------
    /// IMSI digit string.
    Imsi = 1,
    /// MSISDN digit string.
    Msisdn = 2,
    /// IMS public identities.
    ImpuList = 3,
    /// IMS private identity.
    Impi = 4,
    // -- security group -----------------------------------------------------
    /// Permanent authentication key (K / Ki).
    AuthKi = 10,
    /// Authentication management field.
    AuthAmf = 11,
    /// Sequence number for AKA re-synchronisation.
    AuthSqn = 12,
    // -- service profile group ----------------------------------------------
    /// Subscriber administrative state ("serviceGranted"...).
    SubscriberStatus = 20,
    /// Operator-determined-barring bitmask.
    OdbMask = 21,
    /// Supplementary-service call barring (e.g. pay-call barring, §3.2).
    CallBarring = 22,
    /// Call-forwarding target number.
    CallForwarding = 23,
    /// Provisioned teleservices (telephony, SMS, ...).
    Teleservices = 24,
    /// Packet-core access point profiles.
    ApnProfiles = 25,
    /// CAMEL service trigger data.
    CamelCsi = 26,
    /// Charging profile reference.
    ChargingProfile = 27,
    // -- mobility / registration group ---------------------------------------
    /// Serving VLR address (CS domain location).
    VlrAddress = 40,
    /// Serving SGSN address (PS domain location).
    SgsnAddress = 41,
    /// Serving MME address (EPS location).
    MmeAddress = 42,
    /// IMS registration state.
    ImsRegState = 43,
    /// Assigned S-CSCF name when IMS-registered.
    ScscfName = 44,
    // -- operational group ----------------------------------------------------
    /// Home region tag used for selective placement (§3.5).
    HomeRegion = 60,
    /// Monotonic provisioning generation (bumped by every PS write).
    ProvisioningGen = 61,
}

impl AttrId {
    /// Every attribute, in numeric order (useful for exhaustive tests).
    pub const ALL: [AttrId; 20] = [
        AttrId::Imsi,
        AttrId::Msisdn,
        AttrId::ImpuList,
        AttrId::Impi,
        AttrId::AuthKi,
        AttrId::AuthAmf,
        AttrId::AuthSqn,
        AttrId::SubscriberStatus,
        AttrId::OdbMask,
        AttrId::CallBarring,
        AttrId::CallForwarding,
        AttrId::Teleservices,
        AttrId::ApnProfiles,
        AttrId::CamelCsi,
        AttrId::ChargingProfile,
        AttrId::VlrAddress,
        AttrId::SgsnAddress,
        AttrId::MmeAddress,
        AttrId::ImsRegState,
        AttrId::ScscfName,
    ];

    /// Numeric wire tag (used by the codec).
    #[inline]
    pub const fn tag(self) -> u16 {
        self as u16
    }

    /// Inverse of [`AttrId::tag`].
    pub fn from_tag(tag: u16) -> Option<AttrId> {
        use AttrId::*;
        Some(match tag {
            1 => Imsi,
            2 => Msisdn,
            3 => ImpuList,
            4 => Impi,
            10 => AuthKi,
            11 => AuthAmf,
            12 => AuthSqn,
            20 => SubscriberStatus,
            21 => OdbMask,
            22 => CallBarring,
            23 => CallForwarding,
            24 => Teleservices,
            25 => ApnProfiles,
            26 => CamelCsi,
            27 => ChargingProfile,
            40 => VlrAddress,
            41 => SgsnAddress,
            42 => MmeAddress,
            43 => ImsRegState,
            44 => ScscfName,
            60 => HomeRegion,
            61 => ProvisioningGen,
            _ => return None,
        })
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrValue {
    /// A UTF-8 string.
    Str(String),
    /// An unsigned integer (counters, bitmasks, region indexes).
    U64(u64),
    /// A boolean flag.
    Bool(bool),
    /// Raw octets (keys, opaque blobs).
    Bytes(Vec<u8>),
    /// A list of strings (IMPUs, teleservice codes, APNs).
    StrList(Vec<String>),
}

impl AttrValue {
    /// Approximate in-RAM footprint in bytes, used by the capacity model.
    pub fn approx_size(&self) -> usize {
        match self {
            AttrValue::Str(s) => 24 + s.len(),
            AttrValue::U64(_) => 8,
            AttrValue::Bool(_) => 1,
            AttrValue::Bytes(b) => 24 + b.len(),
            AttrValue::StrList(l) => 24 + l.iter().map(|s| 24 + s.len()).sum::<usize>(),
        }
    }

    /// Borrow the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Copy the integer payload, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Copy the flag payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrow the list payload, if this is a `StrList`.
    pub fn as_str_list(&self) -> Option<&[String]> {
        match self {
            AttrValue::StrList(l) => Some(l),
            _ => None,
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<Vec<String>> for AttrValue {
    fn from(v: Vec<String>) -> Self {
        AttrValue::StrList(v)
    }
}
impl From<Vec<u8>> for AttrValue {
    fn from(v: Vec<u8>) -> Self {
        AttrValue::Bytes(v)
    }
}

/// One subscriber entry: an ordered attribute map.
///
/// The map sits behind an [`Arc`] and is copied on write: `clone` is a
/// reference-count bump, so the store, the commit log, the ship channels,
/// every slave and every disk snapshot share one immutable allocation per
/// committed version. The mutators ([`Entry::set`], [`Entry::remove`],
/// [`Entry::apply`]) copy the map first when it is shared, which keeps value
/// semantics: a change to one handle is never visible through another.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Entry {
    attrs: Arc<BTreeMap<AttrId, AttrValue>>,
}

impl Entry {
    /// Empty entry.
    pub fn new() -> Self {
        Entry::default()
    }

    /// Set (or replace) an attribute; returns the previous value.
    pub fn set(&mut self, id: AttrId, value: impl Into<AttrValue>) -> Option<AttrValue> {
        Arc::make_mut(&mut self.attrs).insert(id, value.into())
    }

    /// Read an attribute.
    pub fn get(&self, id: AttrId) -> Option<&AttrValue> {
        self.attrs.get(&id)
    }

    /// Remove an attribute; returns the removed value.
    pub fn remove(&mut self, id: AttrId) -> Option<AttrValue> {
        Arc::make_mut(&mut self.attrs).remove(&id)
    }

    /// Whether the attribute is present.
    pub fn contains(&self, id: AttrId) -> bool {
        self.attrs.contains_key(&id)
    }

    /// Number of attributes in the entry.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the entry holds no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterate attributes in `AttrId` order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrId, &AttrValue)> {
        self.attrs.iter()
    }

    /// Approximate in-RAM footprint of the whole entry, in bytes.
    pub fn approx_size(&self) -> usize {
        // Map node overhead is roughly 48 bytes per entry on 64-bit targets.
        self.attrs.values().map(|v| 2 + 48 + v.approx_size()).sum()
    }

    /// Apply a set of attribute modifications in order.
    pub fn apply(&mut self, mods: &[AttrMod]) {
        let attrs = Arc::make_mut(&mut self.attrs);
        for m in mods {
            match m {
                AttrMod::Set(id, v) => {
                    attrs.insert(*id, v.clone());
                }
                AttrMod::Delete(id) => {
                    attrs.remove(id);
                }
            }
        }
    }
}

impl FromIterator<(AttrId, AttrValue)> for Entry {
    fn from_iter<I: IntoIterator<Item = (AttrId, AttrValue)>>(iter: I) -> Self {
        Entry {
            attrs: Arc::new(iter.into_iter().collect()),
        }
    }
}

/// A single attribute-level modification (the unit of an LDAP modify and of
/// attribute-level conflict detection in multi-master merges).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrMod {
    /// Set the attribute to the value.
    Set(AttrId, AttrValue),
    /// Remove the attribute.
    Delete(AttrId),
}

impl AttrMod {
    /// The attribute this modification touches.
    pub fn attr(&self) -> AttrId {
        match self {
            AttrMod::Set(id, _) => *id,
            AttrMod::Delete(id) => *id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip_for_all_attrs() {
        for a in AttrId::ALL {
            assert_eq!(AttrId::from_tag(a.tag()), Some(a), "{a:?}");
        }
        assert_eq!(
            AttrId::from_tag(AttrId::HomeRegion.tag()),
            Some(AttrId::HomeRegion)
        );
        assert_eq!(AttrId::from_tag(9999), None);
    }

    #[test]
    fn entry_set_get_remove() {
        let mut e = Entry::new();
        assert!(e.is_empty());
        assert_eq!(e.set(AttrId::Msisdn, "34600123456"), None);
        assert_eq!(
            e.get(AttrId::Msisdn).and_then(AttrValue::as_str),
            Some("34600123456")
        );
        let prev = e.set(AttrId::Msisdn, "34600999999");
        assert_eq!(prev.as_ref().and_then(|v| v.as_str()), Some("34600123456"));
        assert_eq!(e.len(), 1);
        assert!(e.remove(AttrId::Msisdn).is_some());
        assert!(e.is_empty());
    }

    #[test]
    fn entry_apply_mods_in_order() {
        let mut e = Entry::new();
        e.apply(&[
            AttrMod::Set(AttrId::OdbMask, AttrValue::U64(0)),
            AttrMod::Set(AttrId::OdbMask, AttrValue::U64(7)),
            AttrMod::Set(AttrId::CallBarring, AttrValue::Bool(true)),
            AttrMod::Delete(AttrId::CallBarring),
        ]);
        assert_eq!(e.get(AttrId::OdbMask).and_then(AttrValue::as_u64), Some(7));
        assert!(!e.contains(AttrId::CallBarring));
    }

    #[test]
    fn approx_size_is_monotone_in_content() {
        let mut small = Entry::new();
        small.set(AttrId::Imsi, "214010000000001");
        let mut big = small.clone();
        big.set(
            AttrId::ApnProfiles,
            vec!["internet".to_owned(), "ims".to_owned()],
        );
        assert!(big.approx_size() > small.approx_size());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(AttrValue::U64(5).as_u64(), Some(5));
        assert_eq!(AttrValue::Bool(true).as_bool(), Some(true));
        assert_eq!(AttrValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(AttrValue::U64(5).as_str(), None);
        let l = AttrValue::StrList(vec!["a".into()]);
        assert_eq!(l.as_str_list().map(|s| s.len()), Some(1));
    }

    #[test]
    fn from_iterator_builds_sorted_entry() {
        let e: Entry = [
            (AttrId::Msisdn, AttrValue::from("34600123456")),
            (AttrId::Imsi, AttrValue::from("214010000000001")),
        ]
        .into_iter()
        .collect();
        let keys: Vec<_> = e.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![AttrId::Imsi, AttrId::Msisdn]);
    }
}
