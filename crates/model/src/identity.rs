//! 3GPP subscriber identities.
//!
//! The UDR must maintain one index per subscriber identity (§3.5 of the
//! paper): IMSI, MSISDN, IMPU, IMPI, …. Each identity type is a validated
//! newtype; [`Identity`] is the tagged union used by the data-location stage
//! and the LDAP index layer.
//!
//! Identities are **interned**: a newtype holds a `u32` symbol into the
//! process-wide [`IdentityInterner`], so identities are `Copy`, hash and
//! compare as one machine word, and each distinct identity string is stored
//! once no matter how many indexes, caches and log records reference it.
//! `Display`, `FromStr` and ordering still speak the textual form —
//! `to_string()` → `parse()` round-trips for every kind — and ordering
//! remains lexicographic on the string, as the provisioned maps expect.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::attrs::Text;
use crate::error::UdrError;
use crate::intern::IdentityInterner;

/// International Mobile Subscriber Identity: up to 15 decimal digits,
/// MCC (3) + MNC (2–3) + MSIN.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Imsi(u32);

/// Mobile Subscriber ISDN number (E.164): 5–15 decimal digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Msisdn(u32);

/// IMS Public User Identity: a SIP or TEL URI.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Impu(u32);

/// IMS Private User Identity: NAI form, `user@realm`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Impi(u32);

fn all_digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

impl Imsi {
    /// Validate and construct an IMSI (6–15 digits; 15 is the 3GPP max,
    /// shorter values appear in test plants).
    pub fn new(s: impl AsRef<str>) -> Result<Self, UdrError> {
        let s = s.as_ref();
        if all_digits(s) && (6..=15).contains(&s.len()) {
            Ok(Imsi(IdentityInterner::global().intern(s)))
        } else {
            Err(UdrError::InvalidIdentity {
                kind: IdentityKind::Imsi,
                value: s.to_owned(),
            })
        }
    }

    /// The Mobile Country Code (first three digits).
    pub fn mcc(&self) -> &str {
        &self.as_str()[..3]
    }
}

impl Msisdn {
    /// Validate and construct an E.164 number (5–15 digits).
    pub fn new(s: impl AsRef<str>) -> Result<Self, UdrError> {
        let s = s.as_ref();
        if all_digits(s) && (5..=15).contains(&s.len()) {
            Ok(Msisdn(IdentityInterner::global().intern(s)))
        } else {
            Err(UdrError::InvalidIdentity {
                kind: IdentityKind::Msisdn,
                value: s.to_owned(),
            })
        }
    }
}

impl Impu {
    /// Validate and construct an IMPU. Accepts `sip:` and `tel:` URIs.
    pub fn new(s: impl AsRef<str>) -> Result<Self, UdrError> {
        let s = s.as_ref();
        if (s.starts_with("sip:") || s.starts_with("tel:")) && s.len() > 4 {
            Ok(Impu(IdentityInterner::global().intern(s)))
        } else {
            Err(UdrError::InvalidIdentity {
                kind: IdentityKind::Impu,
                value: s.to_owned(),
            })
        }
    }
}

impl Impi {
    /// Validate and construct an IMPI (`user@realm`).
    pub fn new(s: impl AsRef<str>) -> Result<Self, UdrError> {
        let s = s.as_ref();
        let valid = match s.split_once('@') {
            Some((user, realm)) => !user.is_empty() && !realm.is_empty(),
            None => false,
        };
        if valid {
            Ok(Impi(IdentityInterner::global().intern(s)))
        } else {
            Err(UdrError::InvalidIdentity {
                kind: IdentityKind::Impi,
                value: s.to_owned(),
            })
        }
    }
}

macro_rules! impl_interned {
    ($($t:ident),*) => {$(
        impl $t {
            /// The raw textual value, resolved from the interner. The
            /// returned reference is `'static`: interned identities live
            /// for the life of the process.
            pub fn as_str(&self) -> &'static str {
                IdentityInterner::global().resolve(self.0)
            }

            /// The textual value as an attribute's [`Text`], sharing the
            /// interner's bytes: no copy, no allocation.
            pub fn text(&self) -> Text {
                IdentityInterner::global().text(self.0)
            }

            /// The interned symbol — a dense `u32` suitable as a compact
            /// map/cache/ring key.
            pub fn symbol(&self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_tuple(stringify!($t)).field(&self.as_str()).finish()
            }
        }

        impl PartialOrd for $t {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $t {
            /// Lexicographic on the textual form, as the ordered
            /// identity-location maps require (not symbol order).
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                if self.0 == other.0 {
                    std::cmp::Ordering::Equal
                } else {
                    self.as_str().cmp(other.as_str())
                }
            }
        }

        impl FromStr for $t {
            type Err = UdrError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                Self::new(s)
            }
        }
    )*};
}
impl_interned!(Imsi, Msisdn, Impu, Impi);

/// Discriminant for the identity types the UDR indexes.
///
/// §3.5: "the UDR must support multiple indexes (one index per subscriber
/// identity, i.e. MSISDN, IMSI, IMPU etc.)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IdentityKind {
    /// International Mobile Subscriber Identity.
    Imsi,
    /// E.164 directory number.
    Msisdn,
    /// IMS public identity.
    Impu,
    /// IMS private identity.
    Impi,
}

impl IdentityKind {
    /// All identity kinds, in index order.
    pub const ALL: [IdentityKind; 4] = [
        IdentityKind::Imsi,
        IdentityKind::Msisdn,
        IdentityKind::Impu,
        IdentityKind::Impi,
    ];
}

impl fmt::Display for IdentityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IdentityKind::Imsi => "IMSI",
            IdentityKind::Msisdn => "MSISDN",
            IdentityKind::Impu => "IMPU",
            IdentityKind::Impi => "IMPI",
        };
        f.write_str(s)
    }
}

/// Any of the subscriber identities, as used for index lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Identity {
    /// An IMSI value.
    Imsi(Imsi),
    /// An MSISDN value.
    Msisdn(Msisdn),
    /// An IMPU value.
    Impu(Impu),
    /// An IMPI value.
    Impi(Impi),
}

impl Identity {
    /// Which index this identity belongs to.
    pub fn kind(&self) -> IdentityKind {
        match self {
            Identity::Imsi(_) => IdentityKind::Imsi,
            Identity::Msisdn(_) => IdentityKind::Msisdn,
            Identity::Impu(_) => IdentityKind::Impu,
            Identity::Impi(_) => IdentityKind::Impi,
        }
    }

    /// The raw textual value (digit string or URI).
    pub fn as_str(&self) -> &'static str {
        match self {
            Identity::Imsi(v) => v.as_str(),
            Identity::Msisdn(v) => v.as_str(),
            Identity::Impu(v) => v.as_str(),
            Identity::Impi(v) => v.as_str(),
        }
    }

    /// The interned symbol of the inner value. Symbols are unique per
    /// string (not per kind); pair with [`Identity::kind`] when keying
    /// per-kind structures.
    pub fn symbol(&self) -> u32 {
        match self {
            Identity::Imsi(v) => v.symbol(),
            Identity::Msisdn(v) => v.symbol(),
            Identity::Impu(v) => v.symbol(),
            Identity::Impi(v) => v.symbol(),
        }
    }

    /// Re-tag a textual value under `kind`, validating it as that kind.
    pub fn parse_as(kind: IdentityKind, value: &str) -> Result<Self, UdrError> {
        match kind {
            IdentityKind::Imsi => Imsi::new(value).map(Identity::Imsi),
            IdentityKind::Msisdn => Msisdn::new(value).map(Identity::Msisdn),
            IdentityKind::Impu => Impu::new(value).map(Identity::Impu),
            IdentityKind::Impi => Impi::new(value).map(Identity::Impi),
        }
    }
}

impl fmt::Display for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.kind(), self.as_str())
    }
}

impl FromStr for Identity {
    type Err = UdrError;

    /// Parse the `KIND=value` form produced by [`Identity`]'s `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, value) = s
            .split_once('=')
            .ok_or_else(|| UdrError::UnknownIdentity(s.to_owned()))?;
        let kind = match kind {
            "IMSI" => IdentityKind::Imsi,
            "MSISDN" => IdentityKind::Msisdn,
            "IMPU" => IdentityKind::Impu,
            "IMPI" => IdentityKind::Impi,
            _ => return Err(UdrError::UnknownIdentity(s.to_owned())),
        };
        Identity::parse_as(kind, value)
    }
}

impl From<Imsi> for Identity {
    fn from(v: Imsi) -> Self {
        Identity::Imsi(v)
    }
}
impl From<Msisdn> for Identity {
    fn from(v: Msisdn) -> Self {
        Identity::Msisdn(v)
    }
}
impl From<Impu> for Identity {
    fn from(v: Impu) -> Self {
        Identity::Impu(v)
    }
}
impl From<Impi> for Identity {
    fn from(v: Impi) -> Self {
        Identity::Impi(v)
    }
}

/// The full identity set of one subscription, as created by provisioning.
///
/// A subscription always carries an IMSI and an MSISDN; IMS identities are
/// present when the subscriber is IMS-enabled (HSS data, §1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdentitySet {
    /// The primary cellular identity.
    pub imsi: Imsi,
    /// The directory number.
    pub msisdn: Msisdn,
    /// IMS public identities (empty when not IMS-enabled).
    pub impus: Vec<Impu>,
    /// IMS private identity, when IMS-enabled.
    pub impi: Option<Impi>,
}

impl IdentitySet {
    /// Iterate over every identity in the set (the entries the location
    /// stage must index).
    pub fn iter(&self) -> impl Iterator<Item = Identity> + '_ {
        std::iter::once(Identity::Imsi(self.imsi))
            .chain(std::iter::once(Identity::Msisdn(self.msisdn)))
            .chain(self.impus.iter().copied().map(Identity::Impu))
            .chain(self.impi.iter().copied().map(Identity::Impi))
    }

    /// Number of distinct identities in the set.
    pub fn len(&self) -> usize {
        2 + self.impus.len() + usize::from(self.impi.is_some())
    }

    /// Always false: a set has at least IMSI and MSISDN.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imsi_validation() {
        assert!(Imsi::new("214011234567890").is_ok());
        assert!(Imsi::new("21401").is_err()); // too short
        assert!(Imsi::new("2140112345678901").is_err()); // too long
        assert!(Imsi::new("21401abc4567890").is_err()); // non-digit
        assert!(Imsi::new("").is_err());
    }

    #[test]
    fn imsi_mcc() {
        let imsi = Imsi::new("214011234567890").unwrap();
        assert_eq!(imsi.mcc(), "214");
    }

    #[test]
    fn msisdn_validation() {
        assert!(Msisdn::new("34600123456").is_ok());
        assert!(Msisdn::new("1234").is_err());
        assert!(Msisdn::new("34-600123456").is_err());
    }

    #[test]
    fn impu_validation() {
        assert!(Impu::new("sip:alice@ims.example.com").is_ok());
        assert!(Impu::new("tel:+34600123456").is_ok());
        assert!(Impu::new("http://x").is_err());
        assert!(Impu::new("sip:").is_err());
    }

    #[test]
    fn impi_validation() {
        assert!(Impi::new("alice@ims.example.com").is_ok());
        assert!(Impi::new("alice").is_err());
        assert!(Impi::new("@realm").is_err());
        assert!(Impi::new("user@").is_err());
    }

    #[test]
    fn identity_kind_roundtrip() {
        let id: Identity = Imsi::new("214011234567890").unwrap().into();
        assert_eq!(id.kind(), IdentityKind::Imsi);
        assert_eq!(id.as_str(), "214011234567890");
        assert_eq!(id.to_string(), "IMSI=214011234567890");
    }

    #[test]
    fn identity_set_iterates_all() {
        let set = IdentitySet {
            imsi: Imsi::new("214011234567890").unwrap(),
            msisdn: Msisdn::new("34600123456").unwrap(),
            impus: vec![
                Impu::new("sip:alice@ims.example.com").unwrap(),
                Impu::new("tel:+34600123456").unwrap(),
            ],
            impi: Some(Impi::new("alice@ims.example.com").unwrap()),
        };
        assert_eq!(set.len(), 5);
        assert!(!set.is_empty());
        let kinds: Vec<_> = set.iter().map(|i| i.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                IdentityKind::Imsi,
                IdentityKind::Msisdn,
                IdentityKind::Impu,
                IdentityKind::Impu,
                IdentityKind::Impi
            ]
        );
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Msisdn::new("34600000001").unwrap();
        let b = Msisdn::new("34600000002").unwrap();
        assert!(a < b);
        // Interning order must not leak into comparisons: intern the larger
        // string first and compare again.
        let later = Msisdn::new("99999000001").unwrap();
        let earlier = Msisdn::new("11111000001").unwrap();
        assert!(earlier < later);
    }

    #[test]
    fn interning_dedups_identities() {
        let a = Imsi::new("214011234567890").unwrap();
        let b = Imsi::new(String::from("214011234567890")).unwrap();
        assert_eq!(a.symbol(), b.symbol());
        assert_eq!(a, b);
        // Same digits as a different kind share the symbol but not the type.
        let m = Msisdn::new("214011234567890").unwrap();
        assert_eq!(a.symbol(), m.symbol());
    }

    #[test]
    fn display_from_str_round_trips() {
        let imsi = Imsi::new("214011234567890").unwrap();
        assert_eq!(imsi.to_string().parse::<Imsi>().unwrap(), imsi);
        let msisdn = Msisdn::new("34600123456").unwrap();
        assert_eq!(msisdn.to_string().parse::<Msisdn>().unwrap(), msisdn);
        let impu = Impu::new("sip:alice@ims.example.com").unwrap();
        assert_eq!(impu.to_string().parse::<Impu>().unwrap(), impu);
        let impi = Impi::new("alice@ims.example.com").unwrap();
        assert_eq!(impi.to_string().parse::<Impi>().unwrap(), impi);
    }

    #[test]
    fn identity_display_round_trips() {
        for id in [
            Identity::from(Imsi::new("214011234567890").unwrap()),
            Identity::from(Msisdn::new("34600123456").unwrap()),
            Identity::from(Impu::new("tel:+34600123456").unwrap()),
            Identity::from(Impi::new("alice@ims.example.com").unwrap()),
        ] {
            let shown = id.to_string();
            assert_eq!(shown.parse::<Identity>().unwrap(), id, "{shown}");
        }
        assert!("BOGUS=1".parse::<Identity>().is_err());
        assert!("214011234567890".parse::<Identity>().is_err());
    }

    #[test]
    fn debug_shows_text_not_symbol() {
        let imsi = Imsi::new("214011234567890").unwrap();
        assert_eq!(format!("{imsi:?}"), "Imsi(\"214011234567890\")");
    }
}
