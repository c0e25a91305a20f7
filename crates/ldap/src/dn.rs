//! Distinguished names for the UDR's LDAP view (§1: UDC "is mandated to
//! support an LDAP-based interface to read/write subscriber data").
//!
//! The directory layout follows common HLR/HSS practice: one subscriber
//! entry per identity index, all under `ou=subscribers,dc=udr`:
//!
//! ```text
//! imsi=214011234567890,ou=subscribers,dc=udr
//! msisdn=34600123456,ou=subscribers,dc=udr
//! impu=sip:alice@ims.example.com,ou=subscribers,dc=udr
//! ```

use std::fmt;

use udr_model::error::{UdrError, UdrResult};
use udr_model::identity::{Identity, IdentityKind, Impi, Impu, Imsi, Msisdn};

/// The fixed suffix all subscriber entries share.
pub const SUBSCRIBER_BASE: &str = "ou=subscribers,dc=udr";

/// A (restricted) distinguished name: a leading identity RDN plus the fixed
/// subscriber base.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dn {
    identity: Identity,
}

impl Dn {
    /// The DN of the entry keyed by `identity`.
    pub fn for_identity(identity: Identity) -> Self {
        Dn { identity }
    }

    /// The identity in the leading RDN.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// Parse a DN of the restricted shape `<kind>=<value>,ou=subscribers,dc=udr`.
    pub fn parse(s: &str) -> UdrResult<Self> {
        let err = || UdrError::Codec(format!("malformed DN {s:?}"));
        let (rdn, base) = s.split_once(',').ok_or_else(err)?;
        if base != SUBSCRIBER_BASE {
            return Err(UdrError::Codec(format!(
                "DN base {base:?} is not {SUBSCRIBER_BASE:?}"
            )));
        }
        let (attr, value) = rdn.split_once('=').ok_or_else(err)?;
        let identity = match attr.to_ascii_lowercase().as_str() {
            "imsi" => Identity::Imsi(Imsi::new(value)?),
            "msisdn" => Identity::Msisdn(Msisdn::new(value)?),
            // IMPU values contain '=' never, but do contain ':'.
            "impu" => Identity::Impu(Impu::new(value)?),
            "impi" => Identity::Impi(Impi::new(value)?),
            _ => return Err(err()),
        };
        Ok(Dn { identity })
    }

    /// The RDN attribute name for an identity kind.
    fn rdn_attr(kind: IdentityKind) -> &'static str {
        match kind {
            IdentityKind::Imsi => "imsi",
            IdentityKind::Msisdn => "msisdn",
            IdentityKind::Impu => "impu",
            IdentityKind::Impi => "impi",
        }
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={},{}",
            Dn::rdn_attr(self.identity.kind()),
            self.identity.as_str(),
            SUBSCRIBER_BASE
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_and_parse_round_trip() {
        let cases = [
            Identity::Imsi(Imsi::new("214011234567890").unwrap()),
            Identity::Msisdn(Msisdn::new("34600123456").unwrap()),
            Identity::Impu(Impu::new("sip:alice@ims.example.com").unwrap()),
            Identity::Impi(Impi::new("alice@ims.example.com").unwrap()),
        ];
        for id in cases {
            let dn = Dn::for_identity(id);
            let parsed = Dn::parse(&dn.to_string()).unwrap();
            assert_eq!(parsed.identity(), &id);
        }
    }

    #[test]
    fn specific_formats() {
        let dn = Dn::for_identity(Identity::Imsi(Imsi::new("214011234567890").unwrap()));
        assert_eq!(dn.to_string(), "imsi=214011234567890,ou=subscribers,dc=udr");
    }

    #[test]
    fn rejects_wrong_base() {
        assert!(Dn::parse("imsi=214011234567890,ou=other,dc=udr").is_err());
    }

    #[test]
    fn rejects_unknown_rdn_attr() {
        assert!(Dn::parse("cn=alice,ou=subscribers,dc=udr").is_err());
    }

    #[test]
    fn rejects_invalid_identity_value() {
        assert!(Dn::parse("imsi=abc,ou=subscribers,dc=udr").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Dn::parse("").is_err());
        assert!(Dn::parse("nocomma").is_err());
        assert!(Dn::parse("imsi214,ou=subscribers,dc=udr").is_err());
    }

    #[test]
    fn parse_accepts_uppercase_attr() {
        assert!(Dn::parse("IMSI=214011234567890,ou=subscribers,dc=udr").is_ok());
    }
}
