//! The LDAP operation subset the UDR's clients use (RFC 2251 §4, reduced to
//! what HLR-FE/HSS-FE and the PS actually issue: indexed single-entry
//! search, add, modify, delete).

use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};

use crate::dn::Dn;
use crate::filter::Filter;

/// Result codes (RFC 2251 §4.1.10 subset, plus `Busy`/`Unavailable` used
/// for overload and partition failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ResultCode {
    /// The operation completed.
    Success = 0,
    /// The entry does not exist.
    NoSuchObject = 32,
    /// The server is overloaded.
    Busy = 51,
    /// The backing store (or its master copy) is unreachable.
    Unavailable = 52,
    /// The server is unwilling (e.g. write addressed to a slave).
    UnwillingToPerform = 53,
    /// Compare matched (RFC 2251 compareTrue).
    CompareTrue = 6,
    /// Compare did not match (RFC 2251 compareFalse).
    CompareFalse = 5,
    /// Add of an existing entry.
    EntryAlreadyExists = 68,
    /// Anything else.
    Other = 80,
}

impl ResultCode {
    /// Inverse of the numeric tag.
    pub fn from_u8(v: u8) -> Option<ResultCode> {
        Some(match v {
            0 => ResultCode::Success,
            5 => ResultCode::CompareFalse,
            6 => ResultCode::CompareTrue,
            32 => ResultCode::NoSuchObject,
            51 => ResultCode::Busy,
            52 => ResultCode::Unavailable,
            53 => ResultCode::UnwillingToPerform,
            68 => ResultCode::EntryAlreadyExists,
            80 => ResultCode::Other,
            _ => return None,
        })
    }
}

/// A request operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LdapOp {
    /// Simple bind: authenticate a client against the directory (FEs and
    /// the PS bind once per connection; RFC 2251 §4.2).
    Bind {
        /// The authenticating entity's DN.
        dn: Dn,
        /// Simple-authentication credentials.
        password: Vec<u8>,
    },
    /// Indexed single-entry search: fetch (a projection of) the entry named
    /// by the DN. Empty `attrs` means "all attributes".
    Search {
        /// The entry to fetch.
        base: Dn,
        /// Attribute projection (empty = all).
        attrs: Vec<AttrId>,
    },
    /// Filtered search (RFC 2251 §4.5 with an RFC 4515 filter): fetch the
    /// entry named by the DN only if it satisfies the filter. This is the
    /// operation the §1/§2.2 business-intelligence clients issue; the
    /// indexed [`LdapOp::Search`] remains the FE fast path.
    SearchFilter {
        /// The entry (or scan anchor) addressed.
        base: Dn,
        /// The RFC 4515 filter the entry must satisfy.
        filter: Filter,
        /// Attribute projection (empty = all).
        attrs: Vec<AttrId>,
    },
    /// Compare one attribute of the entry against an asserted value
    /// (RFC 2251 §4.10 — e.g. barring-flag checks without fetching).
    Compare {
        /// The entry to test.
        dn: Dn,
        /// The attribute asserted.
        attr: AttrId,
        /// The asserted value.
        value: AttrValue,
    },
    /// Create the entry named by the DN.
    Add {
        /// Where to create it.
        dn: Dn,
        /// Initial attributes.
        entry: Entry,
    },
    /// Apply attribute modifications to the entry named by the DN.
    Modify {
        /// The entry to change.
        dn: Dn,
        /// Ordered modifications.
        mods: Vec<AttrMod>,
    },
    /// Remove the entry named by the DN.
    Delete {
        /// The entry to remove.
        dn: Dn,
    },
}

impl LdapOp {
    /// Whether the operation writes subscriber data.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            LdapOp::Add { .. } | LdapOp::Modify { .. } | LdapOp::Delete { .. }
        )
    }

    /// The DN the operation addresses.
    pub fn dn(&self) -> &Dn {
        match self {
            LdapOp::Bind { dn, .. } => dn,
            LdapOp::Search { base, .. } => base,
            LdapOp::SearchFilter { base, .. } => base,
            LdapOp::Compare { dn, .. } => dn,
            LdapOp::Add { dn, .. } => dn,
            LdapOp::Modify { dn, .. } => dn,
            LdapOp::Delete { dn } => dn,
        }
    }
}

/// A full request message.
#[derive(Debug, Clone, PartialEq)]
pub struct LdapRequest {
    /// Client-assigned message id (echoed in the response).
    pub message_id: u32,
    /// The operation.
    pub op: LdapOp,
}

/// A response message.
#[derive(Debug, Clone, PartialEq)]
pub struct LdapResponse {
    /// Echoed message id.
    pub message_id: u32,
    /// Outcome code.
    pub code: ResultCode,
    /// For successful searches, the (projected) entry.
    pub entry: Option<Entry>,
}

impl LdapResponse {
    /// A success response without payload.
    pub fn success(message_id: u32) -> Self {
        LdapResponse {
            message_id,
            code: ResultCode::Success,
            entry: None,
        }
    }

    /// A success response carrying an entry.
    pub fn with_entry(message_id: u32, entry: Entry) -> Self {
        LdapResponse {
            message_id,
            code: ResultCode::Success,
            entry: Some(entry),
        }
    }

    /// An error response.
    pub fn error(message_id: u32, code: ResultCode) -> Self {
        LdapResponse {
            message_id,
            code,
            entry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::identity::{Identity, Imsi};

    fn dn() -> Dn {
        Dn::for_identity(Identity::Imsi(Imsi::new("214011234567890").unwrap()))
    }

    #[test]
    fn write_classification() {
        assert!(!LdapOp::Search {
            base: dn(),
            attrs: vec![]
        }
        .is_write());
        assert!(!LdapOp::SearchFilter {
            base: dn(),
            filter: Filter::Present(AttrId::CallBarring),
            attrs: vec![]
        }
        .is_write());
        assert!(!LdapOp::Bind {
            dn: dn(),
            password: vec![1, 2]
        }
        .is_write());
        assert!(!LdapOp::Compare {
            dn: dn(),
            attr: AttrId::CallBarring,
            value: AttrValue::Bool(true)
        }
        .is_write());
        assert!(LdapOp::Add {
            dn: dn(),
            entry: Entry::new()
        }
        .is_write());
        assert!(LdapOp::Modify {
            dn: dn(),
            mods: vec![]
        }
        .is_write());
        assert!(LdapOp::Delete { dn: dn() }.is_write());
    }

    #[test]
    fn result_code_round_trip() {
        for code in [
            ResultCode::Success,
            ResultCode::CompareTrue,
            ResultCode::CompareFalse,
            ResultCode::NoSuchObject,
            ResultCode::Busy,
            ResultCode::Unavailable,
            ResultCode::UnwillingToPerform,
            ResultCode::EntryAlreadyExists,
            ResultCode::Other,
        ] {
            assert_eq!(ResultCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ResultCode::from_u8(99), None);
    }

    #[test]
    fn response_constructors() {
        let r = LdapResponse::with_entry(7, Entry::new());
        assert_eq!(r.message_id, 7);
        assert!(r.entry.is_some());
    }

    #[test]
    fn op_dn_accessor() {
        let op = LdapOp::Delete { dn: dn() };
        assert_eq!(op.dn(), &dn());
    }
}
