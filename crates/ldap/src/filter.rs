//! LDAP search filters (RFC 2254/4515 subset) over subscriber entries.
//!
//! The paper's second motivation for UDC (§1) is that with silo'd HLR/HSS
//! nodes "performing business intelligence and operative research over
//! subscriber data becomes a formidable task, since there's no standardized
//! way of fetching subscriber data from the silos" — and §2.2 notes that
//! "data mining over the subscriber data stored in the UDR is propelling
//! service providers to move to a DLA telecom network." The standardized
//! way is an LDAP search filter: this module implements the filter grammar
//! ANDs/ORs/NOTs of equality, presence, ordering and substring assertions —
//! parsed from and printed in the RFC 4515 string form, and evaluated
//! against [`Entry`] attribute maps.
//!
//! Matching-rule choices (the subset the subscriber schema needs):
//!
//! * string attributes match case-insensitively (`caseIgnoreMatch`);
//! * multi-valued attributes (IMPU lists, teleservices) match if *any*
//!   value matches;
//! * assertion values are strings, coerced per the attribute value's
//!   actual type — integers numerically, booleans as `TRUE`/`FALSE`,
//!   octet strings as hex (two digits per byte, either case);
//! * `>=`/`<=` apply numerically and never match non-numeric values.
//!
//! ```
//! use udr_ldap::filter::Filter;
//! use udr_model::attrs::{AttrId, Entry};
//!
//! let barred_roamers: Filter = "(&(callBarring=TRUE)(!(vlrAddress=*)))".parse().unwrap();
//! let mut e = Entry::new();
//! e.set(AttrId::CallBarring, true);
//! assert!(barred_roamers.matches(&e));
//! ```

use std::fmt::{self, Write as _};
use std::str::FromStr;

use udr_model::attrs::{AttrId, AttrValue, Entry};

/// All schema attributes with their LDAP short names (lowerCamelCase of the
/// Rust variant, the usual directory convention).
const ATTR_NAMES: [(AttrId, &str); 22] = [
    (AttrId::Imsi, "imsi"),
    (AttrId::Msisdn, "msisdn"),
    (AttrId::ImpuList, "impuList"),
    (AttrId::Impi, "impi"),
    (AttrId::AuthKi, "authKi"),
    (AttrId::AuthAmf, "authAmf"),
    (AttrId::AuthSqn, "authSqn"),
    (AttrId::SubscriberStatus, "subscriberStatus"),
    (AttrId::OdbMask, "odbMask"),
    (AttrId::CallBarring, "callBarring"),
    (AttrId::CallForwarding, "callForwarding"),
    (AttrId::Teleservices, "teleservices"),
    (AttrId::ApnProfiles, "apnProfiles"),
    (AttrId::CamelCsi, "camelCsi"),
    (AttrId::ChargingProfile, "chargingProfile"),
    (AttrId::VlrAddress, "vlrAddress"),
    (AttrId::SgsnAddress, "sgsnAddress"),
    (AttrId::MmeAddress, "mmeAddress"),
    (AttrId::ImsRegState, "imsRegState"),
    (AttrId::ScscfName, "scscfName"),
    (AttrId::HomeRegion, "homeRegion"),
    (AttrId::ProvisioningGen, "provisioningGen"),
];

/// The LDAP short name of an attribute.
pub fn attr_name(attr: AttrId) -> &'static str {
    ATTR_NAMES
        .iter()
        .find(|(a, _)| *a == attr)
        .map(|(_, n)| *n)
        .expect("every AttrId has a name")
}

/// Resolve an LDAP short name (ASCII-case-insensitively, per directory
/// convention) to the schema attribute.
pub fn attr_by_name(name: &str) -> Option<AttrId> {
    ATTR_NAMES
        .iter()
        .find(|(_, n)| n.eq_ignore_ascii_case(name))
        .map(|(a, _)| *a)
}

/// A search filter.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Every sub-filter matches. `(&)` is the RFC 4526 absolute-true filter.
    And(Vec<Filter>),
    /// At least one sub-filter matches. `(|)` is absolute-false.
    Or(Vec<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
    /// The attribute is present, any value: `(attr=*)`.
    Present(AttrId),
    /// The attribute has this value: `(attr=value)`.
    Equality(AttrId, String),
    /// The attribute is numerically ≥ the assertion: `(attr>=n)`.
    GreaterOrEqual(AttrId, u64),
    /// The attribute is numerically ≤ the assertion: `(attr<=n)`.
    LessOrEqual(AttrId, u64),
    /// Substring match `(attr=init*any*…*fin)`; each component optional.
    Substring {
        /// The attribute tested.
        attr: AttrId,
        /// Leading fragment (before the first `*`).
        initial: Option<String>,
        /// Fragments between `*`s, in order.
        any: Vec<String>,
        /// Trailing fragment (after the last `*`).
        fin: Option<String>,
    },
}

impl Filter {
    /// The absolute-true filter `(&)`.
    pub fn always() -> Filter {
        Filter::And(Vec::new())
    }

    /// Convenience equality on anything displayable.
    pub fn eq(attr: AttrId, value: impl fmt::Display) -> Filter {
        Filter::Equality(attr, value.to_string())
    }

    /// Evaluate against an entry.
    pub fn matches(&self, entry: &Entry) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
            Filter::Not(f) => !f.matches(entry),
            Filter::Present(attr) => entry.contains(*attr),
            Filter::Equality(attr, assertion) => entry
                .get(*attr)
                .is_some_and(|v| value_matches(v, assertion)),
            Filter::GreaterOrEqual(attr, n) => {
                entry.get(*attr).and_then(numeric).is_some_and(|v| v >= *n)
            }
            Filter::LessOrEqual(attr, n) => {
                entry.get(*attr).and_then(numeric).is_some_and(|v| v <= *n)
            }
            Filter::Substring {
                attr,
                initial,
                any,
                fin,
            } => entry
                .get(*attr)
                .is_some_and(|v| substring_matches(v, initial, any, fin)),
        }
    }

    /// How many attribute assertions the filter contains (a cost proxy for
    /// the analytics experiments: one assertion ≈ one attribute probe).
    pub fn assertion_count(&self) -> usize {
        match self {
            Filter::And(fs) | Filter::Or(fs) => fs.iter().map(Filter::assertion_count).sum(),
            Filter::Not(f) => f.assertion_count(),
            _ => 1,
        }
    }
}

/// Coerce an attribute value to a number for ordering assertions.
fn numeric(v: &AttrValue) -> Option<u64> {
    match v {
        AttrValue::U64(n) => Some(*n),
        AttrValue::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// Equality assertion against one attribute value.
fn value_matches(v: &AttrValue, assertion: &str) -> bool {
    match v {
        AttrValue::Str(s) => s.eq_ignore_ascii_case(assertion),
        AttrValue::U64(n) => assertion.parse::<u64>() == Ok(*n),
        AttrValue::Bool(b) => match *b {
            true => assertion.eq_ignore_ascii_case("true"),
            false => assertion.eq_ignore_ascii_case("false"),
        },
        AttrValue::Bytes(bytes) => hex_spells(bytes, assertion),
        AttrValue::StrList(list) => list.iter().any(|s| s.eq_ignore_ascii_case(assertion)),
    }
}

/// Whether `hex` spells `bytes` as two hex digits per byte, in either
/// case — compared nibble by nibble, without formatting the bytes.
fn hex_spells(bytes: &[u8], hex: &str) -> bool {
    let nibble = |c: u8| (c as char).to_digit(16);
    hex.len() == 2 * bytes.len()
        && bytes
            .iter()
            .zip(hex.as_bytes().chunks_exact(2))
            .all(|(b, pair)| {
                nibble(pair[0]) == Some(u32::from(b >> 4))
                    && nibble(pair[1]) == Some(u32::from(b & 0xf))
            })
}

fn substring_str(s: &str, initial: &Option<String>, any: &[String], fin: &Option<String>) -> bool {
    let lower = s.to_ascii_lowercase();
    let mut pos = 0usize;
    if let Some(init) = initial {
        if !lower.starts_with(&init.to_ascii_lowercase()) {
            return false;
        }
        pos = init.len();
    }
    for frag in any {
        let frag = frag.to_ascii_lowercase();
        match lower[pos..].find(&frag) {
            Some(i) => pos += i + frag.len(),
            None => return false,
        }
    }
    if let Some(fin) = fin {
        let fin = fin.to_ascii_lowercase();
        return lower.len() >= pos + fin.len() && lower.ends_with(&fin);
    }
    true
}

fn substring_matches(
    v: &AttrValue,
    initial: &Option<String>,
    any: &[String],
    fin: &Option<String>,
) -> bool {
    match v {
        AttrValue::Str(s) => substring_str(s, initial, any, fin),
        AttrValue::StrList(list) => list.iter().any(|s| substring_str(s, initial, any, fin)),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// RFC 4515 string form
// ---------------------------------------------------------------------------

/// Escape a value fragment for the string form (RFC 4515 §3: `( ) * \` and
/// NUL must be hex-escaped).
fn escape(s: &str, out: &mut String) {
    for b in s.bytes() {
        match b {
            b'(' | b')' | b'*' | b'\\' | 0 => {
                write!(out, "\\{b:02x}").expect("writing to a String cannot fail");
            }
            _ => out.push(b as char),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::And(fs) => {
                write!(f, "(&")?;
                for sub in fs {
                    write!(f, "{sub}")?;
                }
                write!(f, ")")
            }
            Filter::Or(fs) => {
                write!(f, "(|")?;
                for sub in fs {
                    write!(f, "{sub}")?;
                }
                write!(f, ")")
            }
            Filter::Not(sub) => write!(f, "(!{sub})"),
            Filter::Present(attr) => write!(f, "({}=*)", attr_name(*attr)),
            Filter::Equality(attr, v) => {
                let mut buf = String::new();
                escape(v, &mut buf);
                write!(f, "({}={})", attr_name(*attr), buf)
            }
            Filter::GreaterOrEqual(attr, n) => write!(f, "({}>={n})", attr_name(*attr)),
            Filter::LessOrEqual(attr, n) => write!(f, "({}<={n})", attr_name(*attr)),
            Filter::Substring {
                attr,
                initial,
                any,
                fin,
            } => {
                write!(f, "({}=", attr_name(*attr))?;
                let mut buf = String::new();
                if let Some(init) = initial {
                    escape(init, &mut buf);
                }
                buf.push('*');
                for frag in any {
                    escape(frag, &mut buf);
                    buf.push('*');
                }
                if let Some(fin) = fin {
                    escape(fin, &mut buf);
                }
                write!(f, "{buf})")
            }
        }
    }
}

/// A filter-string parse error with position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FilterParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "filter parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for FilterParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, FilterParseError> {
        Err(FilterParseError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), FilterParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn filter(&mut self) -> Result<Filter, FilterParseError> {
        self.expect(b'(')?;
        let f = match self.peek() {
            Some(b'&') => {
                self.pos += 1;
                Filter::And(self.filter_list()?)
            }
            Some(b'|') => {
                self.pos += 1;
                Filter::Or(self.filter_list()?)
            }
            Some(b'!') => {
                self.pos += 1;
                Filter::Not(Box::new(self.filter()?))
            }
            Some(_) => self.item()?,
            None => return self.err("unexpected end of filter"),
        };
        self.expect(b')')?;
        Ok(f)
    }

    fn filter_list(&mut self) -> Result<Vec<Filter>, FilterParseError> {
        let mut list = Vec::new();
        while self.peek() == Some(b'(') {
            list.push(self.filter()?);
        }
        Ok(list)
    }

    fn item(&mut self) -> Result<Filter, FilterParseError> {
        let name_start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.src[name_start..self.pos])
            .expect("ascii subset is valid utf-8");
        if name.is_empty() {
            return self.err("empty attribute name");
        }
        let attr = match attr_by_name(name) {
            Some(a) => a,
            None => return self.err(format!("unknown attribute '{name}'")),
        };
        match self.peek() {
            Some(b'>') => {
                self.pos += 1;
                self.expect(b'=')?;
                let n = self.number()?;
                Ok(Filter::GreaterOrEqual(attr, n))
            }
            Some(b'<') => {
                self.pos += 1;
                self.expect(b'=')?;
                let n = self.number()?;
                Ok(Filter::LessOrEqual(attr, n))
            }
            Some(b'=') => {
                self.pos += 1;
                self.value_side(attr)
            }
            _ => self.err("expected '=', '>=' or '<='"),
        }
    }

    fn number(&mut self) -> Result<u64, FilterParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected a number");
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .expect("digits are valid utf-8")
            .parse()
            .or_else(|_| self.err("number out of range"))
    }

    /// Parse everything after `attr=`: plain value, `*` presence, or a
    /// substring pattern. Fragments may contain `\xx` escapes.
    fn value_side(&mut self, attr: AttrId) -> Result<Filter, FilterParseError> {
        let mut fragments: Vec<String> = Vec::new();
        let mut stars = 0usize;
        let mut current = String::new();
        loop {
            match self.peek() {
                Some(b')') | None => break,
                Some(b'*') => {
                    self.pos += 1;
                    stars += 1;
                    fragments.push(std::mem::take(&mut current));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let hi = self.hex_digit()?;
                    let lo = self.hex_digit()?;
                    current.push((hi * 16 + lo) as char);
                }
                Some(b'(') => return self.err("unescaped '(' in value"),
                Some(b) => {
                    self.pos += 1;
                    current.push(b as char);
                }
            }
        }
        fragments.push(current);

        if stars == 0 {
            return Ok(Filter::Equality(
                attr,
                fragments.pop().expect("one fragment"),
            ));
        }
        // `(attr=*)` is a presence test.
        if stars == 1 && fragments.iter().all(String::is_empty) {
            return Ok(Filter::Present(attr));
        }
        // Substring: first fragment is `initial`, last is `final`, the rest
        // are `any` components (empty interior fragments collapse, matching
        // RFC 4515's `**`).
        let fin = match fragments.pop() {
            Some(f) if f.is_empty() => None,
            Some(f) => Some(f),
            None => None,
        };
        let initial = match fragments.first() {
            Some(f) if f.is_empty() => None,
            Some(f) => Some(f.clone()),
            None => None,
        };
        let any: Vec<String> = fragments
            .into_iter()
            .skip(1)
            .filter(|f| !f.is_empty())
            .collect();
        Ok(Filter::Substring {
            attr,
            initial,
            any,
            fin,
        })
    }

    fn hex_digit(&mut self) -> Result<u8, FilterParseError> {
        match self.peek().and_then(|b| (b as char).to_digit(16)) {
            Some(d) => {
                self.pos += 1;
                Ok(d as u8)
            }
            None => self.err("expected hex digit after '\\'"),
        }
    }
}

impl FromStr for Filter {
    type Err = FilterParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = Parser {
            src: s.as_bytes(),
            pos: 0,
        };
        let f = p.filter()?;
        if p.pos != s.len() {
            return p.err("trailing input after filter");
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Imsi, "214011234567890");
        e.set(AttrId::Msisdn, "34600123456");
        e.set(AttrId::OdbMask, 6u64);
        e.set(AttrId::CallBarring, true);
        e.set(AttrId::HomeRegion, 2u64);
        e.set(
            AttrId::ImpuList,
            vec![
                "sip:alice@ims.example".to_owned(),
                "tel:+34600123456".to_owned(),
            ],
        );
        e
    }

    #[test]
    fn attr_names_round_trip() {
        for (attr, name) in ATTR_NAMES {
            assert_eq!(attr_name(attr), name);
            assert_eq!(attr_by_name(name), Some(attr));
            assert_eq!(attr_by_name(&name.to_ascii_uppercase()), Some(attr));
        }
        assert_eq!(attr_by_name("noSuchAttr"), None);
    }

    #[test]
    fn equality_matching_by_type() {
        let e = entry();
        assert!(Filter::eq(AttrId::Msisdn, "34600123456").matches(&e));
        assert!(!Filter::eq(AttrId::Msisdn, "34600000000").matches(&e));
        assert!(Filter::eq(AttrId::OdbMask, 6).matches(&e));
        assert!(Filter::eq(AttrId::CallBarring, "TRUE").matches(&e));
        assert!(Filter::eq(AttrId::CallBarring, "true").matches(&e));
        // Multi-valued: any member matches.
        assert!(Filter::eq(AttrId::ImpuList, "tel:+34600123456").matches(&e));
        assert!(!Filter::eq(AttrId::ImpuList, "tel:+34999").matches(&e));
        // Absent attribute never matches.
        assert!(!Filter::eq(AttrId::VlrAddress, "x").matches(&e));
    }

    #[test]
    fn string_equality_is_case_insensitive() {
        let mut e = Entry::new();
        e.set(AttrId::ScscfName, "SCSCF1.ims.Example");
        assert!(Filter::eq(AttrId::ScscfName, "scscf1.IMS.example").matches(&e));
    }

    #[test]
    fn presence_and_negation() {
        let e = entry();
        assert!(Filter::Present(AttrId::Imsi).matches(&e));
        assert!(!Filter::Present(AttrId::VlrAddress).matches(&e));
        assert!(Filter::Not(Box::new(Filter::Present(AttrId::VlrAddress))).matches(&e));
    }

    #[test]
    fn ordering_assertions_are_numeric_only() {
        let e = entry();
        assert!(Filter::GreaterOrEqual(AttrId::OdbMask, 6).matches(&e));
        assert!(Filter::GreaterOrEqual(AttrId::OdbMask, 5).matches(&e));
        assert!(!Filter::GreaterOrEqual(AttrId::OdbMask, 7).matches(&e));
        assert!(Filter::LessOrEqual(AttrId::OdbMask, 6).matches(&e));
        assert!(!Filter::LessOrEqual(AttrId::OdbMask, 5).matches(&e));
        // Numeric digit-strings order too (MSISDN prefixes by range).
        assert!(Filter::GreaterOrEqual(AttrId::Msisdn, 34_000_000_000).matches(&e));
        // Booleans never satisfy ordering.
        assert!(!Filter::GreaterOrEqual(AttrId::CallBarring, 0).matches(&e));
    }

    #[test]
    fn substring_matching() {
        let e = entry();
        let f: Filter = "(impuList=sip:*@ims.example)".parse().unwrap();
        assert!(f.matches(&e));
        let f: Filter = "(msisdn=346*)".parse().unwrap();
        assert!(f.matches(&e));
        let f: Filter = "(msisdn=*456)".parse().unwrap();
        assert!(f.matches(&e));
        let f: Filter = "(msisdn=34*01*6)".parse().unwrap();
        assert!(f.matches(&e));
        let f: Filter = "(msisdn=34*99*6)".parse().unwrap();
        assert!(!f.matches(&e));
        // Substring on a non-string attribute never matches.
        let f: Filter = "(odbMask=1*)".parse().unwrap();
        assert!(!f.matches(&e));
    }

    #[test]
    fn boolean_connectives() {
        let e = entry();
        let f: Filter = "(&(callBarring=TRUE)(homeRegion=2))".parse().unwrap();
        assert!(f.matches(&e));
        let f: Filter = "(&(callBarring=TRUE)(homeRegion=1))".parse().unwrap();
        assert!(!f.matches(&e));
        let f: Filter = "(|(homeRegion=1)(homeRegion=2))".parse().unwrap();
        assert!(f.matches(&e));
        let f: Filter = "(!(callBarring=TRUE))".parse().unwrap();
        assert!(!f.matches(&e));
        // RFC 4526 absolute true/false.
        assert!("(&)".parse::<Filter>().unwrap().matches(&e));
        assert!(!"(|)".parse::<Filter>().unwrap().matches(&e));
    }

    #[test]
    fn parse_rejects_malformed_filters() {
        for bad in [
            "",
            "(",
            "()",
            "(msisdn)",
            "(msisdn=1",
            "(unknownAttr=1)",
            "(msisdn>=abc)",
            "(msisdn=1)(extra=2)",
            "(&(msisdn=1)",
            "(msisdn=\\zz)",
        ] {
            assert!(bad.parse::<Filter>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let f = Filter::eq(AttrId::ScscfName, "weird(*)\\name");
        let s = f.to_string();
        assert_eq!(s, r"(scscfName=weird\28\2a\29\5cname)");
        let back: Filter = s.parse().unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn display_parse_round_trip() {
        let filters = [
            "(&(callBarring=TRUE)(homeRegion=2))",
            "(|(odbMask>=4)(odbMask<=1))",
            "(!(vlrAddress=*))",
            "(imsi=214011234567890)",
            "(impuList=sip:*@ims.example)",
            "(msisdn=34*01*6)",
            "(&)",
            "(|)",
            "(&(|(homeRegion=0)(homeRegion=1))(!(subscriberStatus=barred)))",
        ];
        for s in filters {
            let f: Filter = s.parse().unwrap();
            assert_eq!(f.to_string(), s, "canonical form differs");
            let again: Filter = f.to_string().parse().unwrap();
            assert_eq!(again, f);
        }
    }

    #[test]
    fn assertion_count_counts_leaves() {
        let f: Filter = "(&(|(homeRegion=0)(homeRegion=1))(!(callBarring=TRUE)))"
            .parse()
            .unwrap();
        assert_eq!(f.assertion_count(), 3);
        assert_eq!(Filter::always().assertion_count(), 0);
    }

    #[test]
    fn bytes_match_as_hex() {
        let mut e = Entry::new();
        e.set(AttrId::AuthKi, vec![0xde, 0xad, 0xbe, 0xef]);
        assert!(Filter::eq(AttrId::AuthKi, "deadbeef").matches(&e));
        assert!(Filter::eq(AttrId::AuthKi, "DEADBEEF").matches(&e));
        assert!(!Filter::eq(AttrId::AuthKi, "deadbeee").matches(&e));
        assert!(Filter::eq(AttrId::AuthKi, "DeAdBeEf").matches(&e));
        // Odd length: one digit short, or one too many.
        assert!(!Filter::eq(AttrId::AuthKi, "deadbee").matches(&e));
        assert!(!Filter::eq(AttrId::AuthKi, "deadbeef0").matches(&e));
        // A character that is not a hex digit never matches.
        assert!(!Filter::eq(AttrId::AuthKi, "deadbeeg").matches(&e));
        assert!(!Filter::eq(AttrId::AuthKi, "deadbe\u{e9}").matches(&e));
        // The empty value is spelled by the empty assertion only.
        let mut empty = Entry::new();
        empty.set(AttrId::AuthKi, Vec::<u8>::new());
        assert!(Filter::eq(AttrId::AuthKi, "").matches(&empty));
        assert!(!Filter::eq(AttrId::AuthKi, "00").matches(&empty));
        assert!(!Filter::eq(AttrId::AuthKi, "").matches(&e));
    }
}
