//! Thread-safe identity interning — the million-subscriber memory plan.
//!
//! At national-operator scale every subscriber carries two to five textual
//! identities (§3.5 indexes one map per identity kind), so a naive
//! `String`-per-identity representation pays an allocation, a pointer-sized
//! heap header and a full string hash on every copy, key and compare. The
//! interner stores each distinct identity string exactly once and hands out
//! stable `u32` symbols; the identity newtypes become `Copy` and hash/compare
//! as a single machine word.
//!
//! Two lookup paths feed the same symbol table:
//!
//! * **digit-packed fast path** — IMSIs and MSISDNs are pure digit strings of
//!   at most 15 digits, so they pack losslessly into one `u64`
//!   (see `pack_digits`); interning hashes that word instead of the string.
//! * **general path** — URIs and NAIs (IMPU/IMPI) intern through a string
//!   keyed table.
//!
//! Interned strings are leaked (`&'static str`), which is exactly the
//! lifetime a subscriber database wants: identities live as long as the
//! process. [`IdentityInterner::global`] is the process-wide instance every
//! identity newtype routes through.

use std::collections::HashMap;
use std::sync::OnceLock;

use parking_lot::RwLock;

/// Maximum digit count the packed fast path accepts (the 3GPP identity
/// maximum: IMSI and E.164 numbers are at most 15 digits).
const PACK_MAX_DIGITS: usize = 15;

/// Pack an all-digit string of 1..=15 digits into one `u64`.
///
/// A leading sentinel `1` preserves both length and leading zeros
/// (`"007"` packs as `1007`, distinct from `"07"` = `107`), so the packing
/// is injective over its domain. Returns `None` for empty, over-long or
/// non-digit input — those strings take the general interning path.
fn pack_digits(s: &str) -> Option<u64> {
    let bytes = s.as_bytes();
    if bytes.is_empty() || bytes.len() > PACK_MAX_DIGITS {
        return None;
    }
    let mut packed: u64 = 1;
    for &b in bytes {
        if !b.is_ascii_digit() {
            return None;
        }
        packed = packed * 10 + u64::from(b - b'0');
    }
    Some(packed)
}

/// Both lookup tables keep the default SipHash, unlike the id-keyed maps
/// ([`IdMap`](crate::ids::IdMap)): their keys are identity strings that
/// arrive from outside the program, so a client could pick keys that
/// collide under a fixed hash.
#[derive(Default)]
struct Tables {
    /// Digit-packed fast path: packed word → symbol.
    by_packed: HashMap<u64, u32>,
    /// General path: interned string → symbol.
    by_str: HashMap<&'static str, u32>,
    /// Symbol → interned string (the arena of record).
    strings: Vec<&'static str>,
}

/// A thread-safe string interner for subscriber identities.
///
/// Symbols are dense `u32` indexes, stable for the life of the process and
/// shared across identity kinds (the kind lives in the newtype, not the
/// symbol), so an IMSI and an MSISDN with identical digits share storage.
#[derive(Default)]
pub struct IdentityInterner {
    tables: RwLock<Tables>,
}

impl IdentityInterner {
    /// An empty interner (tests and benches; production code uses
    /// [`IdentityInterner::global`]).
    pub fn new() -> Self {
        IdentityInterner::default()
    }

    /// The process-wide interner every identity newtype goes through.
    pub fn global() -> &'static IdentityInterner {
        static GLOBAL: OnceLock<IdentityInterner> = OnceLock::new();
        GLOBAL.get_or_init(IdentityInterner::new)
    }

    /// Intern `s`, returning its stable symbol. Repeated calls with equal
    /// strings return equal symbols and allocate nothing after the first.
    pub fn intern(&self, s: &str) -> u32 {
        if let Some(packed) = pack_digits(s) {
            if let Some(&sym) = self.tables.read().by_packed.get(&packed) {
                return sym;
            }
            let mut t = self.tables.write();
            // Double-check under the write lock: another thread may have
            // interned the same string between our read and write.
            if let Some(&sym) = t.by_packed.get(&packed) {
                return sym;
            }
            let sym = Self::push(&mut t, s);
            t.by_packed.insert(packed, sym);
            sym
        } else {
            if let Some(&sym) = self.tables.read().by_str.get(s) {
                return sym;
            }
            let mut t = self.tables.write();
            if let Some(&sym) = t.by_str.get(s) {
                return sym;
            }
            let sym = Self::push(&mut t, s);
            let leaked = t.strings[sym as usize];
            t.by_str.insert(leaked, sym);
            sym
        }
    }

    fn push(t: &mut Tables, s: &str) -> u32 {
        let sym = u32::try_from(t.strings.len())
            .expect("identity interner overflow: more than u32::MAX distinct identities");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        t.strings.push(leaked);
        sym
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: u32) -> &'static str {
        self.tables.read().strings[sym as usize]
    }

    /// Distinct identities interned so far.
    pub fn len(&self) -> usize {
        self.tables.read().strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many symbols entered through the digit-packed fast path.
    fn packed_len(&self) -> usize {
        self.tables.read().by_packed.len()
    }

    /// Approximate resident bytes: string payloads plus per-entry table
    /// overhead (feeds the scale campaign's memory accounting).
    pub fn approx_bytes(&self) -> usize {
        let t = self.tables.read();
        let payload: usize = t.strings.iter().map(|s| s.len() + 16).sum();
        payload + t.by_packed.len() * 24 + t.by_str.len() * 32 + t.strings.len() * 16
    }
}

impl std::fmt::Debug for IdentityInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdentityInterner")
            .field("symbols", &self.len())
            .field("packed", &self.packed_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_is_injective_over_leading_zeros() {
        assert_eq!(pack_digits("007"), Some(1007));
        assert_eq!(pack_digits("07"), Some(107));
        assert_eq!(pack_digits("7"), Some(17));
        assert_ne!(pack_digits("007"), pack_digits("07"));
    }

    #[test]
    fn packing_rejects_non_digit_and_overlong() {
        assert_eq!(pack_digits(""), None);
        assert_eq!(pack_digits("12a"), None);
        assert_eq!(pack_digits("1234567890123456"), None); // 16 digits
        assert!(pack_digits("123456789012345").is_some()); // 15 digits
    }

    #[test]
    fn interning_dedups_both_paths() {
        let i = IdentityInterner::new();
        let a = i.intern("214010000000001"); // packed path
        let b = i.intern("214010000000001");
        let c = i.intern("sip:alice@ims.example.com"); // general path
        let d = i.intern("sip:alice@ims.example.com");
        assert_eq!(a, b);
        assert_eq!(c, d);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(i.packed_len(), 1);
        assert_eq!(i.resolve(a), "214010000000001");
        assert_eq!(i.resolve(c), "sip:alice@ims.example.com");
    }

    #[test]
    fn concurrent_interning_agrees() {
        use std::sync::Arc;
        let interner = Arc::new(IdentityInterner::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let i = Arc::clone(&interner);
                std::thread::spawn(move || {
                    (0..200u64)
                        .map(|n| i.intern(&format!("21401{n:010}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "threads must agree on symbols");
        }
        assert_eq!(interner.len(), 200);
    }

    #[test]
    fn memory_accounting_grows() {
        let i = IdentityInterner::new();
        let b0 = i.approx_bytes();
        i.intern("tel:+34600123456");
        assert!(i.approx_bytes() > b0);
    }
}
