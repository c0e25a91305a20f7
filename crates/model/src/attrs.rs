//! The attribute-oriented subscriber data model.
//!
//! The UDC specifications mandate an LDAP view of subscriber data but leave
//! "structure and semantics of subscriber data" open (§1). We model an entry
//! as an ordered attribute map — the common denominator between the storage
//! engine (which stores whole entries as record versions) and the LDAP layer
//! (which reads and modifies attributes). A committed version of an entry is
//! one heap block of 24 bytes plus 16 per value it stores: its reference
//! count, a presence mask over the attribute ids, a mask of the attributes
//! it holds at their default, a pointer to the flat block it overrides, if
//! any, and the values, in id order. The ids are not stored: the masks
//! encode them. A profile build makes one flat block of every attribute
//! whose value differs from its default; a modify or a consensus post-image
//! makes one block of the attributes the subscriber's writes changed since
//! its last flat block, over that flat block, which it shares: one
//! allocator call each, for what the write changes rather than what the
//! record holds.

use std::fmt;
use std::sync::LazyLock;

use serde::{Deserialize, Serialize};

use crate::payload::{Masked, Payload};
pub use crate::payload::{Octets, Text, TextList};

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
    pub const ALL: [AttrId; 22] = [
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
        AttrId::HomeRegion,
        AttrId::ProvisioningGen,
    ];

    /// One past the largest wire tag.
    const TAGS: usize = AttrId::ALL[AttrId::ALL.len() - 1] as usize + 1;

    /// Wire tag → position in [`AttrId::ALL`]: the dense index an
    /// [`Entry`]'s visibility mask is laid out over.
    const DENSE: [u8; AttrId::TAGS] = {
        let mut dense = [0u8; AttrId::TAGS];
        let mut i = 0;
        while i < AttrId::ALL.len() {
            dense[AttrId::ALL[i] as usize] = i as u8;
            i += 1;
        }
        dense
    };

    /// The attribute's position in [`AttrId::ALL`].
    #[inline]
    const fn dense(self) -> usize {
        Self::DENSE[self as usize] as usize
    }

    /// The attribute's bit in an [`Entry`]'s visibility mask.
    #[inline]
    const fn bit(self) -> u32 {
        1 << self.dense()
    }

    /// The value every subscription starts with (§2.4), if the attribute
    /// has one: what a provisioned profile holds before its first write.
    pub fn default_value(self) -> Option<&'static AttrValue> {
        DEFAULTS[self.dense()].as_ref()
    }

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

// One bit per attribute in the low half of `Entry::shown`.
const _: () = assert!(AttrId::ALL.len() <= u32::BITS as usize);

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// An attribute value, 16 bytes: a tag and one word.
///
/// The three heap-backed shapes are immutable, reference-counted thin
/// handles ([`Text`], [`Octets`], [`TextList`]): `clone` copies no string,
/// octet or list, so every version of a record that did not change an
/// attribute shares that attribute's buffer with the version before it. A
/// value is replaced whole ([`Entry::set`]), never edited, which is what
/// keeps the sharing invisible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrValue {
    /// A UTF-8 string.
    Str(Text),
    /// An unsigned integer (counters, bitmasks, region indexes).
    U64(u64),
    /// A boolean flag.
    Bool(bool),
    /// Raw octets (keys, opaque blobs).
    Bytes(Octets),
    /// A list of strings (IMPUs, teleservice codes, APNs).
    StrList(TextList),
}

// A version block holds 16 bytes per attribute, and a builder's gathered
// `Option`s cost no more.
const _: () = assert!(size_of::<AttrValue>() == 16);
const _: () = assert!(size_of::<Option<AttrValue>>() == 16);

impl AttrValue {
    /// Approximate in-RAM footprint in bytes, used by the capacity model.
    /// The figures are the model's, not this process's layout: they price
    /// snapshots in simulated time, so they do not follow the handles'
    /// size.
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
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.into())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s.into())
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
        AttrValue::StrList(v.into_iter().collect())
    }
}
impl From<Vec<u8>> for AttrValue {
    fn from(v: Vec<u8>) -> Self {
        AttrValue::Bytes(v.into())
    }
}

/// The one table of default values, by [`AttrId::dense`] position
/// ([`AttrId::default_value`]). Built once per process: a provisioned
/// profile starts from these handles, and an [`Entry`] block stores no slot
/// for an attribute that holds its default.
static DEFAULTS: LazyLock<Dense> = LazyLock::new(|| {
    let list = |items: &[&str]| AttrValue::StrList(items.iter().copied().collect());
    let mut table = Dense::default();
    for (id, value) in [
        (AttrId::AuthAmf, AttrValue::U64(0x8000)),
        (AttrId::AuthSqn, AttrValue::U64(0)),
        (AttrId::SubscriberStatus, "serviceGranted".into()),
        (AttrId::OdbMask, AttrValue::U64(0)),
        (AttrId::CallBarring, AttrValue::Bool(false)),
        (
            AttrId::Teleservices,
            list(&["telephony", "sms-mt", "sms-mo"]),
        ),
        (AttrId::ApnProfiles, list(&["internet"])),
        (AttrId::ChargingProfile, "default".into()),
        (AttrId::ProvisioningGen, AttrValue::U64(1)),
    ] {
        table[id.dense()] = Some(value);
    }
    table
});

/// One subscriber entry: an ordered attribute map.
///
/// A committed version is one reference-counted heap block behind one
/// 8-byte pointer: a 24-byte header (the count, a presence mask, one bit
/// per [`AttrId`] the block stores, a defaults mask, one bit per attribute
/// it holds at its [`AttrId::default_value`], and an optional base) and
/// then the stored values, in `AttrId` order, 16 bytes each. An attribute's
/// value sits at the number of stored attributes before it, so no id is
/// stored and a lookup is a mask and a population count. A *flat* block has
/// no base and holds every attribute: it stores each value that differs
/// from its attribute's default and sets a defaults bit for each one that
/// equals it. A *delta* block stores the attributes written since the flat
/// block it names as its base, which it shares, and never elides a value. A
/// read looks in the delta first, then in the base, then in the defaults
/// table; a delta's base is always flat, so that is at most one more
/// pointer.
///
/// Blocks are copied on write: `clone` is a reference-count bump, so the
/// store, the commit log, the ship channels, every slave and every disk
/// snapshot share each committed version's block, and the versions of one
/// subscriber share their base. A handle also carries a visibility mask,
/// one bit per attribute it shows, so a projection ([`Entry::project`]) is
/// another handle to the same block with fewer bits set and copies
/// nothing. Every accessor sees the visible attributes only.
///
/// The mutators ([`Entry::set`], [`Entry::remove`], [`Entry::apply`]) make
/// one allocator call for a new block unless the handle owns its block and
/// the block itself holds the attribute set, which is replaced in place; a
/// shared base is never written. A set builds a delta over the base (over
/// the block itself, if that is flat) holding the old delta's values and
/// the change; an apply of several sets builds one delta of all of them.
/// It builds one flat block of the visible attributes instead when the
/// delta would hold more than half of them, when the handle hides part of
/// its block, or for a removal or an apply that deletes. That
/// keeps value semantics: a change to one handle is never visible through
/// another, and a hidden attribute is gone for good from the handle that
/// hid it. A new block copies value slots and no string, octet or list:
/// those are shared ([`AttrValue`]), so a one-attribute modify of a
/// provisioned profile asks for 40 bytes, not the profile's 88 or 120; a
/// set of an attribute the flat block holds at its default builds a delta
/// like any other. Builders ([`FromIterator`], the profile and the codecs)
/// gather attributes by tag first, compare each value with its default and
/// allocate one flat block, not one per attribute.
///
/// A handle also caches [`Entry::approx_size`] of what it shows, beside its
/// visibility mask: [`Entry::set`] and [`Entry::remove`] adjust it by the
/// one attribute they touch, so the store's byte accounting reads a field
/// instead of walking every value of every version it publishes or retires.
/// A projection that hides something cannot know its size without a walk,
/// so it marks the cache unknown and `approx_size` walks for it, as it does
/// for a total too large for the cache.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Entry {
    /// The values of the attributes whose `AttrId::bit`s the block's
    /// presence mask sets, in `AttrId` order, beside the bits of those its
    /// defaults mask holds at their default, over the flat block they
    /// override, if any.
    attrs: Block,
    /// Low half: the `AttrId::bit`s of the attributes in `attrs` that this
    /// handle shows. High half: `approx_size()` of those attributes, or
    /// [`UNKNOWN_SIZE`]. One word, not two fields: a pointer and one
    /// integer is a pair the compiler passes and returns in registers,
    /// where a third field would return every `Option<Entry>` through
    /// memory (a `read_committed` of one of 50 000 records measured 45 ns
    /// so, against 32).
    shown: u64,
}

// The size cache costs no space: it fills what was padding. The block
// pointer is never null, so an absent entry costs nothing either.
const _: () = assert!(size_of::<Entry>() == 16);
const _: () = assert!(size_of::<Option<Entry>>() == 16);
// Every layer hands entries across the simulator's threads.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<Entry>()
};

/// An [`Entry`] size cache that only a walk can answer.
const UNKNOWN_SIZE: u32 = u32::MAX;

/// The `shown` word of an [`Entry`].
fn shown(visible: u32, size: u32) -> u64 {
    (u64::from(size) << 32) | u64::from(visible)
}

/// What one attribute adds to [`Entry::approx_size`]: the capacity model's
/// figure of roughly 48 bytes of map node per attribute on 64-bit targets,
/// plus the tag and the value.
fn attr_size(value: &AttrValue) -> usize {
    2 + 48 + value.approx_size()
}

/// An entry's version block: flat (no base) or a delta over a flat base.
type Block = Payload<AttrValue, Masked<AttrValue>>;

/// Where the value of the attribute whose `AttrId::bit` is `bit` sits in a
/// block whose presence mask is `present`, or where it would be inserted:
/// the number of present attributes before it.
#[inline]
fn index(present: u32, bit: u32) -> usize {
    (present & (bit - 1)).count_ones() as usize
}

/// The [`AttrId::dense`] positions of the bits `mask` sets, in order.
fn positions(mask: u32) -> impl Iterator<Item = u32> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let dense = (rest != 0).then(|| rest.trailing_zeros())?;
        rest &= rest - 1;
        Some(dense)
    })
}

/// Attribute values by [`AttrId::dense`] position: what a builder gathers
/// before it allocates the block once.
type Dense = [Option<AttrValue>; AttrId::ALL.len()];

impl Entry {
    /// Empty entry.
    pub fn new() -> Self {
        Entry::default()
    }

    /// The `AttrId::bit`s of the attributes this handle shows.
    #[inline]
    fn visible(&self) -> u32 {
        self.shown as u32
    }

    /// The `AttrId::bit`s of the attributes the block and its base hold,
    /// stored or at their default. A handle that showed a defaulted
    /// attribute would otherwise hide part of its block, and every write to
    /// it would flatten.
    #[inline]
    fn present(&self) -> u32 {
        let own = self.attrs.shape();
        let flat = own.base.as_ref().map_or(own, Payload::shape);
        own.present | flat.present | flat.defaults
    }

    /// The cached `approx_size()`, or [`UNKNOWN_SIZE`].
    #[inline]
    fn size(&self) -> u32 {
        (self.shown >> 32) as u32
    }

    /// Whether this handle hides part of its block.
    #[inline]
    fn hides(&self) -> bool {
        self.visible() != self.present()
    }

    /// The visible attributes, gathered by tag.
    fn dense(&self) -> Dense {
        let mut dense = Dense::default();
        for (id, value) in self.iter() {
            dense[id.dense()] = Some(value.clone());
        }
        dense
    }

    /// The entry holding the attributes of `dense`, and each attribute
    /// `held` names that `dense` leaves unset at its default if it has one,
    /// in one allocation: a flat block storing each value that differs from
    /// its attribute's default, with a defaults bit for each one that
    /// equals it. The size cache counts them all.
    fn from_dense(dense: Dense, held: u32) -> Entry {
        let (mut present, mut defaults, mut size) = (0, 0, 0);
        for ((id, value), default) in AttrId::ALL.iter().zip(&dense).zip(DEFAULTS.iter()) {
            match (value, default) {
                (Some(value), _) => {
                    size += attr_size(value);
                    if default.as_ref() == Some(value) {
                        defaults |= id.bit();
                    } else {
                        present |= id.bit();
                    }
                }
                (None, Some(default)) if held & id.bit() != 0 => {
                    size += attr_size(default);
                    defaults |= id.bit();
                }
                (None, _) => {}
            }
        }
        let shape = Masked {
            present,
            defaults,
            base: None,
        };
        let stored = (dense.into_iter().zip(AttrId::ALL))
            .filter_map(|(value, id)| value.filter(|_| present & id.bit() != 0));
        let attrs = Payload::from_exact(shape, stored);
        let size = u32::try_from(size).unwrap_or(UNKNOWN_SIZE);
        Entry {
            attrs,
            shown: shown(present | defaults, size),
        }
    }

    /// The delta so far, as its presence mask and its values, and the flat
    /// block under it; a flat block is an empty delta over itself.
    fn split(&self) -> (u32, &[AttrValue], &Block) {
        let own = self.attrs.shape();
        match &own.base {
            Some(base) => (own.present, &self.attrs[..], base),
            None => (0, &[], &self.attrs),
        }
    }

    /// Show `visible`, with the size cache moved from `removed` bytes of
    /// attributes to `added`.
    fn reshow(&mut self, visible: u32, added: usize, removed: usize) {
        let size = match self.size() {
            UNKNOWN_SIZE => UNKNOWN_SIZE,
            size => u32::try_from(size as usize + added - removed).unwrap_or(UNKNOWN_SIZE),
        };
        self.shown = shown(visible, size);
    }

    /// Set (or replace) an attribute; returns the previous value.
    pub fn set(&mut self, id: AttrId, value: impl Into<AttrValue>) -> Option<AttrValue> {
        self.set_value(id, value.into())
    }

    /// [`Entry::set`], compiled once rather than per value type. In place
    /// if this handle owns its block and the block itself holds `id`; else
    /// a new delta over the flat base; else, when the handle hides part of
    /// its block or the delta would hold more than half of the attributes
    /// the entry shows, one flat block.
    fn set_value(&mut self, id: AttrId, value: AttrValue) -> Option<AttrValue> {
        let bit = id.bit();
        if !self.hides() {
            let added = attr_size(&value);
            let own = self.attrs.shape().present;
            if own & bit != 0 {
                if let Some(values) = self.attrs.get_mut() {
                    let old = std::mem::replace(&mut values[index(own, bit)], value);
                    self.reshow(self.visible(), added, attr_size(&old));
                    return Some(old);
                }
            }
            let (delta, values, base) = self.split();
            let visible = self.visible() | bit;
            if 2 * (delta | bit).count_ones() <= visible.count_ones() {
                debug_assert!(base.shape().base.is_none(), "a delta's base is flat");
                let old = self.get(id).cloned();
                let i = index(delta, bit);
                let after = &values[i + usize::from(delta & bit != 0)..];
                let shape = Masked {
                    present: delta | bit,
                    defaults: 0,
                    base: Some(base.clone()),
                };
                self.attrs = Payload::splice(shape, &values[..i], value, after);
                self.reshow(visible, added, old.as_ref().map_or(0, attr_size));
                return old;
            }
        }
        let mut dense = self.dense();
        let old = dense[id.dense()].replace(value);
        *self = Entry::from_dense(dense, 0);
        old
    }

    /// Read an attribute: the block's own value, else its base's, else the
    /// attribute's default.
    pub fn get(&self, id: AttrId) -> Option<&AttrValue> {
        if !self.contains(id) {
            return None;
        }
        let (bit, own) = (id.bit(), self.attrs.shape());
        if own.present & bit != 0 {
            return Some(&self.attrs[index(own.present, bit)]);
        }
        match &own.base {
            Some(base) if base.shape().present & bit != 0 => {
                Some(&base[index(base.shape().present, bit)])
            }
            _ => id.default_value(),
        }
    }

    /// Remove an attribute; returns the removed value.
    pub fn remove(&mut self, id: AttrId) -> Option<AttrValue> {
        if !self.contains(id) {
            return None;
        }
        let mut dense = self.dense();
        let old = dense[id.dense()].take();
        *self = Entry::from_dense(dense, 0);
        old
    }

    /// Whether the attribute is present.
    pub fn contains(&self, id: AttrId) -> bool {
        self.visible() & id.bit() != 0
    }

    /// Number of attributes in the entry.
    pub fn len(&self) -> usize {
        self.visible().count_ones() as usize
    }

    /// Whether the entry holds no attributes.
    pub fn is_empty(&self) -> bool {
        self.visible() == 0
    }

    /// Iterate attributes in `AttrId` order. The ids are
    /// [`AttrId::ALL`]'s, not the entry's: the block stores none. One pass
    /// over the block, its base and the defaults table together, all in
    /// `AttrId` order, skipping each base value the block overrides.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrId, &AttrValue)> {
        let visible = self.visible();
        let own = self.attrs.shape();
        let (under, base, defaults): (u32, &[AttrValue], u32) = match &own.base {
            Some(base) => (base.shape().present, base, base.shape().defaults),
            None => (0, &[], own.defaults),
        };
        let over = own.present;
        let (mut values, mut base) = (self.attrs.iter(), base.iter());
        let mut rest = over | under | defaults;
        std::iter::from_fn(move || loop {
            if rest == 0 {
                return None;
            }
            let dense = rest.trailing_zeros();
            let bit = 1 << dense;
            rest &= rest - 1;
            let value = if over & bit != 0 {
                if under & bit != 0 {
                    base.next();
                }
                values.next()
            } else if under & bit != 0 {
                base.next()
            } else {
                DEFAULTS[dense as usize].as_ref()
            };
            if visible & bit != 0 {
                return value.map(|value| (&ALL[dense as usize], value));
            }
        })
    }

    /// Approximate in-RAM footprint of the whole entry, in bytes: the
    /// cached figure, or a walk over the visible values when the cache is
    /// unknown.
    pub fn approx_size(&self) -> usize {
        match self.size() {
            UNKNOWN_SIZE => self.iter().map(|(_, v)| attr_size(v)).sum(),
            size => size as usize,
        }
    }

    /// Apply a set of attribute modifications in order. The post-image is
    /// built in one allocation however many modifications there are: sets
    /// alone under [`Entry::set`]'s rule, in place or as one delta of every
    /// value they write; anything with a delete as one flat block.
    pub fn apply(&mut self, mods: &[AttrMod]) {
        match mods {
            [] => {}
            [AttrMod::Set(id, v)] => {
                self.set_value(*id, v.clone());
            }
            [AttrMod::Delete(id)] => {
                self.remove(*id);
            }
            _ => {
                let sets = mods.iter().try_fold(0, |bits, m| match m {
                    AttrMod::Set(id, _) => Some(bits | id.bit()),
                    AttrMod::Delete(_) => None,
                });
                if sets.is_some_and(|bits| self.set_values(mods, bits)) {
                    return;
                }
                let mut dense = self.dense();
                for m in mods {
                    dense[m.attr().dense()] = match m {
                        AttrMod::Set(_, v) => Some(v.clone()),
                        AttrMod::Delete(_) => None,
                    };
                }
                *self = Entry::from_dense(dense, 0);
            }
        }
    }

    /// [`Entry::set_value`]'s in-place write or delta for `mods`, all sets,
    /// the last set of an attribute winning; `bits` are the attributes
    /// they write. False, with the entry untouched, where that rule builds
    /// a flat block instead.
    fn set_values(&mut self, mods: &[AttrMod], bits: u32) -> bool {
        if self.hides() {
            return false;
        }
        // The value written to the attribute at dense position `dense`.
        let written = |dense: u32| {
            mods.iter()
                .rev()
                .find_map(|m| match m {
                    AttrMod::Set(id, v) if id.dense() == dense as usize => Some(v),
                    _ => None,
                })
                .expect("every bit is a set's")
        };
        let (mut added, mut removed) = (0, 0);
        for dense in positions(bits) {
            added += attr_size(written(dense));
            removed += self.get(ALL[dense as usize]).map_or(0, attr_size);
        }
        let own = self.attrs.shape().present;
        let visible = self.visible() | bits;
        if own & bits == bits {
            if let Some(values) = self.attrs.get_mut() {
                for dense in positions(bits) {
                    values[index(own, 1 << dense)] = written(dense).clone();
                }
                self.reshow(visible, added, removed);
                return true;
            }
        }
        let (delta, values, base) = self.split();
        let present = delta | bits;
        if 2 * present.count_ones() > visible.count_ones() {
            return false;
        }
        debug_assert!(base.shape().base.is_none(), "a delta's base is flat");
        let mut kept = values.iter();
        let items = positions(present).map(|dense| {
            let bit = 1 << dense;
            let old = if delta & bit != 0 { kept.next() } else { None };
            match old {
                Some(old) if bits & bit == 0 => old.clone(),
                _ => written(dense).clone(),
            }
        });
        let shape = Masked {
            present,
            defaults: 0,
            base: Some(base.clone()),
        };
        self.attrs = Payload::from_exact(shape, items);
        self.reshow(visible, added, removed);
        true
    }

    /// The entry holding `attrs` and, for every other attribute that has
    /// one, its [`AttrId::default_value`], in one allocation: a new
    /// subscription's profile. The defaults it adds are mask bits, so
    /// building it clones no default's handle.
    pub(crate) fn with_defaults(attrs: impl IntoIterator<Item = (AttrId, AttrValue)>) -> Entry {
        Entry::from_dense(gather(attrs), u32::MAX)
    }

    /// How many values the handle's block holds over a flat base, or
    /// `None` if the block is flat. It changes no reading of the entry;
    /// the layout tests read it.
    #[doc(hidden)]
    pub fn delta_len(&self) -> Option<usize> {
        let own = self.attrs.shape();
        own.base.as_ref().map(|_| own.present.count_ones() as usize)
    }

    /// Whether `self` and `other` are the same handle: one block shown
    /// through the same mask. Reads no attribute. Same handles are equal
    /// entries; equal entries built apart are not the same handle.
    pub fn same_handle(&self, other: &Entry) -> bool {
        Payload::ptr_eq(&self.attrs, &other.attrs) && self.shown == other.shown
    }

    /// The entry restricted to the listed attributes (an LDAP search's
    /// attribute selection): a view of the same block, no attribute is
    /// copied. Attributes the entry does not show stay absent.
    pub fn project(&self, attrs: &[AttrId]) -> Entry {
        let wanted = attrs.iter().fold(0, |mask, id| mask | id.bit());
        let visible = self.visible() & wanted;
        let size = if visible == self.visible() {
            self.size()
        } else {
            UNKNOWN_SIZE
        };
        Entry {
            attrs: self.attrs.clone(),
            shown: shown(visible, size),
        }
    }
}

/// The ids [`Entry::iter`] hands out: one `'static` copy of
/// [`AttrId::ALL`].
static ALL: [AttrId; AttrId::ALL.len()] = AttrId::ALL;

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.visible() == other.visible()
            && (Payload::ptr_eq(&self.attrs, &other.attrs) || self.iter().eq(other.iter()))
    }
}

impl fmt::Debug for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = fmt::from_fn(|f| f.debug_map().entries(self.iter()).finish());
        f.debug_struct("Entry").field("attrs", &map).finish()
    }
}

/// The attributes by tag, a later value replacing an earlier one for the
/// same attribute.
fn gather(attrs: impl IntoIterator<Item = (AttrId, AttrValue)>) -> Dense {
    let mut dense = Dense::default();
    for (id, value) in attrs {
        dense[id.dense()] = Some(value);
    }
    dense
}

/// Gathers the attributes by tag, then allocates the block once.
impl FromIterator<(AttrId, AttrValue)> for Entry {
    fn from_iter<I: IntoIterator<Item = (AttrId, AttrValue)>>(iter: I) -> Self {
        Entry::from_dense(gather(iter), 0)
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
        assert_eq!(AttrId::from_tag(9999), None);
    }

    #[test]
    fn all_is_every_attribute_in_tag_order() {
        let by_tag: Vec<AttrId> = (0..=u16::MAX).filter_map(AttrId::from_tag).collect();
        assert_eq!(by_tag, AttrId::ALL);
        // The visibility mask's layout: one distinct bit per attribute.
        let mask = AttrId::ALL.iter().fold(0u32, |m, a| m | a.bit());
        assert_eq!(mask.count_ones() as usize, AttrId::ALL.len());
    }

    #[test]
    fn a_projection_shows_only_what_it_was_given_and_asked_for() {
        let mut e = Entry::new();
        e.set(AttrId::Imsi, "214010000000001");
        e.set(AttrId::OdbMask, 5u64);
        e.set(AttrId::HomeRegion, 2u64);
        let view = e.project(&[AttrId::OdbMask, AttrId::HomeRegion, AttrId::Msisdn]);
        assert_eq!(view.len(), 2);
        assert_eq!(view.get(AttrId::Imsi), None);
        assert!(!view.contains(AttrId::Msisdn));
        assert_eq!(
            view.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            [AttrId::OdbMask, AttrId::HomeRegion]
        );
        // A view of a view cannot widen, and equality is by visible content.
        let narrow = view.project(&[AttrId::Imsi, AttrId::OdbMask]);
        let same: Entry = [(AttrId::OdbMask, AttrValue::U64(5))].into_iter().collect();
        assert_eq!(narrow, same);
        assert_ne!(narrow, view);
        assert_eq!(format!("{narrow:?}"), "Entry { attrs: {OdbMask: U64(5)} }");
        assert!(e.project(&[]).is_empty());
    }

    #[test]
    fn writing_to_a_view_drops_what_it_hides_and_leaves_the_source_alone() {
        let mut e = Entry::new();
        e.set(AttrId::Imsi, "214010000000001");
        e.set(AttrId::OdbMask, 5u64);
        let mut view = e.project(&[AttrId::OdbMask]);
        // Setting a hidden attribute does not bring the hidden value back...
        assert_eq!(view.set(AttrId::Imsi, "999"), None);
        assert_eq!(view.remove(AttrId::OdbMask), Some(AttrValue::U64(5)));
        assert_eq!(view.len(), 1);
        // ...and nothing reaches the entry the view came from.
        assert_eq!(e.len(), 2);
        assert_eq!(
            e.get(AttrId::Imsi).and_then(AttrValue::as_str),
            Some("214010000000001")
        );
        assert_eq!(e.get(AttrId::OdbMask), Some(&AttrValue::U64(5)));
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
    fn the_cached_size_equals_the_walk_after_every_mutation() {
        let walk = |e: &Entry| e.iter().map(|(_, v)| attr_size(v)).sum::<usize>();
        let check = |e: &Entry, step: &str| assert_eq!(e.approx_size(), walk(e), "{step}");
        let mut e = Entry::new();
        check(&e, "empty");
        e.set(AttrId::Imsi, "214010000000001");
        e.set(AttrId::OdbMask, 5u64);
        check(&e, "new attributes");
        e.set(
            AttrId::OdbMask,
            vec!["internet".to_owned(), "ims".to_owned()],
        );
        check(&e, "replaced by a value of another shape");
        e.set(AttrId::Imsi, "2140100");
        check(&e, "replaced by a shorter string");
        assert!(e.remove(AttrId::Imsi).is_some());
        check(&e, "removed");
        assert!(e.remove(AttrId::Msisdn).is_none());
        check(&e, "removed an absent attribute");

        e.set(AttrId::HomeRegion, 2u64);
        let all = e.project(&AttrId::ALL);
        check(&all, "a projection that hides nothing");
        let mut view = e.project(&[AttrId::HomeRegion]);
        check(&view, "a projection that hides something");
        view.set(AttrId::Msisdn, "34600123456");
        check(&view, "set on a view");
        view.remove(AttrId::HomeRegion);
        check(&view, "remove on a view");
        check(&e, "the source, after writes to its views");
    }

    #[test]
    fn same_handle_is_identity_not_equality() {
        let mut e = Entry::new();
        e.set(AttrId::Imsi, "214010000000001");
        e.set(AttrId::OdbMask, 5u64);
        assert!(e.same_handle(&e.clone()));
        // Equal content built apart, a narrower view of the same payload,
        // and a copied-on-write version are all other handles.
        let rebuilt: Entry = e.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(rebuilt, e);
        assert!(!rebuilt.same_handle(&e));
        assert!(!e.project(&[AttrId::OdbMask]).same_handle(&e));
        let mut written = e.clone();
        written.set(AttrId::OdbMask, 6u64);
        assert!(!written.same_handle(&e));
    }

    #[test]
    fn a_write_builds_a_delta_over_the_flat_block_it_shares() {
        let profile: Entry = AttrId::ALL[..13]
            .iter()
            .map(|&id| (id, AttrValue::U64(id.tag().into())))
            .collect();
        assert_eq!(profile.delta_len(), None);
        let base = |e: &Entry| e.attrs.shape().base.clone().expect("a delta");
        let mut v1 = profile.clone();
        v1.set(AttrId::OdbMask, 7u64);
        assert_eq!(v1.delta_len(), Some(1));
        assert!(Payload::ptr_eq(&base(&v1), &profile.attrs));
        // A write to a delta builds a delta over the same flat base.
        let mut v2 = v1.clone();
        v2.set(AttrId::AuthSqn, 8u64);
        assert_eq!(v2.delta_len(), Some(2));
        assert!(Payload::ptr_eq(&base(&v2), &profile.attrs));
        assert_eq!(v1.get(AttrId::AuthSqn), profile.get(AttrId::AuthSqn));
        assert_eq!(v2.get(AttrId::OdbMask), Some(&AttrValue::U64(7)));
        // The only handle to a delta writes the delta in place.
        let block = v2.attrs.as_ptr();
        v2.set(AttrId::AuthSqn, 9u64);
        assert_eq!(v2.attrs.as_ptr(), block);
        assert_eq!(profile.get(AttrId::AuthSqn), Some(&AttrValue::U64(12)));
        // A projection of a delta reads through to the base; a write to it
        // flattens what it shows.
        let mut view = v1.project(&[AttrId::Imsi, AttrId::OdbMask]);
        assert_eq!(view.get(AttrId::Imsi), Some(&AttrValue::U64(1)));
        assert_eq!(view.get(AttrId::OdbMask), Some(&AttrValue::U64(7)));
        view.set(AttrId::OdbMask, 1u64);
        assert_eq!((view.delta_len(), view.len()), (None, 2));
        // A removal flattens.
        v2.remove(AttrId::Imsi);
        assert_eq!((v2.delta_len(), v2.len()), (None, 12));
        assert_eq!(v2.get(AttrId::AuthSqn), Some(&AttrValue::U64(9)));
        assert_eq!(profile.len(), 13);
    }

    #[test]
    fn a_flat_block_stores_only_what_differs_from_the_defaults() {
        let e: Entry = [
            (AttrId::Imsi, AttrValue::from("214010000000001")),
            (AttrId::OdbMask, AttrValue::U64(0)),
            (AttrId::SubscriberStatus, AttrValue::from("serviceGranted")),
            (AttrId::ApnProfiles, vec!["internet".to_owned()].into()),
            (AttrId::AuthSqn, AttrValue::U64(5)),
            (AttrId::CallBarring, AttrValue::U64(0)),
        ]
        .into_iter()
        .collect();
        // Equal by value, built apart: elided. A value of another kind than
        // the default's is stored.
        assert_eq!(e.attrs.len(), 3, "Imsi, AuthSqn and CallBarring");
        assert_eq!(e.len(), 6);
        let status = AttrId::SubscriberStatus;
        assert_eq!(e.get(status), status.default_value());
        assert_eq!(e.get(AttrId::CallBarring), Some(&AttrValue::U64(0)));
        let walk: usize = e.iter().map(|(_, v)| attr_size(v)).sum();
        assert_eq!(e.approx_size(), walk, "the cache counts the defaults");
        let view = e.project(&[AttrId::OdbMask, AttrId::AuthSqn]);
        assert_eq!(
            view.iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect::<Vec<_>>(),
            [
                (AttrId::AuthSqn, 5u64.into()),
                (AttrId::OdbMask, 0u64.into())
            ]
        );
        // A set of a defaulted attribute is a delta over the flat block,
        // and a delta stores even a default; it reads as the elided entry.
        let mut v = e.clone();
        v.set(AttrId::OdbMask, 7u64);
        assert_eq!(v.delta_len(), Some(1));
        assert_eq!(v.set(AttrId::OdbMask, 0u64), Some(AttrValue::U64(7)));
        assert_eq!(v.delta_len(), Some(1));
        assert_eq!(v, e);
        // A flattening elides it again.
        v.remove(AttrId::Imsi);
        assert_eq!((v.delta_len(), v.attrs.len(), v.len()), (None, 2, 5));
        assert_eq!(v.remove(AttrId::OdbMask), Some(AttrValue::U64(0)));
        assert_eq!(v.get(AttrId::OdbMask), None);
        assert_eq!(v.len(), 4);

        // A profile's defaults are mask bits from the start, and read as
        // the defaults written out; a value given for one replaces it.
        let given = [
            (AttrId::Imsi, AttrValue::from("214010000000001")),
            (AttrId::AuthSqn, AttrValue::U64(5)),
        ];
        let profile = Entry::with_defaults(given.clone());
        let written: Entry = (AttrId::ALL.into_iter())
            .filter_map(|id| Some((id, id.default_value()?.clone())))
            .chain(given)
            .collect();
        assert_eq!(profile, written);
        assert_eq!(profile.approx_size(), written.approx_size());
        assert_eq!((profile.attrs.len(), profile.len()), (2, 10));
    }

    #[test]
    fn handles_cloned_and_dropped_on_many_threads_free_the_payload_once() {
        let imsi = Text::from("214010000000001");
        let mut e = Entry::new();
        e.set(AttrId::Imsi, AttrValue::Str(imsi.clone()));
        e.set(AttrId::OdbMask, 5u64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let e = e.clone();
                s.spawn(move || {
                    let mut held = Vec::new();
                    for k in 0..2_000 {
                        held.push(e.clone());
                        if k % 3 == 0 {
                            held.swap_remove(k % held.len());
                        }
                    }
                    assert!(held.iter().all(|h| h.same_handle(&e)));
                    let mut mine = e.clone();
                    mine.set(AttrId::OdbMask, t);
                    assert_eq!(mine.get(AttrId::OdbMask), Some(&AttrValue::U64(t)));
                    assert_eq!(e.get(AttrId::OdbMask), Some(&AttrValue::U64(5)));
                });
            }
            // The spawned threads may still hold handles, so the payload's
            // last drop can fall on any of them.
            drop(e);
        });
        assert_eq!(imsi.handles(), 1, "the block dropped its value once");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(AttrValue::U64(5).as_u64(), Some(5));
        assert_eq!(AttrValue::Bool(true).as_bool(), Some(true));
        assert_eq!(AttrValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(AttrValue::U64(5).as_str(), None);
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
