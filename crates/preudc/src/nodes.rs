//! The node-based network elements of the pre-UDC world (Figure 1, §2.1,
//! §2.4): standalone HLR/HSS silos, each owning one partition of the
//! subscriber space, and Subscription Location Function (SLF) instances
//! holding identity → HLR-address routing tuples at every site.
//!
//! None of these nodes "provide support for transactional operations"
//! (§2.4) — every write is independent, which is what makes multi-node
//! provisioning fragile.

use std::collections::BTreeMap;

use udr_model::attrs::{AttrMod, Entry};
use udr_model::error::{UdrError, UdrResult};
use udr_model::identity::Identity;
use udr_model::ids::{SiteId, SubscriberUid};

/// Identifier of one HLR/HSS node (a vertical silo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HlrId(pub u32);

impl std::fmt::Display for HlrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hlr{}", self.0)
    }
}

/// A standalone HLR/HSS node: owns its partition's profiles outright, no
/// replication, no transactions across operations.
#[derive(Debug)]
pub struct HlrNode {
    id: HlrId,
    site: SiteId,
    profiles: BTreeMap<SubscriberUid, Entry>,
    up: bool,
    /// Writes accepted (diagnostics).
    pub writes: u64,
}

impl HlrNode {
    /// A fresh node at `site`.
    pub fn new(id: HlrId, site: SiteId) -> Self {
        HlrNode {
            id,
            site,
            profiles: BTreeMap::new(),
            up: true,
            writes: 0,
        }
    }

    /// Node identity.
    pub fn id(&self) -> HlrId {
        self.id
    }

    /// Hosting site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Whether the node is serving.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crash the node (HLRs are single silos: their partition is gone until
    /// restore — the §2.1 failure mode "the subscribers whose data are held
    /// in the failing node lose access to the network").
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    fn check_up(&self) -> UdrResult<()> {
        if self.up {
            Ok(())
        } else {
            Err(UdrError::SeUnavailable(udr_model::ids::SeId(self.id.0)))
        }
    }

    /// Create a profile (independent write, no transaction).
    pub fn create(&mut self, uid: SubscriberUid, entry: Entry) -> UdrResult<()> {
        self.check_up()?;
        if self.profiles.contains_key(&uid) {
            return Err(UdrError::AlreadyExists(uid));
        }
        self.profiles.insert(uid, entry);
        self.writes += 1;
        Ok(())
    }

    /// Modify a profile.
    pub fn modify(&mut self, uid: SubscriberUid, mods: &[AttrMod]) -> UdrResult<()> {
        self.check_up()?;
        let entry = self.profiles.get_mut(&uid).ok_or(UdrError::NotFound(uid))?;
        entry.apply(mods);
        self.writes += 1;
        Ok(())
    }

    /// Delete a profile.
    pub fn delete(&mut self, uid: SubscriberUid) -> UdrResult<()> {
        self.check_up()?;
        self.profiles.remove(&uid).ok_or(UdrError::NotFound(uid))?;
        self.writes += 1;
        Ok(())
    }

    /// Read a profile.
    pub fn read(&self, uid: SubscriberUid) -> UdrResult<Option<Entry>> {
        self.check_up()?;
        Ok(self.profiles.get(&uid).cloned())
    }

    /// Profiles held.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the node holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// One SLF instance: identity → (uid, owning HLR) routing tuples. Every
/// site runs one; provisioning must write **all** of them (§2.4: "data
/// location information is created in all instances of signaling routing
/// NF").
#[derive(Debug)]
pub struct SlfNode {
    site: SiteId,
    routes: BTreeMap<String, (SubscriberUid, HlrId)>,
    up: bool,
}

impl SlfNode {
    /// A fresh SLF at `site`.
    pub fn new(site: SiteId) -> Self {
        SlfNode {
            site,
            routes: BTreeMap::new(),
            up: true,
        }
    }

    /// Hosting site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Whether the instance is serving.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Toggle availability.
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Install a routing tuple.
    pub fn bind(&mut self, identity: &Identity, uid: SubscriberUid, hlr: HlrId) -> UdrResult<()> {
        if !self.up {
            return Err(UdrError::Timeout);
        }
        self.routes.insert(identity.as_str().to_owned(), (uid, hlr));
        Ok(())
    }

    /// Resolve an identity to its owning HLR.
    pub fn resolve(&self, identity: &Identity) -> UdrResult<Option<(SubscriberUid, HlrId)>> {
        if !self.up {
            return Err(UdrError::Timeout);
        }
        Ok(self.routes.get(identity.as_str()).copied())
    }

    /// Tuples held.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no tuples are held.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterate the route table (consistency audits / operator tooling).
    pub fn routes(&self) -> impl Iterator<Item = (&String, &(SubscriberUid, HlrId))> {
        self.routes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::attrs::{AttrId, AttrValue};
    use udr_model::identity::Imsi;

    fn entry() -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Msisdn, "34600123456");
        e
    }

    #[test]
    fn hlr_crud() {
        let mut hlr = HlrNode::new(HlrId(0), SiteId(0));
        let uid = SubscriberUid(1);
        hlr.create(uid, entry()).unwrap();
        assert_eq!(hlr.create(uid, entry()), Err(UdrError::AlreadyExists(uid)));
        hlr.modify(uid, &[AttrMod::Set(AttrId::OdbMask, AttrValue::U64(1))])
            .unwrap();
        let e = hlr.read(uid).unwrap().unwrap();
        assert_eq!(e.get(AttrId::OdbMask).and_then(AttrValue::as_u64), Some(1));
        hlr.delete(uid).unwrap();
        assert_eq!(hlr.delete(uid), Err(UdrError::NotFound(uid)));
        assert!(hlr.is_empty());
        assert_eq!(hlr.writes, 3);
    }

    #[test]
    fn down_hlr_refuses() {
        let mut hlr = HlrNode::new(HlrId(2), SiteId(0));
        hlr.set_up(false);
        assert!(hlr.read(SubscriberUid(1)).is_err());
        assert!(hlr.create(SubscriberUid(1), entry()).is_err());
        assert!(!hlr.is_up());
    }

    #[test]
    fn slf_routing() {
        let mut slf = SlfNode::new(SiteId(1));
        let id: Identity = Imsi::new("214011234567890").unwrap().into();
        slf.bind(&id, SubscriberUid(7), HlrId(3)).unwrap();
        assert_eq!(
            slf.resolve(&id).unwrap(),
            Some((SubscriberUid(7), HlrId(3)))
        );
    }

    #[test]
    fn down_slf_times_out() {
        let mut slf = SlfNode::new(SiteId(1));
        slf.set_up(false);
        let id: Identity = Imsi::new("214011234567890").unwrap().into();
        assert!(slf.bind(&id, SubscriberUid(1), HlrId(0)).is_err());
        assert!(slf.resolve(&id).is_err());
    }
}
