//! The Point of Access: an L4 balancer in front of a cluster's LDAP
//! servers (§3.4.1).
//!
//! "The PoA to the UDR might be provided by a L4-capable IP balancer
//! running in a few blades of the cluster. The balancer spreads LDAP
//! traffic over all the LDAP servers available in the local blade cluster…
//! The IP balancer realizing the PoA automatically detects new LDAP server
//! instances deployed to the blade cluster so growth in LDAP processing
//! capacity is automatic."
//!
//! Every registered server stays in rotation: the deployment's faults cut
//! or degrade inter-site links and crash storage elements, never LDAP
//! servers, so the balancer needs no health checks and
//! [`PointOfAccess::pick`] is a plain round robin in registration order.

use udr_model::ids::{LdapServerId, PoaId, SiteId};

/// The L4 balancer fronting one blade cluster.
#[derive(Debug)]
pub struct PointOfAccess {
    id: PoaId,
    site: SiteId,
    backends: Vec<LdapServerId>,
    next: usize,
    /// Operations dispatched.
    pub dispatched: u64,
    /// Operations refused because no backend was registered.
    pub refused: u64,
}

impl PointOfAccess {
    /// A PoA with no backends yet.
    pub fn new(id: PoaId, site: SiteId) -> Self {
        PointOfAccess {
            id,
            site,
            backends: Vec::new(),
            next: 0,
            dispatched: 0,
            refused: 0,
        }
    }

    /// PoA identity.
    pub fn id(&self) -> PoaId {
        self.id
    }

    /// Hosting site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Auto-detection of a new LDAP server (idempotent).
    pub fn register(&mut self, server: LdapServerId) {
        if !self.backends.contains(&server) {
            self.backends.push(server);
        }
    }

    /// Round-robin pick of the next backend.
    pub fn pick(&mut self) -> Option<LdapServerId> {
        // `next` stays below the length: backends are only ever added.
        let Some(&id) = self.backends.get(self.next) else {
            self.refused += 1;
            return None;
        };
        self.next = (self.next + 1) % self.backends.len();
        self.dispatched += 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poa() -> PointOfAccess {
        let mut p = PointOfAccess::new(PoaId(0), SiteId(0));
        for i in 0..3 {
            p.register(LdapServerId(i));
        }
        p
    }

    #[test]
    fn round_robin_cycles_evenly() {
        let mut p = poa();
        let picks: Vec<_> = (0..6).map(|_| p.pick().unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(p.dispatched, 6);
    }

    #[test]
    fn register_is_idempotent_and_auto_detected() {
        let mut p = poa();
        p.register(LdapServerId(1));
        // A newly deployed server starts receiving traffic automatically.
        p.register(LdapServerId(3));
        let picks: Vec<_> = (0..4).map(|_| p.pick().unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_poa_refuses() {
        let mut p = PointOfAccess::new(PoaId(1), SiteId(0));
        assert_eq!(p.pick(), None);
        assert_eq!(p.refused, 1);
    }
}
