//! The assembled pre-UDC telecom network (Figure 1) and its provisioning
//! weakness (Figure 3, §2.4).
//!
//! "All the operations associated with a single provisioning procedure need
//! to be handled as a transaction. Since NF instances do not provide
//! support for transactional operations this turns into very complex PS
//! logic … and corner cases that could not be solved … normally end up
//! requiring manual intervention on the nodes to restore the network to a
//! consistent state."
//!
//! The PS here behaves the way §4.1 describes real ones behaving: on a
//! partial failure it leaves the writes that landed in place, records the
//! incomplete subscription, and "waits until network service is restored"
//! to complete it — during which window the network is inconsistent and
//! front-ends see dangling or missing routes.

use udr_model::attrs::{AttrMod, Entry};
use udr_model::error::{UdrError, UdrResult};
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::{SiteId, SubscriberUid};
use udr_model::profile::SubscriberProfile;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::net::{Network, Topology};
use udr_sim::SimRng;

use crate::nodes::{HlrId, HlrNode, SlfNode};

/// Result of one pre-UDC provisioning procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionResult {
    /// Every node write landed.
    Clean,
    /// The procedure failed before any state changed (home HLR
    /// unreachable): a clean failure the PS can simply retry.
    FailedClean,
    /// Some writes landed and some did not; the partial subscription stays
    /// on the nodes until a repair pass completes it (§2.4's manual
    /// intervention).
    Incomplete {
        /// SLF sites missing their routing tuples.
        missing_sites: Vec<SiteId>,
    },
}

impl ProvisionResult {
    /// Whether the subscription was fully provisioned.
    pub fn is_ok(&self) -> bool {
        *self == ProvisionResult::Clean
    }
}

/// Counters for the pre-UDC network.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreUdcStats {
    /// Provisioning procedures fully succeeded first pass.
    pub clean: u64,
    /// Procedures that failed without touching state.
    pub failed_clean: u64,
    /// Procedures that left partial state behind.
    pub incomplete: u64,
    /// Subscriptions completed later by repair passes.
    pub repaired: u64,
    /// Front-end lookups that hit a dangling/missing route.
    pub routing_misses: u64,
}

/// One incomplete subscription awaiting repair.
#[derive(Debug, Clone)]
struct PendingRepair {
    uid: SubscriberUid,
    hlr: HlrId,
    identities: Vec<Identity>,
    missing_sites: Vec<SiteId>,
}

/// The node-based network: one HLR silo and one SLF instance per site.
pub struct PreUdcNetwork {
    /// The simulated IP network.
    pub net: Network,
    rng: SimRng,
    hlrs: Vec<HlrNode>,
    slfs: Vec<SlfNode>,
    ps_site: SiteId,
    next_uid: u64,
    pending: Vec<PendingRepair>,
    /// Run counters.
    pub stats: PreUdcStats,
}

impl PreUdcNetwork {
    /// Build a network of `sites` sites, the PS co-located at `ps_site`.
    pub fn new(sites: u32, ps_site: SiteId, seed: u64) -> Self {
        let hlrs = (0..sites)
            .map(|s| HlrNode::new(HlrId(s), SiteId(s)))
            .collect();
        let slfs = (0..sites).map(|s| SlfNode::new(SiteId(s))).collect();
        PreUdcNetwork {
            net: Network::new(Topology::multinational(sites as usize)),
            rng: SimRng::seed_from_u64(seed),
            hlrs,
            slfs,
            ps_site,
            next_uid: 1,
            pending: Vec::new(),
            stats: PreUdcStats::default(),
        }
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.hlrs.len()
    }

    /// Subscriptions still awaiting repair.
    pub fn pending_repairs(&self) -> usize {
        self.pending.len()
    }

    fn reach(&mut self, from: SiteId, to: SiteId) -> UdrResult<SimDuration> {
        self.net
            .round_trip(from, to, &mut self.rng)
            .ok_or(UdrError::Timeout)
    }

    /// Provision a subscription (Figure 3): one write to the home HLR plus
    /// routing writes to **every** SLF instance, with no transaction
    /// spanning them.
    pub fn provision(
        &mut self,
        ids: &IdentitySet,
        home_region: u32,
        _now: SimTime,
    ) -> (ProvisionResult, SimDuration) {
        let uid = SubscriberUid(self.next_uid);
        self.next_uid += 1;
        let hlr_id = HlrId(home_region % self.hlrs.len() as u32);
        let hlr_site = self.hlrs[hlr_id.0 as usize].site();
        let mut latency = SimDuration::ZERO;

        // Step 1: profile on the home HLR. If this fails nothing landed.
        let profile = SubscriberProfile::provision(ids, home_region, [0u8; 16]);
        let hlr_write = self.reach(self.ps_site, hlr_site).and_then(|rtt| {
            latency += rtt;
            self.hlrs[hlr_id.0 as usize].create(uid, profile.into_entry())
        });
        if hlr_write.is_err() {
            self.stats.failed_clean += 1;
            return (ProvisionResult::FailedClean, latency);
        }

        // Step 2: routing tuples on every SLF instance, fanned out in
        // parallel (latency = slowest reachable site).
        let identities: Vec<Identity> = ids.iter().collect();
        let mut missing: Vec<SiteId> = Vec::new();
        let mut worst = SimDuration::ZERO;
        for s in 0..self.slfs.len() {
            let site = SiteId(s as u32);
            let ok = match self.reach(self.ps_site, site) {
                Ok(rtt) => {
                    worst = worst.max(rtt);
                    let slf = &mut self.slfs[s];
                    identities
                        .iter()
                        .all(|id| slf.bind(id, uid, hlr_id).is_ok())
                }
                Err(_) => false,
            };
            if !ok {
                missing.push(site);
            }
        }
        latency += worst;

        if missing.is_empty() {
            self.stats.clean += 1;
            (ProvisionResult::Clean, latency)
        } else {
            // §4.1: the PS leaves the partial subscription and queues the
            // completion for "when network service is restored".
            self.stats.incomplete += 1;
            self.pending.push(PendingRepair {
                uid,
                hlr: hlr_id,
                identities,
                missing_sites: missing.clone(),
            });
            (
                ProvisionResult::Incomplete {
                    missing_sites: missing,
                },
                latency,
            )
        }
    }

    /// Run one repair pass (the manual/deferred completion of §2.4/§4.1):
    /// try to install every missing routing tuple; returns how many
    /// subscriptions became fully consistent.
    pub fn run_repairs(&mut self, _now: SimTime) -> usize {
        let mut completed = 0usize;
        let ps_site = self.ps_site;
        let mut still_pending = Vec::new();
        let mut pending = std::mem::take(&mut self.pending);
        for repair in pending.drain(..) {
            let mut remaining: Vec<SiteId> = Vec::new();
            for site in &repair.missing_sites {
                let ok = self.reach(ps_site, *site).is_ok() && {
                    let slf = &mut self.slfs[site.index()];
                    repair
                        .identities
                        .iter()
                        .all(|id| slf.bind(id, repair.uid, repair.hlr).is_ok())
                };
                if !ok {
                    remaining.push(*site);
                }
            }
            if remaining.is_empty() {
                completed += 1;
                self.stats.repaired += 1;
            } else {
                still_pending.push(PendingRepair {
                    missing_sites: remaining,
                    ..repair
                });
            }
        }
        self.pending = still_pending;
        completed
    }

    /// A front-end lookup at `fe_site` (Figure 1 traffic): resolve the
    /// identity at the local SLF, then read the profile from the owning
    /// HLR. Missing routes (the inconsistency window) surface here.
    pub fn fe_lookup(
        &mut self,
        identity: &Identity,
        fe_site: SiteId,
        _now: SimTime,
    ) -> (UdrResult<Entry>, SimDuration) {
        let mut latency = SimDuration::ZERO;
        let resolve = self.reach(fe_site, fe_site).and_then(|rtt| {
            latency += rtt;
            self.slfs[fe_site.index()].resolve(identity)
        });
        let (uid, hlr_id) = match resolve {
            Ok(Some(route)) => route,
            Ok(None) => {
                self.stats.routing_misses += 1;
                return (
                    Err(UdrError::UnknownIdentity(identity.to_string())),
                    latency,
                );
            }
            Err(e) => return (Err(e), latency),
        };
        let hlr_site = self.hlrs[hlr_id.0 as usize].site();
        let read = self.reach(fe_site, hlr_site).and_then(|rtt| {
            latency += rtt;
            self.hlrs[hlr_id.0 as usize].read(uid)
        });
        match read {
            Ok(Some(entry)) => (Ok(entry), latency),
            Ok(None) => {
                // Dangling route: the SLF points at a profile that is gone.
                self.stats.routing_misses += 1;
                (Err(UdrError::NotFound(uid)), latency)
            }
            Err(e) => (Err(e), latency),
        }
    }

    /// Modify service data: a single-node write plus the local SLF
    /// resolution (the easy case even pre-UDC).
    pub fn modify(
        &mut self,
        identity: &Identity,
        mods: &[AttrMod],
        _now: SimTime,
    ) -> (UdrResult<()>, SimDuration) {
        let mut latency = SimDuration::ZERO;
        let ps_site = self.ps_site;
        let route = self.reach(ps_site, ps_site).and_then(|rtt| {
            latency += rtt;
            self.slfs[ps_site.index()].resolve(identity)
        });
        let (uid, hlr_id) = match route {
            Ok(Some(r)) => r,
            Ok(None) => {
                return (
                    Err(UdrError::UnknownIdentity(identity.to_string())),
                    latency,
                )
            }
            Err(e) => return (Err(e), latency),
        };
        let hlr_site = self.hlrs[hlr_id.0 as usize].site();
        let write = self.reach(ps_site, hlr_site).and_then(|rtt| {
            latency += rtt;
            self.hlrs[hlr_id.0 as usize].modify(uid, mods)
        });
        (write, latency)
    }

    /// Audit the whole network for inconsistencies: routes pointing at
    /// absent profiles ("dangling") and identities present in some SLF
    /// instances but not all ("divergent"). Returns
    /// `(dangling_routes, divergent_identities)`.
    pub fn audit(&self) -> (usize, usize) {
        use std::collections::BTreeSet;
        let mut dangling = 0usize;
        let mut per_site: Vec<BTreeSet<&str>> = Vec::with_capacity(self.slfs.len());
        for slf in &self.slfs {
            let mut keys = BTreeSet::new();
            for (key, (uid, hlr)) in slf.routes() {
                if self.hlrs[hlr.0 as usize]
                    .read(*uid)
                    .ok()
                    .flatten()
                    .is_none()
                {
                    dangling += 1;
                }
                keys.insert(key.as_str());
            }
            per_site.push(keys);
        }
        let union: BTreeSet<&str> = per_site.iter().flatten().copied().collect();
        let divergent = union
            .iter()
            .filter(|k| !per_site.iter().all(|s| s.contains(*k)))
            .count();
        (dangling, divergent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::identity::{Imsi, Msisdn};
    use udr_sim::net::Cut;

    fn ids(n: u64) -> IdentitySet {
        IdentitySet {
            imsi: Imsi::new(format!("21401{n:010}")).unwrap(),
            msisdn: Msisdn::new(format!("346{n:08}")).unwrap(),
            impus: vec![],
            impi: None,
        }
    }

    #[test]
    fn healthy_provisioning_is_clean() {
        let mut net = PreUdcNetwork::new(3, SiteId(0), 1);
        let (result, latency) = net.provision(&ids(1), 1, SimTime(0));
        assert_eq!(result, ProvisionResult::Clean);
        assert!(latency > SimDuration::ZERO);
        assert_eq!(net.audit(), (0, 0));
        let id: Identity = ids(1).imsi.into();
        for s in 0..3 {
            let (out, _) = net.fe_lookup(&id, SiteId(s), SimTime(1));
            assert!(out.is_ok(), "site {s}: {out:?}");
        }
    }

    #[test]
    fn unreachable_home_hlr_fails_clean() {
        let mut net = PreUdcNetwork::new(3, SiteId(0), 2);
        let h = net.net.start_partition(Cut::isolating([SiteId(2)]));
        // Subscriber homed at cut site 2: nothing lands.
        let (result, _) = net.provision(&ids(1), 2, SimTime(0));
        assert_eq!(result, ProvisionResult::FailedClean);
        assert_eq!(net.audit(), (0, 0));
        assert_eq!(net.pending_repairs(), 0);
        net.net.heal_partition(h);
    }

    #[test]
    fn partial_provisioning_leaves_divergence_until_repair() {
        let mut net = PreUdcNetwork::new(3, SiteId(0), 3);
        let h = net.net.start_partition(Cut::isolating([SiteId(2)]));
        // Homed at reachable site 0: HLR write lands, SLF 2 fails.
        let set = ids(1);
        let (result, _) = net.provision(&set, 0, SimTime(0));
        assert_eq!(
            result,
            ProvisionResult::Incomplete {
                missing_sites: vec![SiteId(2)]
            }
        );
        assert_eq!(net.pending_repairs(), 1);

        // Divergence visible: 2 identities present at sites 0,1 missing at 2.
        let (dangling, divergent) = net.audit();
        assert_eq!(dangling, 0);
        assert_eq!(divergent, 2);

        // The new subscriber works at sites 0/1 but does not exist at 2 —
        // the §4.1 "new user walks out of the shop and the phone is dead".
        let id: Identity = set.imsi.into();
        assert!(net.fe_lookup(&id, SiteId(0), SimTime(1)).0.is_ok());
        assert!(net.fe_lookup(&id, SiteId(2), SimTime(1)).0.is_err());
        assert_eq!(net.stats.routing_misses, 1);

        // Repairs fail while the partition lasts...
        assert_eq!(net.run_repairs(SimTime(2)), 0);
        // ...and complete after heal.
        net.net.heal_partition(h);
        assert_eq!(net.run_repairs(SimTime(3)), 1);
        assert_eq!(net.audit(), (0, 0));
        assert!(net.fe_lookup(&id, SiteId(2), SimTime(4)).0.is_ok());
        assert_eq!(net.stats.repaired, 1);
    }

    #[test]
    fn down_slf_creates_incomplete_subscription() {
        let mut net = PreUdcNetwork::new(3, SiteId(0), 4);
        net.slfs[1].set_up(false);
        let (result, _) = net.provision(&ids(1), 0, SimTime(0));
        assert_eq!(
            result,
            ProvisionResult::Incomplete {
                missing_sites: vec![SiteId(1)]
            }
        );
        net.slfs[1].set_up(true);
        assert_eq!(net.run_repairs(SimTime(1)), 1);
        assert_eq!(net.audit(), (0, 0));
    }

    #[test]
    fn crashed_hlr_silo_takes_its_partition_down() {
        // §2.1: "when one node fails, only the users making use of that
        // instance are affected" — but they are *fully* affected (no
        // replicas pre-UDC).
        let mut net = PreUdcNetwork::new(3, SiteId(0), 5);
        for i in 0..6 {
            assert!(net.provision(&ids(i), (i % 3) as u32, SimTime(0)).0.is_ok());
        }
        net.hlrs[1].set_up(false);
        let mut dead = 0;
        for i in 0..6 {
            let id: Identity = ids(i).imsi.into();
            if net.fe_lookup(&id, SiteId(0), SimTime(1)).0.is_err() {
                dead += 1;
            }
        }
        assert_eq!(dead, 2, "exactly the silo's subscribers lose service");
    }

    #[test]
    fn modify_is_single_node_and_works() {
        let mut net = PreUdcNetwork::new(3, SiteId(0), 6);
        let set = ids(7);
        assert!(net.provision(&set, 2, SimTime(0)).0.is_ok());
        let id: Identity = set.imsi.into();
        let (out, latency) = net.modify(
            &id,
            &[AttrMod::Set(
                udr_model::attrs::AttrId::OdbMask,
                udr_model::attrs::AttrValue::U64(3),
            )],
            SimTime(1),
        );
        assert!(out.is_ok());
        assert!(latency > SimDuration::ZERO);
    }
}
