//! The simulated multi-national IP network of Figure 1/2.
//!
//! Sites are national/regional data centres; intra-site traffic crosses a
//! fast local network, inter-site traffic crosses the IP backbone, which is
//! "inherently less reliable than a local IP network" (§3.5). The network
//! supports partitions (the CAP events of §3.2/§4.1) composed of one or more
//! *cuts*, plus per-link loss probabilities.

use std::collections::BTreeSet;

use udr_model::ids::SiteId;
use udr_model::time::SimDuration;

use crate::rng::SimRng;

/// A latency distribution for one link class.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Constant delay (useful in tests).
    Fixed(SimDuration),
    /// Log-normal around a median with shape `sigma`, plus a hard floor.
    /// Matches measured LAN/backbone RTT shapes well enough for trade-off
    /// studies.
    LogNormal {
        /// Median one-way delay.
        median: SimDuration,
        /// Log-space standard deviation (tail heaviness).
        sigma: f64,
        /// Physical floor (propagation delay) below which no sample falls.
        floor: SimDuration,
    },
}

impl LatencyModel {
    /// Intra-site LAN: median 150 µs, light tail, 50 µs floor.
    pub fn lan() -> Self {
        LatencyModel::LogNormal {
            median: SimDuration::from_micros(150),
            sigma: 0.3,
            floor: SimDuration::from_micros(50),
        }
    }

    /// Long-haul backbone with a given median one-way delay.
    pub fn wan(median: SimDuration) -> Self {
        LatencyModel::LogNormal {
            median,
            sigma: 0.25,
            floor: median.mul_f64(0.6),
        }
    }

    /// Draw a one-way delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::LogNormal {
                median,
                sigma,
                floor,
            } => {
                let v = rng.log_normal(median.as_nanos() as f64, *sigma);
                SimDuration::from_nanos(v as u64).max(*floor)
            }
        }
    }

    /// The median of the distribution (for analytic expectations in tests).
    pub fn median(&self) -> SimDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::LogNormal { median, .. } => *median,
        }
    }
}

/// Latency + loss profile of one (directed) link class.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// One-way delay distribution.
    pub latency: LatencyModel,
    /// Probability that a message is silently lost.
    pub loss: f64,
}

impl LinkProfile {
    /// A lossless link with the given latency model.
    pub fn lossless(latency: LatencyModel) -> Self {
        LinkProfile { latency, loss: 0.0 }
    }
}

/// Static shape of the network: per-site-pair link profiles.
#[derive(Debug, Clone)]
pub struct Topology {
    sites: usize,
    /// Row-major `sites × sites` matrix; `[a][a]` is the intra-site LAN.
    links: Vec<LinkProfile>,
}

impl Topology {
    /// Full mesh: LAN inside each site, the given WAN profile between every
    /// pair of distinct sites.
    pub fn full_mesh(sites: usize, lan: LinkProfile, wan: LinkProfile) -> Self {
        assert!(sites > 0, "topology needs at least one site");
        let mut links = Vec::with_capacity(sites * sites);
        for a in 0..sites {
            for b in 0..sites {
                links.push(if a == b { lan.clone() } else { wan.clone() });
            }
        }
        Topology { sites, links }
    }

    /// The paper's default: LAN intra-site, log-normal 15 ms backbone with
    /// 0.01 % loss between sites (a healthy but long multi-national span).
    pub fn multinational(sites: usize) -> Self {
        let lan = LinkProfile::lossless(LatencyModel::lan());
        let wan = LinkProfile {
            latency: LatencyModel::wan(SimDuration::from_millis(15)),
            loss: 1e-4,
        };
        Topology::full_mesh(sites, lan, wan)
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Link profile from `a` to `b`.
    pub fn link(&self, a: SiteId, b: SiteId) -> &LinkProfile {
        &self.links[a.index() * self.sites + b.index()]
    }

    /// Replace the link profile for a site pair (both directions).
    pub fn set_link(&mut self, a: SiteId, b: SiteId, profile: LinkProfile) {
        self.links[a.index() * self.sites + b.index()] = profile.clone();
        self.links[b.index() * self.sites + a.index()] = profile;
    }
}

/// A non-binary link fault: extra loss probability and/or a latency
/// multiplier applied to matching inter-site messages while active.
///
/// Unlike a [`Cut`], a degrade never changes *reachability* — the pair
/// still counts as connected, failure detectors do not fire, and the
/// damage shows up as lost messages (client-visible timeouts) and
/// stretched delays. This is the grey-failure half of the fault
/// vocabulary: asymmetric one-way loss and WAN brown-outs, which real
/// backbones produce far more often than clean partitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Degrade {
    /// Sending sites the degrade applies to (empty = any site).
    pub from: BTreeSet<SiteId>,
    /// Receiving sites the degrade applies to (empty = any site outside
    /// `from`, i.e. messages *leaving* the `from` set).
    pub to: BTreeSet<SiteId>,
    /// Extra probability that a matching message is silently lost.
    pub loss: f64,
    /// Multiplier on the sampled one-way delay of matching messages.
    pub latency_factor: f64,
}

impl Degrade {
    /// Asymmetric one-way black-hole: every message *leaving* the `from`
    /// set is lost; traffic into and inside the set flows normally.
    pub fn one_way_loss<I: IntoIterator<Item = SiteId>>(from: I) -> Self {
        Degrade {
            from: from.into_iter().collect(),
            to: BTreeSet::new(),
            loss: 1.0,
            latency_factor: 1.0,
        }
    }

    /// Backbone-wide brown-out: every inter-site message pays
    /// `latency_factor ×` delay and an extra `loss` drop probability.
    pub fn backbone(latency_factor: f64, loss: f64) -> Self {
        Degrade {
            from: BTreeSet::new(),
            to: BTreeSet::new(),
            loss,
            latency_factor,
        }
    }

    /// Whether this degrade applies to a message from `a` to `b`.
    /// Intra-site traffic is never degraded.
    pub fn applies(&self, a: SiteId, b: SiteId) -> bool {
        if a == b {
            return false;
        }
        if !self.from.is_empty() && !self.from.contains(&a) {
            return false;
        }
        if self.to.is_empty() {
            // Default receiver scope: anything outside the sender set
            // (or, with an empty sender set too, any other site).
            !self.from.contains(&b)
        } else {
            self.to.contains(&b)
        }
    }
}

/// An active network partition: the `island` cannot exchange messages with
/// any site outside it. Multiple cuts may be active; reachability requires
/// passing every cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// Sites on the isolated side.
    pub island: BTreeSet<SiteId>,
}

impl Cut {
    /// Build a cut isolating the given sites.
    pub fn isolating<I: IntoIterator<Item = SiteId>>(sites: I) -> Self {
        Cut {
            island: sites.into_iter().collect(),
        }
    }

    /// Whether this cut separates `a` from `b`.
    pub fn separates(&self, a: SiteId, b: SiteId) -> bool {
        self.island.contains(&a) != self.island.contains(&b)
    }
}

/// Outcome of attempting to send one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// Delivered after the sampled one-way delay.
    Delivered(SimDuration),
    /// Silently lost (sender sees a timeout).
    Lost,
    /// No path: the pair is separated by an active partition.
    Unreachable,
}

impl LinkOutcome {
    /// The delay if delivered.
    pub fn delay(self) -> Option<SimDuration> {
        match self {
            LinkOutcome::Delivered(d) => Some(d),
            _ => None,
        }
    }
}

/// The live network: topology plus current partition state.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    cuts: Vec<(u64, Cut)>,
    next_cut_id: u64,
    degrades: Vec<(u64, Degrade)>,
    next_degrade_id: u64,
    /// Messages attempted/lost/blocked, for reporting.
    pub stats: NetStats,
}

/// Counters describing network behaviour during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages attempted.
    pub attempts: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages lost to link loss.
    pub lost: u64,
    /// Messages blocked by partitions.
    pub blocked: u64,
    /// Messages that crossed the inter-site backbone.
    pub backbone_crossings: u64,
    /// Messages delivered with a degrade latency factor applied.
    pub degraded: u64,
}

/// Handle for healing a previously started partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutHandle(u64);

/// Handle for healing a previously started link degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeHandle(u64);

impl Network {
    /// Wrap a topology with no active partitions.
    pub fn new(topo: Topology) -> Self {
        Network {
            topo,
            cuts: Vec::new(),
            next_cut_id: 0,
            degrades: Vec::new(),
            next_degrade_id: 0,
            stats: NetStats::default(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (experiments re-profile links between runs).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Whether `a` can currently reach `b`.
    pub fn reachable(&self, a: SiteId, b: SiteId) -> bool {
        self.cuts.iter().all(|(_, cut)| !cut.separates(a, b))
    }

    /// Start a partition; returns the handle needed to heal it.
    pub fn start_partition(&mut self, cut: Cut) -> CutHandle {
        let id = self.next_cut_id;
        self.next_cut_id += 1;
        self.cuts.push((id, cut));
        CutHandle(id)
    }

    /// Heal a partition. Healing twice is a no-op.
    pub fn heal_partition(&mut self, handle: CutHandle) {
        self.cuts.retain(|(id, _)| *id != handle.0);
    }

    /// Whether any partition is currently active.
    pub fn partitioned(&self) -> bool {
        !self.cuts.is_empty()
    }

    /// Start a link degradation; returns the handle needed to heal it.
    pub fn start_degrade(&mut self, degrade: Degrade) -> DegradeHandle {
        let id = self.next_degrade_id;
        self.next_degrade_id += 1;
        self.degrades.push((id, degrade));
        DegradeHandle(id)
    }

    /// Heal a link degradation. Healing twice is a no-op.
    pub fn heal_degrade(&mut self, handle: DegradeHandle) {
        self.degrades.retain(|(id, _)| *id != handle.0);
    }

    /// Whether any link degradation is currently active.
    pub fn degraded(&self) -> bool {
        !self.degrades.is_empty()
    }

    /// Attempt to send a message from `a` to `b`, sampling delay and loss.
    pub fn send(&mut self, a: SiteId, b: SiteId, rng: &mut SimRng) -> LinkOutcome {
        self.stats.attempts += 1;
        if !self.reachable(a, b) {
            self.stats.blocked += 1;
            return LinkOutcome::Unreachable;
        }
        // Active degrades: each matching one may drop the message or
        // stretch its delay (factors compose multiplicatively).
        let mut factor = 1.0;
        let mut dropped = false;
        for (_, d) in &self.degrades {
            if d.applies(a, b) {
                if d.loss > 0.0 && rng.chance(d.loss) {
                    dropped = true;
                    break;
                }
                factor *= d.latency_factor;
            }
        }
        if dropped {
            self.stats.lost += 1;
            return LinkOutcome::Lost;
        }
        let link = self.topo.link(a, b);
        if link.loss > 0.0 && rng.chance(link.loss) {
            self.stats.lost += 1;
            return LinkOutcome::Lost;
        }
        if a != b {
            self.stats.backbone_crossings += 1;
        }
        self.stats.delivered += 1;
        let mut delay = link.latency.sample(rng);
        if factor != 1.0 {
            delay = delay.mul_f64(factor);
            self.stats.degraded += 1;
        }
        LinkOutcome::Delivered(delay)
    }

    /// Sample a round-trip (two one-way messages); `None` when unreachable
    /// or either direction is lost.
    pub fn round_trip(&mut self, a: SiteId, b: SiteId, rng: &mut SimRng) -> Option<SimDuration> {
        let out = self.send(a, b, rng).delay()?;
        let back = self.send(b, a, rng).delay()?;
        Some(out + back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net3() -> Network {
        Network::new(Topology::multinational(3))
    }

    #[test]
    fn full_mesh_reachable_by_default() {
        let n = net3();
        for a in 0..3u32 {
            for b in 0..3u32 {
                assert!(n.reachable(SiteId(a), SiteId(b)));
            }
        }
    }

    #[test]
    fn lan_vs_wan_medians() {
        let t = Topology::multinational(2);
        let lan = t.link(SiteId(0), SiteId(0)).latency.median();
        let wan = t.link(SiteId(0), SiteId(1)).latency.median();
        assert!(wan > lan * 10, "wan={wan} lan={lan}");
    }

    #[test]
    fn partition_blocks_cross_island_traffic() {
        let mut n = net3();
        let h = n.start_partition(Cut::isolating([SiteId(2)]));
        assert!(n.reachable(SiteId(0), SiteId(1)));
        assert!(!n.reachable(SiteId(0), SiteId(2)));
        assert!(!n.reachable(SiteId(2), SiteId(1)));
        // Intra-island traffic still flows.
        assert!(n.reachable(SiteId(2), SiteId(2)));
        n.heal_partition(h);
        assert!(n.reachable(SiteId(0), SiteId(2)));
        assert!(!n.partitioned());
    }

    #[test]
    fn overlapping_cuts_compose() {
        let mut n = Network::new(Topology::multinational(4));
        let h1 = n.start_partition(Cut::isolating([SiteId(0)]));
        let _h2 = n.start_partition(Cut::isolating([SiteId(1)]));
        assert!(!n.reachable(SiteId(0), SiteId(1)));
        assert!(!n.reachable(SiteId(0), SiteId(2)));
        assert!(!n.reachable(SiteId(1), SiteId(3)));
        assert!(n.reachable(SiteId(2), SiteId(3)));
        n.heal_partition(h1);
        // Second cut still separates 1 from the rest.
        assert!(n.reachable(SiteId(0), SiteId(2)));
        assert!(!n.reachable(SiteId(1), SiteId(2)));
    }

    #[test]
    fn heal_twice_is_noop() {
        let mut n = net3();
        let h = n.start_partition(Cut::isolating([SiteId(1)]));
        n.heal_partition(h);
        n.heal_partition(h);
        assert!(!n.partitioned());
    }

    #[test]
    fn send_counts_stats() {
        let mut n = net3();
        let mut rng = SimRng::seed_from_u64(5);
        let h = n.start_partition(Cut::isolating([SiteId(2)]));
        assert_eq!(
            n.send(SiteId(0), SiteId(2), &mut rng),
            LinkOutcome::Unreachable
        );
        assert!(matches!(
            n.send(SiteId(0), SiteId(1), &mut rng),
            LinkOutcome::Delivered(_)
        ));
        assert!(matches!(
            n.send(SiteId(0), SiteId(0), &mut rng),
            LinkOutcome::Delivered(_)
        ));
        n.heal_partition(h);
        assert_eq!(n.stats.attempts, 3);
        assert_eq!(n.stats.blocked, 1);
        assert_eq!(n.stats.delivered, 2);
        assert_eq!(n.stats.backbone_crossings, 1);
    }

    #[test]
    fn lossy_link_drops_messages() {
        let lan = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_micros(100)));
        let wan = LinkProfile {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            loss: 0.5,
        };
        let mut n = Network::new(Topology::full_mesh(2, lan, wan));
        let mut rng = SimRng::seed_from_u64(11);
        let lost = (0..2000)
            .filter(|_| matches!(n.send(SiteId(0), SiteId(1), &mut rng), LinkOutcome::Lost))
            .count();
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "loss fraction {frac}");
    }

    #[test]
    fn round_trip_adds_two_legs() {
        let lan = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_micros(100)));
        let wan = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_millis(10)));
        let mut n = Network::new(Topology::full_mesh(2, lan, wan));
        let mut rng = SimRng::seed_from_u64(13);
        let rtt = n.round_trip(SiteId(0), SiteId(1), &mut rng).unwrap();
        assert_eq!(rtt, SimDuration::from_millis(20));
    }

    #[test]
    fn latency_samples_respect_floor() {
        let m = LatencyModel::LogNormal {
            median: SimDuration::from_millis(10),
            sigma: 1.0,
            floor: SimDuration::from_millis(6),
        };
        let mut rng = SimRng::seed_from_u64(17);
        for _ in 0..5000 {
            assert!(m.sample(&mut rng) >= SimDuration::from_millis(6));
        }
    }

    #[test]
    fn one_way_loss_is_asymmetric() {
        let lan = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_micros(100)));
        let wan = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_millis(10)));
        let mut n = Network::new(Topology::full_mesh(3, lan, wan));
        let mut rng = SimRng::seed_from_u64(7);
        let h = n.start_degrade(Degrade::one_way_loss([SiteId(2)]));
        // Reachability is unaffected — a degrade is not a partition.
        assert!(n.reachable(SiteId(2), SiteId(0)));
        assert!(!n.partitioned());
        assert!(n.degraded());
        // Messages leaving the island are black-holed...
        assert_eq!(n.send(SiteId(2), SiteId(0), &mut rng), LinkOutcome::Lost);
        // ...messages into the island and inside it still flow.
        assert!(matches!(
            n.send(SiteId(0), SiteId(2), &mut rng),
            LinkOutcome::Delivered(_)
        ));
        assert!(matches!(
            n.send(SiteId(2), SiteId(2), &mut rng),
            LinkOutcome::Delivered(_)
        ));
        // Round trips crossing the bad direction fail either way around.
        assert!(n.round_trip(SiteId(0), SiteId(2), &mut rng).is_none());
        assert!(n.round_trip(SiteId(2), SiteId(1), &mut rng).is_none());
        n.heal_degrade(h);
        n.heal_degrade(h); // double heal is a no-op
        assert!(!n.degraded());
        assert!(matches!(
            n.send(SiteId(2), SiteId(0), &mut rng),
            LinkOutcome::Delivered(_)
        ));
    }

    #[test]
    fn backbone_degrade_stretches_latency_and_drops() {
        let lan = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_micros(100)));
        let wan = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_millis(10)));
        let mut n = Network::new(Topology::full_mesh(2, lan, wan));
        let mut rng = SimRng::seed_from_u64(9);
        let h = n.start_degrade(Degrade::backbone(8.0, 0.25));
        let mut delivered = 0u64;
        let mut lost = 0u64;
        for _ in 0..2000 {
            match n.send(SiteId(0), SiteId(1), &mut rng) {
                LinkOutcome::Delivered(d) => {
                    assert_eq!(d, SimDuration::from_millis(80));
                    delivered += 1;
                }
                LinkOutcome::Lost => lost += 1,
                LinkOutcome::Unreachable => panic!("degrade must not partition"),
            }
        }
        let frac = lost as f64 / 2000.0;
        assert!((frac - 0.25).abs() < 0.05, "loss fraction {frac}");
        assert_eq!(n.stats.degraded, delivered);
        // Intra-site traffic is untouched.
        let rtt = n.round_trip(SiteId(0), SiteId(0), &mut rng).unwrap();
        assert_eq!(rtt, SimDuration::from_micros(200));
        n.heal_degrade(h);
        assert_eq!(
            n.send(SiteId(0), SiteId(1), &mut rng),
            LinkOutcome::Delivered(SimDuration::from_millis(10))
        );
    }

    #[test]
    fn degrade_scope_rules() {
        let any = Degrade::backbone(2.0, 0.0);
        assert!(any.applies(SiteId(0), SiteId(1)));
        assert!(!any.applies(SiteId(1), SiteId(1)));
        let leaving = Degrade::one_way_loss([SiteId(0), SiteId(1)]);
        assert!(leaving.applies(SiteId(0), SiteId(2)));
        assert!(!leaving.applies(SiteId(2), SiteId(0)));
        // Traffic inside the sender set is not "leaving" it.
        assert!(!leaving.applies(SiteId(0), SiteId(1)));
        let directed = Degrade {
            from: [SiteId(0)].into_iter().collect(),
            to: [SiteId(1)].into_iter().collect(),
            loss: 0.5,
            latency_factor: 1.0,
        };
        assert!(directed.applies(SiteId(0), SiteId(1)));
        assert!(!directed.applies(SiteId(0), SiteId(2)));
        assert!(!directed.applies(SiteId(1), SiteId(0)));
    }

    #[test]
    fn set_link_is_symmetric() {
        let mut t = Topology::multinational(3);
        let custom = LinkProfile::lossless(LatencyModel::Fixed(SimDuration::from_millis(42)));
        t.set_link(SiteId(0), SiteId(2), custom.clone());
        assert_eq!(t.link(SiteId(0), SiteId(2)), &custom);
        assert_eq!(t.link(SiteId(2), SiteId(0)), &custom);
    }
}
