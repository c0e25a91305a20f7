//! Front-end traffic generation: Poisson procedure arrivals at a constant
//! rate with a configurable procedure mix, a roaming model (§3.5: "users
//! stay within the home region of the subscription most of the time"),
//! hotspots, and the overload storm that kills real HLR/HSS deployments:
//! post-outage mass re-registration.

use std::fmt;

use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::session::SessionToken;
use udr_model::tenant::TenantId;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::SimRng;

use crate::population::Subscriber;

/// Relative frequency of each procedure in the mix.
#[derive(Debug, Clone)]
pub struct ProcedureMix {
    kinds: Vec<(ProcedureKind, f64)>,
}

impl ProcedureMix {
    /// A mix from `(kind, weight)` pairs.
    pub fn new(kinds: Vec<(ProcedureKind, f64)>) -> Self {
        assert!(!kinds.is_empty());
        ProcedureMix { kinds }
    }

    /// A realistic default mix: location management dominates, calls and
    /// SMS frequent, IMS present, attach/detach rare.
    pub fn typical() -> Self {
        ProcedureMix::new(vec![
            (ProcedureKind::LocationUpdate, 30.0),
            (ProcedureKind::SmsDelivery, 20.0),
            (ProcedureKind::CallSetupMo, 15.0),
            (ProcedureKind::CallSetupMt, 12.0),
            (ProcedureKind::ImsSession, 10.0),
            (ProcedureKind::ImsRegistration, 5.0),
            (ProcedureKind::Attach, 4.0),
            (ProcedureKind::Detach, 4.0),
        ])
    }

    /// A read-only mix (no writes at all).
    pub fn read_only() -> Self {
        ProcedureMix::new(vec![
            (ProcedureKind::SmsDelivery, 40.0),
            (ProcedureKind::CallSetupMo, 30.0),
            (ProcedureKind::CallSetupMt, 30.0),
        ])
    }

    /// Draw one procedure kind.
    pub fn sample(&self, rng: &mut SimRng) -> ProcedureKind {
        let weights: Vec<f64> = self.kinds.iter().map(|(_, w)| *w).collect();
        self.kinds[rng.weighted_choice(&weights)].0
    }
}

/// The flavour of an overlaid traffic storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormKind {
    /// Post-outage mass re-registration: the whole population re-attaches
    /// (attach / location-update / IMS-registration heavy mix) at their
    /// home sites — the HLR-killer of arXiv:1304.2867's location-update
    /// analysis.
    Reregistration,
}

impl fmt::Display for StormKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StormKind::Reregistration => f.write_str("reregistration"),
        }
    }
}

/// A traffic storm overlaid on the base stream: for `duration` starting
/// at `start`, an *additional* Poisson arrival process runs at
/// `multiplier ×` the model's base aggregate rate with the storm kind's
/// own procedure mix, each event at its subscriber's home site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormSpec {
    /// When the storm begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Extra offered load during the window, as a multiple of the base
    /// aggregate rate (e.g. `6.0` = six extra base-loads on top).
    pub multiplier: f64,
    /// What the storm is made of.
    pub kind: StormKind,
    /// When set, the storm draws its subscribers only from this tenant's
    /// population slice (the aggressor-tenant scenario); `None` storms
    /// the whole population.
    pub tenant: Option<TenantId>,
}

impl StormSpec {
    /// The procedure mix of the storm's extra events.
    fn mix(&self) -> ProcedureMix {
        match self.kind {
            // What comes back after an outage: attaches and location
            // updates dominate, IMS re-registrations ride along.
            StormKind::Reregistration => ProcedureMix::new(vec![
                (ProcedureKind::Attach, 45.0),
                (ProcedureKind::LocationUpdate, 35.0),
                (ProcedureKind::ImsRegistration, 20.0),
            ]),
        }
    }
}

/// Client-side session state for a population: which subscribers maintain
/// a [`SessionToken`] across their front-end interactions, and the tokens
/// themselves.
///
/// A sessioned subscriber's procedures carry and update its token (via
/// `OpRequest::session` on `Udr::execute`), which is what makes
/// `ReadPolicy::SessionConsistent` enforce read-your-writes and monotonic
/// reads for that subscriber; tokenless subscribers degrade to
/// nearest-copy behaviour under the same policy.
#[derive(Debug, Clone, Default)]
pub struct SessionBook {
    tokens: Vec<Option<SessionToken>>,
}

impl SessionBook {
    /// A book for `population` subscribers where roughly `fraction`
    /// (evenly spread over the index range) maintain session tokens.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `[0, 1]`.
    pub fn new(population: usize, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "session fraction {fraction} outside [0, 1]"
        );
        let tokens = (0..population)
            .map(|i| {
                // Evenly-spread selection: subscriber i is sessioned when
                // the cumulative quota crosses an integer at index i.
                let before = (i as f64 * fraction).floor();
                let after = ((i + 1) as f64 * fraction).floor();
                (after > before).then(SessionToken::new)
            })
            .collect();
        SessionBook { tokens }
    }

    /// A book where every subscriber maintains a session.
    pub fn all(population: usize) -> Self {
        SessionBook::new(population, 1.0)
    }

    /// Number of subscribers covered.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the book covers no subscribers.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The token of `subscriber`, when it maintains one.
    pub fn token(&self, subscriber: usize) -> Option<&SessionToken> {
        self.tokens.get(subscriber).and_then(|t| t.as_ref())
    }

    /// Mutable token of `subscriber`, when it maintains one — the handle
    /// to pass into `OpRequest::session`.
    pub fn token_mut(&mut self, subscriber: usize) -> Option<&mut SessionToken> {
        self.tokens.get_mut(subscriber).and_then(|t| t.as_mut())
    }
}

/// One generated traffic event.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEvent {
    /// When the procedure starts.
    pub at: SimTime,
    /// Index into the population.
    pub subscriber: usize,
    /// The procedure.
    pub kind: ProcedureKind,
    /// The FE site serving the subscriber (home or roamed).
    pub fe_site: SiteId,
    /// The operator the subscriber belongs to (from the model's tenancy
    /// slices; [`TenantId::DEFAULT`] in single-tenant models).
    pub tenant: TenantId,
}

/// One tenant's population slice: subscribers with indices in
/// `[start, end)` belong to `tenant`. Multi-operator models partition the
/// population into such slices; indices outside every slice fall back to
/// [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSlice {
    /// The operator owning the slice.
    pub tenant: TenantId,
    /// First population index of the slice (inclusive).
    pub start: usize,
    /// One past the last population index of the slice.
    pub end: usize,
}

/// Configuration of a traffic stream.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    /// Mean procedures per subscriber per second.
    pub per_sub_rate: f64,
    /// Procedure mix.
    pub mix: ProcedureMix,
    /// Probability a procedure originates outside the home region.
    pub roaming_probability: f64,
    /// Total sites (roaming targets).
    pub sites: u32,
    /// Hotspot: population indices that soak up extra traffic (empty =
    /// uniform load). A mass event, a viral service or a batch job hitting
    /// one subscriber range concentrates load on one partition — the
    /// workload that motivates hotspot relocation.
    pub hot_set: Vec<usize>,
    /// Probability an event targets the hot set instead of the uniform
    /// population (ignored while `hot_set` is empty).
    pub hot_probability: f64,
    /// An overlaid storm (`None` = steady traffic only).
    pub storm: Option<StormSpec>,
    /// Tenant ownership of the population, as index slices. Empty =
    /// single-tenant (every event tagged [`TenantId::DEFAULT`]).
    pub tenancy: Vec<TenantSlice>,
}

impl TrafficModel {
    /// A typical-mix, constant-rate model.
    pub fn flat(per_sub_rate: f64, sites: u32) -> Self {
        TrafficModel {
            per_sub_rate,
            mix: ProcedureMix::typical(),
            roaming_probability: 0.05,
            sites,
            hot_set: Vec::new(),
            hot_probability: 0.0,
            storm: None,
            tenancy: Vec::new(),
        }
    }

    /// A flat model with an overlaid storm of `kind`: during
    /// `[start, start + duration)` an additional arrival process offers
    /// `multiplier ×` the base aggregate load with the storm's own mix.
    pub fn with_storm(
        per_sub_rate: f64,
        sites: u32,
        kind: StormKind,
        start: SimTime,
        duration: SimDuration,
        multiplier: f64,
    ) -> Self {
        assert!(multiplier > 0.0, "storm multiplier must be positive");
        TrafficModel {
            storm: Some(StormSpec {
                start,
                duration,
                multiplier,
                kind,
                tenant: None,
            }),
            ..TrafficModel::flat(per_sub_rate, sites)
        }
    }

    /// Assign tenant ownership of the population (builder form).
    ///
    /// # Panics
    ///
    /// Panics on an empty or inverted slice.
    #[must_use]
    pub fn with_tenancy(mut self, tenancy: Vec<TenantSlice>) -> Self {
        assert!(
            tenancy.iter().all(|s| s.start < s.end),
            "tenant slices must be non-empty index ranges"
        );
        self.tenancy = tenancy;
        self
    }

    /// Target the model's storm at one tenant's population slice (builder
    /// form — the aggressor-tenant scenario).
    ///
    /// # Panics
    ///
    /// Panics when the model has no storm.
    #[must_use]
    pub fn storm_from(mut self, tenant: TenantId) -> Self {
        let storm = self
            .storm
            .as_mut()
            .expect("storm_from needs a storm (build with with_storm)");
        storm.tenant = Some(tenant);
        self
    }

    /// The operator owning `subscriber` under the model's tenancy slices.
    fn tenant_for(&self, subscriber: usize) -> TenantId {
        self.tenancy
            .iter()
            .find(|s| (s.start..s.end).contains(&subscriber))
            .map_or(TenantId::DEFAULT, |s| s.tenant)
    }

    /// A flat model that concentrates `hot_probability` of all events on
    /// `hot_set` (population indices). With a hot set drawn from one
    /// partition, that partition's master sees the concentrated load.
    pub fn hotspot(
        per_sub_rate: f64,
        sites: u32,
        hot_set: Vec<usize>,
        hot_probability: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&hot_probability));
        TrafficModel {
            hot_set,
            hot_probability,
            ..TrafficModel::flat(per_sub_rate, sites)
        }
    }

    /// Generate the event stream over `[start, end)` for a population.
    /// Events come out time-sorted. Same seed ⇒ identical stream (a
    /// regression test guards this — the retry/storm machinery must not
    /// introduce nondeterminism into the offered load).
    pub fn generate(
        &self,
        population: &[Subscriber],
        start: SimTime,
        end: SimTime,
        rng: &mut SimRng,
    ) -> Vec<TrafficEvent> {
        let n = population.len();
        if n == 0 || self.per_sub_rate <= 0.0 {
            return Vec::new();
        }
        // Aggregate Poisson process attributed to uniformly-chosen
        // subscribers.
        let rate = self.per_sub_rate * n as f64;
        let mut events = Vec::new();
        let mut now = start;
        loop {
            let step = rng.exponential(1.0 / rate);
            now += SimDuration::from_secs_f64(step);
            if now >= end {
                break;
            }
            let subscriber = if !self.hot_set.is_empty() && rng.chance(self.hot_probability) {
                self.hot_set[rng.below(self.hot_set.len() as u64) as usize] % n
            } else {
                rng.below(n as u64) as usize
            };
            let kind = self.mix.sample(rng);
            let home = population[subscriber].home_region;
            let fe_site = if self.sites > 1 && rng.chance(self.roaming_probability) {
                // Roam to a uniformly-chosen *other* site.
                let mut s = rng.below(u64::from(self.sites) - 1) as u32;
                if s >= home {
                    s += 1;
                }
                SiteId(s)
            } else {
                SiteId(home)
            };
            events.push(TrafficEvent {
                at: now,
                subscriber,
                kind,
                fe_site,
                tenant: self.tenant_for(subscriber),
            });
        }
        if let Some(storm) = self.storm {
            let extra = self.generate_storm(&storm, population, start, end, rng);
            events.extend(extra);
            events.sort_by(|a, b| a.at.cmp(&b.at).then(a.subscriber.cmp(&b.subscriber)));
        }
        events
    }

    /// The storm's additional arrival process over the overlap of the
    /// storm window with `[start, end)`.
    fn generate_storm(
        &self,
        storm: &StormSpec,
        population: &[Subscriber],
        start: SimTime,
        end: SimTime,
        rng: &mut SimRng,
    ) -> Vec<TrafficEvent> {
        let n = population.len();
        let from = storm.start.max(start);
        let until = (storm.start + storm.duration).min(end);
        if from >= until {
            return Vec::new();
        }
        let rate = self.per_sub_rate * n as f64 * storm.multiplier;
        let mix = storm.mix();
        // A tenant-targeted storm draws only from the tenant's slices
        // (clipped to the population); an unowned storm hits everyone.
        let pool: Vec<usize> = match storm.tenant {
            Some(tenant) => self
                .tenancy
                .iter()
                .filter(|s| s.tenant == tenant)
                .flat_map(|s| s.start..s.end.min(n))
                .collect(),
            None => Vec::new(),
        };
        let mut events = Vec::new();
        let mut now = from;
        loop {
            let step = rng.exponential(1.0 / rate);
            now += SimDuration::from_secs_f64(step);
            if now >= until {
                break;
            }
            let subscriber = if pool.is_empty() {
                rng.below(n as u64) as usize
            } else {
                pool[rng.below(pool.len() as u64) as usize]
            };
            let kind = mix.sample(rng);
            // Re-registrations land where the subscriber lives.
            let fe_site = SiteId(population[subscriber].home_region);
            events.push(TrafficEvent {
                at: now,
                subscriber,
                kind,
                fe_site,
                tenant: self.tenant_for(subscriber),
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationBuilder;

    fn population(n: u64) -> Vec<Subscriber> {
        let mut rng = SimRng::seed_from_u64(1);
        PopulationBuilder::new(3).build(n, &mut rng)
    }

    #[test]
    fn event_count_matches_rate() {
        let pop = population(100);
        let model = TrafficModel::flat(0.1, 3); // 10 events/s aggregate
        let mut rng = SimRng::seed_from_u64(2);
        let events = model.generate(
            &pop,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(100),
            &mut rng,
        );
        // Expect ~1000 events ± 10 %.
        assert!(
            (900..=1100).contains(&events.len()),
            "{} events",
            events.len()
        );
        // Sorted by time.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn roaming_probability_respected() {
        let pop = population(100);
        let mut model = TrafficModel::flat(0.1, 3);
        model.roaming_probability = 0.2;
        let mut rng = SimRng::seed_from_u64(3);
        let events = model.generate(
            &pop,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(200),
            &mut rng,
        );
        let roamed = events
            .iter()
            .filter(|e| e.fe_site.0 != pop[e.subscriber].home_region)
            .count();
        let frac = roamed as f64 / events.len() as f64;
        assert!((frac - 0.2).abs() < 0.03, "roamed fraction {frac}");
    }

    #[test]
    fn zero_roaming_stays_home() {
        let pop = population(50);
        let mut model = TrafficModel::flat(0.1, 3);
        model.roaming_probability = 0.0;
        let mut rng = SimRng::seed_from_u64(4);
        let events = model.generate(
            &pop,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(50),
            &mut rng,
        );
        assert!(events
            .iter()
            .all(|e| e.fe_site.0 == pop[e.subscriber].home_region));
    }

    #[test]
    fn read_only_mix_has_no_writes() {
        let mix = ProcedureMix::read_only();
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..100 {
            let kind = mix.sample(&mut rng);
            let (_, writes) = kind.ldap_ops();
            assert_eq!(writes, 0, "{kind}");
        }
    }

    #[test]
    fn hotspot_concentrates_load() {
        let pop = population(200);
        let hot: Vec<usize> = (0..10).collect();
        let model = TrafficModel::hotspot(0.1, 3, hot.clone(), 0.8);
        let mut rng = SimRng::seed_from_u64(7);
        let events = model.generate(
            &pop,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(200),
            &mut rng,
        );
        let on_hot = events
            .iter()
            .filter(|e| hot.contains(&e.subscriber))
            .count();
        let frac = on_hot as f64 / events.len() as f64;
        // 5% of subscribers absorb ~80% of the traffic.
        assert!((frac - 0.8).abs() < 0.05, "hot fraction {frac}");
    }

    #[test]
    fn empty_hot_set_stays_uniform() {
        let pop = population(100);
        let mut model = TrafficModel::flat(0.1, 3);
        model.hot_probability = 0.9; // ignored without a hot set
        let mut rng = SimRng::seed_from_u64(8);
        let events = model.generate(
            &pop,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(100),
            &mut rng,
        );
        assert!(!events.is_empty());
        // No subscriber dominates.
        let mut counts = vec![0usize; 100];
        for e in &events {
            counts[e.subscriber] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max < events.len() / 10, "uniform load skewed: {max}");
    }

    #[test]
    fn session_book_spreads_the_fraction() {
        let book = SessionBook::new(100, 0.25);
        assert_eq!(book.len(), 100);
        let sessioned =
            |range: std::ops::Range<usize>| range.filter(|&i| book.token(i).is_some()).count();
        assert_eq!(sessioned(0..100), 25);
        // Evenly spread, not front-loaded: both halves carry sessions.
        assert!(sessioned(0..50) > 0);
        assert!(sessioned(50..100) > 0);
    }

    #[test]
    fn session_book_extremes() {
        let none = SessionBook::new(10, 0.0);
        assert!((0..10).all(|i| none.token(i).is_none()));

        let mut all = SessionBook::all(10);
        assert!((0..10).all(|i| all.token(i).is_some()));
        assert!(all.token_mut(9).is_some());
        assert!(all.token(10).is_none()); // out of range
    }

    #[test]
    fn session_book_tokens_are_independent() {
        use udr_model::ids::PartitionId;
        let mut book = SessionBook::all(3);
        book.token_mut(1).unwrap().observe_write(PartitionId(0), 7);
        assert_eq!(book.token(1).unwrap().required_lsn(PartitionId(0)), 7);
        assert_eq!(book.token(0).unwrap().required_lsn(PartitionId(0)), 0);
    }

    #[test]
    fn reregistration_storm_adds_registration_load_in_window() {
        let pop = population(100);
        let start = SimTime::ZERO;
        let end = SimTime::ZERO + SimDuration::from_secs(100);
        let storm_at = SimTime::ZERO + SimDuration::from_secs(40);
        let model = TrafficModel::with_storm(
            0.1,
            3,
            StormKind::Reregistration,
            storm_at,
            SimDuration::from_secs(20),
            5.0,
        );
        let mut rng = SimRng::seed_from_u64(11);
        let events = model.generate(&pop, start, end, &mut rng);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "sorted");

        let in_window =
            |e: &&TrafficEvent| e.at >= storm_at && e.at < storm_at + SimDuration::from_secs(20);
        let storm_count = events.iter().filter(in_window).count();
        // ~10/s base + ~50/s storm over 20 s ≈ 1200 events; well above
        // the ~200 the base alone would produce.
        assert!(storm_count > 800, "storm window holds {storm_count} events");
        // The storm is registration traffic at home sites.
        let registrations = events
            .iter()
            .filter(in_window)
            .filter(|e| {
                matches!(
                    e.kind,
                    ProcedureKind::Attach
                        | ProcedureKind::LocationUpdate
                        | ProcedureKind::ImsRegistration
                )
            })
            .count();
        assert!(
            registrations as f64 > storm_count as f64 * 0.7,
            "storm should be registration-heavy: {registrations}/{storm_count}"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        // Guards the bench against nondeterminism sneaking in through
        // the storm/retry machinery: same seed ⇒ identical stream.
        let pop = population(80);
        for model in [
            TrafficModel::flat(0.1, 3),
            TrafficModel::hotspot(0.1, 3, (0..8).collect(), 0.6),
            TrafficModel::with_storm(
                0.1,
                3,
                StormKind::Reregistration,
                SimTime::ZERO + SimDuration::from_secs(20),
                SimDuration::from_secs(30),
                6.0,
            ),
        ] {
            let run = |seed: u64| {
                let mut rng = SimRng::seed_from_u64(seed);
                model.generate(
                    &pop,
                    SimTime::ZERO,
                    SimTime::ZERO + SimDuration::from_secs(80),
                    &mut rng,
                )
            };
            let a = run(77);
            let b = run(77);
            assert_eq!(a, b, "same seed must reproduce the stream exactly");
            assert!(!a.is_empty());
            let c = run(78);
            assert_ne!(a, c, "different seeds should differ");
        }
    }

    #[test]
    fn storm_outside_horizon_is_inert() {
        let pop = population(50);
        let model = TrafficModel::with_storm(
            0.1,
            3,
            StormKind::Reregistration,
            SimTime::ZERO + SimDuration::from_secs(1000),
            SimDuration::from_secs(10),
            5.0,
        );
        let flat = TrafficModel::flat(0.1, 3);
        let horizon = SimTime::ZERO + SimDuration::from_secs(50);
        let mut rng1 = SimRng::seed_from_u64(5);
        let mut rng2 = SimRng::seed_from_u64(5);
        let stormy = model.generate(&pop, SimTime::ZERO, horizon, &mut rng1);
        let base = flat.generate(&pop, SimTime::ZERO, horizon, &mut rng2);
        assert_eq!(stormy, base, "a storm after the horizon adds nothing");
    }

    #[test]
    fn tenancy_slices_tag_events_and_target_storms() {
        let pop = population(60);
        let a = TenantId(0);
        let b = TenantId(1);
        let storm_at = SimTime::ZERO + SimDuration::from_secs(20);
        let model = TrafficModel::with_storm(
            0.1,
            3,
            StormKind::Reregistration,
            storm_at,
            SimDuration::from_secs(20),
            6.0,
        )
        .with_tenancy(vec![
            TenantSlice {
                tenant: a,
                start: 0,
                end: 30,
            },
            TenantSlice {
                tenant: b,
                start: 30,
                end: 60,
            },
        ])
        .storm_from(a);
        let mut rng = SimRng::seed_from_u64(13);
        let events = model.generate(
            &pop,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(60),
            &mut rng,
        );
        // Every event carries the slice's tenant.
        assert!(events
            .iter()
            .all(|e| e.tenant == if e.subscriber < 30 { a } else { b }));
        // The storm surge lands entirely on tenant A's subscribers.
        let in_window: Vec<&TrafficEvent> = events
            .iter()
            .filter(|e| e.at >= storm_at && e.at < storm_at + SimDuration::from_secs(20))
            .collect();
        let on_a = in_window.iter().filter(|e| e.tenant == a).count();
        assert!(
            on_a as f64 > in_window.len() as f64 * 0.8,
            "storm should target tenant A: {on_a}/{}",
            in_window.len()
        );
        // Without tenancy every event is the default tenant.
        let flat = TrafficModel::flat(0.1, 3);
        let mut rng = SimRng::seed_from_u64(14);
        let base = flat.generate(
            &pop,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(20),
            &mut rng,
        );
        assert!(base.iter().all(|e| e.tenant == TenantId::DEFAULT));
    }

    #[test]
    fn empty_population_generates_nothing() {
        let model = TrafficModel::flat(0.1, 3);
        let mut rng = SimRng::seed_from_u64(5);
        assert!(model
            .generate(
                &[],
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs(10),
                &mut rng
            )
            .is_empty());
    }
}
