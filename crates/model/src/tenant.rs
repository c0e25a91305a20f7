//! Multi-tenant vocabulary: several operators sharing one UDR.
//!
//! §2.1 frames the UDR as a *consolidation* point — HLR, HSS and
//! provisioning front-ends of **several operators** against one
//! subscriber database. That makes admission-time authorization part of
//! the access stage's job, and it has to cost nothing: the check runs on
//! every operation, before QoS admission, on the hottest path in the
//! system.
//!
//! The design is the entity-relationship capability-bitmask idiom (see
//! `docs/TENANCY.md`): every grantable action is one bit in a `u64`, a
//! tenant's entitlement is the OR of its granted bits, and the per-op
//! check is a single branch-free mask AND — O(1), no allocation, no map
//! walk. Rate *budgets* (how much of a granted capability a tenant may
//! spend per second) are deliberately separate from the mask: a denial is
//! a [`UdrError::Forbidden`](crate::error::UdrError) (permanent, never
//! retried), a budget exhaustion is a
//! [`UdrError::Shed`](crate::error::UdrError) (transient, retryable).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{UdrError, UdrResult};
use crate::procedures::{ProcedureKind, ProvisioningKind};
use crate::qos::PriorityClass;

/// One operator (tenant) sharing the UDR. Dense small integers: the
/// tenant id doubles as the index into the [`TenantDirectory`]'s grant
/// table, which is what keeps the authorization lookup O(1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit single-operator tenant every un-annotated operation
    /// runs as — pre-tenancy behaviour is "everything is tenant 0".
    pub const DEFAULT: TenantId = TenantId(0);

    /// Index into dense per-tenant tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One grantable action: a network procedure, a provisioning flow, or a
/// bare LDAP read/write issued outside any procedure context. Each maps
/// to one bit of a [`CapabilitySet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Capability {
    /// Running one 3GPP network procedure (and the LDAP ops it issues).
    Procedure(ProcedureKind),
    /// Running one provisioning flow (and the LDAP ops it issues).
    Provisioning(ProvisioningKind),
    /// A bare LDAP read/search outside any procedure context.
    DirectRead,
    /// A bare LDAP write outside any procedure context.
    DirectWrite,
}

impl Capability {
    /// Every grantable capability, in bit order.
    pub const ALL: [Capability; 14] = [
        Capability::Procedure(ProcedureKind::Attach),
        Capability::Procedure(ProcedureKind::LocationUpdate),
        Capability::Procedure(ProcedureKind::CallSetupMt),
        Capability::Procedure(ProcedureKind::CallSetupMo),
        Capability::Procedure(ProcedureKind::SmsDelivery),
        Capability::Procedure(ProcedureKind::ImsRegistration),
        Capability::Procedure(ProcedureKind::ImsSession),
        Capability::Procedure(ProcedureKind::Detach),
        Capability::Provisioning(ProvisioningKind::CreateSubscription),
        Capability::Provisioning(ProvisioningKind::ModifyServices),
        Capability::Provisioning(ProvisioningKind::ChangeMsisdn),
        Capability::Provisioning(ProvisioningKind::DeleteSubscription),
        Capability::DirectRead,
        Capability::DirectWrite,
    ];

    /// The capability's bit in a [`CapabilitySet`] mask.
    pub const fn bit(self) -> u64 {
        match self {
            Capability::Procedure(kind) => 1 << (kind as u64),
            Capability::Provisioning(kind) => 1 << (8 + kind as u64),
            Capability::DirectRead => 1 << 12,
            Capability::DirectWrite => 1 << 13,
        }
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capability::Procedure(kind) => kind.fmt(f),
            Capability::Provisioning(kind) => kind.fmt(f),
            Capability::DirectRead => f.write_str("direct-read"),
            Capability::DirectWrite => f.write_str("direct-write"),
        }
    }
}

/// A set of granted capabilities as a `u64` bitmask. The membership test
/// is one AND — [`CapabilitySet::allows`] — which is the whole point:
/// authorization on the per-op hot path must be branch-free arithmetic,
/// not a table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CapabilitySet(u64);

impl CapabilitySet {
    /// Mask covering every defined capability bit.
    const VALID: u64 = {
        let mut mask = 0u64;
        let mut i = 0;
        while i < Capability::ALL.len() {
            mask |= Capability::ALL[i].bit();
            i += 1;
        }
        mask
    };

    /// No capabilities at all — every operation is forbidden.
    pub const EMPTY: CapabilitySet = CapabilitySet(0);

    /// Every defined capability.
    pub const ALL: CapabilitySet = CapabilitySet(Self::VALID);

    /// The raw bitmask.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// A set from raw bits; undefined bits are dropped so every
    /// constructed set holds only defined capabilities.
    pub const fn from_bits(bits: u64) -> Self {
        CapabilitySet(bits & Self::VALID)
    }

    /// The front-end entitlement: every network procedure plus bare
    /// reads (what an HLR/HSS front-end issues).
    pub const fn front_end() -> Self {
        let mut mask = Capability::DirectRead.bit();
        let mut i = 0;
        while i < ProcedureKind::ALL.len() {
            mask |= Capability::Procedure(ProcedureKind::ALL[i]).bit();
            i += 1;
        }
        CapabilitySet(mask)
    }

    /// The provisioning entitlement: every provisioning flow plus bare
    /// reads and writes (what a provisioning system issues).
    pub const fn provisioning() -> Self {
        let mut mask = Capability::DirectRead.bit() | Capability::DirectWrite.bit();
        let mut i = 0;
        while i < ProvisioningKind::ALL.len() {
            mask |= Capability::Provisioning(ProvisioningKind::ALL[i]).bit();
            i += 1;
        }
        CapabilitySet(mask)
    }

    /// This set plus `cap`.
    #[must_use]
    pub const fn grant(self, cap: Capability) -> Self {
        CapabilitySet(self.0 | cap.bit())
    }

    /// This set minus `cap`.
    #[must_use]
    pub const fn revoke(self, cap: Capability) -> Self {
        CapabilitySet(self.0 & !cap.bit())
    }

    /// Whether `cap` is granted — the single branch-free mask AND the
    /// access stage executes per operation.
    #[inline]
    pub const fn allows(self, cap: Capability) -> bool {
        self.0 & cap.bit() != 0
    }

    /// Number of granted capabilities.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether nothing is granted.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for CapabilitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        if *self == CapabilitySet::ALL {
            return f.write_str("all");
        }
        let mut first = true;
        for cap in Capability::ALL {
            if self.allows(cap) {
                if !first {
                    f.write_str("+")?;
                }
                cap.fmt(f)?;
                first = false;
            }
        }
        Ok(())
    }
}

/// A per-class rate budget for one tenant: how many operations of that
/// priority class the tenant may spend per second, with `burst` ops of
/// headroom. The plain-number twin of `udr-qos`'s `TokenBucket`
/// parameters (the machinery lives there; the *entitlement* lives here,
/// in the shared vocabulary, so the directory can travel in configs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantBudget {
    /// Sustained operations per second.
    pub rate: f64,
    /// Burst headroom in operations (≥ 1).
    pub burst: f64,
}

/// What one tenant is entitled to: its capability mask plus optional
/// per-priority-class rate budgets. A class without a budget is uncapped
/// for that tenant (cluster-level admission control still applies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantGrant {
    /// Granted capabilities.
    pub caps: CapabilitySet,
    /// Per-class rate budgets, indexed by [`PriorityClass::rank`].
    pub budgets: [Option<TenantBudget>; PriorityClass::ALL.len()],
}

impl TenantGrant {
    /// A grant of `caps` with no rate budgets.
    pub const fn new(caps: CapabilitySet) -> Self {
        TenantGrant {
            caps,
            budgets: [None; PriorityClass::ALL.len()],
        }
    }

    /// The budget of `class`, when one is set.
    pub fn budget(&self, class: PriorityClass) -> Option<TenantBudget> {
        self.budgets[class.rank()]
    }

    /// Whether any class carries a budget.
    pub fn has_budgets(&self) -> bool {
        self.budgets.iter().any(Option::is_some)
    }
}

/// The authoritative tenant → entitlement table of one deployment.
///
/// Grants live in a dense `Vec` indexed by [`TenantId`] so the hot-path
/// lookup is one bounds-checked index; an unknown tenant resolves to the
/// empty mask and is therefore forbidden everything — there is no
/// fall-through to a default entitlement, which is what makes
/// cross-tenant leaks structurally impossible.
///
/// Every mutation bumps [`TenantDirectory::epoch`]. Derived runtime
/// state (the per-tenant token buckets in `udr-core`) version-checks the
/// epoch and rebuilds itself when the directory changed — which is how a
/// mid-run revocation takes effect on the very next operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantDirectory {
    grants: Vec<TenantGrant>,
    epoch: u64,
}

impl TenantDirectory {
    /// A directory with no tenants: everything is forbidden. Add tenants
    /// with [`TenantDirectory::add_tenant`].
    pub const fn empty() -> Self {
        TenantDirectory {
            grants: Vec::new(),
            epoch: 0,
        }
    }

    /// The pre-tenancy deployment: one tenant
    /// ([`TenantId::DEFAULT`]) entitled to everything, no budgets. This
    /// is the `Default`, so single-operator configs behave exactly as
    /// they did before multi-tenancy existed.
    pub fn single_tenant() -> Self {
        TenantDirectory {
            grants: vec![TenantGrant::new(CapabilitySet::ALL)],
            epoch: 0,
        }
    }

    /// Register the next tenant with `caps`; returns its id.
    pub fn add_tenant(&mut self, caps: CapabilitySet) -> TenantId {
        let id = TenantId(self.grants.len() as u32);
        self.grants.push(TenantGrant::new(caps));
        self.epoch += 1;
        id
    }

    /// Grant `cap` to `tenant` (no-op for unknown tenants).
    pub fn grant(&mut self, tenant: TenantId, cap: Capability) {
        if let Some(g) = self.grants.get_mut(tenant.index()) {
            g.caps = g.caps.grant(cap);
            self.epoch += 1;
        }
    }

    /// Revoke `cap` from `tenant` (no-op for unknown tenants). Takes
    /// effect on the next operation — the epoch bump invalidates any
    /// derived state.
    pub fn revoke(&mut self, tenant: TenantId, cap: Capability) {
        if let Some(g) = self.grants.get_mut(tenant.index()) {
            g.caps = g.caps.revoke(cap);
            self.epoch += 1;
        }
    }

    /// Set `tenant`'s rate budget for `class`.
    pub fn set_budget(&mut self, tenant: TenantId, class: PriorityClass, budget: TenantBudget) {
        if let Some(g) = self.grants.get_mut(tenant.index()) {
            g.budgets[class.rank()] = Some(budget);
            self.epoch += 1;
        }
    }

    /// The raw capability mask of `tenant` (0 = unknown tenant, nothing
    /// granted). O(1): one bounds-checked index into the dense table.
    #[inline]
    pub fn mask(&self, tenant: TenantId) -> u64 {
        self.grants.get(tenant.index()).map_or(0, |g| g.caps.bits())
    }

    /// Whether `tenant` may exercise `cap` — the admission-time check:
    /// one table index plus one mask AND.
    #[inline]
    pub fn allows(&self, tenant: TenantId, cap: Capability) -> bool {
        self.mask(tenant) & cap.bit() != 0
    }

    /// The full grant of `tenant`, when registered.
    pub fn grant_of(&self, tenant: TenantId) -> Option<&TenantGrant> {
        self.grants.get(tenant.index())
    }

    /// Configuration generation; bumped by every mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registered tenants, in id order.
    pub fn tenants(&self) -> impl Iterator<Item = TenantId> + '_ {
        (0..self.grants.len() as u32).map(TenantId)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Validate the directory for use in a deployment.
    pub fn validate(&self) -> UdrResult<()> {
        if self.grants.is_empty() {
            return Err(UdrError::Config(
                "tenant directory must register at least one tenant".into(),
            ));
        }
        for (i, g) in self.grants.iter().enumerate() {
            for (rank, budget) in g.budgets.iter().enumerate() {
                if let Some(b) = budget {
                    if b.rate <= 0.0 || !b.rate.is_finite() {
                        return Err(UdrError::Config(format!(
                            "tenant{i} {} budget rate must be positive",
                            PriorityClass::ALL[rank]
                        )));
                    }
                    if b.burst < 1.0 || !b.burst.is_finite() {
                        return Err(UdrError::Config(format!(
                            "tenant{i} {} budget burst must hold one op",
                            PriorityClass::ALL[rank]
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Default for TenantDirectory {
    fn default() -> Self {
        TenantDirectory::single_tenant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_bits_are_distinct() {
        let mut seen = 0u64;
        for cap in Capability::ALL {
            assert_eq!(seen & cap.bit(), 0, "{cap} bit collides");
            seen |= cap.bit();
        }
        assert_eq!(seen, CapabilitySet::ALL.bits());
        assert_eq!(CapabilitySet::ALL.len(), Capability::ALL.len() as u32);
    }

    #[test]
    fn mask_and_is_the_membership_test() {
        let set = CapabilitySet::EMPTY
            .grant(Capability::Procedure(ProcedureKind::Attach))
            .grant(Capability::DirectRead);
        assert!(set.allows(Capability::Procedure(ProcedureKind::Attach)));
        assert!(set.allows(Capability::DirectRead));
        assert!(!set.allows(Capability::DirectWrite));
        assert!(!set.allows(Capability::Procedure(ProcedureKind::Detach)));
        assert_eq!(set.len(), 2);
        assert!(set.revoke(Capability::DirectRead).len() == 1);
    }

    #[test]
    fn front_end_and_provisioning_partition_sensibly() {
        let fe = CapabilitySet::front_end();
        let ps = CapabilitySet::provisioning();
        for kind in ProcedureKind::ALL {
            assert!(fe.allows(Capability::Procedure(kind)));
            assert!(!ps.allows(Capability::Procedure(kind)));
        }
        for kind in ProvisioningKind::ALL {
            assert!(ps.allows(Capability::Provisioning(kind)));
            assert!(!fe.allows(Capability::Provisioning(kind)));
        }
        assert!(!fe.allows(Capability::DirectWrite));
        assert!(ps.allows(Capability::DirectWrite));
    }

    #[test]
    fn from_bits_drops_undefined_bits() {
        let set = CapabilitySet::from_bits(u64::MAX);
        assert_eq!(set, CapabilitySet::ALL);
    }

    #[test]
    fn capability_sets_round_trip_through_display() {
        let sets = [
            CapabilitySet::EMPTY,
            CapabilitySet::ALL,
            CapabilitySet::front_end(),
            CapabilitySet::provisioning(),
            CapabilitySet::EMPTY
                .grant(Capability::Procedure(ProcedureKind::CallSetupMt))
                .grant(Capability::DirectWrite),
        ];
        crate::assert_distinct_labels(&sets);
        assert_eq!(CapabilitySet::EMPTY.to_string(), "none");
        assert_eq!(CapabilitySet::ALL.to_string(), "all");
    }

    #[test]
    fn directory_default_is_permissive_single_tenant() {
        let dir = TenantDirectory::default();
        assert_eq!(dir.len(), 1);
        for cap in Capability::ALL {
            assert!(dir.allows(TenantId::DEFAULT, cap));
        }
        assert!(dir.validate().is_ok());
    }

    #[test]
    fn unknown_tenant_is_forbidden_everything() {
        let dir = TenantDirectory::single_tenant();
        assert_eq!(dir.mask(TenantId(9)), 0);
        for cap in Capability::ALL {
            assert!(!dir.allows(TenantId(9), cap));
        }
    }

    #[test]
    fn mutations_bump_the_epoch() {
        let mut dir = TenantDirectory::empty();
        assert_eq!(dir.epoch(), 0);
        let a = dir.add_tenant(CapabilitySet::front_end());
        assert_eq!(dir.epoch(), 1);
        dir.grant(a, Capability::DirectWrite);
        assert_eq!(dir.epoch(), 2);
        dir.revoke(a, Capability::DirectWrite);
        assert_eq!(dir.epoch(), 3);
        assert!(!dir.allows(a, Capability::DirectWrite));
        dir.set_budget(
            a,
            PriorityClass::Registration,
            TenantBudget {
                rate: 10.0,
                burst: 5.0,
            },
        );
        assert_eq!(dir.epoch(), 4);
        // Mutating an unknown tenant is inert.
        dir.grant(TenantId(9), Capability::DirectRead);
        assert_eq!(dir.epoch(), 4);
    }

    #[test]
    fn validation_rejects_degenerate_directories() {
        assert!(TenantDirectory::empty().validate().is_err());
        let mut dir = TenantDirectory::single_tenant();
        dir.set_budget(
            TenantId::DEFAULT,
            PriorityClass::Query,
            TenantBudget {
                rate: 0.0,
                burst: 4.0,
            },
        );
        assert!(dir.validate().is_err());
        let mut dir = TenantDirectory::single_tenant();
        dir.set_budget(
            TenantId::DEFAULT,
            PriorityClass::Query,
            TenantBudget {
                rate: 5.0,
                burst: 0.5,
            },
        );
        assert!(dir.validate().is_err());
    }
}
