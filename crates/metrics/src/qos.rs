//! Per-priority-class accounting for the QoS admission-control
//! subsystem: offered vs admitted vs shed vs completed ("goodput")
//! operations and per-class latency, plus the priority-inversion audit
//! counter that must stay zero.

use udr_model::qos::{PriorityClass, ShedReason};
use udr_model::tenant::TenantId;
use udr_model::time::SimDuration;

use crate::hist::Histogram;

/// Counters for one priority class.
#[derive(Debug, Clone, Default)]
pub struct ClassCounters {
    /// Operations that arrived carrying this class.
    pub offered: u64,
    /// Operations the admission controller refused for rate-budget
    /// exhaustion.
    pub shed_rate: u64,
    /// Operations the admission controller refused for sustained queue
    /// delay.
    pub shed_delay: u64,
    /// Operations that completed successfully end-to-end (the class's
    /// goodput).
    pub completed: u64,
    /// Operations that failed after admission (timeouts, unreachable
    /// replicas, data errors — anything but a shed).
    pub failed: u64,
    /// Latency of the completed operations.
    pub latency: Histogram,
}

impl ClassCounters {
    /// Operations shed for any reason.
    pub fn shed(&self) -> u64 {
        self.shed_rate + self.shed_delay
    }

    /// Operations the controller let through.
    pub fn admitted(&self) -> u64 {
        self.offered.saturating_sub(self.shed())
    }
}

/// Per-tenant accounting: the full tenant × class matrix plus the
/// authorization-denial counter. Denials are *not* part of any class's
/// offered/shed counters — a forbidden operation never entered the QoS
/// domain, so counting it as shed would misattribute policy to load.
#[derive(Debug, Clone, Default)]
pub struct TenantCounters {
    by_rank: [ClassCounters; PriorityClass::ALL.len()],
    /// Operations refused by the capability check (policy denials).
    pub forbidden: u64,
}

impl TenantCounters {
    /// The tenant's counters for one class.
    pub fn class(&self, class: PriorityClass) -> &ClassCounters {
        &self.by_rank[class.rank()]
    }

    /// Operations offered by this tenant across all classes (excludes
    /// forbidden operations).
    pub fn offered(&self) -> u64 {
        self.by_rank.iter().map(|c| c.offered).sum()
    }

    /// Operations of this tenant shed across all classes.
    pub fn shed(&self) -> u64 {
        self.by_rank.iter().map(ClassCounters::shed).sum()
    }

    /// Operations of this tenant admitted across all classes.
    pub fn admitted(&self) -> u64 {
        self.offered().saturating_sub(self.shed())
    }

    /// Operations of this tenant completed across all classes.
    pub fn completed(&self) -> u64 {
        self.by_rank.iter().map(|c| c.completed).sum()
    }
}

/// QoS accounting for one run: the tenant × class matrix, from which the
/// per-class view is summed on demand.
#[derive(Debug, Clone, Default)]
pub struct QosTracker {
    /// Per-tenant counters, grown on first sight of a tenant id (ids are
    /// dense; see `udr_model::tenant`).
    tenants: Vec<TenantCounters>,
    /// Shed decisions where some strictly-lower-priority class would have
    /// been admitted at the same instant — must stay 0 (the controller
    /// design makes inversion impossible; this counter proves it live).
    pub priority_inversions: u64,
}

impl QosTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        QosTracker::default()
    }

    /// The counters of one class, summed over every tenant (latency
    /// histograms merge exactly).
    pub fn class(&self, class: PriorityClass) -> ClassCounters {
        let mut sum = ClassCounters::default();
        for c in self.tenants.iter().map(|t| t.class(class)) {
            sum.offered += c.offered;
            sum.shed_rate += c.shed_rate;
            sum.shed_delay += c.shed_delay;
            sum.completed += c.completed;
            sum.failed += c.failed;
            sum.latency.merge(&c.latency);
        }
        sum
    }

    /// Record a priority inversion caught by the shed-time audit.
    pub fn record_inversion(&mut self) {
        self.priority_inversions += 1;
    }

    /// The per-tenant counters of `tenant` (default-empty for a tenant
    /// never seen — reading never grows the table).
    pub fn tenant(&self, tenant: TenantId) -> TenantCounters {
        self.tenants
            .get(tenant.index())
            .cloned()
            .unwrap_or_default()
    }

    fn tenant_mut(&mut self, tenant: TenantId) -> &mut TenantCounters {
        if self.tenants.len() <= tenant.index() {
            self.tenants
                .resize_with(tenant.index() + 1, TenantCounters::default);
        }
        &mut self.tenants[tenant.index()]
    }

    /// Record an operation of `tenant` arriving with `class`.
    pub fn record_tenant_offered(&mut self, tenant: TenantId, class: PriorityClass) {
        self.tenant_mut(tenant).by_rank[class.rank()].offered += 1;
    }

    /// Record a shed decision against `tenant` (its own budget or the
    /// shared cluster controller — both spend the tenant's goodput).
    pub fn record_tenant_shed(
        &mut self,
        tenant: TenantId,
        class: PriorityClass,
        reason: ShedReason,
    ) {
        let c = &mut self.tenant_mut(tenant).by_rank[class.rank()];
        match reason {
            ShedReason::RateLimit => c.shed_rate += 1,
            ShedReason::QueueDelay => c.shed_delay += 1,
        }
    }

    /// Record a successful completion for `tenant`.
    pub fn record_tenant_completed(
        &mut self,
        tenant: TenantId,
        class: PriorityClass,
        latency: SimDuration,
    ) {
        let c = &mut self.tenant_mut(tenant).by_rank[class.rank()];
        c.completed += 1;
        c.latency.record(latency);
    }

    /// Record a post-admission failure for `tenant`.
    pub fn record_tenant_failed(&mut self, tenant: TenantId, class: PriorityClass) {
        self.tenant_mut(tenant).by_rank[class.rank()].failed += 1;
    }

    /// Record an authorization denial for `tenant`.
    pub fn record_tenant_forbidden(&mut self, tenant: TenantId) {
        self.tenant_mut(tenant).forbidden += 1;
    }

    /// Total operations shed across all tenants and classes.
    pub fn total_shed(&self) -> u64 {
        self.tenants.iter().map(TenantCounters::shed).sum()
    }

    /// Total operations offered across all tenants and classes (excludes
    /// forbidden operations).
    pub fn total_offered(&self) -> u64 {
        self.tenants.iter().map(TenantCounters::offered).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::time::SimDuration;

    #[test]
    fn counters_route_by_class_and_reason() {
        let mut t = QosTracker::new();
        let (a, b) = (TenantId(0), TenantId(1));
        t.record_tenant_offered(a, PriorityClass::CallSetup);
        t.record_tenant_offered(b, PriorityClass::CallSetup);
        t.record_tenant_offered(a, PriorityClass::Provisioning);
        t.record_tenant_completed(a, PriorityClass::CallSetup, SimDuration::from_millis(2));
        t.record_tenant_shed(b, PriorityClass::CallSetup, ShedReason::QueueDelay);
        t.record_tenant_shed(a, PriorityClass::Provisioning, ShedReason::RateLimit);
        t.record_tenant_forbidden(b);

        // The class view sums the tenants.
        let call = t.class(PriorityClass::CallSetup);
        assert_eq!(call.offered, 2);
        assert_eq!(call.shed_delay, 1);
        assert_eq!(call.shed(), 1);
        assert_eq!(call.admitted(), 1);
        assert_eq!(call.completed, 1);
        assert_eq!(call.latency.count(), 1);
        assert_eq!(call.latency.max(), SimDuration::from_millis(2));

        let ps = t.class(PriorityClass::Provisioning);
        assert_eq!(ps.shed_rate, 1);
        // A forbidden op counts nowhere in the class view.
        assert_eq!(t.total_shed(), 2);
        assert_eq!(t.total_offered(), 3);
    }

    #[test]
    fn inversions_accumulate() {
        let mut t = QosTracker::new();
        assert_eq!(t.priority_inversions, 0);
        t.record_inversion();
        assert_eq!(t.priority_inversions, 1);
    }

    #[test]
    fn tenant_counters_are_independent() {
        let mut t = QosTracker::new();
        let a = TenantId(0);
        let b = TenantId(1);
        t.record_tenant_offered(a, PriorityClass::Registration);
        t.record_tenant_offered(a, PriorityClass::Registration);
        t.record_tenant_shed(a, PriorityClass::Registration, ShedReason::RateLimit);
        t.record_tenant_offered(b, PriorityClass::CallSetup);
        t.record_tenant_completed(b, PriorityClass::CallSetup, SimDuration::from_millis(3));
        t.record_tenant_forbidden(b);

        let ta = t.tenant(a);
        assert_eq!(ta.offered(), 2);
        assert_eq!(ta.shed(), 1);
        assert_eq!(ta.admitted(), 1);
        assert_eq!(ta.forbidden, 0);

        let tb = t.tenant(b);
        assert_eq!(tb.offered(), 1);
        assert_eq!(tb.shed(), 0);
        assert_eq!(tb.completed(), 1);
        assert_eq!(tb.forbidden, 1);

        // A tenant never seen reads as empty and does not grow the table.
        assert_eq!(t.tenant(TenantId(9)).offered(), 0);
    }
}
