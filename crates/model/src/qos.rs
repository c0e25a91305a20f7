//! The QoS vocabulary of the admission-control subsystem: priority
//! classes for telecom signalling and the reasons an operation may be
//! shed instead of served.
//!
//! The types live here (not in `udr-qos`) because they travel inside
//! [`UdrError::Shed`](crate::error::UdrError) — the error vocabulary every
//! crate shares. The admission machinery itself (token buckets, the
//! delay-based shedder) lives in the `udr-qos` crate.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::config::TxnClass;
use crate::procedures::ProcedureKind;

/// Priority class of an operation, ordered **highest priority first**:
/// `Emergency` outranks `CallSetup` outranks `Registration` outranks
/// `Query` outranks `Provisioning`. The derived `Ord` follows declaration
/// order, so `a < b` means *a outranks b* and "shed the lowest class
/// first" is "shed the `max`".
///
/// The split mirrors 3GPP overload-control practice: emergency traffic is
/// untouchable, established-service signalling (call/session setup)
/// outranks mobility management (registrations are what a post-outage
/// storm is made of and what the network sheds first), plain lookups come
/// next, and bulk provisioning is the first thing to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PriorityClass {
    /// Emergency call handling; never shed while anything else is served.
    Emergency,
    /// Call/session setup and delivery (MO/MT calls, IMS sessions, SMS).
    CallSetup,
    /// Mobility management: attach, location update, IMS registration,
    /// detach — the class that floods after a site outage.
    Registration,
    /// Other subscriber-data lookups.
    Query,
    /// Provisioning-system traffic: bulk, deferrable, shed first.
    Provisioning,
}

impl PriorityClass {
    /// All classes, highest priority first.
    pub const ALL: [PriorityClass; 5] = [
        PriorityClass::Emergency,
        PriorityClass::CallSetup,
        PriorityClass::Registration,
        PriorityClass::Query,
        PriorityClass::Provisioning,
    ];

    /// Rank of the class: 0 = highest priority.
    pub const fn rank(self) -> usize {
        self as usize
    }

    /// Whether `self` strictly outranks `other`.
    pub fn outranks(self, other: PriorityClass) -> bool {
        self < other
    }

    /// The default class of a bare LDAP operation that arrives outside a
    /// network-procedure context: provisioning traffic is
    /// [`PriorityClass::Provisioning`], anything else a plain
    /// [`PriorityClass::Query`].
    pub const fn default_for_txn(class: TxnClass) -> PriorityClass {
        match class {
            TxnClass::FrontEnd => PriorityClass::Query,
            TxnClass::Provisioning => PriorityClass::Provisioning,
        }
    }

    /// The default class of a front-end procedure (overridable per
    /// deployment through `udr_qos::QosConfig`).
    pub const fn for_procedure(kind: ProcedureKind) -> PriorityClass {
        match kind {
            ProcedureKind::CallSetupMt
            | ProcedureKind::CallSetupMo
            | ProcedureKind::ImsSession
            | ProcedureKind::SmsDelivery => PriorityClass::CallSetup,
            ProcedureKind::Attach
            | ProcedureKind::LocationUpdate
            | ProcedureKind::ImsRegistration
            | ProcedureKind::Detach => PriorityClass::Registration,
        }
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PriorityClass::Emergency => "emergency",
            PriorityClass::CallSetup => "call-setup",
            PriorityClass::Registration => "registration",
            PriorityClass::Query => "query",
            PriorityClass::Provisioning => "provisioning",
        })
    }
}

/// Why admission refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShedReason {
    /// The tenant's token-bucket rate budget for the class is exhausted.
    RateLimit,
    /// Sustained queueing delay above the class's CoDel-style target —
    /// the server is falling behind and this class is below the cut.
    QueueDelay,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShedReason::RateLimit => "rate-limit",
            ShedReason::QueueDelay => "queue-delay",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_highest_priority_first() {
        assert!(PriorityClass::Emergency < PriorityClass::CallSetup);
        assert!(PriorityClass::CallSetup < PriorityClass::Registration);
        assert!(PriorityClass::Registration < PriorityClass::Query);
        assert!(PriorityClass::Query < PriorityClass::Provisioning);
        assert!(PriorityClass::Emergency.outranks(PriorityClass::Provisioning));
        assert!(!PriorityClass::Provisioning.outranks(PriorityClass::Provisioning));
        assert_eq!(PriorityClass::Emergency.rank(), 0);
        assert_eq!(PriorityClass::Provisioning.rank(), 4);
    }

    #[test]
    fn txn_class_defaults() {
        assert_eq!(
            PriorityClass::default_for_txn(TxnClass::FrontEnd),
            PriorityClass::Query
        );
        assert_eq!(
            PriorityClass::default_for_txn(TxnClass::Provisioning),
            PriorityClass::Provisioning
        );
    }

    #[test]
    fn default_procedure_classes() {
        assert_eq!(
            PriorityClass::for_procedure(ProcedureKind::CallSetupMt),
            PriorityClass::CallSetup
        );
        assert_eq!(
            PriorityClass::for_procedure(ProcedureKind::Attach),
            PriorityClass::Registration
        );
        assert_eq!(
            PriorityClass::for_procedure(ProcedureKind::SmsDelivery),
            PriorityClass::CallSetup
        );
        // A registration storm is made of Registration-class procedures.
        for kind in [
            ProcedureKind::Attach,
            ProcedureKind::LocationUpdate,
            ProcedureKind::ImsRegistration,
        ] {
            assert_eq!(
                PriorityClass::for_procedure(kind),
                PriorityClass::Registration
            );
        }
    }

    #[test]
    fn round_trips_through_display() {
        crate::assert_distinct_labels(&PriorityClass::ALL);
        crate::assert_distinct_labels(&[ShedReason::RateLimit, ShedReason::QueueDelay]);
    }
}
