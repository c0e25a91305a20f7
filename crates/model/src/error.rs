//! The error vocabulary shared by every crate in the workspace.

use std::error::Error;
use std::fmt;

use crate::identity::IdentityKind;
use crate::ids::{PartitionId, SeId, SubscriberUid};
use crate::qos::{PriorityClass, ShedReason};
use crate::tenant::{Capability, TenantId};

/// Unified error type for UDR operations.
///
/// Variants deliberately mirror the *observable* failure modes discussed in
/// the paper: unreachable replicas on partitions (§3.2), refused writes on
/// slave copies, transaction conflicts under READ_COMMITTED locking, lost
/// durability on element failure (§4.2), and the location stage not yet in
/// sync after scale-out (§3.4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdrError {
    /// A textual identity failed validation.
    InvalidIdentity {
        /// Which index the value was intended for.
        kind: IdentityKind,
        /// The offending value.
        value: String,
    },
    /// No entry for the identity in the data-location stage.
    UnknownIdentity(String),
    /// No record for the uid on the addressed storage element.
    NotFound(SubscriberUid),
    /// A record already exists (duplicate provisioning).
    AlreadyExists(SubscriberUid),
    /// The addressed SE (or the master replica needed) is not reachable from
    /// the client's side of the network — the CAP failure mode of §3.2.
    Unreachable {
        /// The element that could not be reached.
        se: SeId,
        /// Human-readable reason ("partition", "crashed", "timeout").
        reason: &'static str,
    },
    /// A write was addressed to a slave copy (only masters take writes).
    NotMaster {
        /// The partition involved.
        partition: PartitionId,
        /// The SE that refused the write.
        se: SeId,
    },
    /// Lock conflict: another in-flight transaction holds a write lock.
    WriteConflict(SubscriberUid),
    /// The transaction was aborted (explicitly or by the engine).
    TxnAborted {
        /// Why the engine aborted it.
        reason: &'static str,
    },
    /// The transaction handle is no longer usable.
    TxnInvalid,
    /// The storage element is not in a state to serve (crashed / recovering).
    SeUnavailable(SeId),
    /// The PoA's data-location stage is still synchronising after scale-out
    /// (§3.4.2) and cannot resolve identities yet.
    LocationStageSyncing,
    /// The partition is frozen for the final hand-off window of a live
    /// migration; writes are refused (retryable) until cutover.
    PartitionFrozen(PartitionId),
    /// A replication-level commit failed to reach the required copies
    /// (semi-sync / quorum modes).
    ReplicationFailed {
        /// Copies that acknowledged.
        acked: usize,
        /// Copies required.
        required: usize,
    },
    /// Codec-level failure while encoding/decoding protocol messages.
    Codec(String),
    /// The operation timed out end-to-end.
    Timeout,
    /// Request rejected due to overload (queue bound exceeded).
    Overload,
    /// Request shed by the QoS admission controller: the deployment is
    /// overloaded and this operation's priority class is below the cut.
    /// Unlike the blanket [`UdrError::Overload`], the decision is
    /// policy-driven — a typed reason plus the class it applied to.
    Shed {
        /// Priority class of the shed operation.
        class: PriorityClass,
        /// Why the controller refused it.
        reason: ShedReason,
    },
    /// The tenant is not entitled to the capability the operation needs.
    /// Unlike [`UdrError::Shed`] this is a *policy* denial, not a load
    /// condition: it is permanent until the tenant directory changes,
    /// never counted as shed traffic, and never retried.
    Forbidden {
        /// The tenant that issued the operation.
        tenant: TenantId,
        /// The capability the operation required.
        capability: Capability,
    },
    /// Provisioning ran out of uids: the next one does not fit the 48 bits
    /// a data-location table stores.
    UidSpaceExhausted(SubscriberUid),
    /// Catch-all for configuration mistakes.
    Config(String),
}

impl fmt::Display for UdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdrError::InvalidIdentity { kind, value } => {
                write!(f, "invalid {kind} value {value:?}")
            }
            UdrError::UnknownIdentity(v) => write!(f, "unknown identity {v}"),
            UdrError::NotFound(uid) => write!(f, "no record for {uid}"),
            UdrError::AlreadyExists(uid) => write!(f, "record for {uid} already exists"),
            UdrError::Unreachable { se, reason } => write!(f, "{se} unreachable ({reason})"),
            UdrError::NotMaster { partition, se } => {
                write!(
                    f,
                    "{se} holds only a slave copy of {partition}; writes need the master"
                )
            }
            UdrError::WriteConflict(uid) => write!(f, "write-lock conflict on {uid}"),
            UdrError::TxnAborted { reason } => write!(f, "transaction aborted: {reason}"),
            UdrError::TxnInvalid => write!(f, "transaction handle no longer valid"),
            UdrError::SeUnavailable(se) => write!(f, "{se} unavailable"),
            UdrError::LocationStageSyncing => {
                write!(
                    f,
                    "data-location stage synchronising; PoA cannot resolve yet"
                )
            }
            UdrError::PartitionFrozen(p) => {
                write!(f, "{p} frozen for migration hand-off; retry after cutover")
            }
            UdrError::ReplicationFailed { acked, required } => {
                write!(f, "replication acked by {acked}/{required} required copies")
            }
            UdrError::Codec(msg) => write!(f, "codec error: {msg}"),
            UdrError::Timeout => write!(f, "operation timed out"),
            UdrError::Overload => write!(f, "rejected: overload"),
            UdrError::Shed { class, reason } => {
                write!(f, "shed {class} traffic: {reason}")
            }
            UdrError::Forbidden { tenant, capability } => {
                write!(f, "{tenant} is not entitled to {capability}")
            }
            UdrError::UidSpaceExhausted(uid) => {
                write!(
                    f,
                    "{uid} exceeds the 48-bit uid space of the location tables"
                )
            }
            UdrError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl Error for UdrError {}

/// Shorthand result type used across the workspace.
pub type UdrResult<T> = Result<T, UdrError>;

impl UdrError {
    /// True for failures caused by the network/topology (the availability
    /// failures CAP talks about), as opposed to data-level errors.
    pub fn is_availability_failure(&self) -> bool {
        matches!(
            self,
            UdrError::Unreachable { .. }
                | UdrError::SeUnavailable(_)
                | UdrError::Timeout
                | UdrError::LocationStageSyncing
                | UdrError::PartitionFrozen(_)
                | UdrError::ReplicationFailed { .. }
                | UdrError::Overload
                | UdrError::Shed { .. }
        )
    }

    /// True for failures a client can sensibly retry after a backoff.
    pub fn is_retryable(&self) -> bool {
        self.is_availability_failure() || matches!(self, UdrError::WriteConflict(_))
    }

    /// True for failures a network partition *caused and typed as such*:
    /// an unreachable copy on the far side of a cut, or a replication
    /// requirement the cut made unmeetable. Fault campaigns use this to
    /// separate "unavailable by design" from generic timeouts (message
    /// loss) and from outright bugs — during a clean partition every
    /// failure must satisfy this predicate.
    pub fn is_partition_induced(&self) -> bool {
        matches!(
            self,
            UdrError::Unreachable {
                reason: "partition",
                ..
            } | UdrError::ReplicationFailed { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = UdrError::NotMaster {
            partition: PartitionId(2),
            se: SeId(5),
        };
        assert!(e.to_string().contains("p2"));
        assert!(e.to_string().contains("se5"));
    }

    #[test]
    fn availability_classification() {
        assert!(UdrError::Timeout.is_availability_failure());
        assert!(UdrError::Unreachable {
            se: SeId(0),
            reason: "partition"
        }
        .is_availability_failure());
        assert!(!UdrError::NotFound(SubscriberUid(1)).is_availability_failure());
        assert!(!UdrError::WriteConflict(SubscriberUid(1)).is_availability_failure());
    }

    #[test]
    fn retry_classification() {
        assert!(UdrError::WriteConflict(SubscriberUid(1)).is_retryable());
        assert!(UdrError::Overload.is_retryable());
        assert!(!UdrError::AlreadyExists(SubscriberUid(1)).is_retryable());
    }

    #[test]
    fn partition_induced_classification() {
        assert!(UdrError::Unreachable {
            se: SeId(0),
            reason: "partition"
        }
        .is_partition_induced());
        assert!(UdrError::ReplicationFailed {
            acked: 1,
            required: 2
        }
        .is_partition_induced());
        // A crash or a lost message is not a *partition* failure.
        assert!(!UdrError::Unreachable {
            se: SeId(0),
            reason: "crashed"
        }
        .is_partition_induced());
        assert!(!UdrError::Timeout.is_partition_induced());
        assert!(!UdrError::SeUnavailable(SeId(1)).is_partition_induced());
    }

    #[test]
    fn shed_is_a_retryable_availability_failure() {
        let e = UdrError::Shed {
            class: PriorityClass::Registration,
            reason: ShedReason::QueueDelay,
        };
        assert!(e.is_availability_failure());
        assert!(e.is_retryable());
        assert_eq!(e.to_string(), "shed registration traffic: queue-delay");
    }

    #[test]
    fn forbidden_is_a_permanent_policy_denial() {
        let e = UdrError::Forbidden {
            tenant: TenantId(3),
            capability: Capability::DirectWrite,
        };
        // A denial is neither an availability failure nor retryable:
        // retrying cannot make an ungranted capability appear.
        assert!(!e.is_availability_failure());
        assert!(!e.is_retryable());
        assert!(!e.is_partition_induced());
        assert_eq!(e.to_string(), "tenant3 is not entitled to direct-write");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(UdrError::Timeout);
        assert_eq!(e.to_string(), "operation timed out");
    }
}
