//! The QoS switch of one deployment and the controller's timings.

use udr_model::qos::PriorityClass;
use udr_model::time::SimDuration;

use crate::admission::AdmissionController;

/// Queue-delay target of the *lowest* class (CoDel's `target`): the
/// station queueing delay above which provisioning traffic starts being
/// shed. Each class up the order tolerates a larger delay (see
/// [`QosConfig::class_target`]).
pub const SHED_TARGET: SimDuration = SimDuration::from_micros(500);

/// How long the measured delay must stay above a class's target before
/// that class is actually shed (CoDel's `interval` — absorbs transient
/// bursts that would drain on their own), and how long the queue must
/// stay drained before an episode ends.
pub const SHED_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// How long the controller must have been shedding before guarded read
/// policies (`BoundedStaleness`/`SessionConsistent`) downgrade to
/// `NearestCopy` — the PACELC "else" leg flipped live, always recorded in
/// `GuaranteeTracker` as an explicit policy downgrade.
pub const DEGRADE_AFTER: SimDuration = SimDuration::from_secs(2);

/// Admission-control configuration of one deployment. The default is
/// [`QosConfig::disabled`]: the controller admits everything and the
/// system behaves exactly as it did before the subsystem existed.
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Master switch: while `false` every operation is admitted. While
    /// `true`, the controller sheds against [`SHED_TARGET`] and
    /// [`SHED_INTERVAL`], and sustained shedding also downgrades guarded
    /// read policies (see [`DEGRADE_AFTER`]).
    pub enabled: bool,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig::disabled()
    }
}

impl QosConfig {
    /// Admission control off: every operation admitted, no degradation.
    pub fn disabled() -> Self {
        QosConfig { enabled: false }
    }

    /// Overload protection on: delay shedding and the degradation of
    /// sustained overload.
    pub fn protective() -> Self {
        QosConfig { enabled: true }
    }

    /// The queue-delay target of a class: [`SHED_TARGET`] for the lowest
    /// class, scaled up the priority order — provisioning 1×, query 2×,
    /// registration 4×, call setup 16×, emergency 64×. Targets are
    /// strictly monotone (the lowest classes are always cut first), and
    /// the deliberately wide gap between registration and call setup
    /// keeps established-service traffic clear of the delay band where a
    /// registration storm is being shed.
    pub fn class_target(class: PriorityClass) -> SimDuration {
        const MULTIPLIERS: [u64; PriorityClass::ALL.len()] = [64, 16, 4, 2, 1];
        SHED_TARGET * MULTIPLIERS[class.rank()]
    }

    /// Build an [`AdmissionController`] for one cluster.
    pub fn controller(&self) -> AdmissionController {
        AdmissionController::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let cfg = QosConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg, QosConfig::disabled());
    }

    #[test]
    fn class_targets_grow_strictly_up_the_order() {
        let t = QosConfig::class_target;
        assert_eq!(t(PriorityClass::Provisioning), SHED_TARGET);
        assert_eq!(t(PriorityClass::Query), SHED_TARGET * 2);
        assert_eq!(t(PriorityClass::Registration), SHED_TARGET * 4);
        assert_eq!(t(PriorityClass::CallSetup), SHED_TARGET * 16);
        assert_eq!(t(PriorityClass::Emergency), SHED_TARGET * 64);
        // Strict monotonicity is what makes inversion impossible.
        for pair in PriorityClass::ALL.windows(2) {
            assert!(t(pair[0]) > t(pair[1]), "{} vs {}", pair[0], pair[1]);
        }
    }
}
