//! The QoS knob set of one deployment.

use udr_model::error::{UdrError, UdrResult};
use udr_model::qos::PriorityClass;
use udr_model::time::SimDuration;

use crate::admission::AdmissionController;

/// Admission-control configuration of one deployment. The default is
/// [`QosConfig::disabled`]: the controller admits everything and the
/// system behaves exactly as it did before the subsystem existed.
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Master switch; everything below is inert while `false`. While
    /// `true`, sustained shedding also downgrades guarded read policies
    /// (see [`QosConfig::degrade_after`]).
    pub enabled: bool,
    /// Queue-delay target of the *lowest* class (CoDel's `target`): the
    /// station queueing delay above which provisioning traffic starts
    /// being shed. Each class up the order tolerates twice the delay of
    /// the class below it (see [`QosConfig::class_target`]).
    pub shed_target: SimDuration,
    /// How long the measured delay must stay above a class's target
    /// before that class is actually shed (CoDel's `interval` — absorbs
    /// transient bursts that would drain on their own).
    pub shed_interval: SimDuration,
    /// How long the controller must have been shedding before guarded
    /// read policies (`BoundedStaleness`/`SessionConsistent`) downgrade to
    /// `NearestCopy` — the PACELC "else" leg flipped live, always recorded
    /// in `GuaranteeTracker` as an explicit policy downgrade.
    pub degrade_after: SimDuration,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig::disabled()
    }
}

impl QosConfig {
    /// Admission control off: every operation admitted, no degradation.
    pub fn disabled() -> Self {
        QosConfig {
            enabled: false,
            shed_target: SimDuration::from_micros(500),
            shed_interval: SimDuration::from_millis(100),
            degrade_after: SimDuration::from_secs(2),
        }
    }

    /// Overload protection on with the default targets: delay shedding
    /// and the degradation of sustained overload.
    pub fn protective() -> Self {
        QosConfig {
            enabled: true,
            ..QosConfig::disabled()
        }
    }

    /// The queue-delay target of a class: [`QosConfig::shed_target`] for
    /// the lowest class, scaled up the priority order — provisioning 1×,
    /// query 2×, registration 4×, call setup 16×, emergency 64×. Targets
    /// are strictly monotone (the lowest classes are always cut first),
    /// and the deliberately wide gap between registration and call setup
    /// keeps established-service traffic clear of the delay band where a
    /// registration storm is being shed.
    pub fn class_target(&self, class: PriorityClass) -> SimDuration {
        const MULTIPLIERS: [u64; PriorityClass::ALL.len()] = [64, 16, 4, 2, 1];
        self.shed_target * MULTIPLIERS[class.rank()]
    }

    /// Validate the knob set.
    pub fn validate(&self) -> UdrResult<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.shed_target.is_zero() {
            return Err(UdrError::Config("qos shed_target must be non-zero".into()));
        }
        if self.shed_interval.is_zero() {
            return Err(UdrError::Config(
                "qos shed_interval must be non-zero".into(),
            ));
        }
        if self.degrade_after.is_zero() {
            return Err(UdrError::Config(
                "qos degrade_after must be non-zero".into(),
            ));
        }
        Ok(())
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
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn class_targets_grow_strictly_up_the_order() {
        let cfg = QosConfig::protective();
        let t = |c| cfg.class_target(c);
        assert_eq!(t(PriorityClass::Provisioning), cfg.shed_target);
        assert_eq!(t(PriorityClass::Query), cfg.shed_target * 2);
        assert_eq!(t(PriorityClass::Registration), cfg.shed_target * 4);
        assert_eq!(t(PriorityClass::CallSetup), cfg.shed_target * 16);
        assert_eq!(t(PriorityClass::Emergency), cfg.shed_target * 64);
        // Strict monotonicity is what makes inversion impossible.
        for pair in PriorityClass::ALL.windows(2) {
            assert!(t(pair[0]) > t(pair[1]), "{} vs {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn validation_catches_bad_knobs() {
        let mut cfg = QosConfig::protective();
        cfg.shed_target = SimDuration::ZERO;
        assert!(cfg.validate().is_err());

        let mut no_fuse = QosConfig::protective();
        no_fuse.degrade_after = SimDuration::ZERO;
        assert!(no_fuse.validate().is_err());

        // Disabled configs are never rejected: the knobs are inert.
        let mut off = QosConfig::disabled();
        off.shed_target = SimDuration::ZERO;
        assert!(off.validate().is_ok());
    }
}
