//! The per-cluster admission controller: CoDel-style queue-delay shedding
//! and the sustained-overload degradation signal.

use udr_model::qos::{PriorityClass, ShedReason};
use udr_model::time::SimTime;

use crate::config::{QosConfig, DEGRADE_AFTER, SHED_INTERVAL, SHED_TARGET};

/// One cluster's admission controller.
///
/// Every operation entering the access stage presents its priority class
/// and the queueing delay the serving LDAP station would impose. The
/// controller decides admit/shed CoDel-style: while the measured delay
/// stays at or below the lowest class's target the queue is healthy and
/// all state clears. Once it exceeds a class's own target *and* has been
/// above the base target for longer than the grace interval
/// ([`SHED_INTERVAL`]), that class is shed ([`ShedReason::QueueDelay`]).
/// Targets grow strictly up the priority order, so the lowest classes are
/// always cut first and a class is never shed at a delay a lower class
/// would survive. Rate budgets are per tenant
/// ([`ClassBuckets`](crate::ClassBuckets)), spent before this controller
/// is asked.
///
/// Sustained shedding (longer than [`DEGRADE_AFTER`]) raises the
/// [`AdmissionController::degraded`] signal, which the replication stage
/// uses to downgrade guarded read policies to nearest-copy — trading
/// consistency for latency *under load*, the PACELC "else" leg applied
/// dynamically.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    enabled: bool,
    /// Since when the measured delay has been exceeding the base
    /// (lowest-class) target; `None` = queue healthy.
    above_since: Option<SimTime>,
    /// Since when the measured delay has been at/below the base target —
    /// the exit hysteresis: one low sample (an op that raced ahead of
    /// the backlog, a momentary dip) must not clear an overload episode;
    /// the queue has to stay drained for a full grace interval.
    below_since: Option<SimTime>,
    /// Since when the controller has actually been shedding.
    shedding_since: Option<SimTime>,
    /// Instant of the last observed sample (admitted or shed). Seeds
    /// `below_since` so that an idle gap — no traffic at all — counts as
    /// drained time: the first low sample after a long gap clears the
    /// episode instead of restarting the hysteresis clock from scratch.
    last_sample: Option<SimTime>,
}

impl AdmissionController {
    /// A controller for one cluster under `cfg`.
    pub fn new(cfg: QosConfig) -> Self {
        AdmissionController {
            enabled: cfg.enabled,
            above_since: None,
            below_since: None,
            shedding_since: None,
            last_sample: None,
        }
    }

    /// Decide admission for one `class` operation arriving at `now` that
    /// would wait `queue_delay` at the serving station.
    pub fn admit(
        &mut self,
        class: PriorityClass,
        queue_delay: udr_model::time::SimDuration,
        now: SimTime,
    ) -> Result<(), ShedReason> {
        if !self.enabled {
            return Ok(());
        }
        let prev_sample = self.last_sample.replace(now);
        if queue_delay <= SHED_TARGET {
            // Low sample: the overload episode only ends once the queue
            // stays drained for a full grace interval (exit hysteresis —
            // a lone op that raced ahead of the backlog must not reset
            // the episode). The drain clock seeds from the *previous*
            // sample instant: nothing was queued across an idle gap, so
            // the gap itself counts as drained time and the first low
            // sample after it can clear the episode outright.
            let below = *self
                .below_since
                .get_or_insert_with(|| prev_sample.unwrap_or(now));
            if now.duration_since(below) >= SHED_INTERVAL {
                self.above_since = None;
                self.shedding_since = None;
            }
        } else {
            self.below_since = None;
            let since = *self.above_since.get_or_insert(now);
            let in_grace = now.duration_since(since) < SHED_INTERVAL;
            if queue_delay > QosConfig::class_target(class) && !in_grace {
                self.shedding_since.get_or_insert(now);
                return Err(ShedReason::QueueDelay);
            }
        }
        Ok(())
    }

    /// Whether `class` would currently be admitted, without advancing any
    /// state — the priority-inversion audit: after shedding class `c`, no
    /// class `c` outranks may answer `true` here.
    pub fn would_admit(
        &self,
        class: PriorityClass,
        queue_delay: udr_model::time::SimDuration,
        now: SimTime,
    ) -> bool {
        if !self.enabled {
            return true;
        }
        if queue_delay <= SHED_TARGET || queue_delay <= QosConfig::class_target(class) {
            return true;
        }
        match self.above_since {
            None => true,
            Some(since) => now.duration_since(since) < SHED_INTERVAL,
        }
    }

    /// Whether sustained overload has reached the point where guarded
    /// read policies downgrade to nearest-copy: the controller has been
    /// shedding for at least [`DEGRADE_AFTER`].
    pub fn degraded(&self, now: SimTime) -> bool {
        self.enabled
            && self
                .shedding_since
                .is_some_and(|since| now.duration_since(since) >= DEGRADE_AFTER)
    }

    /// Compact label of the controller's overload state at `now` —
    /// `"healthy"`, `"shedding"` or `"degraded"`. Pure inspection (a
    /// deterministic function of the admit history), used to annotate
    /// trace records without exposing the internal clocks.
    pub fn pressure_label(&self, now: SimTime) -> &'static str {
        if self.degraded(now) {
            "degraded"
        } else if self.shedding_since.is_some() {
            "shedding"
        } else {
            "healthy"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// A queue delay of `n` base targets ([`SHED_TARGET`]).
    fn targets(n: u64) -> SimDuration {
        SHED_TARGET * n
    }

    /// A protective controller: a 500 µs base target, a 100 ms grace and a
    /// 2 s degradation delay.
    fn controller() -> AdmissionController {
        QosConfig::protective().controller()
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let mut c = QosConfig::disabled().controller();
        for class in PriorityClass::ALL {
            assert!(c.admit(class, ms(10_000), at(0)).is_ok());
        }
        assert!(!c.degraded(at(1_000_000)));
    }

    #[test]
    fn healthy_queue_admits_all_classes() {
        let mut c = controller();
        for class in PriorityClass::ALL {
            assert!(c.admit(class, targets(1), at(0)).is_ok());
        }
        assert!(c.shedding_since.is_none());
    }

    #[test]
    fn sustained_delay_sheds_lowest_classes_first() {
        let mut c = controller();
        // 3 targets: above provisioning (1) and query (2), below
        // registration (4). Grace absorbs the first 100 ms.
        assert!(c
            .admit(PriorityClass::Provisioning, targets(3), at(0))
            .is_ok());
        assert!(c
            .admit(PriorityClass::Provisioning, targets(3), at(50))
            .is_ok());
        // Past the grace interval: provisioning and query shed,
        // registration and above still admitted.
        assert_eq!(
            c.admit(PriorityClass::Provisioning, targets(3), at(120)),
            Err(ShedReason::QueueDelay)
        );
        assert_eq!(
            c.admit(PriorityClass::Query, targets(3), at(120)),
            Err(ShedReason::QueueDelay)
        );
        assert!(c
            .admit(PriorityClass::Registration, targets(3), at(120))
            .is_ok());
        assert!(c
            .admit(PriorityClass::CallSetup, targets(3), at(120))
            .is_ok());
        assert!(c
            .admit(PriorityClass::Emergency, targets(3), at(120))
            .is_ok());
        assert!(c.shedding_since.is_some());
        // One low sample is admitted but does NOT end the episode (exit
        // hysteresis): the queue must stay drained for a grace interval.
        assert!(c
            .admit(PriorityClass::Provisioning, targets(1), at(200))
            .is_ok());
        assert!(c.shedding_since.is_some());
        assert!(c
            .admit(PriorityClass::Provisioning, targets(1), at(310))
            .is_ok());
        assert!(
            c.shedding_since.is_none(),
            "110 ms of drained queue clears the episode"
        );
    }

    #[test]
    fn lone_low_sample_does_not_reset_the_episode() {
        let mut c = controller();
        let _ = c.admit(PriorityClass::Provisioning, targets(8), at(0));
        assert_eq!(
            c.admit(PriorityClass::Provisioning, targets(8), at(120)),
            Err(ShedReason::QueueDelay)
        );
        // An op that raced ahead of the backlog sees a momentary 0 —
        // overload continues around it.
        assert!(c.admit(PriorityClass::Provisioning, ms(0), at(130)).is_ok());
        assert_eq!(
            c.admit(PriorityClass::Provisioning, targets(8), at(140)),
            Err(ShedReason::QueueDelay),
            "the episode must survive a lone low sample"
        );
        assert!(c.shedding_since.is_some());
    }

    #[test]
    fn no_priority_inversion_across_the_delay_sweep() {
        let mut c = controller();
        // Drive the controller into shedding.
        let _ = c.admit(PriorityClass::Provisioning, targets(20), at(0));
        for n in [1u64, 2, 3, 5, 9, 17, 33] {
            let now = at(500 + 10 * n);
            for (hi_idx, hi) in PriorityClass::ALL.iter().enumerate() {
                if !c.would_admit(*hi, targets(n), now) {
                    for lo in &PriorityClass::ALL[hi_idx + 1..] {
                        assert!(
                            !c.would_admit(*lo, targets(n), now),
                            "{lo} admitted at {n} targets while {hi} shed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degradation_needs_sustained_shedding() {
        let mut c = controller();
        let _ = c.admit(PriorityClass::Provisioning, targets(20), at(0));
        // Shedding starts once the grace interval elapses.
        assert_eq!(
            c.admit(PriorityClass::Provisioning, targets(20), at(150)),
            Err(ShedReason::QueueDelay)
        );
        assert!(!c.degraded(at(160)), "degradation has its own fuse");
        let fused = at(150) + DEGRADE_AFTER;
        assert!(c.degraded(fused + ms(50)), "sustained shedding degrades");
        // Keep traffic continuous so the drain clock starts at the last
        // overloaded sample: a sustained drain (low samples spanning the
        // grace interval) then clears the degradation too.
        let _ = c.admit(PriorityClass::Provisioning, targets(20), fused + ms(100));
        assert!(c
            .admit(PriorityClass::Provisioning, ms(0), fused + ms(150))
            .is_ok());
        assert!(c.degraded(fused + ms(160)), "one low sample is not a drain");
        assert!(c
            .admit(PriorityClass::Provisioning, ms(0), fused + ms(300))
            .is_ok());
        assert!(!c.degraded(fused + ms(310)));
    }

    #[test]
    fn idle_gap_counts_as_drained_time() {
        let mut c = controller();
        // Drive the controller into shedding, then go completely idle.
        let _ = c.admit(PriorityClass::Provisioning, targets(20), at(0));
        assert_eq!(
            c.admit(PriorityClass::Provisioning, targets(20), at(120)),
            Err(ShedReason::QueueDelay)
        );
        assert!(c.shedding_since.is_some());
        // Nothing was queued for 5 s — the first low sample after the gap
        // proves the queue drained long ago and ends the episode
        // immediately, instead of demanding another full grace interval
        // of post-gap traffic.
        assert!(c
            .admit(PriorityClass::Provisioning, ms(0), at(5_120))
            .is_ok());
        assert!(
            c.shedding_since.is_none(),
            "idle gap must clear the episode"
        );
        assert!(!c.degraded(at(5_120)));
    }
}
