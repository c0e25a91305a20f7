//! Property tests for the admission-control subsystem.
//!
//! The invariants:
//! 1. a [`TokenBucket`] never admits more than `rate × window + burst`
//!    operations over *any* window, for arbitrary arrival patterns;
//! 2. a starved high-priority class is never shed while a lower class is
//!    admitted — no priority inversion, for arbitrary delays and arrival
//!    orders;
//! 3. one tenant's budget stack never sees another tenant's arrivals.

use proptest::prelude::*;

use udr_model::time::{SimDuration, SimTime};
use udr_qos::{AdmissionController, ClassBuckets, PriorityClass, QosConfig, TokenBucket};

proptest! {
    /// Over any window of the arrival sequence, admitted ops never
    /// exceed `rate × window + burst` (+1 for the token that may have
    /// been whole at the window's opening instant boundary).
    #[test]
    fn bucket_rate_bound_holds_on_every_window(
        rate in 1.0f64..500.0,
        burst in 1.0f64..20.0,
        // Arrival gaps in 100 µs units; bursts of zero-gap arrivals
        // included.
        gaps in prop::collection::vec(0u64..50, 1..300),
    ) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut admitted_at: Vec<SimTime> = Vec::new();
        let mut now = SimTime::ZERO;
        for gap in &gaps {
            now += SimDuration::from_micros(gap * 100);
            if bucket.try_take(now) {
                admitted_at.push(now);
            }
        }
        // Check the bound over every suffix window starting at an
        // admission instant (the binding windows).
        for (i, start) in admitted_at.iter().enumerate() {
            for (j, end) in admitted_at.iter().enumerate().skip(i) {
                let window = end.duration_since(*start).as_secs_f64();
                let count = (j - i + 1) as f64;
                let bound = rate * window + burst;
                // Float slack: refill accounting is f64 arithmetic.
                prop_assert!(
                    count <= bound + 1e-6,
                    "{count} admitted in a {window}s window; bound {bound}"
                );
            }
        }
    }

    /// A stack of five buckets admits no more than their summed budgets
    /// over any window, whatever the mix of classes.
    #[test]
    fn class_stack_respects_every_buckets_budget(
        rates in prop::collection::vec(1.0f64..200.0, 5),
        bursts in prop::collection::vec(1.0f64..10.0, 5),
        arrivals in prop::collection::vec((0u64..40, 0usize..5), 1..300),
    ) {
        let mut stack = ClassBuckets::unlimited();
        for (i, class) in PriorityClass::ALL.iter().enumerate() {
            stack.set(*class, TokenBucket::new(rates[i], bursts[i]));
        }
        let mut admitted = 0u64;
        let mut now = SimTime::ZERO;
        let mut first: Option<SimTime> = None;
        for (gap, class_idx) in &arrivals {
            now += SimDuration::from_micros(gap * 100);
            if stack.admit(PriorityClass::ALL[*class_idx], now) {
                admitted += 1;
                first.get_or_insert(now);
            }
        }
        if let Some(first) = first {
            let window = now.duration_since(first).as_secs_f64();
            let total_rate: f64 = rates.iter().sum();
            let total_burst: f64 = bursts.iter().sum();
            prop_assert!(
                admitted as f64 <= total_rate * window + total_burst + 5.0 + 1e-6,
                "{admitted} admitted over {window}s exceeds the aggregate budget"
            );
        }
    }

    /// No priority inversion, ever: whenever the controller sheds class
    /// `c`, every class `c` outranks is shed under the same conditions.
    #[test]
    fn starved_high_class_is_never_shed_while_lower_admitted(
        // Arrival stream: (gap ms, class, measured queue delay µs). Gaps
        // span 1.5 grace intervals, so episodes both start and end.
        arrivals in prop::collection::vec(
            (0u64..150, 0usize..5, 0u64..20_000),
            1..400,
        ),
    ) {
        let mut controller: AdmissionController = QosConfig::protective().controller();
        let mut now = SimTime::ZERO;
        for (gap, class_idx, delay_us) in &arrivals {
            now += SimDuration::from_millis(*gap);
            let class = PriorityClass::ALL[*class_idx];
            let delay = SimDuration::from_micros(*delay_us);
            // Audit BEFORE the mutating admit: at one instant, a class
            // being refused implies every lower class is refused too.
            let verdicts: Vec<bool> = PriorityClass::ALL
                .iter()
                .map(|c| controller.would_admit(*c, delay, now))
                .collect();
            for hi in 0..verdicts.len() {
                for lo in hi + 1..verdicts.len() {
                    prop_assert!(
                        verdicts[hi] || !verdicts[lo],
                        "inversion: {} shed while {} admitted (delay {delay_us} µs)",
                        PriorityClass::ALL[hi],
                        PriorityClass::ALL[lo],
                    );
                }
            }
            // The real decision must agree with its own peek.
            let decided = controller.admit(class, delay, now).is_ok();
            prop_assert_eq!(
                decided, verdicts[*class_idx],
                "would_admit disagreed with admit for {}", class
            );
        }
    }

    /// Per-tenant budget stacks never lend across tenants: tenant B's
    /// admissions are byte-identical whether or not tenant A hammers its
    /// own stack in between.
    #[test]
    fn tenant_buckets_never_lend_across_tenants(
        rates in prop::collection::vec(1.0f64..200.0, 5),
        bursts in prop::collection::vec(1.0f64..10.0, 5),
        // Arrival stream: (gap 100µs units, class, which tenant).
        arrivals in prop::collection::vec(
            (0u64..40, 0usize..5, any::<bool>()),
            1..300,
        ),
    ) {
        let build = || {
            let mut stack = ClassBuckets::unlimited();
            for (i, class) in PriorityClass::ALL.iter().enumerate() {
                stack.set(*class, TokenBucket::new(rates[i], bursts[i]));
            }
            stack
        };
        // Interleaved run: two tenants, each with its own stack.
        let mut stack_a = build();
        let mut stack_b = build();
        let mut b_interleaved = Vec::new();
        let mut now = SimTime::ZERO;
        for (gap, class_idx, is_b) in &arrivals {
            now += SimDuration::from_micros(gap * 100);
            let class = PriorityClass::ALL[*class_idx];
            if *is_b {
                b_interleaved.push(stack_b.admit(class, now));
            } else {
                stack_a.admit(class, now);
            }
        }
        // Solo run: tenant B alone sees the identical verdict sequence.
        let mut solo_b = build();
        let mut b_solo = Vec::new();
        let mut now = SimTime::ZERO;
        for (gap, class_idx, is_b) in &arrivals {
            now += SimDuration::from_micros(gap * 100);
            if *is_b {
                b_solo.push(solo_b.admit(PriorityClass::ALL[*class_idx], now));
            }
        }
        prop_assert_eq!(b_solo, b_interleaved, "tenant A's arrivals leaked into B's budget");
    }
}
