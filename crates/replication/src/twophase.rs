//! Two-phase commit across storage elements — the protocol §3.2 *rejects*.
//!
//! "ACID properties are guaranteed for transactions running on the same
//! storage element only… This prevents from having to run consensus
//! protocols like e.g. 2-Phase Commit (2PC) across geographically disperse
//! locations, which may be expensive." This module implements classic
//! presumed-abort 2PC over the simulated network so the ablation experiment
//! can measure exactly how expensive, and what partitions do to it
//! (in-doubt blocking).

use udr_model::ids::SeId;
use udr_model::time::SimDuration;

/// Outcome of one distributed transaction attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoPcOutcome {
    /// All participants prepared and committed.
    Committed {
        /// Coordinator-observed latency: prepare round + commit round.
        latency: SimDuration,
    },
    /// At least one participant voted no / was unreachable in phase 1;
    /// everyone reachable was rolled back.
    Aborted {
        /// Latency until the abort decision (the prepare round).
        latency: SimDuration,
        /// The first participant that caused the abort.
        culprit: SeId,
    },
    /// Phase 2 could not reach some prepared participants: they stay
    /// **in doubt**, holding their locks until the coordinator reconnects —
    /// the blocking window that makes 2PC dangerous across a backbone.
    InDoubt {
        /// Latency the coordinator observed before giving up.
        latency: SimDuration,
        /// Participants stuck holding locks.
        blocked: Vec<SeId>,
    },
}

/// One participant's connectivity for a round, as sampled by the caller:
/// `Some(rtt)` when reachable, `None` when not.
type RoundTrip = Option<SimDuration>;

/// Evaluate a two-phase commit given per-participant round trips for the
/// prepare phase and the commit phase. `votes_yes[i]` is participant `i`'s
/// vote when reachable (a participant with a local conflict votes no).
///
/// Timing model: both phases fan out in parallel, so each phase costs the
/// slowest reachable participant's round trip; the coordinator decides
/// after `timeout` for unreachable ones.
pub fn two_phase_commit(
    participants: &[SeId],
    prepare_rtts: &[RoundTrip],
    commit_rtts: &[RoundTrip],
    votes_yes: &[bool],
    timeout: SimDuration,
) -> TwoPcOutcome {
    assert_eq!(participants.len(), prepare_rtts.len());
    assert_eq!(participants.len(), commit_rtts.len());
    assert_eq!(participants.len(), votes_yes.len());
    assert!(!participants.is_empty());

    // ---- phase 1: prepare ---------------------------------------------------
    let mut prepare_latency = SimDuration::ZERO;
    for (i, rtt) in prepare_rtts.iter().enumerate() {
        match rtt {
            Some(d) => {
                prepare_latency = prepare_latency.max(*d);
                if !votes_yes[i] {
                    // Presumed abort: a no-vote ends the protocol after the
                    // full prepare round (other yes-voters must be told).
                    return TwoPcOutcome::Aborted {
                        latency: prepare_latency.max(*d),
                        culprit: participants[i],
                    };
                }
            }
            None => {
                // Unreachable in phase 1: coordinator waits its timeout,
                // then aborts. Nobody is in doubt (nothing was promised to
                // commit — presumed abort resolves them).
                return TwoPcOutcome::Aborted {
                    latency: timeout,
                    culprit: participants[i],
                };
            }
        }
    }

    // ---- phase 2: commit ----------------------------------------------------
    let mut commit_latency = SimDuration::ZERO;
    let mut blocked = Vec::new();
    for (i, rtt) in commit_rtts.iter().enumerate() {
        match rtt {
            Some(d) => commit_latency = commit_latency.max(*d),
            None => blocked.push(participants[i]),
        }
    }
    if blocked.is_empty() {
        TwoPcOutcome::Committed {
            latency: prepare_latency + commit_latency,
        }
    } else {
        // Prepared participants that cannot hear the decision hold their
        // write locks until reconnection: the classic 2PC blocking hazard.
        TwoPcOutcome::InDoubt {
            latency: prepare_latency + timeout,
            blocked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    const TIMEOUT: SimDuration = SimDuration::from_millis(500);

    #[test]
    fn all_yes_commits_with_two_rounds() {
        let parts = [SeId(0), SeId(1)];
        let out = two_phase_commit(
            &parts,
            &[Some(ms(1)), Some(ms(30))],
            &[Some(ms(1)), Some(ms(28))],
            &[true, true],
            TIMEOUT,
        );
        assert_eq!(out, TwoPcOutcome::Committed { latency: ms(58) });
    }

    #[test]
    fn single_participant_is_cheap() {
        let out = two_phase_commit(&[SeId(0)], &[Some(ms(1))], &[Some(ms(1))], &[true], TIMEOUT);
        assert_eq!(out, TwoPcOutcome::Committed { latency: ms(2) });
    }

    #[test]
    fn no_vote_aborts() {
        let parts = [SeId(0), SeId(1)];
        let out = two_phase_commit(
            &parts,
            &[Some(ms(1)), Some(ms(30))],
            &[Some(ms(1)), Some(ms(30))],
            &[true, false],
            TIMEOUT,
        );
        match out {
            TwoPcOutcome::Aborted { culprit, .. } => assert_eq!(culprit, SeId(1)),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_in_prepare_aborts_after_timeout() {
        let parts = [SeId(0), SeId(1)];
        let out = two_phase_commit(
            &parts,
            &[Some(ms(1)), None],
            &[Some(ms(1)), None],
            &[true, true],
            TIMEOUT,
        );
        assert_eq!(
            out,
            TwoPcOutcome::Aborted {
                latency: TIMEOUT,
                culprit: SeId(1)
            }
        );
    }

    #[test]
    fn unreachable_in_commit_leaves_participants_in_doubt() {
        let parts = [SeId(0), SeId(1), SeId(2)];
        let out = two_phase_commit(
            &parts,
            &[Some(ms(1)), Some(ms(30)), Some(ms(30))],
            &[Some(ms(1)), None, Some(ms(30))],
            &[true, true, true],
            TIMEOUT,
        );
        match out {
            TwoPcOutcome::InDoubt { blocked, latency } => {
                assert_eq!(blocked, vec![SeId(1)]);
                assert_eq!(latency, ms(30) + TIMEOUT);
            }
            other => panic!("expected in-doubt, got {other:?}"),
        }
    }
}
