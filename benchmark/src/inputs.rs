//! The four workloads and the inputs each one feeds the library.
//!
//! Everything here is a pure function of `(workload, --seed, --seconds)`:
//! the library only ever sees the generated subscribers and operations.

use std::time::Instant;

use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::ReplicationMode;
use udr_model::identity::Identity;
use udr_model::ids::SiteId;
use udr_model::time::{SimDuration, SimTime};
use udr_sim::SimRng;
use udr_workload::{PopulationBuilder, Subscriber};

/// Sim-time gap between consecutive operations (e23's pacing): the open
/// loop on the simulated clock.
pub const OP_GAP: SimDuration = SimDuration::from_micros(500);
/// Sim-time gap between consecutive provisioning operations.
pub const PROVISION_GAP: SimDuration = SimDuration::from_millis(2);
/// Sim-time left for replication to settle between set-up and the first
/// measured operation, and again before the read-back check.
pub const SETTLE: SimDuration = SimDuration::from_secs(5);

/// One named workload.
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (the one-liner `BENCHMARK.json` carries).
    pub why: &'static str,
    pub replication: ReplicationMode,
    /// Share of `Modify` among the operations; the rest are `Search`.
    pub modify_share: f64,
    pub population: u64,
    /// Identical repetitions per untraced run, each a fresh deployment fed
    /// the same inputs. Odd, so that the median over repetitions is one of
    /// the readings.
    pub reps: usize,
    /// Whether the traced run adds a repetition with the library's flight
    /// recorder on, to price it.
    pub recorder_rep: bool,
    /// Operations this box completes per second of `--seconds`, rounded
    /// down: it fixes the operation count so that a run does the same work
    /// on every machine and the measured phase lasts about `--seconds` here.
    pub nominal_ops_per_s: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fe_read",
        why: "The paper's front-end class: 100% Search over 50k subscribers, async master/slave; \
              access, location, storage-read and the idle pump do the work, shipping and consensus none",
        replication: ReplicationMode::AsyncMasterSlave,
        modify_share: 0.0,
        population: 50_000,
        reps: 3,
        recorder_rep: false,
        nominal_ops_per_s: 80_000,
    },
    Spec {
        name: "ps_modify",
        why: "The provisioning class: 100% Modify over 50k subscribers; engine commit, log append, \
              batched shipping and slave apply dominate, the read path does little",
        replication: ReplicationMode::AsyncMasterSlave,
        modify_share: 1.0,
        population: 50_000,
        reps: 3,
        recorder_rep: false,
        nominal_ops_per_s: 30_000,
    },
    Spec {
        name: "mixed_80_20",
        why: "e23's 80/20 Search/Modify mix: reads beside writes, so a write-path gain that taxes \
              reads shows; the only workload with stale reads",
        replication: ReplicationMode::AsyncMasterSlave,
        modify_share: 0.2,
        population: 50_000,
        reps: 3,
        recorder_rep: true,
        nominal_ops_per_s: 62_000,
    },
    Spec {
        name: "consensus_80_20",
        why: "The CP cell: Consensus{n:3}, 80/20 over 2k subscribers; Multi-Paxos inside route and \
              read-index reads, bypassed entirely by the other three",
        replication: ReplicationMode::Consensus { n: 3 },
        modify_share: 0.2,
        population: 2_000,
        // Its p99 sits in the last twentieth of the stream, where the write
        // cost has grown the most: a window so short that three readings of
        // this box's state spread too far. Its repetitions are the cheapest.
        reps: 5,
        recorder_rep: false,
        nominal_ops_per_s: 4_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated client operation.
pub struct Op {
    pub ldap: LdapOp,
    /// Index of the addressed subscriber in [`Inputs::subs`].
    pub key: u32,
    pub site: SiteId,
    /// The `OdbMask` a `Modify` sets (its 1-based position in the stream,
    /// so later writes carry larger values); 0 for a `Search`.
    pub value: u64,
}

impl Op {
    pub fn is_write(&self) -> bool {
        self.value != 0
    }
}

/// Everything a repetition consumes.
pub struct Inputs {
    pub subs: Vec<Subscriber>,
    pub ops: Vec<Op>,
    /// Host time spent generating `subs` (fresh interning), per subscriber.
    pub gen_ns_per_sub: f64,
}

impl Inputs {
    /// Operations per repetition: the run's `--seconds` spread over
    /// [`Spec::reps`] repetitions at the workload's nominal rate.
    pub fn generate(spec: &Spec, seed: u64, seconds: u64) -> Inputs {
        let mut pop_rng = SimRng::seed_from_u64(seed ^ 0x717e);
        let started = Instant::now();
        let subs = PopulationBuilder::new(3).build(spec.population, &mut pop_rng);
        let gen_ns_per_sub = started.elapsed().as_nanos() as f64 / subs.len() as f64;

        let n_ops = (spec.nominal_ops_per_s * seconds / spec.reps as u64).max(1);
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0b5);
        // Exactly the workload's share of writes, at shuffled positions: a
        // coin toss per operation lets the write count wander by a percent
        // or two between seeds, and every cost that grows with history
        // (consensus most of all) wanders with it.
        let n_writes = (n_ops as f64 * spec.modify_share).round() as usize;
        let mut is_write: Vec<bool> = (0..n_ops as usize).map(|i| i < n_writes).collect();
        for i in (1..is_write.len()).rev() {
            is_write.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let ops = (0..n_ops)
            .map(|i| {
                let key = rng.below(spec.population) as u32;
                let site = SiteId(rng.below(3) as u32);
                let dn = Dn::for_identity(Identity::Imsi(subs[key as usize].ids.imsi));
                if is_write[i as usize] {
                    let value = i + 1;
                    Op {
                        ldap: LdapOp::Modify {
                            dn,
                            mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(value))],
                        },
                        key,
                        site,
                        value,
                    }
                } else {
                    Op {
                        ldap: LdapOp::Search {
                            base: dn,
                            attrs: vec![AttrId::OdbMask],
                        },
                        key,
                        site,
                        value: 0,
                    }
                }
            })
            .collect();
        Inputs {
            subs,
            ops,
            gen_ns_per_sub,
        }
    }

    /// When subscriber `i` is provisioned.
    pub fn provision_at(i: usize) -> SimTime {
        SimTime::ZERO + SETTLE + PROVISION_GAP * i as u64
    }

    /// Arrival instant of the first measured operation.
    pub fn first_op_at(&self) -> SimTime {
        Self::provision_at(self.subs.len()) + SETTLE
    }

    /// Arrival instant of operation `i`.
    pub fn op_at(&self, i: usize) -> SimTime {
        self.first_op_at() + OP_GAP * i as u64
    }
}
