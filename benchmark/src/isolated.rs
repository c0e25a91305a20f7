//! One crate's public API at a time, fed the workload's own population
//! and operations. Each figure is the wall time of a loop divided by its
//! iterations, so clock reads stay out of the measured cost.

use std::hint::black_box;
use std::time::Instant;

use udr_consensus::{ClusterConfig, ConsensusCluster};
use udr_dls::{DataLocationStage, Location};
use udr_ldap::{decode_request, encode_request, Dn, FramedBatch, LdapRequest};
use udr_metrics::Histogram;
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::IsolationLevel;
use udr_model::identity::{Identity, Imsi};
use udr_model::ids::{PartitionId, SeId, SiteId, SubscriberUid};
use udr_model::profile::SubscriberProfile;
use udr_model::qos::PriorityClass;
use udr_model::time::{SimDuration, SimTime};
use udr_qos::QosConfig;
use udr_replication::{AsyncShipper, Enqueue, ShipBatchConfig};
use udr_sim::net::{Network, Topology};
use udr_sim::{LaneClass, PumpConfig, ShardedPump, SimRng};
use udr_storage::{CommitRecord, Engine, TxnId};

use crate::inputs::Inputs;
use crate::stats::{Clock, Metrics};

/// Operations of the workload each replay covers.
const REPLAY_OPS: usize = 50_000;
/// Events per pump round.
const PUMP_EVENTS: usize = 4_096;
/// Writes the settled consensus cluster commits.
const CONSENSUS_WRITES: u64 = 500;

/// Wall nanoseconds of `body` per iteration.
fn ns_per(iters: usize, body: impl FnOnce()) -> f64 {
    let started = Instant::now();
    body();
    started.elapsed().as_nanos() as f64 / iters as f64
}

pub fn run(inputs: &Inputs, seed: u64, m: &mut Metrics) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x150);
    sim(&mut rng, m);
    ldap(inputs, m);
    model(inputs, m);
    m.push(
        "workload.gen_ns",
        inputs.gen_ns_per_sub,
        "ns",
        Clock::Host,
        inputs.subs.len() as u64,
    );
    qos(inputs, m);
    dls(inputs, &mut rng, m);
    storage(inputs, &mut rng, m);
    consensus(seed, m);
    hist(&mut rng, m);
}

fn sim(rng: &mut SimRng, m: &mut Metrics) {
    const ROUNDS: usize = 64;
    let mut pump: ShardedPump<u64> = ShardedPump::new(PumpConfig::single());
    let delays: Vec<u64> = (0..PUMP_EVENTS).map(|_| rng.below(1_000_000)).collect();
    let ns = ns_per(ROUNDS * PUMP_EVENTS, || {
        for _ in 0..ROUNDS {
            for (i, &delay) in delays.iter().enumerate() {
                pump.schedule_in(LaneClass::Local(0), SimDuration(delay), i as u64);
            }
            while let Some(event) = pump.pop() {
                black_box(event);
            }
        }
    });
    m.push(
        "sim.pump.schedule_pop_ns",
        ns,
        "ns",
        Clock::Host,
        (ROUNDS * PUMP_EVENTS) as u64,
    );

    let mut net = Network::new(Topology::multinational(3));
    let pairs: Vec<(SiteId, SiteId)> = (0..REPLAY_OPS)
        .map(|_| (SiteId(rng.below(3) as u32), SiteId(rng.below(3) as u32)))
        .collect();
    let ns = ns_per(pairs.len(), || {
        for &(a, b) in &pairs {
            black_box(net.round_trip(a, b, rng));
        }
    });
    m.push(
        "sim.net.round_trip_ns",
        ns,
        "ns",
        Clock::Host,
        pairs.len() as u64,
    );
}

fn ldap(inputs: &Inputs, m: &mut Metrics) {
    let requests: Vec<LdapRequest> = inputs
        .ops
        .iter()
        .take(REPLAY_OPS)
        .enumerate()
        .map(|(i, op)| LdapRequest {
            message_id: i as u32,
            op: op.ldap.clone(),
        })
        .collect();
    let n = requests.len();
    let mut wire = Vec::with_capacity(n);
    let encode = ns_per(n, || {
        for request in &requests {
            wire.push(encode_request(request));
        }
    });
    let decode = ns_per(n, || {
        for bytes in &wire {
            black_box(decode_request(bytes).expect("round trip"));
        }
    });
    let wire_bytes: usize = wire.iter().map(|b| b.len()).sum();
    m.push("ldap.encode_ns", encode, "ns", Clock::Host, n as u64);
    m.push("ldap.decode_ns", decode, "ns", Clock::Host, n as u64);
    m.push(
        "ldap.wire_bytes_per_op",
        wire_bytes as f64 / n as f64,
        "B",
        Clock::Count,
        n as u64,
    );

    let frames: Vec<FramedBatch> = requests
        .chunks_exact(16)
        .map(|chunk| FramedBatch::new(chunk.to_vec()))
        .collect();
    let framed_ops = frames.len() * 16;
    let mut wire = Vec::with_capacity(frames.len());
    let encode = ns_per(framed_ops, || {
        for frame in &frames {
            wire.push(frame.encode());
        }
    });
    let decode = ns_per(framed_ops, || {
        for bytes in &wire {
            black_box(FramedBatch::decode(bytes).expect("round trip"));
        }
    });
    m.push(
        "ldap.frame16_encode_ns",
        encode,
        "ns",
        Clock::Host,
        framed_ops as u64,
    );
    m.push(
        "ldap.frame16_decode_ns",
        decode,
        "ns",
        Clock::Host,
        framed_ops as u64,
    );
}

fn model(inputs: &Inputs, m: &mut Metrics) {
    let imsis: Vec<Imsi> = inputs
        .ops
        .iter()
        .take(REPLAY_OPS)
        .map(|op| inputs.subs[op.key as usize].ids.imsi)
        .collect();
    let n = imsis.len();
    let dn = ns_per(n, || {
        for &imsi in &imsis {
            black_box(Dn::for_identity(Identity::Imsi(black_box(imsi))));
        }
    });
    m.push("model.dn_build_ns", dn, "ns", Clock::Host, n as u64);
    let strings: Vec<&'static str> = imsis.iter().map(Imsi::as_str).collect();
    let intern = ns_per(n, || {
        for s in &strings {
            black_box(Imsi::new(s).expect("already interned"));
        }
    });
    m.push("model.intern_hit_ns", intern, "ns", Clock::Host, n as u64);
}

/// The admission algorithm proper. The workloads run figure 2's
/// deployment, where admission is disabled and returns at once, so this
/// is the cost a deployment that turns QoS on would add per operation.
fn qos(inputs: &Inputs, m: &mut Metrics) {
    let mut controller = QosConfig::protective().controller();
    let n = inputs.ops.len().min(REPLAY_OPS);
    let ns = ns_per(n, || {
        for i in 0..n {
            let class = PriorityClass::default_for_txn(udr_model::config::TxnClass::FrontEnd);
            black_box(controller.admit(class, SimDuration::from_micros(50), inputs.op_at(i))).ok();
        }
    });
    m.push("qos.admit_ns", ns, "ns", Clock::Host, n as u64);
}

fn dls(inputs: &Inputs, rng: &mut SimRng, m: &mut Metrics) {
    let bindings: Vec<(Identity, Location)> = inputs
        .subs
        .iter()
        .flat_map(|sub| {
            let location = Location {
                uid: SubscriberUid(sub.index),
                partition: PartitionId(sub.home_region),
            };
            sub.ids.iter().map(move |id| (id, location))
        })
        .collect();
    let mut stage = DataLocationStage::provisioned();
    let provision = ns_per(bindings.len(), || {
        for (identity, location) in &bindings {
            stage.provision(identity, *location);
        }
    });
    let lookups: Vec<&Identity> = (0..REPLAY_OPS)
        .map(|_| &bindings[rng.below(bindings.len() as u64) as usize].0)
        .collect();
    let resolve = ns_per(lookups.len(), || {
        for identity in &lookups {
            black_box(stage.resolve(identity, SimTime::ZERO, None));
        }
    });
    m.push(
        "dls.resolve_ns",
        resolve,
        "ns",
        Clock::Host,
        lookups.len() as u64,
    );
    m.push(
        "dls.provision_ns",
        provision,
        "ns",
        Clock::Host,
        bindings.len() as u64,
    );
    m.push(
        "dls.bytes_per_identity",
        stage.approx_bytes() as f64 / stage.len() as f64,
        "B",
        Clock::Count,
        stage.len() as u64,
    );
}

/// Commit the one transaction `write` fills, 10 µs of sim-time after the last.
fn commit(
    engine: &mut Engine,
    now: &mut SimTime,
    write: impl FnOnce(&mut Engine, TxnId),
) -> CommitRecord {
    let txn = engine.begin(IsolationLevel::ReadCommitted);
    write(engine, txn);
    *now += SimDuration::from_micros(10);
    engine
        .commit(txn, *now)
        .expect("commit")
        .expect("non-empty transaction")
}

/// One storage element's share of the population (a third, as in figure 2)
/// in a master engine, mirrored record by record into a slave, then shipped
/// through an [`AsyncShipper`] at the deployment's batch size.
fn storage(inputs: &Inputs, rng: &mut SimRng, m: &mut Metrics) {
    let records = inputs.subs.len() / 3;
    let mut master = Engine::new(SeId(0));
    let mut slave = Engine::new(SeId(1));
    let mut now = SimTime::ZERO;
    for sub in &inputs.subs[..records] {
        let entry = SubscriberProfile::provision(&sub.ids, sub.home_region, [0; 16]).into_entry();
        let record = commit(&mut master, &mut now, |engine, txn| {
            engine
                .put(txn, SubscriberUid(sub.index), entry)
                .expect("fresh uid");
        });
        slave.apply_replicated(&record).expect("in-order record");
    }
    m.push(
        "storage.bytes_per_record",
        master.approx_bytes() as f64 / master.live_records() as f64,
        "B",
        Clock::Count,
        master.live_records() as u64,
    );

    let uids: Vec<SubscriberUid> = (0..REPLAY_OPS)
        .map(|_| SubscriberUid(rng.below(records as u64)))
        .collect();
    let n = uids.len();
    let read_ref = ns_per(n, || {
        for &uid in &uids {
            black_box(master.committed_entry(uid));
        }
    });
    let read_clone = ns_per(n, || {
        for &uid in &uids {
            black_box(master.read_committed(uid));
        }
    });
    m.push("storage.read_ref_ns", read_ref, "ns", Clock::Host, n as u64);
    m.push(
        "storage.read_clone_ns",
        read_clone,
        "ns",
        Clock::Host,
        n as u64,
    );

    let shipped_upto = master.last_lsn();
    let mut log: Vec<CommitRecord> = Vec::with_capacity(n);
    let modify = ns_per(n, || {
        for (i, &uid) in uids.iter().enumerate() {
            let mods = [AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i as u64 + 1))];
            log.push(commit(&mut master, &mut now, |engine, txn| {
                engine.modify(txn, uid, &mods).expect("resident uid");
            }));
        }
    });
    let apply = ns_per(n, || {
        for record in &log {
            slave.apply_replicated(record).expect("in-order record");
        }
    });
    m.push(
        "storage.modify_commit_ns",
        modify,
        "ns",
        Clock::Host,
        n as u64,
    );
    m.push(
        "storage.apply_replicated_ns",
        apply,
        "ns",
        Clock::Host,
        n as u64,
    );

    let started = Instant::now();
    black_box(master.snapshot());
    m.push(
        "storage.snapshot_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
        Clock::Host,
        1,
    );

    let batch = ShipBatchConfig::coalesce(64, SimDuration::from_millis(5));
    let mut shipper = AsyncShipper::new();
    shipper.register_slave(SeId(1), shipped_upto);
    let ship = ns_per(n, || {
        for record in &log {
            match shipper.enqueue(SeId(1), record, &batch) {
                Enqueue::Full => {
                    black_box(shipper.flush_open(
                        SeId(1),
                        record.committed_at,
                        Some(SimDuration::from_micros(50)),
                    ));
                }
                Enqueue::Opened { .. } | Enqueue::Joined => {}
                Enqueue::Refused => panic!("in-order enqueue refused"),
            }
        }
    });
    m.push(
        "replication.enqueue_flush_ns",
        ship,
        "ns",
        Clock::Host,
        n as u64,
    );
}

/// A settled three-node `udr_consensus` cluster committing paced writes:
/// what one Multi-Paxos commit costs the host, outside the pipeline.
fn consensus(seed: u64, m: &mut Metrics) {
    let mut cluster =
        ConsensusCluster::new(Topology::multinational(3), ClusterConfig::default(), seed);
    let mut at = SimTime::ZERO + SimDuration::from_secs(5);
    cluster.run_until(at);
    let leader = cluster
        .current_leader()
        .expect("leadership settles during warm-up");
    let sent_before = cluster.net_stats().attempts;
    let started = Instant::now();
    for i in 0..CONSENSUS_WRITES {
        at += SimDuration::from_millis(20);
        cluster.submit_write_at(at, leader.0, SubscriberUid(i), None);
    }
    let report = cluster.run_until(at + SimDuration::from_secs(1));
    let host_us = started.elapsed().as_secs_f64() * 1e6;
    let committed = report.committed() as f64;
    m.push(
        "consensus.commit_host_us",
        host_us / committed,
        "us",
        Clock::Host,
        committed as u64,
    );
    m.push(
        "consensus.msgs_per_commit",
        (cluster.net_stats().attempts - sent_before) as f64 / committed,
        "1",
        Clock::Count,
        committed as u64,
    );
}

fn hist(rng: &mut SimRng, m: &mut Metrics) {
    let samples: Vec<SimDuration> = (0..REPLAY_OPS)
        .map(|_| SimDuration(rng.below(50_000_000)))
        .collect();
    let mut histogram = Histogram::new();
    let ns = ns_per(samples.len(), || {
        for &sample in &samples {
            histogram.record(sample);
        }
    });
    black_box(histogram.count());
    m.push(
        "metrics.hist_record_ns",
        ns,
        "ns",
        Clock::Host,
        samples.len() as u64,
    );
}
