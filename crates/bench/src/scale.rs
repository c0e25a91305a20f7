//! The million-subscriber scale campaign behind `e23_scale_campaign`.
//!
//! §2.1 sizes a UDR at tens of millions of subscribers; the simulator's
//! hot paths (identity interning, the columnar record store, batched log
//! shipping, the full request pipeline) must hold up at that population,
//! not just at the few-thousand scale the CAP experiments drive. This
//! module stages a configurable population through each layer, measuring
//! sustained wall-clock throughput, per-stage latency percentiles and
//! peak RSS, and returning a deterministic digest so small-N replays can
//! assert reproducibility.
//!
//! The population is *streamed* — subscribers are generated, provisioned
//! into the sharded stores and dropped one at a time, so the working set
//! is the stores themselves, never a materialised `Vec` of a million
//! subscriber structs.

use std::time::Instant;

use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{IsolationLevel, ReadPolicy, ReplicationMode, TxnClass};
use udr_model::identity::Identity;
use udr_model::ids::{SeId, SiteId, SubscriberUid};
use udr_model::profile::SubscriberProfile;
use udr_model::time::{SimDuration, SimTime};
use udr_model::IdentityInterner;
use udr_replication::{AsyncShipper, Enqueue, ShipBatchConfig};
use udr_sim::SimRng;
use udr_storage::{Engine, Lsn};
use udr_trace::{TraceConfig, TraceExport};
use udr_workload::PopulationBuilder;

use crate::harness::PsRetry;

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Distinct subscribers to hold in-store (the headline number).
    pub subscribers: u64,
    /// Store shards (independent engines) the population spreads over.
    pub shards: usize,
    /// Random point reads driven against the stores.
    pub reads: u64,
    /// Full-pipeline operations driven through a figure-2 deployment.
    pub pipeline_ops: u64,
    /// Shipping coalescing used by the ship stage and the pipeline stage.
    pub ship_batch: ShipBatchConfig,
    /// RNG seed: same seed ⇒ identical digest.
    pub seed: u64,
    /// Tracing for the pipeline stage's deployment (the other stages
    /// run outside a `Udr`). Disabled by default; the campaign digest
    /// excludes the trace either way.
    pub trace: TraceConfig,
}

impl ScaleConfig {
    /// The full campaign: one million subscribers.
    pub fn full() -> Self {
        ScaleConfig {
            subscribers: 1_000_000,
            shards: 8,
            reads: 1_000_000,
            pipeline_ops: 20_000,
            ship_batch: ShipBatchConfig::coalesce(64, SimDuration::from_millis(5)),
            seed: 23,
            trace: TraceConfig::disabled(),
        }
    }

    /// A small-N variant (CI smoke, determinism replays): the full
    /// campaign's pipeline stage over a smaller population.
    pub fn small(subscribers: u64) -> Self {
        ScaleConfig {
            subscribers,
            reads: subscribers,
            ..ScaleConfig::full()
        }
    }
}

/// Wall-clock measurements for one campaign stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage label.
    pub stage: &'static str,
    /// Items processed (records, reads, ops…).
    pub items: u64,
    /// Wall-clock seconds for the whole stage.
    pub wall_s: f64,
    /// Sustained items per wall second.
    pub per_sec: f64,
    /// p50 of the sampled per-item wall latency, nanoseconds.
    pub p50_ns: u64,
    /// p99 of the sampled per-item wall latency, nanoseconds.
    pub p99_ns: u64,
}

/// The campaign's outcome: per-stage stats plus the headline gauges.
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// Per-stage throughput and latency.
    pub stages: Vec<StageStats>,
    /// Live records held across all shards after ingest.
    pub records_in_store: u64,
    /// Approximate bytes across all shard stores.
    pub store_bytes: u64,
    /// Interner symbols after the campaign.
    pub interned_symbols: u64,
    /// Interner bytes (strings + tables).
    pub interner_bytes: u64,
    /// Records shipped by the batched-shipping stage.
    pub shipped_records: u64,
    /// Coalesced batches the shipping stage delivered.
    pub shipped_batches: u64,
    /// Provisioning attempts the pipeline stage retried after a retryable
    /// failure (a timeout on the lossy backbone).
    pub pipeline_retries: u64,
    /// Snapshot bytes of shard 0 ([`EngineSnapshot::approx_bytes`]).
    ///
    /// [`EngineSnapshot::approx_bytes`]: udr_storage::EngineSnapshot::approx_bytes
    pub image_bytes: u64,
    /// Peak RSS of the process (kB, from `/proc/self/status`; 0 when
    /// unavailable).
    pub peak_rss_kb: u64,
    /// Seed-stable digest over the final store contents and shipping
    /// counters (excludes every wall-clock measurement and the trace).
    pub digest: u64,
    /// Trace export of the pipeline stage when [`ScaleConfig::trace`]
    /// is enabled; `None` otherwise.
    pub trace: Option<TraceExport>,
}

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`), or 0
/// where procfs is unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct StageTimer {
    stage: &'static str,
    started: Instant,
    samples: Vec<u64>,
    stride: u64,
    seen: u64,
}

impl StageTimer {
    fn new(stage: &'static str, expected: u64) -> Self {
        // Sample at most ~100k per-item latencies per stage.
        let stride = (expected / 100_000).max(1);
        StageTimer {
            stage,
            started: Instant::now(),
            samples: Vec::with_capacity((expected / stride).min(100_000) as usize + 1),
            stride,
            seen: 0,
        }
    }

    /// Time one item when it falls on the sampling stride.
    fn item<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.seen += 1;
        if self.seen.is_multiple_of(self.stride) {
            let t0 = Instant::now();
            let out = f();
            self.samples.push(t0.elapsed().as_nanos() as u64);
            out
        } else {
            f()
        }
    }

    fn finish(mut self, items: u64) -> StageStats {
        let wall_s = self.started.elapsed().as_secs_f64();
        self.samples.sort_unstable();
        StageStats {
            stage: self.stage,
            items,
            wall_s,
            per_sec: if wall_s > 0.0 {
                items as f64 / wall_s
            } else {
                0.0
            },
            p50_ns: percentile(&self.samples, 50.0),
            p99_ns: percentile(&self.samples, 99.0),
        }
    }
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Run the campaign. Deterministic for a fixed config: the returned
/// [`ScaleOutcome::digest`] is a pure function of `cfg`.
pub fn run(cfg: &ScaleConfig) -> ScaleOutcome {
    let mut stages = Vec::new();
    let shards = cfg.shards.max(1);
    let builder = PopulationBuilder::new(3);

    // -- Stage 1+2: stream identities straight into the sharded stores ----
    // Generation (interning) and ingest are fused so no subscriber vector
    // is ever materialised; the ingest timer brackets the commit only.
    let mut engines: Vec<Engine> = (0..shards).map(|i| Engine::new(SeId(i as u32))).collect();
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut gen_timer = StageTimer::new("intern", cfg.subscribers);
    let mut ingest_ns = Vec::new();
    let ingest_stride = (cfg.subscribers / 100_000).max(1);
    let ingest_started = Instant::now();
    {
        let mut stream = builder.stream(cfg.subscribers, &mut rng);
        let mut i = 0u64;
        while let Some(sub) = gen_timer.item(|| stream.next()) {
            let shard = (sub.index % shards as u64) as usize;
            let engine = &mut engines[shard];
            let mut ki = [0u8; 16];
            ki[..8].copy_from_slice(&sub.index.to_be_bytes());
            let profile = SubscriberProfile::provision(&sub.ids, sub.home_region, ki);
            let commit = |engine: &mut Engine| {
                let txn = engine.begin(IsolationLevel::ReadCommitted);
                engine
                    .put(txn, SubscriberUid(sub.index), profile.into_entry())
                    .expect("fresh uid");
                engine
                    .commit(txn, SimTime(sub.index))
                    .expect("commit")
                    .expect("non-empty txn");
            };
            if i.is_multiple_of(ingest_stride) {
                let t0 = Instant::now();
                commit(engine);
                ingest_ns.push(t0.elapsed().as_nanos() as u64);
            } else {
                commit(engine);
            }
            // Keep every shard's log bounded except shard 0, whose full
            // log feeds the shipping stage; without this the commit log
            // would shadow the whole store in RAM.
            if shard != 0 && engine.last_lsn().raw().is_multiple_of(4096) {
                let upto = engine.last_lsn();
                engine.truncate_log(upto);
            }
            i += 1;
        }
    }
    let ingest_wall = ingest_started.elapsed().as_secs_f64();
    stages.push(gen_timer.finish(cfg.subscribers));
    ingest_ns.sort_unstable();
    stages.push(StageStats {
        stage: "ingest",
        items: cfg.subscribers,
        wall_s: ingest_wall,
        per_sec: if ingest_wall > 0.0 {
            cfg.subscribers as f64 / ingest_wall
        } else {
            0.0
        },
        p50_ns: percentile(&ingest_ns, 50.0),
        p99_ns: percentile(&ingest_ns, 99.0),
    });

    let records_in_store: u64 = engines.iter().map(|e| e.live_records() as u64).sum();
    let store_bytes: u64 = engines.iter().map(|e| e.approx_bytes() as u64).sum();

    // -- Stage 3: random zero-copy point reads ----------------------------
    let mut read_rng = SimRng::seed_from_u64(cfg.seed ^ 0x5ca1e);
    let mut read_timer = StageTimer::new("read", cfg.reads);
    let mut hits = 0u64;
    for _ in 0..cfg.reads {
        let uid = read_rng.below(cfg.subscribers.max(1));
        let shard = (uid % shards as u64) as usize;
        let found = read_timer.item(|| {
            engines[shard]
                .committed_entry(SubscriberUid(uid))
                .map(|e| e.len())
        });
        if found.is_some() {
            hits += 1;
        }
    }
    assert_eq!(hits, cfg.reads, "every sampled uid must be resident");
    stages.push(read_timer.finish(cfg.reads));

    // -- Stage 4: snapshot shard 0 (the image a seed or a disk keeps) -------
    let image_records = engines[0].store().len() as u64;
    let mut image_timer = StageTimer::new("image", 1);
    let image = image_timer.item(|| engines[0].snapshot());
    assert_eq!(image.records.len() as u64, image_records);
    let image_bytes = image.approx_bytes() as u64;
    // Spot-check zero-copy: the snapshot shares the store's payloads.
    if let Some((uid, version)) = image.records.last() {
        let live = engines[0].committed_entry(*uid).expect("resident");
        assert!(version.entry.as_ref().is_some_and(|e| e.same_handle(live)));
    }
    stages.push(image_timer.finish(image_records));

    // -- Stage 5: batched log shipping of shard 0 to a fresh slave --------
    let mut slave = Engine::new(SeId(100));
    let mut shipper = AsyncShipper::new();
    shipper.register_slave(SeId(100), Lsn::ZERO);
    let log_len = engines[0].log().len() as u64;
    let mut ship_timer = StageTimer::new("ship", log_len);
    {
        let records = engines[0].log().since(Lsn::ZERO);
        let mut now = SimTime::ZERO;
        for record in records {
            ship_timer.item(
                || match shipper.enqueue(SeId(100), record, &cfg.ship_batch) {
                    Enqueue::Full => {
                        let batch = shipper
                            .flush_open(SeId(100), now, Some(SimDuration::from_micros(50)))
                            .expect("full batch flushes");
                        for r in &batch.records {
                            slave.apply_replicated(r).expect("in-order batch");
                        }
                        shipper.on_applied(SeId(100), batch.records.last().unwrap().lsn);
                    }
                    Enqueue::Opened { .. } | Enqueue::Joined => {}
                    Enqueue::Refused => panic!("in-order enqueue refused"),
                },
            );
            now += SimDuration::from_micros(10);
        }
        // Final partial batch: the linger timer would flush it.
        if let Some(batch) = shipper.flush_open(SeId(100), now, Some(SimDuration::from_micros(50)))
        {
            for r in &batch.records {
                slave.apply_replicated(r).expect("in-order tail batch");
            }
            shipper.on_applied(SeId(100), batch.records.last().unwrap().lsn);
        }
    }
    assert_eq!(slave.last_lsn(), engines[0].last_lsn(), "slave converged");
    assert_eq!(
        slave.live_records(),
        engines[0].live_records(),
        "slave holds the full shard"
    );
    stages.push(ship_timer.finish(log_len));

    // -- Stage 6: full pipeline under batched shipping --------------------
    let mut pipe_cfg = UdrConfig::figure2();
    pipe_cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    pipe_cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    pipe_cfg.ship_batch = cfg.ship_batch;
    pipe_cfg.seed = cfg.seed;
    pipe_cfg.trace = cfg.trace;
    let mut udr = Udr::build(pipe_cfg).expect("valid config");
    let mut pipe_rng = SimRng::seed_from_u64(cfg.seed ^ 0x717e);
    let pipe_pop = (cfg.pipeline_ops / 10).clamp(30, 2_000);
    let mut pipe_subs = Vec::with_capacity(pipe_pop as usize);
    let mut pipeline_retries = 0u64;
    {
        let mut at = SimTime::ZERO + SimDuration::from_millis(1);
        for sub in builder.stream(pipe_pop, &mut pipe_rng) {
            // Rare backbone loss can fail an attempt; the PS retries (§2.4).
            let (result, retries) = PsRetry::STANDARD.run(&mut at, |at| {
                udr.provision_subscriber(&sub.ids, sub.home_region, SiteId(0), at)
                    .op
                    .result
            });
            if let Err(e) = result {
                panic!("pipeline provisioning failed after {retries} retries: {e}");
            }
            pipeline_retries += retries;
            pipe_subs.push(sub.ids.imsi);
        }
    }
    let mut pipe_timer = StageTimer::new("pipeline", cfg.pipeline_ops);
    let mut op_rng = SimRng::seed_from_u64(cfg.seed ^ 0x0b5);
    let mut at = SimTime::ZERO + SimDuration::from_secs(10);
    let mut ok_ops = 0u64;
    for i in 0..cfg.pipeline_ops {
        let imsi = pipe_subs[op_rng.below(pipe_subs.len() as u64) as usize];
        let site = SiteId(op_rng.below(3) as u32);
        let op = if op_rng.chance(0.2) {
            LdapOp::Modify {
                dn: Dn::for_identity(Identity::Imsi(imsi)),
                mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i))],
            }
        } else {
            LdapOp::Search {
                base: Dn::for_identity(Identity::Imsi(imsi)),
                attrs: vec![AttrId::OdbMask],
            }
        };
        let class = TxnClass::FrontEnd;
        let out = pipe_timer.item(|| {
            udr.execute(OpRequest::new(&op).class(class).site(site).at(at))
                .into_op()
        });
        if out.is_ok() {
            ok_ops += 1;
        }
        at += SimDuration::from_micros(500);
    }
    let pump_events = udr.run(at + SimDuration::from_secs(5));
    assert!(
        pump_events > 0,
        "the drain must process pending pump events"
    );
    assert!(
        ok_ops as f64 >= cfg.pipeline_ops as f64 * 0.99,
        "pipeline success ratio too low: {ok_ops}/{}",
        cfg.pipeline_ops
    );
    stages.push(pipe_timer.finish(cfg.pipeline_ops));

    // -- Digest (wall-clock-free) -----------------------------------------
    let mut digest = 0xcbf29ce484222325u64;
    for engine in &engines {
        for view in engine.iter_committed() {
            digest = fnv1a(digest, &view.uid.raw().to_be_bytes());
            digest = fnv1a(digest, &view.lsn.raw().to_be_bytes());
            digest = fnv1a(
                digest,
                &(view.entry.map_or(0, |e| e.len()) as u64).to_be_bytes(),
            );
        }
    }
    digest = fnv1a(digest, &shipper.shipped.to_be_bytes());
    digest = fnv1a(digest, &shipper.batches.to_be_bytes());
    digest = fnv1a(digest, &udr.shipping_batches().to_be_bytes());
    digest = fnv1a(digest, &pipeline_retries.to_be_bytes());
    digest = fnv1a(digest, &image_bytes.to_be_bytes());

    let interner = IdentityInterner::global();
    ScaleOutcome {
        stages,
        records_in_store,
        store_bytes,
        interned_symbols: interner.len() as u64,
        interner_bytes: interner.approx_bytes() as u64,
        shipped_records: shipper.shipped,
        shipped_batches: shipper.batches,
        pipeline_retries,
        image_bytes,
        peak_rss_kb: peak_rss_kb(),
        digest,
        trace: udr.tracer.enabled().then(|| udr.trace_export()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_holds_population_and_coalesces() {
        let cfg = ScaleConfig::small(3_000);
        let out = run(&cfg);
        assert_eq!(out.records_in_store, 3_000);
        assert!(out.shipped_records > 0);
        assert!(
            out.shipped_batches < out.shipped_records,
            "batches {} vs records {}",
            out.shipped_batches,
            out.shipped_records
        );
        assert!(out.image_bytes > 0);
        assert_eq!(out.stages.len(), 6);
    }
}
