//! Criterion: the four hot paths the million-subscriber scale campaign
//! (e23) leans on — identity interning, interned lookup, the full
//! figure-2 pipeline op, and batched log shipping. Baselines are
//! recorded in docs/PROFILING.md.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};
use udr_model::config::{IsolationLevel, TxnClass};
use udr_model::identity::{Identity, IdentitySet, Imsi, Msisdn};
use udr_model::ids::{SeId, SiteId, SubscriberUid};
use udr_model::intern::IdentityInterner;
use udr_model::time::{SimDuration, SimTime};
use udr_replication::{AsyncShipper, Enqueue, ShipBatchConfig};
use udr_storage::{CommitRecord, Engine, Lsn};

const BATCH_IDS: u64 = 1024;

fn digit_strings(n: u64, offset: u64) -> Vec<String> {
    (0..n).map(|i| format!("21401{:010}", offset + i)).collect()
}

fn bench_intern(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/intern");
    group.throughput(Throughput::Elements(BATCH_IDS));

    // Fresh digit strings through a fresh interner: the packed fast path
    // exercised by population ingest.
    let mut round = 0u64;
    group.bench_function(format!("packed_fresh_x{BATCH_IDS}"), |b| {
        b.iter_batched_ref(
            || {
                round += 1;
                (IdentityInterner::new(), digit_strings(BATCH_IDS, round))
            },
            |(interner, ids)| {
                for s in ids.iter() {
                    black_box(interner.intern(s));
                }
            },
            BatchSize::SmallInput,
        )
    });

    // Spilled (non-digit) strings: the slow path IMPUs take.
    let mut round = 0u64;
    group.bench_function(format!("spilled_fresh_x{BATCH_IDS}"), |b| {
        b.iter_batched_ref(
            || {
                round += 1;
                let uris: Vec<String> = (0..BATCH_IDS)
                    .map(|i| format!("sip:user{}.{i}@ims.example", round))
                    .collect();
                (IdentityInterner::new(), uris)
            },
            |(interner, ids)| {
                for s in ids.iter() {
                    black_box(interner.intern(s));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/lookup");
    let imsi = Imsi::new("214015550001234").expect("valid imsi");

    // symbol → &'static str: the read-path resolve.
    group.throughput(Throughput::Elements(1));
    group.bench_function("resolve", |b| {
        b.iter(|| black_box(black_box(imsi).as_str()))
    });

    // string → validated interned identity on a dedup hit: what every
    // incoming LDAP DN pays.
    group.bench_function("imsi_reparse_hit", |b| {
        b.iter(|| black_box(Imsi::new(black_box("214015550001234")).unwrap()))
    });
    group.finish();
}

fn pipeline_udr(subs: u64) -> (Udr, Vec<IdentitySet>) {
    let cfg = UdrConfig::figure2();
    let mut udr = Udr::build(cfg).expect("valid config");
    let mut sets = Vec::new();
    for i in 0..subs {
        let ids = IdentitySet {
            imsi: Imsi::new(format!("21401{:010}", i + 1)).unwrap(),
            msisdn: Msisdn::new(format!("346{:08}", i + 1)).unwrap(),
            impus: vec![],
            impi: None,
        };
        let out = udr.provision_subscriber(
            &ids,
            (i % 3) as u32,
            SiteId(0),
            SimTime::ZERO + SimDuration::from_millis(i + 1),
        );
        assert!(out.is_ok());
        sets.push(ids);
    }
    (udr, sets)
}

fn bench_pipeline_op(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/pipeline_op");
    group.throughput(Throughput::Elements(1));

    let (mut udr, subs) = pipeline_udr(64);
    let mut now = SimTime::ZERO + SimDuration::from_secs(10);
    let mut i = 0usize;
    group.bench_function("search", |b| {
        b.iter(|| {
            now += SimDuration::from_micros(500);
            let op = LdapOp::Search {
                base: Dn::for_identity(Identity::Imsi(subs[i % subs.len()].imsi)),
                attrs: vec![AttrId::OdbMask],
            };
            i += 1;
            let out = udr
                .execute(
                    OpRequest::new(&op)
                        .class(TxnClass::FrontEnd)
                        .site(SiteId(i as u32 % 3))
                        .at(now),
                )
                .into_op();
            udr.advance_to(now);
            black_box(out.latency)
        })
    });

    let (mut udr, subs) = pipeline_udr(64);
    let mut now = SimTime::ZERO + SimDuration::from_secs(10);
    let mut i = 0u64;
    group.bench_function("modify", |b| {
        b.iter(|| {
            now += SimDuration::from_micros(500);
            let op = LdapOp::Modify {
                dn: Dn::for_identity(Identity::Imsi(subs[(i % 64) as usize].imsi)),
                mods: vec![AttrMod::Set(AttrId::OdbMask, AttrValue::U64(i))],
            };
            i += 1;
            let out = udr
                .execute(
                    OpRequest::new(&op)
                        .class(TxnClass::FrontEnd)
                        .site(SiteId(0))
                        .at(now),
                )
                .into_op();
            udr.advance_to(now);
            black_box(out.latency)
        })
    });
    group.finish();
}

fn commit_records(n: u64) -> Vec<CommitRecord> {
    let mut master = Engine::new(SeId(0));
    for i in 0..n {
        let txn = master.begin(IsolationLevel::ReadCommitted);
        let mut entry = Entry::new();
        entry.set(AttrId::OdbMask, i);
        master.put(txn, SubscriberUid(i % 512), entry).unwrap();
        master.commit(txn, SimTime(i)).unwrap();
    }
    master.log().iter().cloned().collect()
}

fn bench_ship_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/ship");
    const RECORDS: u64 = 4096;
    let records = commit_records(RECORDS);
    group.throughput(Throughput::Elements(RECORDS));

    // Coalesced: enqueue into 64-record batches, flush at the cap, apply
    // the whole batch on a fresh slave.
    group.bench_function("batch64_x4096", |b| {
        let cfg = ShipBatchConfig::coalesce(64, SimDuration::from_millis(5));
        b.iter_batched_ref(
            || {
                let mut shipper = AsyncShipper::new();
                shipper.register_slave(SeId(1), Lsn::ZERO);
                (shipper, Engine::new(SeId(1)))
            },
            |(shipper, slave)| {
                let delay = Some(SimDuration::from_millis(1));
                for record in &records {
                    if let Enqueue::Full = shipper.enqueue(SeId(1), record, &cfg) {
                        let batch = shipper
                            .flush_open(SeId(1), record.committed_at, delay)
                            .expect("full batch flushes");
                        for shipped in &batch.records {
                            slave.apply_replicated(shipped).unwrap();
                        }
                        shipper.on_applied(SeId(1), batch.records.last().unwrap().lsn);
                    }
                }
                black_box(slave.last_lsn())
            },
            BatchSize::LargeInput,
        )
    });

    // Per-record baseline: one delivery per commit.
    group.bench_function("per_record_x4096", |b| {
        b.iter_batched_ref(
            || {
                let mut shipper = AsyncShipper::new();
                shipper.register_slave(SeId(1), Lsn::ZERO);
                (shipper, Engine::new(SeId(1)))
            },
            |(shipper, slave)| {
                let delay = Some(SimDuration::from_millis(1));
                for record in &records {
                    let d = shipper
                        .ship(SeId(1), record, record.committed_at, delay)
                        .expect("channel is current");
                    slave.apply_replicated(&d.record).unwrap();
                    shipper.on_applied(SeId(1), d.record.lsn);
                }
                black_box(slave.last_lsn())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_intern,
    bench_lookup,
    bench_pipeline_op,
    bench_ship_batch
);
criterion_main!(benches);
