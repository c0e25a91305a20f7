//! Criterion: data-location stage lookups (feeds experiment E7 — the
//! identity maps the paper models as O(log N), hashed here, vs the O(1)
//! ring of §3.5).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use udr_dls::{CachedLocator, ConsistentHashRing, IdentityLocationMap, Location};
use udr_model::identity::{Identity, Imsi};
use udr_model::ids::{PartitionId, SubscriberUid};

fn imsi(i: u64) -> Identity {
    Imsi::new(format!("21401{i:010}")).unwrap().into()
}

fn bench_map_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dls/identity_map_lookup");
    group.throughput(Throughput::Elements(1));
    for n in [1_000u64, 100_000, 1_000_000] {
        let mut map = IdentityLocationMap::new();
        for i in 0..n {
            map.insert(
                &imsi(i),
                Location {
                    uid: SubscriberUid(i),
                    partition: PartitionId((i % 64) as u32),
                },
            );
        }
        let probes: Vec<Identity> = (0..1024).map(|i| imsi((i * 2_654_435_761) % n)).collect();
        let mut i = 0usize;
        group.bench_function(format!("n={n}"), |b| {
            b.iter(|| {
                let hit = map.peek(black_box(&probes[i & 1023]));
                i += 1;
                black_box(hit)
            })
        });
    }
    group.finish();
}

fn bench_ring_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("dls/ring_locate");
    group.throughput(Throughput::Elements(1));
    for parts in [16u32, 256] {
        let ring = ConsistentHashRing::new((0..parts).map(PartitionId), 64);
        let probes: Vec<Identity> = (0..1024).map(|i| imsi(i * 7919)).collect();
        let mut i = 0usize;
        group.bench_function(format!("partitions={parts}"), |b| {
            b.iter(|| {
                let p = ring.locate(black_box(&probes[i & 1023]));
                i += 1;
                black_box(p)
            })
        });
    }
    group.finish();
}

fn bench_cache_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("dls/cache_hit");
    group.throughput(Throughput::Elements(1));
    let mut cache = CachedLocator::new(4096, 256);
    for i in 0..4096u64 {
        cache.fill(
            &imsi(i),
            Location {
                uid: SubscriberUid(i),
                partition: PartitionId(0),
            },
        );
    }
    let probes: Vec<Identity> = (0..1024).map(imsi).collect();
    let mut i = 0usize;
    group.bench_function("hot", |b| {
        b.iter(|| {
            let out = cache.lookup(black_box(&probes[i & 1023]));
            i += 1;
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_map_lookup,
    bench_ring_lookup,
    bench_cache_hit
);
criterion_main!(benches);
