//! Criterion: `scale/intern`, fresh identity strings through a fresh
//! interner — the ingest path the million-subscriber scale campaign (e23)
//! leans on, and an interning figure `udr-perf`'s ledger does not record
//! (`model.intern_hit_ns` times dedup hits only). Baselines are recorded
//! in docs/PROFILING.md.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use udr_model::intern::IdentityInterner;

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

criterion_group!(benches, bench_intern);
criterion_main!(benches);
