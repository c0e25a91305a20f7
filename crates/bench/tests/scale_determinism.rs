//! The scale-campaign determinism regression: two e23 runs with the same
//! configuration must agree on every simulation-visible outcome — the
//! content digest, record counts and shipping counters. Wall-clock stage
//! timings are the only thing allowed to differ between runs.

use udr_bench::scale::{run, ScaleConfig};

#[test]
fn small_scale_campaign_is_deterministic() {
    let cfg = ScaleConfig::small(1_500);
    let a = run(&cfg);
    let b = run(&cfg);

    assert_eq!(a.digest, b.digest, "content digest must be seed-stable");
    assert_eq!(a.records_in_store, b.records_in_store);
    assert_eq!(a.records_in_store, cfg.subscribers);
    assert_eq!(a.shipped_records, b.shipped_records);
    assert_eq!(a.shipped_batches, b.shipped_batches);
    assert_eq!(a.pipeline_retries, b.pipeline_retries);
    assert_eq!(a.image_bytes, b.image_bytes);
    assert_eq!(a.store_bytes, b.store_bytes);
    // Same stages, same item counts, in the same order.
    let items = |o: &udr_bench::scale::ScaleOutcome| -> Vec<(String, u64)> {
        o.stages
            .iter()
            .map(|s| (s.stage.to_owned(), s.items))
            .collect()
    };
    assert_eq!(items(&a), items(&b));
}

#[test]
fn different_seed_changes_the_digest() {
    let mut cfg = ScaleConfig::small(800);
    let a = run(&cfg);
    cfg.seed ^= 0xdead_beef;
    let b = run(&cfg);
    assert_ne!(
        a.digest, b.digest,
        "the digest must actually depend on the seeded content"
    );
}
