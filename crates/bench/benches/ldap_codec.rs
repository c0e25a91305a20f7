//! Criterion: `ldap/admit`, per-op admission against framed continuations
//! on one LDAP server: the batched access path must not add overhead on
//! top of the frame share it removes. (The BER codec's cost is a
//! `udr-perf` ledger row, `ldap.encode_ns`/`ldap.decode_ns`.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use udr_ldap::{Dn, LdapOp, LdapServer};
use udr_model::identity::{Identity, Imsi};
use udr_model::ids::{ClusterId, LdapServerId, SiteId};
use udr_model::time::SimTime;

fn bench_framed_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("ldap/admit");
    const OPS: u64 = 1024;
    group.throughput(Throughput::Elements(OPS));
    let op = LdapOp::Search {
        base: Dn::for_identity(Identity::Imsi(
            Imsi::new("214010000000001").expect("valid IMSI"),
        )),
        attrs: vec![],
    };

    // The quantity the simulation cares about: a burst's simulated
    // makespan. 64 simultaneous arrivals against a paper-rate server —
    // framed continuations each shave one frame share off the service
    // time, so the batch drains measurably sooner in simulated time.
    {
        let burst = 64u32;
        let mut per_op = LdapServer::new(LdapServerId(0), SiteId(0), ClusterId(0));
        let mut framed = LdapServer::new(LdapServerId(0), SiteId(0), ClusterId(0));
        let mut done_per_op = SimTime::ZERO;
        let mut done_framed = SimTime::ZERO;
        for i in 0..burst {
            if let Some(d) = per_op.admit(&op, SimTime::ZERO) {
                done_per_op = done_per_op.max(d);
            }
            if let Some(d) = framed.admit_framed(&op, SimTime::ZERO, i > 0) {
                done_framed = done_framed.max(d);
            }
        }
        println!(
            "ldap/admit: simulated makespan of a {burst}-op burst — per-op {:.2} µs, \
             framed {:.2} µs ({:.2} µs saved)",
            done_per_op.duration_since(SimTime::ZERO).as_micros_f64(),
            done_framed.duration_since(SimTime::ZERO).as_micros_f64(),
            (done_per_op - done_framed).as_micros_f64(),
        );
    }

    // Per-op admission: every op pays the full framing price. Arrivals
    // are spaced past the service time so the queue bound never rejects
    // — this measures admission cost, not overload behaviour.
    group.bench_function(format!("per_op_x{OPS}"), |b| {
        b.iter_batched_ref(
            || LdapServer::new(LdapServerId(0), SiteId(0), ClusterId(0)),
            |server| {
                let mut done = SimTime::ZERO;
                for i in 0..OPS {
                    let now = SimTime(i * 2_000);
                    done = server.admit(&op, now).expect("spaced arrivals admit");
                }
                black_box(done)
            },
            BatchSize::SmallInput,
        )
    });

    // Framed continuations: the first op opens the frame, the rest ride
    // it — same admission rule, one frame share cheaper per op.
    group.bench_function(format!("framed_x{OPS}"), |b| {
        b.iter_batched_ref(
            || LdapServer::new(LdapServerId(0), SiteId(0), ClusterId(0)),
            |server| {
                let mut done = SimTime::ZERO;
                for i in 0..OPS {
                    let now = SimTime(i * 2_000);
                    done = server
                        .admit_framed(&op, now, i > 0)
                        .expect("spaced arrivals admit");
                }
                black_box(done)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_framed_admit);
criterion_main!(benches);
