//! Criterion: the BER codec (the LDAP server's CPU share of each of the
//! paper's 10⁶ ops/s — feeds E6's measured column), and `ldap/admit`,
//! per-op admission against framed continuations on one LDAP server: the
//! batched access path must not add overhead on top of the frame share
//! it removes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use udr_ldap::{decode_request, decode_response, encode_request, encode_response};
use udr_ldap::{Dn, LdapOp, LdapRequest, LdapResponse, LdapServer};
use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};
use udr_model::identity::{Identity, Imsi};
use udr_model::ids::{ClusterId, LdapServerId, SiteId};
use udr_model::time::SimTime;

fn dn() -> Dn {
    Dn::for_identity(Identity::Imsi(Imsi::new("214011234567890").unwrap()))
}

fn full_entry() -> Entry {
    let mut e = Entry::new();
    e.set(AttrId::Imsi, "214011234567890");
    e.set(AttrId::Msisdn, "34600123456");
    e.set(AttrId::AuthKi, vec![7u8; 16]);
    e.set(AttrId::AuthSqn, 123456u64);
    e.set(AttrId::SubscriberStatus, "serviceGranted");
    e.set(AttrId::OdbMask, 0u64);
    e.set(AttrId::CallBarring, false);
    e.set(
        AttrId::Teleservices,
        vec!["telephony".to_owned(), "sms-mt".to_owned()],
    );
    e.set(AttrId::VlrAddress, "vlr-madrid-01");
    e
}

fn bench_requests(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/request");
    group.throughput(Throughput::Elements(1));

    let search = LdapRequest {
        message_id: 7,
        op: LdapOp::Search {
            base: dn(),
            attrs: vec![AttrId::VlrAddress, AttrId::AuthSqn],
        },
    };
    group.bench_function("encode_search", |b| {
        b.iter(|| black_box(encode_request(black_box(&search))))
    });
    let search_bytes = encode_request(&search);
    group.bench_function("decode_search", |b| {
        b.iter(|| black_box(decode_request(black_box(&search_bytes)).unwrap()))
    });

    let modify = LdapRequest {
        message_id: 9,
        op: LdapOp::Modify {
            dn: dn(),
            mods: vec![
                AttrMod::Set(AttrId::VlrAddress, AttrValue::Str("vlr-1".into())),
                AttrMod::Set(AttrId::AuthSqn, AttrValue::U64(99)),
            ],
        },
    };
    group.bench_function("encode_modify", |b| {
        b.iter(|| black_box(encode_request(black_box(&modify))))
    });

    let filtered = LdapRequest {
        message_id: 8,
        op: LdapOp::SearchFilter {
            base: dn(),
            filter: "(&(callBarring=TRUE)(|(odbMask>=4)(msisdn=346*)))"
                .parse()
                .unwrap(),
            attrs: vec![AttrId::Msisdn],
        },
    };
    group.bench_function("encode_filtered_search", |b| {
        b.iter(|| black_box(encode_request(black_box(&filtered))))
    });
    let filtered_bytes = encode_request(&filtered);
    group.bench_function("decode_filtered_search", |b| {
        b.iter(|| black_box(decode_request(black_box(&filtered_bytes)).unwrap()))
    });

    let add = LdapRequest {
        message_id: 1,
        op: LdapOp::Add {
            dn: dn(),
            entry: full_entry(),
        },
    };
    group.bench_function("encode_add_full_profile", |b| {
        b.iter(|| black_box(encode_request(black_box(&add))))
    });
    let add_bytes = encode_request(&add);
    group.bench_function("decode_add_full_profile", |b| {
        b.iter(|| black_box(decode_request(black_box(&add_bytes)).unwrap()))
    });
    group.finish();
}

fn bench_responses(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/response");
    group.throughput(Throughput::Elements(1));
    let resp = LdapResponse::with_entry(7, full_entry());
    group.bench_function("encode_entry_response", |b| {
        b.iter(|| black_box(encode_response(black_box(&resp))))
    });
    let bytes = encode_response(&resp);
    group.bench_function("decode_entry_response", |b| {
        b.iter(|| black_box(decode_response(black_box(&bytes)).unwrap()))
    });
    group.finish();
}

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

criterion_group!(benches, bench_requests, bench_responses, bench_framed_admit);
criterion_main!(benches);
