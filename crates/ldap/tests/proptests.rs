//! Property tests: the wire codec must round-trip every representable
//! request/response exactly.

use proptest::prelude::*;

use udr_ldap::{decode_request, decode_response, encode_request, encode_response};
use udr_ldap::{Dn, LdapOp, LdapRequest, LdapResponse, ResultCode};
use udr_ldap::{FramedBatch, FramedResults};
use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry};
use udr_model::identity::{Identity, Impi, Impu, Imsi, Msisdn};

fn identity_strategy() -> impl Strategy<Value = Identity> {
    prop_oneof![
        (0u64..=99_999_999).prop_map(|n| Imsi::new(format!("21401{n:08}")).unwrap().into()),
        (0u64..=999_999).prop_map(|n| Msisdn::new(format!("34600{n:06}")).unwrap().into()),
        "[a-z]{1,12}".prop_map(|s| Impu::new(format!("sip:{s}@ims.example.com"))
            .unwrap()
            .into()),
        "[a-z]{1,12}".prop_map(|s| Impi::new(format!("{s}@ims.example.com")).unwrap().into()),
    ]
}

fn attr_id_strategy() -> impl Strategy<Value = AttrId> {
    prop::sample::select(AttrId::ALL.to_vec())
}

fn attr_value_strategy() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        "[ -~]{0,40}".prop_map(AttrValue::from),
        any::<u64>().prop_map(AttrValue::U64),
        any::<bool>().prop_map(AttrValue::Bool),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(AttrValue::from),
        prop::collection::vec("[ -~]{0,16}".prop_map(String::from), 0..6).prop_map(AttrValue::from),
    ]
}

fn entry_strategy() -> impl Strategy<Value = Entry> {
    prop::collection::vec((attr_id_strategy(), attr_value_strategy()), 0..12)
        .prop_map(|pairs| pairs.into_iter().collect())
}

fn op_strategy() -> impl Strategy<Value = LdapOp> {
    prop_oneof![
        (
            identity_strategy(),
            prop::collection::vec(any::<u8>(), 0..32)
        )
            .prop_map(|(id, password)| LdapOp::Bind {
                dn: Dn::for_identity(id),
                password
            }),
        (
            identity_strategy(),
            attr_id_strategy(),
            attr_value_strategy()
        )
            .prop_map(|(id, attr, value)| LdapOp::Compare {
                dn: Dn::for_identity(id),
                attr,
                value
            }),
        (
            identity_strategy(),
            prop::collection::vec(attr_id_strategy(), 0..6)
        )
            .prop_map(|(id, attrs)| LdapOp::Search {
                base: Dn::for_identity(id),
                attrs
            }),
        (identity_strategy(), entry_strategy()).prop_map(|(id, entry)| LdapOp::Add {
            dn: Dn::for_identity(id),
            entry
        }),
        (
            identity_strategy(),
            prop::collection::vec(
                prop_oneof![
                    (attr_id_strategy(), attr_value_strategy())
                        .prop_map(|(a, v)| AttrMod::Set(a, v)),
                    attr_id_strategy().prop_map(AttrMod::Delete),
                ],
                0..8
            )
        )
            .prop_map(|(id, mods)| LdapOp::Modify {
                dn: Dn::for_identity(id),
                mods
            }),
        identity_strategy().prop_map(|id| LdapOp::Delete {
            dn: Dn::for_identity(id)
        }),
        (
            identity_strategy(),
            filter_strategy(),
            prop::collection::vec(attr_id_strategy(), 0..6)
        )
            .prop_map(|(id, filter, attrs)| LdapOp::SearchFilter {
                base: Dn::for_identity(id),
                filter,
                attrs
            }),
    ]
}

proptest! {
    #[test]
    fn request_round_trip(message_id in any::<u32>(), op in op_strategy()) {
        let req = LdapRequest { message_id, op };
        let bytes = encode_request(&req);
        let decoded = decode_request(&bytes).unwrap();
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn response_round_trip(
        message_id in any::<u32>(),
        code_idx in 0usize..7,
        entry in prop::option::of(entry_strategy()),
    ) {
        let codes = [
            ResultCode::Success,
            ResultCode::NoSuchObject,
            ResultCode::Busy,
            ResultCode::Unavailable,
            ResultCode::UnwillingToPerform,
            ResultCode::EntryAlreadyExists,
            ResultCode::Other,
        ];
        let resp = LdapResponse { message_id, code: codes[code_idx], entry };
        let bytes = encode_response(&resp);
        let decoded = decode_response(&bytes).unwrap();
        prop_assert_eq!(decoded, resp);
    }

    /// A projected entry is a masked view of the full payload; on the wire
    /// it is exactly the copy of the selected attributes, and decodes back
    /// to an entry equal to the view.
    #[test]
    fn a_projected_entry_encodes_as_the_copy_of_its_selection(
        message_id in any::<u32>(),
        entry in entry_strategy(),
        selection in prop::collection::vec(attr_id_strategy(), 0..8),
    ) {
        let view = entry.project(&selection);
        let copy: Entry = entry
            .iter()
            .filter(|(id, _)| selection.contains(id))
            .map(|(id, v)| (*id, v.clone()))
            .collect();
        let on_wire = encode_response(&LdapResponse::with_entry(message_id, view.clone()));
        prop_assert_eq!(&on_wire, &encode_response(&LdapResponse::with_entry(message_id, copy)));
        prop_assert_eq!(decode_response(&on_wire).unwrap().entry, Some(view));
    }

    /// An entry holding attributes at their defaults, in its flat block as
    /// default bits and in a delta as stored values, decodes to a flat
    /// block that elides every one of them; it equals its source and
    /// encodes to the same bytes.
    #[test]
    fn a_decoded_entry_with_defaults_encodes_as_its_source(
        message_id in any::<u32>(),
        entry in entry_strategy(),
        in_block in prop::collection::vec(attr_id_strategy(), 0..8),
        written in prop::collection::vec(attr_id_strategy(), 0..4),
    ) {
        let default = |id: &AttrId| Some((*id, id.default_value()?.clone()));
        let mut source: Entry = entry
            .iter()
            .map(|(id, v)| (*id, v.clone()))
            .chain(in_block.iter().filter_map(default))
            .collect();
        for (id, v) in written.iter().filter_map(default) {
            source.set(id, v);
        }
        let on_wire = encode_response(&LdapResponse::with_entry(message_id, source.clone()));
        let decoded = decode_response(&on_wire).unwrap().entry.unwrap();
        prop_assert_eq!(&decoded, &source);
        prop_assert_eq!(encode_response(&LdapResponse::with_entry(message_id, decoded)), on_wire);
    }

    /// The decoder never panics on arbitrary bytes — it returns errors.
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }
}

/// One byte mutation: flip a byte, insert one, or delete one, at a
/// position taken modulo the message length.
#[derive(Debug, Clone)]
enum Mutation {
    Flip(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Insert(at, byte)),
        any::<usize>().prop_map(Mutation::Delete),
    ]
}

/// `bytes` with `mutations` applied in order.
fn mutate(bytes: &[u8], mutations: &[Mutation]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for m in mutations {
        match *m {
            Mutation::Flip(at, mask) if !out.is_empty() => {
                let at = at % out.len();
                out[at] ^= mask;
            }
            Mutation::Insert(at, byte) => out.insert(at % (out.len() + 1), byte),
            Mutation::Delete(at) if !out.is_empty() => {
                out.remove(at % out.len());
            }
            _ => {}
        }
    }
    out
}

fn response_strategy() -> impl Strategy<Value = LdapResponse> {
    (
        any::<u32>(),
        prop::sample::select(vec![
            ResultCode::Success,
            ResultCode::NoSuchObject,
            ResultCode::Busy,
            ResultCode::Unavailable,
            ResultCode::UnwillingToPerform,
            ResultCode::EntryAlreadyExists,
            ResultCode::Other,
        ]),
        prop::option::of(entry_strategy()),
    )
        .prop_map(|(message_id, code, entry)| LdapResponse {
            message_id,
            code,
            entry,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// A valid request, single or framed, with 1–8 bytes flipped, inserted
    /// or deleted decodes to `Ok` or `Err` and never panics. Starting from
    /// a valid message gets the mutations past the first tag, which
    /// uniform random bytes rarely do.
    #[test]
    fn a_mutated_request_decodes_or_errs(
        message_id in any::<u32>(),
        ops in prop::collection::vec(op_strategy(), 1..4),
        mutations in prop::collection::vec(mutation_strategy(), 1..=8),
    ) {
        let requests: Vec<LdapRequest> = ops
            .into_iter()
            .map(|op| LdapRequest { message_id, op })
            .collect();
        let single = mutate(&encode_request(&requests[0]), &mutations);
        let _ = decode_request(&single);
        let _ = FramedBatch::decode(&single);
        let framed = mutate(&FramedBatch::new(requests).encode(), &mutations);
        let _ = FramedBatch::decode(&framed);
        let _ = decode_request(&framed);
    }

    /// The same for responses, single and framed.
    #[test]
    fn a_mutated_response_decodes_or_errs(
        responses in prop::collection::vec(response_strategy(), 1..4),
        mutations in prop::collection::vec(mutation_strategy(), 1..=8),
    ) {
        let single = mutate(&encode_response(&responses[0]), &mutations);
        let _ = decode_response(&single);
        let _ = FramedResults::decode(&single);
        let framed = mutate(&FramedResults { responses }.encode(), &mutations);
        let _ = FramedResults::decode(&framed);
        let _ = decode_response(&framed);
    }
}

// ---------------------------------------------------------------------------
// Filter properties
// ---------------------------------------------------------------------------

use udr_ldap::Filter;

/// Random filter ASTs, depth-bounded.
fn filter_strategy() -> impl Strategy<Value = Filter> {
    let fragment = "[a-zA-Z0-9 :@.+-]{1,12}".prop_map(String::from);
    let leaf = prop_oneof![
        attr_id_strategy().prop_map(Filter::Present),
        (attr_id_strategy(), "[ -~]{0,20}".prop_map(String::from))
            .prop_map(|(a, v)| Filter::Equality(a, v)),
        (attr_id_strategy(), any::<u64>()).prop_map(|(a, n)| Filter::GreaterOrEqual(a, n)),
        (attr_id_strategy(), any::<u64>()).prop_map(|(a, n)| Filter::LessOrEqual(a, n)),
        (
            attr_id_strategy(),
            prop::option::of(fragment.clone()),
            prop::collection::vec(fragment.clone(), 0..3),
            prop::option::of(fragment),
        )
            .prop_filter_map(
                "degenerate substring is a presence filter",
                |(attr, initial, any, fin)| {
                    if initial.is_none() && any.is_empty() && fin.is_none() {
                        None
                    } else {
                        Some(Filter::Substring {
                            attr,
                            initial,
                            any,
                            fin,
                        })
                    }
                }
            ),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

proptest! {
    /// Every filter prints to a string that parses back to the same AST.
    #[test]
    fn filter_string_form_round_trips(f in filter_strategy()) {
        let s = f.to_string();
        let back: Filter = s.parse().unwrap_or_else(|e| panic!("{s:?}: {e}"));
        prop_assert_eq!(back, f);
    }

    /// Evaluation is total: any filter against any entry terminates with a
    /// boolean and double negation is the identity.
    #[test]
    fn filter_evaluation_is_total_and_involutive(
        f in filter_strategy(),
        attrs in prop::collection::vec((attr_id_strategy(), attr_value_strategy()), 0..8),
    ) {
        let entry: Entry = attrs.into_iter().collect();
        let direct = f.matches(&entry);
        let double_not = Filter::Not(Box::new(Filter::Not(Box::new(f)))).matches(&entry);
        prop_assert_eq!(direct, double_not);
    }
}
