//! BER-style TLV codec for the LDAP subset.
//!
//! Real BER (as RFC 2251 mandates) with definite lengths, restricted to the
//! structures our operations need. Every value is a `tag, length, body`
//! triple; constructed values nest. The codec is exercised by the capacity
//! experiment (E6) — protocol encode/decode is part of the per-operation
//! CPU cost a 1M ops/s LDAP server must absorb.

use bytes::{BufMut, Bytes, BytesMut};

use udr_model::attrs::{AttrId, AttrMod, AttrValue, Entry, Text};
use udr_model::error::{UdrError, UdrResult};

use crate::dn::Dn;
use crate::filter::Filter;
use crate::proto::{LdapOp, LdapRequest, LdapResponse, ResultCode};

// Universal tags.
const TAG_INT: u8 = 0x02;
const TAG_OCTET: u8 = 0x04;
const TAG_ENUM: u8 = 0x0A;
const TAG_SEQ: u8 = 0x30;
// Application tags (RFC 2251 operation numbers).
const APP_BIND: u8 = 0x60;
const APP_SEARCH: u8 = 0x63;
const APP_MODIFY: u8 = 0x66;
const APP_ADD: u8 = 0x68;
const APP_DELETE: u8 = 0x4A;
const APP_COMPARE: u8 = 0x6E;
const APP_RESPONSE: u8 = 0x65;
// Filter tags (RFC 4511 §4.5.1 Filter CHOICE).
const FLT_AND: u8 = 0xA0;
const FLT_OR: u8 = 0xA1;
const FLT_NOT: u8 = 0xA2;
const FLT_EQ: u8 = 0xA3;
const FLT_SUBSTR: u8 = 0xA4;
const FLT_GE: u8 = 0xA5;
const FLT_LE: u8 = 0xA6;
const FLT_PRESENT: u8 = 0x87;
// Substring component tags (RFC 4511 SubstringFilter.substrings CHOICE).
const SUB_INITIAL: u8 = 0x80;
const SUB_ANY: u8 = 0x81;
const SUB_FINAL: u8 = 0x82;
/// Recursion bound for nested filters (defense against hostile input).
const MAX_FILTER_DEPTH: u32 = 32;
// Context tags for attribute values.
const CTX_STR: u8 = 0x80;
const CTX_U64: u8 = 0x81;
const CTX_BOOL: u8 = 0x82;
const CTX_BYTES: u8 = 0x83;
const CTX_STRLIST: u8 = 0xA4; // constructed

fn put_len(buf: &mut BytesMut, len: usize) {
    if len < 0x80 {
        buf.put_u8(len as u8);
    } else if len <= 0xFF {
        buf.put_u8(0x81);
        buf.put_u8(len as u8);
    } else if len <= 0xFFFF {
        buf.put_u8(0x82);
        buf.put_u16(len as u16);
    } else {
        buf.put_u8(0x84);
        buf.put_u32(len as u32);
    }
}

fn put_tlv(buf: &mut BytesMut, tag: u8, body: &[u8]) {
    buf.put_u8(tag);
    put_len(buf, body.len());
    buf.put_slice(body);
}

fn put_u64(buf: &mut BytesMut, tag: u8, v: u64) {
    // Minimal big-endian encoding (no leading zero octets except for 0).
    let be = v.to_be_bytes();
    let skip = be.iter().take_while(|b| **b == 0).count().min(7);
    put_tlv(buf, tag, &be[skip..]);
}

fn encode_attr_value(buf: &mut BytesMut, value: &AttrValue) {
    match value {
        AttrValue::Str(s) => put_tlv(buf, CTX_STR, s.as_bytes()),
        AttrValue::U64(v) => put_u64(buf, CTX_U64, *v),
        AttrValue::Bool(b) => put_tlv(buf, CTX_BOOL, &[u8::from(*b)]),
        AttrValue::Bytes(b) => put_tlv(buf, CTX_BYTES, b),
        AttrValue::StrList(items) => {
            let mut inner = BytesMut::new();
            for item in items.iter() {
                put_tlv(&mut inner, TAG_OCTET, item.as_bytes());
            }
            put_tlv(buf, CTX_STRLIST, &inner);
        }
    }
}

fn encode_entry(entry: &Entry) -> BytesMut {
    let mut body = BytesMut::new();
    for (attr, value) in entry.iter() {
        let mut pair = BytesMut::new();
        put_u64(&mut pair, TAG_INT, u64::from(attr.tag()));
        encode_attr_value(&mut pair, value);
        put_tlv(&mut body, TAG_SEQ, &pair);
    }
    let mut out = BytesMut::new();
    put_tlv(&mut out, TAG_SEQ, &body);
    out
}

fn encode_filter(buf: &mut BytesMut, filter: &Filter) {
    match filter {
        Filter::And(fs) => {
            let mut inner = BytesMut::new();
            for f in fs {
                encode_filter(&mut inner, f);
            }
            put_tlv(buf, FLT_AND, &inner);
        }
        Filter::Or(fs) => {
            let mut inner = BytesMut::new();
            for f in fs {
                encode_filter(&mut inner, f);
            }
            put_tlv(buf, FLT_OR, &inner);
        }
        Filter::Not(f) => {
            let mut inner = BytesMut::new();
            encode_filter(&mut inner, f);
            put_tlv(buf, FLT_NOT, &inner);
        }
        Filter::Present(attr) => {
            let mut inner = BytesMut::new();
            put_u64(&mut inner, TAG_INT, u64::from(attr.tag()));
            put_tlv(buf, FLT_PRESENT, &inner);
        }
        Filter::Equality(attr, value) => {
            let mut inner = BytesMut::new();
            put_u64(&mut inner, TAG_INT, u64::from(attr.tag()));
            put_tlv(&mut inner, TAG_OCTET, value.as_bytes());
            put_tlv(buf, FLT_EQ, &inner);
        }
        Filter::GreaterOrEqual(attr, n) => {
            let mut inner = BytesMut::new();
            put_u64(&mut inner, TAG_INT, u64::from(attr.tag()));
            put_u64(&mut inner, TAG_INT, *n);
            put_tlv(buf, FLT_GE, &inner);
        }
        Filter::LessOrEqual(attr, n) => {
            let mut inner = BytesMut::new();
            put_u64(&mut inner, TAG_INT, u64::from(attr.tag()));
            put_u64(&mut inner, TAG_INT, *n);
            put_tlv(buf, FLT_LE, &inner);
        }
        Filter::Substring {
            attr,
            initial,
            any,
            fin,
        } => {
            let mut inner = BytesMut::new();
            put_u64(&mut inner, TAG_INT, u64::from(attr.tag()));
            let mut parts = BytesMut::new();
            if let Some(init) = initial {
                put_tlv(&mut parts, SUB_INITIAL, init.as_bytes());
            }
            for frag in any {
                put_tlv(&mut parts, SUB_ANY, frag.as_bytes());
            }
            if let Some(f) = fin {
                put_tlv(&mut parts, SUB_FINAL, f.as_bytes());
            }
            put_tlv(&mut inner, TAG_SEQ, &parts);
            put_tlv(buf, FLT_SUBSTR, &inner);
        }
    }
}

/// Encode a request to wire bytes.
pub fn encode_request(req: &LdapRequest) -> Bytes {
    let mut payload = BytesMut::new();
    match &req.op {
        LdapOp::Bind { dn, password } => {
            let mut body = BytesMut::new();
            put_tlv(&mut body, TAG_OCTET, dn.to_string().as_bytes());
            put_tlv(&mut body, TAG_OCTET, password);
            put_tlv(&mut payload, APP_BIND, &body);
        }
        LdapOp::Compare { dn, attr, value } => {
            let mut body = BytesMut::new();
            put_tlv(&mut body, TAG_OCTET, dn.to_string().as_bytes());
            put_u64(&mut body, TAG_INT, u64::from(attr.tag()));
            encode_attr_value(&mut body, value);
            put_tlv(&mut payload, APP_COMPARE, &body);
        }
        LdapOp::Search { base, attrs } => {
            let mut body = BytesMut::new();
            put_tlv(&mut body, TAG_OCTET, base.to_string().as_bytes());
            let mut list = BytesMut::new();
            for a in attrs {
                put_u64(&mut list, TAG_INT, u64::from(a.tag()));
            }
            put_tlv(&mut body, TAG_SEQ, &list);
            put_tlv(&mut payload, APP_SEARCH, &body);
        }
        LdapOp::SearchFilter {
            base,
            filter,
            attrs,
        } => {
            // Same application tag as Search (both are RFC 2251
            // searchRequests); the element after the DN disambiguates —
            // a filter CHOICE tag here, an attribute SEQUENCE there.
            let mut body = BytesMut::new();
            put_tlv(&mut body, TAG_OCTET, base.to_string().as_bytes());
            encode_filter(&mut body, filter);
            let mut list = BytesMut::new();
            for a in attrs {
                put_u64(&mut list, TAG_INT, u64::from(a.tag()));
            }
            put_tlv(&mut body, TAG_SEQ, &list);
            put_tlv(&mut payload, APP_SEARCH, &body);
        }
        LdapOp::Add { dn, entry } => {
            let mut body = BytesMut::new();
            put_tlv(&mut body, TAG_OCTET, dn.to_string().as_bytes());
            body.extend_from_slice(&encode_entry(entry));
            put_tlv(&mut payload, APP_ADD, &body);
        }
        LdapOp::Modify { dn, mods } => {
            let mut body = BytesMut::new();
            put_tlv(&mut body, TAG_OCTET, dn.to_string().as_bytes());
            let mut list = BytesMut::new();
            for m in mods {
                let mut one = BytesMut::new();
                match m {
                    AttrMod::Set(attr, value) => {
                        put_u64(&mut one, TAG_ENUM, 0);
                        put_u64(&mut one, TAG_INT, u64::from(attr.tag()));
                        encode_attr_value(&mut one, value);
                    }
                    AttrMod::Delete(attr) => {
                        put_u64(&mut one, TAG_ENUM, 1);
                        put_u64(&mut one, TAG_INT, u64::from(attr.tag()));
                    }
                }
                put_tlv(&mut list, TAG_SEQ, &one);
            }
            put_tlv(&mut body, TAG_SEQ, &list);
            put_tlv(&mut payload, APP_MODIFY, &body);
        }
        LdapOp::Delete { dn } => {
            put_tlv(&mut payload, APP_DELETE, dn.to_string().as_bytes());
        }
    }

    let mut msg = BytesMut::new();
    put_u64(&mut msg, TAG_INT, u64::from(req.message_id));
    msg.extend_from_slice(&payload);
    let mut out = BytesMut::new();
    put_tlv(&mut out, TAG_SEQ, &msg);
    out.freeze()
}

/// Encode a response to wire bytes.
pub fn encode_response(resp: &LdapResponse) -> Bytes {
    let mut body = BytesMut::new();
    put_u64(&mut body, TAG_ENUM, resp.code as u64);
    if let Some(entry) = &resp.entry {
        body.extend_from_slice(&encode_entry(entry));
    }
    let mut payload = BytesMut::new();
    put_tlv(&mut payload, APP_RESPONSE, &body);

    let mut msg = BytesMut::new();
    put_u64(&mut msg, TAG_INT, u64::from(resp.message_id));
    msg.extend_from_slice(&payload);
    let mut out = BytesMut::new();
    put_tlv(&mut out, TAG_SEQ, &msg);
    out.freeze()
}

// ---- decoding --------------------------------------------------------------

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn err(msg: &str) -> UdrError {
        UdrError::Codec(msg.to_owned())
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn byte(&mut self) -> UdrResult<u8> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| Self::err("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> UdrResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(Self::err("truncated body"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn length(&mut self) -> UdrResult<usize> {
        let first = self.byte()?;
        if first < 0x80 {
            return Ok(first as usize);
        }
        let n = (first & 0x7F) as usize;
        if n == 0 || n > 4 {
            return Err(Self::err("unsupported length form"));
        }
        let mut len = 0usize;
        for _ in 0..n {
            len = (len << 8) | self.byte()? as usize;
        }
        Ok(len)
    }

    /// Read one TLV; returns (tag, body reader).
    fn tlv(&mut self) -> UdrResult<(u8, Reader<'a>)> {
        let tag = self.byte()?;
        let len = self.length()?;
        let body = self.take(len)?;
        Ok((tag, Reader::new(body)))
    }

    fn expect_tlv(&mut self, expected: u8) -> UdrResult<Reader<'a>> {
        let (tag, body) = self.tlv()?;
        if tag != expected {
            return Err(Self::err(&format!(
                "expected tag {expected:#x}, got {tag:#x}"
            )));
        }
        Ok(body)
    }

    fn u64_body(body: &Reader<'a>) -> UdrResult<u64> {
        if body.data.len() > 8 {
            return Err(Self::err("integer too large"));
        }
        let mut v = 0u64;
        for &b in body.data {
            v = (v << 8) | u64::from(b);
        }
        Ok(v)
    }

    fn expect_u64(&mut self, tag: u8) -> UdrResult<u64> {
        let body = self.expect_tlv(tag)?;
        Self::u64_body(&body)
    }

    fn str_body(body: &Reader<'a>) -> UdrResult<&'a str> {
        std::str::from_utf8(body.data).map_err(|_| Self::err("invalid UTF-8"))
    }

    fn at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// The tag of the next TLV without consuming it.
    fn peek_tag(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }
}

fn decode_attr_value(reader: &mut Reader<'_>) -> UdrResult<AttrValue> {
    let (tag, body) = reader.tlv()?;
    Ok(match tag {
        CTX_STR => AttrValue::Str(Reader::str_body(&body)?.into()),
        CTX_U64 => AttrValue::U64(Reader::u64_body(&body)?),
        CTX_BOOL => {
            let b = *body.data.first().ok_or_else(|| Reader::err("empty bool"))?;
            AttrValue::Bool(b != 0)
        }
        CTX_BYTES => AttrValue::Bytes(body.data.into()),
        CTX_STRLIST => {
            let mut items = Vec::new();
            let mut inner = body;
            while !inner.at_end() {
                let item = inner.expect_tlv(TAG_OCTET)?;
                items.push(Text::from(Reader::str_body(&item)?));
            }
            AttrValue::StrList(items.into_iter().collect())
        }
        _ => return Err(Reader::err(&format!("unknown value tag {tag:#x}"))),
    })
}

fn decode_entry(reader: &mut Reader<'_>) -> UdrResult<Entry> {
    let mut seq = reader.expect_tlv(TAG_SEQ)?;
    std::iter::from_fn(|| (!seq.at_end()).then(|| decode_attr(&mut seq))).collect()
}

/// One `(tag, value)` pair of an encoded entry.
fn decode_attr(seq: &mut Reader<'_>) -> UdrResult<(AttrId, AttrValue)> {
    let mut pair = seq.expect_tlv(TAG_SEQ)?;
    let attr = decode_attr_id(pair.expect_u64(TAG_INT)?)?;
    Ok((attr, decode_attr_value(&mut pair)?))
}

fn decode_attr_id(v: u64) -> UdrResult<AttrId> {
    u16::try_from(v)
        .ok()
        .and_then(AttrId::from_tag)
        .ok_or_else(|| Reader::err(&format!("unknown attribute tag {v}")))
}

fn decode_message_id(v: u64) -> UdrResult<u32> {
    u32::try_from(v).map_err(|_| Reader::err(&format!("message id {v} out of range")))
}

fn is_filter_tag(tag: u8) -> bool {
    matches!(
        tag,
        FLT_AND | FLT_OR | FLT_NOT | FLT_EQ | FLT_SUBSTR | FLT_GE | FLT_LE | FLT_PRESENT
    )
}

fn decode_filter(reader: &mut Reader<'_>, depth: u32) -> UdrResult<Filter> {
    if depth > MAX_FILTER_DEPTH {
        return Err(Reader::err("filter nested too deeply"));
    }
    let (tag, mut body) = reader.tlv()?;
    Ok(match tag {
        FLT_AND | FLT_OR => {
            let mut subs = Vec::new();
            while !body.at_end() {
                subs.push(decode_filter(&mut body, depth + 1)?);
            }
            if tag == FLT_AND {
                Filter::And(subs)
            } else {
                Filter::Or(subs)
            }
        }
        FLT_NOT => Filter::Not(Box::new(decode_filter(&mut body, depth + 1)?)),
        FLT_PRESENT => Filter::Present(decode_attr_id(body.expect_u64(TAG_INT)?)?),
        FLT_EQ => {
            let attr = decode_attr_id(body.expect_u64(TAG_INT)?)?;
            let value = Reader::str_body(&body.expect_tlv(TAG_OCTET)?)?;
            Filter::Equality(attr, value.to_owned())
        }
        FLT_GE => {
            let attr = decode_attr_id(body.expect_u64(TAG_INT)?)?;
            Filter::GreaterOrEqual(attr, body.expect_u64(TAG_INT)?)
        }
        FLT_LE => {
            let attr = decode_attr_id(body.expect_u64(TAG_INT)?)?;
            Filter::LessOrEqual(attr, body.expect_u64(TAG_INT)?)
        }
        FLT_SUBSTR => {
            let attr = decode_attr_id(body.expect_u64(TAG_INT)?)?;
            let mut parts = body.expect_tlv(TAG_SEQ)?;
            let (mut initial, mut any, mut fin) = (None, Vec::new(), None);
            while !parts.at_end() {
                let (part_tag, part) = parts.tlv()?;
                let text = Reader::str_body(&part)?.to_owned();
                match part_tag {
                    SUB_INITIAL if initial.is_none() && any.is_empty() && fin.is_none() => {
                        initial = Some(text)
                    }
                    SUB_ANY if fin.is_none() => any.push(text),
                    SUB_FINAL if fin.is_none() => fin = Some(text),
                    _ => return Err(Reader::err("malformed substring components")),
                }
            }
            Filter::Substring {
                attr,
                initial,
                any,
                fin,
            }
        }
        other => return Err(Reader::err(&format!("unknown filter tag {other:#x}"))),
    })
}

/// Decode a request from wire bytes.
pub fn decode_request(bytes: &[u8]) -> UdrResult<LdapRequest> {
    let mut top = Reader::new(bytes);
    let mut msg = top.expect_tlv(TAG_SEQ)?;
    let message_id = decode_message_id(msg.expect_u64(TAG_INT)?)?;
    let (tag, mut body) = msg.tlv()?;
    let op = match tag {
        APP_BIND => {
            let dn = Dn::parse(Reader::str_body(&body.expect_tlv(TAG_OCTET)?)?)?;
            let password = body.expect_tlv(TAG_OCTET)?.data.to_vec();
            LdapOp::Bind { dn, password }
        }
        APP_COMPARE => {
            let dn = Dn::parse(Reader::str_body(&body.expect_tlv(TAG_OCTET)?)?)?;
            let attr = decode_attr_id(body.expect_u64(TAG_INT)?)?;
            let value = decode_attr_value(&mut body)?;
            LdapOp::Compare { dn, attr, value }
        }
        APP_SEARCH => {
            let dn = Dn::parse(Reader::str_body(&body.expect_tlv(TAG_OCTET)?)?)?;
            let filter = match body.peek_tag() {
                Some(tag) if is_filter_tag(tag) => Some(decode_filter(&mut body, 0)?),
                _ => None,
            };
            let mut list = body.expect_tlv(TAG_SEQ)?;
            let mut attrs = Vec::new();
            while !list.at_end() {
                attrs.push(decode_attr_id(list.expect_u64(TAG_INT)?)?);
            }
            match filter {
                Some(filter) => LdapOp::SearchFilter {
                    base: dn,
                    filter,
                    attrs,
                },
                None => LdapOp::Search { base: dn, attrs },
            }
        }
        APP_ADD => {
            let dn = Dn::parse(Reader::str_body(&body.expect_tlv(TAG_OCTET)?)?)?;
            let entry = decode_entry(&mut body)?;
            LdapOp::Add { dn, entry }
        }
        APP_MODIFY => {
            let dn = Dn::parse(Reader::str_body(&body.expect_tlv(TAG_OCTET)?)?)?;
            let mut list = body.expect_tlv(TAG_SEQ)?;
            let mut mods = Vec::new();
            while !list.at_end() {
                let mut one = list.expect_tlv(TAG_SEQ)?;
                let kind = one.expect_u64(TAG_ENUM)?;
                let attr = decode_attr_id(one.expect_u64(TAG_INT)?)?;
                mods.push(match kind {
                    0 => AttrMod::Set(attr, decode_attr_value(&mut one)?),
                    1 => AttrMod::Delete(attr),
                    other => return Err(Reader::err(&format!("unknown mod kind {other}"))),
                });
            }
            LdapOp::Modify { dn, mods }
        }
        APP_DELETE => {
            let dn = Dn::parse(Reader::str_body(&body)?)?;
            LdapOp::Delete { dn }
        }
        other => return Err(Reader::err(&format!("unknown op tag {other:#x}"))),
    };
    Ok(LdapRequest { message_id, op })
}

/// Decode a response from wire bytes.
pub fn decode_response(bytes: &[u8]) -> UdrResult<LdapResponse> {
    let mut top = Reader::new(bytes);
    let mut msg = top.expect_tlv(TAG_SEQ)?;
    let message_id = decode_message_id(msg.expect_u64(TAG_INT)?)?;
    let mut body = msg.expect_tlv(APP_RESPONSE)?;
    let code_raw = body.expect_u64(TAG_ENUM)?;
    let code = u8::try_from(code_raw)
        .ok()
        .and_then(ResultCode::from_u8)
        .ok_or_else(|| Reader::err(&format!("unknown result code {code_raw}")))?;
    let entry = if body.at_end() {
        None
    } else {
        Some(decode_entry(&mut body)?)
    };
    Ok(LdapResponse {
        message_id,
        code,
        entry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::identity::{Identity, Imsi, Msisdn};

    fn dn() -> Dn {
        Dn::for_identity(Identity::Imsi(Imsi::new("214011234567890").unwrap()))
    }

    fn rich_entry() -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Imsi, "214011234567890");
        e.set(AttrId::AuthSqn, 123456789u64);
        e.set(AttrId::CallBarring, true);
        e.set(AttrId::AuthKi, vec![0u8, 1, 2, 255]);
        e.set(
            AttrId::Teleservices,
            vec!["telephony".to_owned(), "sms-mt".to_owned()],
        );
        e
    }

    /// One attribute of every value kind, empty strings, octets and lists
    /// among them, and a multi-byte string.
    fn golden_entry() -> Entry {
        let mut e = Entry::new();
        e.set(AttrId::Imsi, "214011234567890");
        e.set(AttrId::Msisdn, "");
        e.set(
            AttrId::ImpuList,
            vec![
                "sip:+34600123456@ims.example".to_owned(),
                "tel:+34600123456".to_owned(),
            ],
        );
        e.set(AttrId::AuthKi, vec![0u8, 1, 0x7f, 0x80, 0xff]);
        e.set(AttrId::AuthAmf, 0x8000u64);
        e.set(AttrId::AuthSqn, 0u64);
        e.set(AttrId::OdbMask, u64::MAX);
        e.set(AttrId::CallBarring, true);
        e.set(AttrId::CallForwarding, false);
        e.set(AttrId::Teleservices, Vec::<String>::new());
        e.set(AttrId::ApnProfiles, vec!["internet".to_owned()]);
        e.set(AttrId::CamelCsi, Vec::<u8>::new());
        e.set(AttrId::ScscfName, "scscf.ímś.example ✓");
        e.set(AttrId::HomeRegion, 3u64);
        e
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The wire bytes of a search response carrying `golden_entry`. Fixed:
    /// how a value is held in memory is no part of the format.
    const GOLDEN_RESPONSE: &str = concat!(
        "3081e102012a6581db0a01003081d53014020101800f32313430313132333435",
        "3637383930300502010280003035020103a430041c7369703a2b333436303031",
        "323334353640696d732e6578616d706c65041074656c3a2b3334363030313233",
        "343536300a02010a830500017f80ff300702010b81028000300602010c810100",
        "300d0201158108ffffffffffffffff3006020116820101300602011782010030",
        "05020118a400300f020119a40a0408696e7465726e6574300502011a8300301c",
        "02012c801773637363662ec3ad6dc59b2e6578616d706c6520e29c9330060201",
        "3c810103",
    );

    /// The wire bytes of a modify setting and deleting one attribute of
    /// each value kind.
    const GOLDEN_MODIFY: &str = concat!(
        "308198020107668192042a696d73693d3231343031313233343536373839302c",
        "6f753d73756273637269626572732c64633d7564723064301f0a010002012c80",
        "1773637363662ec3ad6dc59b2e6578616d706c6520e29c93300a0a010002010a",
        "830200ff30170a0100020119a40f0408696e7465726e65740403696d7330090a",
        "010002011581010530090a010002011682010030060a0101020128",
    );

    #[test]
    fn entries_encode_to_the_golden_wire_bytes() {
        let resp = LdapResponse {
            message_id: 42,
            code: ResultCode::Success,
            entry: Some(golden_entry()),
        };
        assert_eq!(&encode_response(&resp)[..], unhex(GOLDEN_RESPONSE));
        assert_eq!(decode_response(&unhex(GOLDEN_RESPONSE)).unwrap(), resp);

        let mods = vec![
            AttrMod::Set(AttrId::ScscfName, AttrValue::from("scscf.ímś.example ✓")),
            AttrMod::Set(AttrId::AuthKi, AttrValue::from(vec![0u8, 0xff])),
            AttrMod::Set(
                AttrId::ApnProfiles,
                AttrValue::from(vec!["internet".to_owned(), "ims".to_owned()]),
            ),
            AttrMod::Set(AttrId::OdbMask, AttrValue::U64(5)),
            AttrMod::Set(AttrId::CallBarring, AttrValue::Bool(false)),
            AttrMod::Delete(AttrId::VlrAddress),
        ];
        let req = LdapRequest {
            message_id: 7,
            op: LdapOp::Modify { dn: dn(), mods },
        };
        assert_eq!(&encode_request(&req)[..], unhex(GOLDEN_MODIFY));
        assert_eq!(decode_request(&unhex(GOLDEN_MODIFY)).unwrap(), req);
    }

    #[test]
    fn search_round_trip() {
        let req = LdapRequest {
            message_id: 7,
            op: LdapOp::Search {
                base: dn(),
                attrs: vec![AttrId::AuthKi, AttrId::AuthSqn],
            },
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn filtered_search_round_trip() {
        use crate::filter::Filter;
        let filter: Filter = "(&(callBarring=TRUE)(|(odbMask>=4)(msisdn=346*))(!(vlrAddress=*)))"
            .parse()
            .unwrap();
        let req = LdapRequest {
            message_id: 9,
            op: LdapOp::SearchFilter {
                base: dn(),
                filter,
                attrs: vec![AttrId::Msisdn, AttrId::OdbMask],
            },
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn indexed_and_filtered_search_share_the_application_tag() {
        use crate::filter::Filter;
        // Both encode as RFC 2251 searchRequest; the decoder tells them
        // apart by the element after the DN.
        let indexed = LdapRequest {
            message_id: 1,
            op: LdapOp::Search {
                base: dn(),
                attrs: vec![],
            },
        };
        let filtered = LdapRequest {
            message_id: 2,
            op: LdapOp::SearchFilter {
                base: dn(),
                filter: Filter::Present(AttrId::Imsi),
                attrs: vec![],
            },
        };
        assert_eq!(encode_request(&indexed)[2 + 3], 0x63, "APPLICATION 3");
        assert_eq!(decode_request(&encode_request(&indexed)).unwrap(), indexed);
        assert_eq!(
            decode_request(&encode_request(&filtered)).unwrap(),
            filtered
        );
    }

    #[test]
    fn hostile_filter_nesting_is_bounded() {
        use crate::filter::Filter;
        // 40 nested NOTs exceed MAX_FILTER_DEPTH: decode must error out,
        // not blow the stack.
        let mut f = Filter::Present(AttrId::Imsi);
        for _ in 0..40 {
            f = Filter::Not(Box::new(f));
        }
        let req = LdapRequest {
            message_id: 3,
            op: LdapOp::SearchFilter {
                base: dn(),
                filter: f,
                attrs: vec![],
            },
        };
        let bytes = encode_request(&req);
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn add_round_trip() {
        let req = LdapRequest {
            message_id: 1,
            op: LdapOp::Add {
                dn: dn(),
                entry: rich_entry(),
            },
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn modify_round_trip() {
        let req = LdapRequest {
            message_id: u32::MAX,
            op: LdapOp::Modify {
                dn: Dn::for_identity(Identity::Msisdn(Msisdn::new("34600123456").unwrap())),
                mods: vec![
                    AttrMod::Set(AttrId::OdbMask, AttrValue::U64(0)),
                    AttrMod::Set(AttrId::CallBarring, AttrValue::Bool(false)),
                    AttrMod::Delete(AttrId::CallForwarding),
                ],
            },
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn bind_round_trip() {
        let req = LdapRequest {
            message_id: 5,
            op: LdapOp::Bind {
                dn: dn(),
                password: b"hss-fe-secret".to_vec(),
            },
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn compare_round_trip() {
        let req = LdapRequest {
            message_id: 6,
            op: LdapOp::Compare {
                dn: dn(),
                attr: AttrId::CallBarring,
                value: AttrValue::Bool(true),
            },
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn delete_round_trip() {
        let req = LdapRequest {
            message_id: 2,
            op: LdapOp::Delete { dn: dn() },
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            LdapResponse::success(1),
            LdapResponse::with_entry(2, rich_entry()),
            LdapResponse::error(3, ResultCode::Unavailable),
            LdapResponse::error(4, ResultCode::EntryAlreadyExists),
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn long_lengths_use_long_form() {
        let mut e = Entry::new();
        e.set(AttrId::AuthKi, vec![0xABu8; 300]); // > 255 bytes forces 0x82 form
        let req = LdapRequest {
            message_id: 1,
            op: LdapOp::Add { dn: dn(), entry: e },
        };
        let bytes = encode_request(&req);
        assert!(bytes.len() > 300);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn zero_and_max_integers() {
        let mut e = Entry::new();
        e.set(AttrId::AuthSqn, 0u64);
        e.set(AttrId::OdbMask, u64::MAX);
        let req = LdapRequest {
            message_id: 0,
            op: LdapOp::Add { dn: dn(), entry: e },
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn truncated_input_rejected() {
        let req = LdapRequest {
            message_id: 7,
            op: LdapOp::Delete { dn: dn() },
        };
        let bytes = encode_request(&req);
        for cut in [0, 1, 2, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_request(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode_request(&[0xFF, 0x03, 1, 2, 3]).is_err());
        assert!(decode_response(&[0x30, 0x00]).is_err());
    }

    /// A frame as the encoders lay it out: message id, then one
    /// application element whose body is `body`.
    fn frame(message_id: u64, op_tag: u8, body: &[u8]) -> Vec<u8> {
        let mut msg = BytesMut::new();
        put_u64(&mut msg, TAG_INT, message_id);
        put_tlv(&mut msg, op_tag, body);
        let mut out = BytesMut::new();
        put_tlv(&mut out, TAG_SEQ, &msg);
        out.to_vec()
    }

    /// A response body: the result code, then one attribute tagged `tag`.
    fn response_body(code: u64, tag: u64) -> BytesMut {
        let mut pair = BytesMut::new();
        put_u64(&mut pair, TAG_INT, tag);
        encode_attr_value(&mut pair, &AttrValue::U64(5));
        let mut attrs = BytesMut::new();
        put_tlv(&mut attrs, TAG_SEQ, &pair);
        let mut body = BytesMut::new();
        put_u64(&mut body, TAG_ENUM, code);
        put_tlv(&mut body, TAG_SEQ, &attrs);
        body
    }

    #[test]
    fn the_frame_helpers_build_what_decodes() {
        let imsi = u64::from(AttrId::Imsi.tag());
        let resp = decode_response(&frame(4, APP_RESPONSE, &response_body(0, imsi))).unwrap();
        assert_eq!(resp.message_id, 4);
        assert_eq!(resp.code, ResultCode::Success);
        let attrs: Vec<_> = resp.entry.iter().flat_map(|e| e.iter()).collect();
        assert_eq!(attrs, [(&AttrId::Imsi, &AttrValue::U64(5))]);
    }

    #[test]
    fn an_entry_attribute_tag_past_u16_is_rejected() {
        // 65 537 is `Imsi`'s tag plus 2¹⁶.
        let body = response_body(0, 65_537);
        assert!(decode_response(&frame(4, APP_RESPONSE, &body)).is_err());
    }

    #[test]
    fn an_attribute_id_past_u16_is_rejected() {
        let mut body = BytesMut::new();
        put_tlv(&mut body, TAG_OCTET, dn().to_string().as_bytes());
        put_u64(&mut body, TAG_INT, 65_537);
        encode_attr_value(&mut body, &AttrValue::U64(5));
        assert!(decode_request(&frame(4, APP_COMPARE, &body)).is_err());
    }

    #[test]
    fn a_request_message_id_past_u32_is_rejected() {
        let dn = dn().to_string();
        let valid = frame(7, APP_DELETE, dn.as_bytes());
        assert_eq!(decode_request(&valid).unwrap().message_id, 7);
        let wrapped = frame((1 << 32) + 7, APP_DELETE, dn.as_bytes());
        assert!(decode_request(&wrapped).is_err());
    }

    #[test]
    fn a_response_message_id_past_u32_is_rejected() {
        let imsi = u64::from(AttrId::Imsi.tag());
        let body = response_body(0, imsi);
        assert!(decode_response(&frame((1 << 32) + 4, APP_RESPONSE, &body)).is_err());
    }

    #[test]
    fn a_result_code_past_u8_is_rejected() {
        // 256 is `Success`'s code plus 2⁸.
        let imsi = u64::from(AttrId::Imsi.tag());
        let body = response_body(256, imsi);
        assert!(decode_response(&frame(4, APP_RESPONSE, &body)).is_err());
    }

    #[test]
    fn wire_is_compact() {
        // A single-attribute search should be well under 100 bytes — the
        // capacity model assumes small control-plane messages.
        let req = LdapRequest {
            message_id: 1,
            op: LdapOp::Search {
                base: dn(),
                attrs: vec![AttrId::VlrAddress],
            },
        };
        assert!(encode_request(&req).len() < 100);
    }
}
