//! # udr-ldap
//!
//! The UDR's northbound interface: the LDAP subset that HLR-FE/HSS-FE and
//! the Provisioning System issue against subscriber data (§1: UDC mandates
//! an LDAP-based interface; the data model itself is left open and realised
//! as attribute maps in `udr-model`).
//!
//! * [`dn`] — distinguished names, one entry per subscriber identity;
//! * [`proto`] — search/add/modify/delete requests and responses;
//! * [`filter`] — RFC 4515 search filters for the business-intelligence
//!   queries that motivate consolidation (§1, §2.2);
//! * [`codec`] — a BER-style TLV wire codec (encode/decode is part of the
//!   per-operation CPU cost in the capacity experiments);
//! * [`batch`] — framed request batches that coalesce same-station
//!   operations into one message with per-op results, amortising the
//!   per-message framing share of the service time;
//! * [`server`] — stateless, processor-hungry server processes with the
//!   paper's 10⁶ ops/s nominal rate and admission control;
//! * [`poa`] — the L4-balancer Point of Access with automatic backend
//!   detection and round-robin routing.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod codec;
pub mod dn;
pub mod filter;
pub mod poa;
pub mod proto;
pub mod server;

pub use batch::{frame_share, FrameCursor, FramedBatch, FramedResults, FRAME_SHARE_DIVISOR};
pub use codec::{decode_request, decode_response, encode_request, encode_response};
pub use dn::{Dn, SUBSCRIBER_BASE};
pub use filter::{attr_by_name, attr_name, Filter, FilterParseError};
pub use poa::PointOfAccess;
pub use proto::{LdapOp, LdapRequest, LdapResponse, ResultCode};
pub use server::{LdapServer, PAPER_OPS_PER_SERVER_PER_SEC};
