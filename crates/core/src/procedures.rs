//! 3GPP network procedures as LDAP operation sequences (§3.5: typical
//! procedures cost 1–3 operations, IMS procedures 5–6).
//!
//! An application front-end executes the operations of a procedure
//! sequentially against its local PoA; the procedure fails fast on the
//! first failed operation (the network procedure would be aborted).

use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::error::UdrError;
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::SiteId;
use udr_model::procedures::ProcedureKind;
use udr_model::time::SimDuration;

/// Result of one network procedure run.
#[derive(Debug, Clone)]
pub struct ProcedureOutcome {
    /// The procedure executed.
    pub kind: ProcedureKind,
    /// Whether every operation succeeded.
    pub success: bool,
    /// Sum of operation latencies (the procedure's UDR contribution).
    pub latency: SimDuration,
    /// Operations that succeeded.
    pub ops_ok: u32,
    /// Operations that failed (0 or 1 — procedures fail fast).
    pub ops_failed: u32,
    /// The first failure, if any.
    pub failure: Option<UdrError>,
}

fn search(identity: Identity, attrs: Vec<AttrId>) -> LdapOp {
    LdapOp::Search {
        base: Dn::for_identity(identity),
        attrs,
    }
}

fn modify(identity: Identity, mods: Vec<AttrMod>) -> LdapOp {
    LdapOp::Modify {
        dn: Dn::for_identity(identity),
        mods,
    }
}

/// Build the LDAP operation sequence of a procedure for a subscriber.
///
/// The `(reads, writes)` counts match [`ProcedureKind::ldap_ops`] exactly;
/// a unit test enforces it.
pub fn procedure_ops(kind: ProcedureKind, ids: &IdentitySet, fe_site: SiteId) -> Vec<LdapOp> {
    let imsi: Identity = ids.imsi.into();
    let msisdn: Identity = ids.msisdn.into();
    let ims_id: Identity = ids.impus.first().map(|i| (*i).into()).unwrap_or(imsi);
    // The serving node's address at the front-end's site.
    let node = |kind: &str| AttrValue::from(format!("{kind}-{fe_site}"));

    match kind {
        ProcedureKind::Attach => vec![
            search(imsi, vec![AttrId::AuthKi, AttrId::AuthAmf, AttrId::AuthSqn]),
            search(
                imsi,
                vec![
                    AttrId::SubscriberStatus,
                    AttrId::OdbMask,
                    AttrId::Teleservices,
                ],
            ),
            modify(
                imsi,
                vec![
                    AttrMod::Set(AttrId::VlrAddress, node("vlr")),
                    AttrMod::Set(AttrId::MmeAddress, node("mme")),
                ],
            ),
        ],
        ProcedureKind::LocationUpdate => vec![
            search(imsi, vec![AttrId::SubscriberStatus]),
            modify(imsi, vec![AttrMod::Set(AttrId::VlrAddress, node("vlr"))]),
        ],
        ProcedureKind::CallSetupMt => vec![
            search(msisdn, vec![AttrId::VlrAddress, AttrId::Imsi]),
            search(imsi, vec![AttrId::CallBarring, AttrId::CallForwarding]),
        ],
        ProcedureKind::CallSetupMo => {
            vec![search(imsi, vec![AttrId::CallBarring, AttrId::OdbMask])]
        }
        ProcedureKind::SmsDelivery => vec![search(msisdn, vec![AttrId::VlrAddress])],
        ProcedureKind::ImsRegistration => vec![
            search(ims_id, vec![AttrId::ImpuList, AttrId::Impi]),
            search(imsi, vec![AttrId::AuthKi, AttrId::AuthSqn]),
            search(imsi, vec![AttrId::SubscriberStatus]),
            search(ims_id, vec![AttrId::ScscfName]),
            modify(
                ims_id,
                vec![AttrMod::Set(AttrId::ImsRegState, "registered".into())],
            ),
            modify(ims_id, vec![AttrMod::Set(AttrId::ScscfName, node("scscf"))]),
        ],
        ProcedureKind::ImsSession => vec![
            search(ims_id, vec![AttrId::ImsRegState]),
            search(ims_id, vec![AttrId::ScscfName]),
            search(imsi, vec![AttrId::CallBarring, AttrId::OdbMask]),
            search(imsi, vec![AttrId::ChargingProfile]),
            search(ims_id, vec![AttrId::ImpuList]),
        ],
        ProcedureKind::Detach => {
            vec![modify(imsi, vec![AttrMod::Delete(AttrId::VlrAddress)])]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::identity::{Impi, Impu, Imsi, Msisdn};

    fn ids() -> IdentitySet {
        IdentitySet {
            imsi: Imsi::new("214011234567890").unwrap(),
            msisdn: Msisdn::new("34600123456").unwrap(),
            impus: vec![Impu::new("sip:alice@ims.example.com").unwrap()],
            impi: Some(Impi::new("alice@ims.example.com").unwrap()),
        }
    }

    #[test]
    fn op_counts_match_declared_costs() {
        // The sequences must agree with ProcedureKind::ldap_ops — the
        // §3.5 "1–3 ops, IMS 5–6" accounting.
        for kind in ProcedureKind::ALL {
            let ops = procedure_ops(kind, &ids(), SiteId(0));
            let reads = ops.iter().filter(|o| !o.is_write()).count() as u32;
            let writes = ops.iter().filter(|o| o.is_write()).count() as u32;
            assert_eq!((reads, writes), kind.ldap_ops(), "{kind}");
        }
    }

    #[test]
    fn ims_procedures_address_ims_identities() {
        let ops = procedure_ops(ProcedureKind::ImsRegistration, &ids(), SiteId(1));
        let impu_ops = ops
            .iter()
            .filter(|o| o.dn().identity().as_str().starts_with("sip:"))
            .count();
        assert!(impu_ops >= 3, "IMS registration should address IMPUs");
    }

    #[test]
    fn mt_call_uses_msisdn_index() {
        let ops = procedure_ops(ProcedureKind::CallSetupMt, &ids(), SiteId(0));
        assert_eq!(ops[0].dn().identity().as_str(), "34600123456");
    }

    #[test]
    fn subscriber_without_ims_falls_back_to_imsi() {
        let mut plain = ids();
        plain.impus.clear();
        plain.impi = None;
        let ops = procedure_ops(ProcedureKind::ImsSession, &plain, SiteId(0));
        assert!(ops
            .iter()
            .all(|o| !o.dn().identity().as_str().starts_with("sip:")));
    }
}
