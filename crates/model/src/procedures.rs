//! The 3GPP network procedures that drive UDR traffic.
//!
//! §3.5: "Typical mobile network procedures cause between 1 and 3 LDAP
//! operations"; footnote 8: "a single typical IMS network procedure may
//! cause 5 or 6 LDAP read/write operations". Each variant declares its
//! nominal read/write op counts; `udr-core` turns these into concrete LDAP
//! operation sequences.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A network procedure executed by an application front-end on behalf of a
/// subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcedureKind {
    /// Initial attach: authentication data read, profile read, location write.
    Attach,
    /// Periodic/moving location update: profile read + location write.
    LocationUpdate,
    /// Mobile-terminated call setup (SRI + profile): two reads.
    CallSetupMt,
    /// Mobile-originated call setup: one profile read.
    CallSetupMo,
    /// Mobile-terminated SMS delivery: one routing read.
    SmsDelivery,
    /// IMS initial registration (footnote 8's heavy procedure).
    ImsRegistration,
    /// IMS session establishment.
    ImsSession,
    /// Network-initiated detach / purge: one location write.
    Detach,
}

impl ProcedureKind {
    /// All procedure kinds.
    pub const ALL: [ProcedureKind; 8] = [
        ProcedureKind::Attach,
        ProcedureKind::LocationUpdate,
        ProcedureKind::CallSetupMt,
        ProcedureKind::CallSetupMo,
        ProcedureKind::SmsDelivery,
        ProcedureKind::ImsRegistration,
        ProcedureKind::ImsSession,
        ProcedureKind::Detach,
    ];

    /// Nominal `(reads, writes)` LDAP operation counts for the procedure.
    pub const fn ldap_ops(self) -> (u32, u32) {
        match self {
            ProcedureKind::Attach => (2, 1),
            ProcedureKind::LocationUpdate => (1, 1),
            ProcedureKind::CallSetupMt => (2, 0),
            ProcedureKind::CallSetupMo => (1, 0),
            ProcedureKind::SmsDelivery => (1, 0),
            ProcedureKind::ImsRegistration => (4, 2),
            ProcedureKind::ImsSession => (5, 0),
            ProcedureKind::Detach => (0, 1),
        }
    }

    /// Total nominal LDAP operations.
    pub const fn total_ops(self) -> u32 {
        let (r, w) = self.ldap_ops();
        r + w
    }
}

impl fmt::Display for ProcedureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcedureKind::Attach => "attach",
            ProcedureKind::LocationUpdate => "location-update",
            ProcedureKind::CallSetupMt => "call-setup-mt",
            ProcedureKind::CallSetupMo => "call-setup-mo",
            ProcedureKind::SmsDelivery => "sms-delivery",
            ProcedureKind::ImsRegistration => "ims-registration",
            ProcedureKind::ImsSession => "ims-session",
            ProcedureKind::Detach => "detach",
        };
        f.write_str(s)
    }
}

/// The kinds of provisioning operations a PS issues (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProvisioningKind {
    /// Create a new subscription: profile + all identity-location entries.
    CreateSubscription,
    /// Modify service data of an existing subscription.
    ModifyServices,
    /// Change the MSISDN of a subscription (touches location maps too).
    ChangeMsisdn,
    /// Delete a subscription entirely.
    DeleteSubscription,
}

impl ProvisioningKind {
    /// All provisioning kinds.
    pub const ALL: [ProvisioningKind; 4] = [
        ProvisioningKind::CreateSubscription,
        ProvisioningKind::ModifyServices,
        ProvisioningKind::ChangeMsisdn,
        ProvisioningKind::DeleteSubscription,
    ];
}

impl fmt::Display for ProvisioningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProvisioningKind::CreateSubscription => "create-subscription",
            ProvisioningKind::ModifyServices => "modify-services",
            ProvisioningKind::ChangeMsisdn => "change-msisdn",
            ProvisioningKind::DeleteSubscription => "delete-subscription",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_ims_procedures_cost_one_to_three_ops() {
        // §3.5: typical procedures cause between 1 and 3 LDAP operations.
        for p in ProcedureKind::ALL {
            if !matches!(
                p,
                ProcedureKind::ImsRegistration | ProcedureKind::ImsSession
            ) {
                let total = p.total_ops();
                assert!((1..=3).contains(&total), "{p} costs {total} ops");
            }
        }
    }

    #[test]
    fn ims_procedures_cost_five_or_six_ops() {
        // Footnote 8: a typical IMS procedure causes 5 or 6 operations.
        for p in [ProcedureKind::ImsRegistration, ProcedureKind::ImsSession] {
            let total = p.total_ops();
            assert!((5..=6).contains(&total), "{p} costs {total} ops");
        }
    }

    #[test]
    fn read_write_split_is_mostly_reads() {
        // §4.1: FE transactions are "composed of mostly reads".
        let (reads, writes) = ProcedureKind::ALL.iter().fold((0, 0), |(r, w), p| {
            let (pr, pw) = p.ldap_ops();
            (r + pr, w + pw)
        });
        assert!(reads > 2 * writes, "reads={reads} writes={writes}");
    }

    #[test]
    fn display_names() {
        assert_eq!(ProcedureKind::Attach.to_string(), "attach");
        assert_eq!(
            ProvisioningKind::CreateSubscription.to_string(),
            "create-subscription"
        );
    }
}
