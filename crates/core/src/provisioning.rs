//! The Provisioning System client (§2.4, §3.3.3).
//!
//! The PS is co-located with one UDR PoA, reads only master copies, and
//! issues the subscription lifecycle operations. A provisioning procedure
//! spans the profile write (one SE transaction) *and* the identity-location
//! bindings — exactly the cross-element grouping the architecture cannot
//! make atomic (§3.2), so failures leave cleanup to PS logic, which this
//! module implements and counts.
//!
//! Bulk provisioning (§3.3) has one entry point,
//! [`Udr::run_provisioning_batch`]: items dispatched at a fixed rate,
//! retried per a [`udr_workload::RetryPolicy`], with every run of
//! `access_chunk` dispatches sharing one framed LDAP request per station.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use udr_ldap::{Dn, FrameCursor, LdapOp};
use udr_metrics::TimeSeries;
use udr_model::attrs::AttrMod;
use udr_model::config::TxnClass;
use udr_model::error::UdrError;
use udr_model::identity::{Identity, IdentitySet};
use udr_model::ids::{PartitionId, SiteId, SubscriberUid};
use udr_model::procedures::ProvisioningKind;
use udr_model::profile::SubscriberProfile;
use udr_model::tenant::Capability;
use udr_model::time::{SimDuration, SimTime};
use udr_workload::RetryPolicy;

use crate::ops::{OpOutcome, OpRequest};
use crate::udr::Udr;

/// Result of provisioning one subscription.
#[derive(Debug, Clone)]
pub struct ProvisionOutcome {
    /// The uid allocated (meaningful only on success).
    pub uid: SubscriberUid,
    /// Partition the subscription was placed on.
    pub partition: PartitionId,
    /// The underlying operation outcome.
    pub op: OpOutcome,
}

impl ProvisionOutcome {
    /// Whether the subscription was created.
    pub fn is_ok(&self) -> bool {
        self.op.is_ok()
    }
}

impl Udr {
    /// Create a subscription: place it, bind every identity in the
    /// location stages, and write the profile to the master copy.
    ///
    /// On write failure the PS rolls the bindings back — the §2.4 cleanup
    /// logic pre-UDC networks needed on every node, here reduced to the
    /// location stage because the profile write itself is atomic.
    pub fn provision_subscriber(
        &mut self,
        ids: &IdentitySet,
        home_region: u32,
        ps_site: SiteId,
        now: SimTime,
    ) -> ProvisionOutcome {
        self.provision_subscriber_internal(ids, home_region, ps_site, now, None)
    }

    /// [`Udr::provision_subscriber`], with the profile Add riding
    /// `frame`'s open framed request when one covers its station (§3.3.3
    /// bulk provisioning). Placement, bindings, rollback and results do
    /// not depend on `frame`.
    fn provision_subscriber_internal(
        &mut self,
        ids: &IdentitySet,
        home_region: u32,
        ps_site: SiteId,
        now: SimTime,
        frame: Option<&mut FrameCursor>,
    ) -> ProvisionOutcome {
        self.advance_to(now);
        let uid = SubscriberUid(self.alloc_uid());
        let refused = |error| ProvisionOutcome {
            uid,
            partition: PartitionId(0),
            op: OpOutcome {
                result: Err(error),
                latency: SimDuration::ZERO,
                served_by: None,
                crossed_backbone: false,
                breakdown: crate::pipeline::LatencyBreakdown::default(),
            },
        };
        if uid.raw() > udr_dls::Location::MAX_UID {
            return refused(UdrError::UidSpaceExhausted(uid));
        }
        let Some(partition) = self
            .placement
            .place(self.cfg.frash.placement, uid, home_region)
        else {
            return refused(UdrError::Config("no partitions to place on".into()));
        };
        let location = udr_dls::Location { uid, partition };

        // Bind identities first so the Add can resolve through the stage.
        for identity in ids.iter() {
            self.authority.insert(&identity, location);
            for cluster in &mut self.clusters {
                cluster.stage.fill_cache(&identity, location);
            }
        }

        let profile = SubscriberProfile::provision(ids, home_region, self.ki_for(uid));
        let op = LdapOp::Add {
            dn: Dn::for_identity(ids.imsi.into()),
            entry: profile.into_entry(),
        };
        let outcome = self.execute_provisioning(
            &op,
            ProvisioningKind::CreateSubscription,
            ps_site,
            now,
            frame,
        );

        if outcome.is_ok() {
            self.subs_per_partition[partition.index()] += 1;
        } else {
            // Roll back the bindings (PS cleanup logic).
            self.unbind(ids);
        }
        ProvisionOutcome {
            uid,
            partition,
            op: outcome,
        }
    }

    /// Derive a deterministic per-subscriber authentication key.
    fn ki_for(&self, uid: SubscriberUid) -> [u8; 16] {
        let mut ki = [0u8; 16];
        let bytes = uid.raw().to_be_bytes();
        ki[..8].copy_from_slice(&bytes);
        ki[8..].copy_from_slice(&bytes);
        ki
    }

    /// Modify service data of an existing subscription.
    pub fn modify_services(
        &mut self,
        identity: &Identity,
        mods: Vec<AttrMod>,
        ps_site: SiteId,
        now: SimTime,
    ) -> OpOutcome {
        self.modify_services_internal(identity, mods, ps_site, now, None)
    }

    /// [`Udr::modify_services`], framed like
    /// [`Udr::provision_subscriber_internal`].
    fn modify_services_internal(
        &mut self,
        identity: &Identity,
        mods: Vec<AttrMod>,
        ps_site: SiteId,
        now: SimTime,
        frame: Option<&mut FrameCursor>,
    ) -> OpOutcome {
        let op = LdapOp::Modify {
            dn: Dn::for_identity(*identity),
            mods,
        };
        self.execute_provisioning(&op, ProvisioningKind::ModifyServices, ps_site, now, frame)
    }

    /// Dispatch one provisioning op, framed when a batch frame is open.
    /// The op exercises the flow's [`Capability::Provisioning`], so
    /// tenant authorization treats the whole flow as one capability.
    fn execute_provisioning(
        &mut self,
        op: &LdapOp,
        kind: ProvisioningKind,
        ps_site: SiteId,
        now: SimTime,
        frame: Option<&mut FrameCursor>,
    ) -> OpOutcome {
        let mut req = OpRequest::new(op)
            .class(TxnClass::Provisioning)
            .site(ps_site)
            .at(now)
            .capability(Capability::Provisioning(kind));
        if let Some(frame) = frame {
            req = req.framed(frame);
        }
        self.execute(req).into_op()
    }

    /// Run a filtered search (the §1/§2.2 business-intelligence query
    /// path): returns the subscriber's entry only when it satisfies the
    /// RFC 4515 filter, projected to `attrs` when non-empty. Issued on the
    /// front-end class: BI readers share the FE read path and policies.
    pub fn search_filtered(
        &mut self,
        identity: &Identity,
        filter: udr_ldap::Filter,
        attrs: Vec<udr_model::attrs::AttrId>,
        from_site: SiteId,
        now: SimTime,
    ) -> OpOutcome {
        let op = LdapOp::SearchFilter {
            base: Dn::for_identity(*identity),
            filter,
            attrs,
        };
        self.execute(OpRequest::new(&op).site(from_site).at(now))
            .into_op()
    }

    /// Delete a subscription and all its identity bindings.
    pub fn delete_subscription(
        &mut self,
        ids: &IdentitySet,
        ps_site: SiteId,
        now: SimTime,
    ) -> OpOutcome {
        let identity: Identity = ids.imsi.into();
        let partition = self.authority.lookup(&identity).map(|l| l.partition);
        let op = LdapOp::Delete {
            dn: Dn::for_identity(identity),
        };
        let outcome = self.execute_provisioning(
            &op,
            ProvisioningKind::DeleteSubscription,
            ps_site,
            now,
            None,
        );
        if outcome.is_ok() {
            self.unbind(ids);
            if let Some(p) = partition {
                let slot = &mut self.subs_per_partition[p.index()];
                *slot = slot.saturating_sub(1);
            }
        }
        outcome
    }

    /// Remove every identity of `ids` from the deployment's table and from
    /// every cached stage.
    fn unbind(&mut self, ids: &IdentitySet) {
        for identity in ids.iter() {
            self.authority.remove(&identity);
            for cluster in &mut self.clusters {
                cluster.stage.invalidate_cache(&identity);
            }
        }
    }

    /// Fetch the location of an identity from the deployment's one
    /// identity table, which every provisioned stage resolves through once
    /// its sync window has ended. Unlike an operation, this reads no stage:
    /// no sync window, cache or ring is consulted.
    pub fn lookup_authority(&self, identity: &Identity) -> Option<udr_dls::Location> {
        self.authority.lookup(identity)
    }
}

// ---- batch provisioning (§3.3, §4.1) ----------------------------------------

/// One batch work item.
#[derive(Debug, Clone)]
pub enum BatchItem {
    /// Create a subscription.
    Create {
        /// The identities to provision.
        ids: IdentitySet,
        /// Home region for placement.
        home_region: u32,
    },
    /// Modify an existing subscription.
    Modify {
        /// The identity addressing the subscription.
        identity: Identity,
        /// The modifications.
        mods: Vec<AttrMod>,
    },
}

/// Outcome of a batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// Items submitted.
    pub submitted: usize,
    /// Items that eventually succeeded.
    pub succeeded: usize,
    /// Items that failed after exhausting retries — each needs the §4.1
    /// "send someone to check and apply manually" intervention.
    pub failed: usize,
    /// Total retry attempts performed.
    pub retries: u64,
    /// When the batch drained.
    pub finished_at: SimTime,
    /// Back-log depth over time (§3.3's PS back-log).
    pub backlog: TimeSeries,
}

impl BatchReport {
    /// Fraction of items requiring manual intervention.
    pub fn manual_intervention_fraction(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.failed as f64 / self.submitted as f64
        }
    }
}

impl Udr {
    /// Run a provisioning batch through the PS pipeline at `rate` items/s
    /// from `ps_site`, with retries per `policy`. Returns the §4.1-style
    /// report (how much of the batch survived a mid-run glitch).
    ///
    /// The PS frames each run of `access_chunk` dispatches into one
    /// request per station ([`udr_ldap::FramedBatch`]), amortising the
    /// per-message framing share for ops after the first on a station.
    /// `1` is the per-op wire shape: every dispatch opens and closes its
    /// own window, so framing never engages (`0` acts as `1`). The chunk
    /// leaves due instants, admission, retries and verdicts unchanged;
    /// the e12 campaign asserts so.
    ///
    /// A retry's backoff comes from [`RetryPolicy::backoff`]; a policy
    /// with jitter draws from the deployment's RNG, a
    /// [`RetryPolicy::fixed`] one draws nothing.
    pub fn run_provisioning_batch(
        &mut self,
        items: Vec<BatchItem>,
        rate: f64,
        start: SimTime,
        ps_site: SiteId,
        policy: RetryPolicy,
        access_chunk: usize,
    ) -> BatchReport {
        assert!(rate > 0.0, "batch rate must be positive");
        let submitted = items.len();
        let gap = SimDuration::from_secs_f64(1.0 / rate);
        // Min-heap over (due instant, tiebreak sequence, item index):
        // first tries and retries drain in one deterministic order.
        let mut heap: BinaryHeap<Reverse<(SimTime, usize, usize)>> = (0..submitted)
            .map(|idx| Reverse((start + gap * idx as u64, idx, idx)))
            .collect();
        // Failed attempts per item so far.
        let mut attempts = vec![0u32; submitted];
        let mut succeeded = 0usize;
        let mut failed = 0usize;
        let mut retries = 0u64;
        let mut backlog = TimeSeries::new();
        let mut next_seq = submitted;
        let mut finished_at = start;
        let mut sample_gate = start;
        let chunk = access_chunk.max(1);
        let mut frame = FrameCursor::new();
        let mut dispatched = 0usize;

        while let Some(Reverse((now, _, idx))) = heap.pop() {
            // A new framed window every `chunk` dispatches; chunk 1 resets
            // the frame before every op, which is exactly per-op framing.
            if dispatched.is_multiple_of(chunk) {
                frame.reset();
            }
            dispatched += 1;
            if now >= sample_gate {
                // Back-log = items already submitted (arrival time passed)
                // but not yet resolved; future arrivals don't count.
                let arrived = (now.duration_since(start).as_secs_f64() * rate)
                    .floor()
                    .min(submitted as f64) as usize;
                let resolved = succeeded + failed;
                backlog.push(now, arrived.saturating_sub(resolved) as f64);
                sample_gate = now + SimDuration::from_secs(1);
            }
            let framed = Some(&mut frame);
            let result = match &items[idx] {
                BatchItem::Create { ids, home_region } => self
                    .provision_subscriber_internal(ids, *home_region, ps_site, now, framed)
                    .op
                    .result
                    .map(drop),
                BatchItem::Modify { identity, mods } => self
                    .modify_services_internal(identity, mods.clone(), ps_site, now, framed)
                    .result
                    .map(drop),
            };
            finished_at = self.now().max(now);
            match result {
                Ok(()) => succeeded += 1,
                Err(e) if e.is_retryable() && policy.should_retry(attempts[idx]) => {
                    retries += 1;
                    let backoff = policy.backoff(attempts[idx], &mut self.rng);
                    attempts[idx] += 1;
                    heap.push(Reverse((now + backoff, next_seq, idx)));
                    next_seq += 1;
                }
                Err(_) => failed += 1,
            }
        }
        backlog.push(finished_at, 0.0);
        BatchReport {
            submitted,
            succeeded,
            failed,
            retries,
            finished_at,
            backlog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UdrConfig;
    use udr_dls::Location;
    use udr_model::identity::{Imsi, Msisdn};

    fn ids(n: u64) -> IdentitySet {
        IdentitySet {
            imsi: Imsi::new(format!("21401{n:010}")).unwrap(),
            msisdn: Msisdn::new(format!("346{n:08}")).unwrap(),
            impus: vec![],
            impi: None,
        }
    }

    /// The last uid the location tables hold is provisioned and resolves;
    /// the next is refused with a typed error and leaves no binding.
    #[test]
    fn provisioning_refuses_a_uid_past_48_bits() {
        let mut udr = Udr::build(UdrConfig::figure2()).unwrap();
        udr.next_uid = Location::MAX_UID;
        let at = SimTime::ZERO + SimDuration::from_secs(1);
        let last = udr.provision_subscriber(&ids(1), 0, SiteId(0), at);
        assert!(last.is_ok(), "{:?}", last.op.result);
        let found = udr.lookup_authority(&ids(1).imsi.into()).unwrap();
        assert_eq!(found.uid, SubscriberUid(Location::MAX_UID));
        assert_eq!(found.partition, last.partition);

        let past =
            udr.provision_subscriber(&ids(2), 0, SiteId(0), at + SimDuration::from_millis(5));
        assert_eq!(
            past.op.result.unwrap_err(),
            UdrError::UidSpaceExhausted(SubscriberUid(Location::MAX_UID + 1))
        );
        assert_eq!(udr.lookup_authority(&ids(2).imsi.into()), None);
        assert_eq!(udr.lookup_authority(&ids(2).msisdn.into()), None);
        assert_eq!(udr.total_subscribers(), 1);
    }
}
