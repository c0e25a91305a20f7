//! Asynchronous master→slave log shipping (§3.3.1 decision 2).
//!
//! The master streams commit records to each slave over a FIFO channel
//! (delivery order equals send order, like TCP); the slave applies them in
//! LSN order, preserving the master's serialization order (§3.2). Shipping
//! is asynchronous: commits never wait.
//!
//! Every record leaves in a batch, one message ([`BatchDelivery`]), through
//! [`AsyncShipper::flush_open`]. A commit joins the channel's open batch
//! ([`AsyncShipper::enqueue`]), which flushes when it reaches
//! [`ShipBatchConfig::max_records`] or when its linger timer fires
//! ([`AsyncShipper::flush_if_open`]); the default cap is one, so each
//! commit ships at once as a batch of one. A catch-up pass
//! ([`AsyncShipper::catch_up`]) is one more sender: it ships, as one batch,
//! what the channel has not yet put in flight, taken from the master's log.
//!
//! A record ships once unless its message is lost. A batch lost at send
//! (the slave is unreachable) stalls the channel; a batch lost on arrival
//! (the slave is down or cut off) rewinds it to the slave's confirmed
//! position ([`AsyncShipper::rewind`]). Either way the next catch-up pass
//! ships the rest from the master's log, which must therefore reach back to
//! the record after each channel's confirmed position
//! ([`AsyncShipper::applied`]); the deployment truncates it no further than
//! that.
//!
//! A learner is a channel like a slave's for a copy that is not a group
//! member: a migration target catching up before its cutover
//! ([`AsyncShipper::register_learner`]). It hears every commit, is caught
//! up and reseeded, and holds the log back as a slave does; it counts
//! toward no acknowledgement and serves no read.
//!
//! Shipping recycles its batch vectors: a delivered batch hands its
//! emptied record vector back ([`AsyncShipper::recycle`]), and the next
//! flush on any of the shipper's channels takes a returned vector before it
//! allocates one, so a steady stream of batches allocates no batch vector.

use std::collections::BTreeSet;

use udr_model::ids::{IdMap, SeId};
use udr_model::time::{SimDuration, SimTime};
use udr_storage::{CommitRecord, Engine, Lsn};

/// Knobs for coalescing shipped records into batches (one network message
/// per batch instead of one per commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipBatchConfig {
    /// Flush a channel's open batch once it holds this many records.
    pub max_records: usize,
    /// Flush an open batch this long after its first record was enqueued,
    /// even if not full.
    pub linger: SimDuration,
}

impl ShipBatchConfig {
    /// The default: a cap of one record and no linger, so every commit
    /// ships at once as a batch of one.
    pub const fn per_record() -> Self {
        ShipBatchConfig {
            max_records: 1,
            linger: SimDuration::ZERO,
        }
    }

    /// Coalesce up to `max_records` commits or `linger`, whichever first.
    pub const fn coalesce(max_records: usize, linger: SimDuration) -> Self {
        ShipBatchConfig {
            max_records,
            linger,
        }
    }
}

impl Default for ShipBatchConfig {
    fn default() -> Self {
        ShipBatchConfig::per_record()
    }
}

/// Per-slave FIFO shipping state.
#[derive(Debug, Clone, Default)]
struct Channel {
    /// Highest LSN this slave has applied (confirmed).
    applied: Lsn,
    /// Highest LSN put in flight to the slave and not known lost.
    inflight: Lsn,
    /// Arrival instant of the last in-flight record (FIFO clamp).
    last_arrival: SimTime,
    /// Records coalescing in the currently open batch.
    pending: Vec<CommitRecord>,
    /// Highest LSN accepted into `pending` (== `inflight` when empty).
    enqueued: Lsn,
    /// Open-batch generation; guards stale linger timers.
    batch_seq: u64,
    /// Trace ID of the operation that opened the current batch (0 =
    /// untraced); rides the flushed [`BatchDelivery`] so the delivery can
    /// be attributed to the commit that started the coalescing window.
    open_trace: u64,
}

/// The shipping ledger for one replication group.
#[derive(Debug, Clone, Default)]
pub struct AsyncShipper {
    channels: IdMap<SeId, Channel>,
    /// Slaves explicitly drained from the group. A drained slave's channel
    /// is gone for good: stray [`AsyncShipper::reseeded`] confirmations or
    /// in-flight delivery acks must not resurrect it, or the periodic
    /// catch-up pass would retry its pending suffix forever.
    drained: BTreeSet<SeId>,
    /// The channels that belong to learners, in registration order.
    learners: Vec<SeId>,
    /// Emptied batch vectors handed back by delivered batches, for the
    /// next flushes to reuse.
    spares: Vec<Vec<CommitRecord>>,
    /// Records shipped (including re-ships).
    pub shipped: u64,
    /// Batches flushed, including batches of one.
    pub batches: u64,
}

/// A planned batched delivery: apply `records` (contiguous LSNs, in order)
/// on `slave` when the single batch message arrives at `arrives`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDelivery {
    /// Destination slave SE.
    pub slave: SeId,
    /// The coalesced records, in LSN order.
    pub records: Vec<CommitRecord>,
    /// Virtual arrival instant of the whole batch.
    pub arrives: SimTime,
    /// Trace ID of the operation that opened the batch (0 = untraced).
    pub trace: u64,
}

/// Outcome of enqueueing a record into a channel's open batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The record opened a new batch; schedule a linger flush carrying
    /// this sequence number.
    Opened {
        /// Generation of the batch just opened.
        seq: u64,
    },
    /// The record joined the already-open batch.
    Joined,
    /// The record filled the batch to its cap; flush now via
    /// [`AsyncShipper::flush_open`].
    Full,
    /// Refused: unknown channel or out-of-sequence record (catch-up will
    /// ship it from the log).
    Refused,
}

impl AsyncShipper {
    /// A shipper with no slaves registered yet.
    pub fn new() -> Self {
        AsyncShipper::default()
    }

    /// Register a slave channel starting from `applied` (what the slave
    /// already has, e.g. from a seed snapshot). Explicit registration is
    /// the only way back in for a previously drained slave.
    pub fn register_slave(&mut self, slave: SeId, applied: Lsn) {
        self.drained.remove(&slave);
        self.channels.insert(
            slave,
            Channel {
                applied,
                inflight: applied,
                last_arrival: SimTime::ZERO,
                pending: Vec::new(),
                enqueued: applied,
                batch_seq: 0,
                open_trace: 0,
            },
        );
    }

    /// Register a learner channel starting from `applied`: a slave's
    /// channel for a copy outside the group, which the owner ships every
    /// commit to and catches up after the group's slaves.
    pub fn register_learner(&mut self, learner: SeId, applied: Lsn) {
        self.register_slave(learner, applied);
        if !self.learners.contains(&learner) {
            self.learners.push(learner);
        }
    }

    /// The registered learners, in registration order.
    pub fn learners(&self) -> &[SeId] {
        &self.learners
    }

    /// A learner joins the group as a slave; its channel carries on.
    pub fn promote_learner(&mut self, learner: SeId) {
        self.learners.retain(|l| *l != learner);
    }

    /// Drain a slave or learner (member left the group, e.g. migrated away
    /// or decommissioned, or a move was abandoned): its channel and any
    /// pending re-ship bookkeeping are dropped, and it is tombstoned so late
    /// [`AsyncShipper::reseeded`] confirmations cannot re-create the
    /// channel behind the group's back. Returns how many records were
    /// still pending (un-acked) on the dropped channel.
    pub fn unregister_slave(&mut self, slave: SeId) -> u64 {
        self.drained.insert(slave);
        self.learners.retain(|l| *l != slave);
        match self.channels.remove(&slave) {
            Some(ch) => {
                ch.inflight.raw().saturating_sub(ch.applied.raw()) + ch.pending.len() as u64
            }
            None => 0,
        }
    }

    /// Every registered channel's SE: the slaves' and the learners'.
    pub fn slaves(&self) -> impl Iterator<Item = SeId> + '_ {
        self.channels.keys().copied()
    }

    /// The highest LSN `slave` has confirmed applied.
    pub fn applied(&self, slave: SeId) -> Option<Lsn> {
        self.channels.get(&slave).map(|c| c.applied)
    }

    /// Confirm that `slave` applied everything through `lsn`.
    pub fn on_applied(&mut self, slave: SeId, lsn: Lsn) {
        if let Some(ch) = self.channels.get_mut(&slave) {
            ch.applied = ch.applied.max(lsn);
            ch.inflight = ch.inflight.max(lsn);
            ch.enqueued = ch.enqueued.max(lsn);
        }
    }

    /// Enqueue a just-committed record into `slave`'s open batch. The
    /// record must be the exact next LSN the channel expects; anything else
    /// is refused and left to catch-up. Reachability is evaluated when the
    /// batch flushes, not here.
    pub fn enqueue(
        &mut self,
        slave: SeId,
        record: &CommitRecord,
        cfg: &ShipBatchConfig,
    ) -> Enqueue {
        let Some(ch) = self.channels.get_mut(&slave) else {
            return Enqueue::Refused;
        };
        if record.lsn != ch.enqueued.next() {
            return Enqueue::Refused;
        }
        let opened = ch.pending.is_empty();
        ch.pending.push(record.clone());
        ch.enqueued = record.lsn;
        if opened {
            ch.batch_seq += 1;
            ch.open_trace = 0;
        }
        if ch.pending.len() >= cfg.max_records.max(1) {
            Enqueue::Full
        } else if opened {
            Enqueue::Opened { seq: ch.batch_seq }
        } else {
            Enqueue::Joined
        }
    }

    /// Attribute the currently open batch on `slave`'s channel to a trace
    /// (the operation whose commit opened it). A no-op for unknown
    /// channels or when nothing is coalescing.
    pub fn stamp_open_trace(&mut self, slave: SeId, trace: u64) {
        if let Some(ch) = self.channels.get_mut(&slave) {
            if !ch.pending.is_empty() {
                ch.open_trace = trace;
            }
        }
    }

    /// Flush `slave`'s open batch unconditionally (cap reached). `delay` is
    /// the sampled network delay for the single batch message; `None`
    /// (unreachable) drops the batch and stalls the channel — catch-up
    /// ships the records from the master's log.
    pub fn flush_open(
        &mut self,
        slave: SeId,
        now: SimTime,
        delay: Option<SimDuration>,
    ) -> Option<BatchDelivery> {
        let ch = self.channels.get_mut(&slave)?;
        if ch.pending.is_empty() {
            return None;
        }
        let Some(delay) = delay else {
            // Stall: the records stay in the master's log only.
            ch.pending.clear();
            ch.enqueued = ch.inflight;
            ch.open_trace = 0;
            return None;
        };
        let arrives = (now + delay).max(ch.last_arrival);
        // A recycled vector if a delivered batch returned one; else room
        // for a batch as long as this one, the likeliest next length.
        let room = ch.pending.len();
        let next = self
            .spares
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(room));
        let records = std::mem::replace(&mut ch.pending, next);
        let trace = std::mem::take(&mut ch.open_trace);
        let last = records.last().expect("non-empty batch").lsn;
        ch.inflight = last;
        ch.enqueued = last;
        ch.last_arrival = arrives;
        self.shipped += records.len() as u64;
        self.batches += 1;
        Some(BatchDelivery {
            slave,
            records,
            arrives,
            trace,
        })
    }

    /// Take back a delivered batch's record vector for a later flush to
    /// reuse; whatever it still holds is dropped.
    pub fn recycle(&mut self, mut records: Vec<CommitRecord>) {
        records.clear();
        self.spares.push(records);
    }

    /// Flush `slave`'s open batch only if it is still generation `seq`
    /// (linger timer fired). A batch that already flushed at its cap — or a
    /// channel rebuilt since — ignores the stale timer.
    pub fn flush_if_open(
        &mut self,
        slave: SeId,
        seq: u64,
        now: SimTime,
        delay: Option<SimDuration>,
    ) -> Option<BatchDelivery> {
        let ch = self.channels.get(&slave)?;
        if ch.pending.is_empty() || ch.batch_seq != seq {
            return None;
        }
        self.flush_open(slave, now, delay)
    }

    /// A catch-up pass for `slave`: ship, as one batch, every record the
    /// master's log holds beyond what the channel has put in flight. The
    /// batch absorbs the open one, so FIFO order holds, and travels
    /// untraced. `delay` samples the path for its message and is called only
    /// when something is unshipped; `None` (unreachable) stalls the channel
    /// as a lost flush does.
    ///
    /// Returns `None` when the channel is unknown or has nothing unshipped,
    /// and when the master's log no longer reaches the record after the
    /// in-flight position (callers detect that gap via
    /// [`AsyncShipper::needs_reseed`]).
    pub fn catch_up(
        &mut self,
        slave: SeId,
        master: &Engine,
        now: SimTime,
        delay: impl FnOnce() -> Option<SimDuration>,
    ) -> Option<BatchDelivery> {
        let ch = self.channels.get_mut(&slave)?;
        if ch.inflight >= master.last_lsn() {
            return None;
        }
        let delay = delay();
        let mut records = master.log().since(ch.inflight).peekable();
        if records.peek().map(|r| r.lsn) != Some(ch.inflight.next()) {
            return None;
        }
        ch.pending.clear();
        ch.pending.extend(records.cloned());
        ch.open_trace = 0;
        self.flush_open(slave, now, delay)
    }

    /// Rewind `slave`'s channel to its confirmed position if `batch`, which
    /// has just arrived, was lost: it began at or below the next record the
    /// slave lacks, yet the slave did not reach its last record (it was down
    /// or cut off from the master). The open batch is dropped as well, and
    /// the next catch-up pass ships from the confirmed position. A batch that
    /// began above that record was stranded behind an earlier lost one,
    /// whose rewind already covers it; rewinding again could send a second
    /// copy of a catch-up batch still in flight.
    pub fn rewind(&mut self, slave: SeId, batch: &[CommitRecord]) {
        let Some(ch) = self.channels.get_mut(&slave) else {
            return;
        };
        let (Some(first), Some(last)) = (batch.first(), batch.last()) else {
            return;
        };
        if ch.applied >= last.lsn || first.lsn > ch.applied.next() {
            return;
        }
        ch.inflight = ch.applied;
        ch.enqueued = ch.applied;
        ch.pending.clear();
        ch.open_trace = 0;
    }

    /// Whether the master can no longer serve the suffix the slave needs
    /// (log truncated past the slave's applied LSN) so a snapshot reseed is
    /// the only way to resync.
    pub fn needs_reseed(&self, slave: SeId, master: &Engine) -> bool {
        let Some(ch) = self.channels.get(&slave) else {
            return false;
        };
        if ch.applied >= master.last_lsn() {
            return false;
        }
        match master.log().first_retained() {
            Some(first) => first > ch.applied.next(),
            // Log empty but master LSN ahead: everything truncated.
            None => true,
        }
    }

    /// Reset a channel after reseeding the slave from a snapshot at `lsn`.
    /// A confirmation for a slave that was drained in the meantime is
    /// dropped — only [`AsyncShipper::register_slave`] readmits it.
    pub fn reseeded(&mut self, slave: SeId, lsn: Lsn) {
        if self.drained.contains(&slave) {
            return;
        }
        self.register_slave(slave, lsn);
    }

    /// Replication lag of `slave` behind the master, in LSNs.
    pub fn lag(&self, slave: SeId, master: &Engine) -> Option<u64> {
        let ch = self.channels.get(&slave)?;
        Some(master.last_lsn().raw().saturating_sub(ch.applied.raw()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::attrs::{AttrId, Entry};
    use udr_model::config::IsolationLevel;
    use udr_model::ids::SubscriberUid;

    /// One catch-up pass; `None` when it shipped nothing.
    fn caught_up(
        shipper: &mut AsyncShipper,
        slave: SeId,
        master: &Engine,
        now: SimTime,
        delay: Option<SimDuration>,
    ) -> Option<BatchDelivery> {
        shipper.catch_up(slave, master, now, || delay)
    }

    fn lsns(records: &[CommitRecord]) -> Vec<u64> {
        records.iter().map(|r| r.lsn.raw()).collect()
    }

    fn commit_n(engine: &mut Engine, n: u64) -> Vec<CommitRecord> {
        (0..n)
            .map(|i| {
                let t = engine.begin(IsolationLevel::ReadCommitted);
                let mut e = Entry::new();
                e.set(AttrId::OdbMask, i);
                engine.put(t, SubscriberUid(i), e).unwrap();
                engine.commit(t, SimTime(i)).unwrap().unwrap()
            })
            .collect()
    }

    /// Ship one record the way a commit does at the default cap: it fills
    /// its batch, which flushes at once.
    fn ship_one(
        shipper: &mut AsyncShipper,
        slave: SeId,
        record: &CommitRecord,
        now: SimTime,
        delay: Option<SimDuration>,
    ) -> Option<BatchDelivery> {
        match shipper.enqueue(slave, record, &ShipBatchConfig::per_record()) {
            Enqueue::Full => shipper.flush_open(slave, now, delay),
            _ => None,
        }
    }

    #[test]
    fn ship_in_order_with_fifo_clamp() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 2);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);

        // First record: 10 ms delay.
        let d1 = ship_one(
            &mut shipper,
            SeId(1),
            &recs[0],
            SimTime(0),
            Some(SimDuration::from_millis(10)),
        )
        .unwrap();
        // Second record sent 1 ms later but sampled a 2 ms delay: FIFO
        // clamps its arrival to the first's instead of 3 ms.
        let d2 = ship_one(
            &mut shipper,
            SeId(1),
            &recs[1],
            SimTime(1_000_000),
            Some(SimDuration::from_millis(2)),
        )
        .unwrap();
        assert_eq!(d1.arrives, SimTime(10_000_000));
        assert_eq!(d2.arrives, d1.arrives);
        assert_eq!((d1.records.len(), d2.records.len()), (1, 1));
        assert_eq!(d2.records[0].lsn, Lsn(2));
    }

    #[test]
    fn stalled_channel_catches_up() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 5);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);

        // Partition: the first ship attempt fails (None delay), channel stalls.
        assert!(ship_one(&mut shipper, SeId(1), &recs[0], SimTime(0), None).is_none());
        assert_eq!(shipper.lag(SeId(1), &master), Some(5));

        // Heal: catch-up ships the full suffix in order, as one batch.
        let batch = caught_up(
            &mut shipper,
            SeId(1),
            &master,
            SimTime(100),
            Some(SimDuration::from_millis(10)),
        )
        .unwrap();
        assert_eq!(lsns(&batch.records), [1, 2, 3, 4, 5]);
        assert_eq!(batch.arrives, SimTime(10_000_100));
        assert_eq!((shipper.shipped, shipper.batches), (5, 1));
        // Apply + confirm.
        let mut slave = Engine::new(SeId(1));
        for r in &batch.records {
            slave.apply_replicated(r).unwrap();
        }
        shipper.on_applied(SeId(1), Lsn(5));
        assert_eq!(shipper.lag(SeId(1), &master), Some(0));
    }

    #[test]
    fn a_catch_up_pass_ships_only_what_is_not_in_flight() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 5);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        let cfg = ShipBatchConfig::coalesce(8, SimDuration::from_millis(5));
        let delay = Some(SimDuration::from_millis(2));
        // LSNs 1-2 are in flight, 3-4 coalesce in the open batch and 5 was
        // refused (out of sequence): only 3-5 are unshipped.
        for r in &recs[..2] {
            shipper.enqueue(SeId(1), r, &cfg);
        }
        let in_flight = shipper.flush_open(SeId(1), SimTime(0), delay).unwrap();
        for r in &recs[2..4] {
            shipper.enqueue(SeId(1), r, &cfg);
        }
        let batch = caught_up(&mut shipper, SeId(1), &master, SimTime(1), delay).unwrap();
        assert_eq!(lsns(&batch.records), [3, 4, 5]);
        assert_eq!(batch.arrives, SimTime(2_000_001));
        assert_eq!((shipper.shipped, shipper.batches), (5, 2));
        // Everything is in flight: the next pass ships nothing and does not
        // sample the path.
        let pass = shipper.catch_up(SeId(1), &master, SimTime(2), || {
            panic!("a pass with nothing unshipped sampled the path")
        });
        assert!(pass.is_none());
        // The superseded open batch's linger timer is a stale no-op.
        assert!(shipper
            .flush_if_open(SeId(1), 2, SimTime(3), delay)
            .is_none());
        assert_eq!(lsns(&in_flight.records), [1, 2]);
    }

    #[test]
    fn catch_up_noop_when_current() {
        let mut master = Engine::new(SeId(0));
        commit_n(&mut master, 2);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn(2));
        assert!(caught_up(
            &mut shipper,
            SeId(1),
            &master,
            SimTime(0),
            Some(SimDuration::ZERO)
        )
        .is_none());
    }

    #[test]
    fn truncated_log_requires_reseed() {
        let mut master = Engine::new(SeId(0));
        commit_n(&mut master, 5);
        master.truncate_log(Lsn(3));
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn(1));

        assert!(shipper.needs_reseed(SeId(1), &master));
        assert!(caught_up(
            &mut shipper,
            SeId(1),
            &master,
            SimTime(0),
            Some(SimDuration::ZERO)
        )
        .is_none());

        // Reseed from snapshot, then no more reseed needed.
        shipper.reseeded(SeId(1), master.last_lsn());
        assert!(!shipper.needs_reseed(SeId(1), &master));
        assert_eq!(shipper.lag(SeId(1), &master), Some(0));
    }

    #[test]
    fn slave_within_retained_log_does_not_need_reseed() {
        let mut master = Engine::new(SeId(0));
        commit_n(&mut master, 5);
        master.truncate_log(Lsn(2));
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn(2));
        assert!(!shipper.needs_reseed(SeId(1), &master));
        let batch = caught_up(
            &mut shipper,
            SeId(1),
            &master,
            SimTime(0),
            Some(SimDuration::ZERO),
        )
        .unwrap();
        assert_eq!(lsns(&batch.records), [3, 4, 5]);
    }

    /// Regression: draining a slave mid-stall must drop its pending
    /// deliveries for good. Before the tombstone, a late `reseeded`
    /// confirmation re-created the channel and every subsequent
    /// catch-up pass shipped the suffix to a slave that had already
    /// left the group — retried forever by `CatchupTick`.
    #[test]
    fn drained_slave_stays_drained() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 4);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);

        // Stall the channel (partition: ship fails), then drain the slave.
        assert!(ship_one(&mut shipper, SeId(1), &recs[0], SimTime(0), None).is_none());
        let pending = shipper.unregister_slave(SeId(1));
        assert_eq!(pending, 0); // nothing in flight, 4 unshipped
        assert_eq!(shipper.slaves().count(), 0);

        // A stray reseed confirmation from before the drain arrives late:
        // it must NOT resurrect the channel.
        shipper.reseeded(SeId(1), Lsn(2));
        assert!(shipper.applied(SeId(1)).is_none());
        assert!(!shipper.needs_reseed(SeId(1), &master));

        // Catch-up passes ship nothing to the drained slave, forever.
        for t in 0..3 {
            assert!(caught_up(
                &mut shipper,
                SeId(1),
                &master,
                SimTime(t),
                Some(SimDuration::ZERO)
            )
            .is_none());
        }
        assert_eq!(shipper.shipped, 0);

        // Explicit re-registration (the slave re-joins the group) is the
        // only way back in.
        shipper.register_slave(SeId(1), Lsn(1));
        let batch = caught_up(
            &mut shipper,
            SeId(1),
            &master,
            SimTime(9),
            Some(SimDuration::ZERO),
        )
        .unwrap();
        assert_eq!(lsns(&batch.records), [2, 3, 4]);
    }

    #[test]
    fn unregister_reports_inflight_pending() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 2);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        // Two records in flight, none acked.
        for r in &recs {
            assert!(ship_one(
                &mut shipper,
                SeId(1),
                r,
                SimTime(0),
                Some(SimDuration::from_millis(5))
            )
            .is_some());
        }
        assert_eq!(shipper.unregister_slave(SeId(1)), 2);
    }

    #[test]
    fn batch_flushes_at_cap() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 5);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        let cfg = ShipBatchConfig::coalesce(3, SimDuration::from_millis(5));

        assert_eq!(
            shipper.enqueue(SeId(1), &recs[0], &cfg),
            Enqueue::Opened { seq: 1 }
        );
        assert_eq!(shipper.enqueue(SeId(1), &recs[1], &cfg), Enqueue::Joined);
        assert_eq!(shipper.enqueue(SeId(1), &recs[2], &cfg), Enqueue::Full);
        let batch = shipper
            .flush_open(SeId(1), SimTime(10), Some(SimDuration::from_millis(2)))
            .unwrap();
        assert_eq!(batch.records.len(), 3);
        assert_eq!(
            batch.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![Lsn(1), Lsn(2), Lsn(3)]
        );
        assert_eq!(shipper.shipped, 3);
        assert_eq!(shipper.batches, 1);

        // The stale linger timer for the flushed batch is a no-op.
        assert!(shipper
            .flush_if_open(SeId(1), 1, SimTime(20), Some(SimDuration::ZERO))
            .is_none());

        // Apply the batch on a slave and confirm the tail LSN.
        let mut slave = Engine::new(SeId(1));
        for r in &batch.records {
            slave.apply_replicated(r).unwrap();
        }
        shipper.on_applied(SeId(1), batch.records.last().unwrap().lsn);
        assert_eq!(shipper.applied(SeId(1)), Some(Lsn(3)));
        assert_eq!(shipper.lag(SeId(1), &master), Some(2));
    }

    #[test]
    fn linger_timer_flushes_partial_batch() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 2);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        let cfg = ShipBatchConfig::coalesce(10, SimDuration::from_millis(5));

        let Enqueue::Opened { seq } = shipper.enqueue(SeId(1), &recs[0], &cfg) else {
            panic!("expected Opened");
        };
        assert_eq!(shipper.enqueue(SeId(1), &recs[1], &cfg), Enqueue::Joined);
        let batch = shipper
            .flush_if_open(
                SeId(1),
                seq,
                SimTime(5_000_000),
                Some(SimDuration::from_millis(1)),
            )
            .unwrap();
        assert_eq!(batch.records.len(), 2);
        // Nothing left pending: a second timer with the same seq no-ops.
        assert!(shipper
            .flush_if_open(SeId(1), seq, SimTime(6_000_000), Some(SimDuration::ZERO))
            .is_none());
    }

    #[test]
    fn unreachable_flush_stalls_then_catch_up_reships() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 3);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        let cfg = ShipBatchConfig::coalesce(3, SimDuration::from_millis(5));

        for r in &recs[..2] {
            shipper.enqueue(SeId(1), r, &cfg);
        }
        // Partitioned at flush time: the batch is dropped, channel stalls.
        assert!(shipper.flush_open(SeId(1), SimTime(10), None).is_none());
        assert_eq!(shipper.shipped, 0);
        // The next commit is no longer the expected next enqueue? It is:
        // the stall reset the channel to the inflight position (0), so LSN 1
        // re-opens a batch.
        assert_eq!(
            shipper.enqueue(SeId(1), &recs[0], &cfg),
            Enqueue::Opened { seq: 2 }
        );
        // Heal: catch-up ships everything from the log, absorbing the open
        // batch.
        let batch = caught_up(
            &mut shipper,
            SeId(1),
            &master,
            SimTime(100),
            Some(SimDuration::from_millis(1)),
        )
        .unwrap();
        assert_eq!(lsns(&batch.records), [1, 2, 3]);
        // The superseded batch's timer is now a stale no-op.
        assert!(shipper
            .flush_if_open(SeId(1), 2, SimTime(200), Some(SimDuration::ZERO))
            .is_none());
    }

    #[test]
    fn out_of_sequence_enqueue_refused() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 2);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        let cfg = ShipBatchConfig::coalesce(4, SimDuration::from_millis(5));
        assert_eq!(shipper.enqueue(SeId(1), &recs[1], &cfg), Enqueue::Refused);
        assert_eq!(shipper.enqueue(SeId(9), &recs[0], &cfg), Enqueue::Refused);
        // A refusal leaves the channel as it was: the next record still opens.
        assert_eq!(
            shipper.enqueue(SeId(1), &recs[0], &cfg),
            Enqueue::Opened { seq: 1 }
        );
    }

    #[test]
    fn per_record_config_flushes_every_enqueue() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 2);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        let cfg = ShipBatchConfig::per_record();
        for r in &recs {
            assert_eq!(shipper.enqueue(SeId(1), r, &cfg), Enqueue::Full);
            let b = shipper
                .flush_open(SeId(1), SimTime(0), Some(SimDuration::ZERO))
                .unwrap();
            assert_eq!(b.records.len(), 1);
        }
        assert_eq!(shipper.batches, 2);
        assert_eq!(shipper.shipped, 2);
    }

    #[test]
    fn a_flush_reuses_a_delivered_batch_vector() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 6);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        shipper.register_slave(SeId(2), Lsn::ZERO);
        let cfg = ShipBatchConfig::coalesce(2, SimDuration::from_millis(5));
        let delay = Some(SimDuration::from_millis(1));
        let flush = |shipper: &mut AsyncShipper, slave, recs: &[CommitRecord]| {
            for r in recs {
                shipper.enqueue(slave, r, &cfg);
            }
            shipper
                .flush_open(slave, SimTime(0), delay)
                .unwrap()
                .records
        };

        // Nothing delivered yet: each flush allocates its own vector.
        let first = flush(&mut shipper, SeId(1), &recs[..2]);
        let other = flush(&mut shipper, SeId(2), &recs[..2]);
        assert_eq!(shipper.spares.len(), 0);

        // Delivered and handed back: the next flush, on either channel,
        // takes it as the channel's open batch, and the batch after ships
        // in that buffer.
        let buffer = first.as_ptr();
        shipper.recycle(first);
        assert_eq!(shipper.spares.len(), 1);
        let next = flush(&mut shipper, SeId(2), &recs[2..4]);
        assert_eq!(shipper.spares.len(), 0);
        let again = flush(&mut shipper, SeId(2), &recs[4..6]);
        assert!(
            std::ptr::eq(again.as_ptr(), buffer),
            "the buffer was not reused"
        );
        assert_eq!(
            again.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            [Lsn(5), Lsn(6)]
        );

        // The shipper holds at most one spare per delivered batch.
        for (delivered, batch) in [other, next, again].into_iter().enumerate() {
            shipper.recycle(batch);
            assert!(shipper.spares.len() <= delivered + 1);
        }
    }

    #[test]
    fn a_batch_lost_on_arrival_rewinds_the_channel() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 6);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        let cfg = ShipBatchConfig::coalesce(2, SimDuration::from_millis(5));
        let delay = Some(SimDuration::from_millis(1));
        let flush = |shipper: &mut AsyncShipper, pair: &[CommitRecord]| {
            for r in pair {
                shipper.enqueue(SeId(1), r, &cfg);
            }
            shipper.flush_open(SeId(1), SimTime(0), delay).unwrap()
        };
        let first = flush(&mut shipper, &recs[..2]);
        let second = flush(&mut shipper, &recs[2..4]);
        assert_eq!(
            shipper.enqueue(SeId(1), &recs[4], &cfg),
            Enqueue::Opened { seq: 3 }
        );
        // The first batch arrives at a down slave: the channel rewinds to
        // the confirmed 0 and drops the open batch, so the next commit is
        // out of sequence and the pass ships everything as one batch.
        shipper.rewind(SeId(1), &first.records);
        assert_eq!(shipper.enqueue(SeId(1), &recs[5], &cfg), Enqueue::Refused);
        let resent = caught_up(&mut shipper, SeId(1), &master, SimTime(1), delay).unwrap();
        assert_eq!(lsns(&resent.records), [1, 2, 3, 4, 5, 6]);
        // The second batch, stranded behind the lost one, does not rewind
        // again while the catch-up batch is in flight.
        shipper.rewind(SeId(1), &second.records);
        assert!(caught_up(&mut shipper, SeId(1), &master, SimTime(2), delay).is_none());
        // Nor does a batch the slave applied in full.
        shipper.on_applied(SeId(1), Lsn(6));
        shipper.rewind(SeId(1), &resent.records);
        assert_eq!(shipper.lag(SeId(1), &master), Some(0));
        assert!(caught_up(&mut shipper, SeId(1), &master, SimTime(3), delay).is_none());
        assert_eq!(shipper.shipped, 4 + 6);
    }

    #[test]
    fn a_learner_is_a_channel_until_promoted_or_dropped() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 3);
        let mut shipper = AsyncShipper::new();
        shipper.register_slave(SeId(1), Lsn::ZERO);
        shipper.register_learner(SeId(2), Lsn(1));
        shipper.register_learner(SeId(2), Lsn(1));
        assert_eq!(shipper.learners(), [SeId(2)]);
        assert_eq!(shipper.slaves().count(), 2);
        // It takes the next commit as a slave does.
        let batch = ship_one(
            &mut shipper,
            SeId(2),
            &recs[1],
            SimTime(0),
            Some(SimDuration::ZERO),
        );
        assert_eq!(lsns(&batch.unwrap().records), [2]);
        // Promoted, it keeps its channel; dropped, it holds nothing.
        shipper.promote_learner(SeId(2));
        assert!(shipper.learners().is_empty());
        assert_eq!(shipper.applied(SeId(2)), Some(Lsn(1)));
        shipper.register_learner(SeId(3), Lsn(3));
        shipper.unregister_slave(SeId(3));
        assert!(shipper.learners().is_empty());
        assert!(shipper.applied(SeId(3)).is_none());
    }

    #[test]
    fn unregistered_slave_is_ignored() {
        let mut master = Engine::new(SeId(0));
        let recs = commit_n(&mut master, 1);
        let mut shipper = AsyncShipper::new();
        assert!(ship_one(
            &mut shipper,
            SeId(9),
            &recs[0],
            SimTime(0),
            Some(SimDuration::ZERO)
        )
        .is_none());
        assert!(shipper.applied(SeId(9)).is_none());
        assert!(!shipper.needs_reseed(SeId(9), &master));
    }
}
