//! Per-key linearizability checking for campaign histories.
//!
//! The consensus CAP campaign (e25) records every read and write a cell
//! issues against each subscriber as an interval operation — invocation
//! time, response time, value — and this module decides whether each
//! per-key history is linearizable against a single-register sequential
//! specification (the Wing & Gong search, memoised).
//!
//! The model:
//!
//! * every write carries a **unique** value, so a read names exactly the
//!   write it observed;
//! * an operation whose response never arrived (a timed-out write) is
//!   *pending*: its interval is `[inv, ∞)`, it may linearize at any point
//!   after invocation **or never take effect at all** — both futures are
//!   legal, which is exactly the "zombie write" a naive monotone oracle
//!   misjudges;
//! * failed reads are not recorded (they observed nothing).
//!
//! Histories are capped at 64 operations per key so the remaining-set
//! fits a `u64` bitmask; campaigns size their traffic accordingly.

use std::collections::{BTreeMap, HashSet};

use udr_model::time::SimTime;

/// What a recorded operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A read that returned the register value.
    Read(u64),
    /// A write of a value unique within the key's history.
    Write(u64),
}

/// One operation in a single-register history.
#[derive(Debug, Clone, Copy)]
pub struct HistOp {
    /// Invocation time.
    pub inv: SimTime,
    /// Response time; `None` marks an operation that never returned to
    /// the client and may (or may not) still take effect — only writes
    /// can be pending.
    pub resp: Option<SimTime>,
    /// The operation performed.
    pub kind: OpKind,
}

/// Interval histories for many keys, each checked independently (the
/// store is linearizable iff every single-key projection is — operations
/// on distinct keys commute).
#[derive(Debug, Default)]
pub struct History {
    keys: BTreeMap<usize, (u64, Vec<HistOp>)>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Set the initial register value for `key` (defaults to 0).
    pub fn set_initial(&mut self, key: usize, value: u64) {
        self.keys.entry(key).or_default().0 = value;
    }

    /// Append an operation to `key`'s history.
    pub fn record(&mut self, key: usize, op: HistOp) {
        self.keys.entry(key).or_default().1.push(op);
    }

    /// Total recorded operations across all keys.
    pub fn len(&self) -> usize {
        self.keys.values().map(|(_, ops)| ops.len()).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check every key's history; the error names the first key that
    /// fails and why.
    pub fn check(&self) -> Result<(), String> {
        for (key, (initial, ops)) in &self.keys {
            check_key(ops, *initial).map_err(|e| format!("key {key}: {e}"))?;
        }
        Ok(())
    }
}

/// Decide whether one single-register history is linearizable starting
/// from `initial`.
///
/// Classic Wing & Gong: repeatedly pick a *minimal* remaining operation
/// (one that no other remaining operation strictly precedes in real
/// time), apply it to the register, recurse; memoise failed
/// (remaining-set, register-value) states. A schedule is accepted once
/// every remaining operation is a pending write — those are allowed to
/// never take effect.
fn check_key(ops: &[HistOp], initial: u64) -> Result<(), String> {
    if ops.len() > 64 {
        return Err(format!(
            "history of {} ops exceeds the 64-op cap",
            ops.len()
        ));
    }
    let mut write_values = HashSet::new();
    for op in ops {
        match op.kind {
            OpKind::Write(v) => {
                if !write_values.insert(v) {
                    return Err(format!("write value {v} is not unique"));
                }
            }
            OpKind::Read(_) => {
                if op.resp.is_none() {
                    return Err("a read cannot be pending".into());
                }
            }
        }
    }
    let full: u64 = if ops.len() == 64 {
        u64::MAX
    } else {
        (1u64 << ops.len()) - 1
    };
    let mut failed = HashSet::new();
    if search(ops, full, initial, &mut failed) {
        Ok(())
    } else {
        Err(format!(
            "no linearization of {} ops explains the observed values",
            ops.len()
        ))
    }
}

fn search(ops: &[HistOp], remaining: u64, value: u64, failed: &mut HashSet<(u64, u64)>) -> bool {
    // Accept when everything left is a pending write: each may legally
    // never take effect.
    let all_pending = (0..ops.len())
        .filter(|i| remaining & (1 << i) != 0)
        .all(|i| ops[i].resp.is_none());
    if all_pending {
        return true;
    }
    if failed.contains(&(remaining, value)) {
        return false;
    }
    for i in 0..ops.len() {
        if remaining & (1 << i) == 0 {
            continue;
        }
        // `i` is a candidate only if no other remaining op completed
        // before `i` was invoked (real-time order must be preserved).
        let blocked = (0..ops.len()).any(|j| {
            j != i && remaining & (1 << j) != 0 && ops[j].resp.is_some_and(|r| r < ops[i].inv)
        });
        if blocked {
            continue;
        }
        let next = remaining & !(1 << i);
        let ok = match ops[i].kind {
            OpKind::Read(v) => v == value && search(ops, next, value, failed),
            OpKind::Write(v) => search(ops, next, v, failed),
        };
        if ok {
            return true;
        }
    }
    failed.insert((remaining, value));
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use udr_model::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn read(inv: u64, resp: u64, v: u64) -> HistOp {
        HistOp {
            inv: at(inv),
            resp: Some(at(resp)),
            kind: OpKind::Read(v),
        }
    }

    fn write(inv: u64, resp: u64, v: u64) -> HistOp {
        HistOp {
            inv: at(inv),
            resp: Some(at(resp)),
            kind: OpKind::Write(v),
        }
    }

    fn pending_write(inv: u64, v: u64) -> HistOp {
        HistOp {
            inv: at(inv),
            resp: None,
            kind: OpKind::Write(v),
        }
    }

    #[test]
    fn sequential_history_accepts() {
        let ops = [
            read(0, 1, 0),
            write(2, 3, 1),
            read(4, 5, 1),
            write(6, 7, 2),
            read(8, 9, 2),
        ];
        assert!(check_key(&ops, 0).is_ok());
    }

    #[test]
    fn stale_read_rejected() {
        // w1 and w2 complete in order; a later read of 1 is stale.
        let ops = [write(0, 1, 1), write(2, 3, 2), read(4, 5, 1)];
        assert!(check_key(&ops, 0).is_err());
    }

    #[test]
    fn reads_concurrent_with_a_write_may_split() {
        // The write's interval spans both reads: the first may linearize
        // before it, the second after.
        let ops = [write(0, 10, 1), read(1, 2, 0), read(3, 4, 1)];
        assert!(check_key(&ops, 0).is_ok());
        // But observing new-then-old within the write's span is illegal.
        let ops = [write(0, 10, 1), read(1, 2, 1), read(3, 4, 0)];
        assert!(check_key(&ops, 0).is_err());
    }

    #[test]
    fn pending_write_may_take_effect_late_or_never() {
        // The timed-out write is observed long after other completed ops.
        let ops = [pending_write(0, 1), write(2, 3, 2), read(10, 11, 1)];
        assert!(check_key(&ops, 0).is_ok(), "zombie write may land late");
        // …or is never observed at all.
        let ops = [pending_write(0, 1), write(2, 3, 2), read(10, 11, 2)];
        assert!(check_key(&ops, 0).is_ok(), "zombie write may never land");
    }

    #[test]
    fn read_of_unwritten_value_rejected() {
        let ops = [write(0, 1, 1), read(2, 3, 7)];
        assert!(check_key(&ops, 0).is_err());
    }

    #[test]
    fn initial_value_is_respected() {
        let ops = [read(0, 1, 42)];
        assert!(check_key(&ops, 42).is_ok());
        assert!(check_key(&ops, 0).is_err());
    }

    #[test]
    fn duplicate_write_values_are_a_caller_error() {
        let ops = [write(0, 1, 5), write(2, 3, 5)];
        assert!(check_key(&ops, 0).is_err());
    }

    #[test]
    fn history_routes_per_key() {
        let mut h = History::new();
        h.set_initial(3, 9);
        h.record(3, read(0, 1, 9));
        h.record(4, write(0, 1, 1));
        h.record(4, read(2, 3, 1));
        assert_eq!(h.len(), 3);
        assert!(h.check().is_ok());
        h.record(4, read(4, 5, 0));
        assert!(h.check().is_err());
    }
}
