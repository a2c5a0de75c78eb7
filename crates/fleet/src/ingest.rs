//! Ingest queues: accepted submissions waiting for verification.
//!
//! Each state shard owns one [`IngestQueue`], internally keyed by
//! [`OpId`]: proofs of one operation share everything that makes
//! verification fast — the instrumented image, the prebuilt site bitmaps,
//! the shard's warm emulation workspace for that operation — so a drain
//! verifies each operation's queue in one run of
//! [`Verifier::verify_in`](dialed::Verifier::verify_in) calls and commits
//! its verdicts in one WAL write. The drain itself lives in
//! [`crate::shard`]; this module only owns the queue and the
//! [`DrainStats`] aggregate the facade sums across shards.

use crate::registry::OpId;
use crate::session::SessionId;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate result of one drain (per shard, or summed fleet-wide).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DrainStats {
    /// Sessions resolved by this drain.
    pub drained: usize,
    /// State shards that resolved at least one session.
    pub shards: usize,
    /// Per-operation batches verified and committed together (a shard
    /// draining two operations contributes two).
    pub batches: usize,
    /// Sessions that ended `Verified`.
    pub verified: usize,
    /// Sessions that ended `Rejected`.
    pub rejected: usize,
    /// Threads the pass ran on: 1 when it drained inline on the caller
    /// (see [`Fleet::verify_pending`](crate::Fleet::verify_pending)); 0 in
    /// a single shard's result.
    pub threads: usize,
}

impl DrainStats {
    /// Folds another drain's counters into this one (used by the facade
    /// to sum per-shard results).
    pub fn merge(&mut self, other: DrainStats) {
        self.drained += other.drained;
        self.shards += other.shards;
        self.batches += other.batches;
        self.verified += other.verified;
        self.rejected += other.rejected;
        self.threads = self.threads.max(other.threads);
    }
}

impl fmt::Display for DrainStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drained {} sessions over {} shards ({} batches, {} threads): {} verified / {} \
             rejected",
            self.drained, self.shards, self.batches, self.threads, self.verified, self.rejected
        )
    }
}

/// The pending-submission queue of one state shard, keyed by operation.
/// An operation's batch keeps its buffer across drains, so once it has
/// grown to a round's size, queueing a submission allocates nothing.
#[derive(Debug, Default)]
pub struct IngestQueue {
    batches: BTreeMap<OpId, Vec<SessionId>>,
}

impl IngestQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a submitted session for its operation's batch.
    pub fn enqueue(&mut self, op: OpId, session: SessionId) {
        self.batches.entry(op).or_default().push(session);
    }

    /// Drops a queued session (the device was deregistered).
    pub fn discard(&mut self, op: OpId, session: SessionId) {
        if let Some(batch) = self.batches.get_mut(&op) {
            batch.retain(|&s| s != session);
        }
    }

    /// Total pending sessions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.batches.values().map(Vec::len).sum()
    }

    /// Pending sessions for one operation.
    #[must_use]
    pub fn pending_for(&self, op: OpId) -> usize {
        self.batches.get(&op).map_or(0, Vec::len)
    }

    /// Pending sessions per operation, for each operation with any.
    pub(crate) fn depths(&self) -> impl Iterator<Item = (OpId, usize)> + '_ {
        self.batches.iter().filter(|(_, sids)| !sids.is_empty()).map(|(&op, sids)| (op, sids.len()))
    }

    /// Takes the batch of the lowest operation at or above `from` that has
    /// one — a shard drain walks operations in ascending order this way.
    /// Hand the batch back with [`IngestQueue::give_back`].
    pub(crate) fn take_next(&mut self, from: OpId) -> Option<(OpId, Vec<SessionId>)> {
        let (&op, batch) = self.batches.range_mut(from..).find(|(_, sids)| !sids.is_empty())?;
        Some((op, std::mem::take(batch)))
    }

    /// Returns a taken batch's buffer, emptied, to the slot
    /// [`IngestQueue::take_next`] left, so the next round queues into it
    /// without allocating.
    pub(crate) fn give_back(&mut self, op: OpId, mut batch: Vec<SessionId>) {
        batch.clear();
        self.batches.insert(op, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_discard_and_take_round_trip() {
        let mut q = IngestQueue::new();
        q.enqueue(OpId(0), SessionId(1));
        q.enqueue(OpId(1), SessionId(2));
        q.enqueue(OpId(0), SessionId(3));
        assert_eq!(q.pending(), 3);
        assert_eq!(q.pending_for(OpId(0)), 2);

        q.discard(OpId(0), SessionId(1));
        assert_eq!(q.pending_for(OpId(0)), 1);
        // Discarding the last entry of a batch leaves nothing to drain.
        q.discard(OpId(1), SessionId(2));
        assert_eq!(q.pending_for(OpId(1)), 0);
        assert_eq!(q.depths().collect::<Vec<_>>(), vec![(OpId(0), 1)]);

        let (op, taken) = q.take_next(OpId(0)).unwrap();
        assert_eq!((op, &taken[..]), (OpId(0), &[SessionId(3)][..]));
        assert_eq!(q.pending(), 0);
        assert!(q.take_next(OpId(0)).is_none(), "the empty batch of op 1 is skipped");

        // The buffer handed back is the one the next round queues into.
        let buffer = taken.as_ptr();
        q.give_back(op, taken);
        q.enqueue(OpId(0), SessionId(4));
        let (_, again) = q.take_next(OpId(0)).unwrap();
        assert_eq!((again.as_ptr(), &again[..]), (buffer, &[SessionId(4)][..]));
    }

    #[test]
    fn drain_order_is_op_ascending() {
        let mut q = IngestQueue::new();
        for op in [2, 0, 1] {
            q.enqueue(OpId(op), SessionId(u64::from(op)));
        }
        let mut from = OpId(0);
        let mut order = Vec::new();
        while let Some((op, batch)) = q.take_next(from) {
            order.push(op);
            from = OpId(op.0 + 1);
            q.give_back(op, batch);
        }
        assert_eq!(order, [OpId(0), OpId(1), OpId(2)]);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a =
            DrainStats { drained: 2, shards: 1, batches: 1, verified: 2, rejected: 0, threads: 1 };
        let b =
            DrainStats { drained: 3, shards: 1, batches: 2, verified: 1, rejected: 2, threads: 2 };
        a.merge(b);
        assert_eq!(
            a,
            DrainStats { drained: 5, shards: 2, batches: 3, verified: 3, rejected: 2, threads: 2 }
        );
    }
}
