//! Parallel batch verification — the server-side hot path at fleet scale.
//!
//! A deployment attesting millions of devices verifies vast numbers of
//! *independent* proofs against the same instrumented operation. Each
//! verification is CPU-bound (abstract execution + OR recomputation) and
//! shares nothing with its neighbours except the read-only verifier state,
//! so the batch engine:
//!
//! * is generic over the [`Verifier`] backend — full DIALED data-flow
//!   verification and PoX-only checks drain through the same engine;
//! * spawns one worker per core (configurable) under [`std::thread::scope`]
//!   — no detached threads, no `'static` bounds on the job slice;
//! * distributes jobs round-robin into per-worker queues and lets idle
//!   workers **steal** from the busiest tail, so a batch of wildly uneven
//!   proofs (a livelocked log next to a two-instruction op) still saturates
//!   every core;
//! * verifies small batches (fewer than [`PARALLEL_MIN_JOBS`]) inline on
//!   the calling thread — a lightly loaded server hands over one or two
//!   proofs at a time, and a thread spawn costs more than they do;
//! * keeps its [`EmuWorkspace`]s in a checkout pool across calls, so the
//!   64 KiB RAM image, the write log, the OR snapshot and the stitched
//!   superblocks are built once per engine, not once per call — the
//!   inline path and every scoped worker draw from the same pool;
//! * resolves per-device keys through a shared [`KeySource`] — requests
//!   borrow into it, so keyed batches add no per-proof allocation;
//! * returns a [`BatchReport`] with the per-proof verdicts (identical to
//!   sequential [`Verifier::verify`]) plus throughput statistics.

use crate::attest::DialedProof;
use crate::report::{BatchOutcome, BatchReport, BatchStats, Report};
use crate::request::{KeySource, Verifier, VerifyRequest};
use crate::verifier::EmuWorkspace;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vrased::Challenge;

/// Fewest worker threads a [`BatchVerifier`] will run with. Degenerate
/// requests (`with_workers(0)`) are clamped up to this value.
pub const MIN_WORKERS: usize = 1;

/// Smallest batch that is spread over scoped worker threads; anything
/// smaller verifies inline on the caller. A measured constant, not a
/// knob: on the reference box starting and joining two scoped workers
/// costs ≈ 55 µs, a warm Full-mode proof verifies in 8–32 µs (MAC
/// included) and a PoX-only one in ≈ 0.4 µs. Two workers save at most half
/// of a batch's work, so at four Full-mode proofs the spawn does not pay,
/// at eight average proofs (≈ 20 µs each) it saves ≈ 80 µs against the
/// ≈ 55 µs spawn, and PoX-only batches this small never repay it.
pub const PARALLEL_MIN_JOBS: usize = 8;

/// One unit of batch work: a proof and the challenge it must answer.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Caller-assigned device identifier: echoed into the outcome, and
    /// resolved against the batch's [`KeySource`] when one is supplied.
    pub device_id: u64,
    /// The attestation response to verify.
    pub proof: DialedProof,
    /// The challenge the verifier issued to this device.
    pub challenge: Challenge,
}

impl BatchJob {
    /// A job for `device_id`.
    #[must_use]
    pub fn new(device_id: u64, proof: DialedProof, challenge: Challenge) -> Self {
        Self { device_id, proof, challenge }
    }
}

/// Verifies batches of independent proofs of one operation across cores,
/// generic over the [`Verifier`] backend.
#[derive(Debug)]
pub struct BatchVerifier<V> {
    verifier: V,
    workers: usize,
    /// Warm workspaces between calls: checked out by the inline path and
    /// by each scoped worker, handed back when they finish. Never holds
    /// more than `workers`.
    pool: Mutex<Vec<EmuWorkspace>>,
}

impl<V: Verifier> BatchVerifier<V> {
    /// Wraps `verifier`, defaulting to one worker per available core.
    #[must_use]
    pub fn new(verifier: V) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Self { verifier, workers, pool: Mutex::new(Vec::new()) }
    }

    /// Overrides the worker count, clamped up to [`MIN_WORKERS`]: asking
    /// for zero workers runs with one.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(MIN_WORKERS);
        self
    }

    /// The wrapped sequential verifier.
    #[must_use]
    pub fn verifier(&self) -> &V {
        &self.verifier
    }

    /// The worker count batches will run with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A workspace from the pool, or a fresh one if every pooled one is in
    /// use (concurrent calls) or none was built yet.
    fn checkout(&self) -> EmuWorkspace {
        lock(&self.pool).pop().unwrap_or_default()
    }

    /// Returns a workspace for the next call to reuse. Surplus ones — more
    /// callers ran at once than this engine has workers — are dropped.
    fn give_back(&self, ws: EmuWorkspace) {
        let mut pool = lock(&self.pool);
        if pool.len() < self.workers {
            pool.push(ws);
        }
    }

    /// Verifies every job, returning per-proof verdicts in submission order
    /// plus aggregate throughput statistics.
    ///
    /// With `keys` set, each job's MAC is checked under its device's key
    /// from the source (fleet deployments); without, every job verifies
    /// under the backend's embedded key.
    ///
    /// Verdicts are bit-identical to building a [`VerifyRequest`] per job
    /// and calling [`Verifier::verify`] sequentially; only the schedule is
    /// parallel.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (i.e. verification itself
    /// panicked — never expected for well-formed jobs).
    #[must_use]
    pub fn verify_batch(&self, jobs: &[BatchJob], keys: Option<&dyn KeySource>) -> BatchReport {
        let started = Instant::now();
        let workers =
            if jobs.len() < PARALLEL_MIN_JOBS { 1 } else { self.workers.min(jobs.len()).max(1) };

        // One request construction shared by both schedules, so the
        // single-worker and multi-worker paths cannot drift apart. Each
        // proof's MAC is checked inside `verify_in`, on whichever worker
        // verifies the proof.
        let verify_job = |ws: &mut EmuWorkspace, idx: usize| -> Report {
            let job = &jobs[idx];
            let mut req = VerifyRequest::new(&job.proof, &job.challenge).for_device(job.device_id);
            if let Some(keys) = keys {
                req = req.keys(keys);
            }
            self.verifier.verify_in(ws, &req)
        };

        // A lone worker needs no queues and no thread spawn: verify inline
        // on the calling thread. Small batches and small hosts hit this
        // path on every drain.
        if workers == 1 {
            let mut ws = self.checkout();
            let outcomes: Vec<BatchOutcome> = jobs
                .iter()
                .enumerate()
                .map(|(index, job)| BatchOutcome {
                    index,
                    device_id: job.device_id,
                    report: verify_job(&mut ws, index),
                })
                .collect();
            self.give_back(ws);
            return finish(outcomes, jobs.len(), 1, 0, started);
        }

        // Round-robin initial distribution into per-worker deques.
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for idx in 0..jobs.len() {
            queues[idx % workers].push_back(idx);
        }
        let queues: Vec<Mutex<VecDeque<usize>>> = queues.into_iter().map(Mutex::new).collect();
        let steals = AtomicUsize::new(0);

        let mut outcomes: Vec<BatchOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let queues = &queues;
                    let steals = &steals;
                    let verify_job = &verify_job;
                    scope.spawn(move || {
                        let mut ws = self.checkout();
                        let mut done: Vec<(usize, Report)> = Vec::new();
                        while let Some(idx) = next_job(queues, me, steals) {
                            done.push((idx, verify_job(&mut ws, idx)));
                        }
                        self.give_back(ws);
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch worker panicked"))
                .map(|(index, report)| BatchOutcome {
                    index,
                    device_id: jobs[index].device_id,
                    report,
                })
                .collect()
        });
        outcomes.sort_unstable_by_key(|o| o.index);
        finish(outcomes, jobs.len(), workers, steals.into_inner(), started)
    }
}

/// Assembles the [`BatchReport`] from ordered outcomes plus run metadata.
fn finish(
    outcomes: Vec<BatchOutcome>,
    total: usize,
    workers: usize,
    steals: usize,
    started: Instant,
) -> BatchReport {
    let wall = started.elapsed();
    let mut stats = BatchStats {
        total,
        workers,
        steals,
        wall,
        proofs_per_sec: total as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
        ..BatchStats::default()
    };
    for o in &outcomes {
        match o.report.verdict {
            crate::report::Verdict::Clean => stats.clean += 1,
            crate::report::Verdict::Rejected => stats.rejected += 1,
            crate::report::Verdict::Attack => stats.attacks += 1,
        }
        stats.emulated_insns += o.report.stats.emulated_insns;
    }
    BatchReport { outcomes, stats }
}

/// Pops the next job for worker `me`: own queue first (front, FIFO), then a
/// steal from another worker's tail (LIFO from the victim's perspective,
/// minimising contention on the victim's hot end).
fn next_job(queues: &[Mutex<VecDeque<usize>>], me: usize, steals: &AtomicUsize) -> Option<usize> {
    if let Some(idx) = lock(&queues[me]).pop_front() {
        return Some(idx);
    }
    let n = queues.len();
    for off in 1..n {
        if let Some(idx) = lock(&queues[(me + off) % n]).pop_back() {
            steals.fetch_add(1, Ordering::Relaxed);
            return Some(idx);
        }
    }
    None
}

/// Locks a job queue or the workspace pool, tolerating poison: a panicked
/// worker cannot leave either logically inconsistent (every operation is
/// a single push or pop).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::DialedDevice;
    use crate::pipeline::{BuildOptions, InstrumentedOp};
    use crate::policy::GlobalWriteBounds;
    use crate::request::PerDevice;
    use crate::verifier::DialedVerifier;
    use vrased::{KeyStore, RaVerifier};

    const OP: &str = "\
        .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

    /// Builds one op and produces `n` proofs with per-device args and
    /// challenges (device i computes i + 100·i).
    fn make_jobs(n: usize, ks: &KeyStore, op: &InstrumentedOp) -> Vec<BatchJob> {
        (0..n)
            .map(|i| {
                let mut dev = DialedDevice::new(op.clone(), ks.clone());
                let mut args = [0u16; 8];
                args[6] = i as u16;
                args[7] = 100 * i as u16;
                let info = dev.invoke(&args);
                assert_eq!(info.stop, apex::pox::StopReason::ReachedStop);
                let chal = Challenge::derive(b"batch", i as u64);
                BatchJob::new(i as u64, dev.prove(&chal), chal)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_verdicts() {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(21);
        let mut jobs = make_jobs(12, &ks, &op);
        // Sabotage two jobs: one OR corruption (Attack or Rejected), one
        // wrong challenge (Rejected).
        jobs[3].proof.pox.or_data[7] ^= 0x40;
        jobs[9].challenge = Challenge::derive(b"wrong", 9);

        let verifier = DialedVerifier::new(op.clone(), ks.clone());
        let sequential: Vec<Report> = jobs
            .iter()
            .map(|j| verifier.verify(&VerifyRequest::new(&j.proof, &j.challenge)))
            .collect();

        let batch = BatchVerifier::new(DialedVerifier::new(op, ks)).with_workers(4);
        let report = batch.verify_batch(&jobs, None);

        assert_eq!(report.stats.total, 12);
        assert_eq!(report.outcomes.len(), 12);
        for (i, (outcome, seq)) in report.outcomes.iter().zip(&sequential).enumerate() {
            assert_eq!(outcome.index, i, "outcomes must be in submission order");
            assert_eq!(outcome.device_id, i as u64);
            assert_eq!(&outcome.report, seq, "job {i} diverged from sequential");
        }
        assert!(!report.all_clean());
        assert_eq!(report.stats.clean + report.stats.attacks + report.stats.rejected, 12);
        assert_eq!(report.flagged().count(), 2);
        assert!(report.stats.proofs_per_sec > 0.0);
    }

    #[test]
    fn eight_proofs_verify_concurrently_clean() {
        // ≥ 8 proofs, concurrent verdicts identical to sequential
        // request-based verification.
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(22);
        let jobs = make_jobs(8, &ks, &op);
        let batch = BatchVerifier::new(DialedVerifier::new(op.clone(), ks.clone())).with_workers(8);
        let report = batch.verify_batch(&jobs, None);
        assert!(report.all_clean(), "{report}");
        assert_eq!(report.stats.clean, 8);
        assert_eq!(report.stats.workers, 8);
        let verifier = DialedVerifier::new(op, ks);
        for (job, outcome) in jobs.iter().zip(&report.outcomes) {
            assert_eq!(
                outcome.report,
                verifier.verify(&VerifyRequest::new(&job.proof, &job.challenge))
            );
        }
    }

    /// Routes even device ids to one operation's verifier and odd ones to
    /// another's, so a single engine — and its single pooled workspace —
    /// serves two different images.
    struct TwoOps {
        even: DialedVerifier,
        odd: DialedVerifier,
    }

    impl Verifier for TwoOps {
        fn verify_in(&self, ws: &mut EmuWorkspace, req: &VerifyRequest<'_>) -> Report {
            let backend = if req.device() % 2 == 0 { &self.even } else { &self.odd };
            backend.verify_in(ws, req)
        }
    }

    #[test]
    fn workspace_reuse_is_observationally_pure() {
        // One workspace pushed through clean, corrupted and clean-again
        // proofs must give the same reports as fresh workspaces.
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(23);
        let mut jobs = make_jobs(3, &ks, &op);
        jobs[1].proof.pox.or_data[5] ^= 0xFF;
        let verifier = DialedVerifier::new(op.clone(), ks.clone());
        let mut ws = EmuWorkspace::new();
        for job in &jobs {
            let req = VerifyRequest::new(&job.proof, &job.challenge);
            let reused = verifier.verify_in(&mut ws, &req);
            let fresh = verifier.verify(&req);
            assert_eq!(reused, fresh);
        }

        // The same across separate `verify_batch` calls: the engine's one
        // pooled workspace serves op A, op B, a tampered proof and op A
        // again, each report identical to a fresh-workspace verification.
        const OP_B: &str = ".org 0xE000\nop:\n mov r14, &0x0060\n ret\n";
        let op_b = InstrumentedOp::build(OP_B, "op", &BuildOptions::default()).unwrap();
        let a = make_jobs(1, &ks, &op).remove(0);
        let mut b = make_jobs(1, &ks, &op_b).remove(0);
        b.device_id = 1;
        let mut tampered = a.clone();
        tampered.proof.pox.or_data[5] ^= 0xFF;
        let verifier_b = DialedVerifier::new(op_b.clone(), ks.clone());
        let calls = [(&a, &verifier), (&b, &verifier_b), (&tampered, &verifier), (&a, &verifier)];

        let engine = BatchVerifier::new(TwoOps {
            even: DialedVerifier::new(op, ks.clone()),
            odd: DialedVerifier::new(op_b, ks),
        })
        .with_workers(1);
        for (i, (job, fresh)) in calls.into_iter().enumerate() {
            let report = engine.verify_batch(std::slice::from_ref(job), None);
            let fresh = fresh
                .verify(&VerifyRequest::new(&job.proof, &job.challenge).for_device(job.device_id));
            assert_eq!(report.outcomes[0].report, fresh, "call {i} diverged on a warm workspace");
            assert_eq!(fresh.is_clean(), i != 2, "only the tampered proof is flagged");
            assert_eq!(lock(&engine.pool).len(), 1, "call {i} must reuse the pooled workspace");
        }
    }

    #[test]
    fn empty_batch_is_trivially_clean() {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(24);
        let batch = BatchVerifier::new(DialedVerifier::new(op, ks));
        let report = batch.verify_batch(&[], None);
        assert!(report.all_clean());
        assert_eq!(report.stats.total, 0);
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn policies_apply_across_workers() {
        // A policy that rejects the op's global store must flag *every*
        // proof, from whichever worker verifies it.
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(25);
        let jobs = make_jobs(9, &ks, &op);
        let verifier =
            DialedVerifier::new(op, ks).with_policy(Box::new(GlobalWriteBounds::new(vec![])));
        let report = BatchVerifier::new(verifier).with_workers(3).verify_batch(&jobs, None);
        assert_eq!(report.stats.attacks, 9, "{report}");
    }

    #[test]
    fn per_device_keys_verify_under_their_own_keys() {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        // Each device holds its own key; the batch verifier is built with
        // an unrelated key that keyed batches must never fall back to.
        let table: Vec<RaVerifier> =
            (0u64..6).map(|i| RaVerifier::new(KeyStore::from_seed(1000 + i))).collect();
        let jobs: Vec<BatchJob> = (0u64..6)
            .map(|i| {
                let ks = KeyStore::from_seed(1000 + i);
                let mut dev = DialedDevice::new(op.clone(), ks);
                let mut args = [0u16; 8];
                args[7] = i as u16;
                let info = dev.invoke(&args);
                assert_eq!(info.stop, apex::pox::StopReason::ReachedStop);
                let chal = Challenge::derive(b"keyed", i);
                BatchJob::new(i, dev.prove(&chal), chal)
            })
            .collect();
        let keys = PerDevice::new(|device| table.get(usize::try_from(device).ok()?));
        let batch =
            BatchVerifier::new(DialedVerifier::new(op, KeyStore::from_seed(9999))).with_workers(3);
        let report = batch.verify_batch(&jobs, Some(&keys));
        assert!(report.all_clean(), "{report}");
        // Without the key source the batch falls back to the verifier's
        // own (wrong) key and every MAC fails.
        let r = batch.verify_batch(&jobs, None);
        assert_eq!(r.stats.rejected, 6, "{r}");
    }

    #[test]
    fn single_worker_degrades_to_sequential() {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(26);
        let jobs = make_jobs(5, &ks, &op);
        let report = BatchVerifier::new(DialedVerifier::new(op, ks))
            .with_workers(1)
            .verify_batch(&jobs, None);
        assert!(report.all_clean());
        assert_eq!(report.stats.workers, 1);
        assert_eq!(report.stats.steals, 0, "a lone worker has nobody to steal from");
    }

    #[test]
    fn zero_workers_clamps_to_the_documented_minimum() {
        // Degenerate builder input: `with_workers(0)` must run, not hang
        // or panic — pinned to MIN_WORKERS.
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(27);
        let jobs = make_jobs(2, &ks, &op);
        let batch = BatchVerifier::new(DialedVerifier::new(op, ks)).with_workers(0);
        assert_eq!(batch.workers(), MIN_WORKERS);
        let report = batch.verify_batch(&jobs, None);
        assert!(report.all_clean(), "{report}");
        assert_eq!(report.stats.workers, MIN_WORKERS);
    }
}
