//! Batch verification — the server-side hot path at fleet scale.
//!
//! A deployment attesting millions of devices verifies vast numbers of
//! *independent* proofs against the same instrumented operation. Each
//! verification is CPU-bound (abstract execution + OR recomputation) and
//! shares nothing with its neighbours except the read-only verifier state,
//! so the batch engine:
//!
//! * is generic over the [`Verifier`] backend — full DIALED data-flow
//!   verification and PoX-only checks drain through the same engine;
//! * verifies a batch in order on the calling thread. It spawns nothing:
//!   a proof costs 0.5–50 µs and a thread costs more than many of them,
//!   so parallelism belongs to the caller, which sees the whole pass
//!   (`fleet` drains whole shards on at most one thread per core);
//! * takes `&self`, so any number of threads may call it at once;
//! * keeps its [`EmuWorkspace`]s in a checkout pool across calls, so the
//!   64 KiB RAM image, the write log, the OR snapshot and the stitched
//!   superblocks are built once per concurrent caller, not once per call.
//!   Every workspace handed back is kept: the pool grows to the most
//!   calls that ever ran at once and stays warm;
//! * resolves per-device keys through a shared [`KeySource`] — requests
//!   borrow into it, so keyed batches add no per-proof allocation;
//! * returns a [`BatchReport`] with the per-proof verdicts (identical to
//!   sequential [`Verifier::verify`]) plus throughput statistics.

use crate::attest::DialedProof;
use crate::report::{BatchOutcome, BatchReport, BatchStats};
use crate::request::{KeySource, Verifier, VerifyRequest};
use crate::verifier::EmuWorkspace;
use std::sync::Mutex;
use std::time::Instant;
use vrased::Challenge;

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

/// Verifies batches of independent proofs of one operation, generic over
/// the [`Verifier`] backend.
#[derive(Debug)]
pub struct BatchVerifier<V> {
    verifier: V,
    /// Warm workspaces between calls: each call checks one out and hands
    /// it back when it finishes. Holds as many as calls ever ran at once.
    pool: Mutex<Vec<EmuWorkspace>>,
}

impl<V: Verifier> BatchVerifier<V> {
    /// Wraps `verifier`.
    #[must_use]
    pub fn new(verifier: V) -> Self {
        Self { verifier, pool: Mutex::new(Vec::new()) }
    }

    /// The wrapped sequential verifier.
    #[must_use]
    pub fn verifier(&self) -> &V {
        &self.verifier
    }

    /// Verifies every job on the calling thread, returning per-proof
    /// verdicts in submission order plus aggregate statistics.
    ///
    /// With `keys` set, each job's MAC is checked under its device's key
    /// from the source (fleet deployments); without, every job verifies
    /// under the backend's embedded key.
    ///
    /// Verdicts are bit-identical to building a [`VerifyRequest`] per job
    /// and calling [`Verifier::verify`]; the only difference is the warm
    /// workspace, drawn from the pool (or built, if every pooled one is in
    /// use by a concurrent call) and handed back afterwards.
    #[must_use]
    pub fn verify_batch(&self, jobs: &[BatchJob], keys: Option<&dyn KeySource>) -> BatchReport {
        let started = Instant::now();
        let mut ws = lock(&self.pool).pop().unwrap_or_default();
        let outcomes: Vec<BatchOutcome> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                let mut req =
                    VerifyRequest::new(&job.proof, &job.challenge).for_device(job.device_id);
                if let Some(keys) = keys {
                    req = req.keys(keys);
                }
                BatchOutcome {
                    index,
                    device_id: job.device_id,
                    report: self.verifier.verify_in(&mut ws, &req),
                }
            })
            .collect();
        lock(&self.pool).push(ws);
        finish(outcomes, started)
    }
}

/// Assembles the [`BatchReport`] from ordered outcomes.
fn finish(outcomes: Vec<BatchOutcome>, started: Instant) -> BatchReport {
    let wall = started.elapsed();
    let total = outcomes.len();
    let mut stats = BatchStats {
        total,
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

/// Locks the workspace pool, tolerating poison: a caller that panicked
/// mid-verification never held the lock (every operation on it is a
/// single push or pop).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::DialedDevice;
    use crate::pipeline::{BuildOptions, InstrumentedOp};
    use crate::policy::GlobalWriteBounds;
    use crate::report::Report;
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

        let batch = BatchVerifier::new(DialedVerifier::new(op, ks));
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
        // Two callers verify eight proofs each on one engine at once: the
        // verdicts match sequential request-based verification, and both
        // workspaces stay pooled for the next calls.
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(22);
        let jobs = make_jobs(8, &ks, &op);
        let batch = BatchVerifier::new(DialedVerifier::new(op.clone(), ks.clone()));
        let barrier = std::sync::Barrier::new(2);
        let reports: Vec<BatchReport> = std::thread::scope(|scope| {
            let run = || {
                barrier.wait();
                batch.verify_batch(&jobs, None)
            };
            let other = scope.spawn(run);
            vec![run(), other.join().unwrap()]
        });
        let verifier = DialedVerifier::new(op, ks);
        for report in &reports {
            assert!(report.all_clean(), "{report}");
            assert_eq!(report.stats.clean, 8);
            for (job, outcome) in jobs.iter().zip(&report.outcomes) {
                assert_eq!(
                    outcome.report,
                    verifier.verify(&VerifyRequest::new(&job.proof, &job.challenge))
                );
            }
        }
        let pooled = lock(&batch.pool).len();
        assert!((1..=2).contains(&pooled), "every handed-back workspace is kept: {pooled}");
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
        });
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
        // proof of the batch.
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(25);
        let jobs = make_jobs(9, &ks, &op);
        let verifier =
            DialedVerifier::new(op, ks).with_policy(Box::new(GlobalWriteBounds::new(vec![])));
        let report = BatchVerifier::new(verifier).verify_batch(&jobs, None);
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
        let batch = BatchVerifier::new(DialedVerifier::new(op, KeyStore::from_seed(9999)));
        let report = batch.verify_batch(&jobs, Some(&keys));
        assert!(report.all_clean(), "{report}");
        // Without the key source the batch falls back to the verifier's
        // own (wrong) key and every MAC fails.
        let r = batch.verify_batch(&jobs, None);
        assert_eq!(r.stats.rejected, 6, "{r}");
    }

    #[test]
    fn single_worker_degrades_to_sequential() {
        // The engine is one inline worker: its verdicts are exactly those
        // of calling the backend proof by proof.
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(26);
        let jobs = make_jobs(5, &ks, &op);
        let verifier = DialedVerifier::new(op.clone(), ks.clone());
        let report = BatchVerifier::new(DialedVerifier::new(op, ks)).verify_batch(&jobs, None);
        assert!(report.all_clean());
        for (job, outcome) in jobs.iter().zip(&report.outcomes) {
            let req = VerifyRequest::new(&job.proof, &job.challenge).for_device(job.device_id);
            assert_eq!(outcome.report, verifier.verify(&req));
        }
    }
}
