//! The proof-of-execution protocol: device-side runner/quoter and the
//! verifier-side check.

use crate::metadata::PoxConfig;
use crate::monitor::ApexMonitor;
use crate::violation::Violation;
use hacl::{sha256_mb, Digest, Sha256};
use msp430::cpu::{Cpu, CpuFault, Observe, Step};
use msp430::platform::Platform;
use msp430::trace::Trace;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use vrased::{check_tags_lanes, Challenge, KeyStore, RaVerifier, SwAtt, TagLane};

/// Why a [`PoxVerifier`] rejected a proof.
///
/// Every cryptographic / structural failure class gets its own variant so
/// upper layers (and wire codecs) can match on the cause instead of
/// comparing strings; [`fmt::Display`] renders the operator-facing text.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PoxRejection {
    /// The proof's region metadata differs from what the verifier expects.
    RegionMismatch,
    /// The EXEC flag was clear: the operation was not executed untouched
    /// from entry to exit, so there is no valid proof of execution.
    ExecClear,
    /// The verifier's expected ER image does not span the configured
    /// executable region (verifier misconfiguration, not device fault).
    ErLengthMismatch,
    /// The claimed OR snapshot does not span the configured output region.
    OrLengthMismatch,
    /// The MAC did not verify: wrong key or challenge, or tampered code /
    /// output / metadata / EXEC flag.
    MacMismatch,
}

impl fmt::Display for PoxRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoxRejection::RegionMismatch => "region metadata mismatch",
            PoxRejection::ExecClear => "EXEC flag clear: no valid proof of execution",
            PoxRejection::ErLengthMismatch => "expected ER image length mismatch",
            PoxRejection::OrLengthMismatch => "OR snapshot length mismatch",
            PoxRejection::MacMismatch => "MAC verification failed (code or output tampered)",
        })
    }
}

impl std::error::Error for PoxRejection {}

/// A proof of execution as shipped to the verifier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PoxProof {
    /// Region metadata the proof speaks about.
    pub cfg: PoxConfig,
    /// The EXEC flag at quote time.
    pub exec: bool,
    /// Claimed OR contents (the attested output, e.g. CF-Log + I-Log).
    pub or_data: Vec<u8>,
    /// HMAC over `challenge ‖ bounds ‖ SHA-256(ER) ‖ bounds ‖ SHA-256(OR) ‖
    /// metadata ‖ EXEC` (regions enter the MAC as content digests — see
    /// [`vrased::swatt`]).
    pub tag: Digest,
}

impl PoxProof {
    /// Recomputes the tag over this proof's *current* contents under the
    /// device key — the adversarial reseal hook for the mutation engine.
    ///
    /// This models the strongest software adversary of the paper's model:
    /// compromised application code that holds no key material itself but
    /// can invoke SW-Att over tampered OR contents, region metadata or the
    /// EXEC byte it controls. A resealed proof always passes the MAC check,
    /// so mutations applied before resealing probe the *semantic* layers of
    /// verification (structure checks, abstract execution, OR comparison,
    /// policies) instead of dying at the tag compare.
    ///
    /// `er_bytes` must span exactly `cfg.er_min..=cfg.er_max` — the code
    /// image the MAC covers (tamper with a copy of it to model stale-image
    /// attestation).
    pub fn reseal(&mut self, keystore: KeyStore, challenge: &Challenge, er_bytes: &[u8]) {
        let mut extra = [0u8; 11];
        extra[..10].copy_from_slice(&self.cfg.to_metadata_bytes());
        extra[10] = u8::from(self.exec);
        self.tag = SwAtt::new(keystore).attest_region_bytes(
            challenge,
            &[
                (self.cfg.er_min, self.cfg.er_max, er_bytes),
                (self.cfg.or_min, self.cfg.or_max, &self.or_data),
            ],
            &extra,
        );
    }
}

/// Outcome of running one attested operation on the device.
#[derive(Debug)]
pub struct RunOutcome {
    /// Execution trace (instructions, cycles, bus events).
    pub trace: Trace,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Why [`PoxProver::run_to`] returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// PC reached the requested stop address.
    ReachedStop,
    /// The step budget ran out (e.g. an instrumentation abort spin-loop).
    StepBudgetExhausted,
    /// The CPU faulted.
    Fault(CpuFault),
}

/// Device-side bundle: MCU + APEX monitor + SW-Att.
#[derive(Debug)]
pub struct PoxProver {
    /// The simulated device.
    pub platform: Platform,
    /// The CPU core.
    pub cpu: Cpu,
    /// The APEX monitor.
    pub monitor: ApexMonitor,
    swatt: SwAtt,
}

impl PoxProver {
    /// Builds a device around an existing platform state.
    #[must_use]
    pub fn new(platform: Platform, cfg: PoxConfig, keystore: KeyStore) -> Self {
        Self {
            platform,
            cpu: Cpu::new(),
            monitor: ApexMonitor::new(cfg),
            swatt: SwAtt::new(keystore),
        }
    }

    /// Runs until `stop_pc`, feeding every step (and fault) to the monitor
    /// and advancing time-based peripherals.
    ///
    /// Execution is dispatched superblock-at-a-time; the monitor, the
    /// peripheral clock and the trace still observe every single step via
    /// the dispatch callback, in the same order as a `step_into` loop.
    /// The core's superblock counters are published once, on return.
    pub fn run_to(&mut self, stop_pc: u16, max_steps: usize) -> RunOutcome {
        let outcome = self.run_blocks(stop_pc, max_steps);
        self.cpu.publish_superblock_stats();
        outcome
    }

    fn run_blocks(&mut self, stop_pc: u16, max_steps: usize) -> RunOutcome {
        let mut trace = Trace::new();
        // One Step reused across the run; only the trace copy survives.
        let mut step = Step::default();
        let mut remaining = max_steps;
        while remaining > 0 {
            if self.cpu.pc() == stop_pc {
                return RunOutcome { trace, stop: StopReason::ReachedStop };
            }
            let monitor = &mut self.monitor;
            let trace_ref = &mut trace;
            let r = self.cpu.step_block_into(
                &mut self.platform,
                stop_pc,
                remaining,
                Observe::EveryStep,
                &mut step,
                |platform, _regs, s, _| {
                    monitor.observe_step(s);
                    platform.advance(s.cycles);
                    trace_ref.push(*s);
                },
            );
            match r {
                Ok((n, _)) => remaining -= n,
                Err(fault) => {
                    if let CpuFault::Decode { at, .. } = fault {
                        self.monitor.observe_fault(at);
                    }
                    return RunOutcome { trace, stop: StopReason::Fault(fault) };
                }
            }
        }
        RunOutcome { trace, stop: StopReason::StepBudgetExhausted }
    }

    /// Performs a DMA transfer as an external master (attack scenarios),
    /// keeping the monitor in the loop.
    pub fn dma(&mut self, dma: &msp430::periph::Dma) {
        let events = self.platform.dma_transfer(dma);
        self.monitor.observe_dma(&events);
    }

    /// Delivers the current EXEC flag and OR snapshot under the device key —
    /// the `XAtt` step of APEX.
    #[must_use]
    pub fn prove(&self, challenge: &Challenge) -> PoxProof {
        let cfg = *self.monitor.config();
        let exec = self.monitor.exec();
        let mut extra = [0u8; 11];
        extra[..10].copy_from_slice(&cfg.to_metadata_bytes());
        extra[10] = u8::from(exec);
        let tag = self.swatt.attest_with_extra(
            &self.platform,
            challenge,
            &[(cfg.er_min, cfg.er_max), (cfg.or_min, cfg.or_max)],
            &extra,
        );
        let or_data = self.platform.mem_range(cfg.or_min, cfg.or_max).to_vec();
        PoxProof { cfg, exec, or_data, tag }
    }

    /// The monitor's first violation, if any (diagnostics).
    #[must_use]
    pub fn violation(&self) -> Option<Violation> {
        self.monitor.violation()
    }
}

/// Hit/miss counters of an [`ErDigestCache`] at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DigestCacheStats {
    /// Accesses served from the memoized digest.
    pub hits: u64,
    /// Accesses that (re)computed the digest.
    pub misses: u64,
}

impl DigestCacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses served from the memo (0.0 when never accessed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Accumulates another cache's counters (fleet-wide aggregation).
    pub fn merge(&mut self, other: DigestCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Memoized SHA-256 digest of a verifier's expected-ER image.
///
/// The expected executable region is a pure function of the op image, so a
/// long-lived verifier computes its digest once and serves every subsequent
/// proof check (scalar or lane-batched) from the memo. The fleet layer
/// invalidates it on op re-registration and epoch rotation; a cache
/// rebuilt after WAL recovery simply starts cold and recomputes once.
///
/// Thread-safe: parallel shard drains share one cache through an `Arc`.
/// The digest is computed under the write lock, so even racing cold
/// accesses count exactly one miss per invalidation cycle.
#[derive(Debug, Default)]
pub struct ErDigestCache {
    digest: RwLock<Option<Digest>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ErDigestCache {
    /// The memoized digest of `bytes`, computing (and counting a miss) only
    /// on first access after construction or [`invalidate`](Self::invalidate).
    fn get_or_compute(&self, bytes: &[u8]) -> Digest {
        let slot = self.digest.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(d) = *slot {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return d;
        }
        drop(slot);
        let mut slot = self.digest.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(d) = *slot {
            // Lost the cold race: another thread already filled the memo.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return d;
        }
        let d = Sha256::digest(bytes);
        *slot = Some(d);
        self.misses.fetch_add(1, Ordering::Relaxed);
        d
    }

    /// Counters so far. Counters accumulate across invalidations (each
    /// invalidation costs exactly one further miss).
    #[must_use]
    pub fn stats(&self) -> DigestCacheStats {
        DigestCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops the memoized digest; the next access recomputes it.
    pub fn invalidate(&self) {
        *self.digest.write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }
}

/// One proof of a lane-batched MAC pre-pass
/// ([`PoxVerifier::precheck_mac_lanes`]).
#[derive(Clone, Copy, Debug)]
pub struct MacCheckItem<'a> {
    /// The proof whose tag to check.
    pub proof: &'a PoxProof,
    /// The challenge it must answer.
    pub challenge: &'a Challenge,
    /// Per-device key override — the same resolution rule as the `ra`
    /// parameter of [`PoxVerifier::check`] (`None` = the key bound at
    /// construction).
    pub ra: Option<&'a RaVerifier>,
}

/// Most items one [`PoxVerifier::precheck_mac_lanes`] call accepts
/// (= [`hacl::sha256_mb::MAX_LANES`]).
pub const MAX_MAC_LANES: usize = sha256_mb::MAX_LANES;

/// Verifier-side PoX check.
///
/// Clones share the expected-ER image (`Arc<[u8]>`) and its digest memo,
/// so registering many engines for one op costs no image copies.
#[derive(Clone, Debug)]
pub struct PoxVerifier {
    ra: RaVerifier,
    expected_er: Arc<[u8]>,
    cfg: PoxConfig,
    er_cache: Arc<ErDigestCache>,
}

impl PoxVerifier {
    /// A verifier expecting `expected_er` (the instrumented executable's
    /// bytes, `er_min..=er_max`) in the configured region.
    #[must_use]
    pub fn new(keystore: KeyStore, cfg: PoxConfig, expected_er: impl Into<Arc<[u8]>>) -> Self {
        Self {
            ra: RaVerifier::new(keystore),
            expected_er: expected_er.into(),
            cfg,
            er_cache: Arc::new(ErDigestCache::default()),
        }
    }

    /// The expected-ER digest memo (shared by clones of this verifier) —
    /// exposed so the fleet layer can read hit rates and invalidate on op
    /// re-registration / epoch rotation.
    #[must_use]
    pub fn er_digest_cache(&self) -> &ErDigestCache {
        &self.er_cache
    }

    /// Checks a proof: correct code, correct regions, EXEC set, and an
    /// authentic OR. Returns a borrow of the verified OR bytes on success
    /// (no per-proof copy — verification is the fleet-scale hot path).
    ///
    /// The tag is checked under `ra` when given — fleet deployments
    /// provision one key per device, so a shared per-operation verifier
    /// checks each proof under that device's key — and under the key bound
    /// at construction otherwise. (Named `check` like
    /// [`RaVerifier::check`], leaving `verify` to the request-based
    /// `Verifier` trait the upper layers implement for this type.)
    ///
    /// # Errors
    ///
    /// Returns the structured [`PoxRejection`] class on failure.
    pub fn check<'p>(
        &self,
        proof: &'p PoxProof,
        challenge: &Challenge,
        ra: Option<&RaVerifier>,
    ) -> Result<&'p [u8], PoxRejection> {
        self.check_with_mac_hint(proof, challenge, ra, None)
    }

    /// [`check`](Self::check) with an optional precomputed MAC verdict.
    ///
    /// All structural checks run unconditionally; only the final tag
    /// comparison is replaced when `mac_ok` is `Some` — the hint must come
    /// from [`precheck_mac_lanes`](Self::precheck_mac_lanes) for this exact
    /// (proof, challenge, key) triple, which computes the identical boolean,
    /// so the verdict is the same either way.
    ///
    /// # Errors
    ///
    /// Returns the structured [`PoxRejection`] class on failure.
    pub fn check_with_mac_hint<'p>(
        &self,
        proof: &'p PoxProof,
        challenge: &Challenge,
        ra: Option<&RaVerifier>,
        mac_ok: Option<bool>,
    ) -> Result<&'p [u8], PoxRejection> {
        let ra = ra.unwrap_or(&self.ra);
        self.check_structure(proof)?;
        let ok = match mac_ok {
            Some(ok) => ok,
            None => {
                // Memoized ER digest + fresh OR digest — kilobytes of ER
                // hashing collapse to one 32-byte absorb per proof.
                let er_digest = self.er_cache.get_or_compute(&self.expected_er);
                let or_digest = Sha256::digest(&proof.or_data);
                ra.check_region_digests(
                    challenge,
                    &[
                        (self.cfg.er_min, self.cfg.er_max, &er_digest),
                        (self.cfg.or_min, self.cfg.or_max, &or_digest),
                    ],
                    &self.extra_bytes(),
                    &proof.tag,
                )
            }
        };
        if ok {
            Ok(&proof.or_data)
        } else {
            Err(PoxRejection::MacMismatch)
        }
    }

    /// Lane-batched MAC pre-pass: checks up to [`MAX_MAC_LANES`] proofs'
    /// tags in multi-buffer HMAC lanes against the memoized expected-ER
    /// digest.
    ///
    /// Per item, `out` receives `Some(mac verdict)` if the proof passed the
    /// structural checks (so a tag was actually compared), `None` otherwise
    /// — feed the `Some`s back through
    /// [`check_with_mac_hint`](Self::check_with_mac_hint); `None`s take the
    /// full path and fail structurally there. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `items` exceeds [`MAX_MAC_LANES`] or `out` is shorter than
    /// `items`.
    pub fn precheck_mac_lanes(&self, items: &[MacCheckItem<'_>], out: &mut [Option<bool>]) {
        assert!(items.len() <= MAX_MAC_LANES, "at most {MAX_MAC_LANES} items per call");
        assert!(out.len() >= items.len(), "one verdict slot per item");
        // Structural pass: only structurally valid proofs get a MAC lane.
        let mut lane_idx = [0usize; MAX_MAC_LANES];
        let mut lanes = 0;
        for (i, item) in items.iter().enumerate() {
            out[i] = None;
            if self.check_structure(item.proof).is_ok() {
                lane_idx[lanes] = i;
                lanes += 1;
            }
        }
        if lanes == 0 {
            return;
        }
        let er_digest = self.er_cache.get_or_compute(&self.expected_er);
        // OR digests for the surviving lanes, hashed in lockstep
        // (structural pass ⇒ all ORs have the op's configured length).
        let mut or_digests = [[0u8; 32]; MAX_MAC_LANES];
        let or_refs: [&[u8]; MAX_MAC_LANES] =
            std::array::from_fn(|s| items[lane_idx[s.min(lanes - 1)]].proof.or_data.as_slice());
        sha256_mb::digest_lanes(&or_refs[..lanes], &mut or_digests[..lanes]);
        // Structural pass ⇒ every surviving proof's cfg equals ours, so the
        // metadata bytes are shared across lanes.
        let extra = self.extra_bytes();
        let mut regions = [[(0u16, 0u16, &er_digest); 2]; MAX_MAC_LANES];
        for s in 0..lanes {
            regions[s] = [
                (self.cfg.er_min, self.cfg.er_max, &er_digest),
                (self.cfg.or_min, self.cfg.or_max, &or_digests[s]),
            ];
        }
        // Duplicate trailing entries (index clamp) are never read: only
        // lanes[..lanes] is passed on.
        let tag_lanes: [TagLane<'_>; MAX_MAC_LANES] = std::array::from_fn(|s| {
            let s = s.min(lanes - 1);
            let item = &items[lane_idx[s]];
            TagLane {
                ra: item.ra.unwrap_or(&self.ra),
                challenge: item.challenge,
                regions: &regions[s],
                extra: &extra,
                tag: &item.proof.tag,
            }
        });
        let mut ok = [false; MAX_MAC_LANES];
        check_tags_lanes(&tag_lanes[..lanes], &mut ok[..lanes]);
        for s in 0..lanes {
            out[lane_idx[s]] = Some(ok[s]);
        }
    }

    /// The structural (non-cryptographic) acceptance checks of
    /// [`check`](Self::check), in rejection-priority order.
    fn check_structure(&self, proof: &PoxProof) -> Result<(), PoxRejection> {
        if proof.cfg != self.cfg {
            return Err(PoxRejection::RegionMismatch);
        }
        if !proof.exec {
            return Err(PoxRejection::ExecClear);
        }
        let er_len = usize::from(self.cfg.er_max - self.cfg.er_min) + 1;
        if self.expected_er.len() != er_len {
            return Err(PoxRejection::ErLengthMismatch);
        }
        if proof.or_data.len() != self.cfg.or_len() {
            return Err(PoxRejection::OrLengthMismatch);
        }
        Ok(())
    }

    /// The metadata bytes bound into every accepted tag (EXEC is 1: proofs
    /// with EXEC clear never reach the MAC).
    fn extra_bytes(&self) -> [u8; 11] {
        let mut extra = [0u8; 11];
        extra[..10].copy_from_slice(&self.cfg.to_metadata_bytes());
        extra[10] = 1;
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp430::regs::Reg;
    use msp430_asm::assemble;

    fn build(src_op: &str) -> (PoxProver, PoxVerifier, u16) {
        let img = assemble(src_op).unwrap();
        let (er_min, er_max) = img.extent().unwrap();
        let cfg =
            PoxConfig::new(er_min, er_max, img.symbol("op_end").unwrap(), 0x0600, 0x06FF).unwrap();
        let mut platform = Platform::new();
        img.load_into_platform(&mut platform);
        let caller = assemble(".org 0xF000\n call #0xE000\nhalt: jmp halt\n").unwrap();
        caller.load_into_platform(&mut platform);
        let ks = KeyStore::from_seed(42);

        let mut er_bytes = vec![0u8; usize::from(er_max - er_min) + 1];
        for (a, b) in img.iter() {
            if a >= er_min && a <= er_max {
                er_bytes[usize::from(a - er_min)] = b;
            }
        }
        let prover = {
            let mut p = PoxProver::new(platform, cfg, ks.clone());
            p.cpu.set_reg(Reg::SP, 0x09FE);
            p.cpu.set_pc(0xF000);
            p
        };
        let verifier = PoxVerifier::new(ks, cfg, er_bytes);
        (prover, verifier, caller.symbol("halt").unwrap())
    }

    const OP: &str = ".org 0xE000\nop: mov #0xBEEF, &0x0600\nop_end: ret\n";

    #[test]
    fn honest_run_verifies_and_or_is_returned() {
        let (mut prover, verifier, halt) = build(OP);
        let out = prover.run_to(halt, 1000);
        assert_eq!(out.stop, StopReason::ReachedStop);
        let chal = Challenge::derive(b"pox", 0);
        let proof = prover.prove(&chal);
        let or = verifier.check(&proof, &chal, None).expect("valid proof");
        assert_eq!(u16::from_le_bytes([or[0], or[1]]), 0xBEEF);
    }

    #[test]
    fn without_execution_no_proof() {
        let (prover, verifier, _) = build(OP);
        let chal = Challenge::derive(b"pox", 1);
        let proof = prover.prove(&chal);
        assert_eq!(verifier.check(&proof, &chal, None), Err(PoxRejection::ExecClear));
    }

    #[test]
    fn forged_or_rejected() {
        let (mut prover, verifier, halt) = build(OP);
        prover.run_to(halt, 1000);
        let chal = Challenge::derive(b"pox", 2);
        let mut proof = prover.prove(&chal);
        proof.or_data[0] ^= 1;
        assert!(verifier.check(&proof, &chal, None).is_err());
    }

    #[test]
    fn forged_exec_flag_rejected() {
        // Run illegally (jump into middle), then claim exec=1.
        let (mut prover, verifier, halt) = build(OP);
        prover.cpu.set_pc(0xE002); // skip first instruction → EntryNotAtStart
        prover.run_to(halt, 1000);
        let chal = Challenge::derive(b"pox", 3);
        let mut proof = prover.prove(&chal);
        assert!(!proof.exec);
        proof.exec = true; // forging the flag without the key
        assert!(verifier.check(&proof, &chal, None).is_err(), "flag is MAC-bound");
    }

    #[test]
    fn modified_code_rejected() {
        let (mut prover, verifier, halt) = build(OP);
        // Malware patches the op before execution (writes to ER also clear
        // EXEC, but even a run that somehow kept EXEC would fail the MAC).
        prover.platform.load_words(0xE002, &[0xBEEF ^ 0x1111]);
        prover.run_to(halt, 1000);
        let chal = Challenge::derive(b"pox", 4);
        let proof = prover.prove(&chal);
        assert!(verifier.check(&proof, &chal, None).is_err());
    }

    #[test]
    fn dma_attack_during_run_rejected() {
        let (mut prover, verifier, halt) = build(OP);
        // Enter the op (one caller step + one op step), then DMA mid-run.
        prover.run_to(0xE000, 10);
        let out = prover.run_to(0xE006, 1); // one op instruction
        assert_eq!(out.stop, StopReason::StepBudgetExhausted);
        prover.dma(&msp430::periph::Dma { dst: 0x0604, data: vec![0xFF] });
        prover.run_to(halt, 1000);
        let chal = Challenge::derive(b"pox", 5);
        let proof = prover.prove(&chal);
        assert_eq!(verifier.check(&proof, &chal, None), Err(PoxRejection::ExecClear));
        assert!(matches!(prover.violation(), Some(Violation::DmaDuringExec { .. })));
    }

    #[test]
    fn keyed_verification_uses_the_supplied_key() {
        let (mut prover, verifier, halt) = build(OP);
        prover.run_to(halt, 1000);
        let chal = Challenge::derive(b"pox", 8);
        let proof = prover.prove(&chal);
        // The construction key works when supplied explicitly too...
        let right = RaVerifier::new(KeyStore::from_seed(42));
        assert!(verifier.check(&proof, &chal, Some(&right)).is_ok());
        // ...and a different device's key does not.
        let wrong = RaVerifier::new(KeyStore::from_seed(43));
        assert_eq!(verifier.check(&proof, &chal, Some(&wrong)), Err(PoxRejection::MacMismatch));
    }

    #[test]
    fn precheck_lanes_agree_with_scalar_check() {
        // A mixed batch: honest, forged OR, wrong challenge, EXEC clear
        // (structurally rejected → no MAC lane). The precheck verdicts must
        // reproduce exactly what the scalar path decides.
        let (mut prover, verifier, halt) = build(OP);
        let unexec_proof = prover.prove(&Challenge::derive(b"pre", 9));
        prover.run_to(halt, 1000);
        let chals: Vec<Challenge> = (0..4).map(|i| Challenge::derive(b"pre", i)).collect();
        let mut proofs: Vec<PoxProof> = chals.iter().map(|c| prover.prove(c)).collect();
        proofs[1].or_data[0] ^= 1;
        proofs.push(unexec_proof);
        let wrong_chal = Challenge::derive(b"pre", 99);
        let item_chals = [&chals[0], &chals[1], &wrong_chal, &chals[3], &chals[0]];
        let items: Vec<MacCheckItem<'_>> = proofs
            .iter()
            .zip(item_chals)
            .map(|(proof, challenge)| MacCheckItem { proof, challenge, ra: None })
            .collect();
        let mut out = [None; 5];
        verifier.precheck_mac_lanes(&items, &mut out);
        assert_eq!(out, [Some(true), Some(false), Some(false), Some(true), None]);
        for (i, item) in items.iter().enumerate() {
            let scalar = verifier.check(item.proof, item.challenge, None);
            let hinted = verifier.check_with_mac_hint(item.proof, item.challenge, None, out[i]);
            assert_eq!(scalar, hinted, "item {i}");
        }
    }

    #[test]
    fn er_digest_is_memoized_and_invalidation_recomputes_once() {
        let (mut prover, verifier, halt) = build(OP);
        prover.run_to(halt, 1000);
        for i in 0..5 {
            let chal = Challenge::derive(b"memo", i);
            let proof = prover.prove(&chal);
            assert!(verifier.check(&proof, &chal, None).is_ok());
        }
        let stats = verifier.er_digest_cache().stats();
        assert_eq!(stats.misses, 1, "digest computed exactly once");
        assert_eq!(stats.hits, 4);
        assert!(stats.hit_rate() > 0.7);
        verifier.er_digest_cache().invalidate();
        let chal = Challenge::derive(b"memo", 9);
        let proof = prover.prove(&chal);
        assert!(verifier.check(&proof, &chal, None).is_ok());
        assert_eq!(verifier.er_digest_cache().stats().misses, 2);
    }

    #[test]
    fn replay_rejected() {
        let (mut prover, verifier, halt) = build(OP);
        prover.run_to(halt, 1000);
        let chal0 = Challenge::derive(b"pox", 6);
        let proof = prover.prove(&chal0);
        let chal1 = Challenge::derive(b"pox", 7);
        assert!(verifier.check(&proof, &chal1, None).is_err());
    }
}
