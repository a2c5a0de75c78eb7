//! The proof-of-execution protocol: device-side runner/quoter and the
//! verifier-side check.

use crate::metadata::PoxConfig;
use crate::monitor::ApexMonitor;
use crate::violation::Violation;
use hacl::{Digest, Sha256};
use msp430::cpu::{Cpu, CpuFault, Observe, Step};
use msp430::platform::Platform;
use serde::{Deserialize, Serialize};
use std::fmt;
use vrased::{Challenge, KeyStore, RaVerifier, SwAtt};

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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunOutcome {
    /// Instructions executed (interrupt entries excluded).
    pub insns: usize,
    /// CPU cycles consumed, interrupt entries included.
    pub cycles: u64,
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
    /// Execution is dispatched superblock-at-a-time; the monitor and the
    /// peripheral clock still observe every single step via the dispatch
    /// callback (the monitor must see every read), in the same order as a
    /// [`Cpu::step`] loop. Only the instruction and cycle totals are kept.
    /// The core's superblock counters are published once, on return.
    pub fn run_to(&mut self, stop_pc: u16, max_steps: usize) -> RunOutcome {
        let mut out = RunOutcome { insns: 0, cycles: 0, stop: StopReason::StepBudgetExhausted };
        // One Step reused across the run.
        let mut step = Step::default();
        let mut remaining = max_steps;
        while remaining > 0 {
            if self.cpu.pc() == stop_pc {
                out.stop = StopReason::ReachedStop;
                break;
            }
            let (monitor, insns) = (&mut self.monitor, &mut out.insns);
            let r = self.cpu.step_block_into(
                &mut self.platform,
                stop_pc,
                remaining,
                Observe::EveryStep,
                &mut step,
                |platform, _regs, s, _| {
                    monitor.observe_step(s);
                    platform.advance(s.cycles);
                    *insns += usize::from(s.insn.is_some());
                },
            );
            match r {
                Ok((n, cycles)) => {
                    remaining -= n;
                    out.cycles += u64::from(cycles);
                }
                Err(fault) => {
                    if let CpuFault::Decode { at, .. } = fault {
                        self.monitor.observe_fault(at);
                    }
                    out.stop = StopReason::Fault(fault);
                    break;
                }
            }
        }
        self.cpu.publish_superblock_stats();
        out
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

/// Verifier-side PoX check.
///
/// The MAC binds the expected ER by its digest, a pure function of the op
/// image, so the verifier hashes the image once, when it is built, and
/// keeps only the digest and the length. A check then hashes the proof's
/// OR (skipping its leading zero blocks) and MACs 115 bytes.
#[derive(Clone, Debug)]
pub struct PoxVerifier {
    ra: RaVerifier,
    cfg: PoxConfig,
    er_digest: Digest,
    er_len: usize,
}

impl PoxVerifier {
    /// A verifier expecting `expected_er` (the instrumented executable's
    /// bytes, `er_min..=er_max`) in the configured region.
    #[must_use]
    pub fn new(keystore: KeyStore, cfg: PoxConfig, expected_er: impl AsRef<[u8]>) -> Self {
        let expected_er = expected_er.as_ref();
        Self {
            ra: RaVerifier::new(keystore),
            cfg,
            er_digest: Sha256::digest(expected_er),
            er_len: expected_er.len(),
        }
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
        self.check_structure(proof)?;
        // The OR is public (it travels in the clear), so its digest may
        // skip the log's unwritten, all-zero low end.
        let or_digest = Sha256::digest_public(&proof.or_data);
        let ok = ra.unwrap_or(&self.ra).check_region_digests(
            challenge,
            &[
                (self.cfg.er_min, self.cfg.er_max, &self.er_digest),
                (self.cfg.or_min, self.cfg.or_max, &or_digest),
            ],
            &self.extra_bytes(),
            &proof.tag,
        );
        if ok {
            Ok(&proof.or_data)
        } else {
            Err(PoxRejection::MacMismatch)
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
        if self.er_len != usize::from(self.cfg.er_max - self.cfg.er_min) + 1 {
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
        let (prover, verifier, halt, _) = build_with_er(src_op);
        (prover, verifier, halt)
    }

    /// [`build`], also returning the expected-ER bytes the verifier got.
    fn build_with_er(src_op: &str) -> (PoxProver, PoxVerifier, u16, Vec<u8>) {
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
        let verifier = PoxVerifier::new(ks, cfg, &er_bytes);
        (prover, verifier, caller.symbol("halt").unwrap(), er_bytes)
    }

    /// SHA-256 of `data` on the scalar kernel, every block compressed.
    fn scalar_digest(data: &[u8]) -> Digest {
        let mut h = Sha256::with_kernel(hacl::Kernel::Scalar);
        h.update(data);
        h.finalize()
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
    fn run_outcome_counts_instructions_and_cycles() {
        // mov #21, r10 ; add r10, r10 ; mov r10, &0x0200, then an interrupt
        // entry: its cycles count, but it is not an instruction.
        let (mut prover, _, _) = build(OP);
        prover.platform.load_words(0xE100, &[0x403A, 0x0015, 0x5A0A, 0x4A82, 0x0200]);
        prover.cpu.set_pc(0xE100);
        let out = prover.run_to(0xE10A, 100);
        assert_eq!(out, RunOutcome { insns: 3, cycles: 2 + 1 + 4, stop: StopReason::ReachedStop });
        prover.cpu.set_reg(Reg::SR, msp430::flags::GIE);
        prover.cpu.raise_irq(9);
        let out = prover.run_to(0xFFFF, 1);
        let irq = u64::from(msp430::cycles::IRQ_CYCLES);
        let budget = StopReason::StepBudgetExhausted;
        assert_eq!(out, RunOutcome { insns: 0, cycles: irq, stop: budget });
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
    fn forged_byte_in_the_zero_run_rejected() {
        // The OR digest skips leading zero blocks; a byte planted in them
        // must still break the MAC, and a block left zero must not.
        let (mut prover, verifier, halt) =
            build(".org 0xE000\nop: mov #0xBEEF, &0x06FE\nop_end: ret\n");
        prover.run_to(halt, 1000);
        let chal = Challenge::derive(b"pox", 9);
        let mut proof = prover.prove(&chal);
        assert!(proof.or_data[..192].iter().all(|&b| b == 0), "three zero blocks lead the OR");
        assert!(verifier.check(&proof, &chal, None).is_ok());
        for at in [0, 63, 64, 191] {
            proof.or_data[at] = 1;
            assert_eq!(verifier.check(&proof, &chal, None), Err(PoxRejection::MacMismatch));
            proof.or_data[at] = 0;
        }
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
        // A mixed batch: honest, forged OR (in the zero run), wrong
        // challenge, honest, EXEC clear. `check` (stored ER digest, OR
        // digest skipping its zero blocks, the process's kernel) must decide
        // exactly what a reference decides from scratch: the structural
        // checks, then both regions hashed in full on the scalar kernel.
        let (mut prover, verifier, halt, er) =
            build_with_er(".org 0xE000\nop: mov #0xBEEF, &0x06FE\nop_end: ret\n");
        let unexec_proof = prover.prove(&Challenge::derive(b"pre", 9));
        prover.run_to(halt, 1000);
        let chals: Vec<Challenge> = (0..4).map(|i| Challenge::derive(b"pre", i)).collect();
        let mut proofs: Vec<PoxProof> = chals.iter().map(|c| prover.prove(c)).collect();
        proofs[1].or_data[0] ^= 1;
        proofs.push(unexec_proof);
        let wrong_chal = Challenge::derive(b"pre", 99);
        let item_chals = [&chals[0], &chals[1], &wrong_chal, &chals[3], &chals[0]];
        let ra = RaVerifier::new(KeyStore::from_seed(42));
        let cfg = verifier.cfg;
        let er_digest = scalar_digest(&er);
        let mut extra = [1u8; 11];
        extra[..10].copy_from_slice(&cfg.to_metadata_bytes());
        let mut verdicts = Vec::new();
        for (i, (proof, challenge)) in proofs.iter().zip(item_chals).enumerate() {
            let reference = verifier.check_structure(proof).and_then(|()| {
                let or_digest = scalar_digest(&proof.or_data);
                let regions =
                    [(cfg.er_min, cfg.er_max, &er_digest), (cfg.or_min, cfg.or_max, &or_digest)];
                if ra.check_region_digests(challenge, &regions, &extra, &proof.tag) {
                    Ok(proof.or_data.as_slice())
                } else {
                    Err(PoxRejection::MacMismatch)
                }
            });
            let got = verifier.check(proof, challenge, None);
            assert_eq!(got, reference, "item {i}");
            verdicts.push(got.map(|_| ()));
        }
        let mac = Err(PoxRejection::MacMismatch);
        assert_eq!(verdicts, [Ok(()), mac, mac, Ok(()), Err(PoxRejection::ExecClear)]);
    }

    #[test]
    fn er_digest_is_memoized_and_invalidation_recomputes_once() {
        // The verifier hashes the ER image once, when it is built, and
        // keeps the digest by value for every check. Building a verifier
        // over a changed image is what replaces it.
        let (mut prover, verifier, halt, er) = build_with_er(OP);
        assert_eq!(verifier.er_digest, scalar_digest(&er));
        prover.run_to(halt, 1000);
        for i in 0..5 {
            let chal = Challenge::derive(b"memo", i);
            let proof = prover.prove(&chal);
            assert!(verifier.check(&proof, &chal, None).is_ok());
        }
        let mut patched = er.clone();
        patched[2] ^= 0x11;
        let rebuilt = PoxVerifier::new(KeyStore::from_seed(42), verifier.cfg, &patched);
        assert_eq!(rebuilt.er_digest, scalar_digest(&patched));
        let chal = Challenge::derive(b"memo", 9);
        let proof = prover.prove(&chal);
        assert_eq!(rebuilt.check(&proof, &chal, None), Err(PoxRejection::MacMismatch));
        assert!(verifier.check(&proof, &chal, None).is_ok());
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
