//! Device-side protocol: invoking an attested operation and producing a
//! DIALED proof.

use crate::pipeline::InstrumentedOp;
use apex::pox::{PoxProver, StopReason};
use apex::PoxProof;
use msp430::platform::Platform;
use msp430::regs::Reg;
use vrased::{Challenge, KeyStore};

/// Default step budget per invocation (generous; honest ops finish in tens
/// of thousands of steps).
pub const DEFAULT_STEP_BUDGET: usize = 2_000_000;

/// A DIALED attestation response: the APEX proof whose OR carries CF-Log
/// and I-Log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DialedProof {
    /// The underlying proof of execution.
    pub pox: PoxProof,
}

/// Outcome statistics of one device-side invocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunInfo {
    /// Instructions executed (interrupt entries excluded).
    pub insns: usize,
    /// CPU cycles consumed, interrupt entries included — the Fig. 6(b)
    /// metric.
    pub cycles: u64,
    /// OR bytes consumed by the logs — the Fig. 6(c) metric.
    pub log_bytes_used: usize,
    /// Why execution stopped.
    pub stop: StopReason,
}

/// The simulated prover device running one attested operation.
#[derive(Debug)]
pub struct DialedDevice {
    op: InstrumentedOp,
    prover: PoxProver,
}

impl DialedDevice {
    /// Boots a device with the operation (and caller stub) flashed.
    #[must_use]
    pub fn new(op: InstrumentedOp, keystore: KeyStore) -> Self {
        let mut platform = Platform::new();
        op.image.load_into_platform(&mut platform);
        let prover = PoxProver::new(platform, op.pox, keystore);
        Self { op, prover }
    }

    /// Scriptable peripherals (feed UART commands, ADC samples, pin levels)
    /// — and, for attack experiments, arbitrary memory tampering.
    pub fn platform_mut(&mut self) -> &mut Platform {
        &mut self.prover.platform
    }

    /// Read-only platform access.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.prover.platform
    }

    /// Direct CPU access (attack experiments set up adversarial register
    /// state; the adversary controls all software).
    pub fn cpu_mut(&mut self) -> &mut msp430::cpu::Cpu {
        &mut self.prover.cpu
    }

    /// The built operation.
    #[must_use]
    pub fn op(&self) -> &InstrumentedOp {
        &self.op
    }

    /// Invokes the operation through the canonical caller with arguments in
    /// `r8..r15` (the paper logs all eight), running until the op returns
    /// or the budget expires.
    pub fn invoke(&mut self, args: &[u16; 8]) -> RunInfo {
        self.invoke_with_budget(args, DEFAULT_STEP_BUDGET)
    }

    /// [`DialedDevice::invoke`] with an explicit step budget.
    pub fn invoke_with_budget(&mut self, args: &[u16; 8], budget: usize) -> RunInfo {
        let cpu = &mut self.prover.cpu;
        cpu.set_reg(Reg::SP, self.op.options.stack_top);
        cpu.set_reg(Reg::R4, self.op.r_top());
        for (i, v) in args.iter().enumerate() {
            cpu.set_reg(Reg::from_index(8 + i as u16), *v);
        }
        cpu.set_pc(self.op.options.caller_site);
        self.run_raw(budget)
    }

    /// Runs from the *current* CPU state (no register setup) until the op
    /// returns or the budget expires — for attack experiments that stage
    /// adversarial register/PC state via [`DialedDevice::cpu_mut`].
    pub fn run_raw(&mut self, budget: usize) -> RunInfo {
        let outcome = self.prover.run_to(self.op.return_addr, budget);
        let r4 = self.prover.cpu.reg(Reg::R4);
        RunInfo {
            insns: outcome.insns,
            cycles: outcome.cycles,
            log_bytes_used: usize::from(self.op.r_top().saturating_sub(r4)),
            stop: outcome.stop,
        }
    }

    /// Performs a mid- or post-run DMA transfer (attack scenarios), visible
    /// to the APEX monitor.
    pub fn dma(&mut self, dma: &msp430::periph::Dma) {
        self.prover.dma(dma);
    }

    /// Produces the attestation response for `challenge`.
    #[must_use]
    pub fn prove(&self, challenge: &Challenge) -> DialedProof {
        DialedProof { pox: self.prover.prove(challenge) }
    }

    /// Diagnostic: the APEX monitor's first violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<apex::Violation> {
        self.prover.violation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BuildOptions;

    const OP: &str = "\
        .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

    #[test]
    fn invoke_runs_to_completion() {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let mut dev = DialedDevice::new(op, KeyStore::from_seed(5));
        let info = dev.invoke(&[0, 0, 0, 0, 0, 0, 20, 22]);
        assert_eq!(info.stop, StopReason::ReachedStop, "{:?}", dev.violation());
        assert!(info.cycles > 0);
        // SP base + 8 args + final ret CF entry at minimum.
        assert!(info.log_bytes_used >= 20, "{}", info.log_bytes_used);
    }

    #[test]
    fn proof_after_honest_run_has_exec() {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let mut dev = DialedDevice::new(op, KeyStore::from_seed(5));
        dev.invoke(&[0; 8]);
        let proof = dev.prove(&Challenge::derive(b"t", 0));
        assert!(proof.pox.exec);
    }

    #[test]
    fn wrong_r4_from_malicious_caller_yields_no_exec() {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let mut dev = DialedDevice::new(op, KeyStore::from_seed(5));
        // Sabotage: set r4 after invoke() would have set it — simulate by
        // calling the op directly with a bad r4.
        dev.cpu_mut().set_reg(Reg::SP, 0x09FE);
        dev.cpu_mut().set_reg(Reg::R4, 0x0700);
        let entry = dev.op().op_entry;
        dev.cpu_mut().set_pc(entry);
        // It will spin at the entry check.
        let outcome = {
            let ret = dev.op().return_addr;
            dev.prover.run_to(ret, 5_000)
        };
        assert_eq!(outcome.stop, StopReason::StepBudgetExhausted);
        let proof = dev.prove(&Challenge::derive(b"t", 1));
        assert!(!proof.pox.exec);
    }
}
