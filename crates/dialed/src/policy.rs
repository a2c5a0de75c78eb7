//! Application policies evaluated on the reconstructed execution.
//!
//! DIALED's verifier reconstructs the complete execution (all inputs, all
//! intermediate state). Data-only attacks *reproduce* in that
//! reconstruction; policies are the predicates that turn a reproduced
//! behaviour into a verdict. Unlike OAT's source annotations, policies live
//! entirely at the verifier — no device-side cooperation or programmer
//! annotation is needed.
//!
//! A policy sees the reconstruction as an [`Emulation`]: its data writes in
//! execution order ([`Emulation::writes`], each with the writing PC and the
//! cycle offset it happened at), instruction and cycle totals, stack
//! extent, shadow-stack findings and the recomputed OR.

use crate::report::Finding;
use crate::verifier::Emulation;
use std::fmt;

/// A verifier-side predicate over a reconstructed execution.
///
/// Policies are `Send + Sync` so one [`crate::verifier::DialedVerifier`]
/// can be shared by threads that verify at once.
pub trait Policy: fmt::Debug + Send + Sync {
    /// Human-readable policy name (appears in findings).
    fn name(&self) -> &str;
    /// Evaluates the policy; returns findings (empty when satisfied).
    fn check(&self, emu: &Emulation) -> Vec<Finding>;
}

/// Spatial memory-safety policy: every store the *operation* performs must
/// land in its own stack, the OR log region, or an explicitly declared
/// writable region (globals it owns, actuation ports).
///
/// This is the generic detector for the paper's Fig. 2 data-only attack:
/// `settings[index] = v` with a corrupted `index` writes outside the
/// declared `settings` array and is flagged — no annotation of `set`
/// needed.
#[derive(Clone, Debug)]
pub struct GlobalWriteBounds {
    /// Inclusive address ranges the operation may legitimately write.
    pub writable: Vec<(u16, u16)>,
}

impl GlobalWriteBounds {
    /// Declares the writable ranges.
    #[must_use]
    pub fn new(writable: Vec<(u16, u16)>) -> Self {
        Self { writable }
    }
}

impl Policy for GlobalWriteBounds {
    fn name(&self) -> &str {
        "global-write-bounds"
    }

    fn check(&self, emu: &Emulation) -> Vec<Finding> {
        let mut findings = Vec::new();
        let in_stack = |a: u16| a >= emu.min_sp && a <= emu.sp_base.wrapping_add(1);
        let in_or = |a: u16| a >= emu.pox.or_min && a <= emu.pox.or_max;
        let declared = |a: u16| self.writable.iter().any(|(lo, hi)| a >= *lo && a <= *hi);
        // Only stores issued by the operation's code matter.
        for w in emu.writes.iter().filter(|w| emu.pox.in_er(w.pc)) {
            if !(in_stack(w.addr) || in_or(w.addr) || declared(w.addr)) {
                findings.push(Finding::OutOfBoundsWrite { pc: w.pc, addr: w.addr });
            }
        }
        findings
    }
}

/// Actuation-safety policy: the time an actuator port is driven non-zero
/// must not exceed `max_cycles` — catching both the Fig. 1 overdose (safety
/// check bypassed via control-flow hijack) and any data-only path to the
/// same effect.
#[derive(Clone, Debug)]
pub struct ActuationPulse {
    /// Actuator port address (e.g. `P3OUT`).
    pub port: u16,
    /// Maximum allowed pulse length in CPU cycles.
    pub max_cycles: u64,
}

impl ActuationPulse {
    /// Declares the bound.
    #[must_use]
    pub fn new(port: u16, max_cycles: u64) -> Self {
        Self { port, max_cycles }
    }

    /// Measures all pulses (cycles between a non-zero write and the next
    /// zero write to the port) in a reconstruction.
    #[must_use]
    pub fn pulses(&self, emu: &Emulation) -> Vec<u64> {
        let mut pulses = Vec::new();
        let mut started: Option<u64> = None;
        for w in emu.writes.iter().filter(|w| w.addr == self.port) {
            if w.value != 0 && started.is_none() {
                started = Some(w.cycle);
            } else if w.value == 0 {
                if let Some(s) = started.take() {
                    pulses.push(w.cycle - s);
                }
            }
        }
        if let Some(s) = started {
            pulses.push(emu.cycles - s); // still on at end of run
        }
        pulses
    }
}

impl Policy for ActuationPulse {
    fn name(&self) -> &str {
        "actuation-pulse"
    }

    fn check(&self, emu: &Emulation) -> Vec<Finding> {
        self.pulses(emu)
            .into_iter()
            .filter(|c| *c > self.max_cycles)
            .map(|cycles| Finding::ActuationViolation {
                port: self.port,
                cycles,
                max: self.max_cycles,
            })
            .collect()
    }
}

/// A policy wrapping a custom closure (for app-specific invariants that do
/// not fit the built-ins).
pub struct Custom<F> {
    name: String,
    f: F,
}

impl<F> fmt::Debug for Custom<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Custom({})", self.name)
    }
}

impl<F: Fn(&Emulation) -> Vec<Finding>> Custom<F> {
    /// Wraps `f` as a policy called `name`.
    pub fn new(name: &str, f: F) -> Self {
        Self { name: name.to_string(), f }
    }
}

impl<F: Fn(&Emulation) -> Vec<Finding> + Send + Sync> Policy for Custom<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&self, emu: &Emulation) -> Vec<Finding> {
        (self.f)(emu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::DialedDevice;
    use crate::pipeline::{BuildOptions, InstrumentedOp};
    use vrased::{Challenge, KeyStore};

    fn reconstruct(src: &str, args: &[u16; 8]) -> Emulation {
        let op = InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(8);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        let info = dev.invoke(args);
        assert_eq!(info.stop, apex::pox::StopReason::ReachedStop);
        let proof = dev.prove(&Challenge::derive(b"p", 0));
        crate::verifier::DialedVerifier::new(op, ks).reconstruct(&proof.pox.or_data)
    }

    #[test]
    fn write_bounds_accepts_declared_global() {
        let src = ".org 0xE000\nop:\n mov r15, &0x0300\n ret\n";
        let emu = reconstruct(src, &[0, 0, 0, 0, 0, 0, 0, 42]);
        let ok = GlobalWriteBounds::new(vec![(0x0300, 0x0301)]);
        assert!(ok.check(&emu).is_empty());
        let strict = GlobalWriteBounds::new(vec![]);
        let findings = strict.check(&emu);
        assert_eq!(findings.len(), 1);
        assert!(matches!(findings[0], Finding::OutOfBoundsWrite { addr: 0x0300, .. }));
    }

    #[test]
    fn write_bounds_ignores_stack_and_or_writes() {
        let src = ".org 0xE000\nop:\n push r15\n pop r15\n ret\n";
        let emu = reconstruct(src, &[0; 8]);
        let strict = GlobalWriteBounds::new(vec![]);
        assert!(strict.check(&emu).is_empty(), "stack pushes and log writes are fine");
    }

    #[test]
    fn actuation_pulse_measures_on_off() {
        // Drive P3OUT high, idle ~a few cycles, then low.
        let src = "\
            .org 0xE000\nop:\n mov.b #1, &0x0019\n mov #3, r10\nd:\n dec r10\n jnz d\n mov.b #0, &0x0019\n ret\n";
        let emu = reconstruct(src, &[0; 8]);
        let p = ActuationPulse::new(0x0019, 10_000);
        let pulses = p.pulses(&emu);
        assert_eq!(pulses.len(), 1);
        assert!(pulses[0] > 0);
        assert!(p.check(&emu).is_empty());
        let tight = ActuationPulse::new(0x0019, 1);
        assert_eq!(tight.check(&emu).len(), 1);
    }

    #[test]
    fn custom_policy_runs() {
        let src = ".org 0xE000\nop:\n ret\n";
        let emu = reconstruct(src, &[0; 8]);
        let p = Custom::new("always-fires", |_e: &Emulation| {
            vec![Finding::PolicyViolation { policy: "always-fires".into(), detail: "x".into() }]
        });
        assert_eq!(p.check(&emu).len(), 1);
        assert_eq!(p.name(), "always-fires");
    }
}
