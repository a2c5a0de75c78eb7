//! Shared measurement helpers for the figure/table regeneration benches.
//!
//! Every bench target in `benches/` is a `harness = false` binary that
//! prints the corresponding table or figure series of the DIALED paper;
//! `cargo bench -p dialed-bench` therefore regenerates the full evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apex::pox::StopReason;
use apps::Scenario;
use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use dialed::prelude::*;

/// One measured configuration of one application.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Operation code size in bytes (Fig. 6a).
    pub code_bytes: usize,
    /// CPU cycles of the attested run (Fig. 6b).
    pub cycles: u64,
    /// Executed instructions.
    pub insns: usize,
    /// OR bytes consumed by the logs (Fig. 6c).
    pub log_bytes: usize,
}

/// Builds and runs `scenario` in `mode`, returning the paper's three
/// metrics.
///
/// # Panics
///
/// Panics if the app fails to build or run — these are fixed workloads, so
/// that is a harness bug.
#[must_use]
pub fn measure(scenario: &Scenario, mode: InstrumentMode) -> Measurement {
    let op = scenario.build(mode);
    let code_bytes = op.code_size();
    let ks = KeyStore::from_seed(0xBEEF);
    let mut dev = DialedDevice::new(op, ks);
    (scenario.feed)(dev.platform_mut());
    let info = dev.invoke(&scenario.args);
    assert_eq!(
        info.stop,
        StopReason::ReachedStop,
        "{} did not complete in mode {mode:?}: {:?}",
        scenario.name,
        dev.violation()
    );
    Measurement {
        code_bytes,
        cycles: info.cycles,
        insns: info.insns,
        log_bytes: info.log_bytes_used,
    }
}

/// Builds, runs *and verifies* a scenario end to end; returns the
/// verification report (used by the micro benches and smoke checks).
///
/// # Panics
///
/// Panics when the run does not complete.
#[must_use]
pub fn run_and_verify(scenario: &Scenario) -> Report {
    let op = scenario.build(InstrumentMode::Full);
    let ks = KeyStore::from_seed(0xF00D);
    let mut dev = DialedDevice::new(op.clone(), ks.clone());
    (scenario.feed)(dev.platform_mut());
    let info = dev.invoke(&scenario.args);
    assert_eq!(info.stop, StopReason::ReachedStop);
    let chal = Challenge::derive(b"bench", 1);
    let proof = dev.prove(&chal);
    let mut verifier = DialedVerifier::new(op, ks);
    for p in (scenario.policies)() {
        verifier = verifier.with_policy(p);
    }
    verifier.verify(&VerifyRequest::new(&proof, &chal))
}

/// Returns an [`InstrumentedOp`] for a scenario (bench setup helper).
///
/// # Panics
///
/// Panics if the app fails to build.
#[must_use]
pub fn build_op(scenario: &Scenario, mode: InstrumentMode) -> InstrumentedOp {
    scenario.build(mode)
}

/// Formats a percentage delta for table printing.
#[must_use]
pub fn pct(new: f64, old: f64) -> String {
    if old == 0.0 {
        return "–".to_string();
    }
    format!("{:+.0}%", 100.0 * (new - old) / old)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_cover_all_scenarios() {
        for s in apps::scenarios() {
            let m = measure(&s, InstrumentMode::Full);
            assert!(m.code_bytes > 0 && m.cycles > 0 && m.log_bytes > 0, "{}", s.name);
        }
    }

    #[test]
    fn end_to_end_verification_is_clean_for_all_scenarios() {
        for s in apps::scenarios() {
            let report = run_and_verify(&s);
            assert!(report.is_clean(), "{}: {report}", s.name);
        }
    }
}
