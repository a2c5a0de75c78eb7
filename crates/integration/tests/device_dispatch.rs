//! Device-side dispatch differential: the prover's run is the same on
//! superblocks and on the plain-decode reference.
//!
//! Each case runs twice on a fresh `DialedDevice`, once per
//! `msp430::Dispatch` (set through `cpu_mut`), and must produce identical
//! `RunInfo`s, APEX monitor state (EXEC and first violation), OR bytes
//! and proof tag. The cases are every app × instrumentation mode, plus an
//! interrupt taken inside the op and a DMA transfer between two runs of it
//! (from `attacks.rs`), so the halt/IRQ fallback runs on both paths.

use apex::pox::StopReason;
use apex::Violation;
use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use dialed::prelude::*;
use dialed::RunInfo;
use msp430::periph::Dma;
use msp430::Dispatch;

/// Everything a device run leaves that a verifier or a bench reads.
#[derive(PartialEq, Eq, Debug)]
struct Observed {
    runs: Vec<RunInfo>,
    exec: bool,
    violation: Option<Violation>,
    or_data: Vec<u8>,
    tag: hacl::Digest,
}

/// Runs `drive` on a fresh device per dispatch and requires identical
/// observations; returns the superblock one.
fn on_both_dispatches(
    op: &InstrumentedOp,
    drive: impl Fn(&mut DialedDevice) -> Vec<RunInfo>,
) -> Observed {
    let chal = Challenge::derive(b"device-dispatch", 0);
    let [reference, superblocks] = [Dispatch::Reference, Dispatch::Superblocks].map(|dispatch| {
        let mut dev = DialedDevice::new(op.clone(), KeyStore::from_seed(31));
        dev.cpu_mut().set_dispatch(dispatch);
        let runs = drive(&mut dev);
        let proof = dev.prove(&chal).pox;
        let violation = dev.violation();
        Observed { runs, exec: proof.exec, violation, or_data: proof.or_data, tag: proof.tag }
    });
    assert_eq!(reference, superblocks, "the device run depends on the dispatch");
    superblocks
}

#[test]
fn every_app_and_mode_proves_identically_on_both_dispatches() {
    for s in apps::scenarios() {
        for mode in [InstrumentMode::Original, InstrumentMode::CfaOnly, InstrumentMode::Full] {
            let seen = on_both_dispatches(&s.build(mode), |dev| {
                (s.feed)(dev.platform_mut());
                vec![dev.invoke(&s.args)]
            });
            assert_eq!(seen.runs[0].stop, StopReason::ReachedStop, "{} {mode:?}", s.name);
            assert!(seen.exec, "{} {mode:?}: {:?}", s.name, seen.violation);
        }
    }
}

#[test]
fn an_interrupt_inside_the_op_is_taken_identically() {
    let src = "
        .org 0xE000
op:
        eint
        mov #1, r10
        mov #2, r11
        dint
        ret
";
    let op = InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap();
    let seen = on_both_dispatches(&op, |dev| {
        dev.platform_mut().load_words(0xFFE0 + 2 * 9, &[0xF700]);
        dev.platform_mut().load_words(0xF700, &[0x1300]); // reti
        dev.cpu_mut().raise_irq(9);
        vec![dev.invoke(&[0; 8])]
    });
    assert!(!seen.exec, "an interrupt inside ER clears EXEC");
    assert!(seen.violation.is_some());
}

#[test]
fn a_dma_transfer_during_the_op_is_seen_identically() {
    let build = apps::app_build_options(InstrumentMode::Full);
    let op = InstrumentedOp::build(apps::syringe_pump::SOURCE, "syringe_op", &build).unwrap();
    let seen = on_both_dispatches(&op, |dev| {
        apps::syringe_pump::feed_nominal(dev.platform_mut());
        let first = dev.invoke_with_budget(&[0; 8], 50); // part-way into the op
        dev.dma(&Dma { dst: apps::GLOBALS, data: vec![0xFF, 0x00] });
        vec![first, dev.run_raw(1_000_000)]
    });
    assert_eq!(seen.runs[0].stop, StopReason::StepBudgetExhausted);
    assert!(!seen.exec, "a mid-run DMA clears EXEC");
    assert!(matches!(seen.violation, Some(Violation::DmaDuringExec { .. })));
}
