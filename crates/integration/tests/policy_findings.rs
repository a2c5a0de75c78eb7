//! What the verifier hands its policies, and what they find.
//!
//! Two kinds of test live here. The regression: application policies must
//! observe the verifier's shadow-stack findings on the `Emulation` they
//! are handed — the verifier may only drain `emu.findings` *after*
//! policies have run. The oracle: the exact `Report` (every finding field
//! and every statistic) of the paper's two attacks and of each app's
//! write-bounds / actuation-pulse violation, plus the per-class OR slot
//! counts of all three apps' honest proofs — pinned so that a change to
//! how abstract execution records what it did (dispatch, block shape, the
//! write log the policies read) cannot move a single number.

use apps::{app_build_options, fire_sensor, syringe_pump, ultrasonic_ranger};
use dialed::pipeline::InstrumentMode;
use dialed::policy::Custom;
use dialed::prelude::*;
use dialed::report::VerifyStats;
use dialed::verifier::Emulation;
use dialed::SlotClass;
use msp430::platform::Platform;

#[test]
fn policies_observe_shadow_stack_findings() {
    // Stage the paper's Fig. 1 hijack so reconstruction yields a
    // ReturnHijack finding, then escalate on it from a custom policy.
    let opts = app_build_options(InstrumentMode::Full);
    let op = InstrumentedOp::build(syringe_pump::SOURCE_VULN_CF, "syringe_op", &opts).unwrap();
    let inject = op.image.symbol("spc_inject").unwrap();
    let ks = KeyStore::from_seed(31);
    let mut dev = DialedDevice::new(op.clone(), ks.clone());
    dev.platform_mut().uart.feed(&syringe_pump::attack_packet_cf(inject));
    dev.invoke(&[0; 8]);
    let chal = Challenge::derive(b"pol", 0);
    let proof = dev.prove(&chal);

    let escalate = Custom::new("escalate-hijack", |emu: &Emulation| {
        if emu.findings.iter().any(|f| matches!(f, Finding::ReturnHijack { .. })) {
            vec![Finding::PolicyViolation {
                policy: "escalate-hijack".into(),
                detail: "reconstructed hijack".into(),
            }]
        } else {
            Vec::new()
        }
    });
    let report = DialedVerifier::new(op, ks)
        .with_policy(Box::new(escalate))
        .verify(&VerifyRequest::new(&proof, &chal));
    assert!(report.findings.iter().any(|f| matches!(f, Finding::ReturnHijack { .. })), "{report}");
    assert!(
        report.findings.iter().any(|f| matches!(f, Finding::PolicyViolation { .. })),
        "policy must have seen the shadow-stack finding: {report}"
    );
}

/// Builds `src` in Full mode, runs it on a device stimulated by `feed`,
/// and returns the verifier's report under `policies` plus the OR slot
/// counts `[head, control-flow, input, unused]` of the same proof.
fn verify_app(
    src: &str,
    label: &str,
    feed: impl FnOnce(&mut Platform, &InstrumentedOp),
    policies: Vec<Box<dyn Policy>>,
) -> (Report, [usize; 4]) {
    let op = InstrumentedOp::build(src, label, &app_build_options(InstrumentMode::Full)).unwrap();
    let ks = KeyStore::from_seed(41);
    let mut dev = DialedDevice::new(op.clone(), ks.clone());
    feed(dev.platform_mut(), &op);
    dev.invoke(&[0; 8]);
    let chal = Challenge::derive(b"oracle", 0);
    let proof = dev.prove(&chal);
    let verifier =
        policies.into_iter().fold(DialedVerifier::new(op, ks), DialedVerifier::with_policy);
    let classes = verifier.or_slot_classes(&proof.pox.or_data);
    let count = |k| classes.iter().filter(|&&c| c == k).count();
    let counts = [
        count(SlotClass::Head),
        count(SlotClass::ControlFlow),
        count(SlotClass::Input),
        count(SlotClass::Unused),
    ];
    (verifier.verify(&VerifyRequest::new(&proof, &chal)), counts)
}

fn stats(emulated_insns: usize, log_bytes_used: usize, cf: usize, input: usize) -> VerifyStats {
    VerifyStats {
        emulated_insns,
        log_bytes_used,
        cf_entries: cf,
        input_entries: input,
        arg_entries: 9,
    }
}

#[test]
fn fig1_control_flow_attack_report_is_pinned() {
    let (report, _) = verify_app(
        syringe_pump::SOURCE_VULN_CF,
        "syringe_op",
        |p, op| {
            let inject = op.image.symbol("spc_inject").unwrap();
            p.uart.feed(&syringe_pump::attack_packet_cf(inject));
        },
        syringe_pump::policies(),
    );
    let expected = Report::attack(
        vec![
            Finding::ReturnHijack { at: 0xE1FC, expected: 0xE088, actual: 0xE0B4 },
            Finding::ActuationViolation { port: syringe_pump::P3OUT, cycles: 11_447, max: 8_200 },
        ],
        stats(5487, 1532, 743, 14),
    );
    assert_eq!(report, expected);
}

#[test]
fn fig2_data_only_attack_report_is_pinned() {
    let (report, _) = verify_app(
        syringe_pump::SOURCE_VULN_DF,
        "syringe_op",
        |p, _| syringe_pump::feed_attack_df(p),
        syringe_pump::policies(),
    );
    let expected = Report::attack(
        vec![Finding::OutOfBoundsWrite { pc: 0xE0BE, addr: syringe_pump::SET_ADDR }],
        stats(2033, 576, 268, 11),
    );
    assert_eq!(report, expected);
}

/// Each app's honest proof under its own write bounds minus the output
/// port, plus a pulse bound on that port tighter than any real pulse: both
/// built-in policies fire, on stores the oracle names by PC.
#[test]
fn per_app_policy_violations_and_slot_classes_are_pinned() {
    let (report, slots) = verify_app(
        syringe_pump::SOURCE,
        "syringe_op",
        |p, _| syringe_pump::feed_nominal(p),
        vec![
            Box::new(GlobalWriteBounds::new(vec![(0x0300, 0x030F), (0x0066, 0x0067)])),
            Box::new(ActuationPulse::new(syringe_pump::P3OUT, 1000)),
        ],
    );
    let port = syringe_pump::P3OUT;
    let expected = Report::attack(
        vec![
            Finding::OutOfBoundsWrite { pc: 0xE140, addr: port },
            Finding::OutOfBoundsWrite { pc: 0xE19A, addr: port },
            Finding::ActuationViolation { port, cycles: 4094, max: 1000 },
        ],
        stats(2040, 578, 269, 11),
    );
    assert_eq!(report, expected, "SyringePump");
    assert_eq!(slots, [9, 269, 11, 735], "SyringePump slot classes");

    // The hot stimulus raises the alarm and leaves it on: the pulse is
    // measured to the end of the run.
    let (report, slots) = verify_app(
        fire_sensor::SOURCE,
        "fire_op",
        |p, _| fire_sensor::feed_hot(p),
        vec![
            Box::new(GlobalWriteBounds::new(vec![(0x0067, 0x0067), (0x0142, 0x0143)])),
            Box::new(ActuationPulse::new(fire_sensor::P1OUT, 10)),
        ],
    );
    let port = fire_sensor::P1OUT;
    let expected = Report::attack(
        vec![
            Finding::OutOfBoundsWrite { pc: 0xE0F0, addr: port },
            Finding::OutOfBoundsWrite { pc: 0xE132, addr: port },
            Finding::ActuationViolation { port, cycles: 48, max: 10 },
        ],
        stats(653, 166, 71, 3),
    );
    assert_eq!(report, expected, "FireSensor");
    assert_eq!(slots, [9, 71, 3, 941], "FireSensor slot classes");

    let (report, slots) = verify_app(
        ultrasonic_ranger::SOURCE,
        "ranger_op",
        |p, _| ultrasonic_ranger::feed_nominal(p),
        vec![
            Box::new(GlobalWriteBounds::new(vec![
                (0x0067, 0x0067),
                (0x0142, 0x0143),
                (0x0160, 0x0161),
            ])),
            Box::new(ActuationPulse::new(ultrasonic_ranger::P2OUT, 1)),
        ],
    );
    let port = ultrasonic_ranger::P2OUT;
    let expected = Report::attack(
        vec![
            Finding::OutOfBoundsWrite { pc: 0xE076, addr: port },
            Finding::OutOfBoundsWrite { pc: 0xE07A, addr: port },
            Finding::ActuationViolation { port, cycles: 4, max: 1 },
        ],
        stats(2911, 818, 278, 122),
    );
    assert_eq!(report, expected, "UltrasonicRanger");
    assert_eq!(slots, [9, 278, 122, 615], "UltrasonicRanger slot classes");
}
