//! An independent reference for the DIALED verifier (§IV), written the
//! slow, obvious way, and held to exact agreement with
//! `Verifier::verify_in`.
//!
//! The reference shares no machinery with the optimised verifier beyond
//! the instruction semantics and the application policies. It decodes
//! every instruction afresh (`Cpu::step`, the plain-decode reference,
//! never a superblock), loads a fresh `Ram` from the op image per
//! proof, keeps its logs in plain `Vec`s, finds log sites by linear
//! search in the op's site lists, and checks the MAC with one scalar HMAC
//! over the raw region bytes.
//!
//! Its `Report` must equal the optimised verifier's exactly: verdict,
//! every finding and every statistic. The cases are the committed attack
//! corpus, every mutation the mutation engine forges from the three apps'
//! honest proofs, and the pinned policy cases of `policy_findings.rs`.
//! The optimised side runs every case on one long-lived workspace, as a
//! fleet worker does, so warm caches and memory resets carry over between
//! proofs and between operations.

use apps::lifecycle::lifecycles;
use apps::{app_build_options, fire_sensor, syringe_pump, ultrasonic_ranger};
use dialed::pipeline::InstrumentMode;
use dialed::prelude::*;
use dialed::verifier::{DataWrite, EmuOutcome, Emulation, DEFAULT_EMU_BUDGET};
use fleet::DeviceId;
use msp430::cpu::Cpu;
use msp430::isa::{Insn, Op1, Op2, Operand};
use msp430::mem::{Bus, Ram};
use msp430::platform::Platform;
use msp430::regs::Reg;
use simdev::{MutantForge, Mutation};
use std::path::PathBuf;
use vrased::SwAtt;

/// Log-head words: the saved SP base and the eight argument registers.
const HEAD: usize = 9;

fn word(bytes: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([bytes[off], bytes[off + 1]])
}

/// The §IV verifier: PoX check, abstract execution with input injection,
/// shadow call stack, OR comparison, then the policies.
fn reference_verify(
    op: &InstrumentedOp,
    ks: &KeyStore,
    policies: &[Box<dyn Policy>],
    proof: &DialedProof,
    chal: &Challenge,
) -> Report {
    // 1. Proof of execution: structure, then the MAC over the raw bytes.
    let (cfg, pox) = (op.pox, &proof.pox);
    if pox.cfg != cfg {
        return Report::rejected(RejectReason::RegionMismatch);
    }
    if !pox.exec {
        return Report::rejected(RejectReason::ExecClear);
    }
    if op.er_bytes.len() != usize::from(cfg.er_max - cfg.er_min) + 1 {
        return Report::rejected(RejectReason::ErLengthMismatch);
    }
    if pox.or_data.len() != cfg.or_len() {
        return Report::rejected(RejectReason::OrLengthMismatch);
    }
    let mut extra = cfg.to_metadata_bytes().to_vec();
    extra.push(1);
    let regions: [(u16, u16, &[u8]); 2] =
        [(cfg.er_min, cfg.er_max, &op.er_bytes), (cfg.or_min, cfg.or_max, &pox.or_data)];
    if SwAtt::new(ks.clone()).attest_region_bytes(chal, &regions, &extra) != pox.tag {
        return Report::rejected(RejectReason::MacMismatch);
    }
    if op.sites.args.len() != HEAD {
        return Report::rejected(RejectReason::NotFullyInstrumented);
    }
    let or = &pox.or_data;
    let r_top = op.r_top();
    let capacity = (usize::from(r_top - cfg.or_min) + 2) / 2;
    if capacity < HEAD {
        return Report {
            verdict: Verdict::Rejected,
            findings: vec![Finding::OrHeadTruncated { capacity, required: HEAD }],
            stats: Default::default(),
        };
    }
    // Log entry `i` is the word at `r_top - 2i` (the log grows downwards).
    let entry =
        |i: usize| (i < capacity).then(|| word(or, usize::from(r_top - cfg.or_min) - 2 * i));

    // 2. Abstract execution from the log head.
    let mut ram = Ram::new();
    for (addr, byte) in op.image.iter() {
        ram.write_byte(addr, byte);
    }
    let mut cpu = Cpu::new();
    let sp_base = entry(0).unwrap_or(0);
    cpu.set_reg(Reg::SP, sp_base.wrapping_add(2));
    cpu.set_reg(Reg::R4, r_top);
    for i in 0..8u16 {
        cpu.set_reg(Reg::from_index(8 + i), entry(1 + usize::from(i)).unwrap_or(0));
    }
    cpu.set_pc(op.options.caller_site);

    let (mut writes, mut shadow, mut findings) = (Vec::new(), Vec::new(), Vec::new());
    let (mut insns, mut cycles, mut min_sp) = (0usize, 0u64, cpu.reg(Reg::SP));
    let mut outcome = EmuOutcome::Budget;
    while insns < DEFAULT_EMU_BUDGET {
        let pc = cpu.pc();
        if pc == op.return_addr {
            outcome = EmuOutcome::Completed;
            break;
        }
        if op.sites.input.contains(&pc) {
            inject(&mut cpu, &mut ram, r_top, cfg.or_min, entry);
        }
        let Ok(step) = cpu.step(&mut ram) else {
            outcome = EmuOutcome::Fault;
            break;
        };
        insns += 1;
        min_sp = min_sp.min(cpu.reg(Reg::SP));
        match step.insn {
            Some(Insn::One { op: Op1::Call, .. }) => shadow.extend(step.writes().map(|w| w.value)),
            Some(Insn::Two {
                op: Op2::Mov,
                src: Operand::IndirectInc(Reg::R1),
                dst: Operand::Reg(Reg::R0),
                ..
            }) => {
                let expected = shadow.pop().unwrap_or(op.return_addr);
                if step.next_pc != expected {
                    findings.push(Finding::ReturnHijack {
                        at: step.pc,
                        expected,
                        actual: step.next_pc,
                    });
                }
            }
            _ => {}
        }
        for w in step.writes() {
            let (addr, value, word) = (w.addr, w.value, w.word);
            writes.push(DataWrite { pc: step.pc, addr, value, word, cycle: cycles });
        }
        cycles += u64::from(step.cycles);
    }

    // 3. Log accounting and the OR comparison over the used span.
    let in_or = |a: u16| a >= cfg.or_min && a <= cfg.or_max;
    let (mut cf, mut input, mut args) = (0, 0, 0);
    for w in writes.iter().filter(|w: &&DataWrite| in_or(w.addr)) {
        if op.sites.input.contains(&w.pc) {
            input += 1;
        } else if op.sites.args.contains(&w.pc) {
            args += 1;
        } else {
            cf += 1;
        }
    }
    let final_r4 = cpu.reg(Reg::R4);
    let or_emulated = ram.as_slice()[usize::from(cfg.or_min)..=usize::from(cfg.or_max)].to_vec();
    let mut extra = Vec::new();
    if outcome != EmuOutcome::Completed {
        extra.push(Finding::EmulationStuck);
    }
    let used_lo = final_r4.wrapping_add(2).max(cfg.or_min);
    let mut slot = r_top;
    while slot >= used_lo {
        let off = usize::from(slot - cfg.or_min);
        let (device, emulated) = (word(or, off), word(&or_emulated, off));
        if device != emulated {
            extra.push(Finding::LogDivergence { addr: slot, device, emulated });
            break;
        }
        if slot < 2 {
            break;
        }
        slot -= 2;
    }

    // 4. Policies see the reconstruction, shadow-stack findings included.
    let emu = Emulation {
        writes,
        insns,
        cycles,
        findings,
        outcome,
        sp_base,
        min_sp,
        final_r4,
        or_emulated,
        pox: cfg,
        caller_return: op.return_addr,
        log_counts: (cf, input, args),
    };
    for policy in policies {
        extra.extend(policy.check(&emu));
    }
    let mut findings = emu.findings;
    findings.append(&mut extra);
    let stats = dialed::report::VerifyStats {
        emulated_insns: insns,
        log_bytes_used: usize::from(r_top.saturating_sub(final_r4)),
        cf_entries: cf,
        input_entries: input,
        arg_entries: args,
    };
    if findings.is_empty() {
        Report::clean(stats)
    } else {
        Report::attack(findings, stats)
    }
}

/// Before an input-log instruction (`mov <src>, 0(r4)`) runs, writes the
/// device's logged word for the current log slot at `<src>`'s address.
fn inject(
    cpu: &mut Cpu,
    ram: &mut Ram,
    r_top: u16,
    or_min: u16,
    entry: impl Fn(usize) -> Option<u16>,
) {
    let pc = cpu.pc();
    let words = [ram.read_word(pc), ram.read_word(pc + 2), ram.read_word(pc + 4)];
    let mut next = words[1..].iter().copied();
    let Ok(Insn::Two { src, .. }) = Insn::decode(pc, words[0], || next.next().unwrap_or(0)) else {
        return;
    };
    let ea = match src {
        Operand::Indirect(r) | Operand::IndirectInc(r) => cpu.reg(r),
        Operand::Indexed(r, x) => cpu.reg(r).wrapping_add(x),
        Operand::Symbolic(a) | Operand::Absolute(a) => a,
        _ => return,
    };
    let slot = cpu.reg(Reg::R4);
    if slot < or_min {
        return;
    }
    if let Some(v) = entry(usize::from(r_top.wrapping_sub(slot)) / 2) {
        ram.write_word(ea & !1, v);
    }
}

/// Verifies `proof` both ways under `policies` on the shared warm
/// workspace `ws` and requires identical reports.
fn agree(
    ws: &mut EmuWorkspace,
    label: &str,
    op: &InstrumentedOp,
    ks: &KeyStore,
    policies: Vec<Box<dyn Policy>>,
    proof: &DialedProof,
    chal: &Challenge,
) -> Report {
    let verifier = policies
        .into_iter()
        .fold(DialedVerifier::new(op.clone(), ks.clone()), |v, p| v.with_policy(p));
    let fast = verifier.verify_in(ws, &VerifyRequest::new(proof, chal));
    let slow = reference_verify(op, ks, verifier.policies(), proof, chal);
    assert_eq!(slow, fast, "{label}: reference and verify_in disagree");
    slow
}

#[test]
fn reference_agrees_on_the_committed_corpus() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let cases = simdev::corpus::load_dir(&root).expect("committed corpus decodes");
    assert_eq!(cases.len(), 48);
    let (fleet, _) = simdev::replay::canonical_fleet_with_devices();
    let specs = lifecycles();
    let ops: Vec<_> = specs.iter().map(|s| s.scenario.build(InstrumentMode::Full)).collect();
    let mut ws = EmuWorkspace::new();
    let mut verdicts = [0usize; 3];
    for case in &cases {
        let s = specs.iter().position(|s| s.scenario.name == case.scenario).expect("scenario");
        let ks = fleet.device_keystore(DeviceId(case.challenge.device)).expect("device");
        let policies = (specs[s].scenario.policies)();
        let report = agree(
            &mut ws,
            &case.id(),
            &ops[s],
            &ks,
            policies,
            &case.submit.body.proof,
            &case.challenge.challenge,
        );
        verdicts[report.verdict as usize] += 1;
    }
    // Clean: honest + head forge per scenario; the rest die as attacks or
    // rejects (the session-layer tag replay is a MAC reject here).
    assert_eq!(verdicts[Verdict::Clean as usize], 6, "{verdicts:?}");
    assert_eq!(verdicts[Verdict::Attack as usize], 9, "{verdicts:?}");
}

#[test]
fn reference_agrees_on_every_forged_mutant() {
    let mut ws = EmuWorkspace::new();
    for (i, spec) in lifecycles().iter().enumerate() {
        let name = spec.scenario.name;
        let ks = KeyStore::from_seed(0xF0C0 + i as u64);
        let forge = MutantForge::for_scenario(name, ks.clone(), name.as_bytes());
        let honest = agree(
            &mut ws,
            name,
            forge.op(),
            &ks,
            (spec.scenario.policies)(),
            forge.honest(),
            forge.challenge(),
        );
        assert!(honest.is_clean(), "{name}: {honest}");
        // The catalogue, then each parameterised family swept across its
        // geometry (the forge reduces parameters modulo the proof).
        let mut mutations = Mutation::catalog();
        for k in 0..6usize {
            let x = 1u16 << (3 * k);
            mutations.extend([
                Mutation::TagBitFlip { bit: 37 * k },
                Mutation::OrBitFlip { bit: 1021 * k + 5 },
                Mutation::OrTruncate { bytes: k + 1 },
                Mutation::OrExtend { bytes: k + 1 },
                Mutation::BoundsForge { shrink: 2 * k as u16 + 1 },
                Mutation::ExecClearForge { reseal: k % 2 == 0 },
                Mutation::CfSplice { rank: 17 * k, xor: x },
                Mutation::CfReorder { rank: 11 * k },
                Mutation::HeadForge { arg: k, xor: x },
            ]);
        }
        for m in &mutations {
            let case = forge.forge(m);
            let label = format!("{name} / {m:?}");
            let policies = (spec.scenario.policies)();
            agree(&mut ws, &label, forge.op(), &ks, policies, &case.proof, &case.challenge);
        }
    }
}

/// Builds `src` in Full mode and runs one device round stimulated by
/// `feed`; returns the op, key and proof.
fn device_round(
    src: &str,
    label: &str,
    feed: impl FnOnce(&mut Platform, &InstrumentedOp),
) -> (InstrumentedOp, KeyStore, DialedProof, Challenge) {
    let op = InstrumentedOp::build(src, label, &app_build_options(InstrumentMode::Full)).unwrap();
    let ks = KeyStore::from_seed(41);
    let mut dev = DialedDevice::new(op.clone(), ks.clone());
    feed(dev.platform_mut(), &op);
    dev.invoke(&[0; 8]);
    let chal = Challenge::derive(b"oracle", 0);
    let proof = dev.prove(&chal);
    (op, ks, proof, chal)
}

#[test]
fn reference_agrees_on_the_pinned_policy_cases() {
    let mut ws = EmuWorkspace::new();
    let mut check = |label: &str,
                     (op, ks, proof, chal): (InstrumentedOp, KeyStore, DialedProof, Challenge),
                     policies: Vec<Box<dyn Policy>>| {
        let report = agree(&mut ws, label, &op, &ks, policies, &proof, &chal);
        assert_eq!(report.verdict, Verdict::Attack, "{label}: {report}");
    };
    check(
        "fig1",
        device_round(syringe_pump::SOURCE_VULN_CF, "syringe_op", |p, op| {
            let inject = op.image.symbol("spc_inject").unwrap();
            p.uart.feed(&syringe_pump::attack_packet_cf(inject));
        }),
        syringe_pump::policies(),
    );
    check(
        "fig2",
        device_round(syringe_pump::SOURCE_VULN_DF, "syringe_op", |p, _| {
            syringe_pump::feed_attack_df(p);
        }),
        syringe_pump::policies(),
    );
    check(
        "SyringePump bounds",
        device_round(syringe_pump::SOURCE, "syringe_op", |p, _| syringe_pump::feed_nominal(p)),
        vec![
            Box::new(GlobalWriteBounds::new(vec![(0x0300, 0x030F), (0x0066, 0x0067)])),
            Box::new(ActuationPulse::new(syringe_pump::P3OUT, 1000)),
        ],
    );
    check(
        "FireSensor bounds",
        device_round(fire_sensor::SOURCE, "fire_op", |p, _| fire_sensor::feed_hot(p)),
        vec![
            Box::new(GlobalWriteBounds::new(vec![(0x0067, 0x0067), (0x0142, 0x0143)])),
            Box::new(ActuationPulse::new(fire_sensor::P1OUT, 10)),
        ],
    );
    check(
        "UltrasonicRanger bounds",
        device_round(ultrasonic_ranger::SOURCE, "ranger_op", |p, _| {
            ultrasonic_ranger::feed_nominal(p);
        }),
        vec![
            Box::new(GlobalWriteBounds::new(vec![
                (0x0067, 0x0067),
                (0x0142, 0x0143),
                (0x0160, 0x0161),
            ])),
            Box::new(ActuationPulse::new(ultrasonic_ranger::P2OUT, 1)),
        ],
    );
}
