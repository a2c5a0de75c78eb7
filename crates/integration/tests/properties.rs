//! Property-based integration tests over the whole stack.

use apps::{app_build_options, syringe_pump};
use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use dialed::prelude::*;
use proptest::prelude::*;

fn build_safe_syringe() -> InstrumentedOp {
    InstrumentedOp::build(
        syringe_pump::SOURCE,
        "syringe_op",
        &app_build_options(InstrumentMode::Full),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Completeness: for *any* in-bounds command the safe pump's honest run
    /// verifies clean, and the verifier's reconstruction reports exactly the
    /// dose the device administered.
    #[test]
    fn honest_safe_pump_always_verifies(index in 0u8..8, setting in 0u8..40) {
        let op = build_safe_syringe();
        let ks = KeyStore::from_seed(0xAB);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        dev.platform_mut().uart.feed(&[index, setting]);
        let info = dev.invoke(&[0; 8]);
        prop_assume!(info.stop == apex::pox::StopReason::ReachedStop);
        let chal = Challenge::derive(b"prop", u64::from(index) * 256 + u64::from(setting));
        let proof = dev.prove(&chal);
        let verifier = DialedVerifier::new(op, ks);
        let report = verifier.verify(&VerifyRequest::new(&proof, &chal));
        prop_assert!(report.is_clean(), "{report}");

        // Reconstructed UART traffic equals the device's.
        let emu = verifier.reconstruct(&proof.pox.or_data);
        let emu_tx: Vec<u8> =
            emu.writes.iter().filter(|w| w.addr == 0x0067).map(|w| w.value as u8).collect();
        prop_assert_eq!(emu_tx, dev.platform().uart.tx.clone());
    }

    /// Soundness of the OR binding: no single-byte corruption of a proof's
    /// log ever verifies.
    #[test]
    fn corrupted_or_never_verifies(pos in 0usize..2048, bit in 0u8..8) {
        let op = build_safe_syringe();
        let ks = KeyStore::from_seed(0xCD);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        syringe_pump::feed_nominal(dev.platform_mut());
        dev.invoke(&[0; 8]);
        let chal = Challenge::derive(b"corrupt", 0);
        let mut proof = dev.prove(&chal);
        let len = proof.pox.or_data.len();
        proof.pox.or_data[pos % len] ^= 1 << bit;
        let report = DialedVerifier::new(op, ks).verify(&VerifyRequest::new(&proof, &chal));
        prop_assert!(!report.is_clean());
    }

    /// Argument binding: whatever garbage sits in r8..r15 at invocation, the
    /// verifier reconstructs the identical execution (all eight are logged,
    /// annotation-free).
    #[test]
    fn arbitrary_arguments_reconstruct_exactly(args in proptest::array::uniform8(any::<u16>())) {
        let src = "\
            .org 0xE000\nop:\n mov r8, r5\n add r9, r5\n xor r12, r5\n mov r5, &0x0300\n ret\n";
        let op = InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(0xEF);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        dev.invoke(&args);
        let chal = Challenge::derive(b"args", 0);
        let proof = dev.prove(&chal);
        let verifier = DialedVerifier::new(op, ks);
        let report = verifier.verify(&VerifyRequest::new(&proof, &chal));
        prop_assert!(report.is_clean(), "{report}");
        let emu = verifier.reconstruct(&proof.pox.or_data);
        let expect = args[0].wrapping_add(args[1]) ^ args[4];
        let wrote = emu.writes.iter().any(|w| w.addr == 0x0300 && w.value == expect);
        prop_assert!(wrote, "verifier must recover the argument-derived result");
    }
}
