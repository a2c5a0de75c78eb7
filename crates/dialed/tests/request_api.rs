//! Equivalence properties for the request-based verification API.
//!
//! These properties were established against the legacy entry points
//! (direct proof/challenge `verify`, workspace-reusing and per-key
//! variants, keyed batch jobs) before those were deleted, and now pin the
//! surviving surface: every shape of the
//! request API — embedded key, explicit [`StaticKeys`], [`PerDevice`]
//! lookup, warm-workspace `verify_in`, and the generic batch engine —
//! must produce **identical** [`Report`]s for the same proof, challenge
//! and key, honest or corrupted.

use dialed::prelude::*;
use proptest::prelude::*;
use vrased::RaVerifier;

const OP: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n xor r13, r10\n mov r10, &0x0060\n ret\n";

/// Builds one proof of the shared op under `seed`'s key.
fn proven(args: [u16; 8], seed: u64, round: u64) -> (InstrumentedOp, DialedProof, Challenge) {
    let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).expect("op builds");
    let mut dev = DialedDevice::new(op.clone(), KeyStore::from_seed(seed));
    dev.invoke(&args);
    let chal = Challenge::derive(b"equiv", round);
    (op, dev.prove(&chal), chal)
}

/// Verifies `proof` through every request-API shape and asserts all of
/// them return the same report, which is then returned for inspection.
fn all_shapes_agree(
    op: &InstrumentedOp,
    proof: &DialedProof,
    chal: &Challenge,
    seed: u64,
    device: u64,
) -> Report {
    let verifier = DialedVerifier::new(op.clone(), KeyStore::from_seed(seed));

    // 1. One-shot, embedded key (replaces legacy `verify`).
    let embedded = verifier.verify(&VerifyRequest::new(proof, chal));

    // 2. Warm reused workspace (replaces the legacy workspace-reusing
    //    variant) — run twice so the second pass sees a dirty workspace.
    let mut ws = EmuWorkspace::new();
    let _ = verifier.verify_in(&mut ws, &VerifyRequest::new(proof, chal));
    let warm = verifier.verify_in(&mut ws, &VerifyRequest::new(proof, chal));

    // 3. Explicit static key source (replaces the legacy per-key variant
    //    called with the construction key).
    let statics = StaticKeys::new(KeyStore::from_seed(seed));
    let keyed = verifier.verify(&VerifyRequest::new(proof, chal).for_device(device).keys(&statics));

    // 4. Per-device lookup source (the fleet shape).
    let ra = RaVerifier::new(KeyStore::from_seed(seed));
    let lookup = PerDevice::new(|d| (d == device).then_some(&ra));
    let looked = verifier.verify(&VerifyRequest::new(proof, chal).for_device(device).keys(&lookup));

    // 5. Through the generic batch engine, keyed and unkeyed.
    let engine = BatchVerifier::new(verifier);
    let jobs = [BatchJob::new(device, proof.clone(), *chal)];
    let batch_unkeyed = engine.verify_batch(&jobs, None).outcomes.remove(0).report;
    let batch_keyed = engine.verify_batch(&jobs, Some(&lookup)).outcomes.remove(0).report;

    assert_eq!(embedded, warm, "warm workspace diverged");
    assert_eq!(embedded, keyed, "StaticKeys diverged");
    assert_eq!(embedded, looked, "PerDevice diverged");
    assert_eq!(embedded, batch_unkeyed, "unkeyed batch diverged");
    assert_eq!(embedded, batch_keyed, "keyed batch diverged");
    embedded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Honest proofs: every entry shape yields the same clean report.
    #[test]
    fn honest_proofs_agree_across_all_entry_shapes(
        args in proptest::array::uniform8(any::<u16>()),
        seed in any::<u64>(),
        round in any::<u64>(),
        device in any::<u64>(),
    ) {
        let (op, proof, chal) = proven(args, seed, round);
        let report = all_shapes_agree(&op, &proof, &chal, seed, device);
        prop_assert!(report.is_clean(), "{report}");
    }

    /// Corrupted proofs: every entry shape yields the same rejection or
    /// attack report, bit for bit.
    #[test]
    fn corrupted_proofs_agree_across_all_entry_shapes(
        args in proptest::array::uniform8(any::<u16>()),
        seed in any::<u64>(),
        round in any::<u64>(),
        device in any::<u64>(),
        offset in any::<u16>(),
        flip in 1u8..=255,
    ) {
        let (op, mut proof, chal) = proven(args, seed, round);
        let len = proof.pox.or_data.len();
        proof.pox.or_data[usize::from(offset) % len] ^= flip;
        let report = all_shapes_agree(&op, &proof, &chal, seed, device);
        prop_assert!(!report.is_clean(), "corrupted proof must not verify");
    }

    /// A key source that does not know the device rejects identically
    /// through direct and batch paths, with the structured reason.
    #[test]
    fn unknown_devices_reject_identically(
        seed in any::<u64>(),
        device in any::<u64>(),
    ) {
        let (op, proof, chal) = proven([0; 8], seed, 1);
        let verifier = DialedVerifier::new(op, KeyStore::from_seed(seed));
        let empty = PerDevice::new(|_| None);
        let direct =
            verifier.verify(&VerifyRequest::new(&proof, &chal).for_device(device).keys(&empty));
        let engine = BatchVerifier::new(verifier);
        let jobs = [BatchJob::new(device, proof.clone(), chal)];
        let batch = engine.verify_batch(&jobs, Some(&empty)).outcomes.remove(0).report;
        prop_assert_eq!(&direct, &batch);
        prop_assert_eq!(
            direct.findings,
            vec![Finding::PoxRejected { reason: RejectReason::UnknownKey { device } }]
        );
    }
}
