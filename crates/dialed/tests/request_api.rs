//! Equivalence properties for the request-based verification API.
//!
//! These properties were established against the legacy entry points
//! (direct proof/challenge `verify`, workspace-reusing and per-key
//! variants, keyed batch jobs) before those were deleted, and now pin the
//! surviving surface: every shape of the request API — embedded key,
//! explicit [`StaticKeys`], [`PerDevice`] lookup, and warm-workspace
//! `verify_in` with and without a key source (the way a fleet shard
//! drains) — must produce **identical** [`Report`]s for the same proof,
//! challenge and key, honest or corrupted. The plain tests at the end pin
//! what a shard relies on when it reuses one workspace per operation:
//! reuse across operations is pure, policies reach every proof, and
//! per-device keys never fall back to the verifier's own.

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

    // 5. Per-device lookup on the warm workspace (the fleet drain shape).
    let req = VerifyRequest::new(proof, chal).for_device(device).keys(&lookup);
    let warm_looked = verifier.verify_in(&mut ws, &req);

    assert_eq!(embedded, warm, "warm workspace diverged");
    assert_eq!(embedded, keyed, "StaticKeys diverged");
    assert_eq!(embedded, looked, "PerDevice diverged");
    assert_eq!(embedded, warm_looked, "PerDevice on a warm workspace diverged");
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
    /// on fresh and warm workspaces, with the structured reason.
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
        let mut ws = EmuWorkspace::new();
        let _ = verifier.verify_in(&mut ws, &VerifyRequest::new(&proof, &chal));
        let warm = verifier
            .verify_in(&mut ws, &VerifyRequest::new(&proof, &chal).for_device(device).keys(&empty));
        prop_assert_eq!(&direct, &warm);
        prop_assert_eq!(
            direct.findings,
            vec![Finding::PoxRejected { reason: RejectReason::UnknownKey { device } }]
        );
    }
}

/// One proof of `op` by a device holding `key`, answering challenge `round`.
fn prove(
    op: &InstrumentedOp,
    key: &KeyStore,
    args: [u16; 8],
    round: u64,
) -> (DialedProof, Challenge) {
    let mut dev = DialedDevice::new(op.clone(), key.clone());
    let info = dev.invoke(&args);
    assert_eq!(info.stop, apex::pox::StopReason::ReachedStop);
    let chal = Challenge::derive(b"shard-shape", round);
    (dev.prove(&chal), chal)
}

fn build(source: &str) -> InstrumentedOp {
    InstrumentedOp::build(source, "op", &BuildOptions::default()).expect("op builds")
}

#[test]
fn workspace_reuse_is_observationally_pure() {
    // One workspace serves op A, op B, a tampered proof of A and A again,
    // each report identical to a fresh-workspace verification.
    const OP_B: &str = ".org 0xE000\nop:\n mov r14, &0x0060\n ret\n";
    let key = KeyStore::from_seed(23);
    let a = DialedVerifier::new(build(OP), key.clone());
    let b = DialedVerifier::new(build(OP_B), key.clone());
    let (proof_a, chal_a) = prove(&build(OP), &key, [0, 0, 0, 0, 0, 0, 1, 100], 1);
    let (proof_b, chal_b) = prove(&build(OP_B), &key, [0, 0, 0, 0, 0, 0, 2, 200], 2);
    let mut tampered = proof_a.clone();
    tampered.pox.or_data[5] ^= 0xFF;
    let calls = [
        (&a, &proof_a, &chal_a),
        (&b, &proof_b, &chal_b),
        (&a, &tampered, &chal_a),
        (&a, &proof_a, &chal_a),
    ];
    let mut ws = EmuWorkspace::new();
    for (i, (verifier, proof, chal)) in calls.into_iter().enumerate() {
        let req = VerifyRequest::new(proof, chal);
        let warm = verifier.verify_in(&mut ws, &req);
        assert_eq!(warm, verifier.verify(&req), "call {i} diverged on a warm workspace");
        assert_eq!(warm.is_clean(), i != 2, "only the tampered proof is flagged");
    }
}

#[test]
fn policies_apply_to_every_proof() {
    // A policy that rejects the op's global store must flag every proof
    // verified on one reused workspace.
    let op = build(OP);
    let key = KeyStore::from_seed(25);
    let verifier = DialedVerifier::new(op.clone(), key.clone())
        .with_policy(Box::new(GlobalWriteBounds::new(vec![])));
    let mut ws = EmuWorkspace::new();
    for i in 0..9u16 {
        let (proof, chal) = prove(&op, &key, [0, 0, 0, 0, 0, i, i, 100 * i], u64::from(i));
        let report = verifier.verify_in(&mut ws, &VerifyRequest::new(&proof, &chal));
        assert_eq!(report.verdict, Verdict::Attack, "proof {i}: {report}");
    }
}

#[test]
fn per_device_keys_verify_under_their_own_keys() {
    // Each device holds its own key; the verifier is built with an
    // unrelated key that keyed requests must never fall back to.
    let op = build(OP);
    let table: Vec<RaVerifier> =
        (0u64..6).map(|i| RaVerifier::new(KeyStore::from_seed(1000 + i))).collect();
    let proofs: Vec<(DialedProof, Challenge)> = (0u64..6)
        .map(|i| prove(&op, &KeyStore::from_seed(1000 + i), [0, 0, 0, 0, 0, 0, 0, i as u16], i))
        .collect();
    let keys = PerDevice::new(|device| table.get(usize::try_from(device).ok()?));
    let verifier = DialedVerifier::new(op, KeyStore::from_seed(9999));
    let mut ws = EmuWorkspace::new();
    for (device, (proof, chal)) in (0u64..).zip(&proofs) {
        let keyed = VerifyRequest::new(proof, chal).for_device(device).keys(&keys);
        let report = verifier.verify_in(&mut ws, &keyed);
        assert!(report.is_clean(), "device {device}: {report}");
        // Without the key source the verifier's own (wrong) key applies
        // and the MAC fails.
        let unkeyed = verifier.verify_in(&mut ws, &VerifyRequest::new(proof, chal));
        assert_eq!(
            unkeyed.findings,
            vec![Finding::PoxRejected { reason: RejectReason::MacMismatch }],
            "device {device}"
        );
    }
}
