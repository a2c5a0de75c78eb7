//! Proof that the request-based verification path performs **zero heap
//! allocations** per proof in the steady state — the ISSUE 4 acceptance
//! criterion for the API redesign: `VerifyRequest` is a stack value of
//! borrows, key resolution borrows out of the [`KeySource`], and a warm
//! [`EmuWorkspace`] recycles every emulation buffer.
//!
//! The workspace otherwise denies `unsafe_code`; this test binary opts out
//! locally because the shared counting-allocator harness (see
//! `crates/msp430/tests/support/counting_alloc.rs`) implements
//! `GlobalAlloc`.

#![allow(unsafe_code)]

use dialed::prelude::*;
use vrased::RaVerifier;

include!("../../msp430/tests/support/counting_alloc.rs");

const OP: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

/// Runs without the libtest harness (see `Cargo.toml`): the measurement
/// must be the only thing executing in the process, since harness threads
/// allocate concurrently and would pollute the counters.
fn main() {
    steady_state_request_verification_is_allocation_free();
    per_device_mac_path_is_allocation_free();
    println!("zero_alloc: ok");
}

fn steady_state_request_verification_is_allocation_free() {
    let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).expect("op builds");
    let key = KeyStore::from_seed(0x2A);
    let mut dev = DialedDevice::new(op.clone(), key.clone());
    dev.invoke(&[0, 0, 0, 0, 0, 0, 3, 4]);
    let challenge = Challenge::derive(b"zero-alloc", 0);
    let proof = dev.prove(&challenge);

    let verifier = DialedVerifier::new(op, key.clone());
    let keys = StaticKeys::new(key);
    let mut ws = EmuWorkspace::new();

    // Warm-up: first proofs grow the workspace's RAM/trace/OR buffers.
    for _ in 0..4 {
        let req = VerifyRequest::new(&proof, &challenge).for_device(7).keys(&keys);
        assert!(verifier.verify_in(&mut ws, &req).is_clean());
    }

    // Steady state, embedded key: building the request and verifying must
    // not touch the heap.
    let before = allocations();
    for _ in 0..200 {
        let req = VerifyRequest::new(&proof, &challenge);
        let report = verifier.verify_in(&mut ws, &req);
        assert!(report.is_clean());
        std::hint::black_box(&report);
    }
    assert_eq!(allocations() - before, 0, "embedded-key request path must not allocate");

    // Steady state, explicit key source: key resolution is a borrow, so
    // the keyed path is equally allocation-free.
    let before = allocations();
    for _ in 0..200 {
        let req = VerifyRequest::new(&proof, &challenge).for_device(7).keys(&keys);
        let report = verifier.verify_in(&mut ws, &req);
        assert!(report.is_clean());
        std::hint::black_box(&report);
    }
    assert_eq!(allocations() - before, 0, "keyed request path must not allocate");

    // Sanity: the harness actually counts (one boxed value = ≥1 count).
    let before = allocations();
    let boxed = std::hint::black_box(Box::new(0xABu8));
    assert!(allocations() > before, "counting allocator must observe allocations");
    drop(boxed);
}

/// The path that carries each proof's MAC: nine devices, each with its own
/// key resolved through [`PerDevice`], verified with requests built the way
/// [`BatchVerifier`] builds them (the MAC is checked inside `verify_in`).
/// Once warm, a proof costs no allocation — neither per-request nor inside
/// a `verify_batch`, whose only allocation is the outcome vector it
/// returns.
fn per_device_mac_path_is_allocation_free() {
    let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).expect("op builds");
    let table: Vec<RaVerifier> =
        (0..9).map(|d| RaVerifier::new(KeyStore::from_seed(0x51 + d))).collect();
    let jobs: Vec<BatchJob> = (0..9u64)
        .map(|d| {
            let mut dev = DialedDevice::new(op.clone(), KeyStore::from_seed(0x51 + d));
            dev.invoke(&[0, 0, 0, 0, 0, 0, 3, d as u16]);
            let challenge = Challenge::derive(b"zero-alloc-keyed", d);
            BatchJob::new(d, dev.prove(&challenge), challenge)
        })
        .collect();
    let keys = PerDevice::new(|device| table.get(usize::try_from(device).ok()?));
    // The embedded key belongs to no device: a job that fell back to it
    // would be rejected.
    let engine = BatchVerifier::new(DialedVerifier::new(op, KeyStore::from_seed(0xDEAD)));
    let mut ws = EmuWorkspace::new();

    // Warm-up: grows the workspace buffers and the engine's pooled one.
    for _ in 0..4 {
        assert!(engine.verify_batch(&jobs, Some(&keys)).all_clean());
        for job in &jobs {
            let req = VerifyRequest::new(&job.proof, &job.challenge)
                .for_device(job.device_id)
                .keys(&keys);
            assert!(engine.verifier().verify_in(&mut ws, &req).is_clean());
        }
    }

    let before = allocations();
    for _ in 0..100 {
        for job in &jobs {
            let req = VerifyRequest::new(&job.proof, &job.challenge)
                .for_device(job.device_id)
                .keys(&keys);
            let report = engine.verifier().verify_in(&mut ws, &req);
            assert!(report.is_clean());
            std::hint::black_box(&report);
        }
    }
    assert_eq!(allocations() - before, 0, "per-device MAC path must not allocate");

    let before = allocations();
    for _ in 0..100 {
        let report = engine.verify_batch(&jobs, Some(&keys));
        assert_eq!(report.stats.clean, 9);
        std::hint::black_box(&report);
    }
    assert_eq!(allocations() - before, 100, "one outcome vector per batch, nothing per proof");
}
