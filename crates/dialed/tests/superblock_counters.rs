//! Superblock counters reach the process-wide totals once per run.
//!
//! Dispatch counts into its own core only; `PoxProver::run_to` and
//! abstract execution publish the core's unpublished delta when they
//! return. So once every run has returned, `process_superblock_stats()`
//! must have moved by exactly the sum of the per-core moves — including
//! for cores that are never dropped (a fleet shard's kept workspaces),
//! which a publish-on-drop scheme would miss.
//!
//! This file holds one test on purpose: the totals are process-wide, and
//! a second test running beside it would move them.

use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::prelude::*;
use msp430::{process_superblock_stats, SuperblockStats};
use std::sync::Barrier;

fn delta(after: SuperblockStats, before: SuperblockStats) -> SuperblockStats {
    SuperblockStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        restitches: after.restitches - before.restitches,
    }
}

fn add(sum: &mut SuperblockStats, d: SuperblockStats) {
    sum.hits += d.hits;
    sum.misses += d.misses;
    sum.restitches += d.restitches;
}

#[test]
fn process_totals_equal_the_sum_of_per_core_counts() {
    // A loop with branches, so blocks are re-entered (hits) and left at
    // taken jumps.
    const OP: &str = "\
        .org 0xE000\nop:\n mov r15, r10\n clr r11\nloop:\n add r10, r11\n dec r10\n jnz loop\n mov r11, &0x0060\n ret\n";
    let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
    let ks = KeyStore::from_seed(61);

    // Device side: every `run_to` publishes its core's counts.
    let before = process_superblock_stats();
    let mut device_sum = SuperblockStats::default();
    let proofs: Vec<(DialedProof, Challenge)> = (0..12u16)
        .map(|i| {
            let mut dev = DialedDevice::new(op.clone(), ks.clone());
            let mut args = [0u16; 8];
            args[7] = 3 + i;
            dev.invoke(&args);
            add(&mut device_sum, dev.cpu_mut().superblock_stats());
            let chal = Challenge::derive(b"counters", u64::from(i));
            (dev.prove(&chal), chal)
        })
        .collect();
    assert_eq!(delta(process_superblock_stats(), before), device_sum, "device cores");

    // Verifier side: two threads share one verifier, each on its own
    // workspace, then one more run goes alone on the first workspace. The
    // workspaces are kept (never dropped while we look), and each started
    // cold, so its core's counters are its whole contribution.
    let verifier = DialedVerifier::new(op, ks);
    let run = |ws: &mut EmuWorkspace, proofs: &[(DialedProof, Challenge)]| {
        for (proof, chal) in proofs {
            let report = verifier.verify_in(ws, &VerifyRequest::new(proof, chal));
            assert!(report.is_clean(), "{report}");
        }
    };
    let before = process_superblock_stats();
    let barrier = Barrier::new(2);
    let (mut mine, theirs) = std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            let mut ws = EmuWorkspace::new();
            barrier.wait();
            run(&mut ws, &proofs[6..]);
            ws
        });
        let mut ws = EmuWorkspace::new();
        barrier.wait();
        run(&mut ws, &proofs[..6]);
        (ws, other.join().unwrap())
    });
    run(&mut mine, &proofs[..3]);

    let mut per_core = mine.superblock_stats();
    add(&mut per_core, theirs.superblock_stats());
    assert_eq!(delta(process_superblock_stats(), before), per_core, "verifier cores");
    assert!(per_core.hits > 0, "warm kept cores must hit: {per_core:?}");
}
