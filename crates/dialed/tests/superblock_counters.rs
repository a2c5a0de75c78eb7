//! Superblock counters reach the process-wide totals once per run.
//!
//! Dispatch counts into its own core only; `PoxProver::run_to` and
//! abstract execution publish the core's unpublished delta when they
//! return. So once every run has returned, `process_superblock_stats()`
//! must have moved by exactly the sum of the per-core moves — including
//! for cores that are never dropped (a `BatchVerifier`'s pooled
//! workspaces), which a publish-on-drop scheme would miss.
//!
//! This file holds one test on purpose: the totals are process-wide, and
//! a second test running beside it would move them.

use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::prelude::*;
use msp430::{process_superblock_stats, SuperblockStats};
use std::sync::{Barrier, Mutex};

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

/// Adds up, per `verify_in` call, how far the workspace core's own
/// counters moved.
struct PerCore {
    inner: DialedVerifier,
    sum: Mutex<SuperblockStats>,
}

impl Verifier for PerCore {
    fn verify_in(&self, ws: &mut EmuWorkspace, req: &VerifyRequest<'_>) -> Report {
        let before = ws.superblock_stats();
        let report = self.inner.verify_in(ws, req);
        add(&mut self.sum.lock().unwrap(), delta(ws.superblock_stats(), before));
        report
    }
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
    let jobs: Vec<BatchJob> = (0..12u16)
        .map(|i| {
            let mut dev = DialedDevice::new(op.clone(), ks.clone());
            let mut args = [0u16; 8];
            args[7] = 3 + i;
            dev.invoke(&args);
            add(&mut device_sum, dev.cpu_mut().superblock_stats());
            let chal = Challenge::derive(b"counters", u64::from(i));
            BatchJob::new(u64::from(i), dev.prove(&chal), chal)
        })
        .collect();
    assert_eq!(delta(process_superblock_stats(), before), device_sum, "device cores");

    // Verifier side: two threads verify through one engine at once, then
    // one more batch runs alone, all on workspaces the engine keeps pooled
    // (never dropped while we look).
    let engine = BatchVerifier::new(PerCore {
        inner: DialedVerifier::new(op, ks),
        sum: Mutex::new(SuperblockStats::default()),
    });
    let before = process_superblock_stats();
    let barrier = Barrier::new(2);
    let run = |jobs: &[BatchJob]| {
        barrier.wait();
        engine.verify_batch(jobs, None)
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| run(&jobs[6..]));
        (run(&jobs[..6]), other.join().unwrap())
    });
    let alone = engine.verify_batch(&jobs[..3], None);
    assert!(a.all_clean() && b.all_clean() && alone.all_clean(), "{a}\n{b}\n{alone}");

    let per_core = *engine.verifier().sum.lock().unwrap();
    assert_eq!(delta(process_superblock_stats(), before), per_core, "verifier cores");
    assert!(per_core.hits > 0, "warm pooled cores must hit: {per_core:?}");
}
