//! Exact per-proof cost counts of verification, plus warm single-thread
//! times, per evaluation app.
//!
//! Each app runs one honest device round per instrumentation mode, and its
//! proof is then verified over and over, as a fleet worker does.
//!
//! The first table is Full mode's `verify_in` on one long-lived workspace
//! (MAC check included). Its counts come from the workspace's last
//! abstract execution and are identical on every run: instructions, block
//! dispatches, the share of instructions no observer saw (quiet), log
//! appends whose tail ran fused, and RAM pages the reset before the proof
//! rewrote. `prefix` is the instructions before the first input-log site,
//! where abstract execution first injects a device input, with their share
//! of all instructions: the part of every proof of the op that no input
//! can change.
//!
//! The second table is the PoX MAC check alone (`PoxVerifier::check`) for
//! Original and Full mode: how many of the OR's leading 64-byte blocks are
//! zero (and skipped by its digest), and the SHA-256 compressions one
//! check runs, counted from the lengths (the OR's tail with its padding,
//! then the HMAC's inner and outer passes after the key's midstates; the
//! ER digest is computed once, when the verifier is built).
//!
//! Times are means over `--iters` repetitions (default 2000).
//!
//! ```text
//! cargo run --release -p dialed-bench --example verify_probe -- --iters 2000
//! ```

use apex::PoxVerifier;
use dialed::pipeline::InstrumentMode;
use dialed::prelude::*;
use hacl::Kernel;
use std::time::Instant;

/// Compressions to hash `len` bytes from the initial state, padding
/// included (0x80, zeros, the 64-bit length).
fn compressions(len: usize) -> usize {
    (len + 8) / 64 + 1
}

/// The PoX MAC message: challenge, two regions as bounds + digest, and
/// the metadata + EXEC bytes.
const MAC_MSG_LEN: usize = 32 + 2 * (4 + 32) + 11;

/// Instructions from the canonical caller's `call` (where abstract
/// execution starts too) up to the op's first input-log site, counted by
/// single-stepping a fresh device.
fn input_prefix(dev: &mut DialedDevice, args: &[u16; 8]) -> usize {
    let sites = dev.op().sites.input.clone();
    dev.invoke_with_budget(args, 0);
    let mut steps = 0;
    while !sites.contains(&dev.cpu_mut().pc()) {
        assert_eq!(dev.run_raw(1).insns, 1, "the op returned before any input site");
        steps += 1;
    }
    steps
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut iters = 2000u32;
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().and_then(|v| v.parse().ok())) {
            ("--iters", Some(n)) if n > 0 => iters = n,
            _ => panic!("usage: verify_probe [--iters N]"),
        }
    }
    println!("sha256 kernel: {}", Kernel::detected().label());
    println!(
        "{:<18} {:>6} {:>10} {:>6} {:>6} {:>6} {:>13} {:>9}",
        "app", "insns", "dispatches", "quiet", "fused", "pages", "prefix", "warm_us"
    );
    let ks = KeyStore::from_seed(0xF00D);
    let chal = Challenge::derive(b"probe", 1);
    let mut mac_rows = Vec::new();
    for scenario in apps::scenarios() {
        for mode in [InstrumentMode::Original, InstrumentMode::Full] {
            let op = scenario.build(mode);
            let mut dev = DialedDevice::new(op.clone(), ks.clone());
            (scenario.feed)(dev.platform_mut());
            let run = dev.invoke(&scenario.args);
            let proof = dev.prove(&chal);

            if mode == InstrumentMode::Full {
                let verifier = (scenario.policies)()
                    .into_iter()
                    .fold(DialedVerifier::new(op.clone(), ks.clone()), DialedVerifier::with_policy);
                let req = VerifyRequest::new(&proof, &chal);
                let mut ws = EmuWorkspace::new();
                let report = verifier.verify_in(&mut ws, &req);
                assert!(report.is_clean(), "{}: {report}", scenario.name);
                // Second proof on the warm workspace: the steady state's counts.
                let _ = verifier.verify_in(&mut ws, &req);
                let c = ws.last_counts();
                assert_eq!(run.insns, c.insns, "device and verifier count the same steps");
                let mut fresh = DialedDevice::new(op.clone(), ks.clone());
                (scenario.feed)(fresh.platform_mut());
                let prefix = input_prefix(&mut fresh, &scenario.args);
                let prefix = format!("{prefix} ({:.1}%)", 100.0 * prefix as f64 / c.insns as f64);
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(verifier.verify_in(&mut ws, &req));
                }
                let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
                let quiet = 1.0 - c.observed as f64 / c.insns as f64;
                println!(
                    "{:<18} {:>6} {:>10} {:>6.3} {:>6} {:>6} {:>13} {:>9.2}",
                    scenario.name,
                    c.insns,
                    c.dispatches,
                    quiet,
                    c.fused_appends,
                    c.pages_restored,
                    prefix,
                    us
                );
            }

            let pox = PoxVerifier::new(ks.clone(), op.pox, &op.er_bytes);
            assert!(pox.check(&proof.pox, &chal, None).is_ok(), "{}", scenario.name);
            let or = &proof.pox.or_data;
            let zero_blocks = or
                .chunks_exact(64)
                .take(hacl::sha256::MAX_ZERO_BLOCKS)
                .take_while(|b| b.iter().all(|&x| x == 0))
                .count();
            let hmac = compressions(64 + MAC_MSG_LEN) - 1 + compressions(64 + 32) - 1;
            let total = compressions(or.len() - 64 * zero_blocks) + hmac;
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(pox.check(&proof.pox, &chal, None).is_ok());
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
            mac_rows.push((scenario.name, mode, zero_blocks, or.len() / 64, total, ns));
        }
    }
    println!(
        "{:<18} {:<8} {:>14} {:>12} {:>9}",
        "app", "mode", "or_zero_blocks", "compressions", "check_ns"
    );
    for (name, mode, zero, blocks, total, ns) in mac_rows {
        let zero = format!("{zero}/{blocks}");
        println!("{name:<18} {:<8} {zero:>14} {total:>12} {ns:>9.0}", format!("{mode:?}"));
    }
}
