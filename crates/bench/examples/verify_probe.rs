//! Exact per-proof cost counts of Full-mode verification, plus warm
//! single-thread `verify_in` time, per evaluation app.
//!
//! Each app runs one honest device round; its proof is then verified on one
//! long-lived workspace with the MAC verdict prechecked, as a fleet worker
//! does. The counts come from the workspace's last abstract execution and
//! are identical on every run: instructions, block dispatches, the share of
//! instructions no observer saw (quiet), log appends whose tail ran fused,
//! and RAM pages the reset before the proof rewrote. The time is the mean
//! over `--iters` verifications (default 2000).
//!
//! ```text
//! cargo run --release -p dialed-bench --example verify_probe -- --iters 2000
//! ```

use dialed::pipeline::InstrumentMode;
use dialed::prelude::*;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut iters = 2000u32;
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().and_then(|v| v.parse().ok())) {
            ("--iters", Some(n)) if n > 0 => iters = n,
            _ => panic!("usage: verify_probe [--iters N]"),
        }
    }
    println!(
        "{:<18} {:>6} {:>10} {:>6} {:>6} {:>6} {:>9}",
        "app", "insns", "dispatches", "quiet", "fused", "pages", "warm_us"
    );
    for scenario in apps::scenarios() {
        let op = scenario.build(InstrumentMode::Full);
        let ks = KeyStore::from_seed(0xF00D);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        (scenario.feed)(dev.platform_mut());
        dev.invoke(&scenario.args);
        let chal = Challenge::derive(b"probe", 1);
        let proof = dev.prove(&chal);
        let verifier = (scenario.policies)()
            .into_iter()
            .fold(DialedVerifier::new(op, ks), DialedVerifier::with_policy);
        let req = VerifyRequest::new(&proof, &chal).with_mac_precheck(true);

        let mut ws = EmuWorkspace::new();
        let report = verifier.verify_in(&mut ws, &req);
        assert!(report.is_clean(), "{}: {report}", scenario.name);
        // Second proof on the warm workspace: the steady state's counts.
        let _ = verifier.verify_in(&mut ws, &req);
        let c = ws.last_counts();
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(verifier.verify_in(&mut ws, &req));
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
        let quiet = 1.0 - c.observed as f64 / c.insns as f64;
        println!(
            "{:<18} {:>6} {:>10} {:>6.3} {:>6} {:>6} {:>9.2}",
            scenario.name, c.insns, c.dispatches, quiet, c.fused_appends, c.pages_restored, us
        );
    }
}
