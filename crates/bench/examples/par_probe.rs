//! Do two threads on this host really run at once, and what does a
//! thread cost? The figures behind `fleet`'s drain-parallelism rule.
//!
//! Four loads each run once on one thread, then on two threads at the
//! same time (each thread doing the whole load):
//!
//! * `alu` — an xorshift loop in registers;
//! * `memory` — a dependent random walk over a 16 MiB table per thread;
//! * `verify_in` — warm Full-mode verification of one SyringePump proof,
//!   each thread on its own workspace;
//! * `atomic` — `fetch_add` on one counter both threads share, so its
//!   cache line ping-pongs between the cores.
//!
//! If the two cores are real, each thread of the pair takes about as long
//! as the load alone (ratio ≈ 1); if they time-share one core, each takes
//! about twice as long (ratio ≈ 2). `atomic` is the exception that shows
//! what cross-core traffic costs.
//!
//! Then the fixed price of going parallel: `thread::scope` with one and
//! with two spawned threads that do nothing, joined. The figures are
//! medians over `--reps` repetitions (default 5 for the loads, 200 times
//! as many for the spawns).
//!
//! ```text
//! cargo run --release -p dialed-bench --example par_probe -- --reps 5
//! ```

use dialed::pipeline::InstrumentMode;
use dialed::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

const ALU_ITERS: u64 = 50_000_000;
const MEMORY_WORDS: usize = 2 << 20; // 16 MiB of u64 per thread
const MEMORY_STEPS: usize = 1_000_000;
const VERIFY_ITERS: u32 = 2_000;
const ATOMIC_ITERS: u64 = 5_000_000;

fn alu() {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..ALU_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
}

/// A single random cycle through the table (Sattolo's shuffle), so every
/// load depends on the one before it and misses the caches.
fn memory_table() -> Vec<u64> {
    let mut table: Vec<u64> = (0..MEMORY_WORDS as u64).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..MEMORY_WORDS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table.swap(i, (x % i as u64) as usize);
    }
    table
}

fn memory(table: &[u64]) {
    let mut at = 0usize;
    for _ in 0..MEMORY_STEPS {
        at = table[at] as usize;
    }
    black_box(at);
}

fn atomic(counter: &AtomicU64) {
    for _ in 0..ATOMIC_ITERS {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Times `load` alone, then on two threads released together by a
/// barrier; `make` builds each thread's untimed state first.
fn one_vs_two<S: Send>(
    name: &str,
    reps: usize,
    make: impl Fn() -> S + Sync,
    load: impl Fn(&mut S) + Sync,
) {
    let mut alone = Vec::with_capacity(reps);
    let (mut first, mut second) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let mut state = make();
        let start = Instant::now();
        load(&mut state);
        alone.push(start.elapsed());

        let barrier = Barrier::new(2);
        let (a, b) = thread::scope(|scope| {
            let run = || {
                let mut state = make();
                barrier.wait();
                let start = Instant::now();
                load(&mut state);
                start.elapsed()
            };
            let other = scope.spawn(run);
            let mine = run();
            (mine, other.join().expect("probe thread panicked"))
        });
        first.push(a);
        second.push(b);
    }
    let (alone, a, b) = (median(alone), median(first), median(second));
    let ratio = a.max(b).as_secs_f64() / alone.as_secs_f64();
    println!(
        "{name:<10} {:>10.4} {:>10.4} {:>10.4} {ratio:>7.2}",
        alone.as_secs_f64(),
        a.as_secs_f64(),
        b.as_secs_f64()
    );
}

/// Median wall time of `thread::scope` spawning `n` empty threads and
/// joining them.
fn spawn_join(n: usize, reps: usize) -> Duration {
    let times = (0..reps)
        .map(|_| {
            let start = Instant::now();
            thread::scope(|scope| {
                for _ in 0..n {
                    scope.spawn(|| black_box(0));
                }
            });
            start.elapsed()
        })
        .collect();
    median(times)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut reps = 5usize;
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().and_then(|v| v.parse().ok())) {
            ("--reps", Some(n)) if n > 0 => reps = n,
            _ => panic!("usage: par_probe [--reps N]"),
        }
    }
    let cores = thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("available_parallelism: {cores}");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>7}",
        "load", "alone_s", "pair_a_s", "pair_b_s", "ratio"
    );

    one_vs_two("alu", reps, || (), |()| alu());
    one_vs_two("memory", reps, memory_table, |t| memory(t));

    let scenario = apps::scenarios().remove(0);
    let op = scenario.build(InstrumentMode::Full);
    let ks = KeyStore::from_seed(0xF00D);
    let chal = Challenge::derive(b"par-probe", 1);
    let mut dev = DialedDevice::new(op.clone(), ks.clone());
    (scenario.feed)(dev.platform_mut());
    dev.invoke(&scenario.args);
    let proof = dev.prove(&chal);
    let verifier = (scenario.policies)()
        .into_iter()
        .fold(DialedVerifier::new(op, ks), DialedVerifier::with_policy);
    let req = VerifyRequest::new(&proof, &chal);
    let warm = || {
        let mut ws = EmuWorkspace::new();
        assert!(verifier.verify_in(&mut ws, &req).is_clean(), "{}", scenario.name);
        ws
    };
    one_vs_two("verify_in", reps, warm, |ws| {
        for _ in 0..VERIFY_ITERS {
            black_box(verifier.verify_in(ws, &req));
        }
    });

    let counter = AtomicU64::new(0);
    one_vs_two("atomic", reps, || (), |()| atomic(&counter));

    let spawn_reps = reps * 200;
    for n in [1, 2] {
        let us = spawn_join(n, spawn_reps).as_secs_f64() * 1e6;
        println!("thread::scope + {n} spawn(s) + join: {us:.1} us");
    }
}
