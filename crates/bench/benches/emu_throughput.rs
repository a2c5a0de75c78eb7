//! Emulation and crypto throughput — the two raw feeds of verification
//! cost, tracked so the fast-path speedups (predecoded icache,
//! zero-allocation `step_into`, multi-block SHA-256, reusable HMAC keys)
//! stay visible in the perf trajectory.
//!
//! Reported units: steps/sec for the simulator (superblock vs per-step
//! cached vs forced-decode), MiB/s for hashing on the process's kernel,
//! and MACs/sec for the keyed-context HMAC path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hacl::{HmacKey, HmacSha256, Sha256};
use msp430::cpu::{Cpu, Observe, Step};
use msp430::mem::Ram;
use msp430::regs::Reg;

const LOOP_STEPS: usize = 10_000;

/// A self-contained busy loop: add, store, load, jump back.
fn busy_loop_ram() -> Ram {
    let mut ram = Ram::new();
    ram.load_words(0xE000, &[0x5A0A, 0x4A82, 0x0200, 0x4211, 0x0200, 0x3FFA]);
    ram
}

/// A long straight-line program (the worst case for an icache within one
/// pass — every PC executes once — and the best across passes).
fn straight_line_ram() -> (Ram, u16) {
    let mut ram = Ram::new();
    let mut at = 0xA000u16;
    for _ in 0..2000 {
        ram.load_words(at, &[0x5A0A]); // add r10, r10
        at = at.wrapping_add(2);
    }
    ram.load_words(at, &[0x3FFF]); // jmp . (stop marker)
    (ram, at)
}

/// Drives `cpu` for exactly `steps` steps through superblock dispatch.
fn run_block_steps(cpu: &mut Cpu, ram: &mut Ram, step: &mut Step, steps: usize) {
    let mut done = 0usize;
    while done < steps {
        done += cpu
            .step_block_into(ram, 0xFFFF, steps - done, Observe::EveryStep, step, |_, _, _, _| {})
            .unwrap()
            .0;
    }
}

/// Interleaved A/B for the dispatch layers: alternate forced-decode,
/// per-step icache and superblock dispatch round-robin so frequency
/// scaling and cache state hit all of them equally, then print steps/s,
/// the speedup ratios and the superblock cache counters (the README
/// "Performance" table's source). Under `MSP430_FORCE_STEP` the
/// superblock slot degrades to per-step dispatch, pinning the parity
/// floor: it must never be slower than the icache column.
fn superblock_ab_report() {
    use std::time::{Duration, Instant};
    const REPS: usize = 40;
    const ROUNDS: usize = 6; // first round is warm-up, not counted

    let mut rams = [busy_loop_ram(), busy_loop_ram(), busy_loop_ram()];
    let mut cpus = [Cpu::new(), Cpu::new(), Cpu::new()];
    cpus[0].set_icache_enabled(false);
    cpus[0].set_superblocks_enabled(false);
    cpus[1].set_superblocks_enabled(false);
    let mut step = Step::default();
    for cpu in &mut cpus {
        cpu.set_pc(0xE000);
    }

    let mut spent = [Duration::ZERO; 3];
    for round in 0..ROUNDS {
        for slot in 0..3 {
            let (cpu, ram) = (&mut cpus[slot], &mut rams[slot]);
            let t = Instant::now();
            for _ in 0..REPS {
                if slot == 2 {
                    run_block_steps(cpu, ram, &mut step, LOOP_STEPS);
                } else {
                    for _ in 0..LOOP_STEPS {
                        cpu.step_into(ram, &mut step).unwrap();
                    }
                }
            }
            std::hint::black_box(step.pc);
            if round > 0 {
                spent[slot] += t.elapsed();
            }
        }
    }

    let steps = (LOOP_STEPS * REPS * (ROUNDS - 1)) as f64;
    let rate = |d: Duration| steps / d.as_secs_f64();
    let (forced, icache, sblock) = (rate(spent[0]), rate(spent[1]), rate(spent[2]));
    let stats = cpus[2].superblock_stats();
    println!(
        "superblock A/B (busy loop{}): forced_decode {forced:.0} steps/s | \
         icache {icache:.0} steps/s | superblock {sblock:.0} steps/s | \
         superblock/icache = {:.2}x | superblock/forced = {:.2}x | \
         blocks: {} hits, {} misses, {} restitches",
        if cpus[2].superblocks_enabled() { "" } else { ", MSP430_FORCE_STEP" },
        sblock / icache,
        sblock / forced,
        stats.hits,
        stats.misses,
        stats.restitches,
    );
}

fn bench_steps(c: &mut Criterion) {
    superblock_ab_report();

    let mut group = c.benchmark_group("emu_throughput/steps");
    group.throughput(Throughput::Elements(LOOP_STEPS as u64));

    group.bench_function("superblock_10k", |b| {
        let mut ram = busy_loop_ram();
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        let mut step = Step::default();
        b.iter(|| {
            run_block_steps(&mut cpu, &mut ram, &mut step, LOOP_STEPS);
            std::hint::black_box(step.pc);
        });
    });

    group.bench_function("cached_10k", |b| {
        let mut ram = busy_loop_ram();
        let mut cpu = Cpu::new();
        cpu.set_pc(0xE000);
        let mut step = Step::default();
        b.iter(|| {
            for _ in 0..LOOP_STEPS {
                cpu.step_into(&mut ram, &mut step).unwrap();
            }
            std::hint::black_box(step.pc);
        });
    });

    group.bench_function("forced_decode_10k", |b| {
        let mut ram = busy_loop_ram();
        let mut cpu = Cpu::new();
        cpu.set_icache_enabled(false);
        cpu.set_pc(0xE000);
        let mut step = Step::default();
        b.iter(|| {
            for _ in 0..LOOP_STEPS {
                cpu.step_into(&mut ram, &mut step).unwrap();
            }
            std::hint::black_box(step.pc);
        });
    });
    group.finish();

    // Repeated replay of a straight-line operation — the batch-verification
    // shape: every proof re-executes the same linear code.
    let mut group = c.benchmark_group("emu_throughput/replay");
    group.throughput(Throughput::Elements(2000));
    group.bench_function("straight_line_2k_superblock", |b| {
        let (mut ram, stop) = straight_line_ram();
        let mut cpu = Cpu::new();
        let mut step = Step::default();
        b.iter(|| {
            cpu.set_pc(0xA000);
            cpu.set_reg(Reg::R10, 1);
            while cpu.pc() != stop {
                cpu.step_block_into(
                    &mut ram,
                    stop,
                    4096,
                    Observe::EveryStep,
                    &mut step,
                    |_, _, _, _| {},
                )
                .unwrap();
            }
            std::hint::black_box(cpu.reg(Reg::R10));
        });
    });
    group.bench_function("straight_line_2k_warm", |b| {
        let (mut ram, stop) = straight_line_ram();
        let mut cpu = Cpu::new();
        let mut step = Step::default();
        b.iter(|| {
            cpu.set_pc(0xA000);
            cpu.set_reg(Reg::R10, 1);
            while cpu.pc() != stop {
                cpu.step_into(&mut ram, &mut step).unwrap();
            }
            std::hint::black_box(cpu.reg(Reg::R10));
        });
    });
    group.bench_function("straight_line_2k_forced_decode", |b| {
        let (mut ram, stop) = straight_line_ram();
        let mut cpu = Cpu::new();
        cpu.set_icache_enabled(false);
        let mut step = Step::default();
        b.iter(|| {
            cpu.set_pc(0xA000);
            cpu.set_reg(Reg::R10, 1);
            while cpu.pc() != stop {
                cpu.step_into(&mut ram, &mut step).unwrap();
            }
            std::hint::black_box(cpu.reg(Reg::R10));
        });
    });
    group.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let data = vec![0x5Au8; 1 << 20];
    let mut group = c.benchmark_group("emu_throughput/sha256");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("digest_1mib", |b| {
        b.iter(|| std::hint::black_box(Sha256::digest(&data)));
    });
    group.finish();

    // HMAC over a proof-sized message: keyed context reuse vs re-deriving
    // the pads for every MAC (what BatchVerifier workers used to do).
    let msg = vec![0xC3u8; 2048];
    let key_bytes = [0x42u8; 32];
    let mut group = c.benchmark_group("emu_throughput/hmac_2k");
    group.throughput(Throughput::Elements(1));
    group.bench_function("reused_key_context", |b| {
        let key = HmacKey::new(&key_bytes);
        b.iter(|| std::hint::black_box(key.mac(&msg)));
    });
    group.bench_function("fresh_key_per_mac", |b| {
        b.iter(|| std::hint::black_box(HmacSha256::mac(&key_bytes, &msg)));
    });
    group.finish();
}

criterion_group!(benches, bench_steps, bench_hashing);
criterion_main!(benches);
