//! Emulation and crypto throughput — the two raw feeds of verification
//! cost, tracked so the fast paths (superblock dispatch, multi-block
//! SHA-256, reusable HMAC keys) stay visible in the perf trajectory.
//!
//! Reported units: steps/sec for the simulator (superblocks vs the
//! plain-decode reference), MiB/s for hashing on the process's kernel, and
//! MACs/sec for the keyed-context HMAC path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hacl::{HmacKey, HmacSha256, Sha256};
use msp430::cpu::{Cpu, Dispatch, Observe, Step};
use msp430::mem::Ram;
use msp430::regs::Reg;

const LOOP_STEPS: usize = 10_000;

/// The two dispatches, as (column name, choice).
const DISPATCHES: [(&str, Dispatch); 2] =
    [("reference", Dispatch::Reference), ("superblock", Dispatch::Superblocks)];

/// A self-contained busy loop: add, store, load, jump back.
fn busy_loop_ram() -> Ram {
    let mut ram = Ram::new();
    ram.load_words(0xE000, &[0x5A0A, 0x4A82, 0x0200, 0x4211, 0x0200, 0x3FFA]);
    ram
}

/// A long straight-line program: every PC executes once per pass, so a
/// block cache only pays off across passes.
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

/// A core pinned to `dispatch`, at `pc`.
fn core(dispatch: Dispatch, pc: u16) -> Cpu {
    let mut cpu = Cpu::new();
    cpu.set_dispatch(dispatch);
    cpu.set_pc(pc);
    cpu
}

/// Drives `cpu` for exactly `steps` steps, or until `stop`, through the
/// dispatch loop every run loop uses.
fn run_steps(cpu: &mut Cpu, ram: &mut Ram, step: &mut Step, stop: u16, steps: usize) {
    let mut done = 0usize;
    while done < steps && cpu.pc() != stop {
        done += cpu
            .step_block_into(ram, stop, steps - done, Observe::EveryStep, step, |_, _, _, _| {})
            .unwrap()
            .0;
    }
}

/// Interleaved A/B of the two dispatches: alternate them round-robin so
/// frequency scaling and cache state hit both equally, then print steps/s,
/// the speedup and the superblock cache counters (the README
/// "Performance" table's source).
fn superblock_ab_report() {
    use std::time::{Duration, Instant};
    const REPS: usize = 40;
    const ROUNDS: usize = 6; // first round is warm-up, not counted

    let mut rams = [busy_loop_ram(), busy_loop_ram()];
    let mut cpus = DISPATCHES.map(|(_, d)| core(d, 0xE000));
    let mut step = Step::default();
    let mut spent = [Duration::ZERO; 2];
    for round in 0..ROUNDS {
        for slot in 0..2 {
            let (cpu, ram) = (&mut cpus[slot], &mut rams[slot]);
            let t = Instant::now();
            for _ in 0..REPS {
                run_steps(cpu, ram, &mut step, 0xFFFF, LOOP_STEPS);
            }
            std::hint::black_box(step.pc);
            if round > 0 {
                spent[slot] += t.elapsed();
            }
        }
    }

    let steps = (LOOP_STEPS * REPS * (ROUNDS - 1)) as f64;
    let [reference, sblock] = spent.map(|d| steps / d.as_secs_f64());
    let stats = cpus[1].superblock_stats();
    println!(
        "superblock A/B (busy loop): reference {reference:.0} steps/s | \
         superblock {sblock:.0} steps/s | superblock/reference = {:.2}x | \
         blocks: {} hits, {} misses, {} restitches",
        sblock / reference,
        stats.hits,
        stats.misses,
        stats.restitches,
    );
}

fn bench_steps(c: &mut Criterion) {
    superblock_ab_report();

    let mut group = c.benchmark_group("emu_throughput/steps");
    group.throughput(Throughput::Elements(LOOP_STEPS as u64));
    for (name, dispatch) in DISPATCHES {
        group.bench_function(&format!("{name}_10k"), |b| {
            let mut ram = busy_loop_ram();
            let mut cpu = core(dispatch, 0xE000);
            let mut step = Step::default();
            b.iter(|| {
                run_steps(&mut cpu, &mut ram, &mut step, 0xFFFF, LOOP_STEPS);
                std::hint::black_box(step.pc);
            });
        });
    }
    group.finish();

    // Repeated replay of a straight-line operation — the batch-verification
    // shape: every proof re-executes the same linear code.
    let mut group = c.benchmark_group("emu_throughput/replay");
    group.throughput(Throughput::Elements(2000));
    for (name, dispatch) in DISPATCHES {
        group.bench_function(&format!("straight_line_2k_{name}"), |b| {
            let (mut ram, stop) = straight_line_ram();
            let mut cpu = core(dispatch, 0xA000);
            let mut step = Step::default();
            b.iter(|| {
                cpu.set_pc(0xA000);
                cpu.set_reg(Reg::R10, 1);
                run_steps(&mut cpu, &mut ram, &mut step, stop, usize::MAX);
                std::hint::black_box(cpu.reg(Reg::R10));
            });
        });
    }
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
