//! Emulation and crypto throughput — the two raw feeds of verification
//! cost, tracked so the fast-path speedups (predecoded icache,
//! zero-allocation `step_into`, multi-block SHA-256, reusable HMAC keys)
//! stay visible in the perf trajectory.
//!
//! Reported units: steps/sec for the simulator (superblock vs per-step
//! cached vs forced-decode),
//! MiB/s for hashing, MACs/sec for the keyed-context HMAC path and for the
//! batch proof-tag path (scalar vs multi-lane, cold vs memoized ER digest).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hacl::sha256_mb::{backend, digest_lanes};
use hacl::{Digest, HmacKey, HmacSha256, Sha256};
use msp430::cpu::{Cpu, Observe, Step};
use msp430::mem::Ram;
use msp430::regs::Reg;
use vrased::{check_tags_lanes, Challenge, KeyStore, RaVerifier, SwAtt, TagLane};

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

// ------------------------------------------------------- batch MAC path

/// Proofs per simulated batch drain — matches a busy shard's queue depth.
const MAC_BATCH: usize = 64;
const ER_LEN: usize = 2048;
const OR_LEN: usize = 256;
const ER_MIN: u16 = 0xE000;
const ER_MAX: u16 = ER_MIN + ER_LEN as u16 - 1;
const OR_MIN: u16 = 0x0600;
const OR_MAX: u16 = OR_MIN + OR_LEN as u16 - 1;
const EXTRA: [u8; 11] = [0u8; 11];

/// One batch of authentic proof tags: per-device keys and challenges over
/// a shared 2 KiB ER image and per-device 256 B ORs.
struct MacBatch {
    ras: Vec<RaVerifier>,
    challenges: Vec<Challenge>,
    ors: Vec<Vec<u8>>,
    tags: Vec<Digest>,
    er: Vec<u8>,
    er_digest: Digest,
}

fn mac_batch() -> MacBatch {
    let er = vec![0x5Au8; ER_LEN];
    let er_digest = Sha256::digest(&er);
    let mut batch = MacBatch {
        ras: Vec::new(),
        challenges: Vec::new(),
        ors: Vec::new(),
        tags: Vec::new(),
        er,
        er_digest,
    };
    for i in 0..MAC_BATCH {
        let ks = KeyStore::from_seed(0xBEEF + i as u64);
        let challenge = Challenge::derive(b"mac-bench", i as u64);
        let or = vec![i as u8; OR_LEN];
        let tag = SwAtt::new(ks.clone()).attest_region_bytes(
            &challenge,
            &[(ER_MIN, ER_MAX, batch.er.as_slice()), (OR_MIN, OR_MAX, or.as_slice())],
            &EXTRA,
        );
        batch.ras.push(RaVerifier::new(ks));
        batch.challenges.push(challenge);
        batch.ors.push(or);
        batch.tags.push(tag);
    }
    batch
}

/// Scalar path, nothing memoized: every proof re-digests the full ER image
/// (the pre-memoization verifier's work). Returns the verified count.
fn run_scalar_cold(b: &MacBatch) -> usize {
    (0..MAC_BATCH)
        .filter(|&i| {
            b.ras[i].check_region_bytes(
                &b.challenges[i],
                &[(ER_MIN, ER_MAX, b.er.as_slice()), (OR_MIN, OR_MAX, b.ors[i].as_slice())],
                &EXTRA,
                &b.tags[i],
            )
        })
        .count()
}

/// Scalar tag checks over the memoized ER digest: only the OR is digested
/// per proof, but each HMAC still runs alone.
fn run_scalar_memoized(b: &MacBatch) -> usize {
    (0..MAC_BATCH)
        .filter(|&i| {
            let or_digest = Sha256::digest(&b.ors[i]);
            b.ras[i].check_region_digests(
                &b.challenges[i],
                &[(ER_MIN, ER_MAX, &b.er_digest), (OR_MIN, OR_MAX, &or_digest)],
                &EXTRA,
                &b.tags[i],
            )
        })
        .count()
}

/// The full fast path: memoized ER digest, OR digests and HMAC tag checks
/// in multi-buffer lanes.
fn run_lanes_memoized(b: &MacBatch, or_digests: &mut [Digest], ok: &mut [bool]) -> usize {
    let or_refs: Vec<&[u8]> = b.ors.iter().map(Vec::as_slice).collect();
    digest_lanes(&or_refs, or_digests);
    let regions: Vec<[(u16, u16, &Digest); 2]> = (0..MAC_BATCH)
        .map(|i| [(ER_MIN, ER_MAX, &b.er_digest), (OR_MIN, OR_MAX, &or_digests[i])])
        .collect();
    let lanes: Vec<TagLane<'_>> = (0..MAC_BATCH)
        .map(|i| TagLane {
            ra: &b.ras[i],
            challenge: &b.challenges[i],
            regions: &regions[i],
            extra: &EXTRA,
            tag: &b.tags[i],
        })
        .collect();
    check_tags_lanes(&lanes, ok);
    ok.iter().filter(|&&v| v).count()
}

/// Interleaved A/B: alternate the three variants round-robin so frequency
/// scaling and cache state hit all of them equally, then print MACs/s and
/// the speedup ratios (the README "Performance" table's source).
fn mac_ab_report() {
    use std::time::{Duration, Instant};
    let batch = mac_batch();
    let mut or_digests = vec![[0u8; 32]; MAC_BATCH];
    let mut ok = vec![false; MAC_BATCH];
    const REPS: usize = 40;
    const ROUNDS: usize = 6; // first round is warm-up, not counted
    let mut spent = [Duration::ZERO; 3];
    for round in 0..ROUNDS {
        let mut timed = [Duration::ZERO; 3];
        for (slot, run) in [
            (0, &mut (|| run_scalar_cold(&batch)) as &mut dyn FnMut() -> usize),
            (1, &mut || run_scalar_memoized(&batch)),
            (2, &mut || run_lanes_memoized(&batch, &mut or_digests, &mut ok)),
        ] {
            let t = Instant::now();
            for _ in 0..REPS {
                assert_eq!(run(), MAC_BATCH, "all bench tags are authentic");
            }
            timed[slot] = t.elapsed();
        }
        if round > 0 {
            for (acc, d) in spent.iter_mut().zip(timed) {
                *acc += d;
            }
        }
    }
    let macs = (MAC_BATCH * REPS * (ROUNDS - 1)) as f64;
    let rate = |d: Duration| macs / d.as_secs_f64();
    let (cold, memo, lanes) = (rate(spent[0]), rate(spent[1]), rate(spent[2]));
    println!(
        "mac_path A/B ({} backend): scalar_cold {cold:.0} MACs/s | \
         scalar_memoized {memo:.0} MACs/s | lanes_memoized {lanes:.0} MACs/s | \
         lanes/scalar_cold = {:.2}x | lanes/scalar_memoized = {:.2}x",
        backend().label(),
        lanes / cold,
        lanes / memo,
    );
}

fn bench_mac_path(c: &mut Criterion) {
    mac_ab_report();

    let batch = mac_batch();
    let mut group = c.benchmark_group("emu_throughput/mac_path");
    group.throughput(Throughput::Elements(MAC_BATCH as u64));
    group.bench_function("scalar_cold", |b| {
        b.iter(|| std::hint::black_box(run_scalar_cold(&batch)));
    });
    group.bench_function("scalar_memoized", |b| {
        b.iter(|| std::hint::black_box(run_scalar_memoized(&batch)));
    });
    group.bench_function("lanes_memoized", |b| {
        let mut or_digests = vec![[0u8; 32]; MAC_BATCH];
        let mut ok = vec![false; MAC_BATCH];
        b.iter(|| std::hint::black_box(run_lanes_memoized(&batch, &mut or_digests, &mut ok)));
    });
    group.finish();
}

criterion_group!(benches, bench_steps, bench_hashing, bench_mac_path);
criterion_main!(benches);
