//! Proof that steady-state emulation performs **zero heap allocations**
//! on both execution paths — superblock dispatch (block construction may
//! allocate once; block *reuse* may not) and the plain-decode reference —
//! measured with a counting global allocator. Both legs drive the core
//! through `Cpu::step_block_into`, the entry every run loop uses.
//!
//! The workspace otherwise denies `unsafe_code`; this test binary opts out
//! locally because the shared counting-allocator harness (see
//! `tests/support/counting_alloc.rs`) implements `GlobalAlloc`.

#![allow(unsafe_code)]

use msp430::cpu::{Cpu, Dispatch, Observe, Step};
use msp430::mem::Ram;
use msp430::regs::Reg;

include!("support/counting_alloc.rs");

/// Runs without the libtest harness (see `Cargo.toml`): the measurement
/// must be the only thing executing in the process, since harness threads
/// allocate concurrently and would pollute the counters.
fn main() {
    steady_state_superblock_dispatch_is_allocation_free();
    steady_state_reference_dispatch_is_allocation_free();

    // Sanity: the harness actually counts (one boxed value = ≥1 count).
    let before = allocations();
    let boxed = std::hint::black_box(Box::new(0xABu8));
    assert!(allocations() > before, "counting allocator must observe allocations");
    drop(boxed);
    println!("zero_alloc: ok");
}

/// A self-contained busy loop mixing ALU, memory traffic and a jump:
/// `add r10, r10 ; mov r10, &0x0200 ; mov &0x0200, r11 ; jmp -6`.
fn busy_loop(dispatch: Dispatch) -> (Cpu, Ram) {
    let mut ram = Ram::new();
    ram.load_words(0xE000, &[0x5A0A, 0x4A82, 0x0200, 0x4211, 0x0200, 0x3FFA]);
    let mut cpu = Cpu::new();
    cpu.set_dispatch(dispatch);
    cpu.set_pc(0xE000);
    cpu.set_reg(Reg::R10, 1);
    (cpu, ram)
}

/// Dispatches exactly `steps` instructions, as a run loop does.
fn run(cpu: &mut Cpu, ram: &mut Ram, step: &mut Step, steps: usize) {
    let mut done = 0usize;
    while done < steps {
        done += cpu
            .step_block_into(ram, 0xFFFF, steps - done, Observe::EveryStep, step, |_, _, _, _| {})
            .expect("dispatch")
            .0;
    }
}

fn steady_state_superblock_dispatch_is_allocation_free() {
    // Stitching a block allocates (its instruction vector, once per block);
    // *reusing* a stitched block must not — the generation check, the
    // take/put slot swap and the per-instruction execute loop all run on
    // existing storage.
    let (mut cpu, mut ram) = busy_loop(Dispatch::Superblocks);
    let mut step = Step::default();
    run(&mut cpu, &mut ram, &mut step, 64); // warm-up: stitches the loop's blocks
    let before = allocations();
    run(&mut cpu, &mut ram, &mut step, 100_000);
    assert_eq!(allocations() - before, 0, "superblock block reuse must not allocate");
    let stats = cpu.superblock_stats();
    assert!(stats.hits > 0, "steady state must be served from stitched blocks");
}

fn steady_state_reference_dispatch_is_allocation_free() {
    // The plain-decode reference decodes every step into an inline `Step`:
    // nothing to allocate, warm or cold.
    let (mut cpu, mut ram) = busy_loop(Dispatch::Reference);
    let mut step = Step::default();
    run(&mut cpu, &mut ram, &mut step, 64);
    let before = allocations();
    run(&mut cpu, &mut ram, &mut step, 100_000);
    assert_eq!(allocations() - before, 0, "the reference dispatch must not allocate");
    assert_eq!(cpu.superblock_stats().misses, 0, "the reference dispatch stitches nothing");
}
