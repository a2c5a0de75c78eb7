//! Differential property test for the emulator's two execution paths.
//!
//! Random programs are run in lockstep on two cores over identical
//! memories: the plain-decode reference ([`Cpu::step`], the oracle) and
//! superblock dispatch ([`Cpu::step_block_into`], block-at-a-time). Every
//! [`Step`] — instruction, cycle count, PCs, and the full ordered
//! bus-access list — must be identical, as must any fault, the final
//! register file, and the final memory image.
//!
//! Programs end in a jump back to their base so the block core re-enters
//! stitched blocks, and random absolute/indexed stores occasionally land
//! inside the program itself (self-modifying code), exercising the
//! superblock layer's write-generation revalidation and mid-block SMC early
//! exit. A strategy-chosen step may additionally reload the pristine image
//! over the (possibly self-modified) program mid-run, modelling a device
//! image reload.
//!
//! The superblock core runs *ahead* by whole blocks: its steps are queued by
//! the dispatch callback and drained one per lockstep iteration. The
//! dispatch budget is capped at the reload boundary so both cores observe
//! the reload between the same two steps. Random conditional jumps sit
//! mid-block (blocks are stitched through them), and the property also
//! requires that, over all cases, the block core took side exits — left a
//! block at a taken conditional jump that it has elsewhere run past.
//!
//! The one reuse gap found while stacking superblocks was allocation
//! behaviour, not soundness: bulk image reloading between proofs bumped
//! generations of *unchanged* pages, forcing re-stitches (fixed by the
//! generation-preserving `Ram::reset_to`, pinned by the dialed zero-alloc
//! harness).

use std::cell::Cell;
use std::collections::{HashSet, VecDeque};

use msp430::cpu::{Cpu, Observe, Step};
use msp430::flags;
use msp430::isa::{Cond, Insn, Op1, Op2, Operand, Size};
use msp430::mem::Ram;
use msp430::regs::{Reg, RegFile};
use msp430::CpuFault;
use proptest::prelude::*;

const BASE: u16 = 0xE000;

/// Registers legal as general-purpose operand bases (no PC/SR/CG2).
fn gp_reg() -> impl Strategy<Value = Reg> {
    (4u16..16).prop_map(Reg::from_index)
}

fn any_size() -> impl Strategy<Value = Size> {
    prop_oneof![Just(Size::Word), Just(Size::Byte)]
}

/// Addresses that sometimes overlap the program (self-modifying code) and
/// sometimes plain data memory.
fn mem_addr() -> impl Strategy<Value = u16> {
    prop_oneof![0xE000u16..0xE040, 0x0200u16..0x0400, any::<u16>()]
}

fn src_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        gp_reg().prop_map(Operand::Reg),
        Just(Operand::Reg(Reg::SP)),
        Just(Operand::IndirectInc(Reg::SP)),
        (gp_reg(), any::<u16>()).prop_map(|(r, x)| Operand::Indexed(r, x)),
        mem_addr().prop_map(Operand::Symbolic),
        mem_addr().prop_map(Operand::Absolute),
        gp_reg().prop_map(Operand::Indirect),
        gp_reg().prop_map(Operand::IndirectInc),
        any::<u16>().prop_map(Operand::Imm),
    ]
}

fn dst_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        gp_reg().prop_map(Operand::Reg),
        Just(Operand::Reg(Reg::SP)),
        (gp_reg(), any::<u16>()).prop_map(|(r, x)| Operand::Indexed(r, x)),
        mem_addr().prop_map(Operand::Symbolic),
        mem_addr().prop_map(Operand::Absolute),
    ]
}

fn op2() -> impl Strategy<Value = Op2> {
    prop_oneof![
        Just(Op2::Mov),
        Just(Op2::Add),
        Just(Op2::Addc),
        Just(Op2::Subc),
        Just(Op2::Sub),
        Just(Op2::Cmp),
        Just(Op2::Dadd),
        Just(Op2::Bit),
        Just(Op2::Bic),
        Just(Op2::Bis),
        Just(Op2::Xor),
        Just(Op2::And),
    ]
}

fn op1() -> impl Strategy<Value = Op1> {
    prop_oneof![Just(Op1::Rrc), Just(Op1::Swpb), Just(Op1::Rra), Just(Op1::Sxt), Just(Op1::Push),]
}

fn cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Nz),
        Just(Cond::Z),
        Just(Cond::Nc),
        Just(Cond::C),
        Just(Cond::Ge),
        Just(Cond::L),
    ]
}

fn any_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (op2(), any_size(), src_operand(), dst_operand())
            .prop_map(|(op, size, src, dst)| Insn::Two { op, size, src, dst }),
        (op1(), src_operand()).prop_map(|(op, sd)| {
            let size = if op.allows_byte() { Size::Byte } else { Size::Word };
            Insn::One { op, size, sd }
        }),
        (op1(), src_operand()).prop_map(|(op, sd)| Insn::One { op, size: Size::Word, sd }),
        // Short forward jumps keep control flow inside the program.
        (cond(), 0i16..6).prop_map(|(cond, offset)| Insn::Jump { cond, offset }),
    ]
}

/// Encodes a random instruction list at `BASE`, closed by a jump back to
/// `BASE` so re-execution re-enters stitched blocks. Also returns the address
/// each instruction was placed at (an unencodable one is skipped).
fn build_program(insns: &[Insn]) -> (Vec<u16>, Vec<u16>) {
    let (mut words, mut addrs) = (Vec::new(), Vec::new());
    let mut at = BASE;
    for insn in insns {
        addrs.push(at);
        if let Ok(w) = insn.encode(at) {
            at = at.wrapping_add(2 * w.len() as u16);
            words.extend(w);
        }
    }
    if let Ok(j) = Insn::jump_to(Cond::Always, at, BASE) {
        words.extend(j.encode(at).expect("loop jump encodes"));
    }
    (words, addrs)
}

/// A PC-shaped value no program counter can hold (word writes to PC clear
/// bit 0), so block dispatch never stops early on it.
const NO_STOP: u16 = 0xFFFF;

const STEPS: usize = 500;

fn is_conditional_jump(s: &Step) -> bool {
    matches!(s.insn, Some(Insn::Jump { cond, .. }) if cond != Cond::Always)
}

/// Records one dispatch's `steps`: the conditional jumps it ran past and
/// the taken one it ended at, each keyed by (entry PC, jump PC). An exit
/// counts as a side exit once some dispatch from the same entry has run
/// past that jump — which never happens unless blocks are stitched through
/// conditional jumps.
fn note_side_exits(
    steps: &VecDeque<Step>,
    ran_past: &mut HashSet<(u16, u16)>,
    exits: &mut Vec<(u16, u16)>,
) {
    let Some(entry) = steps.front().map(|s| s.pc) else { return };
    let last = steps.len() - 1;
    for (i, s) in steps.iter().enumerate().filter(|(_, s)| is_conditional_jump(s)) {
        if i < last {
            ran_past.insert((entry, s.pc));
        } else if s.next_pc != s.pc.wrapping_add(2) {
            exits.push((entry, s.pc));
        }
    }
}

/// The plain-decode reference and the superblock block-at-a-time path
/// produce identical step streams, faults, cycle totals, registers and
/// memory for random (often self-modifying) programs, including across a
/// mid-run image reload — and the programs do exercise the superblock
/// core's side exits.
#[test]
fn reference_and_superblock_streams_match() {
    let strategy = (
        proptest::collection::vec(any_insn(), 1..10),
        proptest::array::uniform8(any::<u16>()),
        (0x0280u16..0x04F0).prop_map(|a| a * 2),
        0u16..0x0200,
        0usize..960,
    );
    let side_exits = Cell::new(0usize);
    proptest::test_runner::TestRunner::new(ProptestConfig::default()).run(
        "reference_and_superblock_streams_match",
        &strategy,
        |(insns, seed_regs, sp, sr, reload_raw)| {
            side_exits.set(side_exits.get() + lockstep(&insns, seed_regs, sp, sr, reload_raw)?);
            Ok(())
        },
    );
    assert!(side_exits.get() > 0, "no generated program took a side exit");
}

/// Runs one generated case; returns the side exits the block core took.
fn lockstep(
    insns: &[Insn],
    seed_regs: [u16; 8],
    sp: u16,
    sr: u16,
    reload_raw: usize,
) -> Result<usize, TestCaseError> {
    // Half the cases reload the pristine image mid-run; the other half
    // never reload (the vendored proptest has no `option::of`).
    let reload_at = (reload_raw < 480).then(|| reload_raw.max(1));
    let (words, _) = build_program(insns);
    prop_assume!(!words.is_empty());

    let mut ram_ref = Ram::new();
    ram_ref.load_words(BASE, &words);
    let mut ram_block = ram_ref.clone();

    let (mut reference, mut block) = (Cpu::new(), Cpu::new());
    for cpu in [&mut reference, &mut block] {
        cpu.set_pc(BASE);
        cpu.set_reg(Reg::SP, sp);
        cpu.set_reg(Reg::SR, sr & (flags::C | flags::Z | flags::N | flags::V));
        for (i, v) in seed_regs.iter().enumerate() {
            cpu.set_reg(Reg::from_index(8 + i as u16), *v);
        }
    }

    let mut block_scratch = Step::default();
    // The superblock core runs ahead by whole blocks; the queue holds the
    // steps it has executed that the lockstep loop has not yet consumed.
    let mut block_queue: VecDeque<Step> = VecDeque::new();
    let (mut ran_past, mut exits) = (HashSet::new(), Vec::new());
    let (mut ref_cycles, mut block_cycles) = (0u64, 0u64);
    for n in 0..STEPS {
        if reload_at == Some(n) {
            // Dispatch budgets are capped at the reload boundary, so the
            // block core cannot have run past it.
            prop_assert!(block_queue.is_empty(), "block core overran the reload boundary");
            ram_ref.load_words(BASE, &words);
            ram_block.load_words(BASE, &words);
        }

        let rr = reference.step(&mut ram_ref);
        let rb: Result<Step, CpuFault> = match block_queue.pop_front() {
            Some(s) => Ok(s),
            None => {
                let limit = match reload_at {
                    Some(r) if r > n => r - n,
                    _ => STEPS - n,
                };
                block
                    .step_block_into(
                        &mut ram_block,
                        NO_STOP,
                        limit,
                        Observe::EveryStep,
                        &mut block_scratch,
                        |_, _, s, _| block_queue.push_back(*s),
                    )
                    .map(|(executed, _)| {
                        assert!(executed > 0, "dispatch with budget must execute");
                        note_side_exits(&block_queue, &mut ran_past, &mut exits);
                        block_queue.pop_front().expect("executed steps are queued")
                    })
            }
        };
        match (rr, rb) {
            (Ok(ref_step), Ok(block_step)) => {
                prop_assert_eq!(&block_step, &ref_step, "superblock step {} diverged", n);
                ref_cycles += u64::from(ref_step.cycles);
                block_cycles += u64::from(block_step.cycles);
            }
            (Err(er), Err(eb)) => {
                prop_assert_eq!(eb, er, "superblock fault diverged at step {}", n);
                break;
            }
            (rr, rb) => {
                return Err(TestCaseError::fail(format!(
                    "paths disagreed on faulting at step {n}: reference={rr:?} block={rb:?}"
                )));
            }
        }
    }

    prop_assert_eq!(block_cycles, ref_cycles);
    for r in Reg::ALL {
        prop_assert_eq!(block.reg(r), reference.reg(r), "superblock {} diverged", r);
    }
    prop_assert_eq!(ram_block.as_slice(), ram_ref.as_slice(), "superblock memory diverged");
    // Superblock *hits* are not guaranteed — heavy SMC can keep every block
    // generation-stale — but the first dispatch of a run is always a miss
    // unless it faulted at once.
    prop_assert!(
        block.superblock_stats().misses > 0 || ref_cycles == 0,
        "superblock core never dispatched a block"
    );
    Ok(exits.iter().filter(|e| ran_past.contains(e)).count())
}

// ------------------------------------------------- effects-mode observers

/// Lowest OR byte of the generated programs' log region.
const OR_MIN: u16 = 0x0600;

/// One element of a generated program: a random instruction, or a
/// Tiny-CFA log append `mov <src>, 0(r4) ; decd r4 ; cmp #OR_MIN, r4 ; jn $`.
#[derive(Clone, Debug)]
enum Piece {
    Insn(Insn),
    Append(Operand),
}

/// Append sources: fusable ones, and `@rn+` / r4 sources that never fuse.
fn append_src() -> impl Strategy<Value = Operand> {
    prop_oneof![
        gp_reg().prop_map(Operand::Reg),
        any::<u16>().prop_map(Operand::Imm),
        (0x0200u16..0x0400).prop_map(Operand::Absolute),
        (gp_reg(), 0u16..8).prop_map(|(r, x)| Operand::Indexed(r, x)),
        gp_reg().prop_map(Operand::IndirectInc),
    ]
}

fn piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        any_insn().prop_map(Piece::Insn),
        append_src().prop_map(Piece::Append),
        append_src().prop_map(Piece::Append),
    ]
}

/// Flattens `pieces` into instructions; also returns the indices of every
/// append's three tail instructions (where dispatch cuts are aimed).
fn flatten(pieces: &[Piece]) -> (Vec<Insn>, Vec<usize>) {
    let (mut insns, mut tails) = (Vec::new(), Vec::new());
    let (word, r4) = (Size::Word, Operand::Reg(Reg::R4));
    for piece in pieces {
        match *piece {
            Piece::Insn(insn) => insns.push(insn),
            Piece::Append(src) => {
                let dst = Operand::Indexed(Reg::R4, 0);
                insns.push(Insn::Two { op: Op2::Mov, size: word, src, dst });
                tails.extend(insns.len()..insns.len() + 3);
                insns.push(Insn::Two { op: Op2::Sub, size: word, src: Operand::Imm(2), dst: r4 });
                insns.push(Insn::Two {
                    op: Op2::Cmp,
                    size: word,
                    src: Operand::Imm(OR_MIN),
                    dst: r4,
                });
                insns.push(Insn::Jump { cond: Cond::N, offset: -1 });
            }
        }
    }
    (insns, tails)
}

/// What the DIALED verifier reads of a run: data writes (pc, addr, value,
/// width, cycle), the SP minimum, call/return events (pc, target), and the
/// step and cycle totals.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Seen {
    writes: Vec<(u16, u16, u16, bool, u64)>,
    min_sp: u16,
    flow: Vec<(u16, u16)>,
    steps: usize,
    cycles: u64,
}

impl Seen {
    fn note(&mut self, regs: &RegFile, s: &Step, cycle: u64) {
        self.min_sp = self.min_sp.min(regs.sp());
        for w in s.writes() {
            self.writes.push((s.pc, w.addr, w.value, w.word, cycle));
        }
        if let Some(
            Insn::One { op: Op1::Call | Op1::Reti, .. }
            | Insn::Two { dst: Operand::Reg(Reg::R0), .. },
        ) = s.insn
        {
            self.flow.push((s.pc, s.next_pc));
        }
    }
}

/// An effects-mode observer sees exactly the every-step observer's data
/// writes, SP minimum, call/return events and step and cycle totals on
/// random programs full of log appends, with R4 near `OR_MIN` so some
/// appends overflow into the `jn $` spin, and with dispatch budgets and
/// stop addresses cutting into append groups. Over all cases some append
/// tails must have been fused and some logs must have overflowed.
#[test]
fn effects_observer_sees_exactly_the_every_step_effects() {
    let strategy = (
        proptest::collection::vec(piece(), 1..10),
        proptest::array::uniform8(any::<u16>()),
        0u16..12,
        proptest::collection::vec((0usize..12, 0usize..4), 1..8),
        0u16..0x0200,
    );
    let (fused, overflows) = (Cell::new(0u64), Cell::new(0usize));
    proptest::test_runner::TestRunner::new(ProptestConfig::default()).run(
        "effects_observer_sees_exactly_the_every_step_effects",
        &strategy,
        |(pieces, seed_regs, r4_slots, cuts, sr)| {
            let (f, o) = effects_lockstep(&pieces, seed_regs, r4_slots, &cuts, sr)?;
            fused.set(fused.get() + f);
            overflows.set(overflows.get() + o);
            Ok(())
        },
    );
    assert!(fused.get() > 0, "no generated log append was fused");
    assert!(overflows.get() > 0, "no generated log overflowed into its jn $ spin");
}

/// Runs one generated case on an every-step core and an effects core;
/// returns the effects core's fused appends and the overflow spins seen.
fn effects_lockstep(
    pieces: &[Piece],
    seed_regs: [u16; 8],
    r4_slots: u16,
    cuts: &[(usize, usize)],
    sr: u16,
) -> Result<(u64, usize), TestCaseError> {
    let (insns, tails) = flatten(pieces);
    let (words, addrs) = build_program(&insns);
    prop_assume!(!words.is_empty());
    let tail_pcs: Vec<u16> = tails.iter().map(|&i| addrs[i]).collect();

    let mut ram_every = Ram::new();
    ram_every.load_words(BASE, &words);
    let mut ram_effects = ram_every.clone();
    let (mut every, mut effects) = (Cpu::new(), Cpu::new());
    for cpu in [&mut every, &mut effects] {
        cpu.set_pc(BASE);
        cpu.set_reg(Reg::SP, 0x0A00);
        cpu.set_reg(Reg::R4, OR_MIN + 2 * r4_slots);
        cpu.set_reg(Reg::SR, sr & (flags::C | flags::Z | flags::N | flags::V));
        for (i, v) in seed_regs.iter().enumerate() {
            cpu.set_reg(Reg::from_index(8 + i as u16), *v);
        }
    }
    let mut seen_every = Seen { min_sp: 0x0A00, ..Seen::default() };
    let mut seen_effects = seen_every.clone();
    let (mut step_every, mut step_effects) = (Step::default(), Step::default());
    let mut overflows = 0;
    for k in 0.. {
        let left = STEPS - seen_every.steps;
        if left == 0 {
            break;
        }
        // A short budget or a stop address on an append tail cuts groups.
        let (limit_raw, stop_sel) = cuts[k % cuts.len()];
        let limit = if limit_raw < 8 { (limit_raw + 1).min(left) } else { left };
        let stop_pc = match tail_pcs.get(k % tail_pcs.len().max(1)) {
            Some(&pc) if stop_sel >= 2 => pc,
            _ => NO_STOP,
        };

        let base = seen_every.cycles;
        let (mut calls, mut within) = (0usize, 0u32);
        let r_every = every.step_block_into(
            &mut ram_every,
            stop_pc,
            limit,
            Observe::EveryStep,
            &mut step_every,
            |_, regs, s, at| {
                assert_eq!(at, within, "cycle offset is the dispatch's cycles so far");
                within += s.cycles;
                calls += 1;
                if matches!(s.insn, Some(Insn::Jump { cond: Cond::N, offset: -1 }))
                    && s.next_pc == s.pc
                {
                    overflows += 1;
                }
                seen_every.note(regs, s, base + u64::from(at));
            },
        );
        let base = seen_effects.cycles;
        let r_effects = effects.step_block_into(
            &mut ram_effects,
            stop_pc,
            limit,
            Observe::Effects,
            &mut step_effects,
            |_, regs, s, at| seen_effects.note(regs, s, base + u64::from(at)),
        );
        match (r_every, r_effects) {
            (Ok((n, c)), Ok(totals)) => {
                prop_assert_eq!((n, c), totals, "dispatch {} totals diverged", k);
                prop_assert_eq!((n, c), (calls, within), "every-step totals are its steps'");
                seen_every.steps += n;
                seen_every.cycles += u64::from(c);
                seen_effects.steps += totals.0;
                seen_effects.cycles += u64::from(totals.1);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b, "faults diverged at dispatch {}", k);
                break;
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "dispatch {k}: every-step {a:?} vs effects {b:?}"
                )));
            }
        }
        prop_assert_eq!(&seen_effects, &seen_every, "observers diverged at dispatch {}", k);
    }
    prop_assert_eq!(effects.regs, every.regs);
    prop_assert_eq!(ram_effects.as_slice(), ram_every.as_slice());
    prop_assert_eq!(every.fused_appends(), 0, "every-step dispatch never fuses");
    Ok((effects.fused_appends(), overflows))
}
