//! Verifier-side abstract execution and the complete verification flow.
//!
//! Given an authentic OR snapshot (APEX-verified), the verifier re-executes
//! the *instrumented* operation locally:
//!
//! * initial state comes from the log head: the saved SP base and the eight
//!   argument registers (F3 entries);
//! * at every `__dfa_in_*` input-log site, the logged word is *injected*
//!   into the emulated memory at the read's effective address before the
//!   log instruction runs — so the subsequent original read consumes
//!   exactly the device's input;
//! * everything else (ALU, stack, control flow, the CF-Log writes
//!   themselves) is recomputed deterministically.
//!
//! The recomputed OR must equal the attested OR word-for-word over the used
//! span; any divergence means the device's execution did not follow its own
//! logs. A shadow call stack over the reconstruction reproduces control-flow
//! hijacks (Fig. 1), and application policies evaluated on the
//! reconstruction's data writes expose data-only attacks (Fig. 2).
//!
//! The reconstruction keeps no step trace: of each executed instruction it
//! records only its data writes ([`Emulation::writes`], the one thing its
//! consumers read) plus instruction and cycle totals. It dispatches in
//! [`Observe::Effects`] mode, so the per-step callback runs only for the
//! instructions that write memory, SP or PC, or push, call or return —
//! the rest (≈ 75 % of an instrumented op, most of them Tiny-CFA's log
//! append tail) are counted, not observed.

use crate::pipeline::InstrumentedOp;
use crate::policy::Policy;
use crate::report::{Finding, RejectReason, Report, Verdict, VerifyStats};
use crate::request::{Verifier, VerifyRequest, MIN_EMU_BUDGET};
use apex::{PoxConfig, PoxVerifier};
use msp430::cpu::{Cpu, CpuFault, Dispatch, Observe, Step};
use msp430::isa::{Insn, Op1, Op2, Operand};
use msp430::mem::{Bus, Ram};
use msp430::regs::Reg;
use msp430::{BlockBreaks, SuperblockStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tinycfa::OrStack;
use vrased::KeyStore;

/// Why abstract execution stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmuOutcome {
    /// Reached the operation's return site.
    Completed,
    /// Step budget exhausted (abort spin or livelock).
    Budget,
    /// CPU fault during emulation.
    Fault,
}

/// One data write performed during abstract execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataWrite {
    /// Address of the instruction that wrote.
    pub pc: u16,
    /// Written address.
    pub addr: u16,
    /// Written value (a byte write's value is its low byte).
    pub value: u16,
    /// Word (`true`) or byte write.
    pub word: bool,
    /// CPU cycles executed before the writing instruction.
    pub cycle: u64,
}

/// The result of abstractly executing an operation against a device log.
///
/// What policies see of the reconstructed run: its data writes in
/// execution order, with the writing PC and cycle offset, and the
/// instruction and cycle totals, plus the stack extent, the shadow-stack
/// findings and the recomputed OR. Nothing here depends on how the run
/// was dispatched: instructions that write nothing the verifier records
/// run unobserved, and cycle offsets and totals come from each
/// instruction's static cycle count. The buffers are reused across proofs
/// of a workspace (see [`EmuWorkspace::reclaim`]).
#[derive(Clone, Debug)]
pub struct Emulation {
    /// Every data write of the reconstruction (instrumented program,
    /// device inputs), in execution order.
    pub writes: Vec<DataWrite>,
    /// Instructions executed.
    pub insns: usize,
    /// CPU cycles executed.
    pub cycles: u64,
    /// Shadow-stack findings discovered during reconstruction.
    pub findings: Vec<Finding>,
    /// Termination.
    pub outcome: EmuOutcome,
    /// The operation's stack base (SP at entry), from the log head.
    pub sp_base: u16,
    /// Deepest SP observed (stack extent for spatial policies).
    pub min_sp: u16,
    /// Final log stack pointer `R`.
    pub final_r4: u16,
    /// The recomputed OR region bytes.
    pub or_emulated: Vec<u8>,
    /// APEX regions.
    pub pox: PoxConfig,
    /// The op's legitimate return site.
    pub caller_return: u16,
    /// Log classification counts (cf / input / arg entries).
    pub log_counts: (usize, usize, usize),
}

/// Default abstract-execution step budget.
pub const DEFAULT_EMU_BUDGET: usize = 4_000_000;

/// Word slots of the log head: the saved SP base plus the eight argument
/// registers (feature F3). Abstract execution reads exactly these entries
/// to seed its initial state.
pub const LOG_HEAD_WORDS: usize = 9;

/// O(1) membership bitmaps over the instrumentation log sites.
///
/// The emulation loop asks "is this PC an input-log site?" on **every**
/// step and classifies every OR write against both site lists; binary
/// searches there were a measurable slice of per-step cost. One bit per
/// address (8 KiB per class) turns each query into a mask test. Built once
/// per [`DialedVerifier`], not per proof.
#[derive(Debug)]
pub(crate) struct SiteIndex {
    input: Box<[u8; 0x2000]>,
    args: Box<[u8; 0x2000]>,
    /// Input sites as superblock break addresses: stitched blocks end
    /// before them, so the per-step `is_input` probe collapses into a
    /// per-block-entry probe. Shared (`Arc`) so re-installing it on a
    /// recycled workspace core is a pointer compare, not a cache flush.
    breaks: Arc<BlockBreaks>,
    /// The operation image as contiguous runs, so per-proof re-imaging is
    /// a handful of bulk copies instead of a walk over the sparse byte map.
    image_runs: Vec<(u16, Vec<u8>)>,
    /// Process-unique name of `image_runs` for [`Ram::reset_to`]: a
    /// workspace that last reset to this image rewrites only dirty pages.
    image_tag: u64,
}

/// Source of [`SiteIndex::image_tag`]s.
static NEXT_IMAGE_TAG: AtomicU64 = AtomicU64::new(1);

impl SiteIndex {
    pub(crate) fn new(op: &InstrumentedOp) -> Self {
        let mut input = Box::new([0u8; 0x2000]);
        let mut args = Box::new([0u8; 0x2000]);
        let mut breaks = BlockBreaks::new();
        for &a in &op.sites.input {
            input[usize::from(a >> 3)] |= 1 << (a & 7);
            breaks.insert(a);
        }
        for &a in &op.sites.args {
            args[usize::from(a >> 3)] |= 1 << (a & 7);
        }
        Self {
            input,
            args,
            breaks: Arc::new(breaks),
            image_runs: op.image.runs(),
            image_tag: NEXT_IMAGE_TAG.fetch_add(1, Ordering::Relaxed),
        }
    }

    #[inline]
    fn is_input(&self, addr: u16) -> bool {
        self.input[usize::from(addr >> 3)] & (1 << (addr & 7)) != 0
    }

    #[inline]
    fn is_arg(&self, addr: u16) -> bool {
        self.args[usize::from(addr >> 3)] & (1 << (addr & 7)) != 0
    }

    /// The kind of log entry an OR write issued at `pc` is.
    fn log_class(&self, pc: u16) -> SlotClass {
        if self.is_input(pc) {
            SlotClass::Input
        } else if self.is_arg(pc) {
            SlotClass::Head
        } else {
            SlotClass::ControlFlow
        }
    }
}

/// Reusable per-verifier (or per-thread) emulation buffers.
///
/// Abstract execution needs a 64 KiB RAM image, a write log and an OR
/// snapshot per proof. Allocating those per proof dominates the fixed cost
/// of verifying small operations, so batch verification keeps a pool of
/// workspaces, one per concurrent caller, and recycles the allocations
/// across proofs (see
/// [`crate::batch::BatchVerifier`]).
#[derive(Debug, Default)]
pub struct EmuWorkspace {
    /// Lazily allocated so constructing a workspace is free: a proof that
    /// fails the cryptographic check never pays for the 64 KiB image.
    ram: Option<Ram>,
    /// Reused across proofs so the stitched superblocks stay warm: every
    /// batch proof replays the same operation, and blocks are validated
    /// against live page write-generations, so reuse is observationally
    /// pure.
    cpu: Cpu,
    /// Scratch [`Step`] for the allocation-free dispatch loop.
    step: Step,
    writes: Vec<DataWrite>,
    shadow: Vec<u16>,
    or_emulated: Vec<u8>,
    counts: EmuCounts,
}

/// Exact cost counts of one abstract execution (see
/// [`EmuWorkspace::last_counts`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EmuCounts {
    /// Instructions executed.
    pub insns: usize,
    /// Block dispatches (`Cpu::step_block_into` calls).
    pub dispatches: usize,
    /// Instructions the verifier's callback observed; the rest were quiet.
    pub observed: usize,
    /// Log appends whose three-instruction tail ran as one step.
    pub fused_appends: u64,
    /// RAM pages the reset before the run rewrote.
    pub pages_restored: usize,
}

impl EmuWorkspace {
    /// A fresh workspace (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns an [`Emulation`]'s large buffers to the workspace so the
    /// next proof reuses their allocations.
    pub fn reclaim(&mut self, emu: Emulation) {
        self.writes = emu.writes;
        self.or_emulated = emu.or_emulated;
    }

    /// Selects the emulator dispatch for subsequent proofs: superblocks
    /// (the default) or the plain-decode reference. The equivalence tests
    /// pin both to byte-identical reports.
    pub fn set_dispatch(&mut self, dispatch: Dispatch) {
        self.cpu.set_dispatch(dispatch);
    }

    /// The cost counts of this workspace's most recent abstract execution.
    #[must_use]
    pub fn last_counts(&self) -> EmuCounts {
        self.counts
    }

    /// The superblock counters of this workspace's core since it was
    /// built; each abstract execution publishes its share to
    /// [`msp430::process_superblock_stats`] before it returns.
    #[must_use]
    pub fn superblock_stats(&self) -> SuperblockStats {
        self.cpu.superblock_stats()
    }
}

/// Abstractly executes `op` against the device's attested OR bytes
/// (spanning exactly `or_min..=or_max`) on `ws`; `sites` is prebuilt by the
/// verifier so repeated proofs of one operation share it.
///
/// The returned [`Emulation`] owns the workspace's write-log and OR buffers;
/// hand them back with [`EmuWorkspace::reclaim`] once it has been consumed.
fn abstract_execute(
    ws: &mut EmuWorkspace,
    op: &InstrumentedOp,
    sites: &SiteIndex,
    device_or: &[u8],
    budget: usize,
) -> Emulation {
    let pox = op.pox;
    let or_stack = OrStack::new(device_or, pox.or_min, pox.or_max);
    let r_top = or_stack.r_top();

    // Log head: SP base then r8..r15 (entry block order). The workspace
    // CPU is recycled (warm superblocks); only its architectural state is
    // reset.
    let sp_base = or_stack.entry(0).unwrap_or(0);
    let cpu = &mut ws.cpu;
    cpu.reset_regs();
    cpu.set_reg(Reg::SP, sp_base.wrapping_add(2)); // caller's SP before `call`
    cpu.set_reg(Reg::R4, r_top);
    for i in 0..8u16 {
        let v = or_stack.entry(1 + usize::from(i)).unwrap_or(0);
        cpu.set_reg(Reg::from_index(8 + i), v);
    }
    cpu.set_pc(op.options.caller_site);

    let ram = ws.ram.get_or_insert_with(Ram::new);
    // Generation-preserving reset: pages whose content is unchanged from
    // the previous proof (the code image, when replaying one operation)
    // keep their write generation, so the CPU's superblock cache stays
    // warm across proofs instead of restitching every block. Under the
    // same image tag only the pages the previous proof dirtied are
    // recomposed at all.
    let pages_restored = ram.reset_to(
        sites.image_tag,
        sites.image_runs.iter().map(|(start, bytes)| (*start, bytes.as_slice())),
    );

    let mut writes = std::mem::take(&mut ws.writes);
    writes.clear();
    let (mut cycles, mut observed, mut dispatches) = (0u64, 0usize, 0usize);
    let mut findings = Vec::new();
    let shadow = &mut ws.shadow;
    shadow.clear();
    let mut min_sp = cpu.reg(Reg::SP);
    let mut outcome = EmuOutcome::Budget;
    let fused_before = cpu.fused_appends();

    // Superblock dispatch: every input-log site is a block break, so a
    // marked PC only ever executes as a block *entry* — the `is_input`
    // probe (and the injection it guards) runs per block, not per step.
    // The per-step work below (shadow stack, write log) only needs the
    // steps with effects; quiet ones count towards the step and cycle
    // totals the dispatch returns.
    cpu.set_block_breaks(Some(sites.breaks.clone()));
    let step = &mut ws.step;
    let mut remaining = budget;
    while remaining > 0 {
        let pc = cpu.pc();
        if pc == op.return_addr {
            outcome = EmuOutcome::Completed;
            break;
        }

        // Input injection: before an input-log instruction executes, place
        // the device's logged word at the read's effective address.
        if sites.is_input(pc) {
            inject(cpu, ram, &or_stack, pox.or_min);
        }

        // Allocation-free once warm: the scratch Step is refilled in place
        // and only its data writes are copied, into the reused write log.
        dispatches += 1;
        let r = cpu.step_block_into(
            &mut *ram,
            op.return_addr,
            remaining,
            Observe::Effects,
            step,
            |_, regs, step, at| {
                observed += 1;
                min_sp = min_sp.min(regs.sp());

                // Shadow call stack over *original* control flow.
                if let Some(insn) = &step.insn {
                    match insn {
                        Insn::One { op: Op1::Call, .. } => {
                            if let Some(w) = step.writes().next() {
                                shadow.push(w.value);
                            }
                        }
                        Insn::Two {
                            op: Op2::Mov,
                            src: Operand::IndirectInc(Reg::R1),
                            dst: Operand::Reg(Reg::R0),
                            ..
                        } => {
                            let expected = shadow.pop().unwrap_or(op.return_addr);
                            if step.next_pc != expected {
                                findings.push(Finding::ReturnHijack {
                                    at: step.pc,
                                    expected,
                                    actual: step.next_pc,
                                });
                            }
                        }
                        _ => {}
                    }
                }

                for w in step.writes() {
                    writes.push(DataWrite {
                        pc: step.pc,
                        addr: w.addr,
                        value: w.value,
                        word: w.word,
                        cycle: cycles + u64::from(at),
                    });
                }
            },
        );
        match r {
            Ok((n, c)) => {
                remaining -= n;
                cycles += u64::from(c);
            }
            Err(CpuFault::Halted | CpuFault::Decode { .. }) => {
                outcome = EmuOutcome::Fault;
                break;
            }
        }
    }
    cpu.publish_superblock_stats();

    // Classify the OR log writes for the statistics.
    let (mut cf_n, mut in_n, mut arg_n) = (0usize, 0usize, 0usize);
    for w in writes.iter().filter(|w| w.addr >= pox.or_min && w.addr <= pox.or_max) {
        match sites.log_class(w.pc) {
            SlotClass::Input => in_n += 1,
            SlotClass::Head => arg_n += 1,
            _ => cf_n += 1,
        }
    }

    let final_r4 = cpu.reg(Reg::R4);
    let mut or_emulated = std::mem::take(&mut ws.or_emulated);
    or_emulated.clear();
    or_emulated
        .extend_from_slice(&ram.as_slice()[usize::from(pox.or_min)..=usize::from(pox.or_max)]);

    // Nothing raises an interrupt during abstract execution, so every
    // executed step is an instruction.
    let insns = budget - remaining;
    ws.counts = EmuCounts {
        insns,
        dispatches,
        observed,
        fused_appends: cpu.fused_appends() - fused_before,
        pages_restored,
    };
    Emulation {
        writes,
        insns,
        cycles,
        findings,
        outcome,
        sp_base,
        min_sp,
        final_r4,
        or_emulated,
        pox,
        caller_return: op.return_addr,
        log_counts: (cf_n, in_n, arg_n),
    }
}

/// Injects the device-logged word for the input-log instruction at the
/// current PC: decodes `mov <src>, 0(r4)`, resolves `<src>`'s effective
/// address from emulated registers, and stores the device's word there.
fn inject(cpu: &mut Cpu, ram: &mut Ram, or_stack: &OrStack<'_>, or_min: u16) {
    let pc = cpu.pc();
    let first = ram.read_word(pc);
    let mut cursor = pc.wrapping_add(2);
    let decoded = Insn::decode(pc, first, || {
        let w = ram.read_word(cursor);
        cursor = cursor.wrapping_add(2);
        w
    });
    let Ok(Insn::Two { src, .. }) = decoded else { return };
    let ea = match src {
        Operand::Indirect(r) | Operand::IndirectInc(r) => cpu.reg(r),
        Operand::Indexed(r, x) => cpu.reg(r).wrapping_add(x),
        Operand::Symbolic(a) | Operand::Absolute(a) => a,
        _ => return,
    };
    let slot = cpu.reg(Reg::R4);
    if slot < or_min {
        return; // device log overflowed; the emulated check will abort too
    }
    let idx = usize::from(or_stack.r_top().wrapping_sub(slot)) / 2;
    if let Some(v) = or_stack.entry(idx) {
        ram.write_word(ea & !1, v);
    }
}

/// What one word slot of the output region holds, according to the
/// verifier's own reconstruction — see [`DialedVerifier::or_slot_classes`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotClass {
    /// Log-head entry (saved SP base or one of the eight argument
    /// registers), written by the entry block's instrumentation.
    Head,
    /// CF-Log entry (call/return/branch record) — *recomputed* by abstract
    /// execution, so an authenticated splice of such a slot is guaranteed
    /// to surface as a [`Finding::LogDivergence`].
    ControlFlow,
    /// I-Log entry (a logged data input) — *injected* into the emulated
    /// memory, so forging it only shows up if the forged value changes
    /// behaviour that reaches the OR (e.g. flips a logged branch).
    Input,
    /// Never written during reconstruction (below the log watermark).
    Unused,
}

/// The DIALED verifier: PoX check + abstract execution + policies.
#[derive(Debug)]
pub struct DialedVerifier {
    op: InstrumentedOp,
    pox_verifier: PoxVerifier,
    policies: Vec<Box<dyn Policy>>,
    emu_budget: usize,
    /// Prebuilt log-site bitmaps shared by every proof of this op.
    sites: SiteIndex,
}

impl DialedVerifier {
    /// A verifier for `op` sharing `keystore` with the device.
    #[must_use]
    pub fn new(op: InstrumentedOp, keystore: KeyStore) -> Self {
        let pox_verifier = PoxVerifier::new(keystore, op.pox, &op.er_bytes);
        let sites = SiteIndex::new(&op);
        Self { op, pox_verifier, policies: Vec::new(), emu_budget: DEFAULT_EMU_BUDGET, sites }
    }

    /// Registers an application policy evaluated on every reconstruction.
    #[must_use]
    pub fn with_policy(mut self, policy: Box<dyn Policy>) -> Self {
        self.policies.push(policy);
        self
    }

    /// Overrides the default abstract-execution step budget (clamped up to
    /// [`MIN_EMU_BUDGET`]; requests may override it again per proof).
    #[must_use]
    pub fn with_emu_budget(mut self, budget: usize) -> Self {
        self.emu_budget = budget.max(MIN_EMU_BUDGET);
        self
    }

    /// The policies registered on this verifier (a request without a
    /// policy override is checked against exactly these).
    #[must_use]
    pub fn policies(&self) -> &[Box<dyn Policy>] {
        &self.policies
    }

    /// Runs only the abstract-execution stage (for tooling/benchmarks);
    /// callers must have verified the OR's authenticity themselves.
    #[must_use]
    pub fn reconstruct(&self, device_or: &[u8]) -> Emulation {
        abstract_execute(
            &mut EmuWorkspace::new(),
            &self.op,
            &self.sites,
            device_or,
            self.emu_budget,
        )
    }

    /// Classifies every word slot of `device_or` by what the verifier's own
    /// reconstruction writes there: log-head, CF-Log, I-Log, or unused.
    ///
    /// This is the mutation engine's targeting map. The security argument
    /// differs per class — CF slots are recomputed (any authenticated
    /// splice must diverge), input slots are injected (forging one is only
    /// caught through its behavioural consequences), head slots seed the
    /// emulated initial state (forging one is indistinguishable from an
    /// honest run with different arguments) — so an oracle asserting "this
    /// mutant must be rejected" has to know which kind of slot it hit.
    ///
    /// Index `i` of the returned vector covers OR bytes `2*i..2*i + 2`
    /// (from `or_min`). The map is derived from a full reconstruction of
    /// `device_or`, so call it with the honest snapshot being mutated.
    #[must_use]
    pub fn or_slot_classes(&self, device_or: &[u8]) -> Vec<SlotClass> {
        let emu = self.reconstruct(device_or);
        let pox = self.op.pox;
        let mut classes = vec![SlotClass::Unused; pox.or_len() / 2];
        for w in emu.writes.iter().filter(|w| w.addr >= pox.or_min && w.addr <= pox.or_max) {
            classes[usize::from(w.addr - pox.or_min) / 2] = self.sites.log_class(w.pc);
        }
        classes
    }
}

/// Full data-flow verification: cryptographic PoX check, abstract
/// execution with input injection, OR comparison, shadow call stack, and
/// application policies. Honours every [`VerifyRequest`] override: key
/// source, emulation budget, and policy set.
impl Verifier for DialedVerifier {
    fn verify_in(&self, ws: &mut EmuWorkspace, req: &VerifyRequest<'_>) -> Report {
        let (proof, challenge) = (req.proof(), req.challenge());
        // 1. Cryptographic proof of execution (code + OR + EXEC), under
        //    the request's resolved key.
        let ra = match req.resolve_key() {
            Ok(ra) => ra,
            Err(reason) => return Report::rejected(reason),
        };
        let or = match self.pox_verifier.check(&proof.pox, challenge, ra) {
            Ok(or) => or,
            Err(reason) => return Report::rejected(reason),
        };
        if self.op.sites.args.len() != 9 {
            return Report::rejected(RejectReason::NotFullyInstrumented);
        }
        // The OR must hold the full log head; a smaller region would make
        // abstract execution seed `sp_base` and the argument registers from
        // zero-filled slots — verifying the proof against fabricated state
        // instead of rejecting it.
        let capacity = (usize::from(self.op.r_top() - self.op.pox.or_min) + 2) / 2;
        if capacity < LOG_HEAD_WORDS {
            return Report {
                verdict: Verdict::Rejected,
                findings: vec![Finding::OrHeadTruncated { capacity, required: LOG_HEAD_WORDS }],
                stats: VerifyStats::default(),
            };
        }

        // 2. Abstract execution with input injection. Findings stay on the
        //    emulation until policies (which may inspect `emu.findings`)
        //    have run; verification-stage findings accumulate separately.
        let budget = req.emu_budget().unwrap_or(self.emu_budget);
        let mut emu = abstract_execute(ws, &self.op, &self.sites, or, budget);
        let mut extra = Vec::new();

        if emu.outcome != EmuOutcome::Completed {
            extra.push(Finding::EmulationStuck);
        }

        // 3. The recomputed OR must match the attested OR over the used
        //    span [final_r4 + 2, r_top + 1]. One slice comparison covers
        //    the clean case; the word-by-word walk only runs to locate the
        //    topmost divergence for the finding.
        let r_top = self.op.r_top();
        let used_lo = emu.final_r4.wrapping_add(2).max(self.op.pox.or_min);
        if used_lo <= r_top {
            let lo = usize::from(used_lo - self.op.pox.or_min);
            let hi = usize::from(r_top - self.op.pox.or_min) + 2;
            if or[lo..hi] != emu.or_emulated[lo..hi] {
                let mut slot = r_top;
                while slot >= used_lo {
                    let off = usize::from(slot - self.op.pox.or_min);
                    let dev = u16::from(or[off]) | (u16::from(or[off + 1]) << 8);
                    let emul = u16::from(emu.or_emulated[off])
                        | (u16::from(emu.or_emulated[off + 1]) << 8);
                    if dev != emul {
                        extra.push(Finding::LogDivergence {
                            addr: slot,
                            device: dev,
                            emulated: emul,
                        });
                        break;
                    }
                    if slot < 2 {
                        break;
                    }
                    slot -= 2;
                }
            }
        }

        // 4. Application policies on the reconstructed execution (with the
        //    shadow-stack findings still visible on `emu`).
        for policy in req.policy_overrides().unwrap_or(&self.policies) {
            extra.extend(policy.check(&emu));
        }

        let mut findings = std::mem::take(&mut emu.findings);
        findings.append(&mut extra);

        let (cf_entries, input_entries, arg_entries) = emu.log_counts;
        let stats = VerifyStats {
            emulated_insns: emu.insns,
            log_bytes_used: usize::from(r_top.saturating_sub(emu.final_r4)),
            cf_entries,
            input_entries,
            arg_entries,
        };

        // The emulation is fully consumed: recycle its buffers.
        ws.reclaim(emu);

        if findings.is_empty() {
            Report::clean(stats)
        } else {
            Report::attack(findings, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::{DialedDevice, DialedProof};
    use crate::pipeline::BuildOptions;
    use vrased::Challenge;

    fn round_trip(src: &str, args: &[u16; 8], setup: impl FnOnce(&mut msp430::Platform)) -> Report {
        let op = InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(77);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        setup(dev.platform_mut());
        let info = dev.invoke(args);
        assert_eq!(info.stop, apex::pox::StopReason::ReachedStop, "{:?}", dev.violation());
        let chal = Challenge::derive(b"verif", 9);
        let proof = dev.prove(&chal);
        DialedVerifier::new(op, ks).verify(&VerifyRequest::new(&proof, &chal))
    }

    #[test]
    fn honest_pure_computation_verifies() {
        let src = "\
            .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";
        let report = round_trip(src, &[0, 0, 0, 0, 0, 0, 20, 22], |_| {});
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.arg_entries, 9);
    }

    #[test]
    fn honest_peripheral_input_verifies() {
        // Reads P1IN (a data input) and acts on it.
        let src = "\
            .org 0xE000\nop:\n mov.b &0x0020, r14\n mov.b r14, &0x0019\n ret\n";
        let report = round_trip(src, &[0; 8], |p| p.gpio.p1.input = 0x42);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.input_entries, 1);
    }

    #[test]
    fn honest_loop_with_branches_verifies() {
        let src = "\
            .org 0xE000\nop:\n mov #5, r10\n clr r11\nloop:\n add r10, r11\n dec r10\n jnz loop\n mov r11, &0x0060\n ret\n";
        let report = round_trip(src, &[0; 8], |_| {});
        assert!(report.is_clean(), "{report}");
        // 5 loop iterations → 5 conditional entries + final ret.
        assert!(report.stats.cf_entries >= 6);
    }

    #[test]
    fn honest_pointer_walk_over_globals_verifies() {
        // Walks a 3-word table at 0x0300 (outside the stack → all logged).
        let src = "\
            .org 0xE000\nop:\n mov #0x0300, r15\n clr r11\n mov #3, r10\nloop:\n add @r15+, r11\n dec r10\n jnz loop\n mov r11, &0x0060\n ret\n";
        let report = round_trip(src, &[0; 8], |p| p.load_words(0x0300, &[7, 11, 13]));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.input_entries, 3);
    }

    #[test]
    fn device_input_values_reach_the_verifier_via_ilog() {
        // The op copies P1IN to a global; the verifier reconstructs the
        // same write even though it never saw the device's peripheral.
        let src = "\
            .org 0xE000\nop:\n mov.b &0x0020, r14\n mov.b r14, &0x0300\n ret\n";
        let op = InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(3);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        dev.platform_mut().gpio.p1.input = 0xA7;
        dev.invoke(&[0; 8]);
        let chal = Challenge::derive(b"v", 0);
        let proof = dev.prove(&chal);
        let verifier = DialedVerifier::new(op, ks);
        let report = verifier.verify(&VerifyRequest::new(&proof, &chal));
        assert!(report.is_clean(), "{report}");
        let emu = verifier.reconstruct(&proof.pox.or_data);
        // The reconstruction's write log contains the store of 0xA7 to 0x0300.
        let wrote = emu.writes.iter().any(|w| w.addr == 0x0300 && w.value == 0xA7);
        assert!(wrote, "verifier must reconstruct the device's data flow");
    }

    #[test]
    fn tiny_or_proof_is_rejected_not_verified_against_fabricated_head() {
        // Regression: an OR with fewer than 9 word slots cannot hold the
        // log head; the verifier used to zero-fill `sp_base` and the args
        // and emulate anyway. Forge an *authentic-looking* proof (correct
        // key, EXEC claimed) over the tiny region and check it is rejected
        // before emulation.
        let src = ".org 0xE000\nop:\n mov r15, &0x0060\n ret\n";
        let opts = BuildOptions { or_min: 0x0600, or_max: 0x060F, ..BuildOptions::default() }; // 8 slots
        let op = InstrumentedOp::build(src, "op", &opts).unwrap();
        let ks = KeyStore::from_seed(55);
        let chal = Challenge::derive(b"tiny", 0);
        let or_data = vec![0u8; op.pox.or_len()];
        let mut extra = [0u8; 11];
        extra[..10].copy_from_slice(&op.pox.to_metadata_bytes());
        extra[10] = 1;
        let tag = vrased::SwAtt::new(ks.clone()).attest_region_bytes(
            &chal,
            &[
                (op.pox.er_min, op.pox.er_max, &op.er_bytes[..]),
                (op.pox.or_min, op.pox.or_max, or_data.as_slice()),
            ],
            &extra,
        );
        let proof = DialedProof { pox: apex::PoxProof { cfg: op.pox, exec: true, or_data, tag } };
        let report = DialedVerifier::new(op, ks).verify(&VerifyRequest::new(&proof, &chal));
        assert_eq!(report.verdict, Verdict::Rejected);
        assert!(
            matches!(report.findings[0], Finding::OrHeadTruncated { capacity: 8, required: 9 }),
            "{report}"
        );
    }

    #[test]
    fn slot_classes_cover_head_cf_and_input_entries() {
        // Reads P1IN (input log), loops (cf log), and has the 9-word head.
        let src = "\
            .org 0xE000\nop:\n mov.b &0x0020, r14\n mov #3, r10\nloop:\n dec r10\n jnz loop\n mov.b r14, &0x0019\n ret\n";
        let op = InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(21);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        dev.platform_mut().gpio.p1.input = 0x5A;
        dev.invoke(&[0; 8]);
        let proof = dev.prove(&Challenge::derive(b"slots", 0));
        let verifier = DialedVerifier::new(op.clone(), ks);
        let classes = verifier.or_slot_classes(&proof.pox.or_data);
        assert_eq!(classes.len(), op.pox.or_len() / 2);
        let count = |c: SlotClass| classes.iter().filter(|&&x| x == c).count();
        assert_eq!(count(SlotClass::Head), LOG_HEAD_WORDS);
        assert_eq!(count(SlotClass::Input), 1, "one P1IN read");
        assert!(count(SlotClass::ControlFlow) >= 4, "3 loop branches + ret");
        assert!(count(SlotClass::Unused) > 0, "OR is larger than the log");
        // The head occupies the topmost slots (r_top downwards).
        let top = usize::from(op.r_top() - op.pox.or_min) / 2;
        for i in 0..LOG_HEAD_WORDS {
            assert_eq!(classes[top - i], SlotClass::Head, "head slot {i}");
        }
    }

    #[test]
    fn resealed_cf_splice_passes_mac_but_diverges() {
        // The reseal hook models compromised software invoking SW-Att over
        // a tampered OR: the MAC verifies, and the tamper must instead die
        // in abstract execution as a log divergence.
        let src = "\
            .org 0xE000\nop:\n mov #4, r10\nloop:\n dec r10\n jnz loop\n mov r10, &0x0060\n ret\n";
        let op = InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(22);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        dev.invoke(&[0; 8]);
        let chal = Challenge::derive(b"reseal", 0);
        let mut proof = dev.prove(&chal);
        let verifier = DialedVerifier::new(op.clone(), ks.clone());
        let classes = verifier.or_slot_classes(&proof.pox.or_data);
        let slot = classes
            .iter()
            .position(|&c| c == SlotClass::ControlFlow)
            .expect("loop op must log cf entries");
        proof.pox.or_data[slot * 2] ^= 0x3C;
        proof.pox.reseal(ks.clone(), &chal, &op.er_bytes);
        let report = verifier.verify(&VerifyRequest::new(&proof, &chal));
        assert_eq!(report.verdict, Verdict::Attack, "{report}");
        assert!(
            report.findings.iter().any(|f| matches!(f, Finding::LogDivergence { .. })),
            "{report}"
        );
    }

    #[test]
    fn tampered_or_is_rejected_cryptographically() {
        let src = ".org 0xE000\nop:\n mov r15, &0x0060\n ret\n";
        let op = InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(4);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        dev.invoke(&[0; 8]);
        let chal = Challenge::derive(b"v", 1);
        let mut proof = dev.prove(&chal);
        proof.pox.or_data[4] ^= 0xFF;
        let report = DialedVerifier::new(op, ks).verify(&VerifyRequest::new(&proof, &chal));
        assert_eq!(report.verdict, crate::report::Verdict::Rejected);
    }
}
