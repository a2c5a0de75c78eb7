//! Cycle-accurate simulator for the TI MSP430 class of 16-bit MCUs.
//!
//! This crate is the hardware substrate of the DIALED reproduction. The
//! original paper evaluates on a TI MSP430 (openMSP430 soft core on FPGA);
//! we reproduce the *machine* in software so that the rest of the stack —
//! VRASED-style attestation, the APEX proof-of-execution monitor, Tiny-CFA
//! and DIALED instrumentation — can run unchanged embedded operations and
//! report the same code-size / CPU-cycle / log-size metrics.
//!
//! # What is modelled
//!
//! * the complete MSP430 (non-X) instruction set: all 27 core instructions
//!   across Format I (two-operand), Format II (single-operand) and jump
//!   encodings, with byte/word variants and all seven addressing modes
//!   including both constant generators (`r2`/`r3`);
//! * instruction timing per the MSP430x1xx family user's guide cycle table
//!   ([`cycles`]);
//! * a 64 KiB little-endian address space with a configurable
//!   [`layout::MemoryMap`] (peripherals, SRAM data memory, program flash,
//!   interrupt vectors);
//! * memory-mapped peripherals ([`periph`]): GPIO ports, a SAR ADC with
//!   scriptable samples, a 16-bit timer, a UART with scriptable RX bytes,
//!   and a DMA engine (used by attack scenarios);
//! * maskable interrupts and a DMA port, both visible to bus monitors —
//!   these are exactly the signals the APEX hardware watches.
//!
//! Every architectural side effect of every executed instruction is reported
//! in a [`cpu::Step`] record (program counter, decoded instruction, cycle
//! count, and the full list of bus accesses). Hardware monitors such as the
//! APEX FSM consume this stream instead of probing Verilog wires.
//!
//! There are two ways to execute: [`Cpu::step_block_into`] dispatches
//! superblocks of predecoded instructions (what every run loop uses), and
//! [`Cpu::step`] decodes and executes one instruction, the plain reference
//! the block path falls back to. [`Cpu::set_dispatch`] pins a core to the
//! reference ([`Dispatch::Reference`]) for differential tests.
//!
//! # Quickstart
//!
//! ```
//! use msp430::{cpu::Cpu, mem::Ram, regs::Reg, Observe, Step};
//!
//! // mov #21, r10 ; add r10, r10 — computes 42 into r10.
//! let mut ram = Ram::new();
//! ram.load_words(0xE000, &[0x403A, 0x0015, 0x5A0A]);
//! let mut cpu = Cpu::new();
//! cpu.set_pc(0xE000);
//! cpu.step(&mut ram).unwrap();
//! assert_eq!(cpu.reg(Reg::R10), 21);
//!
//! // The same program again, as one superblock dispatch of both steps.
//! cpu.set_pc(0xE000);
//! let mut step = Step::default();
//! let (steps, cycles) = cpu
//!     .step_block_into(&mut ram, 0xFFFF, 2, Observe::EveryStep, &mut step, |_, _, _, _| {})
//!     .unwrap();
//! assert_eq!((steps, cycles), (2, 3));
//! assert_eq!(cpu.reg(Reg::R10), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod cycles;
pub mod flags;
pub mod isa;
pub mod layout;
pub mod mem;
pub mod periph;
pub mod platform;
pub mod regs;
mod superblock;

pub use cpu::{Cpu, CpuFault, Dispatch, Observe, Step};
pub use isa::{Insn, Operand};
pub use mem::{Access, AccessBuf, AccessKind, Bus, Ram};
pub use platform::Platform;
pub use regs::Reg;
pub use superblock::{process_superblock_stats, BlockBreaks, SuperblockStats};
