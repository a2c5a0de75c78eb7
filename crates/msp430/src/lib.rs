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
//! # Quickstart
//!
//! ```
//! use msp430::{cpu::Cpu, mem::Ram, regs::Reg};
//!
//! // mov #21, r10 ; add r10, r10 — computes 42 into r10.
//! let mut ram = Ram::new();
//! ram.load_words(0xE000, &[0x403A, 0x0015, 0x5A0A]);
//! let mut cpu = Cpu::new();
//! cpu.set_pc(0xE000);
//! cpu.step(&mut ram).unwrap();
//! cpu.step(&mut ram).unwrap();
//! assert_eq!(cpu.reg(msp430::Reg::R10), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod cycles;
pub mod flags;
mod icache;
pub mod isa;
pub mod layout;
pub mod mem;
pub mod periph;
pub mod platform;
pub mod regs;
pub mod trace;

pub use cpu::{superblocks_forced_off, Cpu, CpuFault, Observe, Step};
pub use icache::{process_superblock_stats, BlockBreaks, ICacheStats, SuperblockStats};
pub use isa::{Insn, Operand};
pub use mem::{Access, AccessBuf, AccessKind, Bus, Ram};
pub use platform::Platform;
pub use regs::Reg;
