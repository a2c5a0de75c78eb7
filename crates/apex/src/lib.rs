//! APEX: a verified architecture for proofs of execution (PoX) — simulator
//! port.
//!
//! APEX (USENIX Security'20) adds a small hardware monitor next to a
//! VRASED-equipped MSP430. The monitor maintains a 1-bit `EXEC` flag with
//! the following contract: **`EXEC = 1` after execution iff the code in the
//! Executable Range (ER) ran from its first instruction to its last with no
//! interference, and nothing but that code wrote the Output Range (OR)**.
//! Attesting `ER ‖ OR ‖ EXEC` under the VRASED key then proves to the
//! verifier that exactly this code produced exactly this output.
//!
//! Tiny-CFA and DIALED lean entirely on this: their instrumentation writes
//! CF-Log/I-Log into OR, and APEX makes those logs unforgeable.
//!
//! # What the monitor watches
//!
//! The Verilog monitor taps the PC, the data-bus address/enables, the IRQ
//! and DMA lines. Our port consumes the identical information from
//! [`msp430::cpu::Step`] records and DMA event lists — one FSM evaluation
//! per executed instruction (the simulator's atomic unit, matching the
//! openMSP430 whose memory operations complete within an instruction).
//!
//! The EXEC-invalidating events (each mapped to a [`Violation`]):
//!
//! 1. executing inside ER without having entered at `er_min`;
//! 2. leaving ER from any instruction other than the designated exit;
//! 3. an interrupt taken while inside ER;
//! 4. any DMA activity while inside ER;
//! 5. a write into ER at any time (code is immutable while armed);
//! 6. a write into OR by anything other than ER code during execution.
//!
//! # Example
//!
//! ```
//! use apex::{metadata::PoxConfig, monitor::ApexMonitor};
//! use msp430::{cpu::Cpu, platform::Platform, mem::Bus, regs::Reg};
//!
//! let cfg = PoxConfig::new(0xE000, 0xE003, 0xE002, 0x0600, 0x06FF)?;
//! let mut platform = Platform::new();
//! platform.load_words(0xE000, &[0x4303, 0x4130]); // nop ; ret
//! let mut cpu = Cpu::new();
//! cpu.set_reg(Reg::SP, 0x09FE);
//! platform.write_word(0x09FE, 0xF000);            // return address
//! cpu.set_pc(0xE000);
//!
//! let mut mon = ApexMonitor::new(cfg);
//! while cpu.pc() != 0xF000 {
//!     let step = cpu.step(&mut platform)?;
//!     mon.observe_step(&step);
//! }
//! assert!(mon.exec());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metadata;
pub mod monitor;
pub mod pox;
pub mod violation;

pub use metadata::PoxConfig;
pub use monitor::ApexMonitor;
pub use pox::{PoxProof, PoxProver, PoxRejection, PoxVerifier};
pub use violation::Violation;
