//! The MSP430 register file.
//!
//! Sixteen 16-bit registers. `r0`–`r3` are special:
//!
//! | Register | Alias | Role |
//! |---|---|---|
//! | `r0` | `PC` | program counter (always even) |
//! | `r1` | `SP` | stack pointer (always even) |
//! | `r2` | `SR`/`CG1` | status register / constant generator 1 |
//! | `r3` | `CG2` | constant generator 2 |
//!
//! Tiny-CFA/DIALED additionally reserve `r4` as the log stack pointer `R`
//! (a software convention enforced at instrumentation time, not hardware).

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the sixteen MSP430 registers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Reg {
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// Program counter alias.
    pub const PC: Reg = Reg::R0;
    /// Stack pointer alias.
    pub const SP: Reg = Reg::R1;
    /// Status register alias.
    pub const SR: Reg = Reg::R2;
    /// Constant generator 2 alias.
    pub const CG2: Reg = Reg::R3;

    /// All registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Numeric index 0..=15.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds a register from its 4-bit field value.
    ///
    /// # Panics
    ///
    /// Panics if `idx > 15`; instruction fields are 4 bits wide so decoders
    /// can never trigger this.
    #[must_use]
    pub fn from_index(idx: u16) -> Reg {
        Reg::ALL[usize::from(idx) & 0xF]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

/// The architectural register file.
///
/// Word writes to `PC` and `SP` silently clear bit 0, matching the hardware
/// (both are always even).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RegFile {
    words: [u16; 16],
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegFile {
    /// All registers zeroed.
    #[must_use]
    pub fn new() -> Self {
        Self { words: [0; 16] }
    }

    /// Reads a register.
    #[must_use]
    #[inline]
    pub fn get(&self, r: Reg) -> u16 {
        self.words[r.index()]
    }

    /// Writes a register, forcing PC/SP alignment.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u16) {
        let v = if r == Reg::PC || r == Reg::SP { v & !1 } else { v };
        self.words[r.index()] = v;
    }

    /// Writes only the low byte, clearing the high byte (MSP430 byte-op
    /// register write-back semantics).
    pub fn set_byte(&mut self, r: Reg, v: u8) {
        self.set(r, u16::from(v));
    }

    /// Program counter.
    #[must_use]
    pub fn pc(&self) -> u16 {
        self.get(Reg::PC)
    }

    /// Stack pointer.
    #[must_use]
    pub fn sp(&self) -> u16 {
        self.get(Reg::SP)
    }

    /// Status register.
    #[must_use]
    pub fn sr(&self) -> u16 {
        self.get(Reg::SR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i as u16), *r);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::PC.to_string(), "r0");
        assert_eq!(Reg::R15.to_string(), "r15");
    }

    #[test]
    fn pc_and_sp_stay_even() {
        let mut rf = RegFile::new();
        rf.set(Reg::PC, 0x1235);
        rf.set(Reg::SP, 0x27FF);
        rf.set(Reg::R5, 0x1235);
        assert_eq!(rf.pc(), 0x1234);
        assert_eq!(rf.sp(), 0x27FE);
        assert_eq!(rf.get(Reg::R5), 0x1235);
    }

    #[test]
    fn byte_write_clears_high_byte() {
        let mut rf = RegFile::new();
        rf.set(Reg::R9, 0xBEEF);
        rf.set_byte(Reg::R9, 0x42);
        assert_eq!(rf.get(Reg::R9), 0x0042);
    }
}
