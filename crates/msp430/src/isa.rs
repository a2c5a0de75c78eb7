//! The MSP430 instruction set: model, decoder and encoder.
//!
//! The (non-extended) MSP430 has 27 core instructions in three encodings:
//!
//! * **Format I** — two-operand: `MOV ADD ADDC SUBC SUB CMP DADD BIT BIC BIS
//!   XOR AND`, opcode in bits 15:12 (`0x4`–`0xF`);
//! * **Format II** — single-operand: `RRC SWPB RRA SXT PUSH CALL RETI`,
//!   bits 15:10 = `000100`;
//! * **Jumps** — `JNE JEQ JNC JC JN JGE JL JMP`, bits 15:13 = `001`, with a
//!   10-bit signed word offset.
//!
//! Seven addressing modes exist; the constant generators `r2`/`r3` encode the
//! immediates −1, 0, 1, 2, 4 and 8 without an extension word, and the
//! decoder/encoder here handle them transparently (the encoder always picks
//! the shortest encoding, as real assemblers do, which is what makes the
//! Fig. 6(a) code-size numbers meaningful).
//!
//! Decoding normalises PC-relative (symbolic) operands to their *absolute*
//! target so that execution and re-encoding are position-explicit: both
//! [`Insn::decode`] and [`Insn::encode`] take the instruction address.

use crate::regs::Reg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Operation width: `.w` (default) or `.b` suffix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Size {
    /// 16-bit operation.
    Word,
    /// 8-bit operation (register write-back clears the high byte).
    Byte,
}

impl Size {
    /// Number of bytes moved by auto-increment for this size.
    #[must_use]
    pub fn bytes(self) -> u16 {
        match self {
            Size::Word => 2,
            Size::Byte => 1,
        }
    }
}

/// Format II (single-operand) operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Op1 {
    Rrc,
    Swpb,
    Rra,
    Sxt,
    Push,
    Call,
    Reti,
}

impl Op1 {
    const TABLE: [Op1; 7] =
        [Op1::Rrc, Op1::Swpb, Op1::Rra, Op1::Sxt, Op1::Push, Op1::Call, Op1::Reti];

    fn code(self) -> u16 {
        self as u16
    }

    /// Mnemonic without size suffix.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op1::Rrc => "rrc",
            Op1::Swpb => "swpb",
            Op1::Rra => "rra",
            Op1::Sxt => "sxt",
            Op1::Push => "push",
            Op1::Call => "call",
            Op1::Reti => "reti",
        }
    }

    /// Whether the byte variant exists (`rrc.b`, `rra.b`, `push.b` only).
    #[must_use]
    pub fn allows_byte(self) -> bool {
        matches!(self, Op1::Rrc | Op1::Rra | Op1::Push)
    }
}

/// Format I (two-operand) operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Op2 {
    Mov,
    Add,
    Addc,
    Subc,
    Sub,
    Cmp,
    Dadd,
    Bit,
    Bic,
    Bis,
    Xor,
    And,
}

impl Op2 {
    const TABLE: [Op2; 12] = [
        Op2::Mov,
        Op2::Add,
        Op2::Addc,
        Op2::Subc,
        Op2::Sub,
        Op2::Cmp,
        Op2::Dadd,
        Op2::Bit,
        Op2::Bic,
        Op2::Bis,
        Op2::Xor,
        Op2::And,
    ];

    fn code(self) -> u16 {
        self as u16 + 4
    }

    /// Mnemonic without size suffix.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op2::Mov => "mov",
            Op2::Add => "add",
            Op2::Addc => "addc",
            Op2::Subc => "subc",
            Op2::Sub => "sub",
            Op2::Cmp => "cmp",
            Op2::Dadd => "dadd",
            Op2::Bit => "bit",
            Op2::Bic => "bic",
            Op2::Bis => "bis",
            Op2::Xor => "xor",
            Op2::And => "and",
        }
    }

    /// `CMP` and `BIT` compute flags but never write the destination.
    #[must_use]
    pub fn writes_dst(self) -> bool {
        !matches!(self, Op2::Cmp | Op2::Bit)
    }

    /// `MOV`, `BIC` and `BIS` leave the condition codes untouched.
    #[must_use]
    pub fn sets_flags(self) -> bool {
        !matches!(self, Op2::Mov | Op2::Bic | Op2::Bis)
    }
}

/// Jump conditions (the 3-bit field of the jump encoding).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Cond {
    /// `jne`/`jnz` — Z clear.
    Nz,
    /// `jeq`/`jz` — Z set.
    Z,
    /// `jnc`/`jlo` — C clear.
    Nc,
    /// `jc`/`jhs` — C set.
    C,
    /// `jn` — N set.
    N,
    /// `jge` — N xor V clear.
    Ge,
    /// `jl` — N xor V set.
    L,
    /// `jmp` — unconditional.
    Always,
}

impl Cond {
    const TABLE: [Cond; 8] =
        [Cond::Nz, Cond::Z, Cond::Nc, Cond::C, Cond::N, Cond::Ge, Cond::L, Cond::Always];

    fn code(self) -> u16 {
        self as u16
    }

    /// Canonical mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Nz => "jnz",
            Cond::Z => "jz",
            Cond::Nc => "jnc",
            Cond::C => "jc",
            Cond::N => "jn",
            Cond::Ge => "jge",
            Cond::L => "jl",
            Cond::Always => "jmp",
        }
    }
}

/// An operand, in normalised (position-independent) form.
///
/// Decoded symbolic (PC-relative) operands carry their absolute target, so an
/// `Operand` means the same thing regardless of where the instruction sits;
/// only the *encoding* of `Symbolic` depends on the instruction address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Operand {
    /// Register direct `Rn`.
    Reg(Reg),
    /// Indexed `x(Rn)`; offset wraps mod 2^16.
    Indexed(Reg, u16),
    /// Symbolic `ADDR` — PC-relative encoding of an absolute target.
    Symbolic(u16),
    /// Absolute `&ADDR`.
    Absolute(u16),
    /// Register indirect `@Rn` (source only).
    Indirect(Reg),
    /// Register indirect with auto-increment `@Rn+` (source only).
    IndirectInc(Reg),
    /// Immediate `#N` (source only). Values −1, 0, 1, 2, 4, 8 encode via the
    /// constant generators and cost no extension word.
    Imm(u16),
}

impl Operand {
    /// Does this operand need an extension word when encoded as a source?
    #[must_use]
    pub fn src_ext_words(&self) -> u16 {
        match self {
            Operand::Reg(_) | Operand::Indirect(_) | Operand::IndirectInc(_) => 0,
            Operand::Imm(v) => u16::from(!is_cg_value(*v)),
            Operand::Indexed(..) | Operand::Symbolic(_) | Operand::Absolute(_) => 1,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Indexed(r, x) => write!(f, "{}({r})", *x as i16),
            Operand::Symbolic(a) => write!(f, "{a:#06x}"),
            Operand::Absolute(a) => write!(f, "&{a:#06x}"),
            Operand::Indirect(r) => write!(f, "@{r}"),
            Operand::IndirectInc(r) => write!(f, "@{r}+"),
            Operand::Imm(v) => write!(f, "#{}", *v as i16),
        }
    }
}

/// Values representable by the constant generators.
fn is_cg_value(v: u16) -> bool {
    matches!(v, 0 | 1 | 2 | 4 | 8 | 0xFFFF)
}

/// A decoded MSP430 instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Insn {
    /// Format II single-operand instruction.
    One {
        /// Operation.
        op: Op1,
        /// Byte/word width.
        size: Size,
        /// Source-or-destination operand (`RETI` ignores it).
        sd: Operand,
    },
    /// Format I two-operand instruction.
    Two {
        /// Operation.
        op: Op2,
        /// Byte/word width.
        size: Size,
        /// Source operand.
        src: Operand,
        /// Destination operand (register, indexed, symbolic or absolute).
        dst: Operand,
    },
    /// PC-relative jump; `offset` is in words, target = `at + 2 + 2*offset`.
    Jump {
        /// Branch condition.
        cond: Cond,
        /// Signed word offset, −512..=511.
        offset: i16,
    },
}

/// Error produced by [`Insn::decode`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The first word is not a valid MSP430 opcode.
    InvalidOpcode(u16),
    /// A byte-size bit was set on a word-only operation (`swpb.b`, `sxt.b`,
    /// `call.b`, `reti.b`).
    ByteSizeUnsupported(u16),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::InvalidOpcode(w) => write!(f, "invalid opcode word {w:#06x}"),
            DecodeError::ByteSizeUnsupported(w) => {
                write!(f, "byte-size bit set on word-only instruction {w:#06x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Error produced by [`Insn::encode`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EncodeError {
    /// The operand kind is not legal in this position (e.g. `@Rn+` as a
    /// Format I destination, immediate destination).
    BadOperand(Operand),
    /// Indexed mode on `r3` (or `r2` as plain indexed) has no encoding; the
    /// bit patterns mean constants / absolute mode.
    ConstGenConflict(Operand),
    /// Jump offset out of the −512..=511 word range.
    JumpOutOfRange(i32),
    /// Byte size requested for a word-only operation.
    ByteSizeUnsupported(Op1),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::BadOperand(o) => write!(f, "operand {o} not legal in this position"),
            EncodeError::ConstGenConflict(o) => {
                write!(f, "operand {o} collides with a constant-generator encoding")
            }
            EncodeError::JumpOutOfRange(w) => {
                write!(f, "jump offset {w} words outside -512..=511")
            }
            EncodeError::ByteSizeUnsupported(op) => {
                write!(f, "{} has no byte variant", op.mnemonic())
            }
        }
    }
}

impl std::error::Error for EncodeError {}

impl Insn {
    /// Decodes one instruction.
    ///
    /// `at` is the address of `first`; `fetch` must yield successive
    /// extension words (the CPU's version also records fetch bus events and
    /// advances the PC).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for invalid opcodes.
    pub fn decode(
        at: u16,
        first: u16,
        mut fetch: impl FnMut() -> u16,
    ) -> Result<Insn, DecodeError> {
        match first >> 13 {
            0b000 => {
                if first & 0xFC00 != 0x1000 {
                    return Err(DecodeError::InvalidOpcode(first));
                }
                let code = (first >> 7) & 0x7;
                if code == 7 {
                    return Err(DecodeError::InvalidOpcode(first));
                }
                let op = Op1::TABLE[usize::from(code)];
                let size = if first & 0x0040 != 0 { Size::Byte } else { Size::Word };
                if size == Size::Byte && !op.allows_byte() {
                    return Err(DecodeError::ByteSizeUnsupported(first));
                }
                if op == Op1::Reti {
                    // Hardware ignores the operand bits of RETI; we decode
                    // strictly so decode/encode are mutually inverse.
                    if first != 0x1300 {
                        return Err(DecodeError::InvalidOpcode(first));
                    }
                    return Ok(Insn::One { op, size: Size::Word, sd: Operand::Reg(Reg::CG2) });
                }
                let as_mode = (first >> 4) & 0x3;
                let reg = Reg::from_index(first & 0xF);
                // One extension word max; it sits at `at + 2`.
                let sd = decode_src(reg, as_mode, at.wrapping_add(2), &mut fetch);
                Ok(Insn::One { op, size, sd })
            }
            0b001 => {
                let cond = Cond::TABLE[usize::from((first >> 10) & 0x7)];
                let raw = first & 0x3FF;
                // Sign-extend the 10-bit word offset.
                let offset = if raw & 0x200 != 0 { (raw | 0xFC00) as i16 } else { raw as i16 };
                Ok(Insn::Jump { cond, offset })
            }
            _ => {
                let op = Op2::TABLE[usize::from((first >> 12) - 4)];
                let sreg = Reg::from_index((first >> 8) & 0xF);
                let ad = (first >> 7) & 0x1;
                let size = if first & 0x0040 != 0 { Size::Byte } else { Size::Word };
                let as_mode = (first >> 4) & 0x3;
                let dreg = Reg::from_index(first & 0xF);

                let src_ext_at = at.wrapping_add(2);
                let src = decode_src(sreg, as_mode, src_ext_at, &mut fetch);
                let dst_ext_at = src_ext_at.wrapping_add(2 * src.src_ext_words());
                let dst = if ad == 0 {
                    Operand::Reg(dreg)
                } else {
                    let x = fetch();
                    match dreg {
                        Reg::R0 => Operand::Symbolic(dst_ext_at.wrapping_add(x)),
                        Reg::R2 => Operand::Absolute(x),
                        r => Operand::Indexed(r, x),
                    }
                };
                Ok(Insn::Two { op, size, src, dst })
            }
        }
    }

    /// Encodes the instruction placed at address `at` into 1–3 words.
    ///
    /// The shortest encoding is always chosen (constant generators for
    /// eligible immediates).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when an operand is illegal for its position or
    /// a jump offset does not fit.
    pub fn encode(&self, at: u16) -> Result<Vec<u16>, EncodeError> {
        self.encode_opts(at, true)
    }

    /// Like [`Insn::encode`] but `use_cg = false` forces immediates into the
    /// long (extension-word) form even when a constant generator could
    /// represent them.
    ///
    /// Assemblers need this: an immediate whose value is a forward reference
    /// must be *sized* before it is *known*, so pass 1 records the long-form
    /// decision and pass 2 honours it here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Insn::encode`].
    pub fn encode_opts(&self, at: u16, use_cg: bool) -> Result<Vec<u16>, EncodeError> {
        match *self {
            Insn::Jump { cond, offset } => {
                if !(-512..=511).contains(&offset) {
                    return Err(EncodeError::JumpOutOfRange(i32::from(offset)));
                }
                Ok(vec![0x2000 | (cond.code() << 10) | ((offset as u16) & 0x3FF)])
            }
            Insn::One { op, size, sd } => {
                if size == Size::Byte && !op.allows_byte() {
                    return Err(EncodeError::ByteSizeUnsupported(op));
                }
                if op == Op1::Reti {
                    return Ok(vec![0x1300]);
                }
                let ext_at = at.wrapping_add(2);
                let (sreg, as_mode, ext) = encode_src(sd, ext_at, use_cg)?;
                let bw = if size == Size::Byte { 0x0040 } else { 0 };
                let mut out = vec![0x1000 | (op.code() << 7) | bw | (as_mode << 4) | sreg];
                out.extend(ext);
                Ok(out)
            }
            Insn::Two { op, size, src, dst } => {
                let src_ext_at = at.wrapping_add(2);
                let (sreg, as_mode, src_ext) = encode_src(src, src_ext_at, use_cg)?;
                let dst_ext_at = src_ext_at.wrapping_add(2 * src_ext.len() as u16);
                let (dreg, ad, dst_ext) = encode_dst(dst, dst_ext_at)?;
                let bw = if size == Size::Byte { 0x0040 } else { 0 };
                let mut out =
                    vec![(op.code() << 12) | (sreg << 8) | (ad << 7) | bw | (as_mode << 4) | dreg];
                out.extend(src_ext);
                out.extend(dst_ext);
                Ok(out)
            }
        }
    }

    /// Encoded length in words (1–3) without materialising the encoding.
    #[must_use]
    pub fn len_words(&self) -> u16 {
        match self {
            Insn::Jump { .. } => 1,
            Insn::One { op: Op1::Reti, .. } => 1,
            Insn::One { sd, .. } => 1 + sd.src_ext_words(),
            Insn::Two { src, dst, .. } => {
                1 + src.src_ext_words()
                    + match dst {
                        Operand::Reg(_) => 0,
                        _ => 1,
                    }
            }
        }
    }

    /// Builds a jump from `at` to `target`.
    ///
    /// # Errors
    ///
    /// Fails if the displacement does not fit the 10-bit word offset.
    pub fn jump_to(cond: Cond, at: u16, target: u16) -> Result<Insn, EncodeError> {
        let bytes = target.wrapping_sub(at.wrapping_add(2)) as i16;
        if bytes % 2 != 0 {
            return Err(EncodeError::JumpOutOfRange(i32::from(bytes)));
        }
        let words = i32::from(bytes) / 2;
        if !(-512..=511).contains(&words) {
            return Err(EncodeError::JumpOutOfRange(words));
        }
        Ok(Insn::Jump { cond, offset: words as i16 })
    }

    /// True for instructions that can alter the control flow: jumps, `call`,
    /// `reti`, and any Format I instruction writing to the PC (`mov @sp+, pc`
    /// a.k.a. `ret`, `br`, computed branches, …).
    ///
    /// This is precisely the set Tiny-CFA instruments.
    #[must_use]
    pub fn alters_control_flow(&self) -> bool {
        match self {
            Insn::Jump { .. } => true,
            Insn::One { op, .. } => matches!(op, Op1::Call | Op1::Reti),
            Insn::Two { op, dst, .. } => op.writes_dst() && matches!(dst, Operand::Reg(Reg::R0)),
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::One { op: Op1::Reti, .. } => write!(f, "reti"),
            Insn::One { op, size, sd } => {
                let suffix = if *size == Size::Byte { ".b" } else { "" };
                write!(f, "{}{suffix} {sd}", op.mnemonic())
            }
            Insn::Two { op, size, src, dst } => {
                let suffix = if *size == Size::Byte { ".b" } else { "" };
                write!(f, "{}{suffix} {src}, {dst}", op.mnemonic())
            }
            Insn::Jump { cond, offset } => write!(f, "{} {:+}", cond.mnemonic(), offset * 2 + 2),
        }
    }
}

/// Decodes a source operand given register + As mode, resolving constant
/// generators and PC-relative addressing.
fn decode_src(reg: Reg, as_mode: u16, ext_at: u16, fetch: &mut impl FnMut() -> u16) -> Operand {
    match (reg, as_mode) {
        (Reg::R2, 0) => Operand::Reg(Reg::SR),
        (Reg::R2, 1) => Operand::Absolute(fetch()),
        (Reg::R2, 2) => Operand::Imm(4),
        (Reg::R2, 3) => Operand::Imm(8),
        (Reg::R3, 0) => Operand::Imm(0),
        (Reg::R3, 1) => Operand::Imm(1),
        (Reg::R3, 2) => Operand::Imm(2),
        (Reg::R3, 3) => Operand::Imm(0xFFFF),
        (Reg::R0, 3) => Operand::Imm(fetch()),
        (Reg::R0, 1) => {
            let x = fetch();
            Operand::Symbolic(ext_at.wrapping_add(x))
        }
        (r, 0) => Operand::Reg(r),
        (r, 1) => Operand::Indexed(r, fetch()),
        (r, 2) => Operand::Indirect(r),
        (r, _) => Operand::IndirectInc(r),
    }
}

/// Encodes a source operand → (register field, As field, extension words).
fn encode_src(op: Operand, ext_at: u16, use_cg: bool) -> Result<(u16, u16, Vec<u16>), EncodeError> {
    Ok(match op {
        Operand::Reg(r) => (r.index() as u16, 0, vec![]),
        Operand::Imm(0) if use_cg => (3, 0, vec![]),
        Operand::Imm(1) if use_cg => (3, 1, vec![]),
        Operand::Imm(2) if use_cg => (3, 2, vec![]),
        Operand::Imm(0xFFFF) if use_cg => (3, 3, vec![]),
        Operand::Imm(4) if use_cg => (2, 2, vec![]),
        Operand::Imm(8) if use_cg => (2, 3, vec![]),
        Operand::Imm(v) => (0, 3, vec![v]),
        Operand::Indexed(r, x) => {
            if matches!(r, Reg::R0 | Reg::R2 | Reg::R3) {
                return Err(EncodeError::ConstGenConflict(op));
            }
            (r.index() as u16, 1, vec![x])
        }
        Operand::Symbolic(target) => (0, 1, vec![target.wrapping_sub(ext_at)]),
        Operand::Absolute(a) => (2, 1, vec![a]),
        // `@r0` is a legal (if exotic) encoding; only r2/r3 collide with the
        // constant generators in As=10.
        Operand::Indirect(r) => {
            if matches!(r, Reg::R2 | Reg::R3) {
                return Err(EncodeError::ConstGenConflict(op));
            }
            (r.index() as u16, 2, vec![])
        }
        Operand::IndirectInc(r) => {
            if matches!(r, Reg::R0 | Reg::R2 | Reg::R3) {
                return Err(EncodeError::ConstGenConflict(op));
            }
            (r.index() as u16, 3, vec![])
        }
    })
}

/// Encodes a destination operand → (register field, Ad bit, extension words).
fn encode_dst(op: Operand, ext_at: u16) -> Result<(u16, u16, Vec<u16>), EncodeError> {
    Ok(match op {
        Operand::Reg(r) => (r.index() as u16, 0, vec![]),
        Operand::Indexed(r, x) => {
            if matches!(r, Reg::R0 | Reg::R2) {
                return Err(EncodeError::ConstGenConflict(op));
            }
            (r.index() as u16, 1, vec![x])
        }
        Operand::Symbolic(target) => (0, 1, vec![target.wrapping_sub(ext_at)]),
        Operand::Absolute(a) => (2, 1, vec![a]),
        other => return Err(EncodeError::BadOperand(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(i: Insn, at: u16) -> Vec<u16> {
        i.encode(at).expect("encodable")
    }

    fn dec(at: u16, words: &[u16]) -> Insn {
        let mut it = words[1..].iter().copied();
        Insn::decode(at, words[0], || it.next().expect("enough words")).expect("decodable")
    }

    #[test]
    fn known_encodings_from_ti_toolchain() {
        // mov #21, r10
        assert_eq!(
            enc(
                Insn::Two {
                    op: Op2::Mov,
                    size: Size::Word,
                    src: Operand::Imm(21),
                    dst: Operand::Reg(Reg::R10)
                },
                0
            ),
            vec![0x403A, 0x0015]
        );
        // add r10, r10
        assert_eq!(
            enc(
                Insn::Two {
                    op: Op2::Add,
                    size: Size::Word,
                    src: Operand::Reg(Reg::R10),
                    dst: Operand::Reg(Reg::R10)
                },
                0
            ),
            vec![0x5A0A]
        );
        // clr r5 == mov #0, r5 (constant generator r3)
        assert_eq!(
            enc(
                Insn::Two {
                    op: Op2::Mov,
                    size: Size::Word,
                    src: Operand::Imm(0),
                    dst: Operand::Reg(Reg::R5)
                },
                0
            ),
            vec![0x4305]
        );
        // ret == mov @sp+, pc
        assert_eq!(
            enc(
                Insn::Two {
                    op: Op2::Mov,
                    size: Size::Word,
                    src: Operand::IndirectInc(Reg::SP),
                    dst: Operand::Reg(Reg::PC)
                },
                0
            ),
            vec![0x4130]
        );
        // push r15
        assert_eq!(
            enc(Insn::One { op: Op1::Push, size: Size::Word, sd: Operand::Reg(Reg::R15) }, 0),
            vec![0x120F]
        );
        // call #0xF000
        assert_eq!(
            enc(Insn::One { op: Op1::Call, size: Size::Word, sd: Operand::Imm(0xF000) }, 0),
            vec![0x12B0, 0xF000]
        );
        // reti
        assert_eq!(
            enc(Insn::One { op: Op1::Reti, size: Size::Word, sd: Operand::Reg(Reg::CG2) }, 0),
            vec![0x1300]
        );
        // swpb r5 / sxt r15 / rrc r4
        assert_eq!(
            enc(Insn::One { op: Op1::Swpb, size: Size::Word, sd: Operand::Reg(Reg::R5) }, 0),
            vec![0x1085]
        );
        assert_eq!(
            enc(Insn::One { op: Op1::Sxt, size: Size::Word, sd: Operand::Reg(Reg::R15) }, 0),
            vec![0x118F]
        );
        assert_eq!(
            enc(Insn::One { op: Op1::Rrc, size: Size::Word, sd: Operand::Reg(Reg::R4) }, 0),
            vec![0x1004]
        );
        // mov &0x0172, r6
        assert_eq!(
            enc(
                Insn::Two {
                    op: Op2::Mov,
                    size: Size::Word,
                    src: Operand::Absolute(0x0172),
                    dst: Operand::Reg(Reg::R6)
                },
                0
            ),
            vec![0x4216, 0x0172]
        );
        // mov.b @r15, r14 (the read instrumented in the paper's Fig. 5)
        assert_eq!(
            enc(
                Insn::Two {
                    op: Op2::Mov,
                    size: Size::Byte,
                    src: Operand::Indirect(Reg::R15),
                    dst: Operand::Reg(Reg::R14)
                },
                0
            ),
            vec![0x4F6E]
        );
        // jmp . (self loop): offset −1
        assert_eq!(enc(Insn::Jump { cond: Cond::Always, offset: -1 }, 0), vec![0x3FFF]);
        // jz $+4 (skip one word)
        assert_eq!(enc(Insn::Jump { cond: Cond::Z, offset: 1 }, 0), vec![0x2401]);
    }

    #[test]
    fn constant_generator_immediates_have_no_ext_word() {
        for v in [0u16, 1, 2, 4, 8, 0xFFFF] {
            let i = Insn::Two {
                op: Op2::Mov,
                size: Size::Word,
                src: Operand::Imm(v),
                dst: Operand::Reg(Reg::R5),
            };
            assert_eq!(i.len_words(), 1, "#{v}");
            assert_eq!(enc(i, 0).len(), 1, "#{v}");
        }
        let i = Insn::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: Operand::Imm(3),
            dst: Operand::Reg(Reg::R5),
        };
        assert_eq!(i.len_words(), 2);
    }

    #[test]
    fn decode_recovers_const_generators() {
        // mov #4, r5 via r2 As=10.
        let i = dec(0, &[0x4225]);
        assert_eq!(
            i,
            Insn::Two {
                op: Op2::Mov,
                size: Size::Word,
                src: Operand::Imm(4),
                dst: Operand::Reg(Reg::R5)
            }
        );
        // mov #-1, r5 via r3 As=11.
        let i = dec(0, &[0x4335]);
        assert_eq!(
            i,
            Insn::Two {
                op: Op2::Mov,
                size: Size::Word,
                src: Operand::Imm(0xFFFF),
                dst: Operand::Reg(Reg::R5)
            }
        );
    }

    #[test]
    fn symbolic_round_trips_position_dependently() {
        let at = 0xE010;
        let i = Insn::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: Operand::Symbolic(0xE100),
            dst: Operand::Reg(Reg::R7),
        };
        let w = enc(i, at);
        assert_eq!(w.len(), 2);
        // Offset is relative to the extension-word address (at + 2).
        assert_eq!(w[1], 0xE100u16.wrapping_sub(at + 2));
        assert_eq!(dec(at, &w), i);
        // Same instruction encoded elsewhere gets a different ext word but
        // decodes to the same normalised form.
        let w2 = enc(i, 0x1000);
        assert_ne!(w[1], w2[1]);
        assert_eq!(dec(0x1000, &w2), i);
    }

    #[test]
    fn symbolic_destination_round_trips() {
        let at = 0xC000;
        let i = Insn::Two {
            op: Op2::Add,
            size: Size::Word,
            src: Operand::Imm(100),
            dst: Operand::Symbolic(0xC200),
        };
        let w = enc(i, at);
        assert_eq!(w.len(), 3);
        assert_eq!(dec(at, &w), i);
    }

    #[test]
    fn invalid_opcodes_rejected() {
        assert!(matches!(Insn::decode(0, 0x0000, || 0), Err(DecodeError::InvalidOpcode(_))));
        // Format II code 111 (beyond RETI).
        assert!(matches!(
            Insn::decode(0, 0x1380 | 0x0080, || 0),
            Err(DecodeError::InvalidOpcode(_))
        ));
        // call.b
        assert!(matches!(
            Insn::decode(0, 0x12B0 | 0x0040, || 0),
            Err(DecodeError::ByteSizeUnsupported(_))
        ));
    }

    #[test]
    fn word_only_ops_reject_byte_encode() {
        let i = Insn::One { op: Op1::Call, size: Size::Byte, sd: Operand::Reg(Reg::R5) };
        assert!(matches!(i.encode(0), Err(EncodeError::ByteSizeUnsupported(Op1::Call))));
    }

    #[test]
    fn indirect_dst_is_rejected() {
        let i = Insn::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: Operand::Reg(Reg::R8),
            dst: Operand::Indirect(Reg::R4),
        };
        assert!(matches!(i.encode(0), Err(EncodeError::BadOperand(_))));
    }

    #[test]
    fn jump_to_computes_offsets() {
        let j = Insn::jump_to(Cond::Always, 0xE000, 0xE000).unwrap();
        assert_eq!(j, Insn::Jump { cond: Cond::Always, offset: -1 });
        let j = Insn::jump_to(Cond::Z, 0xE000, 0xE006).unwrap();
        assert_eq!(j, Insn::Jump { cond: Cond::Z, offset: 2 });
        assert!(Insn::jump_to(Cond::Z, 0, 0x8000).is_err());
        assert!(Insn::jump_to(Cond::Z, 0, 3).is_err());
    }

    #[test]
    fn alters_control_flow_classification() {
        let ret = Insn::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: Operand::IndirectInc(Reg::SP),
            dst: Operand::Reg(Reg::PC),
        };
        assert!(ret.alters_control_flow());
        let br = Insn::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: Operand::Reg(Reg::R11),
            dst: Operand::Reg(Reg::PC),
        };
        assert!(br.alters_control_flow());
        // cmp to PC does not write the PC.
        let cmp = Insn::Two {
            op: Op2::Cmp,
            size: Size::Word,
            src: Operand::Imm(0),
            dst: Operand::Reg(Reg::PC),
        };
        assert!(!cmp.alters_control_flow());
        let call = Insn::One { op: Op1::Call, size: Size::Word, sd: Operand::Imm(0xF000) };
        assert!(call.alters_control_flow());
        let mov = Insn::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: Operand::Reg(Reg::R5),
            dst: Operand::Reg(Reg::R6),
        };
        assert!(!mov.alters_control_flow());
        assert!(Insn::Jump { cond: Cond::N, offset: 3 }.alters_control_flow());
    }

    #[test]
    fn display_forms() {
        let i = Insn::Two {
            op: Op2::Mov,
            size: Size::Byte,
            src: Operand::Indirect(Reg::R15),
            dst: Operand::Reg(Reg::R14),
        };
        assert_eq!(i.to_string(), "mov.b @r15, r14");
        let j = Insn::Jump { cond: Cond::Always, offset: -1 };
        assert_eq!(j.to_string(), "jmp +0");
    }

    #[test]
    fn len_words_matches_encoding() {
        let cases = [
            Insn::Two {
                op: Op2::Mov,
                size: Size::Word,
                src: Operand::Indexed(Reg::R5, 4),
                dst: Operand::Indexed(Reg::R6, 8),
            },
            Insn::Two {
                op: Op2::Cmp,
                size: Size::Word,
                src: Operand::Imm(0x1234),
                dst: Operand::Absolute(0x200),
            },
            Insn::One { op: Op1::Push, size: Size::Word, sd: Operand::Imm(300) },
            Insn::One { op: Op1::Reti, size: Size::Word, sd: Operand::Reg(Reg::CG2) },
            Insn::Jump { cond: Cond::C, offset: 5 },
        ];
        for i in cases {
            assert_eq!(usize::from(i.len_words()), enc(i, 0x4000).len(), "{i}");
        }
    }
}
