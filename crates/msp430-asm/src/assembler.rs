//! The two-pass assembler.
//!
//! **Pass 1** walks the program, tracks the location counter, defines labels
//! and `.equ` symbols, and *sizes* every instruction. Immediates whose value
//! is not yet known (forward references) are pessimistically sized in long
//! form; the decision is recorded so pass 2 encodes the same size even if
//! the value turns out to fit a constant generator.
//!
//! **Pass 2** evaluates all expressions against the complete symbol table
//! and encodes with [`msp430::isa::Insn::encode_opts`].

use crate::ast::{Expr, Item, Program, Stmt, TOperand, Template};
use crate::image::Image;
use crate::parser::parse_program;
use msp430::isa::{Insn, Operand, Size};
use std::collections::BTreeMap;
use std::fmt;

/// Assembly error with source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based source line (0 for synthetic lines).
    pub line: usize,
    /// Message.
    pub msg: String,
}

impl AsmError {
    fn new(line: usize, msg: impl Into<String>) -> Self {
        Self { line, msg: msg.into() }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

impl From<crate::parser::ParseError> for AsmError {
    fn from(e: crate::parser::ParseError) -> Self {
        AsmError { line: e.line, msg: e.msg }
    }
}

/// Assembles source text.
///
/// # Errors
///
/// Returns [`AsmError`] on parse, sizing, resolution or encoding failures.
///
/// # Examples
///
/// ```
/// let img = msp430_asm::assemble(".org 0xE000\n nop\n")?;
/// assert_eq!(img.size_bytes(), 2);
/// # Ok::<(), msp430_asm::AsmError>(())
/// ```
pub fn assemble(src: &str) -> Result<Image, AsmError> {
    let program = parse_program(src)?;
    assemble_program(&program)
}

/// One sized instruction awaiting encoding.
struct Pending<'a> {
    line: usize,
    addr: u16,
    template: &'a Template,
    /// Pass-1 decision: encode immediates in long form.
    long_imm: bool,
}

/// Assembles an already-parsed (possibly instrumented) [`Program`].
///
/// # Errors
///
/// Returns [`AsmError`] on sizing, resolution or encoding failures.
pub fn assemble_program(program: &Program) -> Result<Image, AsmError> {
    let mut symbols: BTreeMap<String, u16> = BTreeMap::new();
    let mut pc: u16 = 0;
    let mut pending: Vec<Pending<'_>> = Vec::new();
    let mut data: Vec<(usize, u16, &Stmt)> = Vec::new();

    // ---- Pass 1: layout & symbols ----
    for line in &program.lines {
        let ln = line.line;
        match &line.item {
            Item::Label(name) => {
                if symbols.insert(name.clone(), pc).is_some() {
                    return Err(AsmError::new(ln, format!("duplicate symbol `{name}`")));
                }
            }
            Item::Stmt(stmt) => match stmt {
                Stmt::Org(e) => {
                    let v = eval_now(e, &symbols, pc, ln, ".org")?;
                    pc = v;
                }
                Stmt::Align => {
                    if pc & 1 != 0 {
                        pc = pc.wrapping_add(1);
                    }
                }
                Stmt::Equ(name, e) => {
                    let v = eval_now(e, &symbols, pc, ln, ".equ")?;
                    if symbols.insert(name.clone(), v).is_some() {
                        return Err(AsmError::new(ln, format!("duplicate symbol `{name}`")));
                    }
                }
                Stmt::Word(es) => {
                    if pc & 1 != 0 {
                        return Err(AsmError::new(ln, ".word at odd address"));
                    }
                    data.push((ln, pc, stmt));
                    pc = pc.wrapping_add(2 * es.len() as u16);
                }
                Stmt::Byte(es) => {
                    data.push((ln, pc, stmt));
                    pc = pc.wrapping_add(es.len() as u16);
                }
                Stmt::Space(e) => {
                    let v = eval_now(e, &symbols, pc, ln, ".space")?;
                    data.push((ln, pc, stmt));
                    pc = pc.wrapping_add(v);
                }
                Stmt::Insn(t) => {
                    if pc & 1 != 0 {
                        return Err(AsmError::new(ln, "instruction at odd address"));
                    }
                    let (words, long_imm) = size_of(t, &symbols, pc);
                    pending.push(Pending { line: ln, addr: pc, template: t, long_imm });
                    pc = pc.wrapping_add(2 * words);
                }
            },
        }
    }

    // ---- Pass 2: encode ----
    let mut image = Image::new();
    image.symbols = symbols.clone();

    for p in &pending {
        let insn = resolve(p.template, &symbols, p.addr, p.line)?;
        let words = insn
            .encode_opts(p.addr, !p.long_imm)
            .map_err(|e| AsmError::new(p.line, e.to_string()))?;
        let mut a = p.addr;
        for w in words {
            if !image.put_word(a, w) {
                return Err(AsmError::new(p.line, format!("overlapping code at {a:#06x}")));
            }
            a = a.wrapping_add(2);
        }
    }

    for (ln, addr, stmt) in data {
        match stmt {
            Stmt::Word(es) => {
                let mut a = addr;
                for e in es {
                    let v = eval_word(e, &symbols, a, ln)?;
                    if !image.put_word(a, v) {
                        return Err(AsmError::new(ln, format!("overlapping data at {a:#06x}")));
                    }
                    a = a.wrapping_add(2);
                }
            }
            Stmt::Byte(es) => {
                let mut a = addr;
                for e in es {
                    let v = eval_word(e, &symbols, a, ln)?;
                    if v > 0xFF && v < 0xFF80 {
                        return Err(AsmError::new(ln, format!(".byte value {v:#x} out of range")));
                    }
                    if !image.put_byte(a, v as u8) {
                        return Err(AsmError::new(ln, format!("overlapping data at {a:#06x}")));
                    }
                    a = a.wrapping_add(1);
                }
            }
            Stmt::Space(e) => {
                let n = eval_word(e, &symbols, addr, ln)?;
                let mut a = addr;
                for _ in 0..n {
                    if !image.put_byte(a, 0) {
                        return Err(AsmError::new(ln, format!("overlapping data at {a:#06x}")));
                    }
                    a = a.wrapping_add(1);
                }
            }
            _ => unreachable!("only data statements are deferred"),
        }
    }

    Ok(image)
}

/// Pass-1 evaluation that must succeed immediately (`.org`, `.equ`,
/// `.space`) — forward references are not allowed there.
fn eval_now(
    e: &Expr,
    symbols: &BTreeMap<String, u16>,
    here: u16,
    line: usize,
    what: &str,
) -> Result<u16, AsmError> {
    let v = e
        .eval(symbols, here)
        .ok_or_else(|| AsmError::new(line, format!("{what} operand must not forward-reference")))?;
    to_u16(v, line)
}

fn eval_word(
    e: &Expr,
    symbols: &BTreeMap<String, u16>,
    here: u16,
    line: usize,
) -> Result<u16, AsmError> {
    let v = e
        .eval(symbols, here)
        .ok_or_else(|| AsmError::new(line, format!("undefined symbol in expression `{e}`")))?;
    to_u16(v, line)
}

fn to_u16(v: i64, line: usize) -> Result<u16, AsmError> {
    if (-0x8000..=0xFFFF).contains(&v) {
        Ok((v & 0xFFFF) as u16)
    } else {
        Err(AsmError::new(line, format!("value {v} does not fit in 16 bits")))
    }
}

/// Pass-1 size (in words) of an instruction, plus the long-immediate flag.
fn size_of(t: &Template, symbols: &BTreeMap<String, u16>, here: u16) -> (u16, bool) {
    let ext = |o: &TOperand, long_imm: &mut bool| -> u16 {
        match o {
            TOperand::Reg(_) | TOperand::Indirect(_) | TOperand::IndirectInc(_) => 0,
            TOperand::Indexed(..) | TOperand::Symbolic(_) | TOperand::Absolute(_) => 1,
            TOperand::Imm(e) => match e.eval(symbols, here) {
                Some(0 | 1 | 2 | 4 | 8 | -1) => 0,
                _ => {
                    *long_imm = true;
                    1
                }
            },
        }
    };
    let mut long_imm = false;
    let words = match t {
        Template::Jcc { .. } => 1,
        Template::One { sd, .. } => 1 + ext(sd, &mut long_imm),
        Template::Two { src, dst, .. } => {
            1 + ext(src, &mut long_imm)
                + match dst {
                    TOperand::Reg(_) => 0,
                    _ => 1,
                }
        }
    };
    (words, long_imm)
}

/// Pass-2 resolution: template → concrete [`Insn`].
fn resolve(
    t: &Template,
    symbols: &BTreeMap<String, u16>,
    addr: u16,
    line: usize,
) -> Result<Insn, AsmError> {
    let operand = |o: &TOperand| -> Result<Operand, AsmError> {
        Ok(match o {
            TOperand::Reg(r) => Operand::Reg(*r),
            TOperand::Imm(e) => Operand::Imm(eval_word(e, symbols, addr, line)?),
            TOperand::Indexed(e, r) => Operand::Indexed(*r, eval_word(e, symbols, addr, line)?),
            TOperand::Symbolic(e) => Operand::Symbolic(eval_word(e, symbols, addr, line)?),
            TOperand::Absolute(e) => Operand::Absolute(eval_word(e, symbols, addr, line)?),
            TOperand::Indirect(r) => Operand::Indirect(*r),
            TOperand::IndirectInc(r) => Operand::IndirectInc(*r),
        })
    };
    match t {
        Template::One { op, size, sd } => Ok(Insn::One { op: *op, size: *size, sd: operand(sd)? }),
        Template::Two { op, size, src, dst } => {
            Ok(Insn::Two { op: *op, size: *size, src: operand(src)?, dst: operand(dst)? })
        }
        Template::Jcc { cond, target } => {
            let tgt = eval_word(target, symbols, addr, line)?;
            Insn::jump_to(*cond, addr, tgt)
                .map_err(|e| AsmError::new(line, format!("jump to {tgt:#06x}: {e}")))
        }
    }
}

/// Internal sizing probe shared with the listing generator.
pub(crate) fn size_probe(t: &Template, symbols: &BTreeMap<String, u16>, here: u16) -> (u16, bool) {
    size_of(t, symbols, here)
}

/// `Size` alias re-exported for pass authors.
pub type InsnSize = Size;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_reference_program() {
        let img = assemble(
            r#"
            .org 0xE000
        start:
            mov #21, r10
            add r10, r10
        done:
            jmp done
        "#,
        )
        .unwrap();
        assert_eq!(img.words_at(0xE000), vec![0x403A, 0x0015, 0x5A0A, 0x3FFF]);
        assert_eq!(img.symbol("start"), Some(0xE000));
        assert_eq!(img.symbol("done"), Some(0xE006));
    }

    #[test]
    fn forward_and_backward_jumps() {
        let img = assemble(
            r#"
            .org 0xE000
        loop:
            dec r5
            jnz loop
            jmp end
            nop
        end:
            ret
        "#,
        )
        .unwrap();
        // dec r5 = sub #1, r5 → 0x8315. jnz loop: at 0xE002, target 0xE000 →
        // offset -2 words.
        assert_eq!(img.words_at(0xE000)[0], 0x8315);
        assert_eq!(img.words_at(0xE000)[1], 0x2000 | 0x3FE);
    }

    #[test]
    fn forward_immediate_stays_long() {
        // `mov #K, r5` with K defined *after* use: sized long even though
        // K = 2 would fit the constant generator.
        let img = assemble(
            r#"
            .org 0xE000
            mov #K, r5
            .equ K, 2
        "#,
        )
        .unwrap();
        assert_eq!(img.words_at(0xE000), vec![0x4035, 0x0002]);
        // With K known in advance, the constant generator is used.
        let img2 = assemble(
            r#"
            .org 0xE000
            .equ K, 2
            mov #K, r5
        "#,
        )
        .unwrap();
        assert_eq!(img2.words_at(0xE000), vec![0x4325]);
    }

    #[test]
    fn data_directives() {
        let img = assemble(
            r#"
            .org 0x0200
        buf: .space 4
        tbl: .word 0x1234, tbl
        ch:  .byte 0x41, -1
        "#,
        )
        .unwrap();
        assert_eq!(img.symbol("buf"), Some(0x0200));
        assert_eq!(img.symbol("tbl"), Some(0x0204));
        assert_eq!(img.words_at(0x0204)[..2], [0x1234, 0x0204]);
        assert_eq!(img.size_bytes(), 4 + 4 + 2);
    }

    #[test]
    fn dollar_is_current_insn_address() {
        let img = assemble(".org 0xE000\n jmp $\n").unwrap();
        assert_eq!(img.words_at(0xE000), vec![0x3FFF]);
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("a:\na:\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn undefined_symbol_rejected() {
        let e = assemble("mov #missing, r5\n").unwrap_err();
        assert!(e.msg.contains("undefined") || e.msg.contains("missing"));
    }

    #[test]
    fn jump_out_of_range_rejected() {
        let e = assemble(".org 0xE000\n jmp far\n .org 0xF000\nfar: nop\n").unwrap_err();
        assert!(e.msg.contains("jump"));
    }

    #[test]
    fn odd_instruction_address_rejected() {
        let e = assemble(".org 3\n nop\n").unwrap_err();
        assert!(e.msg.contains("odd"));
    }

    #[test]
    fn overlap_rejected() {
        let e = assemble(".org 0xE000\n nop\n .org 0xE000\n nop\n").unwrap_err();
        assert!(e.msg.contains("overlap"));
    }

    #[test]
    fn align_pads_to_even() {
        let img = assemble(".org 0x0200\n .byte 1\n .align\nw: .word 7\n").unwrap();
        assert_eq!(img.symbol("w"), Some(0x0202));
    }

    #[test]
    fn paper_fig4_entry_sequence_assembles() {
        // The Tiny-CFA/DIALED entry block from Fig. 4(b), verbatim modulo
        // label syntax.
        let img = assemble(
            r#"
            .equ OR_MAX, 0x06FE
            .equ OR_MIN, 0x0600
            .org 0xE000
        application:
            cmp #OR_MAX, r4
            jne violation
            mov r1, @r4
            decd r4
            cmp #OR_MIN, r4
            jn violation
            mov r8, @r4
            decd r4
            cmp #OR_MIN, r4
            jn violation
        violation:
            jmp $
        "#,
        )
        .unwrap();
        assert!(img.size_bytes() > 20);
    }
}
