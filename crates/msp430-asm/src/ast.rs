//! Abstract syntax for assembly programs, plus the *lowered template* form
//! shared with the instrumentation passes.
//!
//! A [`Program`] is a list of [`SourceLine`]s. Instrumentation passes
//! (Tiny-CFA, DIALED) splice additional lines marked `synthetic`, which the
//! other pass — and any later pass — must leave alone. This mirrors the
//! paper's design where both passes rewrite the same assembly file but never
//! each other's inserted code.

use msp430::isa::{Cond, Op1, Op2, Size};
use msp430::regs::Reg;
use std::collections::BTreeMap;
use std::fmt;

/// A constant expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// Symbol reference (label or `.equ` constant).
    Sym(String),
    /// `$` — the address of the instruction being assembled.
    Here,
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Difference.
    Sub(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Literal convenience constructor.
    #[must_use]
    pub fn num(n: i64) -> Self {
        Expr::Num(n)
    }

    /// Symbol convenience constructor.
    #[must_use]
    pub fn sym(s: &str) -> Self {
        Expr::Sym(s.to_string())
    }

    /// Evaluates against a symbol table; `here` is the value of `$`.
    ///
    /// Returns `None` if any referenced symbol is undefined.
    #[must_use]
    pub fn eval(&self, symbols: &BTreeMap<String, u16>, here: u16) -> Option<i64> {
        match self {
            Expr::Num(n) => Some(*n),
            Expr::Sym(s) => symbols.get(s).map(|v| i64::from(*v)),
            Expr::Here => Some(i64::from(here)),
            Expr::Add(a, b) => Some(a.eval(symbols, here)? + b.eval(symbols, here)?),
            Expr::Sub(a, b) => Some(a.eval(symbols, here)? - b.eval(symbols, here)?),
            Expr::Neg(a) => Some(-a.eval(symbols, here)?),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Sym(s) => write!(f, "{s}"),
            Expr::Here => write!(f, "$"),
            Expr::Add(a, b) => write!(f, "{a}+{b}"),
            Expr::Sub(a, b) => write!(f, "{a}-{b}"),
            Expr::Neg(a) => write!(f, "-{a}"),
        }
    }
}

/// A source-level operand (expressions not yet evaluated).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TOperand {
    /// `Rn`
    Reg(Reg),
    /// `#expr`
    Imm(Expr),
    /// `expr(Rn)`
    Indexed(Expr, Reg),
    /// Bare expression — symbolic (PC-relative) memory reference.
    Symbolic(Expr),
    /// `&expr`
    Absolute(Expr),
    /// `@Rn`
    Indirect(Reg),
    /// `@Rn+`
    IndirectInc(Reg),
}

impl fmt::Display for TOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TOperand::Reg(r) => write!(f, "{r}"),
            TOperand::Imm(e) => write!(f, "#{e}"),
            TOperand::Indexed(e, r) => write!(f, "{e}({r})"),
            TOperand::Symbolic(e) => write!(f, "{e}"),
            TOperand::Absolute(e) => write!(f, "&{e}"),
            TOperand::Indirect(r) => write!(f, "@{r}"),
            TOperand::IndirectInc(r) => write!(f, "@{r}+"),
        }
    }
}

/// A source instruction lowered to its core (non-emulated) form, with
/// expressions still symbolic.
///
/// This is the representation the instrumentation passes classify: it
/// exposes whether the instruction alters control flow and which operands
/// reference memory, without needing symbol resolution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Template {
    /// Format II.
    One {
        /// Operation.
        op: Op1,
        /// Width.
        size: Size,
        /// Operand.
        sd: TOperand,
    },
    /// Format I.
    Two {
        /// Operation.
        op: Op2,
        /// Width.
        size: Size,
        /// Source.
        src: TOperand,
        /// Destination.
        dst: TOperand,
    },
    /// Conditional or unconditional jump to a target expression.
    Jcc {
        /// Condition.
        cond: Cond,
        /// Target address expression.
        target: Expr,
    },
}

impl Template {
    /// Does this instruction alter control flow (the set Tiny-CFA
    /// instruments)?
    #[must_use]
    pub fn alters_control_flow(&self) -> bool {
        match self {
            Template::Jcc { .. } => true,
            Template::One { op, .. } => matches!(op, Op1::Call | Op1::Reti),
            Template::Two { op, dst, .. } => {
                op.writes_dst() && matches!(dst, TOperand::Reg(Reg::R0))
            }
        }
    }

    /// Memory operands this instruction *reads* (the set DIALED's F4
    /// instruments). `MOV`'s destination is written but not read; every
    /// other Format I memory destination is read-modify-write.
    #[must_use]
    pub fn memory_reads(&self) -> Vec<&TOperand> {
        let mut out = Vec::new();
        let is_mem = |o: &TOperand| {
            matches!(
                o,
                TOperand::Indexed(..)
                    | TOperand::Symbolic(_)
                    | TOperand::Absolute(_)
                    | TOperand::Indirect(_)
                    | TOperand::IndirectInc(_)
            )
        };
        match self {
            Template::Jcc { .. } => {}
            Template::One { op, sd, .. } => {
                // PUSH/CALL read their operand; RRC/RRA/SWPB/SXT read-modify.
                if *op != Op1::Reti && is_mem(sd) {
                    out.push(sd);
                }
            }
            Template::Two { op, src, dst, .. } => {
                if is_mem(src) {
                    out.push(src);
                }
                if *op != Op2::Mov && is_mem(dst) {
                    out.push(dst);
                }
            }
        }
        out
    }
}

impl Template {
    /// Does this instruction *read* the condition codes (conditional jumps,
    /// carry-chained arithmetic, rotate-through-carry)?
    #[must_use]
    pub fn reads_flags(&self) -> bool {
        match self {
            Template::Jcc { cond, .. } => *cond != Cond::Always,
            Template::One { op, .. } => matches!(op, Op1::Rrc),
            Template::Two { op, .. } => matches!(op, Op2::Addc | Op2::Subc | Op2::Dadd),
        }
    }

    /// Does this instruction *write* the condition codes?
    #[must_use]
    pub fn writes_flags(&self) -> bool {
        match self {
            Template::Jcc { .. } => false,
            Template::One { op, .. } => matches!(op, Op1::Rrc | Op1::Rra | Op1::Sxt | Op1::Reti),
            Template::Two { op, dst, .. } => {
                // Writing SR directly also replaces the flags.
                op.sets_flags() || matches!(dst, TOperand::Reg(Reg::R2))
            }
        }
    }
}

/// Conservative flag-liveness query used by the instrumentation passes to
/// decide whether a flag-clobbering block needs `push sr … pop sr`.
///
/// Scans forward from `lines[start]`: flags are *dead* if an original
/// instruction rewrites them before anything can read them; they are
/// (conservatively) *live* at any control-flow instruction, flag reader,
/// data directive, or end of program. Synthetic lines are transparent —
/// blocks inserted by the passes either preserve flags themselves or were
/// proven dead at their own insertion point — except a synthetic
/// conditional jump, which is a relocated original reader.
#[must_use]
pub fn flags_live_from(lines: &[SourceLine], start: usize) -> bool {
    for line in &lines[start..] {
        match &line.item {
            Item::Label(_) => {}
            Item::Stmt(Stmt::Insn(t)) => {
                if line.synthetic {
                    if matches!(t, Template::Jcc { cond, .. } if *cond != Cond::Always) {
                        return true;
                    }
                    continue;
                }
                if t.reads_flags() {
                    return true;
                }
                if t.alters_control_flow() {
                    return true; // flags may be live at the join/target
                }
                if t.writes_flags() {
                    return false;
                }
                // mov / bic / bis / push: transparent.
            }
            // Data or layout directives in the path: be conservative.
            Item::Stmt(_) => return true,
        }
    }
    true
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let suffix = |s: &Size| if *s == Size::Byte { ".b" } else { "" };
        match self {
            Template::One { op: Op1::Reti, .. } => write!(f, "reti"),
            Template::One { op, size, sd } => write!(f, "{}{} {sd}", op.mnemonic(), suffix(size)),
            Template::Two { op, size, src, dst } => {
                write!(f, "{}{} {src}, {dst}", op.mnemonic(), suffix(size))
            }
            Template::Jcc { cond, target } => write!(f, "{} {target}", cond.mnemonic()),
        }
    }
}

/// A statement (instruction or directive).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// A lowered instruction.
    Insn(Template),
    /// `.org expr`
    Org(Expr),
    /// `.word e, e, …`
    Word(Vec<Expr>),
    /// `.byte e, e, …`
    Byte(Vec<Expr>),
    /// `.space expr` — reserve zeroed bytes.
    Space(Expr),
    /// `.equ name, expr`
    Equ(String, Expr),
    /// `.align` — pad to even address.
    Align,
}

/// One program item: optional label plus optional statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Item {
    /// `name:`
    Label(String),
    /// A statement.
    Stmt(Stmt),
}

/// A parsed source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceLine {
    /// 1-based line number in the original source (0 for synthesised lines).
    pub line: usize,
    /// The item.
    pub item: Item,
    /// True when inserted by an instrumentation pass; later passes must not
    /// re-instrument synthetic lines.
    pub synthetic: bool,
}

impl SourceLine {
    /// A non-synthetic line.
    #[must_use]
    pub fn new(line: usize, item: Item) -> Self {
        Self { line, item, synthetic: false }
    }

    /// A synthetic (pass-inserted) line.
    #[must_use]
    pub fn synthetic(item: Item) -> Self {
        Self { line: 0, item, synthetic: true }
    }
}

/// A whole program: ordered lines.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Lines in order.
    pub lines: Vec<SourceLine>,
}

impl Program {
    /// Empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval() {
        let mut syms = BTreeMap::new();
        syms.insert("base".to_string(), 0x200u16);
        let e = Expr::Add(
            Box::new(Expr::Sym("base".into())),
            Box::new(Expr::Neg(Box::new(Expr::Num(4)))),
        );
        assert_eq!(e.eval(&syms, 0), Some(0x1FC));
        assert_eq!(Expr::Here.eval(&syms, 0xE000), Some(0xE000));
        assert_eq!(Expr::sym("missing").eval(&syms, 0), None);
    }

    #[test]
    fn template_control_flow_classification() {
        let jmp = Template::Jcc { cond: Cond::Always, target: Expr::num(0) };
        assert!(jmp.alters_control_flow());
        let ret = Template::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: TOperand::IndirectInc(Reg::SP),
            dst: TOperand::Reg(Reg::PC),
        };
        assert!(ret.alters_control_flow());
        let mov = Template::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: TOperand::Reg(Reg::R5),
            dst: TOperand::Reg(Reg::R6),
        };
        assert!(!mov.alters_control_flow());
    }

    #[test]
    fn memory_reads_classification() {
        // add @r14, 2(r15): both operands are reads.
        let t = Template::Two {
            op: Op2::Add,
            size: Size::Word,
            src: TOperand::Indirect(Reg::R14),
            dst: TOperand::Indexed(Expr::num(2), Reg::R15),
        };
        assert_eq!(t.memory_reads().len(), 2);
        // mov @r14, 2(r15): destination written, not read.
        let t = Template::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: TOperand::Indirect(Reg::R14),
            dst: TOperand::Indexed(Expr::num(2), Reg::R15),
        };
        assert_eq!(t.memory_reads().len(), 1);
        // push 4(r12) reads memory.
        let t = Template::One {
            op: Op1::Push,
            size: Size::Word,
            sd: TOperand::Indexed(Expr::num(4), Reg::R12),
        };
        assert_eq!(t.memory_reads().len(), 1);
        // mov r5, r6 reads nothing from memory.
        let t = Template::Two {
            op: Op2::Mov,
            size: Size::Word,
            src: TOperand::Reg(Reg::R5),
            dst: TOperand::Reg(Reg::R6),
        };
        assert!(t.memory_reads().is_empty());
    }
}
