//! The execution form: what the VM loop runs.
//!
//! [`Executable::new`] lowers a *verified* [`BytecodeProgram`] once, when a
//! process loads its code, into one [`Op`] per instruction at the same pc.
//! The form is derived state: it is never serialised (images, deltas and
//! fingerprints see only the [`Instr`] stream it came from) and it is built
//! only after verification, so every register and jump target it holds is
//! one the verifier already checked.
//!
//! Two instruction pairs the compiler emits all the time become one op at
//! the pc of their first instruction:
//!
//! * a scalar `Const` whose register is an operand of the next `Load`,
//!   `Store` or `Binop` (`FunCompiler::atom` materialises every constant
//!   just before its one use) — the op still writes the constant's
//!   register, so the state after it is the state after the two
//!   instructions;
//! * a comparison `Binop` whose result is the condition of the next
//!   `JumpIfFalse`.
//!
//! The pc after a pair still holds the op of the pair's second instruction,
//! so a jump into the middle of a pair runs just that instruction.  A fused
//! op charges the two steps of the instructions it stands for; when the
//! step budget cannot cover both, the VM runs only the first and stops at
//! the second as it always did (see `Process::vm_loop`).

use super::bytecode::{BcFun, BytecodeProgram, Const, Instr, Reg};
use mojave_fir::Binop;
use mojave_heap::Word;

/// One VM operation.  Registers and jump targets are as verified; the
/// constant of a `Const*` op at pc is [`ExecFun::consts`]`[pc]`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Run the instruction at this pc as written.  The loop's hot
    /// instructions have ops of their own; the rest (calls, effects,
    /// allocation, string constants, raw access) stay here.
    Instr,
    /// A scalar `Const`.
    Const {
        dst: Reg,
    },
    Move {
        dst: Reg,
        src: Reg,
    },
    Binop {
        dst: Reg,
        op: Binop,
        lhs: Reg,
        rhs: Reg,
    },
    Load {
        dst: Reg,
        ptr: Reg,
        index: Reg,
    },
    Store {
        ptr: Reg,
        index: Reg,
        value: Reg,
    },
    JumpIfFalse {
        cond: Reg,
        target: usize,
    },
    Jump {
        target: usize,
    },
    /// `Const { dst: konst }` then `Load`, which reads `konst`.
    ConstLoad {
        konst: Reg,
        dst: Reg,
        ptr: Reg,
        index: Reg,
    },
    /// `Const { dst: konst }` then `Store`, which reads `konst`.
    ConstStore {
        konst: Reg,
        ptr: Reg,
        index: Reg,
        value: Reg,
    },
    /// `Const { dst: konst }` then `Binop`, which reads `konst`.
    ConstBinop {
        konst: Reg,
        dst: Reg,
        op: Binop,
        lhs: Reg,
        rhs: Reg,
    },
    /// A comparison `Binop` into `dst`, then `JumpIfFalse { cond: dst }`.
    CompareBranch {
        dst: Reg,
        op: Binop,
        lhs: Reg,
        rhs: Reg,
        target: usize,
    },
}

// The loop streams through ops: keep them well under an `Instr` (56 bytes).
const _: () = assert!(std::mem::size_of::<Op>() == 24);

/// One function's execution form.
#[derive(Debug)]
pub(crate) struct ExecFun {
    /// One op per instruction, same pc.
    pub(crate) ops: Box<[Op]>,
    /// The value of the scalar `Const` at each pc; `Unit` elsewhere.
    pub(crate) consts: Box<[Word]>,
}

/// A verified program and the execution form the VM runs it in.
#[derive(Debug)]
pub(crate) struct Executable {
    program: BytecodeProgram,
    funs: Vec<ExecFun>,
}

impl Executable {
    /// Lower `program`, which must already have passed
    /// [`BytecodeProgram::verify`].
    pub(crate) fn new(program: BytecodeProgram) -> Self {
        let funs = program.funs.iter().map(|f| lower(&f.code)).collect();
        Executable { program, funs }
    }

    /// The bytecode this form was lowered from (what images ship).
    pub(crate) fn program(&self) -> &BytecodeProgram {
        &self.program
    }

    /// Function `id`'s bytecode and execution form.
    pub(crate) fn fun(&self, id: u32) -> Option<(&BcFun, &ExecFun)> {
        let id = id as usize;
        Some((self.program.funs.get(id)?, self.funs.get(id)?))
    }
}

fn lower(code: &[Instr]) -> ExecFun {
    let consts = code
        .iter()
        .map(|instr| match instr {
            Instr::Const { value, .. } => match *value {
                Const::Unit | Const::Str(_) => Word::Unit,
                Const::Int(v) => Word::Int(v),
                Const::Float(v) => Word::Float(v),
                Const::Bool(v) => Word::Bool(v),
                Const::Char(c) => Word::Char(c),
            },
            _ => Word::Unit,
        })
        .collect();
    let ops = code
        .iter()
        .enumerate()
        .map(|(pc, instr)| op(instr, code.get(pc + 1)))
        .collect();
    ExecFun { ops, consts }
}

/// The op for `instr`, fused with `next` where the two are one of the
/// pairs the module docs name.
fn op(instr: &Instr, next: Option<&Instr>) -> Op {
    use Instr as I;
    match (instr, next) {
        (
            I::Const {
                value: Const::Str(_),
                ..
            },
            _,
        ) => Op::Instr,
        (&I::Const { dst: konst, .. }, Some(&I::Load { dst, ptr, index }))
            if konst == ptr || konst == index =>
        {
            Op::ConstLoad {
                konst,
                dst,
                ptr,
                index,
            }
        }
        (&I::Const { dst: konst, .. }, Some(&I::Store { ptr, index, value }))
            if konst == ptr || konst == index || konst == value =>
        {
            Op::ConstStore {
                konst,
                ptr,
                index,
                value,
            }
        }
        (&I::Const { dst: konst, .. }, Some(&I::Binop { dst, op, lhs, rhs }))
            if konst == lhs || konst == rhs =>
        {
            Op::ConstBinop {
                konst,
                dst,
                op,
                lhs,
                rhs,
            }
        }
        (&I::Const { dst, .. }, _) => Op::Const { dst },
        (&I::Binop { dst, op, lhs, rhs }, Some(&I::JumpIfFalse { cond, target }))
            if cond == dst && is_comparison(op) =>
        {
            Op::CompareBranch {
                dst,
                op,
                lhs,
                rhs,
                target,
            }
        }
        (&I::Binop { dst, op, lhs, rhs }, _) => Op::Binop { dst, op, lhs, rhs },
        (&I::Move { dst, src }, _) => Op::Move { dst, src },
        (&I::Load { dst, ptr, index }, _) => Op::Load { dst, ptr, index },
        (&I::Store { ptr, index, value }, _) => Op::Store { ptr, index, value },
        (&I::JumpIfFalse { cond, target }, _) => Op::JumpIfFalse { cond, target },
        (&I::Jump { target }, _) => Op::Jump { target },
        _ => Op::Instr,
    }
}

/// The operators whose result is always a `Bool`.
fn is_comparison(op: Binop) -> bool {
    use Binop::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge)
}
