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
//!
//! **Load forwarding.**  Lowering keeps locals in heap frames, so a loop
//! body reads the same frame slot many times.  One forward pass over each
//! straight-line run records which register holds the word at
//! `(pointer register, constant Int index)`, and a `Load` whose word is
//! already in a register becomes a copy: a lone `Load` an [`Op::Move`], a
//! fused `Const`-`Load` pair an [`Op::ConstMove`].  The pass forgets
//! everything at every jump target, after every `Jump`, and at every
//! `Store` and every instruction the VM runs as [`Op::Instr`] (allocation,
//! `StoreRaw`, `Ext`, calls, effects); it forgets one record when its
//! pointer or value register is written.  So the earlier identical load
//! succeeded and nothing since could change that block's words, length or
//! liveness: the replaced load would read the same word and cannot trap.
//! It still charges its step, so step counts, traps and budgets are those
//! of the instruction stream.

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
    /// `Const { dst: konst }` then a `Load` (reading `konst`) whose word
    /// register `src` already holds: the load is a copy.
    ConstMove {
        konst: Reg,
        dst: Reg,
        src: Reg,
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
    let copies = forwarded_loads(code);
    let ops = (0..code.len()).map(|pc| op(code, &copies, pc)).collect();
    ExecFun { ops, consts }
}

/// The op for the instruction at `pc`, fused with the next where the two
/// are one of the pairs the module docs name; `copies` is
/// [`forwarded_loads`]`(code)`.
fn op(code: &[Instr], copies: &[Option<Reg>], pc: usize) -> Op {
    use Instr as I;
    match (&code[pc], code.get(pc + 1)) {
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
            match copies[pc + 1] {
                Some(src) => Op::ConstMove { konst, dst, src },
                None => Op::ConstLoad {
                    konst,
                    dst,
                    ptr,
                    index,
                },
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
        (&I::Load { dst, ptr, index }, _) => match copies[pc] {
            Some(src) => Op::Move { dst, src },
            None => Op::Load { dst, ptr, index },
        },
        (&I::Store { ptr, index, value }, _) => Op::Store { ptr, index, value },
        (&I::JumpIfFalse { cond, target }, _) => Op::JumpIfFalse { cond, target },
        (&I::Jump { target }, _) => Op::Jump { target },
        _ => Op::Instr,
    }
}

/// For each pc, the register that already holds the word the `Load` there
/// reads, where the forwarding rules in the module docs find one.
fn forwarded_loads(code: &[Instr]) -> Vec<Option<Reg>> {
    let mut is_target = vec![false; code.len()];
    for instr in code {
        if let Instr::Jump { target } | Instr::JumpIfFalse { target, .. } = *instr {
            is_target[target] = true;
        }
    }
    let mut known = Known::default();
    code.iter()
        .zip(is_target)
        .map(|(instr, is_target)| {
            if is_target {
                known.forget_all();
            }
            known.step(instr)
        })
        .collect()
}

/// What the forwarding pass knows at one pc of a straight-line run.
#[derive(Default)]
struct Known {
    /// `(reg, v)`: register `reg` was last written by `Const::Int(v)`.
    ints: Vec<(Reg, i64)>,
    /// `(ptr, index, value)`: register `value` holds word `index` of the
    /// block register `ptr` points at.
    words: Vec<(Reg, i64, Reg)>,
}

impl Known {
    fn forget_all(&mut self) {
        self.ints.clear();
        self.words.clear();
    }

    /// Register `reg` is about to be overwritten.
    fn written(&mut self, reg: Reg) {
        self.ints.retain(|&(r, _)| r != reg);
        self.words
            .retain(|&(ptr, _, value)| ptr != reg && value != reg);
    }

    /// The constant register `reg` holds, if it is a known `Int`.
    fn int_in(&self, reg: Reg) -> Option<i64> {
        self.ints.iter().find(|&&(r, _)| r == reg).map(|&(_, v)| v)
    }

    /// The register holding word `index` of the block `ptr` points at.
    fn holder(&self, ptr: Reg, index: i64) -> Option<Reg> {
        self.words
            .iter()
            .find(|&&(p, i, _)| (p, i) == (ptr, index))
            .map(|&(_, _, value)| value)
    }

    /// Move past `instr`, returning the register that already holds the
    /// word it loads, if it is a `Load` and one does.
    fn step(&mut self, instr: &Instr) -> Option<Reg> {
        match *instr {
            Instr::Const {
                dst,
                value: Const::Int(v),
            } => {
                self.written(dst);
                self.ints.push((dst, v));
            }
            Instr::Const {
                value: Const::Str(_),
                ..
            } => self.forget_all(),
            Instr::Const { dst, .. } | Instr::Move { dst, .. } | Instr::Binop { dst, .. } => {
                self.written(dst)
            }
            Instr::Load { dst, ptr, index } => {
                let index = self.int_in(index);
                let held = index.and_then(|index| self.holder(ptr, index));
                self.written(dst);
                if let Some(index) = index.filter(|_| dst != ptr) {
                    if self.holder(ptr, index).is_none() {
                        self.words.push((ptr, index, dst));
                    }
                }
                return held;
            }
            Instr::JumpIfFalse { .. } => {}
            // `Jump`, `Store`, and everything the VM runs as `Op::Instr`.
            _ => self.forget_all(),
        }
        None
    }
}

/// The operators whose result is always a `Bool`.
fn is_comparison(op: Binop) -> bool {
    use Binop::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::compile_program;

    /// The grid worker's Jacobi loop (the `grid_compute` benchmark's
    /// configuration) reads five frame slots 23 times per cell; every
    /// repeat read is the second half of a `Const`-`Load` pair.
    #[test]
    fn the_grid_jacobi_loop_forwards_its_repeated_frame_loads() {
        let config = mojave_grid::GridConfig {
            workers: 2,
            rows_per_worker: 32,
            cols: 64,
            timesteps: 8,
            checkpoint_interval: 8,
        };
        let source = mojave_grid::worker_source(&config);
        let program = compile_program(&mojave_lang::compile_source(&source).unwrap()).unwrap();
        program.verify().unwrap();
        let fun = program
            .funs
            .iter()
            .find(|f| f.name == "main__loop26")
            .unwrap();
        let loads = fun.code.iter().filter(|i| matches!(i, Instr::Load { .. }));
        assert_eq!(loads.count(), 27);
        let copies = forwarded_loads(&fun.code);
        assert_eq!(copies.iter().flatten().count(), 17);
        let exec = lower(&fun.code);
        let fused = exec
            .ops
            .iter()
            .filter(|op| matches!(op, Op::ConstMove { .. }));
        assert_eq!(fused.count(), 17);
    }
}
