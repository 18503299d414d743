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
//! **Calls reset only what can be observed.**  A call writes its arguments
//! into registers `0..nparams` and `Unit` into the function's *reset list*
//! ([`ExecFun::reset`]); every other register keeps whatever the previous
//! activation left there.  The list is a forward must-analysis of the
//! registers *definitely written* since entry (definite assignment, as the
//! JVM verifier does it), computed once here and never serialised.  A
//! register `r >= nparams` is on it if some instruction reads `r`, or some
//! *collection point* is reached, where `r` may not have been written.  The
//! collection points are every instruction that can allocate or snapshot —
//! `Alloc`, `AllocRaw`, `Tuple`, `Closure`, a string `Const`, `Ext`,
//! `Migrate`, `Speculate`, `Commit`, `Rollback` — because a collection
//! takes the whole register file as roots.  So no stale value is ever read
//! or scanned, every collection sees the roots a full reset would give it,
//! and a hostile binary that reads a register it never wrote still reads
//! `Unit`.  Under `debug_assertions` (poison mode) the VM fills every
//! register the list leaves stale with an invalid pointer and asserts at
//! each collection point that none is left in the file.
//!
//! **Self tail calls are jumps.**  A `TailCallDirect` to the running
//! function whose arguments are exactly its parameters in order (every
//! lowered loop calls itself with `(frame, retk)`) becomes [`Op::Recur`]:
//! apply the reset list and go to pc 0.  It charges its one step.

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
    /// A `TailCallDirect` of the running function with its own parameters
    /// as arguments: reset, then jump to pc 0.
    Recur,
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
    /// The registers a call writes `Unit` into, ascending (module docs).
    pub(crate) reset: Box<[Reg]>,
}

/// A verified program and the execution form the VM runs it in.
#[derive(Debug)]
pub(crate) struct Executable {
    program: BytecodeProgram,
    funs: Vec<ExecFun>,
    /// The largest `nregs` of any function: the register file's size.
    file_len: usize,
}

impl Executable {
    /// Lower `program`, which must already have passed
    /// [`BytecodeProgram::verify`].
    pub(crate) fn new(program: BytecodeProgram) -> Self {
        let funs = (0..)
            .zip(&program.funs)
            .map(|(id, f)| lower(id, f))
            .collect();
        let file_len = program.funs.iter().map(|f| f.nregs as usize).max();
        Executable {
            funs,
            file_len: file_len.unwrap_or(0),
            program,
        }
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

    /// Registers the VM's file needs: every function's fit.
    pub(crate) fn file_len(&self) -> usize {
        self.file_len
    }
}

/// Function `id`'s execution form.
fn lower(id: u32, fun: &BcFun) -> ExecFun {
    let code = &fun.code;
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
    let ops = (0..code.len()).map(|pc| op(id, fun, pc)).collect();
    ExecFun {
        ops,
        consts,
        reset: reset_list(fun),
    }
}

/// The op for the instruction at `pc` of function `id`, fused with the next
/// where the two are one of the pairs the module docs name.
fn op(id: u32, fun: &BcFun, pc: usize) -> Op {
    use Instr as I;
    let code = &fun.code;
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
        (I::TailCallDirect { fun: callee, args }, _)
            if *callee == id && args.iter().copied().eq(0..fun.nparams) =>
        {
            Op::Recur
        }
        _ => Op::Instr,
    }
}

/// Function `fun`'s reset list: the registers `r >= nparams` that some
/// instruction reads, or some collection point reaches, where `r` may not
/// have been written since entry.
///
/// One forward pass in pc order.  `written` is the must-set at the current
/// pc; `trail` lists what it gained since entry, in order, so a branch can
/// be undone.  A forward branch pushes its target and the trail length; a
/// pc entered only from the branch on top of that stack (the compiler's
/// `if`/`else`: the then-code ends in a terminator) restores the set the
/// branch saw.  Any other join — a fall-through meeting a jump, several
/// jumps, a backward jump, unreachable code — drops back to the
/// parameters alone, which only ever adds registers to the list.
fn reset_list(fun: &BcFun) -> Box<[Reg]> {
    let (nregs, nparams) = (fun.nregs as usize, fun.nparams as usize);
    let code = &fun.code;
    let mut jumps_in = vec![0u8; code.len()];
    for instr in code {
        if let Instr::Jump { target } | Instr::JumpIfFalse { target, .. } = *instr {
            jumps_in[target] = jumps_in[target].saturating_add(1);
        }
    }
    let words = nregs.div_ceil(64);
    let mut written = vec![0u64; words];
    let mut reset = vec![0u64; words];
    let has = |bits: &[u64], r: usize| bits[r / 64] >> (r % 64) & 1 == 1;
    for r in 0..nparams {
        written[r / 64] |= 1 << (r % 64);
    }
    let mut trail: Vec<usize> = Vec::new();
    let mut branches: Vec<(usize, usize)> = Vec::new();
    let mut falls_in = true;
    for (pc, instr) in code.iter().enumerate() {
        let restore = match (falls_in, jumps_in[pc]) {
            (true, 0) => None,
            (false, 1) if branches.last().is_some_and(|&(target, _)| target == pc) => {
                branches.pop().map(|(_, len)| len)
            }
            _ => {
                branches.clear();
                Some(0)
            }
        };
        if let Some(len) = restore {
            for r in trail.drain(len..) {
                written[r / 64] &= !(1 << (r % 64));
            }
        }
        instr.reads(|r| {
            if !has(&written, r as usize) {
                reset[r as usize / 64] |= 1 << (r % 64);
            }
        });
        if is_collection_point(instr) {
            for (reset, written) in reset.iter_mut().zip(&written) {
                *reset |= !written;
            }
        }
        if let Some(dst) = instr.writes().map(|r| r as usize) {
            if !has(&written, dst) {
                written[dst / 64] |= 1 << (dst % 64);
                trail.push(dst);
            }
        }
        match *instr {
            Instr::Jump { target } | Instr::JumpIfFalse { target, .. } if target > pc => {
                branches.push((target, trail.len()))
            }
            _ => {}
        }
        falls_in = !matches!(
            instr,
            Instr::Jump { .. }
                | Instr::TailCall { .. }
                | Instr::TailCallDirect { .. }
                | Instr::Halt { .. }
                | Instr::Migrate { .. }
                | Instr::Speculate { .. }
                | Instr::Commit { .. }
                | Instr::Rollback { .. }
        );
    }
    (nparams..nregs)
        .filter(|&r| has(&reset, r))
        .map(|r| r as Reg)
        .collect()
}

/// Whether `instr` can allocate or snapshot, and so (now or once every
/// allocation collects) takes the whole register file as roots.
fn is_collection_point(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Alloc { .. }
            | Instr::AllocRaw { .. }
            | Instr::Tuple { .. }
            | Instr::Closure { .. }
            | Instr::Const {
                value: Const::Str(_),
                ..
            }
            | Instr::Ext { .. }
            | Instr::Migrate { .. }
            | Instr::Speculate { .. }
            | Instr::Commit { .. }
            | Instr::Rollback { .. }
    )
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
    /// configuration) as the optimiser leaves it: between two effect points
    /// no frame slot is loaded twice, the loop is 46 instructions with 10
    /// loads (84 and 27 unoptimised), and its self call is a jump that
    /// resets nothing.
    #[test]
    fn the_optimised_grid_jacobi_loop_loads_each_frame_slot_once_per_effect() {
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
        let (id, fun) = (0..)
            .zip(&program.funs)
            .find(|(_, f)| f.name == "main__loop26")
            .unwrap();
        let mut targets = vec![false; fun.code.len()];
        for instr in &fun.code {
            if let Instr::Jump { target } | Instr::JumpIfFalse { target, .. } = *instr {
                targets[target] = true;
            }
        }
        let mut seen: Vec<(Reg, i64)> = Vec::new();
        for (pc, instr) in fun.code.iter().enumerate() {
            if targets[pc] {
                seen.clear();
            }
            match *instr {
                Instr::Load { ptr, index, .. } => {
                    let slot = match fun.code[..pc].last() {
                        Some(&Instr::Const {
                            dst,
                            value: Const::Int(slot),
                        }) if dst == index => slot,
                        _ => continue,
                    };
                    assert!(
                        !seen.contains(&(ptr, slot)),
                        "frame slot {slot} loaded twice @{pc}"
                    );
                    seen.push((ptr, slot));
                }
                Instr::Store { .. } | Instr::StoreRaw { .. } | Instr::Ext { .. } => seen.clear(),
                _ => {}
            }
        }
        let loads = fun.code.iter().filter(|i| matches!(i, Instr::Load { .. }));
        assert_eq!(loads.count(), 10);
        assert_eq!(fun.code.len(), 46);
        let exec = lower(id, fun);
        assert!(exec.reset.is_empty());
        assert_eq!(
            exec.ops.iter().filter(|op| matches!(op, Op::Recur)).count(),
            1
        );
    }

    fn fun(nparams: u32, nregs: u32, code: Vec<Instr>) -> BcFun {
        BcFun {
            name: "f".into(),
            nregs,
            nparams,
            code,
        }
    }

    fn konst(dst: Reg, v: i64) -> Instr {
        Instr::Const {
            dst,
            value: Const::Int(v),
        }
    }

    #[test]
    fn a_register_read_before_it_is_written_is_reset() {
        // r2 is read before anything writes it; r3 is written first.
        let f = fun(
            1,
            4,
            vec![
                konst(3, 1),
                Instr::Binop {
                    dst: 1,
                    op: Binop::Add,
                    lhs: 2,
                    rhs: 3,
                },
                Instr::Halt { value: 0 },
            ],
        );
        assert_eq!(&*reset_list(&f), &[2]);
    }

    #[test]
    fn a_collection_point_resets_every_register_not_yet_written() {
        // The allocation roots the whole file: r3 and r4 are unwritten there
        // (r4 only later), r1 and r2 are written.
        let f = fun(
            1,
            5,
            vec![
                konst(1, 0),
                konst(2, 4),
                Instr::Alloc {
                    dst: 3,
                    len: 2,
                    init: 0,
                },
                konst(4, 0),
                Instr::Halt { value: 4 },
            ],
        );
        assert_eq!(&*reset_list(&f), &[3, 4]);
    }

    #[test]
    fn each_branch_sees_only_what_its_path_wrote() {
        // then: writes r2, halts.  else (pc 4): reads r2, which only the
        // then-branch wrote, and r1, which both paths wrote.
        let f = fun(
            1,
            3,
            vec![
                Instr::Const {
                    dst: 1,
                    value: Const::Bool(true),
                },
                Instr::JumpIfFalse { cond: 1, target: 4 },
                konst(2, 7),
                Instr::Halt { value: 2 },
                Instr::Move { dst: 1, src: 2 },
                Instr::Halt { value: 1 },
            ],
        );
        assert_eq!(&*reset_list(&f), &[2]);
    }

    #[test]
    fn a_join_or_a_backward_jump_falls_back_to_the_parameters() {
        // pc 1 is both fallen into and jumped to from pc 2: r1, written at
        // pc 0, is no longer known to be written there.
        let f = fun(
            1,
            2,
            vec![
                konst(1, 0),
                Instr::Move { dst: 1, src: 1 },
                Instr::JumpIfFalse { cond: 0, target: 1 },
                Instr::Halt { value: 1 },
            ],
        );
        assert_eq!(&*reset_list(&f), &[1]);
    }

    #[test]
    fn a_self_call_with_its_own_parameters_is_a_jump() {
        let f = fun(
            2,
            2,
            vec![Instr::TailCallDirect {
                fun: 0,
                args: vec![0, 1],
            }],
        );
        assert!(matches!(lower(0, &f).ops[0], Op::Recur));
        assert!(matches!(lower(1, &f).ops[0], Op::Instr));
        let swapped = fun(
            2,
            2,
            vec![Instr::TailCallDirect {
                fun: 0,
                args: vec![1, 0],
            }],
        );
        assert!(matches!(lower(0, &swapped).ops[0], Op::Instr));
    }
}
