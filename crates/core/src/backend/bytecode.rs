//! The bytecode instruction set.
//!
//! The machine is a per-function register machine: every FIR variable of a
//! function is assigned one virtual register, constants are materialised
//! into registers, and control flow is flattened into jumps.  Because FIR is
//! in continuation-passing style there are no call frames — a tail call
//! replaces the whole register file.
//!
//! This is the compiler's output and the verifier's input: `compile_program`
//! emits it and [`BytecodeProgram::verify`] checks it.  It never leaves the
//! process — images carry FIR, which the receiver recompiles.  The VM does
//! not dispatch on it directly; each process lowers its compiled program
//! once into the execution form (`exec.rs`: same pcs, 24-byte ops, fused
//! `Const` and compare-and-branch pairs).  So nothing here changes for
//! fusion: one step per instruction stays the unit of `ProcessStats::steps`
//! and of every step budget.

use mojave_fir::{Binop, Unop};

/// A virtual register index (function-local).
pub type Reg = u32;

/// A constant operand materialised by [`Instr::Const`].
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// The unit value.
    Unit,
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
    /// Character constant.
    Char(char),
    /// String constant (allocated as a heap string block when materialised).
    Str(String),
}

/// A bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Materialise a constant into a register.
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant.
        value: Const,
    },
    /// Materialise a direct function reference.
    FunRef {
        /// Destination register.
        dst: Reg,
        /// Function-table index.
        fun: u32,
    },
    /// Copy a register.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Apply a unary operator.
    Unop {
        /// Destination register.
        dst: Reg,
        /// The operator.
        op: Unop,
        /// Operand register.
        src: Reg,
    },
    /// Apply a binary operator.
    Binop {
        /// Destination register.
        dst: Reg,
        /// The operator.
        op: Binop,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// Allocate a word array (`len` elements of `init`).
    Alloc {
        /// Destination register (receives the pointer).
        dst: Reg,
        /// Register holding the length.
        len: Reg,
        /// Register holding the initial element value.
        init: Reg,
    },
    /// Allocate a raw byte block.
    AllocRaw {
        /// Destination register.
        dst: Reg,
        /// Register holding the size in bytes.
        size: Reg,
    },
    /// Allocate a tuple from registers.
    Tuple {
        /// Destination register.
        dst: Reg,
        /// Field registers.
        args: Vec<Reg>,
    },
    /// Allocate a closure block.
    Closure {
        /// Destination register.
        dst: Reg,
        /// Target function index.
        fun: u32,
        /// Captured value registers.
        captured: Vec<Reg>,
    },
    /// Checked word load.
    Load {
        /// Destination register.
        dst: Reg,
        /// Pointer register.
        ptr: Reg,
        /// Index register.
        index: Reg,
    },
    /// Checked word store.
    Store {
        /// Pointer register.
        ptr: Reg,
        /// Index register.
        index: Reg,
        /// Value register.
        value: Reg,
    },
    /// Checked raw load.
    LoadRaw {
        /// Destination register.
        dst: Reg,
        /// Access width (1, 4 or 8).
        width: u8,
        /// Pointer register.
        ptr: Reg,
        /// Byte-offset register.
        offset: Reg,
    },
    /// Checked raw store.
    StoreRaw {
        /// Access width (1, 4 or 8).
        width: u8,
        /// Pointer register.
        ptr: Reg,
        /// Byte-offset register.
        offset: Reg,
        /// Value register.
        value: Reg,
    },
    /// Block length.
    Len {
        /// Destination register.
        dst: Reg,
        /// Pointer register.
        ptr: Reg,
    },
    /// External call.
    Ext {
        /// Destination register.
        dst: Reg,
        /// External function name.
        name: String,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Conditional branch (falls through when true).
    JumpIfFalse {
        /// Condition register (must hold a boolean).
        cond: Reg,
        /// Target instruction index within the function.
        target: usize,
    },
    /// Unconditional branch.
    Jump {
        /// Target instruction index within the function.
        target: usize,
    },
    /// Tail call through a register (closure or function value).
    TailCall {
        /// Callee register.
        target: Reg,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Tail call of a statically known function.
    TailCallDirect {
        /// Function-table index.
        fun: u32,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// Stop the process.
    Halt {
        /// Exit-value register.
        value: Reg,
    },
    /// The migration pseudo-instruction.
    Migrate {
        /// Migration label.
        label: u32,
        /// Register holding the target string.
        target: Reg,
        /// Register holding the continuation (function or closure).
        fun: Reg,
        /// Continuation argument registers.
        args: Vec<Reg>,
    },
    /// Enter a speculation level.
    Speculate {
        /// Register holding the continuation.
        fun: Reg,
        /// Continuation argument registers (excluding the code parameter).
        args: Vec<Reg>,
    },
    /// Commit a speculation level.
    Commit {
        /// Register holding the level number.
        level: Reg,
        /// Register holding the continuation.
        fun: Reg,
        /// Continuation argument registers.
        args: Vec<Reg>,
    },
    /// Roll back to a speculation level.
    Rollback {
        /// Register holding the level number.
        level: Reg,
        /// Register holding the rollback code.
        code: Reg,
    },
}

impl Instr {
    /// Call `f` with every register this instruction reads.
    pub(crate) fn reads(&self, mut f: impl FnMut(Reg)) {
        use Instr as I;
        match self {
            I::Const { .. } | I::FunRef { .. } | I::Jump { .. } => {}
            I::Move { src, .. } | I::Unop { src, .. } => f(*src),
            I::Binop { lhs, rhs, .. } => [*lhs, *rhs].into_iter().for_each(f),
            I::Alloc { len, init, .. } => [*len, *init].into_iter().for_each(f),
            I::AllocRaw { size, .. } => f(*size),
            I::Tuple { args, .. } | I::Ext { args, .. } | I::TailCallDirect { args, .. } => {
                args.iter().copied().for_each(f)
            }
            I::Closure { captured, .. } => captured.iter().copied().for_each(f),
            I::Load { ptr, index, .. } => [*ptr, *index].into_iter().for_each(f),
            I::Store { ptr, index, value } => [*ptr, *index, *value].into_iter().for_each(f),
            I::LoadRaw { ptr, offset, .. } => [*ptr, *offset].into_iter().for_each(f),
            I::StoreRaw {
                ptr, offset, value, ..
            } => [*ptr, *offset, *value].into_iter().for_each(f),
            I::Len { ptr, .. } => f(*ptr),
            I::JumpIfFalse { cond, .. } => f(*cond),
            I::TailCall { target, args } => {
                f(*target);
                args.iter().copied().for_each(f)
            }
            I::Halt { value } => f(*value),
            I::Migrate {
                target, fun, args, ..
            } => {
                f(*target);
                f(*fun);
                args.iter().copied().for_each(f)
            }
            I::Speculate { fun, args } => {
                f(*fun);
                args.iter().copied().for_each(f)
            }
            I::Commit { level, fun, args } => {
                f(*level);
                f(*fun);
                args.iter().copied().for_each(f)
            }
            I::Rollback { level, code } => {
                f(*level);
                f(*code)
            }
        }
    }

    /// The register this instruction writes, if any.
    pub(crate) fn writes(&self) -> Option<Reg> {
        use Instr as I;
        match *self {
            I::Const { dst, .. }
            | I::FunRef { dst, .. }
            | I::Move { dst, .. }
            | I::Unop { dst, .. }
            | I::Binop { dst, .. }
            | I::Alloc { dst, .. }
            | I::AllocRaw { dst, .. }
            | I::Tuple { dst, .. }
            | I::Closure { dst, .. }
            | I::Load { dst, .. }
            | I::LoadRaw { dst, .. }
            | I::Len { dst, .. }
            | I::Ext { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct BcFun {
    /// Name (diagnostics only).
    pub name: String,
    /// Number of virtual registers used.
    pub nregs: u32,
    /// Number of parameters; parameters arrive in registers `0..nparams`.
    pub nparams: u32,
    /// Instruction stream.
    pub code: Vec<Instr>,
}

/// A compiled program: one [`BcFun`] per FIR function, same indices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BytecodeProgram {
    /// Compiled functions, indexed by function id.
    pub funs: Vec<BcFun>,
    /// Entry function index.
    pub entry: u32,
}
