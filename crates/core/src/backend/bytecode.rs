//! The bytecode instruction set and its canonical serialisation.
//!
//! The machine is a per-function register machine: every FIR variable of a
//! function is assigned one virtual register, constants are materialised
//! into registers, and control flow is flattened into jumps.  Because FIR is
//! in continuation-passing style there are no call frames — a tail call
//! replaces the whole register file.
//!
//! This is the wire and verify form: images ship it, and
//! [`BytecodeProgram::verify`] checks it.  The VM does not dispatch on it
//! directly; each process lowers its verified program once into the
//! execution form (`exec.rs`: same pcs, 24-byte ops, fused `Const` and
//! compare-and-branch pairs), which is never serialised.  So nothing here
//! changes for fusion: one step per instruction stays the unit of
//! `ProcessStats::steps` and of every step budget.

use mojave_fir::{Binop, Unop};
use mojave_wire::{WireCodec, WireError, WireReader, WireWriter};

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

impl BytecodeProgram {
    /// Total number of instructions (a machine-independent measure of code
    /// size used by the migration cost model).
    pub fn instruction_count(&self) -> usize {
        self.funs.iter().map(|f| f.code.len()).sum()
    }
}

fn write_regs(w: &mut WireWriter, regs: &[Reg]) {
    w.write_uvarint(regs.len() as u64);
    for r in regs {
        w.write_uvarint(*r as u64);
    }
}

fn read_regs(r: &mut WireReader<'_>) -> Result<Vec<Reg>, WireError> {
    let n = r.read_len()?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.read_uvarint()? as Reg);
    }
    Ok(out)
}

impl WireCodec for Const {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Const::Unit => w.write_u8(0),
            Const::Int(v) => {
                w.write_u8(1);
                w.write_ivarint(*v);
            }
            Const::Float(v) => {
                w.write_u8(2);
                w.write_f64(*v);
            }
            Const::Bool(v) => {
                w.write_u8(3);
                w.write_bool(*v);
            }
            Const::Char(c) => {
                w.write_u8(4);
                w.write_u32(*c as u32);
            }
            Const::Str(s) => {
                w.write_u8(5);
                w.write_str(s);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8()? {
            0 => Const::Unit,
            1 => Const::Int(r.read_ivarint()?),
            2 => Const::Float(r.read_f64()?),
            3 => Const::Bool(r.read_bool()?),
            4 => {
                let c = r.read_u32()?;
                Const::Char(char::from_u32(c).ok_or(WireError::BadTag {
                    context: "Const::Char",
                    tag: c as u64,
                })?)
            }
            5 => Const::Str(r.read_str()?.to_owned()),
            tag => {
                return Err(WireError::BadTag {
                    context: "Const",
                    tag: tag as u64,
                })
            }
        })
    }
}

impl WireCodec for Instr {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Instr::Const { dst, value } => {
                w.write_u8(0);
                w.write_uvarint(*dst as u64);
                value.encode(w);
            }
            Instr::FunRef { dst, fun } => {
                w.write_u8(1);
                w.write_uvarint(*dst as u64);
                w.write_uvarint(*fun as u64);
            }
            Instr::Move { dst, src } => {
                w.write_u8(2);
                w.write_uvarint(*dst as u64);
                w.write_uvarint(*src as u64);
            }
            Instr::Unop { dst, op, src } => {
                w.write_u8(3);
                w.write_uvarint(*dst as u64);
                op.encode(w);
                w.write_uvarint(*src as u64);
            }
            Instr::Binop { dst, op, lhs, rhs } => {
                w.write_u8(4);
                w.write_uvarint(*dst as u64);
                op.encode(w);
                w.write_uvarint(*lhs as u64);
                w.write_uvarint(*rhs as u64);
            }
            Instr::Alloc { dst, len, init } => {
                w.write_u8(5);
                w.write_uvarint(*dst as u64);
                w.write_uvarint(*len as u64);
                w.write_uvarint(*init as u64);
            }
            Instr::AllocRaw { dst, size } => {
                w.write_u8(6);
                w.write_uvarint(*dst as u64);
                w.write_uvarint(*size as u64);
            }
            Instr::Tuple { dst, args } => {
                w.write_u8(7);
                w.write_uvarint(*dst as u64);
                write_regs(w, args);
            }
            Instr::Closure { dst, fun, captured } => {
                w.write_u8(8);
                w.write_uvarint(*dst as u64);
                w.write_uvarint(*fun as u64);
                write_regs(w, captured);
            }
            Instr::Load { dst, ptr, index } => {
                w.write_u8(9);
                w.write_uvarint(*dst as u64);
                w.write_uvarint(*ptr as u64);
                w.write_uvarint(*index as u64);
            }
            Instr::Store { ptr, index, value } => {
                w.write_u8(10);
                w.write_uvarint(*ptr as u64);
                w.write_uvarint(*index as u64);
                w.write_uvarint(*value as u64);
            }
            Instr::LoadRaw {
                dst,
                width,
                ptr,
                offset,
            } => {
                w.write_u8(11);
                w.write_uvarint(*dst as u64);
                w.write_u8(*width);
                w.write_uvarint(*ptr as u64);
                w.write_uvarint(*offset as u64);
            }
            Instr::StoreRaw {
                width,
                ptr,
                offset,
                value,
            } => {
                w.write_u8(12);
                w.write_u8(*width);
                w.write_uvarint(*ptr as u64);
                w.write_uvarint(*offset as u64);
                w.write_uvarint(*value as u64);
            }
            Instr::Len { dst, ptr } => {
                w.write_u8(13);
                w.write_uvarint(*dst as u64);
                w.write_uvarint(*ptr as u64);
            }
            Instr::Ext { dst, name, args } => {
                w.write_u8(14);
                w.write_uvarint(*dst as u64);
                w.write_str(name);
                write_regs(w, args);
            }
            Instr::JumpIfFalse { cond, target } => {
                w.write_u8(15);
                w.write_uvarint(*cond as u64);
                w.write_uvarint(*target as u64);
            }
            Instr::Jump { target } => {
                w.write_u8(16);
                w.write_uvarint(*target as u64);
            }
            Instr::TailCall { target, args } => {
                w.write_u8(17);
                w.write_uvarint(*target as u64);
                write_regs(w, args);
            }
            Instr::TailCallDirect { fun, args } => {
                w.write_u8(18);
                w.write_uvarint(*fun as u64);
                write_regs(w, args);
            }
            Instr::Halt { value } => {
                w.write_u8(19);
                w.write_uvarint(*value as u64);
            }
            Instr::Migrate {
                label,
                target,
                fun,
                args,
            } => {
                w.write_u8(20);
                w.write_uvarint(*label as u64);
                w.write_uvarint(*target as u64);
                w.write_uvarint(*fun as u64);
                write_regs(w, args);
            }
            Instr::Speculate { fun, args } => {
                w.write_u8(21);
                w.write_uvarint(*fun as u64);
                write_regs(w, args);
            }
            Instr::Commit { level, fun, args } => {
                w.write_u8(22);
                w.write_uvarint(*level as u64);
                w.write_uvarint(*fun as u64);
                write_regs(w, args);
            }
            Instr::Rollback { level, code } => {
                w.write_u8(23);
                w.write_uvarint(*level as u64);
                w.write_uvarint(*code as u64);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let reg =
            |r: &mut WireReader<'_>| -> Result<Reg, WireError> { Ok(r.read_uvarint()? as Reg) };
        Ok(match r.read_u8()? {
            0 => Instr::Const {
                dst: reg(r)?,
                value: Const::decode(r)?,
            },
            1 => Instr::FunRef {
                dst: reg(r)?,
                fun: r.read_uvarint()? as u32,
            },
            2 => Instr::Move {
                dst: reg(r)?,
                src: reg(r)?,
            },
            3 => Instr::Unop {
                dst: reg(r)?,
                op: Unop::decode(r)?,
                src: reg(r)?,
            },
            4 => Instr::Binop {
                dst: reg(r)?,
                op: Binop::decode(r)?,
                lhs: reg(r)?,
                rhs: reg(r)?,
            },
            5 => Instr::Alloc {
                dst: reg(r)?,
                len: reg(r)?,
                init: reg(r)?,
            },
            6 => Instr::AllocRaw {
                dst: reg(r)?,
                size: reg(r)?,
            },
            7 => Instr::Tuple {
                dst: reg(r)?,
                args: read_regs(r)?,
            },
            8 => Instr::Closure {
                dst: reg(r)?,
                fun: r.read_uvarint()? as u32,
                captured: read_regs(r)?,
            },
            9 => Instr::Load {
                dst: reg(r)?,
                ptr: reg(r)?,
                index: reg(r)?,
            },
            10 => Instr::Store {
                ptr: reg(r)?,
                index: reg(r)?,
                value: reg(r)?,
            },
            11 => Instr::LoadRaw {
                dst: reg(r)?,
                width: r.read_u8()?,
                ptr: reg(r)?,
                offset: reg(r)?,
            },
            12 => Instr::StoreRaw {
                width: r.read_u8()?,
                ptr: reg(r)?,
                offset: reg(r)?,
                value: reg(r)?,
            },
            13 => Instr::Len {
                dst: reg(r)?,
                ptr: reg(r)?,
            },
            14 => Instr::Ext {
                dst: reg(r)?,
                name: r.read_str()?.to_owned(),
                args: read_regs(r)?,
            },
            15 => Instr::JumpIfFalse {
                cond: reg(r)?,
                target: r.read_usize()?,
            },
            16 => Instr::Jump {
                target: r.read_usize()?,
            },
            17 => Instr::TailCall {
                target: reg(r)?,
                args: read_regs(r)?,
            },
            18 => Instr::TailCallDirect {
                fun: r.read_uvarint()? as u32,
                args: read_regs(r)?,
            },
            19 => Instr::Halt { value: reg(r)? },
            20 => Instr::Migrate {
                label: r.read_uvarint()? as u32,
                target: reg(r)?,
                fun: reg(r)?,
                args: read_regs(r)?,
            },
            21 => Instr::Speculate {
                fun: reg(r)?,
                args: read_regs(r)?,
            },
            22 => Instr::Commit {
                level: reg(r)?,
                fun: reg(r)?,
                args: read_regs(r)?,
            },
            23 => Instr::Rollback {
                level: reg(r)?,
                code: reg(r)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    context: "Instr",
                    tag: tag as u64,
                })
            }
        })
    }
}

impl WireCodec for BcFun {
    fn encode(&self, w: &mut WireWriter) {
        w.write_str(&self.name);
        w.write_uvarint(self.nregs as u64);
        w.write_uvarint(self.nparams as u64);
        self.code.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BcFun {
            name: r.read_str()?.to_owned(),
            nregs: r.read_uvarint()? as u32,
            nparams: r.read_uvarint()? as u32,
            code: Vec::<Instr>::decode(r)?,
        })
    }
}

impl WireCodec for BytecodeProgram {
    fn encode(&self, w: &mut WireWriter) {
        self.funs.encode(w);
        w.write_uvarint(self.entry as u64);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BytecodeProgram {
            funs: Vec::<BcFun>::decode(r)?,
            entry: r.read_uvarint()? as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mojave_wire::{from_bytes, to_bytes};

    #[test]
    fn instruction_roundtrip() {
        let instrs = vec![
            Instr::Const {
                dst: 0,
                value: Const::Str("checkpoint://x".into()),
            },
            Instr::Binop {
                dst: 1,
                op: Binop::Add,
                lhs: 0,
                rhs: 0,
            },
            Instr::Ext {
                dst: 2,
                name: "print_int".into(),
                args: vec![1],
            },
            Instr::JumpIfFalse { cond: 2, target: 9 },
            Instr::TailCallDirect {
                fun: 3,
                args: vec![1, 2],
            },
            Instr::Migrate {
                label: 4,
                target: 0,
                fun: 1,
                args: vec![2],
            },
            Instr::Rollback { level: 0, code: 1 },
        ];
        let bytes = to_bytes(&instrs);
        let back: Vec<Instr> = from_bytes(&bytes).unwrap();
        assert_eq!(instrs, back);
    }

    #[test]
    fn program_roundtrip_and_instruction_count() {
        let program = BytecodeProgram {
            funs: vec![BcFun {
                name: "main".into(),
                nregs: 3,
                nparams: 0,
                code: vec![
                    Instr::Const {
                        dst: 0,
                        value: Const::Int(1),
                    },
                    Instr::Halt { value: 0 },
                ],
            }],
            entry: 0,
        };
        assert_eq!(program.instruction_count(), 2);
        let bytes = to_bytes(&program);
        let back: BytecodeProgram = from_bytes(&bytes).unwrap();
        assert_eq!(program, back);
    }
}
