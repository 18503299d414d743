//! Execution back-ends.
//!
//! The paper's MCC elaborates FIR to machine code (IA32 native, plus a
//! simulated RISC runtime).  This reproduction keeps the same structure with
//! two back-ends:
//!
//! * the **FIR interpreter** (in [`crate::process`]) — the reference
//!   semantics, used mainly by tests and differential checks;
//! * the **bytecode backend** (this module) — FIR is *elaborated* into a
//!   register-machine instruction stream ([`BytecodeProgram`]) which the
//!   process then executes.  This elaboration step is the stand-in for
//!   native code generation: it is what the migration server re-runs when a
//!   process arrives as FIR.  Compiled code never travels.
//!
//! The instruction stream ([`Instr`]) is the form the compiler emits and
//! the verifier checks.  The VM runs a form derived from it once per
//! process (`exec`): the same pcs, compact ops, and the constant and
//! compare-and-branch pairs the compiler emits fused into one op each at
//! the canonical two steps.

mod bytecode;
mod compile;
mod exec;
mod verify;

pub use bytecode::{BcFun, BytecodeProgram, Const, Instr, Reg};
pub use compile::{compile_program, CompileError};
pub(crate) use exec::{Executable, Op};
pub use verify::VerifyError;

/// Which back-end a process uses to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Direct interpretation of the FIR (reference semantics).
    Interp,
    /// Execution of the compiled bytecode (the "native" backend).
    #[default]
    Bytecode,
}
