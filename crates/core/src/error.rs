//! Runtime errors.

use mojave_fir::{TypeError, ValidateError};
use mojave_heap::HeapError;
use mojave_wire::WireError;
use std::fmt;

/// Errors the runtime can raise while loading, verifying or executing a
/// process.
///
/// A `RuntimeError` terminates the process (it is the moral equivalent of a
/// hardware trap in the paper's native runtime); recoverable failures —
/// failed reads/writes, failed message receives, failed migrations — are
/// reported to the program as ordinary return values so that it can react
/// with speculation rollback or alternative execution paths.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A heap access was rejected.
    Heap(HeapError),
    /// The program failed FIR type checking.
    Type(TypeError),
    /// The program failed structural validation.
    Validate(ValidateError),
    /// A migration or checkpoint image could not be decoded.
    Image(WireError),
    /// A variable was read before being bound (cannot happen for programs
    /// that passed the type checker; kept for defence in depth).
    UnboundVar(u32),
    /// A call target was not a function or closure.
    NotCallable(String),
    /// A direct call referenced a function id outside the function table.
    UnknownFunction(u32),
    /// A call supplied the wrong number of arguments.
    ArityMismatch {
        /// Callee description.
        callee: String,
        /// Expected parameter count.
        expected: usize,
        /// Supplied argument count.
        found: usize,
    },
    /// An operand had the wrong runtime kind for the operation.
    KindMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// What it got.
        found: &'static str,
        /// Where.
        context: &'static str,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// An external function is not provided by the installed externals.
    UnknownExtern(String),
    /// An external function was called with bad arguments.
    ExternError {
        /// The external's name.
        name: String,
        /// Description of the problem.
        message: String,
    },
    /// A speculation primitive referenced a level that is not open.
    BadSpeculationLevel {
        /// Requested level.
        level: i64,
        /// Currently open depth.
        open: usize,
    },
    /// A migration target string could not be parsed.
    BadMigrationTarget(String),
    /// The execution step budget was exhausted (used by tests and the
    /// cluster's failure injection to bound runaway programs).
    StepBudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// The destination rejected a migration image (an unresolved delta, a
    /// migrate-env pointer at the wrong block, a program that does not
    /// compile …).
    MigrationRejected(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Heap(e) => write!(f, "heap error: {e}"),
            RuntimeError::Type(e) => write!(f, "type error: {e}"),
            RuntimeError::Validate(e) => write!(f, "invalid program: {e}"),
            RuntimeError::Image(e) => write!(f, "bad image: {e}"),
            RuntimeError::UnboundVar(v) => write!(f, "unbound variable v{v}"),
            RuntimeError::NotCallable(what) => write!(f, "value is not callable: {what}"),
            RuntimeError::UnknownFunction(id) => write!(f, "unknown function f{id}"),
            RuntimeError::ArityMismatch {
                callee,
                expected,
                found,
            } => write!(
                f,
                "calling {callee}: expected {expected} args, found {found}"
            ),
            RuntimeError::KindMismatch {
                expected,
                found,
                context,
            } => write!(f, "{context}: expected {expected}, found {found}"),
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
            RuntimeError::UnknownExtern(name) => write!(f, "unknown external `{name}`"),
            RuntimeError::ExternError { name, message } => {
                write!(f, "external `{name}` failed: {message}")
            }
            RuntimeError::BadSpeculationLevel { level, open } => {
                write!(f, "speculation level {level} is not open ({open} open)")
            }
            RuntimeError::BadMigrationTarget(t) => write!(f, "bad migration target `{t}`"),
            RuntimeError::StepBudgetExhausted { budget } => {
                write!(f, "execution exceeded the step budget of {budget}")
            }
            RuntimeError::MigrationRejected(msg) => write!(f, "migration rejected: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<HeapError> for RuntimeError {
    fn from(e: HeapError) -> Self {
        RuntimeError::Heap(e)
    }
}

impl From<TypeError> for RuntimeError {
    fn from(e: TypeError) -> Self {
        RuntimeError::Type(e)
    }
}

impl From<ValidateError> for RuntimeError {
    fn from(e: ValidateError) -> Self {
        RuntimeError::Validate(e)
    }
}

impl From<WireError> for RuntimeError {
    fn from(e: WireError) -> Self {
        RuntimeError::Image(e)
    }
}
