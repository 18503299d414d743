//! # mojave-lang
//!
//! **MojaveC**: the C-like front end of the Mojave compiler.
//!
//! The paper's MCC compiles C (and Pascal, ML, Java) to the FIR; every
//! example in the paper — the Figure-1 `Transfer` function and the Figure-2
//! grid main loop — is written in C extended with the migration and
//! speculation primitives.  This crate implements that front end for a C
//! subset rich enough to express those programs:
//!
//! * types: `int`, `float`, `bool`, `char`, `string`, `void`, element
//!   arrays (`int[]`, `float[]`), and `buffer` (raw bytes);
//! * statements: declarations, assignments, array stores, `if`/`else`,
//!   `while`, `for`, `return`, blocks, expression statements;
//! * expressions: the usual C operators (with short-circuit `&&`/`||`),
//!   calls, indexing;
//! * the **primitives**: `speculate()`, `commit(id)`, `abort(id)`,
//!   `retry(id)`, `checkpoint(name)`, `suspend(name)`, `migrate(target)`;
//! * the runtime's external interface (`print_int`, `obj_read`, `msg_recv`,
//!   …) and allocation builtins (`alloc_int`, `alloc_float`, `alloc_buffer`,
//!   `length`, `peek`, `poke`).
//!
//! Compilation pipeline: [`lexer`] → [`parser`] → [`lower`] (CPS conversion
//! into `mojave_fir::Program`) → `mojave_fir::validate` and
//! `mojave_fir::typecheck` → `mojave_fir::optimize`, which removes the
//! repeated frame loads and index arithmetic the lowering emits
//! ([`compile_source`]; [`lower_source`] stops before the optimiser).
//! Loops become recursive FIR functions; source-level
//! mutable locals live in a per-activation *frame* block in the heap, which
//! is what makes speculation rollback restore local variables and not just
//! arrays (the paper's "entire process state, including all variable and
//! heap values").
//!
//! ```
//! let source = r#"
//!     int main() {
//!         int x = 40;
//!         x = x + 2;
//!         return x;
//!     }
//! "#;
//! let program = mojave_lang::compile_source(source).unwrap();
//! assert!(mojave_fir::typecheck(&program, &mojave_fir::ExternEnv::standard()).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod token;

pub use error::{CompileError, SourcePos};

/// Compile MojaveC source text into an FIR program: lower, validate, type
/// check, then [`mojave_fir::optimize()`].
///
/// The result has been structurally validated and type-checked against the
/// standard external environment before optimisation, and the optimiser
/// keeps both properties.  Every caller — the grid worker, `mcc`, the
/// benchmark's plain and traced runs — gets the same program.
pub fn compile_source(source: &str) -> Result<mojave_fir::Program, CompileError> {
    lower_source(source).map(mojave_fir::optimize)
}

/// Compile MojaveC source text without the optimiser: the lowering as
/// written, validated and type-checked.  It is the reference the optimiser
/// is checked against, and what tests that pin instruction-level figures of
/// the lowering compile with.
pub fn lower_source(source: &str) -> Result<mojave_fir::Program, CompileError> {
    let tokens = lexer::lex(source)?;
    let ast = parser::parse(&tokens)?;
    let program = lower::lower_program(&ast)?;
    mojave_fir::validate(&program).map_err(|e| CompileError::internal(format!("{e}")))?;
    mojave_fir::typecheck(&program, &mojave_fir::ExternEnv::standard())
        .map_err(|e| CompileError::internal(format!("{e}")))?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_minimal_program() {
        let program = compile_source("int main() { return 7; }").unwrap();
        assert!(program.fun_by_name("main").is_some());
    }

    #[test]
    fn syntax_errors_are_reported_with_position() {
        let err = compile_source("int main( { return 7; }").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line"), "error should carry a position: {msg}");
    }

    #[test]
    fn unknown_function_rejected() {
        assert!(compile_source("int main() { return frobnicate(1); }").is_err());
    }
}
