//! # mojave-fir
//!
//! The Mojave **semi-functional intermediate representation (FIR)**.
//!
//! The paper compiles every source language (C, Pascal, ML, Java) to a
//! type-safe intermediate language in which
//!
//! * variables are **immutable**, only heap values can be modified,
//! * function calls are converted to **tail calls** in continuation-passing
//!   style, and loops are expressed with recursive functions,
//! * the representation is **machine-independent** so the same FIR can be
//!   recompiled on any node of a heterogeneous cluster, and
//! * whole-process **migration** and **speculation** appear as
//!   pseudo-instructions (`migrate`, `speculate`, `commit`, `rollback`)
//!   rather than library calls, so the compiler can generate all process
//!   state management code automatically.
//!
//! This crate defines the FIR itself plus everything needed to treat it as a
//! first-class artefact:
//!
//! * [`types::Ty`] — the FIR type language,
//! * [`atom::Atom`] — operands (immutable variables and literals),
//! * [`expr::Expr`] — CPS expression forms, including the migration and
//!   speculation pseudo-instructions,
//! * [`program::Program`] — whole programs with a function table and entry
//!   point,
//! * [`builder`] — an ergonomic builder used by the MojaveC front end, the
//!   examples and the test suites,
//! * [`fn@typecheck`] — the FIR type checker (run before execution, and run
//!   *again* by the migration server on every inbound image — this is the
//!   paper's safety argument for migration across untrusted networks),
//! * [`fn@validate`] — structural well-formedness checks,
//! * [`fn@optimize`] — scoped value numbering, copy propagation, trap-free
//!   constant folding and dead-let elimination over each function, the one
//!   FIR-to-FIR pass (the MojaveC front end runs it last),
//! * [`display`] — a stable pretty-printer,
//! * [`wire`] — canonical serialisation used by migration and checkpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod builder;
pub mod display;
pub mod expr;
pub mod externs;
pub mod optimize;
pub mod program;
pub mod typecheck;
pub mod types;
pub mod validate;
pub mod wire;

pub use atom::{Atom, FunId, Label, VarId};
pub use builder::{FunBuilder, ProgramBuilder};
pub use expr::{Binop, Expr, MigrateProtocol, Unop};
pub use externs::{ExternEnv, ExternSig};
pub use optimize::optimize;
pub use program::{FunDef, Program};
pub use typecheck::{typecheck, TypeError};
pub use types::Ty;
pub use validate::{validate, ValidateError};
