//! # mojave-core
//!
//! The Mojave runtime — the paper's primary contribution.  It executes FIR
//! programs and implements the two language-level primitives the paper
//! introduces:
//!
//! * **whole-process migration** (`migrate [i, target] f(a…)`): pack the
//!   entire process state (FIR code, heap, pointer table, live variables),
//!   ship it to a machine or a checkpoint file, verify and recompile it at
//!   the destination, and resume execution — see [`migrate`];
//! * **speculative execution** (`speculate` / `commit` / `rollback`):
//!   nested, copy-on-write-backed speculation levels whose rollback restores
//!   the entire process state and re-enters the saved continuation — see
//!   [`Process`], which keeps each level's continuation, and the
//!   copy-on-write records in `mojave-heap`.
//!
//! Execution itself is available through two back-ends, mirroring the
//! paper's native-code and simulated-RISC runtimes:
//!
//! * a direct **FIR interpreter** (the reference semantics), and
//! * a **bytecode backend** ([`backend`]) that elaborates FIR into a
//!   register-machine instruction stream — the stand-in for native code
//!   generation.  Recompiling at a migration destination means running this
//!   elaboration again, which is exactly the cost the paper measures for
//!   FIR migration; "binary" migration ships the compiled bytecode instead.
//!
//! The central type is [`Process`]: a running Mojave process owning its
//! heap, speculation state, externals and backend.
//!
//! ```
//! use mojave_core::{Process, RunOutcome};
//! use mojave_fir::{ProgramBuilder, builder::term, Atom, Binop};
//!
//! let mut pb = ProgramBuilder::new();
//! let (main, _) = pb.declare("main", &[]);
//! let mut b = pb.block();
//! let x = b.binop("x", Binop::Mul, Atom::Int(6), Atom::Int(7));
//! let body = b.finish(term::halt(x));
//! pb.define(main, body);
//! pb.set_entry(main);
//!
//! let mut process = Process::from_program(pb.finish());
//! assert_eq!(process.run().unwrap(), RunOutcome::Exit(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod error;
pub mod externals;
pub mod machine;
pub mod migrate;
pub mod process;
pub mod rng;

pub use backend::{BackendKind, BytecodeProgram};
pub use error::RuntimeError;
pub use externals::{DefaultExternals, ExtCall, Externals, MSG_OK, MSG_ROLL};
pub use machine::Machine;
pub use migrate::{
    CheckpointStore, DeliveryOutcome, HeapImage, ImageCode, InMemorySink, MigrationImage,
    MigrationSink, PackedProcess, PipelineStats, SnapshotPack, StoreStats,
};
pub use process::{Process, ProcessConfig, ProcessStats, RunOutcome};
