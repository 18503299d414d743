//! # mojave-fuzz
//!
//! Adversarial testing for the Mojave stack: a seeded MojaveC program
//! generator whose output is run five ways through the full
//! lang → fir → bytecode → heap → wire pipeline (the *differential
//! oracle*), plus a hostile-input mutation harness for the wire decoder.
//!
//! The paper's core claim is that a migratable process has **one**
//! canonical semantics no matter where or when it is checkpointed, moved or
//! resurrected.  This crate turns that claim into an executable property:
//!
//! * [`gen`] renders a decision tape (a `Vec<u32>`) into a well-typed,
//!   provably terminating MojaveC program — bounded loops, guarded
//!   arithmetic, garbage allocations, nested speculation with
//!   commit/abort, rotating-name checkpoints and mid-speculation
//!   migrations, ending in a semantic heap digest folded into the exit
//!   value;
//! * [`diff`] runs one program as (a) a plain interpreter reference,
//!   (b) a kill-and-resurrect from the checkpoint store, (c) a chain of
//!   `MigrationImage` encode/decode hops under every negotiated codec,
//!   (d) an async-pipeline run behind drain barriers and (e) the
//!   unoptimised lowering against the optimised one — and asserts every
//!   mode agrees on the exit value (which *is* the heap digest) and on the
//!   `ProcessStats` invariants;
//! * [`mutate`] grows a corpus of golden v1/v4/v5 wire images plus freshly
//!   packed ones, applies seeded byte flips, truncations and length-field
//!   inflations, and checks the decoder answers with a precise
//!   [`WireError`](mojave_wire::WireError) — never a panic, never an
//!   unbounded allocation (enforced by [`cap_alloc`]);
//! * failures shrink to a minimal decision tape via the vendored proptest
//!   shrinker: truncating or zeroing a tape always yields a simpler
//!   program, so the generic `Vec<u32>` shrinker doubles as a program
//!   minimizer.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cap_alloc;
pub mod diff;
pub mod gen;
pub mod mutate;

pub use diff::{check_source, check_tape};
pub use gen::{generate_program, MAX_TAPE};
