//! # mojave-ledger
//!
//! The repository's benchmark.  One command runs one of five seeded
//! workloads for a fixed number of seconds and prints either its end-to-end
//! metrics (tracing off) or its per-layer metrics (a separate traced run),
//! after checking every op's output against an oracle.
//!
//! Everything is measured from outside: this package calls the crates'
//! public functions and records its own spans around those calls
//! ([`span`]); nothing in the program under test is instrumented.
//!
//! See `README.md` beside this package for the workloads, the metrics, how
//! they are expected to interact, and the public functions the benchmark
//! relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod measure;
pub mod probes;
pub mod span;
pub mod workloads;
