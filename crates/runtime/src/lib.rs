//! # mojave-runtime
//!
//! The **asynchronous checkpoint/migration pipeline**: checkpoints leave
//! the mutator's critical path.
//!
//! Synchronously, a checkpoint costs the full pack → compress → sink round
//! trip — exactly the stop-the-world pause the paper's §4.3 copy-on-write
//! machinery was built to avoid.  This crate splits a checkpoint into its
//! two natural halves:
//!
//! 1. a **zero-pause snapshot** ([`mojave_heap::Heap::freeze`]): block
//!    payloads are reference-counted, so freezing the program-visible heap
//!    state is O(pointer-table) pointer work.  The mutator resumes
//!    immediately; its first write to each still-shared block pays that
//!    block's copy lazily — first write clones, frozen originals stay
//!    readable, the speculation-level discipline opened outward;
//! 2. the **deferred encode + delivery**
//!    ([`mojave_core::SnapshotPack::into_image`]): codec choice, slab
//!    staging and compression run on [`CheckpointPipeline`] worker
//!    threads — as many at once as the host has cores and the queue has
//!    slots, since an encode reads only its own frozen snapshot — and
//!    the [`mojave_core::MigrationSink`] deliveries then pass a turnstile
//!    one at a time, in submit order, so a full image is always stored
//!    before the deltas that pin it.  The queue is bounded: a submit to a
//!    full queue blocks the mutator, so no checkpoint is ever dropped.
//!
//! [`AsyncSink`] packages the pipeline as a [`mojave_core::MigrationSink`]
//! adapter around any inner sink; a process opts in with
//! [`mojave_core::process::ProcessConfig::async_checkpoints`].  For
//! deterministic replays, [`PipelineConfig::drain_after_submit`] turns
//! every submission into a barrier so grid replay digests are provably
//! identical with the pipeline on or off.
//!
//! ```
//! use mojave_core::{MigrationSink, InMemorySink, Process, ProcessConfig};
//! use mojave_heap::Word;
//! use mojave_fir::MigrateProtocol;
//! use mojave_runtime::{AsyncSink, PipelineConfig};
//!
//! // A tiny program, packed through the asynchronous path by hand.
//! let program = mojave_lang::compile_source("int main() { return 7; }").unwrap();
//! let store = mojave_core::CheckpointStore::new();
//! let inner = InMemorySink::with_store(store.clone());
//! let mut process = Process::new(program, ProcessConfig::default())
//!     .unwrap()
//!     .with_sink(Box::new(AsyncSink::new(Box::new(inner), PipelineConfig::default())));
//!
//! let pack = process.pack_snapshot(0, Word::Fun(0), &[], None).unwrap();
//! // The freeze already happened (zero-pause); encode + store run on a
//! // pipeline worker while this thread is free to keep executing.
//! // (Processes do this automatically via `ProcessConfig::async_checkpoints`.)
//! # let mut sink = AsyncSink::new(
//! #     Box::new(InMemorySink::with_store(store.clone())), PipelineConfig::default());
//! # let outcome = sink.deliver_deferred(MigrateProtocol::Checkpoint, "ck", pack);
//! # sink.flush();
//! # assert!(store.contains("ck"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;
mod sink;

pub use pipeline::{CheckpointPipeline, PipelineConfig};
pub use sink::AsyncSink;
