//! # mojave-heap
//!
//! The Mojave runtime heap (paper §4.1): a standardized,
//! architecture-independent representation of the entire mutable program
//! state, designed so that whole-process migration and speculative execution
//! fall out of the data layout.
//!
//! The key pieces:
//!
//! * [`Word`] — the tagged, architecture-independent value representation.
//!   Pointers are **never** raw addresses: a heap pointer is an index into
//!   the pointer table, a function value is an index into the function
//!   table.  Because of this, heap data never needs pointer translation when
//!   it is relocated by the garbage collector, cloned by the copy-on-write
//!   machinery, or shipped to another machine.
//! * [`PointerTable`] — the indirection table of §4.1.1.  Every valid block
//!   has exactly one entry; reads validate the index and the entry in a
//!   handful of operations; relocation only rewrites table entries.
//! * [`Block`] / [`BlockHeader`] — heap blocks with headers carrying the
//!   back-reference to their table entry, their kind, generation and GC mark.
//!   A word block's elements ([`Words`]) are tagged [`Word`]s, or — for an
//!   array of `Int`s or of `Float`s — a numeric column: the tag once and
//!   the 8-byte payloads, until a store of another tag converts it.
//! * [`Heap`] — allocation, checked loads/stores, the generational
//!   mark-sweep-compacting collector of §4, and the copy-on-write
//!   speculation records of §4.3 (`spec_enter` / `spec_commit` /
//!   `spec_rollback`).
//!
//! The speculation *policy* (which continuation to re-enter, what the
//! rollback code is) lives in `mojave-core`; this crate owns the heap
//! *mechanism* so it can be tested and benchmarked in isolation.
//!
//! The heap also tracks **per-block dirtiness** for incremental
//! checkpoints: [`Heap::mark_clean`] declares the current state a base,
//! and a later [`ImageKind::Delta`] image ships only the blocks mutated,
//! allocated or freed since.  Every image — full or delta, encoded at once
//! or later on another thread — is encoded from a frozen [`HeapSnapshot`]
//! ([`Heap::freeze`]) through one entry point, [`ImageRecords::encode`],
//! which writes v5 slab frames in the codecs the receiving sink negotiated
//! ([`negotiate_codecs`]); see `docs/WIRE_FORMAT.md` for the layout.
//!
//! ```
//! use mojave_heap::{negotiate_codecs, Heap, HeapConfig, ImageCodec, ImageKind, Word};
//! use mojave_wire::{CodecSet, WireReader, WireWriter, FORMAT_VERSION};
//!
//! let mut heap = Heap::new();
//! let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
//!
//! // Speculative write, rolled back: the heap is restored exactly.
//! let level = heap.spec_enter();
//! heap.store(arr, 0, Word::Int(99)).unwrap();
//! heap.spec_rollback(level).unwrap();
//! assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(0));
//!
//! // The whole heap round-trips through a compressed v5 image, encoded
//! // from a freeze of it.
//! let codecs = negotiate_codecs(CodecSet::all(), None);
//! let snapshot = heap.freeze();
//! let mut w = WireWriter::new();
//! snapshot.image_records(ImageKind::Full).unwrap().encode(&mut w, codecs);
//! let bytes = w.into_bytes();
//! let codec = ImageCodec::of_version(FORMAT_VERSION);
//! let mut r = WireReader::new(&bytes);
//! let back = Heap::decode_image(&mut r, codec, HeapConfig::default()).unwrap();
//! assert_eq!(back.load(arr, 0).unwrap(), Word::Int(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod cow;
mod error;
mod gc;
mod heap;
mod image;
mod pointer_table;
mod snapshot;
mod stats;
mod word;

pub use block::{Block, BlockData, BlockHeader, BlockKind, Generation, Numeric, Words};
pub use cow::SpecLevelRecord;
pub use error::HeapError;
pub use gc::GcKind;
pub use heap::{Heap, HeapConfig, HEADER_OVERHEAD_BYTES};
pub use image::{
    image_payload_stats, negotiate_codecs, ImageCodec, ImageKind, ImageRecords, PayloadWireStats,
};
pub use pointer_table::{PointerTable, PtrIdx};
pub use snapshot::HeapSnapshot;
pub use stats::HeapStats;
pub use word::Word;
