//! Zero-pause heap snapshots for the asynchronous checkpoint pipeline.
//!
//! [`Heap::freeze`](crate::Heap::freeze) captures the program-visible heap
//! state as an owned [`HeapSnapshot`] in O(pointer-table) time: block
//! payloads are reference-counted, so the freeze clones pointers rather
//! than bytes, and the mutator's first subsequent write to each shared
//! block pays that block's copy lazily — the same copy-on-write discipline
//! speculation levels use (paper §4.3), opened outward so a *checkpoint*
//! no longer stops the world.
//!
//! A snapshot is `Send`: the expensive half of a checkpoint — codec
//! choice, slab staging, compression, sink delivery — runs on a pipeline
//! worker thread (`mojave-runtime`) against the frozen records while the
//! mutator keeps running.  Because the snapshot serialises through the
//! exact record-list encoders the live heap uses, its images are
//! **byte-identical** to stop-the-world images of the same logical state,
//! full and delta, under every codec.

use crate::block::Block;
use crate::error::HeapError;
use crate::heap::{encode_delta_batched, encode_delta_slab, encode_full_records, encode_full_slab};
use crate::pointer_table::PtrIdx;
use mojave_wire::{CodecSet, WireWriter};

/// An immutable, owned capture of the program-visible heap state at one
/// instant, produced by [`Heap::freeze`](crate::Heap::freeze).
///
/// The capture cost is O(live blocks) pointer work; payload bytes are
/// shared with the live heap until the mutator rewrites them.  Encoding a
/// snapshot produces the same bytes a stop-the-world encode of the heap
/// would have produced at the freeze point.
#[derive(Debug, Clone)]
pub struct HeapSnapshot {
    /// Pointer-table capacity at the freeze point.
    capacity: usize,
    /// Frozen `(index, block)` records, ascending by pointer index —
    /// payloads are `Arc`-shared with the live heap (copy-on-write).
    records: Vec<(PtrIdx, Block)>,
    /// Dirty live pointer indices at the freeze point (ascending), for
    /// delta encoding.  Always a subset of `records`' indices.
    dirty: Vec<PtrIdx>,
    /// Pointer indices freed since the last clean point (ascending).
    freed: Vec<PtrIdx>,
    /// Whether dirty tracking was armed when the snapshot was taken — if
    /// not, the snapshot has no clean point and cannot encode deltas.
    tracking: bool,
    /// Sum of frozen block byte sizes (payload + header overhead).
    live_bytes: usize,
}

impl HeapSnapshot {
    pub(crate) fn new(
        capacity: usize,
        records: Vec<(PtrIdx, Block)>,
        dirty: Vec<PtrIdx>,
        freed: Vec<PtrIdx>,
        tracking: bool,
    ) -> Self {
        let live_bytes = records.iter().map(|(_, b)| b.byte_size()).sum();
        HeapSnapshot {
            capacity,
            records,
            dirty,
            freed,
            tracking,
            live_bytes,
        }
    }

    /// Pointer-table capacity at the freeze point.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of frozen blocks.
    pub fn block_count(&self) -> usize {
        self.records.len()
    }

    /// Bytes held by the frozen blocks (payload + per-block overhead).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Number of dirty blocks the snapshot would ship in a delta image.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Number of freed-index fixups the snapshot would ship in a delta.
    pub fn freed_count(&self) -> usize {
        self.freed.len()
    }

    /// Whether the heap had a clean point ([`crate::Heap::mark_clean`])
    /// when frozen, i.e. whether [`HeapSnapshot::encode_delta_image`] /
    /// [`HeapSnapshot::encode_delta_image_compressed`] can succeed.
    pub fn delta_capable(&self) -> bool {
        self.tracking
    }

    /// The full record list as references, for the shared encoders.
    fn record_refs(&self) -> Vec<(PtrIdx, &Block)> {
        self.records.iter().map(|(idx, b)| (*idx, b)).collect()
    }

    /// The dirty record list as references (`dirty` is sorted and a subset
    /// of `records`, so each lookup is a binary search).
    fn dirty_refs(&self) -> Vec<(PtrIdx, &Block)> {
        self.dirty
            .iter()
            .map(|ptr| {
                let at = self
                    .records
                    .binary_search_by_key(ptr, |(idx, _)| *idx)
                    .expect("dirty index frozen in the snapshot");
                (*ptr, &self.records[at].1)
            })
            .collect()
    }

    /// Serialise the frozen state with the batched v4 block codec —
    /// byte-identical to [`crate::Heap::encode_image`] at the freeze
    /// point.  Used when the receiving sink negotiated no compression.
    pub fn encode_image(&self, w: &mut WireWriter) {
        encode_full_records(w, self.capacity, &self.record_refs(), true);
    }

    /// Serialise the frozen state in the compressed v5 slab layout —
    /// byte-identical to [`crate::Heap::encode_image_compressed`] at the
    /// freeze point.
    pub fn encode_image_compressed(&self, w: &mut WireWriter, allowed: CodecSet) {
        encode_full_slab(w, self.capacity, &self.record_refs(), allowed);
    }

    /// Serialise the frozen dirty set as a batched v4 delta image —
    /// byte-identical to [`crate::Heap::encode_delta_image`] at the freeze
    /// point.
    ///
    /// Errors with [`HeapError::NoCleanPoint`] if dirty tracking was not
    /// armed when the snapshot was taken (there is no base to be relative
    /// to) — an error, not a panic, because the pipeline worker consuming
    /// the snapshot must fail the delivery precisely rather than die.
    pub fn encode_delta_image(&self, w: &mut WireWriter) -> Result<(), HeapError> {
        if !self.tracking {
            return Err(HeapError::NoCleanPoint);
        }
        encode_delta_batched(w, self.capacity, &self.dirty_refs(), &self.freed);
        Ok(())
    }

    /// Serialise the frozen dirty set as a compressed v5 delta image —
    /// byte-identical to [`crate::Heap::encode_delta_image_compressed`]
    /// at the freeze point.  Same [`HeapError::NoCleanPoint`] contract as
    /// [`HeapSnapshot::encode_delta_image`].
    pub fn encode_delta_image_compressed(
        &self,
        w: &mut WireWriter,
        allowed: CodecSet,
    ) -> Result<(), HeapError> {
        if !self.tracking {
            return Err(HeapError::NoCleanPoint);
        }
        encode_delta_slab(w, self.capacity, &self.dirty_refs(), &self.freed, allowed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Heap, HeapError, Word};
    use mojave_wire::{CodecSet, WireWriter};

    fn bytes_of(f: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::new();
        f(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshot_images_match_stop_the_world_images() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(8, Word::Int(3)).unwrap();
        let s = heap.alloc_str("frozen").unwrap();
        heap.alloc_tuple(vec![Word::Ptr(a), Word::Ptr(s)]).unwrap();

        let want_full = bytes_of(|w| heap.encode_image_compressed(w, CodecSet::all()));
        let want_batched = bytes_of(|w| heap.encode_image(w));
        let snap = heap.freeze();

        // Mutations after the freeze must not leak into the snapshot.
        heap.store(a, 0, Word::Int(-1)).unwrap();
        heap.alloc_array(64, Word::Int(9)).unwrap();

        assert_eq!(
            bytes_of(|w| snap.encode_image_compressed(w, CodecSet::all())),
            want_full
        );
        assert_eq!(bytes_of(|w| snap.encode_image(w)), want_batched);
        assert_eq!(snap.block_count(), 3);
        assert!(snap.live_bytes() > 0);
        assert_eq!(heap.stats().snapshots_frozen, 1);
        // Exactly one block was un-shared by the post-freeze store.
        assert_eq!(heap.stats().shared_payload_copies, 1);
    }

    #[test]
    fn snapshot_delta_matches_and_requires_clean_point() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(4, Word::Int(1)).unwrap();
        let doomed = heap.alloc_array(2, Word::Int(2)).unwrap();

        // No clean point: delta encode is a precise error on the snapshot
        // (the live heap documents a panic for the same misuse).
        let snap = heap.freeze();
        assert!(!snap.delta_capable());
        let mut w = WireWriter::new();
        assert_eq!(
            snap.encode_delta_image(&mut w).unwrap_err(),
            HeapError::NoCleanPoint
        );
        assert_eq!(
            snap.encode_delta_image_compressed(&mut w, CodecSet::all())
                .unwrap_err(),
            HeapError::NoCleanPoint
        );

        heap.mark_clean();
        heap.store(a, 1, Word::Int(7)).unwrap();
        heap.free_block(doomed);
        let want_delta = bytes_of(|w| heap.encode_delta_image_compressed(w, CodecSet::all()));
        let want_batched = bytes_of(|w| heap.encode_delta_image(w));
        let snap = heap.freeze();
        assert_eq!(snap.dirty_count(), 1);
        assert_eq!(snap.freed_count(), 1);

        heap.store(a, 2, Word::Int(8)).unwrap();
        let mut got = WireWriter::new();
        snap.encode_delta_image_compressed(&mut got, CodecSet::all())
            .unwrap();
        assert_eq!(got.into_bytes(), want_delta);
        let mut got = WireWriter::new();
        snap.encode_delta_image(&mut got).unwrap();
        assert_eq!(got.into_bytes(), want_batched);
    }
}
