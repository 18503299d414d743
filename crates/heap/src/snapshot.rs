//! Heap snapshots: the one source of heap-image records.
//!
//! [`Heap::freeze`](crate::Heap::freeze) captures the program-visible heap
//! state as an owned [`HeapSnapshot`] in O(pointer-table) time: it shares
//! each block's payload in place (a block that still owned its `Vec`
//! wraps it in an `Arc`, one allocation and no copy) and records a second
//! reference.  The mutator's first subsequent write to each block copies
//! it while the snapshot still holds it, and takes the payload back
//! without a copy once the snapshot is dropped — the same copy-on-write
//! discipline speculation levels use (paper §4.3), opened outward so a
//! *checkpoint* no longer stops the world.  Between freezes a
//! store writes an owned payload in place and pays no atomic.
//!
//! Every heap image is encoded from a snapshot
//! ([`HeapSnapshot::image_records`] is the only producer of
//! [`ImageRecords`]).  A synchronous pack freezes and encodes before the
//! mutator resumes, then drops the snapshot; an asynchronous checkpoint
//! hands the snapshot — it is `Send` — to a pipeline worker thread
//! (`mojave-runtime`), which runs the expensive half (codec choice, slab
//! staging, compression, sink delivery) while the mutator keeps running.
//! Both go through the same records and the one encoder, so an image's
//! bytes depend on the frozen state alone, never on when it was encoded.

use crate::block::Block;
use crate::error::HeapError;
use crate::image::{ImageKind, ImageRecords};
use crate::pointer_table::PtrIdx;

/// An immutable, owned capture of the program-visible heap state at one
/// instant, produced by [`Heap::freeze`](crate::Heap::freeze).
///
/// The capture cost is O(live blocks) pointer work; payload bytes are
/// shared with the live heap until the mutator rewrites them.  What the
/// mutator does after the freeze never reaches the snapshot's images.
#[derive(Debug, Clone)]
pub struct HeapSnapshot {
    /// Pointer-table capacity at the freeze point.
    capacity: usize,
    /// Frozen `(index, block)` records, ascending by pointer index —
    /// payloads are shared with the live heap (copy-on-write).
    records: Vec<(PtrIdx, Block)>,
    /// Dirty live pointer indices at the freeze point (ascending), for
    /// delta encoding.  Always a subset of `records`' indices.
    dirty: Vec<PtrIdx>,
    /// Pointer indices freed since the last clean point (ascending).
    freed: Vec<PtrIdx>,
    /// Whether dirty tracking was armed when the snapshot was taken — if
    /// not, the snapshot has no clean point and cannot encode deltas.
    tracking: bool,
    /// The heap's [`crate::Heap::live_bytes`] at the freeze point.
    live_bytes: usize,
}

impl HeapSnapshot {
    pub(crate) fn new(
        capacity: usize,
        records: Vec<(PtrIdx, Block)>,
        dirty: Vec<PtrIdx>,
        freed: Vec<PtrIdx>,
        tracking: bool,
        live_bytes: usize,
    ) -> Self {
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

    /// Approximate bytes held by the frozen blocks (payload + per-block
    /// overhead): the heap's [`crate::Heap::live_bytes`] when frozen.
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
    /// when frozen, i.e. whether a [`ImageKind::Delta`] image can be
    /// encoded from the snapshot.
    pub fn delta_capable(&self) -> bool {
        self.tracking
    }

    /// The records of the frozen state's `kind` image, in ascending pointer
    /// order — what [`ImageRecords::encode`] writes.  A delta is relative
    /// to the last [`crate::Heap::mark_clean`] before the freeze.
    ///
    /// Without a clean point there is no base, and "nothing changed" would
    /// silently resolve to stale state, so [`ImageKind::Delta`] errors with
    /// [`HeapError::NoCleanPoint`] before anything is written: the pipeline
    /// worker consuming the snapshot fails that delivery precisely rather
    /// than dying.
    pub fn image_records(&self, kind: ImageKind) -> Result<ImageRecords<'_>, HeapError> {
        let (records, freed) = match kind {
            ImageKind::Full => {
                let records = self.records.iter().map(|(idx, block)| (*idx, block));
                (records.collect(), None)
            }
            ImageKind::Delta => {
                if !self.tracking {
                    return Err(HeapError::NoCleanPoint);
                }
                // `dirty` is sorted and a subset of `records`, so each
                // lookup is a binary search.
                let records = self.dirty.iter().map(|ptr| {
                    let at = self
                        .records
                        .binary_search_by_key(ptr, |(idx, _)| *idx)
                        .expect("dirty index frozen in the snapshot");
                    (*ptr, &self.records[at].1)
                });
                (records.collect(), Some(&self.freed[..]))
            }
        };
        Ok(ImageRecords {
            capacity: self.capacity,
            records,
            freed,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Heap, HeapError, ImageKind, Word};
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

        // A snapshot encoded at once (what a synchronous pack writes), and
        // a second snapshot of the same instant encoded later.
        let want_full = bytes_of(|w| {
            heap.freeze()
                .image_records(ImageKind::Full)
                .unwrap()
                .encode(w, CodecSet::all())
        });
        let snap = heap.freeze();

        // Mutations after the freeze must not leak into the snapshot.
        heap.store(a, 0, Word::Int(-1)).unwrap();
        heap.alloc_array(64, Word::Int(9)).unwrap();

        assert_eq!(
            bytes_of(|w| snap
                .image_records(ImageKind::Full)
                .unwrap()
                .encode(w, CodecSet::all())),
            want_full
        );
        assert_eq!(snap.block_count(), 3);
        assert!(snap.live_bytes() > 0);
        assert_eq!(heap.stats().snapshots_frozen, 2);
        // Exactly one block was un-shared by the post-freeze store.
        assert_eq!(heap.stats().shared_payload_copies, 1);
    }

    #[test]
    fn snapshot_delta_matches_and_requires_clean_point() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(4, Word::Int(1)).unwrap();
        let doomed = heap.alloc_array(2, Word::Int(2)).unwrap();

        // No clean point: a delta is a precise error.
        let snap = heap.freeze();
        assert!(!snap.delta_capable());
        assert_eq!(
            snap.image_records(ImageKind::Delta).unwrap_err(),
            HeapError::NoCleanPoint
        );

        heap.mark_clean();
        heap.store(a, 1, Word::Int(7)).unwrap();
        heap.free_block(doomed);
        let want_delta = bytes_of(|w| {
            heap.freeze()
                .image_records(ImageKind::Delta)
                .unwrap()
                .encode(w, CodecSet::all())
        });
        let snap = heap.freeze();
        assert_eq!(snap.dirty_count(), 1);
        assert_eq!(snap.freed_count(), 1);

        heap.store(a, 2, Word::Int(8)).unwrap();
        let mut got = WireWriter::new();
        snap.image_records(ImageKind::Delta)
            .unwrap()
            .encode(&mut got, CodecSet::all());
        assert_eq!(got.into_bytes(), want_delta);
    }
}
