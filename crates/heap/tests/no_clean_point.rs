//! Direct coverage of the `HeapError::NoCleanPoint` contract.
//!
//! Delta encoding is only meaningful relative to a clean point
//! ([`Heap::mark_clean`]).  Without one, asking a snapshot for the records
//! of a delta image
//! ([`HeapSnapshot::image_records`](mojave_heap::HeapSnapshot::image_records))
//! returns `Err(HeapError::NoCleanPoint)` before a byte is written —
//! whether the live heap was frozen just now and is encoded at once, as a
//! synchronous pack does, or the snapshot waits for an async pipeline
//! worker, which must fail that delivery precisely, not die.

use mojave_heap::{Heap, HeapConfig, HeapError, ImageCodec, ImageKind, Word};
use mojave_wire::{CodecSet, WireReader, WireWriter};

/// Freeze `heap` and ask the snapshot at once for a delta in `codecs`,
/// writing whatever it hands back: without a clean point that is the
/// error, and no bytes.
fn assert_delta_refused_without_output(heap: &mut Heap, codecs: CodecSet) {
    let mut w = WireWriter::new();
    match heap.freeze().image_records(ImageKind::Delta) {
        Ok(records) => records.encode(&mut w, codecs),
        Err(e) => assert_eq!(e, HeapError::NoCleanPoint),
    }
    assert!(w.into_bytes().is_empty(), "no partial output");
    assert!(!heap.dirty_tracking_armed());
}

#[test]
fn snapshot_without_clean_point_refuses_delta_encoding() {
    let mut heap = Heap::new();
    heap.alloc_array(4, Word::Int(7)).unwrap();
    let snap = heap.freeze();
    assert_eq!(
        snap.image_records(ImageKind::Delta).unwrap_err(),
        HeapError::NoCleanPoint
    );
}

#[test]
fn no_clean_point_display_names_the_missing_call() {
    // The pipeline surfaces this text verbatim in delivery failures, so
    // it must point the operator at the fix.
    let msg = HeapError::NoCleanPoint.to_string();
    assert_eq!(
        msg,
        "delta encode requested but no clean point was established (mark_clean)"
    );
}

#[test]
fn snapshot_after_mark_clean_encodes_deltas() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
    heap.mark_clean();
    heap.store(arr, 2, Word::Int(41)).unwrap();
    let snap = heap.freeze();

    for codecs in [CodecSet::raw_only(), CodecSet::all()] {
        let mut w = WireWriter::new();
        snap.image_records(ImageKind::Delta)
            .unwrap()
            .encode(&mut w, codecs);
        assert!(!w.into_bytes().is_empty());
    }
}

#[test]
fn live_heap_delta_encode_without_clean_point_is_an_error() {
    let mut heap = Heap::new();
    heap.alloc_array(4, Word::Int(7)).unwrap();
    assert_delta_refused_without_output(&mut heap, CodecSet::raw_only());
}

#[test]
fn live_heap_compressed_delta_encode_without_clean_point_is_an_error() {
    let mut heap = Heap::new();
    heap.alloc_array(4, Word::Int(7)).unwrap();
    assert_delta_refused_without_output(&mut heap, CodecSet::all());
}

#[test]
fn decoded_heaps_start_without_a_clean_point() {
    // Dirty tracking is runtime state, not wire state: a resurrected heap
    // must re-establish its own clean point before taking deltas, because
    // the resurrecting node holds no base image.
    let mut heap = Heap::new();
    heap.alloc_array(4, Word::Int(7)).unwrap();
    heap.mark_clean();
    assert!(heap.dirty_tracking_armed());

    let mut w = WireWriter::new();
    heap.freeze()
        .image_records(ImageKind::Full)
        .unwrap()
        .encode(&mut w, CodecSet::all());
    let bytes = w.into_bytes();

    let mut decoded = Heap::decode_image(
        &mut WireReader::new(&bytes),
        ImageCodec::Slab,
        HeapConfig::default(),
    )
    .unwrap();
    assert!(!decoded.dirty_tracking_armed());
    decoded.mark_clean();
    assert!(decoded.dirty_tracking_armed());
}
