//! Allocation budgets of heap-image decode, measured at the allocator:
//! this test binary installs `mojave_fuzz::cap_alloc::CapAlloc` as the
//! global allocator and reads its high-water mark around each decode.
//!
//! * A payload declaring a huge pointer table over no records — 17 bytes
//!   for a 2^24-entry table — must decode or fail within 128 MiB, however
//!   its few records sit in the table.
//! * A 1 MiB heap shaped like the ledger's `migrate_cold` (64-word blocks,
//!   alternating small ints and 64-bit noise) must decode within the
//!   bytes the decoded heap keeps, plus its tag slab, plus 64 KiB: the
//!   payload words stream into their blocks, and no word slab is staged.
//!
//! The counters are process-wide, so the tests take turns.

use mojave_fuzz::cap_alloc::CapAlloc;
use mojave_fuzz::mutate::SplitMix64;
use mojave_heap::{BlockKind, Heap, HeapConfig, ImageCodec, ImageKind, Word};
use mojave_wire::{CodecId, CodecSet, WireCodec, WireReader, WireWriter};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CapAlloc = CapAlloc::new();

/// One measurement at a time: the allocator's counters are shared.
static TURN: Mutex<()> = Mutex::new(());

/// Run `f` and return its result with the peak bytes it had allocated
/// at once, and the bytes it left allocated.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let baseline = ALLOC.live();
    ALLOC.reset_peak();
    let out = f();
    let peak = ALLOC.peak().saturating_sub(baseline);
    let kept = ALLOC.live().saturating_sub(baseline);
    (out, peak, kept)
}

/// A v5 full-image heap payload: a table of `capacity` entries holding one
/// empty array at each of `used`, with every slab frame Raw.
fn sparse_image(capacity: u64, used: &[u64]) -> Vec<u8> {
    let mut meta = WireWriter::new();
    for &idx in used {
        meta.write_uvarint(idx);
        BlockKind::Array.encode(&mut meta);
        meta.write_usize(0);
    }
    let mut w = WireWriter::new();
    w.write_uvarint(capacity);
    w.write_usize(used.len());
    w.write_byte_frame(meta.as_bytes(), CodecId::Raw);
    w.write_byte_frame(&[], CodecId::Raw);
    w.write_word_frame(&[], CodecId::Raw);
    w.write_byte_frame(&[], CodecId::Raw);
    w.into_bytes()
}

#[test]
fn declared_table_capacity_decodes_or_fails_within_128_mib() {
    const BUDGET: usize = 128 << 20;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(sparse_image(1 << 24, &[]).len(), 17);
    for log in 16..=24u32 {
        let capacity = 1u64 << log;
        // No record at all (every entry free), and one at the far end
        // (every entry below it a hole).
        for used in [vec![], vec![capacity - 1]] {
            let image = sparse_image(capacity, &used);
            let (result, peak, _) = measured(|| {
                Heap::decode_image(
                    &mut WireReader::new(&image),
                    ImageCodec::Slab,
                    HeapConfig::default(),
                )
                .map(|heap| heap.pointer_table().capacity())
            });
            assert!(
                peak <= BUDGET,
                "capacity 2^{log}, records at {used:?}: {peak} bytes at peak ({result:?})"
            );
            if let Ok(decoded) = result {
                assert_eq!(decoded as u64, capacity);
            }
        }
    }
}

#[test]
fn migrate_cold_shaped_image_decodes_within_its_blocks_and_tags() {
    const BLOCK_WORDS: usize = 64;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut heap = Heap::new();
    let mut rng = SplitMix64::new(12);
    let mut words = 0usize;
    for block in 0.. {
        if heap.live_bytes() >= 1 << 20 {
            break;
        }
        let ptr = heap.alloc_array(BLOCK_WORDS as i64, Word::Int(0)).unwrap();
        for i in 0..BLOCK_WORDS {
            let bits = rng.next_u64();
            let value = if block % 2 == 0 { bits % 1000 } else { bits };
            heap.store(ptr, i as i64, Word::Int(value as i64)).unwrap();
        }
        words += BLOCK_WORDS;
    }
    let mut w = WireWriter::new();
    heap.freeze()
        .image_records(ImageKind::Full)
        .unwrap()
        .encode(&mut w, CodecSet::all());
    let image = w.into_bytes();

    let (decoded, peak, kept) = measured(|| {
        Heap::decode_image(
            &mut WireReader::new(&image),
            ImageCodec::Slab,
            HeapConfig::default(),
        )
        .unwrap()
    });
    assert_eq!(decoded.snapshot(), heap.snapshot());
    let tags = words;
    let budget = kept + tags + (64 << 10);
    assert!(
        peak <= budget,
        "decode peaked at {peak} bytes: the heap keeps {kept}, the tag slab is {tags}, \
         so {} bytes were staged beyond them",
        peak - kept - tags
    );
}
