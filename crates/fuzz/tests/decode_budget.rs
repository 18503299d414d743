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
//! * An `Array` record claiming a huge all-`Int` run over a payload frame
//!   that holds a few words fails with the codec's precise error within
//!   the same 128 MiB, and within its tag slab plus the column it claims.
//! * One foreign tag in a `Float` run makes a tagged block, whose words
//!   are checked like any other: an invalid `(tag, payload)` pair
//!   anywhere in the run, past its first 256 words or at its end, is the
//!   same precise error.
//!
//! The allocator counts per thread, so each window sees only its own
//! test's allocations, whatever runs beside it.

use mojave_core::rng::SplitMix64;
use mojave_fuzz::cap_alloc::CapAlloc;
use mojave_heap::{BlockKind, Heap, HeapConfig, ImageCodec, ImageKind, Numeric, PtrIdx, Word};
use mojave_wire::{
    compress_bytes, CodecError, CodecId, CodecSet, WireCodec, WireError, WireReader, WireWriter,
};
use std::sync::{Arc, Barrier};

#[global_allocator]
static ALLOC: CapAlloc = CapAlloc;

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
fn a_window_does_not_count_another_threads_allocations() {
    const HELD: usize = 8 << 20;
    // The other thread allocates inside the window and holds the memory
    // past its end; the barriers themselves allocate nothing.
    let allocated = Arc::new(Barrier::new(2));
    let released = Arc::new(Barrier::new(2));
    let other = {
        let (allocated, released) = (allocated.clone(), released.clone());
        std::thread::spawn(move || {
            allocated.wait();
            let held = vec![1u8; HELD];
            allocated.wait();
            released.wait();
            held.len()
        })
    };
    let ((), peak, kept) = ALLOC.measure(|| {
        allocated.wait();
        allocated.wait();
    });
    released.wait();
    assert_eq!(other.join().unwrap(), HELD);
    assert_eq!(kept, 0);
    assert!(peak < HELD, "{peak} bytes at peak");
}

#[test]
fn declared_table_capacity_decodes_or_fails_within_128_mib() {
    const BUDGET: usize = 128 << 20;
    assert_eq!(sparse_image(1 << 24, &[]).len(), 17);
    for log in 16..=24u32 {
        let capacity = 1u64 << log;
        // No record at all (every entry free), and one at the far end
        // (every entry below it a hole).
        for used in [vec![], vec![capacity - 1]] {
            let image = sparse_image(capacity, &used);
            let (result, peak, _) = ALLOC.measure(|| {
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

    let (decoded, peak, kept) = ALLOC.measure(|| {
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

/// A v5 full image of one `Array` record of `len` words, its tag slab
/// `tags` in `tag_codec` and its payload frame `payload` in `codec`,
/// both declaring `len` words.
fn one_array(len: usize, tags: (CodecId, &[u8]), payload: (CodecId, &[u8])) -> Vec<u8> {
    let mut meta = WireWriter::new();
    meta.write_uvarint(0);
    BlockKind::Array.encode(&mut meta);
    meta.write_usize(len);
    let mut w = WireWriter::new();
    w.write_usize(1); // table capacity
    w.write_usize(1); // one record
    w.write_byte_frame(meta.as_bytes(), CodecId::Raw);
    for (codec, bytes) in [tags, payload] {
        w.write_uvarint(len as u64);
        w.write_u8(codec as u8);
        w.write_bytes(bytes);
    }
    w.write_byte_frame(&[], CodecId::Raw);
    w.into_bytes()
}

fn decode(image: &[u8]) -> Result<Heap, WireError> {
    Heap::decode_image(
        &mut WireReader::new(image),
        ImageCodec::Slab,
        HeapConfig::default(),
    )
}

#[test]
fn a_forged_all_int_run_fails_precisely_within_its_tags_and_column() {
    const BUDGET: usize = 128 << 20;
    const WORDS: usize = 1 << 22;
    // Four million `Int` tags in a few bytes of LZ.
    let mut tags = Vec::new();
    compress_bytes(CodecId::Lz, &vec![1u8; WORDS], &mut tags);
    let truncated = |context| CodecError::TruncatedInput { context };
    for (codec, payload, error) in [
        // Sixteen one-byte varints, then nothing: the column is allocated
        // and the read fails at word 17.
        (CodecId::Varint, vec![2u8; 16], truncated("varint slab")),
        // Rejected before any column: too short for its groups' widths.
        (CodecId::BitPack, vec![0u8; 16], truncated("bitpack slab")),
        (
            CodecId::Raw,
            vec![0u8; 16],
            CodecError::LengthMismatch {
                expected: WORDS * 8,
                found: 16,
            },
        ),
    ] {
        let image = one_array(WORDS, (CodecId::Lz, &tags), (codec, &payload));
        assert!(image.len() < 256, "{} bytes", image.len());
        let (result, peak, kept) = ALLOC.measure(|| decode(&image).map(|_| ()));
        assert_eq!(result, Err(WireError::Codec(error)), "{codec}");
        assert_eq!(kept, 0, "{codec}");
        // One byte a word of tag slab, eight of column, nothing more.
        let claimed = WORDS * 9 + (64 << 10);
        assert!(
            peak <= BUDGET && peak <= claimed,
            "{codec}: {peak} bytes at peak for a claim of {WORDS} words"
        );
    }
}

#[test]
fn a_foreign_tag_in_a_float_run_decodes_tagged_and_is_checked() {
    // The slab decoder checks a run 256 words at a time: word 256 opens
    // the second chunk, and word 299 ends the run.
    const LEN: usize = 300;
    const AT: usize = 17;
    let float_run = |at: usize, foreign: u8, payload: u64| {
        let mut tags = [2u8; LEN];
        tags[at] = foreign;
        let mut words: Vec<u64> = (0..LEN).map(|i| (i as f64).to_bits()).collect();
        words[at] = payload;
        let raw: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        one_array(LEN, (CodecId::Raw, &tags), (CodecId::Raw, &raw))
    };
    let ptr = PtrIdx(0);
    let form = |heap: &Heap| heap.block(ptr).unwrap().as_words().unwrap().column_tag();

    let floats = decode(&float_run(AT, 2, 0.25f64.to_bits())).unwrap();
    assert_eq!(form(&floats), Some(Numeric::Float));
    assert_eq!(floats.load(ptr, AT as i64).unwrap(), Word::Float(0.25));

    let mixed = decode(&float_run(AT, 1, 7)).unwrap();
    assert_eq!(form(&mixed), None);
    assert_eq!(mixed.load(ptr, AT as i64).unwrap(), Word::Int(7));
    assert_eq!(mixed.load(ptr, AT as i64 + 1).unwrap(), Word::Float(18.0));

    let bad = |context, tag| Err(WireError::BadTag { context, tag });
    let beyond_u32 = 1u64 << 32;
    for at in [AT, 256, LEN - 1] {
        for (tag, payload, error) in [
            (4, 0xD800, bad("Word::Char payload", 0xD800)),
            (3, 2, bad("Word::Bool payload", 2)),
            (7, 0, bad("Word tag", 7)),
            (5, beyond_u32, bad("Word::Ptr payload", beyond_u32)),
            (6, u64::MAX, bad("Word::Fun payload", u64::MAX)),
        ] {
            let got = decode(&float_run(at, tag, payload)).map(|_| ());
            assert_eq!(got, error, "tag {tag} at word {at}");
        }
    }
}
