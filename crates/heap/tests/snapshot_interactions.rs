//! Snapshot × speculation × GC interaction tests.
//!
//! A [`HeapSnapshot`](mojave_heap::HeapSnapshot) owns its frozen records,
//! so every interaction with the live heap's machinery is *documented safe
//! behavior*, never a panic:
//!
//! * freezing inside an open speculation level captures the speculative
//!   state; later commits and rollbacks do not disturb the snapshot;
//! * GC — minor, major, compaction, slot reuse — may run while a snapshot
//!   is live: freed blocks survive inside the snapshot, and compaction
//!   never invalidates it (the snapshot holds blocks, not slots);
//! * a snapshot without a clean point refuses delta encoding with the
//!   precise [`HeapError::NoCleanPoint`] error.

use mojave_heap::{Heap, HeapConfig, HeapError, ImageCodec, ImageKind, PtrIdx, Word};
use mojave_wire::{CodecId, CodecSet, WireReader, WireWriter};

/// The full image of `heap` as a synchronous pack writes it: a snapshot
/// frozen, encoded at once and dropped.  The tests compare it with a
/// second snapshot of the same instant, encoded after the mutator moved on.
fn image_of(heap: &mut Heap) -> Vec<u8> {
    let mut w = WireWriter::new();
    heap.freeze()
        .image_records(ImageKind::Full)
        .unwrap()
        .encode(&mut w, CodecSet::all());
    w.into_bytes()
}

fn snap_image(snap: &mojave_heap::HeapSnapshot) -> Vec<u8> {
    let mut w = WireWriter::new();
    snap.image_records(ImageKind::Full)
        .unwrap()
        .encode(&mut w, CodecSet::all());
    w.into_bytes()
}

#[test]
fn snapshot_inside_open_speculation_captures_speculative_state() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
    let level = heap.spec_enter();
    heap.store(arr, 0, Word::Int(42)).unwrap();

    // The freeze sees the speculative value (the current clone)…
    let want = image_of(&mut heap);
    let snap = heap.freeze();
    assert_eq!(snap_image(&snap), want);

    // …and the rollback that later reverts the heap leaves it untouched.
    heap.spec_rollback(level).unwrap();
    assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(0));
    assert_eq!(snap_image(&snap), want);

    let decoded = Heap::decode_image(
        &mut WireReader::new(&snap_image(&snap)),
        ImageCodec::Slab,
        HeapConfig::default(),
    )
    .unwrap();
    assert_eq!(decoded.load(arr, 0).unwrap(), Word::Int(42));
}

#[test]
fn rollback_and_commit_while_snapshot_is_live() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(8, Word::Int(1)).unwrap();
    let want = image_of(&mut heap);
    let snap = heap.freeze();

    // A full speculative episode after the freeze: enter, mutate,
    // allocate, roll back; then another that commits.
    let level = heap.spec_enter();
    heap.store(arr, 3, Word::Int(-3)).unwrap();
    let temp = heap.alloc_array(16, Word::Int(9)).unwrap();
    heap.spec_rollback(level).unwrap();
    assert!(heap.load(temp, 0).is_err());

    let level = heap.spec_enter();
    heap.store(arr, 5, Word::Int(55)).unwrap();
    heap.spec_commit(level).unwrap();
    assert_eq!(heap.load(arr, 5).unwrap(), Word::Int(55));

    // The snapshot still encodes the pre-episode state, byte for byte.
    assert_eq!(snap_image(&snap), want);
}

#[test]
fn gc_while_snapshot_is_live_is_safe_and_documented() {
    // Tight thresholds so collections actually fire.
    let mut heap = Heap::with_config(HeapConfig {
        minor_threshold_bytes: 4 * 1024,
        major_threshold_bytes: 64 * 1024,
        max_alloc: 1 << 20,
    });
    let keep = heap.alloc_array(8, Word::Int(7)).unwrap();
    let garbage = heap.alloc_array(64, Word::Int(8)).unwrap();
    let want = image_of(&mut heap);
    let snap = heap.freeze();

    // Major GC with only `keep` rooted: `garbage` is freed from the live
    // heap (its payload survives inside the snapshot), survivors are
    // compacted to new slots.  The snapshot never looks at slots, so
    // nothing dangles.
    heap.gc_major(&[Word::Ptr(keep)]);
    assert!(
        heap.load(garbage, 0).is_err(),
        "collected from the live heap"
    );
    assert_eq!(snap_image(&snap), want, "frozen payloads survive the GC");

    // Minor collections and promotions after the freeze are equally
    // invisible to the snapshot.
    for i in 0..64 {
        heap.alloc_array(16, Word::Int(i)).unwrap();
    }
    heap.gc_minor(&[Word::Ptr(keep)]);
    assert_eq!(snap_image(&snap), want);

    // The frozen image decodes to the freeze-time state, garbage included.
    let decoded = Heap::decode_image(
        &mut WireReader::new(&snap_image(&snap)),
        ImageCodec::Slab,
        HeapConfig::default(),
    )
    .unwrap();
    assert_eq!(decoded.load(garbage, 0).unwrap(), Word::Int(8));
}

#[test]
fn pointer_index_reuse_after_the_freeze_does_not_leak_into_the_snapshot() {
    let mut heap = Heap::new();
    let keep = heap.alloc_array(4, Word::Int(1)).unwrap();
    let doomed = heap.alloc_array(4, Word::Int(2)).unwrap();
    let want = image_of(&mut heap);
    let snap = heap.freeze();

    // Collect `doomed`, then allocate until its pointer index is reused
    // with different content.
    heap.gc_major(&[Word::Ptr(keep)]);
    let reused = heap.alloc_array(4, Word::Int(99)).unwrap();
    assert_eq!(reused, doomed, "table entry is recycled");
    assert_eq!(heap.load(reused, 0).unwrap(), Word::Int(99));

    // The snapshot still ships the original block under that index.
    assert_eq!(snap_image(&snap), want);
    let decoded = Heap::decode_image(
        &mut WireReader::new(&snap_image(&snap)),
        ImageCodec::Slab,
        HeapConfig::default(),
    )
    .unwrap();
    assert_eq!(decoded.load(doomed, 0).unwrap(), Word::Int(2));
}

#[test]
fn multiple_snapshots_are_independent() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
    let snap0 = heap.freeze();
    heap.store(arr, 0, Word::Int(1)).unwrap();
    let snap1 = heap.freeze();
    heap.store(arr, 0, Word::Int(2)).unwrap();

    let decode = |bytes: Vec<u8>| {
        Heap::decode_image(
            &mut WireReader::new(&bytes),
            ImageCodec::Slab,
            HeapConfig::default(),
        )
        .unwrap()
    };
    assert_eq!(
        decode(snap_image(&snap0)).load(arr, 0).unwrap(),
        Word::Int(0)
    );
    assert_eq!(
        decode(snap_image(&snap1)).load(arr, 0).unwrap(),
        Word::Int(1)
    );
    assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(2));
    assert_eq!(heap.stats().snapshots_frozen, 2);
}

#[test]
fn snapshot_encodes_on_another_thread_while_the_mutator_races() {
    let mut heap = Heap::new();
    let mut ptrs = Vec::new();
    for i in 0..512 {
        ptrs.push(heap.alloc_array(32, Word::Int(i)).unwrap());
    }
    let want = image_of(&mut heap);
    let snap = heap.freeze();

    // Encode off-thread while this thread rewrites every block — the
    // exact overlap the asynchronous checkpoint pipeline relies on.  A
    // local clone keeps the payloads shared for the whole mutation loop
    // (the encoder may finish and drop its snapshot at any point), so the
    // un-sharing copy count below is deterministic.
    let keeper = snap.clone();
    let encoder = std::thread::spawn(move || snap_image(&snap));
    for (i, ptr) in ptrs.iter().enumerate() {
        heap.store(*ptr, (i % 32) as i64, Word::Int(-1)).unwrap();
    }
    let got = encoder.join().expect("encoder thread");
    assert_eq!(got, want);
    // Every block the mutator touched paid its deferred copy exactly once.
    assert_eq!(heap.stats().shared_payload_copies, ptrs.len() as u64);
    drop(keeper);
}

/// Whether `ptr`'s payload is still held by its block alone.
fn owned(heap: &Heap, ptr: PtrIdx) -> bool {
    heap.block(ptr).unwrap().data.is_owned()
}

#[test]
fn a_store_after_a_freeze_copies_once_and_leaves_the_snapshot_intact() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(4, Word::Int(7)).unwrap();
    let untouched = heap.alloc_array(4, Word::Int(8)).unwrap();
    assert!(owned(&heap, arr));
    let want = image_of(&mut heap);
    let snap = heap.freeze();
    assert!(heap.block(arr).unwrap().data.is_shared());

    heap.store(arr, 0, Word::Int(1)).unwrap();
    heap.store(arr, 1, Word::Int(2)).unwrap();
    assert_eq!(heap.stats().shared_payload_copies, 1);
    assert_eq!(heap.stats().shared_payload_bytes, 4 * 8);
    assert!(owned(&heap, arr));
    assert!(heap.block(untouched).unwrap().data.is_shared());
    assert_eq!(heap.load(arr, 1).unwrap(), Word::Int(2));
    assert_eq!(snap_image(&snap), want);
}

#[test]
fn once_the_snapshot_is_dropped_a_store_takes_the_payload_back_without_a_copy() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(4, Word::Int(7)).unwrap();
    let raw = heap.alloc_raw(8).unwrap();
    let snap = heap.freeze();
    drop(snap);
    assert!(!heap.block(arr).unwrap().data.is_shared());
    assert!(!owned(&heap, arr), "shared in place until the next write");

    heap.store(arr, 3, Word::Int(-1)).unwrap();
    heap.store_raw(raw, 0, 8, 42).unwrap();
    assert_eq!(heap.stats().shared_payload_copies, 0);
    assert!(owned(&heap, arr) && owned(&heap, raw));
    assert_eq!(heap.load(arr, 3).unwrap(), Word::Int(-1));
    assert_eq!(heap.load_raw(raw, 0, 8).unwrap(), 42);

    // A block left unwritten stays shared, and a second freeze shares it
    // again without a copy.
    let snap = heap.freeze();
    heap.store(arr, 0, Word::Int(5)).unwrap();
    assert_eq!(heap.stats().shared_payload_copies, 1);
    drop(snap);
}

#[test]
fn a_copy_on_write_clone_then_rollback_restores_the_original() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(3, Word::Int(5)).unwrap();
    let before = heap.snapshot();
    let level = heap.spec_enter();
    heap.store(arr, 2, Word::Int(9)).unwrap();
    heap.store(arr, 1, Word::Int(8)).unwrap();
    // The clone shares the original's payload, so its first write copies.
    assert_eq!(heap.stats().cow_clones, 1);
    assert_eq!(heap.stats().shared_payload_copies, 1);
    assert_eq!(heap.load(arr, 2).unwrap(), Word::Int(9));

    heap.spec_rollback(level).unwrap();
    assert_eq!(heap.snapshot(), before);
    // The restored original is its block's alone again: no copy to write.
    heap.store(arr, 0, Word::Int(1)).unwrap();
    assert_eq!(heap.stats().shared_payload_copies, 1);
    assert!(owned(&heap, arr));
    assert_eq!(heap.load(arr, 2).unwrap(), Word::Int(5));
}

#[test]
fn a_cloned_heap_is_independent_of_its_source() {
    let mut heap = Heap::new();
    let frozen = heap.alloc_array(4, Word::Int(0)).unwrap();
    let raw = heap.alloc_raw(8).unwrap();
    let snap = heap.freeze();
    let fresh = heap.alloc_array(2, Word::Int(1)).unwrap();
    let want = snap_image(&snap);

    // Shared payloads (the frozen ones) and owned ones (`fresh`) alike.
    let mut copy = heap.clone();
    copy.store(frozen, 0, Word::Int(1)).unwrap();
    copy.store(fresh, 0, Word::Int(2)).unwrap();
    copy.store_raw(raw, 0, 8, 3).unwrap();
    heap.store(frozen, 1, Word::Int(4)).unwrap();

    assert_eq!(heap.load(frozen, 0).unwrap(), Word::Int(0));
    assert_eq!(heap.load(fresh, 0).unwrap(), Word::Int(1));
    assert_eq!(heap.load_raw(raw, 0, 8).unwrap(), 0);
    assert_eq!(copy.load(frozen, 1).unwrap(), Word::Int(0));
    assert_eq!(copy.load(frozen, 0).unwrap(), Word::Int(1));
    assert_eq!(snap_image(&snap), want);
}

#[test]
fn delta_from_untracked_snapshot_is_a_precise_error() {
    let mut heap = Heap::new();
    heap.alloc_array(4, Word::Int(0)).unwrap();
    let snap = heap.freeze();
    assert!(!snap.delta_capable());
    assert_eq!(
        snap.image_records(ImageKind::Delta).unwrap_err(),
        HeapError::NoCleanPoint
    );
}

/// SplitMix64: a seeded, dependency-free word source.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded heap with every shape an image must carry: word arrays of
/// small, full-width and float words, strings, raw blocks, tuples of
/// pointers, table holes left by a collection, and — after the clean
/// point — stores, an allocation and a collected block.
fn pinned_heap(seed: u64) -> Heap {
    let mut rng = seed;
    let mut heap = Heap::new();
    let mut kept: Vec<PtrIdx> = Vec::new();
    for i in 0..24u64 {
        let ptr = match next(&mut rng) % 4 {
            0 => {
                let len = 1 + next(&mut rng) % 40;
                let arr = heap.alloc_array(len as i64, Word::Int(0)).unwrap();
                for k in 0..len {
                    let word = match next(&mut rng) % 3 {
                        0 => Word::Int((next(&mut rng) % 50) as i64),
                        1 => Word::Int(next(&mut rng) as i64),
                        _ => Word::Float(k as f64 * 0.5),
                    };
                    heap.store(arr, k as i64, word).unwrap();
                }
                arr
            }
            1 => heap
                .alloc_str(&format!("block {i} of seed {seed}"))
                .unwrap(),
            2 => {
                let raw = heap.alloc_raw(8 + (next(&mut rng) % 64) as i64).unwrap();
                heap.store_raw(raw, 0, 8, next(&mut rng) as i64).unwrap();
                raw
            }
            _ => {
                let mut words = vec![Word::Fun(i as u32), Word::Unit];
                words.extend(kept.iter().rev().take(3).map(|p| Word::Ptr(*p)));
                heap.alloc_tuple(words).unwrap()
            }
        };
        // Every third block is garbage: the collection below leaves a hole.
        if i % 3 != 1 {
            kept.push(ptr);
        }
    }
    // A block nothing else references, collected after the clean point.
    let doomed = heap.alloc_array(6, Word::Int(1)).unwrap();
    let mut roots: Vec<Word> = kept.iter().map(|p| Word::Ptr(*p)).collect();
    roots.push(Word::Ptr(doomed));
    heap.gc_major(&roots);
    heap.mark_clean();
    for (n, ptr) in kept.iter().enumerate().step_by(4) {
        if let Ok(Word::Int(_) | Word::Float(_)) = heap.load(*ptr, 0) {
            let value = (seed * 31 + n as u64) as i64;
            heap.store(*ptr, 0, Word::Int(value)).unwrap();
        }
    }
    let fresh = heap.alloc_array(200, Word::Int(0)).unwrap();
    for k in 0..200 {
        let value = (next(&mut rng) % 40) as i64;
        heap.store(fresh, k, Word::Int(value)).unwrap();
    }
    roots.pop();
    roots.push(Word::Ptr(fresh));
    heap.gc_major(&roots);
    heap
}

/// [`mojave_wire::fingerprint`]s of the three [`pinned_heap`]s' images
/// — `(seed, full, delta)`, each in the v5 slab layout under every codec
/// set that keeps `Raw`, in bitmask order — recorded through the
/// per-layout encoders that preceded [`mojave_heap::ImageRecords::encode`].
const IMAGE_PINS: [(u64, [u64; 8], [u64; 8]); 3] = [
    (
        1,
        [
            0x139e7861f20ff966,
            0xf89bc67c50a89236,
            0xce1337c93b6a7c88,
            0xce1337c93b6a7c88,
            0x0990ce430341a9f3,
            0x0990ce430341a9f3,
            0x0990ce430341a9f3,
            0x0990ce430341a9f3,
        ],
        [
            0x42db415458ab1e98,
            0x26d3b2a281a9d174,
            0x397c0c433558b4b4,
            0x3fc6d78ce800c0e4,
            0x11dd2b719e46be7d,
            0x11dd2b719e46be7d,
            0x11dd2b719e46be7d,
            0x11dd2b719e46be7d,
        ],
    ),
    (
        2,
        [
            0x18c34c7bf30f118e,
            0xb9c46be92a20e5a3,
            0x60c80a5955ca0e8b,
            0xb84c34179158633e,
            0x52e0007a1fae23d2,
            0xb84c34179158633e,
            0x52e0007a1fae23d2,
            0xb84c34179158633e,
        ],
        [
            0x5046c58b34695334,
            0xa5a78291628a671b,
            0xccbd7e9efcead61b,
            0x29d9b80193d54263,
            0x9cb3deea482e791e,
            0x29d9b80193d54263,
            0x9cb3deea482e791e,
            0x29d9b80193d54263,
        ],
    ),
    (
        3,
        [
            0x4f7ae7d8e5c47974,
            0xa140598497942109,
            0x38d9f7be9e95809a,
            0xb40c4365a47d2cff,
            0xd12e8f7446a0114a,
            0xd12e8f7446a0114a,
            0xd12e8f7446a0114a,
            0xd12e8f7446a0114a,
        ],
        [
            0x8861277034bf5a6d,
            0xd9c6c090e438f717,
            0x3c388d09e9f4b1ee,
            0x861b3271d21245e9,
            0x8026993c8b43a99c,
            0x8026993c8b43a99c,
            0x8026993c8b43a99c,
            0x8026993c8b43a99c,
        ],
    ),
];

#[test]
fn every_layout_reproduces_the_pinned_image_bytes() {
    let codec_sets: Vec<CodecSet> = (0..16).step_by(2).map(CodecSet::from_bits).collect();
    for (seed, full, delta) in IMAGE_PINS {
        let mut heap = pinned_heap(seed);
        assert!(
            heap.freed_count() > 0 && heap.dirty_count() > 0,
            "seed {seed}"
        );
        let snap = heap.freeze();
        for (kind, pins) in [(ImageKind::Full, full), (ImageKind::Delta, delta)] {
            for (codecs, pin) in codec_sets.iter().zip(pins) {
                // A snapshot encoded at once and one held across the loop.
                let at_once = heap.freeze();
                for frozen in [&at_once, &snap] {
                    let records = frozen.image_records(kind).unwrap();
                    let mut w = WireWriter::new();
                    records.encode(&mut w, *codecs);
                    let got = mojave_wire::fingerprint(&w.into_bytes());
                    assert_eq!(got, pin, "seed {seed}, {kind:?}, {codecs:?}");
                }
            }
        }
    }
}

/// A 1 MiB heap shaped like the `ckpt_stream` benchmark's: 64 arrays of
/// 2048 words, even ones holding small integers and odd ones full 64-bit
/// values, with an odd-length block of full-width values after every
/// eighth array, so 32-word groups straddle block seams and reach width
/// 64 across them.  After the clean point, every fourth block gets a
/// store, a fresh odd-length block is allocated and one odd block is
/// collected.
fn one_mib_heap() -> Heap {
    const ODD_LENGTHS: [i64; 8] = [7, 33, 61, 95, 1, 31, 129, 45];
    let mut rng = 12;
    let mut heap = Heap::new();
    let mut roots = Vec::new();
    let mut fill = |heap: &mut Heap, len: i64, small: bool| {
        let arr = heap.alloc_array(len, Word::Int(0)).unwrap();
        for k in 0..len {
            let bits = next(&mut rng);
            let value = if small { bits % 1000 } else { bits };
            heap.store(arr, k, Word::Int(value as i64)).unwrap();
        }
        arr
    };
    for a in 0..64 {
        roots.push(fill(&mut heap, 2048, a % 2 == 0));
        if a % 8 == 7 {
            roots.push(fill(&mut heap, ODD_LENGTHS[a / 8], false));
        }
    }
    heap.mark_clean();
    for (k, arr) in roots.iter().enumerate().step_by(4) {
        heap.store(*arr, 0, Word::Int(k as i64 * 7)).unwrap();
    }
    roots.push(fill(&mut heap, 77, false));
    roots.remove(8);
    let roots: Vec<Word> = roots.into_iter().map(Word::Ptr).collect();
    heap.gc_major(&roots);
    heap
}

/// `(len, mojave_wire::fingerprint)` of [`one_mib_heap`]'s full and delta
/// images under every codec (`None`) and under `BitPack` alone.
const ONE_MIB_PINS: [(ImageKind, Option<CodecId>, (usize, u64)); 4] = [
    (ImageKind::Full, None, (627_648, 0xd2e26d417919d389)),
    (
        ImageKind::Full,
        Some(CodecId::BitPack),
        (759_188, 0xce3a3cf5aa83b46a),
    ),
    (ImageKind::Delta, None, (155_553, 0xd36882b48d7f4820)),
    (
        ImageKind::Delta,
        Some(CodecId::BitPack),
        (188_395, 0x9856bafd28457d22),
    ),
];

#[test]
fn a_one_mib_heap_reproduces_its_pinned_image_bytes() {
    let mut heap = one_mib_heap();
    assert!(heap.freed_count() > 0 && heap.dirty_count() > 0);
    let snap = heap.freeze();
    for (kind, codec, pin) in ONE_MIB_PINS {
        let codecs = codec.map_or(CodecSet::all(), CodecSet::only);
        // A snapshot encoded at once and one held across the loop.
        let at_once = heap.freeze();
        for frozen in [&at_once, &snap] {
            let records = frozen.image_records(kind).unwrap();
            let mut w = WireWriter::new();
            records.encode(&mut w, codecs);
            let bytes = w.into_bytes();
            let got = (bytes.len(), mojave_wire::fingerprint(&bytes));
            assert_eq!(got, pin, "{kind:?} under {codecs:?}");
        }
    }
}

#[test]
fn versions_map_to_codecs_and_layouts_to_versions() {
    use mojave_heap::negotiate_codecs;
    use mojave_wire::{BATCHED_VERSION, FORMAT_VERSION, MIN_SUPPORTED_VERSION};
    // Read side: one row per wire format version.
    for (version, codec) in [
        (MIN_SUPPORTED_VERSION, ImageCodec::PerWord),
        (BATCHED_VERSION, ImageCodec::Batched),
        (FORMAT_VERSION, ImageCodec::Slab),
    ] {
        assert_eq!(ImageCodec::of_version(version), codec, "v{version}");
    }
    // Write side: the codecs negotiation allows; every set is written as
    // v5 slab frames, a `{Raw}` set as frames that are all Raw.
    let raw_lz = CodecSet::only(CodecId::Lz);
    for (accepted, preference, codecs) in [
        (CodecSet::raw_only(), None, CodecSet::raw_only()),
        (
            CodecSet::raw_only(),
            Some(CodecId::Lz),
            CodecSet::raw_only(),
        ),
        (CodecSet::all(), None, CodecSet::all()),
        (
            CodecSet::all(),
            Some(CodecId::Varint),
            CodecSet::only(CodecId::Varint),
        ),
        (raw_lz, Some(CodecId::Lz), raw_lz),
        (raw_lz, Some(CodecId::Varint), CodecSet::raw_only()),
    ] {
        let got = negotiate_codecs(accepted, preference);
        assert_eq!(got, codecs, "{accepted:?} under {preference:?}");
    }
}
