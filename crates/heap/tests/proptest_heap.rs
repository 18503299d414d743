//! Property tests for the heap: GC safety, speculation exactness, and image
//! round-trips under randomly generated workloads.

use mojave_heap::{Heap, HeapConfig, ImageCodec, ImageKind, ImageRecords, PtrIdx, Word};
use mojave_wire::{choose_bytes, choose_words, CodecSet, WireReader, WireWriter};
use proptest::prelude::*;

/// A random mutator action over a fixed set of pre-allocated arrays.
#[derive(Debug, Clone)]
enum Action {
    Store { arr: usize, idx: i64, val: i64 },
    Alloc { len: i64 },
    Link { from: usize, to: usize },
}

fn action_strategy(arrays: usize) -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..arrays, 0i64..8, any::<i64>()).prop_map(|(arr, idx, val)| Action::Store {
            arr,
            idx,
            val
        }),
        (1i64..32).prop_map(|len| Action::Alloc { len }),
        (0..arrays, 0..arrays).prop_map(|(from, to)| Action::Link { from, to }),
    ]
}

fn build_heap(narrays: usize) -> (Heap, Vec<PtrIdx>) {
    let mut heap = Heap::new();
    let arrays: Vec<PtrIdx> = (0..narrays)
        .map(|i| heap.alloc_array(8, Word::Int(i as i64)).unwrap())
        .collect();
    (heap, arrays)
}

fn apply(heap: &mut Heap, arrays: &[PtrIdx], action: &Action) {
    match action {
        Action::Store { arr, idx, val } => {
            heap.store(arrays[*arr], *idx, Word::Int(*val)).unwrap();
        }
        Action::Alloc { len } => {
            let _ = heap.alloc_array(*len, Word::Int(0)).unwrap();
        }
        Action::Link { from, to } => {
            heap.store(arrays[*from], 7, Word::Ptr(arrays[*to]))
                .unwrap();
        }
    }
}

proptest! {
    /// Rolling back a speculation restores the program-visible heap state
    /// byte for byte, no matter what the speculative code did.
    #[test]
    fn rollback_restores_exact_snapshot(
        actions in proptest::collection::vec(action_strategy(4), 1..64)
    ) {
        let (mut heap, arrays) = build_heap(4);
        let before = heap.snapshot();
        let level = heap.spec_enter();
        for action in &actions {
            apply(&mut heap, &arrays, action);
        }
        heap.spec_rollback(level).unwrap();
        prop_assert_eq!(heap.snapshot(), before);
        prop_assert_eq!(heap.spec_depth(), 0);
    }

    /// Nested speculations: rolling back the inner level leaves outer-level
    /// changes intact; rolling back the outer level restores the original.
    #[test]
    fn nested_rollback_is_level_precise(
        outer in proptest::collection::vec(action_strategy(4), 1..32),
        inner in proptest::collection::vec(action_strategy(4), 1..32),
    ) {
        let (mut heap, arrays) = build_heap(4);
        let original = heap.snapshot();
        let l1 = heap.spec_enter();
        for action in &outer {
            apply(&mut heap, &arrays, action);
        }
        let mid = heap.snapshot();
        let l2 = heap.spec_enter();
        for action in &inner {
            apply(&mut heap, &arrays, action);
        }
        heap.spec_rollback(l2).unwrap();
        prop_assert_eq!(heap.snapshot(), mid);
        heap.spec_rollback(l1).unwrap();
        prop_assert_eq!(heap.snapshot(), original);
    }

    /// Committing makes speculative changes permanent: the state after commit
    /// equals the state immediately before commit.
    #[test]
    fn commit_preserves_current_state(
        actions in proptest::collection::vec(action_strategy(4), 1..64)
    ) {
        let (mut heap, arrays) = build_heap(4);
        let level = heap.spec_enter();
        for action in &actions {
            apply(&mut heap, &arrays, action);
        }
        let before_commit = heap.snapshot();
        heap.spec_commit(level).unwrap();
        prop_assert_eq!(heap.snapshot(), before_commit);
    }

    /// Garbage collection never changes the value of any reachable block, and
    /// never leaves a rooted pointer dangling.
    #[test]
    fn gc_preserves_reachable_data(
        actions in proptest::collection::vec(action_strategy(6), 1..64),
        major in any::<bool>(),
    ) {
        let (mut heap, arrays) = build_heap(6);
        for action in &actions {
            apply(&mut heap, &arrays, action);
        }
        let roots: Vec<Word> = arrays.iter().map(|p| Word::Ptr(*p)).collect();
        let values_before: Vec<Vec<Word>> = arrays
            .iter()
            .map(|p| (0..8).map(|i| heap.load(*p, i).unwrap()).collect())
            .collect();
        if major {
            heap.gc_major(&roots);
        } else {
            heap.gc_minor(&roots);
        }
        for (p, before) in arrays.iter().zip(&values_before) {
            let after: Vec<Word> = (0..8).map(|i| heap.load(*p, i).unwrap()).collect();
            prop_assert_eq!(&after, before);
        }
    }

    /// GC during an open speculation does not break a later rollback.
    #[test]
    fn gc_then_rollback_still_exact(
        actions in proptest::collection::vec(action_strategy(4), 1..48)
    ) {
        let (mut heap, arrays) = build_heap(4);
        let before = heap.snapshot();
        let level = heap.spec_enter();
        for (i, action) in actions.iter().enumerate() {
            apply(&mut heap, &arrays, action);
            if i == actions.len() / 2 {
                let roots: Vec<Word> = arrays.iter().map(|p| Word::Ptr(*p)).collect();
                heap.gc_major(&roots);
            }
        }
        heap.spec_rollback(level).unwrap();
        prop_assert_eq!(heap.snapshot(), before);
    }

    /// A heap image round-trips: every reachable block decodes to the same
    /// contents under the same pointer index.
    #[test]
    fn image_roundtrip_is_identity(
        actions in proptest::collection::vec(action_strategy(5), 0..64)
    ) {
        let (mut heap, arrays) = build_heap(5);
        for action in &actions {
            apply(&mut heap, &arrays, action);
        }
        let roots: Vec<Word> = arrays.iter().map(|p| Word::Ptr(*p)).collect();
        heap.gc_major(&roots);
        let snapshot = heap.snapshot();

        let mut w = WireWriter::new();
        heap.freeze().image_records(ImageKind::Full).unwrap().encode(&mut w, CodecSet::all());
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = Heap::decode_image(&mut r, ImageCodec::Slab, HeapConfig::default()).unwrap();
        prop_assert!(r.is_empty());
        prop_assert_eq!(back.snapshot(), snapshot);
    }

    /// The pointer table never reports more live entries than blocks exist,
    /// and every used entry resolves to a real block (the paper's §4.1
    /// invariant), across arbitrary alloc/GC interleavings.
    #[test]
    fn pointer_table_invariant_holds(
        sizes in proptest::collection::vec(1i64..64, 1..64),
        gc_every in 1usize..8,
    ) {
        let mut heap = Heap::new();
        let mut kept: Vec<PtrIdx> = Vec::new();
        for (i, len) in sizes.iter().enumerate() {
            let p = heap.alloc_array(*len, Word::Int(i as i64)).unwrap();
            if i % 3 == 0 {
                kept.push(p);
            }
            if i % gc_every == 0 {
                let roots: Vec<Word> = kept.iter().map(|p| Word::Ptr(*p)).collect();
                heap.gc_major(&roots);
            }
        }
        for (idx, _slot) in heap.pointer_table().iter_used() {
            prop_assert!(heap.block(idx).is_ok());
        }
        prop_assert_eq!(heap.pointer_table().live(), heap.live_blocks());
        for p in &kept {
            prop_assert!(heap.block(*p).is_ok());
        }
    }

    /// Delta image bytes are a function of the post-clean *state*, not of
    /// the order in which the mutator reached it: the dirty and freed
    /// lists are kept in append order and sorted only where an image is
    /// built, and this is what licenses that.  One heap stores, allocates,
    /// then collects; the other allocates, collects (so compaction has
    /// moved every slot), then makes the same stores backwards and twice.
    #[test]
    fn delta_bytes_do_not_depend_on_mutation_order(
        stores in proptest::collection::vec((0usize..6, 0i64..8, any::<i64>()), 1..48),
        allocs in 0usize..4,
    ) {
        // One write per cell, so every order leaves the same content.
        let mut cells = std::collections::HashSet::new();
        let stores: Vec<_> = stores
            .into_iter()
            .filter(|(arr, idx, _)| cells.insert((*arr, *idx)))
            .collect();
        let clean_heap = || {
            let (mut heap, arrays) = build_heap(6);
            for _ in 0..2 {
                heap.alloc_array(3, Word::Int(-1)).unwrap(); // garbage: freed below
            }
            heap.mark_clean();
            (heap, arrays)
        };
        let grow_and_collect = |heap: &mut Heap, arrays: &[PtrIdx]| {
            let mut roots: Vec<Word> = arrays.iter().map(|p| Word::Ptr(*p)).collect();
            for len in 1..=allocs {
                roots.push(Word::Ptr(heap.alloc_array(len as i64, Word::Int(7)).unwrap()));
            }
            heap.gc_major(&roots);
        };

        let (mut forward, arrays) = clean_heap();
        for (arr, idx, val) in &stores {
            forward.store(arrays[*arr], *idx, Word::Int(*val)).unwrap();
        }
        grow_and_collect(&mut forward, &arrays);

        let (mut backward, arrays) = clean_heap();
        grow_and_collect(&mut backward, &arrays);
        for (arr, idx, val) in stores.iter().rev().chain(stores.iter().rev()) {
            backward.store(arrays[*arr], *idx, Word::Int(*val)).unwrap();
        }

        prop_assert_eq!(forward.snapshot(), backward.snapshot());
        prop_assert_eq!(forward.freed_count(), 2);
        let slab = |heap: &mut Heap| {
            let mut w = WireWriter::new();
            let snap = heap.freeze();
            snap.image_records(ImageKind::Delta).unwrap().encode(&mut w, CodecSet::all());
            w.into_bytes()
        };
        prop_assert_eq!(slab(&mut forward), slab(&mut backward));
    }

    /// A zero-pause COW snapshot's images — full **and** delta, across
    /// every codec — are byte-identical to the stop-the-world images of
    /// the same instant (a snapshot encoded at once, as a synchronous pack
    /// writes them), no matter how the mutator interleaves before the
    /// freeze or keeps mutating (plain stores, allocations, frees, a
    /// collection, speculation and rollback) before the snapshot is
    /// encoded.
    #[test]
    fn snapshot_images_byte_identical_to_stop_the_world(
        before in proptest::collection::vec(action_strategy(4), 0..48),
        after in proptest::collection::vec(action_strategy(4), 0..48),
        with_free in any::<bool>(),
        speculate_after in any::<bool>(),
        collect_after in any::<bool>(),
    ) {
        use mojave_wire::CodecId;
        let codec_sets = [
            CodecSet::all(),
            CodecSet::raw_only(),
            CodecSet::only(CodecId::Varint),
            CodecSet::only(CodecId::Lz),
            CodecSet::only(CodecId::VarintLz),
        ];

        let (mut heap, arrays) = build_heap(4);
        heap.mark_clean();
        for action in &before {
            apply(&mut heap, &arrays, action);
        }
        let roots: Vec<Word> = arrays.iter().map(|p| Word::Ptr(*p)).collect();
        if with_free {
            // A collection frees the unrooted `Alloc` blocks, populating
            // the delta's freed-fixup set (and compacting slots).
            heap.gc_major(&roots);
        }

        // Stop-the-world reference images: a snapshot encoded at once and
        // dropped before the mutator resumes.
        let encode = |records: ImageRecords<'_>, codecs| {
            let mut w = WireWriter::new();
            records.encode(&mut w, codecs);
            w.into_bytes()
        };
        let at_once = heap.freeze();
        let full = || at_once.image_records(ImageKind::Full).unwrap();
        let delta = || at_once.image_records(ImageKind::Delta).unwrap();
        let want_full: Vec<Vec<u8>> = codec_sets
            .iter()
            .map(|set| encode(full(), *set))
            .collect();
        let want_delta: Vec<Vec<u8>> = codec_sets
            .iter()
            .map(|set| encode(delta(), *set))
            .collect();
        drop(at_once);

        // A second snapshot of the same instant, encoded only later.
        let snap = heap.freeze();

        // The mutator races ahead: ordinary mutations, optionally a
        // speculation level with its own copy-on-write clones, and
        // optionally a collection that frees and compacts.
        let level = if speculate_after { Some(heap.spec_enter()) } else { None };
        for action in &after {
            apply(&mut heap, &arrays, action);
        }
        if let Some(level) = level {
            heap.spec_rollback(level).unwrap();
        }
        if collect_after {
            heap.gc_major(&roots);
        }

        let frozen_full = || snap.image_records(ImageKind::Full).unwrap();
        let frozen_delta = || snap.image_records(ImageKind::Delta).unwrap();
        for (i, set) in codec_sets.iter().enumerate() {
            prop_assert_eq!(&encode(frozen_full(), *set), &want_full[i]);
            prop_assert_eq!(&encode(frozen_delta(), *set), &want_delta[i]);
        }
    }
}

/// One block of a heap built for the encoder-identity property: word
/// arrays long enough for every codec to be in play (small ints, full-width
/// noise, a repeating pattern) and strings for the byte slab.
#[derive(Debug, Clone)]
enum Shape {
    Small { len: i64, seed: u64 },
    Noise { len: i64, seed: u64 },
    Pattern { len: i64, period: u64 },
    Text { len: usize },
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0i64..1200, any::<u64>()).prop_map(|(len, seed)| Shape::Small { len, seed }),
        (0i64..1200, any::<u64>()).prop_map(|(len, seed)| Shape::Noise { len, seed }),
        (0i64..1200, 1u64..9).prop_map(|(len, period)| Shape::Pattern { len, period }),
        (0usize..2000).prop_map(|len| Shape::Text { len }),
    ]
}

/// Build the heap `shapes` describes, establish a clean point, then dirty
/// every third block and collect every fifth, so the full and the delta image
/// both have all four slabs (and the delta its freed list) to write.
fn shaped_heap(shapes: &[Shape]) -> Heap {
    let mut heap = Heap::new();
    let mut blocks = Vec::new();
    for shape in shapes {
        let block = match shape {
            Shape::Small { len, seed } | Shape::Noise { len, seed } => {
                let arr = heap.alloc_array(*len, Word::Int(0)).unwrap();
                let mut x = *seed | 1;
                for i in 0..*len {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let v = if matches!(shape, Shape::Small { .. }) {
                        x % 1000
                    } else {
                        x
                    };
                    heap.store(arr, i, Word::Int(v as i64)).unwrap();
                }
                arr
            }
            Shape::Pattern { len, period } => {
                let arr = heap.alloc_array(*len, Word::Float(0.5)).unwrap();
                for i in (0..*len).filter(|i| *i as u64 % period == 0) {
                    heap.store(arr, i, Word::Ptr(arr)).unwrap();
                }
                arr
            }
            Shape::Text { len } => {
                let text: String = (0..*len).map(|i| (b'a' + (i % 7) as u8) as char).collect();
                heap.alloc_str(&text).unwrap()
            }
        };
        blocks.push(block);
    }
    heap.mark_clean();
    for (i, block) in blocks.iter().enumerate() {
        if i % 3 == 0 && heap.block_len(*block).unwrap() > 0 {
            // Word blocks take the store; for a string it is a precise
            // error, which leaves the block clean — both are fine here.
            let _ = heap.store(*block, 0, Word::Int(i as i64));
        }
    }
    let roots: Vec<Word> = blocks
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 != 4)
        .map(|(_, block)| Word::Ptr(*block))
        .collect();
    heap.gc_major(&roots);
    heap
}

/// The v5 slab image of the slabs in an all-Raw v5 image, as a never-used
/// encoder writes it: each slab chosen and compressed by the codec crate's
/// free functions, every one on a fresh `Compressor`.  A delta's
/// freed-index tail does not depend on the codecs and is copied.
fn cold_slab_image(raw: &[u8], allowed: CodecSet) -> Vec<u8> {
    let mut r = WireReader::new(raw);
    let capacity = r.read_usize().unwrap();
    let count = r.read_usize().unwrap();
    let meta = r.read_byte_frame().unwrap();
    let tags = r.read_byte_frame().unwrap();
    let mut words = Vec::new();
    r.read_word_frame()
        .unwrap()
        .read_to_end(&mut words)
        .unwrap();
    let bytes = r.read_byte_frame().unwrap();
    let mut w = WireWriter::new();
    w.write_usize(capacity);
    w.write_usize(count);
    w.write_byte_frame(&meta, choose_bytes(&meta, allowed));
    w.write_byte_frame(&tags, choose_bytes(&tags, allowed));
    w.write_word_frame(&words, choose_words(&words, allowed));
    w.write_byte_frame(&bytes, choose_bytes(&bytes, allowed));
    let mut image = w.into_bytes();
    image.extend_from_slice(&raw[r.position()..]);
    image
}

fn encoded(f: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::new();
    f(&mut w);
    w.into_bytes()
}

/// Every compressed image of `heap` — full and delta, from a snapshot
/// frozen for that encode and from one held across all of them — under
/// every codec set negotiation can produce (every subset that keeps
/// `Raw`), each through the encoder pool.
fn pooled_images(heap: &mut Heap) -> Vec<Vec<u8>> {
    let snap = heap.freeze();
    let mut images = Vec::new();
    for allowed in (0..32).step_by(2).map(CodecSet::from_bits) {
        images.push(encoded(|w| {
            heap.freeze()
                .image_records(ImageKind::Full)
                .unwrap()
                .encode(w, allowed)
        }));
        images.push(encoded(|w| {
            snap.image_records(ImageKind::Full)
                .unwrap()
                .encode(w, allowed)
        }));
        images.push(encoded(|w| {
            heap.freeze()
                .image_records(ImageKind::Delta)
                .unwrap()
                .encode(w, allowed)
        }));
        images.push(encoded(|w| {
            snap.image_records(ImageKind::Delta)
                .unwrap()
                .encode(w, allowed)
        }));
    }
    images
}

/// What [`pooled_images`] must return: the same list from [`cold_slab_image`].
fn cold_images(heap: &mut Heap) -> Vec<Vec<u8>> {
    let snap = heap.freeze();
    let full = encoded(|w| {
        snap.image_records(ImageKind::Full)
            .unwrap()
            .encode(w, CodecSet::raw_only())
    });
    let delta = encoded(|w| {
        snap.image_records(ImageKind::Delta)
            .unwrap()
            .encode(w, CodecSet::raw_only())
    });
    let mut images = Vec::new();
    for allowed in (0..32).step_by(2).map(CodecSet::from_bits) {
        for raw in [&full, &full, &delta, &delta] {
            images.push(cold_slab_image(raw, allowed));
        }
    }
    images
}

proptest! {
    /// Images encoded through the process-wide encoder pool — whose
    /// encoders have already written whatever this test binary encoded
    /// before — are the bytes a never-used encoder writes, for a sequence
    /// of unrelated heaps whose word and byte slabs fall on both sides of
    /// the choice sample (so both a kept trial and a second compression
    /// become payloads).
    #[test]
    fn reused_slab_encoder_writes_the_bytes_a_cold_encode_writes(
        heaps in proptest::collection::vec(
            proptest::collection::vec(shape_strategy(), 0..12),
            1..5,
        ),
    ) {
        for shapes in &heaps {
            let mut heap = shaped_heap(shapes);
            let pooled = pooled_images(&mut heap);
            let cold = cold_images(&mut heap);
            for (i, (got, want)) in pooled.iter().zip(&cold).enumerate() {
                prop_assert_eq!(got, want, "image {} (set {}, kind {})", i, i / 4, i % 4);
            }
        }
    }
}

/// Four threads encoding four different heaps through the pool at once get
/// the bytes a serial encode gets — the heaps put every slab at, just
/// below or just above its choice sample.
#[test]
fn concurrent_pooled_encodes_match_serial_encodes() {
    let heaps: [Vec<Shape>; 4] = [
        vec![
            Shape::Small { len: 2048, seed: 1 },
            Shape::Text { len: 8192 },
        ],
        vec![
            Shape::Small { len: 2049, seed: 2 },
            Shape::Text { len: 8193 },
        ],
        vec![
            Shape::Pattern {
                len: 8193,
                period: 3,
            },
            Shape::Noise { len: 15, seed: 3 },
            Shape::Text { len: 63 },
        ],
        (0..40)
            .map(|i| Shape::Small { len: 40, seed: i })
            .chain([Shape::Text { len: 64 }, Shape::Noise { len: 16, seed: 9 }])
            .collect(),
    ];
    let serial: Vec<Vec<Vec<u8>>> = heaps
        .iter()
        .map(|shapes| {
            let mut heap = shaped_heap(shapes);
            let images = pooled_images(&mut heap);
            assert_eq!(images, cold_images(&mut heap));
            images
        })
        .collect();
    let start = std::sync::Barrier::new(heaps.len());
    std::thread::scope(|scope| {
        let threads: Vec<_> = heaps
            .iter()
            .map(|shapes| {
                let start = &start;
                scope.spawn(move || {
                    let mut heap = shaped_heap(shapes);
                    start.wait();
                    (0..8).map(|_| pooled_images(&mut heap)).collect::<Vec<_>>()
                })
            })
            .collect();
        for (thread, want) in threads.into_iter().zip(&serial) {
            for images in thread.join().expect("encoder thread") {
                assert_eq!(&images, want);
            }
        }
    });
}
