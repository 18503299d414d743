//! Allocation budget of the checkpoint store, measured at the allocator:
//! this test binary installs `mojave_fuzz::cap_alloc::CapAlloc` as the
//! global allocator and reads its high-water mark around each store call.
//!
//! * `put_image` of a full image over a 1 MiB mixed-entropy heap — the
//!   shape the ledger's `ckpt_stream` checkpoints 32 times per op — keeps
//!   the image's heap payload, shared, and allocates at most 4 KiB: the
//!   map node, the name, the small decoded sections.  Serialising the
//!   image again would allocate its whole size.
//! * `load_raw` of that entry hands back the same payload, again within
//!   4 KiB, with nothing parsed.
//! * The stored payload and the delivered image's payload are one
//!   allocation.
//!
//! The allocator counts per thread, so each window sees only its own
//! test's allocations, whatever runs beside it.

use mojave_core::rng::SplitMix64;
use mojave_core::{CheckpointStore, HeapImage, MigrationImage, Process, ProcessConfig};
use mojave_fir::builder::{term, ProgramBuilder};
use mojave_fuzz::cap_alloc::CapAlloc;
use mojave_heap::Word;

#[global_allocator]
static ALLOC: CapAlloc = CapAlloc;

/// What one store call may allocate, whatever the image's size.
const BUDGET: usize = 4 << 10;

/// A full image of 64 arrays of 2048 words (1 MiB), even arrays holding
/// ints below 1000 and odd arrays full 64-bit noise.
fn ckpt_stream_shaped_image() -> MigrationImage {
    let mut pb = ProgramBuilder::new();
    let (main, _) = pb.declare("main", &[]);
    pb.define(main, term::halt(0));
    pb.set_entry(main);
    let mut process = Process::new(pb.finish(), ProcessConfig::default()).unwrap();
    let heap = process.heap_mut();
    let mut rng = SplitMix64::new(12);
    let arrays: Vec<Word> = (0..64)
        .map(|array| {
            let ptr = heap.alloc_array(2048, Word::Int(0)).unwrap();
            for i in 0..2048 {
                let bits = rng.next_u64();
                let value = if array % 2 == 0 { bits % 1000 } else { bits };
                heap.store(ptr, i, Word::Int(value as i64)).unwrap();
            }
            Word::Ptr(ptr)
        })
        .collect();
    process.pack(1, Word::Fun(0), &arrays).unwrap()
}

/// The image's encoded heap payload.
fn payload(image: &MigrationImage) -> &[u8] {
    match &image.heap_image {
        HeapImage::Full(bytes) => bytes,
        HeapImage::Delta { bytes, .. } => bytes,
    }
}

#[test]
fn a_stored_image_shares_its_payload_and_allocates_within_4_kib() {
    let image = ckpt_stream_shaped_image();
    assert!(!image.heap_image.is_delta());
    assert!(
        image.heap_image.len() > 512 << 10,
        "{} payload bytes",
        image.heap_image.len()
    );
    let store = CheckpointStore::new();
    // The first put into an empty store, then an overwrite of the name —
    // the steady state of a rotating checkpoint.
    for round in 0..2 {
        let ((), peak, _) = ALLOC.measure(|| store.put_image("ck", &image));
        assert!(peak <= BUDGET, "put_image {round}: {peak} bytes at peak");
    }

    let (loaded, peak, _) = ALLOC.measure(|| store.load_raw("ck").unwrap());
    assert!(peak <= BUDGET, "load_raw: {peak} bytes at peak");
    assert_eq!(loaded, image);
    // One allocation: the store kept the encoder's bytes, and the load
    // hands them back.
    assert_eq!(payload(&loaded).as_ptr(), payload(&image).as_ptr());

    // What leaves the store as bytes is still the serialised image.
    let bytes = image.to_bytes();
    drop(image);
    assert_eq!(store.get("ck").unwrap(), bytes);
}
