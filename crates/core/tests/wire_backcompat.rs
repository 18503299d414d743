//! Wire-format back-compat: images written in the **v1 layout** (format
//! version 3 — unframed sections, per-word heap blocks) must keep decoding
//! byte-for-byte, and corrupted **v2** images must fail with precise
//! [`WireError`]s rather than panics or silent misreads.
//!
//! The v1 fixture below is assembled by hand from wire primitives — it does
//! not go through `MigrationImage::to_bytes`, so it pins the *layout*, not
//! whatever the current encoder happens to produce.

use mojave_core::{
    CheckpointStore, HeapImage, ImageCode, MigrationImage, Process, ProcessConfig, RunOutcome,
    RuntimeError,
};
use mojave_fir::builder::{term, ProgramBuilder};
use mojave_fir::Program;
use mojave_heap::{HeapConfig, Word};
use mojave_wire::{
    SectionTag, WireCodec, WireError, WireWriter, BATCHED_VERSION, FORMAT_VERSION, MAGIC,
    MIN_SUPPORTED_VERSION,
};

/// The program every fixture carries: `main()` (fun 0, the entry) plus the
/// resume continuation `after(x) { halt x }` (fun 1) — resuming with the
/// single migrate-env word halts with that value.
fn fixture_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let (main, _) = pb.declare("main", &[]);
    pb.define(main, term::halt(0));
    let (after, params) = pb.declare("after", &[("x", mojave_fir::Ty::Int)]);
    pb.define(after, term::halt(params[0]));
    pb.set_entry(main);
    pb.finish()
}

/// Hand-write a v1 (format version 3) checkpoint image, byte by byte:
///
/// ```text
/// Header        tag 0x01, magic, version=3, arch string
/// FirProgram    tag 0x02, program encoding (codec unchanged since v1)
/// HeapBlocks    tag 0x04, length-prefixed legacy heap image:
///                 capacity=1, used=1,
///                 idx=0, block{index=0, kind=MigrateEnv, words=[Int 5]}
/// MigrateEnv    tag 0x06, ptr 0
/// Resume        tag 0x07, Word::Fun(0), label 3
/// Speculation   tag 0x09, 0 open levels
/// ```
fn golden_v1_image_bytes() -> Vec<u8> {
    let mut w = WireWriter::new();

    // Header, version 3 (the v1 layout's version constant).
    w.write_u8(SectionTag::Header as u8);
    w.write_u32(MAGIC);
    w.write_u32(3);
    w.write_str("ia32-sim");

    // Code section: bare tag, no frame length.
    w.write_u8(SectionTag::FirProgram as u8);
    fixture_program().encode(&mut w);

    // Heap section: bare tag + length-prefixed legacy heap bytes.
    let mut heap = WireWriter::new();
    heap.write_usize(1); // pointer-table capacity
    heap.write_usize(1); // one used entry
    heap.write_uvarint(0); // table index 0
    heap.write_uvarint(0); // block header back-reference (same index)
    heap.write_u8(5); // BlockKind::MigrateEnv (position in BlockKind::ALL)
    heap.write_u8(0); // per-word payload marker
    heap.write_uvarint(1); // one word
    heap.write_u8(1); // Word::Int tag
    heap.write_ivarint(5); // the value
    w.write_u8(SectionTag::HeapBlocks as u8);
    w.write_bytes(heap.as_bytes());

    w.write_u8(SectionTag::MigrateEnv as u8);
    w.write_uvarint(0); // migrate_env pointer index

    w.write_u8(SectionTag::Resume as u8);
    w.write_u8(6); // Word::Fun tag
    w.write_uvarint(1); // function 1: `after`
    w.write_uvarint(3); // migration label

    w.write_u8(SectionTag::Speculation as u8);
    w.write_uvarint(0); // no open speculation levels

    w.into_bytes()
}

#[test]
fn golden_v1_image_still_decodes() {
    let bytes = golden_v1_image_bytes();
    let image = MigrationImage::from_bytes(&bytes).expect("v1 image decodes");
    assert_eq!(image.format_version, MIN_SUPPORTED_VERSION);
    assert_eq!(image.source_arch, "ia32-sim");
    assert_eq!(image.label, 3);
    assert_eq!(image.resume_fun, Word::Fun(1));
    assert!(!image.heap_image.is_delta());

    let heap = image
        .decode_heap(HeapConfig::default())
        .expect("v1 heap decodes");
    assert_eq!(heap.load(image.migrate_env, 0).unwrap(), Word::Int(5));

    // Round trip is byte-faithful: re-encoding a decoded v1 image
    // reproduces the fixture exactly.
    assert_eq!(image.to_bytes(), bytes);
}

#[test]
fn golden_v1_image_resumes_execution() {
    let store = CheckpointStore::new();
    store.put("legacy-ck", golden_v1_image_bytes());
    let image = store.load("legacy-ck").unwrap();
    let mut process = Process::from_image(image, ProcessConfig::default()).unwrap();
    assert_eq!(process.run().unwrap(), RunOutcome::Exit(5));
}

/// Hand-write the **base** (full, v4/v2-layout) checkpoint the delta fixture
/// below refers to: a framed image whose heap holds one `MigrateEnv` block
/// `[Int 5]` at pointer index 0.
///
/// ```text
/// Header        tag 0x01, magic, version=4, arch string
/// FirProgram    tag 0x02, u32 frame length, program encoding
/// HeapBlocks    tag 0x04, u32 frame length, length-prefixed payload:
///                 capacity=1, used=1,
///                 idx=0, block{index=0, kind=MigrateEnv,
///                              tag slab [Int], word slab [5]}
/// MigrateEnv    tag 0x06, u32 frame length, ptr 0
/// Resume        tag 0x07, u32 frame length, Word::Fun(1), label 3
/// Speculation   tag 0x09, u32 frame length, 0 open levels
/// ```
fn golden_v4_base_heap_payload() -> Vec<u8> {
    let mut heap = WireWriter::new();
    heap.write_usize(1); // pointer-table capacity
    heap.write_usize(1); // one used entry
    heap.write_uvarint(0); // table index 0
    heap.write_uvarint(0); // block header back-reference (same index)
    heap.write_u8(5); // BlockKind::MigrateEnv (position in BlockKind::ALL)
    heap.write_bytes(&[1]); // batched tag slab: one Word::Int
    heap.write_words(&[5]); // batched payload slab: the value 5
    heap.into_bytes()
}

fn golden_v4_base_image_bytes() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 4); // the v2 layout's version constant
    {
        let mut s = w.begin_section(SectionTag::FirProgram);
        fixture_program().encode(&mut s);
    }
    {
        let mut s = w.begin_section(SectionTag::HeapBlocks);
        s.write_bytes(&golden_v4_base_heap_payload());
    }
    {
        let mut s = w.begin_section(SectionTag::MigrateEnv);
        s.write_uvarint(0);
    }
    {
        let mut s = w.begin_section(SectionTag::Resume);
        s.write_u8(6); // Word::Fun tag
        s.write_uvarint(1); // function 1: `after`
        s.write_uvarint(3); // migration label
    }
    {
        let mut s = w.begin_section(SectionTag::Speculation);
        s.write_uvarint(0);
    }
    w.into_bytes()
}

/// Hand-write a **v4 delta** checkpoint image, byte by byte — the framing
/// this fixture pins can never silently change:
///
/// ```text
/// Header        tag 0x01, magic, version=4, arch string
/// FirProgram    tag 0x02, u32 frame length, program encoding
/// HeapDelta     tag 0x0A, u32 frame length, body:
///                 base name "grid-0-4" (length-prefixed str),
///                 base heap-payload fingerprint (LE u64),
///                 length-prefixed delta payload:
///                   capacity=1, dirty=1,
///                   idx=0, block{index=0, kind=MigrateEnv,
///                                tag slab [Int], word slab [9]},
///                   freed=0
/// MigrateEnv    tag 0x06, u32 frame length, ptr 0
/// Resume        tag 0x07, u32 frame length, Word::Fun(1), label 3
/// Speculation   tag 0x09, u32 frame length, 0 open levels
/// ```
fn golden_v4_delta_image_bytes() -> Vec<u8> {
    let mut delta = WireWriter::new();
    delta.write_usize(1); // pointer-table capacity
    delta.write_usize(1); // one dirty block
    delta.write_uvarint(0); // dirty record index 0
    delta.write_uvarint(0); // block header back-reference (same index)
    delta.write_u8(5); // BlockKind::MigrateEnv
    delta.write_bytes(&[1]); // batched tag slab: one Word::Int
    delta.write_words(&[9]); // batched payload slab: the new value 9
    delta.write_usize(0); // no freed indices

    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 4);
    {
        let mut s = w.begin_section(SectionTag::FirProgram);
        fixture_program().encode(&mut s);
    }
    {
        let mut s = w.begin_section(SectionTag::HeapDelta);
        s.write_str("grid-0-4"); // base checkpoint name
        s.write_u64(mojave_wire::fingerprint(&golden_v4_base_heap_payload()));
        s.write_bytes(delta.as_bytes());
    }
    {
        let mut s = w.begin_section(SectionTag::MigrateEnv);
        s.write_uvarint(0);
    }
    {
        let mut s = w.begin_section(SectionTag::Resume);
        s.write_u8(6); // Word::Fun tag
        s.write_uvarint(1); // function 1: `after`
        s.write_uvarint(3); // migration label
    }
    {
        let mut s = w.begin_section(SectionTag::Speculation);
        s.write_uvarint(0);
    }
    w.into_bytes()
}

#[test]
fn golden_v4_delta_image_still_decodes() {
    let bytes = golden_v4_delta_image_bytes();
    let image = MigrationImage::from_bytes(&bytes).expect("v4 delta image decodes");
    assert_eq!(image.format_version, BATCHED_VERSION);
    assert_eq!(image.source_arch, "ia32-sim");
    assert_eq!(image.label, 3);
    assert_eq!(image.resume_fun, Word::Fun(1));
    assert!(image.heap_image.is_delta());
    assert_eq!(image.heap_image.base(), Some("grid-0-4"));

    // A delta cannot be decoded standalone…
    assert!(image.decode_heap(HeapConfig::default()).is_err());
    // …but resolves against its base image.
    let base = MigrationImage::from_bytes(&golden_v4_base_image_bytes()).expect("base decodes");
    let heap = image
        .decode_heap_with_base(&base, HeapConfig::default())
        .expect("delta resolves");
    assert_eq!(heap.load(image.migrate_env, 0).unwrap(), Word::Int(9));

    // Round trip is byte-faithful: re-encoding a decoded v4 delta image
    // reproduces the fixture exactly, so the delta framing cannot change
    // without this test noticing.
    assert_eq!(image.to_bytes(), bytes);
    assert_eq!(base.to_bytes(), golden_v4_base_image_bytes());
}

#[test]
fn golden_v4_delta_image_resolves_through_the_store_and_resumes() {
    let store = CheckpointStore::new();
    store.put("grid-0-4", golden_v4_base_image_bytes());
    store.put("grid-0-6", golden_v4_delta_image_bytes());
    // load() resolves the delta transparently into a self-contained image…
    let image = store.load("grid-0-6").unwrap();
    assert!(!image.heap_image.is_delta());
    // …that resumes with the delta's heap contents, not the base's.
    let mut process = Process::from_image(image, ProcessConfig::default()).unwrap();
    assert_eq!(process.run().unwrap(), RunOutcome::Exit(9));

    // Base resumption is unchanged by the delta sitting next to it.
    let mut base =
        Process::from_image(store.load("grid-0-4").unwrap(), ProcessConfig::default()).unwrap();
    assert_eq!(base.run().unwrap(), RunOutcome::Exit(5));
}

/// Hand-write a **v5** checkpoint image, byte by byte — the compressed
/// section framing this fixture pins can never silently change:
///
/// ```text
/// Header        tag 0x01, magic, version=5, arch string
/// FirProgram    tag 0x02, u32 frame length, program encoding
/// HeapBlocks    tag 0x04, u32 frame length, length-prefixed payload:
///                 capacity=1, used=1, then four codec-tagged frames:
///                 meta  [raw_len=3,  codec=Raw(0),    bytes [idx=0, kind=5, len=1]]
///                 tags  [raw_len=1,  codec=Raw(0),    bytes [1]       (Word::Int)]
///                 words [count=1,    codec=Varint(1), bytes [10]      (zigzag Δ5)]
///                 bytes [raw_len=0,  codec=Raw(0),    bytes []]
/// MigrateEnv    tag 0x06, u32 frame length, ptr 0
/// Resume        tag 0x07, u32 frame length, Word::Fun(1), label 3
/// Speculation   tag 0x09, u32 frame length, 0 open levels
/// ```
fn golden_v5_heap_payload() -> Vec<u8> {
    let mut heap = WireWriter::new();
    heap.write_usize(1); // pointer-table capacity
    heap.write_usize(1); // one used entry
                         // meta frame (Raw): idx 0, BlockKind::MigrateEnv, one word.
    heap.write_uvarint(3); // declared raw length
    heap.write_u8(0); // CodecId::Raw
    heap.write_bytes(&[0, 5, 1]);
    // tag-slab frame (Raw): one Word::Int tag.
    heap.write_uvarint(1);
    heap.write_u8(0);
    heap.write_bytes(&[1]);
    // word-slab frame (Varint): the value 5 → delta 5 → zig-zag 10.
    heap.write_uvarint(1); // word count
    heap.write_u8(1); // CodecId::Varint
    heap.write_bytes(&[10]);
    // byte-slab frame (Raw): empty.
    heap.write_uvarint(0);
    heap.write_u8(0);
    heap.write_bytes(&[]);
    heap.into_bytes()
}

fn golden_v5_image_bytes() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 5); // the v5 layout's version constant
    {
        let mut s = w.begin_section(SectionTag::FirProgram);
        fixture_program().encode(&mut s);
    }
    {
        let mut s = w.begin_section(SectionTag::HeapBlocks);
        s.write_bytes(&golden_v5_heap_payload());
    }
    {
        let mut s = w.begin_section(SectionTag::MigrateEnv);
        s.write_uvarint(0);
    }
    {
        let mut s = w.begin_section(SectionTag::Resume);
        s.write_u8(6); // Word::Fun tag
        s.write_uvarint(1); // function 1: `after`
        s.write_uvarint(3); // migration label
    }
    {
        let mut s = w.begin_section(SectionTag::Speculation);
        s.write_uvarint(0);
    }
    w.into_bytes()
}

#[test]
fn golden_v5_image_decodes_and_reencodes_byte_faithfully() {
    let bytes = golden_v5_image_bytes();
    let image = MigrationImage::from_bytes(&bytes).expect("v5 image decodes");
    assert_eq!(image.format_version, FORMAT_VERSION);
    assert_eq!(image.source_arch, "ia32-sim");
    assert_eq!(image.label, 3);
    assert_eq!(image.resume_fun, Word::Fun(1));
    assert!(!image.heap_image.is_delta());

    let heap = image
        .decode_heap(HeapConfig::default())
        .expect("compressed v5 heap decodes");
    assert_eq!(heap.load(image.migrate_env, 0).unwrap(), Word::Int(5));

    // Byte-faithful: re-encoding a decoded v5 image reproduces the
    // hand-written fixture exactly, so the compressed section framing
    // cannot change without this test noticing.
    assert_eq!(image.to_bytes(), bytes);
}

#[test]
fn golden_v5_image_resumes_execution() {
    let store = CheckpointStore::new();
    store.put("v5-ck", golden_v5_image_bytes());
    let image = store.load("v5-ck").unwrap();
    let mut process = Process::from_image(image, ProcessConfig::default()).unwrap();
    assert_eq!(process.run().unwrap(), RunOutcome::Exit(5));
}

/// The **v5 delta** heap payload the fixture below carries: the slab-delta
/// framing (capacity, dirty count, the same four codec-tagged frames as a
/// full v5 image, then the freed-index fixup list).
///
/// ```text
/// capacity=1, dirty=1
/// meta  [raw_len=3,  codec=Raw(0),    bytes [idx=0, kind=5, len=1]]
/// tags  [raw_len=1,  codec=Raw(0),    bytes [1]       (Word::Int)]
/// words [count=1,    codec=Varint(1), bytes [18]      (zigzag Δ9)]
/// bytes [raw_len=0,  codec=Raw(0),    bytes []]
/// freed=0
/// ```
fn golden_v5_delta_payload() -> Vec<u8> {
    let mut delta = WireWriter::new();
    delta.write_usize(1); // pointer-table capacity
    delta.write_usize(1); // one dirty record
                          // meta frame (Raw): idx 0, BlockKind::MigrateEnv, one word.
    delta.write_uvarint(3);
    delta.write_u8(0);
    delta.write_bytes(&[0, 5, 1]);
    // tag-slab frame (Raw): one Word::Int tag.
    delta.write_uvarint(1);
    delta.write_u8(0);
    delta.write_bytes(&[1]);
    // word-slab frame (Varint): the new value 9 → delta 9 → zig-zag 18.
    delta.write_uvarint(1);
    delta.write_u8(1);
    delta.write_bytes(&[18]);
    // byte-slab frame (Raw): empty.
    delta.write_uvarint(0);
    delta.write_u8(0);
    delta.write_bytes(&[]);
    delta.write_usize(0); // no freed indices
    delta.into_bytes()
}

/// Hand-write a **v5 delta** checkpoint image, byte by byte — the delta
/// counterpart of the full v5 fixture above (the existing delta golden
/// only covered the batched v4 layout):
///
/// ```text
/// Header        tag 0x01, magic, version=5, arch string
/// FirProgram    tag 0x02, u32 frame length, program encoding
/// HeapDelta     tag 0x0A, u32 frame length, body:
///                 base name "v5-ck" (length-prefixed str),
///                 base heap-payload fingerprint (LE u64),
///                 length-prefixed slab-delta payload (see
///                 `golden_v5_delta_payload`)
/// MigrateEnv    tag 0x06, u32 frame length, ptr 0
/// Resume        tag 0x07, u32 frame length, Word::Fun(1), label 3
/// Speculation   tag 0x09, u32 frame length, 0 open levels
/// ```
fn golden_v5_delta_image_bytes() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 5);
    {
        let mut s = w.begin_section(SectionTag::FirProgram);
        fixture_program().encode(&mut s);
    }
    {
        let mut s = w.begin_section(SectionTag::HeapDelta);
        s.write_str("v5-ck"); // base checkpoint name
        s.write_u64(mojave_wire::fingerprint(&golden_v5_heap_payload()));
        s.write_bytes(&golden_v5_delta_payload());
    }
    {
        let mut s = w.begin_section(SectionTag::MigrateEnv);
        s.write_uvarint(0);
    }
    {
        let mut s = w.begin_section(SectionTag::Resume);
        s.write_u8(6); // Word::Fun tag
        s.write_uvarint(1); // function 1: `after`
        s.write_uvarint(3); // migration label
    }
    {
        let mut s = w.begin_section(SectionTag::Speculation);
        s.write_uvarint(0);
    }
    w.into_bytes()
}

#[test]
fn golden_v5_delta_image_decodes_and_reencodes_byte_faithfully() {
    let bytes = golden_v5_delta_image_bytes();
    let image = MigrationImage::from_bytes(&bytes).expect("v5 delta image decodes");
    assert_eq!(image.format_version, FORMAT_VERSION);
    assert_eq!(image.source_arch, "ia32-sim");
    assert_eq!(image.label, 3);
    assert_eq!(image.resume_fun, Word::Fun(1));
    assert!(image.heap_image.is_delta());
    assert_eq!(image.heap_image.base(), Some("v5-ck"));

    // A delta cannot be decoded standalone…
    assert!(image.decode_heap(HeapConfig::default()).is_err());
    // …but resolves against the full v5 golden as its base.
    let base = MigrationImage::from_bytes(&golden_v5_image_bytes()).expect("base decodes");
    let heap = image
        .decode_heap_with_base(&base, HeapConfig::default())
        .expect("v5 delta resolves");
    assert_eq!(heap.load(image.migrate_env, 0).unwrap(), Word::Int(9));

    // Byte-faithful: re-encoding a decoded v5 delta image reproduces the
    // hand-written fixture exactly, so the slab-delta framing cannot
    // change without this test noticing.
    assert_eq!(image.to_bytes(), bytes);
}

#[test]
fn golden_v5_delta_payload_matches_the_live_encoder() {
    // The fixture above pins what decoders must *accept* (its word frame
    // uses Varint); this pins what the current slab-delta encoder
    // *produces* for the same state change — for a single word the size
    // heuristic keeps the frame Raw.  Both decode to the same heap.
    let base = MigrationImage::from_bytes(&golden_v5_image_bytes()).unwrap();
    let mut heap = base.decode_heap(HeapConfig::default()).unwrap();
    heap.mark_clean();
    heap.store(base.migrate_env, 0, Word::Int(9)).unwrap();
    let mut w = WireWriter::new();
    heap.freeze()
        .image_records(mojave_heap::ImageKind::Delta)
        .unwrap()
        .encode(&mut w, mojave_wire::CodecSet::all());

    let mut expect = WireWriter::new();
    expect.write_usize(1); // pointer-table capacity
    expect.write_usize(1); // one dirty record
    expect.write_uvarint(3); // meta frame (Raw)
    expect.write_u8(0);
    expect.write_bytes(&[0, 5, 1]);
    expect.write_uvarint(1); // tag-slab frame (Raw)
    expect.write_u8(0);
    expect.write_bytes(&[1]);
    expect.write_uvarint(1); // word-slab frame: Raw wins for one word
    expect.write_u8(0);
    expect.write_bytes(&9u64.to_le_bytes());
    expect.write_uvarint(0); // byte-slab frame (Raw): empty
    expect.write_u8(0);
    expect.write_bytes(&[]);
    expect.write_usize(0); // no freed indices
    assert_eq!(w.into_bytes(), expect.into_bytes());
}

#[test]
fn golden_v5_delta_image_resolves_through_the_store_and_resumes() {
    let store = CheckpointStore::new();
    store.put("v5-ck", golden_v5_image_bytes());
    store.put("v5-ck-delta", golden_v5_delta_image_bytes());
    // load() resolves the delta transparently into a self-contained image…
    let image = store.load("v5-ck-delta").unwrap();
    assert!(!image.heap_image.is_delta());
    // …that resumes with the delta's heap contents, not the base's.
    let mut process = Process::from_image(image, ProcessConfig::default()).unwrap();
    assert_eq!(process.run().unwrap(), RunOutcome::Exit(9));

    // Base resumption is unchanged by the delta sitting next to it.
    let mut base =
        Process::from_image(store.load("v5-ck").unwrap(), ProcessConfig::default()).unwrap();
    assert_eq!(base.run().unwrap(), RunOutcome::Exit(5));
}

/// Hand-write a **by-reference v5 delta** checkpoint image, byte by byte:
/// the v5 delta above with its code section replaced by a reference to
/// the base's code.
///
/// ```text
/// Header        tag 0x01, magic, version=5, arch string
/// CodeRef       tag 0x0B, u32 frame length 8, body: the base's code
///                 fingerprint (LE u64) — FNV-1a over the FirProgram tag
///                 byte 0x02 followed by the program encoding
/// HeapDelta     tag 0x0A, u32 frame length, body as in the v5 delta
/// MigrateEnv    tag 0x06, u32 frame length, ptr 0
/// Resume        tag 0x07, u32 frame length, Word::Fun(1), label 3
/// Speculation   tag 0x09, u32 frame length, 0 open levels
/// ```
fn golden_v5_ref_delta_image_bytes() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 5);
    {
        let mut s = w.begin_section(SectionTag::CodeRef);
        s.write_u64(fixture_code_fingerprint());
    }
    {
        let mut s = w.begin_section(SectionTag::HeapDelta);
        s.write_str("v5-ck"); // base checkpoint name
        s.write_u64(mojave_wire::fingerprint(&golden_v5_heap_payload()));
        s.write_bytes(&golden_v5_delta_payload());
    }
    {
        let mut s = w.begin_section(SectionTag::MigrateEnv);
        s.write_uvarint(0);
    }
    {
        let mut s = w.begin_section(SectionTag::Resume);
        s.write_u8(6); // Word::Fun tag
        s.write_uvarint(1); // function 1: `after`
        s.write_uvarint(3); // migration label
    }
    {
        let mut s = w.begin_section(SectionTag::Speculation);
        s.write_uvarint(0);
    }
    w.into_bytes()
}

/// The code fingerprint a delta against a base carrying
/// `fixture_program()` as FIR names: over the section's tag and body.
fn fixture_code_fingerprint() -> u64 {
    let mut section = vec![SectionTag::FirProgram as u8];
    section.extend(mojave_wire::to_bytes(&fixture_program()));
    mojave_wire::fingerprint(&section)
}

#[test]
fn golden_by_reference_delta_decodes_reencodes_resolves_and_resumes() {
    let bytes = golden_v5_ref_delta_image_bytes();
    let image = MigrationImage::from_bytes(&bytes).expect("by-reference delta decodes");
    assert_eq!(image.format_version, FORMAT_VERSION);
    assert_eq!(image.heap_image.base(), Some("v5-ck"));
    assert_eq!(
        image.code,
        ImageCode::Base {
            fingerprint: fixture_code_fingerprint()
        }
    );
    let base = MigrationImage::from_bytes(&golden_v5_image_bytes()).unwrap();
    assert_eq!(image.code.fingerprint(), base.code.fingerprint());

    // Byte-faithful, and 13 bytes of code where the inline-code delta
    // carries the whole program section.
    assert_eq!(image.to_bytes(), bytes);
    assert_eq!(image.byte_size(), bytes.len());
    let program_len = mojave_wire::to_bytes(&fixture_program()).len();
    assert_eq!(
        bytes.len(),
        golden_v5_delta_image_bytes().len() - (5 + program_len) + 13
    );

    // Unresolved, it has no code to run.
    match Process::from_image(image, ProcessConfig::default()) {
        Err(RuntimeError::MigrationRejected(msg)) => {
            assert!(msg.contains("needs its base checkpoint `v5-ck`"), "{msg}")
        }
        other => panic!("expected the needs-its-base rejection, got {other:?}"),
    }

    // Resolved through the store, it resumes with the base's code and the
    // delta's heap.
    let store = CheckpointStore::new();
    store.put("v5-ck", golden_v5_image_bytes());
    store.put("v5-ck-ref", bytes);
    let resolved = store.load("v5-ck-ref").unwrap();
    assert!(!resolved.heap_image.is_delta());
    assert_eq!(resolved.code, base.code);
    let mut process = Process::from_image(resolved, ProcessConfig::default()).unwrap();
    assert_eq!(process.run().unwrap(), RunOutcome::Exit(9));
}

#[test]
fn a_base_overwritten_by_a_different_program_with_an_identical_heap_is_rejected() {
    let base = MigrationImage::from_bytes(&golden_v5_image_bytes()).unwrap();
    let mut pb = ProgramBuilder::new();
    let (main, _) = pb.declare("main", &[]);
    pb.define(main, term::halt(0));
    let (after, _) = pb.declare("after", &[("x", mojave_fir::Ty::Int)]);
    pb.define(after, term::halt(7)); // not the program the delta resumes
    pb.set_entry(main);
    let overwritten = MigrationImage {
        code: pb.finish().into(),
        ..base.clone()
    };
    // The heap check alone would accept this base.
    assert_eq!(
        overwritten.heap_image.fingerprint(),
        base.heap_image.fingerprint()
    );
    let store = CheckpointStore::new();
    store.put("v5-ck", overwritten.to_bytes());
    store.put("v5-ck-ref", golden_v5_ref_delta_image_bytes());
    match store.load("v5-ck-ref") {
        Err(RuntimeError::MigrationRejected(msg)) => assert!(
            msg.contains("base checkpoint `v5-ck` does not carry the code"),
            "{msg}"
        ),
        other => panic!("expected a code mismatch, got {other:?}"),
    }
}

#[test]
fn a_code_reference_outside_a_delta_or_cut_short_is_a_precise_error() {
    let image = |code_ref: &[u8]| {
        let mut w = WireWriter::new();
        w.write_header_versioned("ia32-sim", 5);
        w.begin_section(SectionTag::CodeRef).write_raw(code_ref);
        w.begin_section(SectionTag::HeapBlocks)
            .write_bytes(&golden_v5_heap_payload());
        w.begin_section(SectionTag::MigrateEnv).write_uvarint(0);
        {
            let mut s = w.begin_section(SectionTag::Resume);
            s.write_u8(6); // Word::Fun tag
            s.write_uvarint(1); // function 1: `after`
            s.write_uvarint(3); // migration label
        }
        w.begin_section(SectionTag::Speculation).write_uvarint(0);
        w.into_bytes()
    };
    let fingerprint = fixture_code_fingerprint().to_le_bytes();

    // A full image must carry its code: it has no base to name.
    assert_eq!(
        MigrationImage::from_bytes(&image(&fingerprint)).unwrap_err(),
        WireError::SectionMismatch {
            expected: "FirProgram (a full image carries its code)",
            found: SectionTag::CodeRef as u8,
        }
    );
    // A reference cut short, or with bytes after the fingerprint.
    assert!(matches!(
        MigrationImage::from_bytes(&image(&fingerprint[..4])).unwrap_err(),
        WireError::UnexpectedEof { .. }
    ));
    assert_eq!(
        MigrationImage::from_bytes(&image(&[fingerprint.as_slice(), &[0]].concat())).unwrap_err(),
        WireError::TrailingBytes { remaining: 1 }
    );
    // A v1 image cannot carry one at all.
    let mut v1 = golden_v1_image_bytes();
    let mut header = WireWriter::new();
    header.write_header_versioned("ia32-sim", MIN_SUPPORTED_VERSION);
    v1[header.len()] = SectionTag::CodeRef as u8;
    assert!(matches!(
        MigrationImage::from_bytes(&v1).unwrap_err(),
        WireError::SectionMismatch { found: 0x0B, .. }
    ));
}

/// The retired `Bytecode` code section (tag 0x08): what a binary-migration
/// image carried before compiled code stopped travelling.  A v1 image (bare
/// tag) and a v5 image (framed) whose code section is tagged 0x08 and holds
/// a plausible body — an architecture string, then one function `after`
/// (one register, one parameter, `Halt r0`) and entry 0 — are rejected at
/// the code section, naming the tag.  The rest of each image is its golden
/// fixture's.
#[test]
fn images_with_a_retired_bytecode_section_are_rejected_precisely() {
    let mut body = WireWriter::new();
    body.write_str("ia32-sim");
    body.write_uvarint(1); // one function
    body.write_str("after");
    body.write_uvarint(1); // nregs
    body.write_uvarint(1); // nparams
    body.write_uvarint(1); // one instruction
    body.write_u8(19); // Halt
    body.write_uvarint(0); // r0
    body.write_uvarint(0); // entry
    let body = body.into_bytes();

    let mut header = WireWriter::new();
    header.write_header_versioned("ia32-sim", MIN_SUPPORTED_VERSION);
    let header_len = header.len();
    let program_len = mojave_wire::to_bytes(&fixture_program()).len();

    let v1 = golden_v1_image_bytes();
    let mut retired_v1 = v1[..header_len].to_vec();
    retired_v1.push(SectionTag::Bytecode as u8);
    retired_v1.extend_from_slice(&body);
    retired_v1.extend_from_slice(&v1[header_len + 1 + program_len..]);

    let v5 = golden_v5_image_bytes();
    let mut retired_v5 = WireWriter::new();
    retired_v5.write_header_versioned("ia32-sim", 5);
    retired_v5
        .begin_section(SectionTag::Bytecode)
        .write_raw(&body);
    let mut retired_v5 = retired_v5.into_bytes();
    retired_v5.extend_from_slice(&v5[header_len + 5 + program_len..]);

    for (layout, bytes) in [("v1", retired_v1), ("v5", retired_v5)] {
        match MigrationImage::from_bytes(&bytes) {
            Err(WireError::SectionMismatch { found, .. }) => assert_eq!(found, 0x08, "{layout}"),
            other => panic!("{layout}: expected a SectionMismatch on tag 0x08, got {other:?}"),
        }
    }
}

/// A sink that advertises a fixed codec set.
struct AcceptingSink(mojave_wire::CodecSet);

impl mojave_core::MigrationSink for AcceptingSink {
    fn deliver(
        &mut self,
        _protocol: mojave_fir::MigrateProtocol,
        _target: &str,
        _image: &MigrationImage,
    ) -> mojave_core::DeliveryOutcome {
        mojave_core::DeliveryOutcome::Stored
    }

    fn accepted_codecs(&self) -> mojave_wire::CodecSet {
        self.0
    }
}

#[test]
fn raw_only_sinks_receive_v5_images_whose_every_frame_is_raw() {
    // v5 is the one layout written: a sink that accepts only `{Raw}` gets
    // v5 images whose four slab frames are all stored Raw, while the same
    // small-int heap packed for a sink accepting every codec compresses.
    use mojave_wire::{CodecId, CodecSet, WireReader};
    let pack = |codecs| {
        let mut process = Process::new(fixture_program(), ProcessConfig::default())
            .unwrap()
            .with_sink(Box::new(AcceptingSink(codecs)));
        let ints = process.heap_mut().alloc_array(300, Word::Int(7)).unwrap();
        let image = process.pack(3, Word::Fun(1), &[Word::Ptr(ints)]).unwrap();
        (image, ints)
    };
    let frame_codecs = |image: &MigrationImage| {
        let HeapImage::Full(payload) = &image.heap_image else {
            panic!("pack writes full images");
        };
        let mut r = WireReader::new(payload);
        r.read_usize().unwrap(); // table capacity
        r.read_usize().unwrap(); // record count
        let codecs: Vec<u8> = (0..4)
            .map(|_| {
                r.read_uvarint().unwrap(); // declared raw length
                let codec = r.read_u8().unwrap();
                r.read_bytes().unwrap();
                codec
            })
            .collect();
        assert!(r.is_empty());
        codecs
    };

    let (raw, ints) = pack(CodecSet::raw_only());
    assert_eq!(raw.format_version, FORMAT_VERSION);
    assert_eq!(frame_codecs(&raw), [CodecId::Raw as u8; 4]);
    let back = MigrationImage::from_bytes(&raw.to_bytes()).unwrap();
    assert_eq!(back.format_version, FORMAT_VERSION);
    let heap = back.decode_heap(HeapConfig::default()).unwrap();
    assert_eq!(heap.load(ints, 299).unwrap(), Word::Int(7));

    let (compressed, _) = pack(CodecSet::all());
    assert_eq!(compressed.format_version, FORMAT_VERSION);
    assert!(frame_codecs(&compressed)
        .iter()
        .any(|&codec| codec != CodecId::Raw as u8));
    // The small-int payload collapses: the compressed heap is a quarter
    // of the Raw one or less.
    assert!(compressed.heap_image.len() * 4 <= raw.heap_image.len());
}

#[test]
fn sync_and_snapshot_packs_negotiate_and_encode_alike() {
    // The synchronous pack and the deferred snapshot pack resolve the
    // sink's codecs against the configured preference the same way and
    // write the same image: v5 for every sink, `{Raw}` included, and the
    // same bytes, full and delta alike.  The heap is garbage-free, so the
    // synchronous pack's collection changes nothing either side sees.
    use mojave_wire::{CodecId, CodecSet};
    for accepted in [
        CodecSet::raw_only(),
        CodecSet::all(),
        CodecSet::only(CodecId::Lz),
    ] {
        for heap_codec in [None, Some(CodecId::Varint), Some(CodecId::Lz)] {
            for delta in [false, true] {
                let build = || {
                    let config = ProcessConfig {
                        heap_codec,
                        ..ProcessConfig::default()
                    };
                    let mut process = Process::new(fixture_program(), config)
                        .unwrap()
                        .with_sink(Box::new(AcceptingSink(accepted)));
                    let heap = process.heap_mut();
                    let ints = heap.alloc_array(300, Word::Int(0)).unwrap();
                    for i in 0..300 {
                        heap.store(ints, i, Word::Int(i % 50)).unwrap();
                    }
                    let text = heap.alloc_str("pack parity").unwrap();
                    let raw = heap.alloc_raw(64).unwrap();
                    heap.store_raw(raw, 8, 8, 0x0102_0304).unwrap();
                    let root = heap
                        .alloc_tuple(vec![Word::Ptr(ints), Word::Ptr(text), Word::Ptr(raw)])
                        .unwrap();
                    if delta {
                        heap.mark_clean();
                        heap.store(ints, 3, Word::Int(-7)).unwrap();
                    }
                    (process, [Word::Ptr(root)])
                };
                let (mut sync, args) = build();
                let (mut deferred, _) = build();
                let base = delta.then_some(("base", 77));
                let packed = match base {
                    None => sync.pack(4, Word::Fun(1), &args),
                    Some((name, fp)) => sync.pack_delta(4, Word::Fun(1), &args, name, fp),
                }
                .unwrap();
                let frozen = deferred
                    .pack_snapshot(4, Word::Fun(1), &args, base)
                    .unwrap()
                    .into_image()
                    .unwrap();
                let case = format!("{accepted:?}, heap_codec {heap_codec:?}, delta {delta}");
                assert_eq!(packed.format_version, FORMAT_VERSION, "{case}");
                assert_eq!(frozen.format_version, FORMAT_VERSION, "{case}");
                assert_eq!(packed.heap_image.is_delta(), delta, "{case}");
                assert_eq!(packed.to_bytes(), frozen.to_bytes(), "{case}");
            }
        }
    }
}

#[test]
fn golden_fixtures_survive_the_v5_bump() {
    // The version constants moved under this PR (FORMAT_VERSION 4 → 5);
    // both legacy golden images must keep decoding unchanged, each under
    // its original version, next to freshly packed v5 images.
    let v1 = MigrationImage::from_bytes(&golden_v1_image_bytes()).expect("v1 decodes");
    assert_eq!(v1.format_version, MIN_SUPPORTED_VERSION);
    assert_eq!(
        v1.decode_heap(HeapConfig::default())
            .unwrap()
            .load(v1.migrate_env, 0)
            .unwrap(),
        Word::Int(5)
    );

    let v4 = MigrationImage::from_bytes(&golden_v4_base_image_bytes()).expect("v4 decodes");
    assert_eq!(v4.format_version, BATCHED_VERSION);
    assert_eq!(
        v4.decode_heap(HeapConfig::default())
            .unwrap()
            .load(v4.migrate_env, 0)
            .unwrap(),
        Word::Int(5)
    );

    assert_eq!(packed_v2_image().format_version, FORMAT_VERSION);
    assert_eq!(FORMAT_VERSION, 5, "bump this fixture set with the format");
}

/// A freshly packed (v2) image for the corruption tests.
fn packed_v2_image() -> MigrationImage {
    let mut process = Process::new(fixture_program(), ProcessConfig::default()).unwrap();
    process.pack(3, Word::Fun(1), &[Word::Int(5)]).unwrap()
}

#[test]
fn v2_images_use_the_current_version_and_roundtrip() {
    let image = packed_v2_image();
    assert_eq!(image.format_version, FORMAT_VERSION);
    let bytes = image.to_bytes();
    let back = MigrationImage::from_bytes(&bytes).unwrap();
    assert_eq!(back, image);
    assert_eq!(back.to_bytes(), bytes);
}

#[test]
fn truncated_v2_image_reports_unexpected_eof() {
    let bytes = packed_v2_image().to_bytes();
    // Cut inside the last framed section's body.
    let err = MigrationImage::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
    assert!(
        matches!(err, WireError::UnexpectedEof { .. }),
        "got {err:?}"
    );
    // Cut in the middle of the image: the then-current section frame
    // claims more bytes than remain.
    let err = MigrationImage::from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
    assert!(
        matches!(err, WireError::UnexpectedEof { .. }),
        "got {err:?}"
    );
}

#[test]
fn corrupted_v2_section_reports_precise_errors() {
    let image = packed_v2_image();
    let bytes = image.to_bytes();

    // Clobber the first framed section's tag byte (right after the
    // header): unknown tags are a BadTag with the section-frame context.
    let header_len = {
        let mut w = WireWriter::new();
        w.write_header("ia32-sim");
        w.len()
    };
    let mut corrupt = bytes.clone();
    corrupt[header_len] = 0xEE;
    let err = MigrationImage::from_bytes(&corrupt).unwrap_err();
    assert!(
        matches!(
            err,
            WireError::BadTag {
                context: "section frame",
                ..
            }
        ),
        "got {err:?}"
    );

    // Swap it for a *known but out-of-place* tag instead: SectionMismatch.
    let mut corrupt = bytes.clone();
    corrupt[header_len] = SectionTag::Speculation as u8;
    let err = MigrationImage::from_bytes(&corrupt).unwrap_err();
    assert!(
        matches!(err, WireError::SectionMismatch { .. }),
        "got {err:?}"
    );

    // Inflate a section length so the frame overruns the buffer.
    let mut corrupt = bytes.clone();
    corrupt[header_len + 4] = 0xFF; // high byte of the u32 frame length
    let err = MigrationImage::from_bytes(&corrupt).unwrap_err();
    assert!(
        matches!(
            err,
            WireError::UnexpectedEof {
                context: "section body",
                ..
            }
        ),
        "got {err:?}"
    );

    // A migrate_env pointer beyond 32 bits is rejected, never truncated
    // to the valid index 1.
    let mut r = mojave_wire::WireReader::new(&bytes);
    r.read_header().unwrap();
    r.read_framed().unwrap(); // code
    r.read_framed().unwrap(); // heap
    let env_at = r.position();
    r.read_framed().unwrap(); // migrate_env
    let mut w = WireWriter::new();
    w.write_raw(&bytes[..env_at]);
    w.begin_section(SectionTag::MigrateEnv)
        .write_uvarint((1 << 32) + 1);
    w.write_raw(&bytes[r.position()..]);
    assert_eq!(
        MigrationImage::from_bytes(&w.into_bytes()).unwrap_err(),
        WireError::LengthOverflow {
            context: "migrate_env pointer",
            len: (1 << 32) + 1,
        }
    );

    // Bad magic and unsupported version still fail first.
    let mut corrupt = bytes.clone();
    corrupt[1] ^= 0xFF;
    assert!(matches!(
        MigrationImage::from_bytes(&corrupt).unwrap_err(),
        WireError::BadMagic { .. }
    ));
    let mut corrupt = bytes;
    corrupt[5] = 0xFF; // version field
    assert!(matches!(
        MigrationImage::from_bytes(&corrupt).unwrap_err(),
        WireError::VersionMismatch { .. }
    ));
}

#[test]
fn delta_with_corrupted_payload_is_rejected() {
    let image = packed_v2_image();
    let HeapImage::Full(full_bytes) = &image.heap_image else {
        panic!("packed image is full");
    };
    // A "delta" whose bytes are actually a full image: even with a correct
    // base fingerprint, the block-count or trailing-bytes check must catch
    // it — never a panic.
    let bogus = MigrationImage {
        heap_image: HeapImage::Delta {
            base: "ck".into(),
            base_fingerprint: image.heap_image.fingerprint(),
            bytes: full_bytes.clone(),
        },
        ..image.clone()
    };
    assert!(bogus
        .decode_heap_with_base(&image, HeapConfig::default())
        .is_err());

    // And a stale fingerprint is itself a rejection, before any merging.
    let stale = MigrationImage {
        heap_image: HeapImage::Delta {
            base: "ck".into(),
            base_fingerprint: 0xDEAD_BEEF,
            bytes: vec![0, 0, 0].into(),
        },
        ..image.clone()
    };
    assert!(stale
        .decode_heap_with_base(&image, HeapConfig::default())
        .is_err());
}
