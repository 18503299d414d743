//! Hostile-input corpus and mutation engine for the wire decoder.
//!
//! The corpus mixes **hand-written goldens** for every supported layout —
//! v1 (unframed, per-word blocks), v4 (framed, batched slabs, full and
//! delta) and v5 (framed, codec-tagged slabs, full, delta with inline code
//! and delta naming its base's code by a `CodeRef`) — with **freshly
//! packed** images from real processes (v5 full, v5 delta and v5 with
//! `BitPack` word frames), so mutations land on every decode path the
//! runtime has.
//!
//! [`mutate`] applies one seeded mutation: byte flips, a truncation, or a
//! length-field inflation (0xFF splats that turn frame lengths into
//! multi-gigabyte claims).  The property the harness asserts for each
//! mutant: `MigrationImage::from_bytes` either succeeds or returns a
//! precise [`WireError`](mojave_wire::WireError) — never a panic — and a
//! successfully parsed mutant can be heap-decoded and re-encoded without
//! panicking either.  A parsed **full** mutant — one that carries its FIR,
//! the one form of code an image can carry — goes further: it is resumed
//! (`Process::from_image`, which validates and type-checks the FIR before
//! recompiling it) and run under a short step budget — the outcome must be
//! a clean run or a precise [`RuntimeError`](mojave_core::RuntimeError).
//! Truncations must always fail: every layout ends with either a required
//! section or a trailing-bytes check.

use mojave_core::rng::SplitMix64;
use mojave_core::{
    CheckpointStore, InMemorySink, MigrationImage, Process, ProcessConfig, RunOutcome,
};
use mojave_fir::builder::{term, ProgramBuilder};
use mojave_fir::Program;
use mojave_wire::{CodecId, SectionTag, WireCodec, WireWriter, MAGIC};

// ---------------------------------------------------------------------------
// Hand-written goldens (mirroring crates/core/tests/wire_backcompat.rs)
// ---------------------------------------------------------------------------

/// `main()` halting 0, plus the resume continuation `after(x) { halt x }`.
fn fixture_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let (main, _) = pb.declare("main", &[]);
    pb.define(main, term::halt(0));
    let (after, params) = pb.declare("after", &[("x", mojave_fir::Ty::Int)]);
    pb.define(after, term::halt(params[0]));
    pb.set_entry(main);
    pb.finish()
}

fn golden_v1() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_u8(SectionTag::Header as u8);
    w.write_u32(MAGIC);
    w.write_u32(3);
    w.write_str("ia32-sim");
    w.write_u8(SectionTag::FirProgram as u8);
    fixture_program().encode(&mut w);
    let mut heap = WireWriter::new();
    heap.write_usize(1);
    heap.write_usize(1);
    heap.write_uvarint(0);
    heap.write_uvarint(0);
    heap.write_u8(5); // BlockKind::MigrateEnv
    heap.write_u8(0); // per-word payload marker
    heap.write_uvarint(1);
    heap.write_u8(1); // Word::Int
    heap.write_ivarint(5);
    w.write_u8(SectionTag::HeapBlocks as u8);
    w.write_bytes(heap.as_bytes());
    w.write_u8(SectionTag::MigrateEnv as u8);
    w.write_uvarint(0);
    w.write_u8(SectionTag::Resume as u8);
    w.write_u8(6); // Word::Fun
    w.write_uvarint(1);
    w.write_uvarint(3);
    w.write_u8(SectionTag::Speculation as u8);
    w.write_uvarint(0);
    w.into_bytes()
}

fn framed_tail(w: &mut WireWriter) {
    {
        let mut s = w.begin_section(SectionTag::MigrateEnv);
        s.write_uvarint(0);
    }
    {
        let mut s = w.begin_section(SectionTag::Resume);
        s.write_u8(6); // Word::Fun
        s.write_uvarint(1);
        s.write_uvarint(3);
    }
    {
        let mut s = w.begin_section(SectionTag::Speculation);
        s.write_uvarint(0);
    }
}

fn golden_v4_base_heap_payload() -> Vec<u8> {
    let mut heap = WireWriter::new();
    heap.write_usize(1);
    heap.write_usize(1);
    heap.write_uvarint(0);
    heap.write_uvarint(0);
    heap.write_u8(5); // BlockKind::MigrateEnv
    heap.write_bytes(&[1]); // batched tag slab: one Word::Int
    heap.write_words(&[5]); // batched payload slab
    heap.into_bytes()
}

fn golden_v4_base() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 4);
    {
        let mut s = w.begin_section(SectionTag::FirProgram);
        fixture_program().encode(&mut s);
    }
    {
        let mut s = w.begin_section(SectionTag::HeapBlocks);
        s.write_bytes(&golden_v4_base_heap_payload());
    }
    framed_tail(&mut w);
    w.into_bytes()
}

fn golden_v4_delta() -> Vec<u8> {
    let mut delta = WireWriter::new();
    delta.write_usize(1);
    delta.write_usize(1);
    delta.write_uvarint(0);
    delta.write_uvarint(0);
    delta.write_u8(5); // BlockKind::MigrateEnv
    delta.write_bytes(&[1]);
    delta.write_words(&[9]);
    delta.write_usize(0); // no freed indices

    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 4);
    {
        let mut s = w.begin_section(SectionTag::FirProgram);
        fixture_program().encode(&mut s);
    }
    {
        let mut s = w.begin_section(SectionTag::HeapDelta);
        s.write_str("grid-0-4");
        s.write_u64(mojave_wire::fingerprint(&golden_v4_base_heap_payload()));
        s.write_bytes(delta.as_bytes());
    }
    framed_tail(&mut w);
    w.into_bytes()
}

fn golden_v5_heap_payload() -> Vec<u8> {
    let mut heap = WireWriter::new();
    heap.write_usize(1);
    heap.write_usize(1);
    // meta frame (Raw): idx 0, BlockKind::MigrateEnv, one word.
    heap.write_uvarint(3);
    heap.write_u8(0);
    heap.write_bytes(&[0, 5, 1]);
    // tag-slab frame (Raw): one Word::Int tag.
    heap.write_uvarint(1);
    heap.write_u8(0);
    heap.write_bytes(&[1]);
    // word-slab frame (Varint): the value 5 → delta 5 → zig-zag 10.
    heap.write_uvarint(1);
    heap.write_u8(1);
    heap.write_bytes(&[10]);
    // byte-slab frame (Raw): empty.
    heap.write_uvarint(0);
    heap.write_u8(0);
    heap.write_bytes(&[]);
    heap.into_bytes()
}

fn golden_v5() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 5);
    {
        let mut s = w.begin_section(SectionTag::FirProgram);
        fixture_program().encode(&mut s);
    }
    {
        let mut s = w.begin_section(SectionTag::HeapBlocks);
        s.write_bytes(&golden_v5_heap_payload());
    }
    framed_tail(&mut w);
    w.into_bytes()
}

fn golden_v5_delta_payload() -> Vec<u8> {
    let mut delta = WireWriter::new();
    delta.write_usize(1); // pointer-table capacity
    delta.write_usize(1); // one dirty record
    delta.write_uvarint(3); // meta frame (Raw): idx 0, kind 5, len 1
    delta.write_u8(0);
    delta.write_bytes(&[0, 5, 1]);
    delta.write_uvarint(1); // tag frame (Raw): one Word::Int
    delta.write_u8(0);
    delta.write_bytes(&[1]);
    delta.write_uvarint(1); // word frame (Varint): 9 → zig-zag 18
    delta.write_u8(1);
    delta.write_bytes(&[18]);
    delta.write_uvarint(0); // byte frame (Raw): empty
    delta.write_u8(0);
    delta.write_bytes(&[]);
    delta.write_usize(0); // no freed indices
    delta.into_bytes()
}

/// A v5 delta against the `golden_v5` base, its code section written by
/// `code`: the program inline, or a `CodeRef` to the base's.
fn golden_v5_delta_with(code: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_header_versioned("ia32-sim", 5);
    code(&mut w);
    {
        let mut s = w.begin_section(SectionTag::HeapDelta);
        s.write_str("v5-ck");
        s.write_u64(mojave_wire::fingerprint(&golden_v5_heap_payload()));
        s.write_bytes(&golden_v5_delta_payload());
    }
    framed_tail(&mut w);
    w.into_bytes()
}

fn golden_v5_delta() -> Vec<u8> {
    golden_v5_delta_with(|w| {
        let mut s = w.begin_section(SectionTag::FirProgram);
        fixture_program().encode(&mut s);
    })
}

fn golden_v5_ref_delta() -> Vec<u8> {
    golden_v5_delta_with(|w| {
        let mut section = vec![SectionTag::FirProgram as u8];
        section.extend(mojave_wire::to_bytes(&fixture_program()));
        w.begin_section(SectionTag::CodeRef)
            .write_u64(mojave_wire::fingerprint(&section));
    })
}

// ---------------------------------------------------------------------------
// Freshly packed images (real encoder output)
// ---------------------------------------------------------------------------

/// A process with strings, arrays and an open speculation level: its
/// packed image exercises every slab kind and the speculation section, and
/// its array is long enough that the payload slab is compressed rather
/// than left `Raw`.
fn rich_source() -> &'static str {
    r#"
        int main() {
            int[] xs = alloc_int(40);
            for (int i = 0; i < 40; i = i + 1) { xs[i] = i * i; }
            int s = speculate();
            if (s > 0) {
                xs[0] = 99;
                checkpoint(str_concat("rich-", int_to_str(1)));
                commit(s);
            }
            checkpoint("rich-final");
            return xs[0];
        }
    "#
}

fn packed(config: ProcessConfig) -> Vec<(String, Vec<u8>)> {
    let program = mojave_lang::compile_source(rich_source()).expect("rich fixture compiles");
    let store = CheckpointStore::new();
    let mut p = Process::new(program, config)
        .expect("rich fixture loads")
        .with_sink(Box::new(InMemorySink::with_store(store.clone())));
    assert_eq!(
        p.run().expect("rich fixture runs"),
        RunOutcome::Exit(99),
        "rich fixture exit"
    );
    store
        .names()
        .into_iter()
        .map(|n| {
            let bytes = store.load_raw(&n).expect("stored image loads").to_bytes();
            (n, bytes)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Corpus + mutation engine
// ---------------------------------------------------------------------------

/// Build the full mutation corpus: `(name, pristine_bytes)` pairs.  Every
/// entry decodes cleanly before mutation (asserted by the harness).
pub fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut entries = vec![
        ("golden-v1".to_owned(), golden_v1()),
        ("golden-v4-base".to_owned(), golden_v4_base()),
        ("golden-v4-delta".to_owned(), golden_v4_delta()),
        ("golden-v5".to_owned(), golden_v5()),
        ("golden-v5-delta".to_owned(), golden_v5_delta()),
        ("golden-v5-ref-delta".to_owned(), golden_v5_ref_delta()),
    ];
    for (name, bytes) in packed(ProcessConfig::default()) {
        entries.push((format!("packed-v5-{name}"), bytes));
    }
    for (name, bytes) in packed(ProcessConfig {
        delta_checkpoints: true,
        ..ProcessConfig::default()
    }) {
        entries.push((format!("packed-delta-{name}"), bytes));
    }
    for (name, bytes) in packed(ProcessConfig {
        heap_codec: Some(CodecId::BitPack),
        ..ProcessConfig::default()
    }) {
        entries.push((format!("packed-bitpack-{name}"), bytes));
    }
    entries
}

/// Uniform value in `0..n` (n > 0) from `rng`, by modulo.  Not
/// [`SplitMix64::next_below`]: every replayed mutation and kill point is
/// pinned to this mapping.
pub fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// What a mutation did — reported on failure, and `Truncate` additionally
/// obliges the decoder to reject the mutant outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// 1–4 random bytes XORed with random non-zero masks.
    Flip,
    /// The image cut to a strictly shorter prefix.
    Truncate,
    /// Four consecutive bytes splatted to 0xFF — when this lands on a
    /// frame length it claims a ~4 GiB section.
    Inflate,
}

/// Apply the seeded mutation `seed` to `bytes`.  Deterministic; the same
/// `(bytes, seed)` pair always yields the same mutant.
pub fn mutate(bytes: &[u8], seed: u64) -> (Vec<u8>, MutationKind) {
    let mut rng = SplitMix64::new(seed ^ 0xda3e_39cb_94b9_5bdb);
    let len = bytes.len() as u64;
    match below(&mut rng, 3) {
        0 => {
            let mut out = bytes.to_vec();
            let flips = below(&mut rng, 4) + 1;
            for _ in 0..flips {
                let pos = below(&mut rng, len) as usize;
                let mask = (below(&mut rng, 255) + 1) as u8;
                out[pos] ^= mask;
            }
            (out, MutationKind::Flip)
        }
        1 => {
            let cut = below(&mut rng, len) as usize;
            (bytes[..cut].to_vec(), MutationKind::Truncate)
        }
        _ => {
            let mut out = bytes.to_vec();
            let pos = below(&mut rng, len.saturating_sub(4).max(1)) as usize;
            for b in out.iter_mut().skip(pos).take(4) {
                *b = 0xFF;
            }
            (out, MutationKind::Inflate)
        }
    }
}

/// Step budget for resuming a full mutant: the pristine fixture runs for
/// a few hundred steps, so this reaches every instruction a mutation can
/// have touched while bounding a mutant that loops.
const RESUME_BUDGET: u64 = 20_000;

/// Decode a (possibly mutated) image the way the runtime would: parse,
/// then heap-decode and re-encode on success; a full image (it carries its
/// FIR) is also resumed and run for up to `RESUME_BUDGET` steps.
/// Returns a description of the outcome (`"rejected"`, `"parsed"` or
/// `"resumed"`); panics inside are the harness's job to catch.
pub fn exercise_decoder(bytes: &[u8]) -> Result<&'static str, String> {
    match MigrationImage::from_bytes(bytes) {
        Err(e) => {
            // Precise error: it renders, and it is a typed WireError.
            let rendered = e.to_string();
            if rendered.is_empty() {
                return Err("WireError rendered to an empty message".to_owned());
            }
            Ok("rejected")
        }
        Ok(image) => {
            // Parsed mutants must stay panic-free through the rest of the
            // pipeline: heap decode (full) or base resolution (delta),
            // and re-encode.
            let _ = image.decode_heap(mojave_heap::HeapConfig::default());
            let _ = image.to_bytes();
            if image.heap_image.is_delta() {
                return Ok("parsed");
            }
            // The receiver runs whatever FIR passes validation and the
            // type checker, on whatever heap decodes.  Its own allocation
            // limit keeps a mutated length constant honest.
            let config = ProcessConfig {
                step_budget: Some(RESUME_BUDGET),
                heap: mojave_heap::HeapConfig {
                    max_alloc: 1 << 16,
                    ..mojave_heap::HeapConfig::default()
                },
                ..ProcessConfig::default()
            };
            let outcome = Process::from_image(image, config).and_then(|mut p| p.run());
            match outcome {
                Err(e) if e.to_string().is_empty() => {
                    Err("RuntimeError rendered to an empty message".to_owned())
                }
                _ => Ok("resumed"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corpus_entry_is_pristine() {
        for (name, bytes) in corpus() {
            let image = MigrationImage::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("pristine corpus entry {name} must decode: {e}"));
            if !image.heap_image.is_delta() {
                image
                    .decode_heap(mojave_heap::HeapConfig::default())
                    .unwrap_or_else(|e| panic!("pristine {name} heap must decode: {e}"));
            }
            assert_eq!(image.to_bytes(), bytes, "{name} re-encodes byte-faithfully");
        }
    }

    /// Every pristine full entry carries its FIR and resumes through the
    /// decoder's resume leg; a delta has no base to resolve and only
    /// parses.
    #[test]
    fn every_pristine_full_entry_resumes() {
        for (name, bytes) in corpus() {
            let delta = MigrationImage::from_bytes(&bytes)
                .expect("pristine entry decodes")
                .heap_image
                .is_delta();
            let want = if delta { "parsed" } else { "resumed" };
            assert_eq!(exercise_decoder(&bytes), Ok(want), "{name}");
        }
    }

    /// The `BitPack` entries exist to put that codec's frames under
    /// mutation: their heap payload slab must be `BitPack`-coded.
    #[test]
    fn bitpack_entries_carry_bitpack_word_frames() {
        let mut checked = 0;
        for (name, bytes) in corpus() {
            if !name.starts_with("packed-bitpack-") {
                continue;
            }
            let image = MigrationImage::from_bytes(&bytes).expect("pristine entry decodes");
            let mojave_core::HeapImage::Full(heap) = &image.heap_image else {
                panic!("{name} is a full image");
            };
            let mut r = mojave_wire::WireReader::new(heap);
            r.read_usize().expect("capacity");
            r.read_usize().expect("record count");
            r.skip_byte_frame().expect("meta frame");
            r.skip_byte_frame().expect("tag frame");
            r.read_uvarint().expect("payload word count");
            assert_eq!(
                r.read_u8().expect("codec id"),
                CodecId::BitPack as u8,
                "{name}"
            );
            checked += 1;
        }
        assert!(checked > 0, "the corpus has BitPack entries");
    }

    /// The packed delta entries put the by-reference layout under
    /// mutation: each delta's first section names its base's code by a
    /// `CodeRef`, and each full image carries its code.
    #[test]
    fn packed_delta_entries_reference_their_base_code() {
        let mut deltas = 0;
        for (name, bytes) in corpus() {
            if !name.starts_with("packed-delta-") {
                continue;
            }
            let image = MigrationImage::from_bytes(&bytes).expect("pristine entry decodes");
            let mut r = mojave_wire::WireReader::new(&bytes);
            r.read_header().expect("header");
            let code = r.read_framed().expect("code section");
            let delta = image.heap_image.is_delta();
            assert_eq!(code.tag() == SectionTag::CodeRef, delta, "{name}");
            assert_eq!(image.code.inline().is_none(), delta, "{name}");
            deltas += usize::from(delta);
        }
        assert!(deltas > 0, "the corpus has packed delta entries");
    }

    #[test]
    fn mutation_is_deterministic() {
        let bytes = golden_v5();
        for seed in 0..32 {
            assert_eq!(mutate(&bytes, seed), mutate(&bytes, seed));
        }
    }

    /// The first draws of the seeds the harness uses: seed 12 (the
    /// decode-budget heap) and the mutator's seed mask.  Every replayed
    /// mutation and kill point is a function of these sequences.
    #[test]
    fn seeded_draws_are_pinned() {
        let draws = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..8).map(|_| below(&mut rng, 1000)).collect::<Vec<_>>()
        };
        assert_eq!(draws(12), [323, 807, 398, 737, 54, 980, 897, 279]);
        assert_eq!(
            draws(0xda3e_39cb_94b9_5bdb),
            [129, 60, 36, 249, 122, 740, 727, 783]
        );
    }
}
