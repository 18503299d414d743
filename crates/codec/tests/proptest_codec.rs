//! Property tests: `decompress(compress(slab)) == slab` for every codec
//! over four slab distributions (uniform, small-int-skewed, repetitive
//! runs, mixed small-int and full-width blocks), a [`WordDecoder`] read in
//! pieces of any size gives the words and the errors of a whole-slab
//! decode, the decoders never panic on arbitrary byte soup or on claimed
//! counts no input could hold, a reused [`Compressor`] (dirty LZ table,
//! dirty staging buffers) writes the bytes a fresh one writes, and
//! `BitPack`'s size bound and independently decodable groups hold.
//!
//! Failures shrink through the vendored proptest's integer/vec/tuple
//! shrinkers, so a regression reports a minimal failing slab.

use mojave_codec::{
    choose, choose_bytes, choose_words, compress_bytes, compress_words, decompress_words,
    CodecError, CodecId, CodecSet, Compressor, WordDecoder, CHOICE_SAMPLE_WORDS,
};
use proptest::prelude::*;

fn assert_roundtrip(id: CodecId, slab: &[u64]) {
    let mut compressed = Vec::new();
    compress_words(id, slab, &mut compressed);
    let mut back = Vec::new();
    decompress_words(id, &compressed, slab.len(), &mut back)
        .unwrap_or_else(|e| panic!("{id} failed to decompress its own output: {e}"));
    assert_eq!(back, slab, "{id} roundtrip mismatch");
}

/// Decode `count` words of `id` from `input` through a [`WordDecoder`]
/// read in pieces of `pieces` words (cycled; zero-sized pieces included),
/// then finished.
fn read_in_pieces(
    id: CodecId,
    input: &[u8],
    count: usize,
    pieces: &[usize],
) -> Result<Vec<u64>, CodecError> {
    let mut decoder = WordDecoder::new(id, input, count)?;
    let mut out = vec![0; count];
    let mut at = 0;
    for &piece in pieces.iter().cycle() {
        if at == count {
            break;
        }
        let n = piece.min(count - at);
        decoder.read(&mut out[at..at + n])?;
        at += n;
        assert_eq!(decoder.remaining(), count - at);
    }
    decoder.finish()?;
    Ok(out)
}

/// The whole-slab decode of the same input.
fn read_whole(id: CodecId, input: &[u8], count: usize) -> Result<Vec<u64>, CodecError> {
    let mut out = Vec::new();
    decompress_words(id, input, count, &mut out).map(|()| out)
}

/// Piece sizes: mostly small (group boundaries fall inside and between
/// pieces), some spanning several 32-word groups, at least one positive.
fn pieces() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(any::<u64>().prop_map(|n| (n % 100) as usize), 1..8).prop_map(
        |mut sizes| {
            sizes.push(1 + sizes[0] % 40);
            sizes
        },
    )
}

proptest! {
    #[test]
    fn uniform_slabs_roundtrip(slab in proptest::collection::vec(any::<u64>(), 0..512)) {
        for id in CodecId::ALL {
            assert_roundtrip(id, &slab);
        }
    }

    #[test]
    fn small_int_skewed_slabs_roundtrip(
        slab in proptest::collection::vec(any::<u64>().prop_map(|v| v % 1024), 0..512),
    ) {
        for id in CodecId::ALL {
            assert_roundtrip(id, &slab);
        }
        // Small-int slabs big enough to sample must not stay Raw.
        if slab.len() >= 64 {
            prop_assert!(choose(&slab) != CodecId::Raw);
        }
    }

    #[test]
    fn repetitive_run_slabs_roundtrip(
        runs in proptest::collection::vec((any::<u64>(), any::<u64>().prop_map(|n| n % 64 + 1)), 0..24),
    ) {
        let slab: Vec<u64> = runs
            .iter()
            .flat_map(|&(value, len)| std::iter::repeat(value).take(len as usize))
            .collect();
        for id in CodecId::ALL {
            assert_roundtrip(id, &slab);
        }
    }

    #[test]
    fn choice_is_deterministic_and_within_the_allowed_set(
        slab in proptest::collection::vec(any::<u64>().prop_map(|v| v % 100_000), 0..512),
    ) {
        for allowed in [
            CodecSet::all(),
            CodecSet::raw_only(),
            CodecSet::only(CodecId::Varint),
            CodecSet::only(CodecId::Lz),
        ] {
            let first = mojave_codec::choose_words(&slab, allowed);
            prop_assert!(allowed.contains(first), "choice {} outside the set", first);
            prop_assert_eq!(first, mojave_codec::choose_words(&slab, allowed));
        }
    }

    #[test]
    fn decoders_never_panic_on_byte_soup(
        soup in proptest::collection::vec(any::<u8>(), 0..512),
        claimed in any::<u64>().prop_map(|n| (n % 1024) as usize),
        huge in any::<u64>().prop_map(|n| usize::MAX / 8 - 2 + (n % 5) as usize),
        pieces in pieces(),
    ) {
        for id in CodecId::ALL {
            let mut out = Vec::new();
            // Ok or Err are both acceptable; what matters is no panic and
            // no output beyond the bounded claim — and the same verdict
            // from the decoder read in pieces.
            let whole = decompress_words(id, &soup, claimed, &mut out);
            prop_assert!(out.len() <= claimed);
            prop_assert_eq!(
                read_in_pieces(id, &soup, claimed, &pieces),
                whole.map(|()| out),
                "{}",
                id
            );
            prop_assert!(WordDecoder::new(id, &soup, huge).is_err(), "{}", id);
            // A count whose byte size overflows (or nearly does) is a
            // precise error, decided before anything is reserved.
            let mut out = Vec::new();
            prop_assert!(decompress_words(id, &soup, huge, &mut out).is_err(), "{}", id);
            prop_assert!(out.capacity() < 1 << 20, "{} reserved for a bomb claim", id);
        }
        let mut bytes_out = Vec::new();
        let _ = mojave_codec::decompress_bytes(CodecId::Lz, &soup, claimed, &mut bytes_out);
        prop_assert!(bytes_out.len() <= claimed);
    }
}

/// Words per `BitPack` group (a constant of the wire format).
const GROUP: usize = 32;

/// Blocks of random length alternating small integers and full-width
/// noise — the heap shape whose small-int and 64-bit halves want different
/// widths, so group boundaries inside and across blocks all occur.
fn mixed_block_slab() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (
            1usize..100,
            any::<u64>(),
            any::<u64>().prop_map(|n| n % 2 == 0),
        ),
        0..12,
    )
    .prop_map(|blocks| {
        let mut slab = Vec::new();
        for (len, seed, small) in blocks {
            let mut x = seed | 1;
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                slab.push(if small { x % 1000 } else { x });
            }
        }
        slab
    })
}

/// The byte ranges of a `BitPack` payload's groups, found from the width
/// bytes alone: a full group of width `b` spans `1 + 4·b` bytes.
fn group_ranges(payload: &[u8], word_count: usize) -> Vec<(std::ops::Range<usize>, usize)> {
    let mut ranges = Vec::new();
    let mut at = 0;
    for g in 0..word_count.div_ceil(GROUP) {
        let n = GROUP.min(word_count - g * GROUP);
        let width = payload[at] as usize;
        let end = at + 1 + (n * width).div_ceil(8);
        ranges.push((at..end, n));
        at = end;
    }
    assert_eq!(at, payload.len(), "groups tile the payload");
    ranges
}

/// Every decode error a `BitPack` or `Raw` slab can raise, read whole and
/// in pieces: the same precise [`CodecError`] either way.
#[test]
fn each_decode_error_is_the_same_whole_or_in_pieces() {
    let words: Vec<u64> = (0..70).map(|i| i * 3).collect();
    let mut packed = Vec::new();
    compress_words(CodecId::BitPack, &words, &mut packed);
    let second = 1 + (32 * packed[0] as usize).div_ceil(8);
    let mut wide = packed.clone();
    wide[second] = 65;
    let mut trailing = packed.clone();
    trailing.extend([0, 0]);
    let mut raw = Vec::new();
    compress_words(CodecId::Raw, &words, &mut raw);
    let truncated = CodecError::TruncatedInput {
        context: "bitpack group",
    };
    let cases: [(CodecId, &[u8], usize, CodecError); 6] = [
        (
            CodecId::BitPack,
            &wide,
            70,
            CodecError::BadWidth { width: 65 },
        ),
        (
            CodecId::BitPack,
            &packed[..second + 3],
            70,
            truncated.clone(),
        ),
        (CodecId::BitPack, &packed[..second], 70, truncated),
        (
            CodecId::BitPack,
            &packed,
            32 * packed.len() + 1,
            CodecError::TruncatedInput {
                context: "bitpack slab",
            },
        ),
        (
            CodecId::BitPack,
            &trailing,
            70,
            CodecError::TrailingInput { remaining: 2 },
        ),
        (
            CodecId::Raw,
            &raw[..raw.len() - 8],
            70,
            CodecError::LengthMismatch {
                expected: 560,
                found: 552,
            },
        ),
    ];
    for (id, input, count, error) in cases {
        assert_eq!(
            read_whole(id, input, count),
            Err(error.clone()),
            "{id} whole"
        );
        for piece in [1, 5, 31, 32, 33, 64, 100] {
            assert_eq!(
                read_in_pieces(id, input, count, &[piece]),
                Err(error.clone()),
                "{id} in pieces of {piece}"
            );
        }
    }
}

fn check_bitpack(slab: &[u64]) {
    assert_roundtrip(CodecId::BitPack, slab);
    let mut packed = Vec::new();
    compress_words(CodecId::BitPack, slab, &mut packed);
    // Never larger than Raw plus one width byte per group.
    let n = slab.len();
    assert!(
        packed.len() <= 8 * n + n.div_ceil(GROUP),
        "{} bytes for {n} words",
        packed.len()
    );
    // Any group decodes alone, through the ordinary decoder, to its words
    // of the whole decode.
    for (g, (range, len)) in group_ranges(&packed, n).into_iter().enumerate() {
        let mut alone = Vec::new();
        decompress_words(CodecId::BitPack, &packed[range], len, &mut alone)
            .unwrap_or_else(|e| panic!("group {g} alone: {e}"));
        assert_eq!(alone, &slab[g * GROUP..g * GROUP + len], "group {g}");
    }
}

proptest! {
    #[test]
    fn mixed_block_slabs_roundtrip(slab in mixed_block_slab()) {
        for id in CodecId::ALL {
            assert_roundtrip(id, &slab);
        }
    }

    /// For every codec, a decoder read in pieces of arbitrary sizes yields
    /// the whole-slab decode — of the intact payload, and of the payload
    /// cut short, lengthened, corrupted in one byte, or claimed at one
    /// word more or fewer, where both must fail with the same error.
    #[test]
    fn piecewise_reads_match_whole_slab_decode(
        slab in mixed_block_slab(),
        pieces in pieces(),
        at in any::<u64>(),
        flip in 1u8..255,
    ) {
        for id in CodecId::ALL {
            let mut packed = Vec::new();
            compress_words(id, &slab, &mut packed);
            let n = slab.len();
            prop_assert_eq!(read_in_pieces(id, &packed, n, &pieces), Ok(slab.clone()), "{}", id);

            let mut longer = packed.clone();
            longer.push(flip);
            let mut flipped = packed.clone();
            if let Some(byte) = flipped.get_mut(at as usize % packed.len().max(1)) {
                *byte ^= flip;
            }
            let cut = &packed[..at as usize % (packed.len() + 1)];
            let variants: [(&[u8], usize); 6] = [
                (cut, n),
                (&longer, n),
                (&flipped, n),
                (&packed, n + 1),
                (&packed, n.saturating_sub(1)),
                (&packed, n + 33),
            ];
            for (input, count) in variants {
                prop_assert_eq!(
                    read_in_pieces(id, input, count, &pieces),
                    read_whole(id, input, count),
                    "{} over {} bytes claiming {}",
                    id,
                    input.len(),
                    count
                );
            }
        }
    }

    /// The `BitPack` size bound and group independence, over uniform
    /// (the widest case), small-int and mixed-block slabs.
    #[test]
    fn bitpack_groups_are_bounded_and_decode_alone(
        uniform in proptest::collection::vec(any::<u64>(), 0..300),
        small in proptest::collection::vec(any::<u64>().prop_map(|v| v % 1024), 0..300),
        mixed in mixed_block_slab(),
    ) {
        for slab in [&uniform, &small, &mixed] {
            check_bitpack(slab);
        }
    }
}

/// A byte slab of mixed size and mixed entropy: short alphabets and
/// repeated chunks give the matcher something to find — and something
/// stale to find by mistake, if stale entries were not recognised.
fn byte_slab() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u8>(), 0..48),
        1usize..80,
        any::<u8>().prop_map(|m| m | 1),
    )
        .prop_map(|(chunk, repeats, mask)| {
            chunk
                .iter()
                .cycle()
                .take(chunk.len() * repeats)
                .enumerate()
                .map(|(i, b)| if i % 61 == 60 { b ^ mask } else { *b })
                .collect()
        })
}

proptest! {
    /// One compressor carried across a sequence of unrelated slabs chooses
    /// and writes exactly what a fresh compressor does for each of them —
    /// the LZ table's stale entries are recognised, never matched.
    #[test]
    fn reused_compressor_writes_the_bytes_a_fresh_one_writes(
        slabs in proptest::collection::vec(byte_slab(), 1..10),
    ) {
        let mut reused = Compressor::new();
        for bytes in &slabs {
            let mut got = Vec::new();
            reused.compress_bytes(CodecId::Lz, bytes, &mut got);
            let mut want = Vec::new();
            compress_bytes(CodecId::Lz, bytes, &mut want);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                reused.choose_bytes(bytes, CodecSet::all()),
                choose_bytes(bytes, CodecSet::all())
            );

            let words: Vec<u64> = bytes
                .chunks(3)
                .map(|c| c.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b)))
                .collect();
            for allowed in (0..16).map(CodecSet::from_bits) {
                prop_assert_eq!(
                    reused.choose_words(&words, allowed),
                    choose_words(&words, allowed)
                );
            }
            for id in CodecId::ALL {
                let mut got = Vec::new();
                reused.compress_words(id, &words, &mut got);
                let mut want = Vec::new();
                compress_words(id, &words, &mut want);
                prop_assert_eq!(&got, &want, "{}", id);
            }
        }
    }
}

/// `len` words of one of three characters — small ints (a varint filter
/// wins), full-width noise (`Raw` wins), a short repeating pattern (an LZ
/// codec wins) — from an LCG seeded with `seed`.
fn slab_of(kind: u8, seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed | 1;
    let pattern = [seed, seed >> 7, 42, seed.rotate_left(13)];
    (0..len)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match kind {
                0 => x % 1000,
                1 => x,
                _ => pattern[i % pattern.len()],
            }
        })
        .collect()
}

proptest! {
    /// A choice whose sample is the whole slab keeps its winning trial, and
    /// that trial is byte for byte the payload choose-then-compress on a
    /// fresh compressor writes — for slabs just below, at and just above
    /// both the compression floor and the choice sample, under every codec
    /// set that keeps `Raw`, with a byte choice run between a word choice
    /// and its use (a slab encoder writes two byte frames there).
    #[test]
    fn kept_trials_are_the_payload_a_fresh_compressor_writes(
        kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        const SAMPLE_BYTES: usize = 8192;
        let mut warm = Compressor::new();
        for (words_len, bytes_len) in [(15, 63), (16, 64), (2047, 8191), (2048, 8192), (2049, 8193)] {
            let words = slab_of(kind, seed, words_len);
            let bytes: Vec<u8> = slab_of(kind, !seed, bytes_len).iter().map(|w| *w as u8).collect();
            for allowed in (0..32).step_by(2).map(CodecSet::from_bits) {
                let word_codec = warm.choose_words(&words, allowed);
                let byte_codec = warm.choose_bytes(&bytes, allowed);
                prop_assert_eq!(word_codec, choose_words(&words, allowed));
                prop_assert_eq!(byte_codec, choose_bytes(&bytes, allowed));

                let mut want = Vec::new();
                compress_words(word_codec, &words, &mut want);
                let whole = word_codec != CodecId::Raw && words_len <= CHOICE_SAMPLE_WORDS;
                prop_assert_eq!(warm.chosen_words(), whole.then_some(&want[..]));

                let mut want = Vec::new();
                compress_bytes(byte_codec, &bytes, &mut want);
                let whole = byte_codec == CodecId::Lz && bytes_len <= SAMPLE_BYTES;
                prop_assert_eq!(warm.chosen_bytes(), whole.then_some(&want[..]));
            }
        }
    }
}
