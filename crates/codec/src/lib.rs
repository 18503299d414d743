//! # mojave-codec
//!
//! Slab compression for the Mojave wire format (v5 images).
//!
//! The batched v4 block codec made heap encode/decode 2–3× faster than the
//! per-word varint loop, but at a byte cost: fixed 8-byte payload words make
//! small-int heaps ~3× larger on the wire than the old varint encoding —
//! and checkpoint/migration images are exactly where bytes matter.  This
//! crate closes that gap with dependency-free compression passes tuned to
//! Mojave word slabs:
//!
//! * a **varint + zig-zag delta filter** ([`CodecId::Varint`]) for
//!   small-int and pointer-dense slabs: consecutive words are delta-encoded
//!   (runs of equal or slowly-varying values become tiny deltas), zig-zag
//!   mapped and LEB128 encoded, so a word costs as many bytes as its delta
//!   needs instead of a fixed eight;
//! * **frame-of-reference bit packing** ([`CodecId::BitPack`]): the same
//!   delta + zig-zag filter, restarted every 32 words, with each 32-word
//!   group packed at the bit width of its largest value.  It encodes and
//!   decodes in fixed-trip `u64` loops instead of a byte-at-a-time varint
//!   loop, costs 8 bytes plus a width byte per group (not LEB128's 10) on
//!   full-width words, and any group decodes alone;
//! * an **LZ-style match/copy pass** ([`CodecId::Lz`]) for repetitive
//!   payloads: a greedy hash-table matcher emits literal-run and
//!   (length, distance) copy tokens, collapsing repeated blocks to a few
//!   bytes each.
//!
//! [`CodecId::VarintLz`] chains the varint filter and the LZ pass — the
//! filter first (turning structure into byte-level redundancy), the
//! match/copy pass second — and wins on repetitive small-int heaps.
//! [`CodecId::Raw`] is the identity codec: always available, always
//! lossless, `memcpy` both ways.
//!
//! [`Compressor::compress_words`] encodes a slab with any codec;
//! [`VarintStream`] and [`BitPackStream`] encode a slab in pieces for
//! callers that never stage it, and one pull-based [`WordDecoder`] per
//! codec decodes in pieces of the caller's choosing, so no side ever has
//! to build a `u64` slab.  [`choose`] trial-compresses a slab prefix with
//! every codec and keeps the smallest encoding (an LZ trial that can no
//! longer win stops early, which never changes the choice):
//!
//! ```
//! use mojave_codec::{choose, compress_words, decompress_words, CodecId};
//!
//! let slab: Vec<u64> = (0..2048).map(|i| 40 + (i % 7)).collect();
//! let codec = choose(&slab);
//! let mut compressed = Vec::new();
//! compress_words(codec, &slab, &mut compressed);
//! assert!(compressed.len() < slab.len()); // ≥ 8× smaller than the raw slab
//!
//! let mut back = Vec::new();
//! decompress_words(codec, &compressed, slab.len(), &mut back).unwrap();
//! assert_eq!(back, slab);
//! ```
//!
//! Compression never fails; every failure mode lives on the decode side,
//! where input is untrusted (truncated, corrupted or adversarial) and must
//! produce a precise [`CodecError`] without panicking or allocating beyond
//! what the declared output size and the actual input can justify.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitpack;
mod decode;
mod lz;

pub use bitpack::{BitPackStream, GROUP_WORDS as BITPACK_GROUP_WORDS};
pub use decode::WordDecoder;
use lz::LzTable;
use std::fmt;

/// Identifies a slab compression codec on the wire (one byte per frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Identity: the slab's little-endian bytes, unmodified.
    Raw = 0,
    /// Delta filter + zig-zag + LEB128 varints (word slabs only).
    Varint = 1,
    /// LZ match/copy pass over the slab bytes.
    Lz = 2,
    /// Varint delta filter, then the LZ pass over the varint bytes
    /// (word slabs only).
    VarintLz = 3,
    /// Delta filter + zig-zag, bit-packed in 32-word groups of one width
    /// each (word slabs only).
    BitPack = 4,
}

impl CodecId {
    /// All codecs, in wire-id order — also the tie-break order used by
    /// [`choose`].
    pub const ALL: [CodecId; 5] = [
        CodecId::Raw,
        CodecId::Varint,
        CodecId::Lz,
        CodecId::VarintLz,
        CodecId::BitPack,
    ];

    /// Decode a wire id byte.
    pub fn from_u8(byte: u8) -> Option<CodecId> {
        CodecId::ALL.into_iter().find(|c| *c as u8 == byte)
    }

    /// Human-readable name, used in error messages and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Raw => "Raw",
            CodecId::Varint => "Varint",
            CodecId::Lz => "Lz",
            CodecId::VarintLz => "VarintLz",
            CodecId::BitPack => "BitPack",
        }
    }

    /// Whether this codec can compress plain byte slabs.  The delta
    /// filters interpret their input as 64-bit words, so only [`Raw`] and
    /// [`Lz`] apply to byte payloads (tag slabs, raw blocks, strings).
    ///
    /// [`Raw`]: CodecId::Raw
    /// [`Lz`]: CodecId::Lz
    pub fn byte_capable(self) -> bool {
        matches!(self, CodecId::Raw | CodecId::Lz)
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of acceptable codecs — the unit of sink-side negotiation.
///
/// A migration sink advertises the codecs it is willing to receive
/// (`MigrationSink::accepted_codecs` in `mojave-core`); the sender
/// intersects that with its own preference and lets [`choose_words`] /
/// [`choose_bytes`] pick within the set.  [`CodecId::Raw`] is always a
/// member: every decoder handles it, so there is always a valid fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecSet(u8);

impl CodecSet {
    /// Every codec.
    pub fn all() -> CodecSet {
        let mut bits = 0u8;
        for c in CodecId::ALL {
            bits |= 1 << (c as u8);
        }
        CodecSet(bits)
    }

    /// Only [`CodecId::Raw`] — the narrowest set a sink can advertise;
    /// images for it are still v5, with every slab frame stored Raw.
    pub fn raw_only() -> CodecSet {
        CodecSet(1 << (CodecId::Raw as u8))
    }

    /// Exactly `codec` plus the ever-present [`CodecId::Raw`] fallback.
    pub fn only(codec: CodecId) -> CodecSet {
        CodecSet((1 << (codec as u8)) | (1 << (CodecId::Raw as u8)))
    }

    /// Whether `codec` is in the set.
    pub fn contains(self, codec: CodecId) -> bool {
        self.0 & (1 << (codec as u8)) != 0
    }

    /// The set of codecs in both `self` and `other` (Raw always survives).
    pub fn intersect(self, other: CodecSet) -> CodecSet {
        CodecSet((self.0 & other.0) | (1 << (CodecId::Raw as u8)))
    }

    /// Iterate the member codecs in [`CodecId::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = CodecId> {
        CodecId::ALL.into_iter().filter(move |c| self.contains(*c))
    }

    /// The raw membership bitmask (bit `1 << id` per member codec) — the
    /// wire representation used by transport handshakes.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuild a set from a wire bitmask, dropping bits that name no
    /// known codec and restoring the ever-present [`CodecId::Raw`]
    /// fallback.  Total on purpose: a peer advertising garbage bits
    /// degrades to the codecs both sides actually share, it does not
    /// error.
    pub fn from_bits(bits: u8) -> CodecSet {
        CodecSet((bits & CodecSet::all().0) | (1 << (CodecId::Raw as u8)))
    }
}

impl Default for CodecSet {
    fn default() -> Self {
        CodecSet::all()
    }
}

/// Errors produced while decompressing an untrusted slab.
///
/// Compression never fails; every variant here describes input that is
/// truncated, corrupted or adversarial.  Decoders must return these —
/// never panic, and never allocate more than the declared output size
/// plus what the input has actually paid for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the declared output was fully produced.
    TruncatedInput {
        /// What was being decoded when the input ran out.
        context: &'static str,
    },
    /// The decompressed size does not match the declared size.
    LengthMismatch {
        /// Bytes or words the frame header declared.
        expected: usize,
        /// Bytes or words the payload actually produced.
        found: usize,
    },
    /// An LZ copy token referenced data before the start of the output.
    BadOffset {
        /// The (1-based) back-reference distance in the token.
        distance: usize,
        /// Bytes produced so far — the farthest a distance may reach.
        produced: usize,
    },
    /// A token would grow the output beyond the declared size.
    OutputOverrun {
        /// The declared output bound.
        limit: usize,
    },
    /// A varint ran longer than a 64-bit value allows.
    VarintOverflow,
    /// A [`CodecId::BitPack`] group declared more than 64 bits per value.
    BadWidth {
        /// The group's width byte.
        width: u8,
    },
    /// A word-slab-only codec ([`CodecId::Varint`], [`CodecId::VarintLz`]
    /// or [`CodecId::BitPack`]) was named in a byte-slab frame.
    WordCodecOnBytes {
        /// The offending codec.
        codec: CodecId,
    },
    /// The payload had bytes left over after the declared output was
    /// fully produced.
    TrailingInput {
        /// Unconsumed payload bytes.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::TruncatedInput { context } => {
                write!(f, "compressed payload truncated while decoding {context}")
            }
            CodecError::LengthMismatch { expected, found } => write!(
                f,
                "decompressed size {found} does not match the declared {expected}"
            ),
            CodecError::BadOffset { distance, produced } => write!(
                f,
                "LZ copy distance {distance} exceeds the {produced} bytes produced"
            ),
            CodecError::OutputOverrun { limit } => {
                write!(
                    f,
                    "decompressed output would exceed the declared {limit} bytes"
                )
            }
            CodecError::VarintOverflow => write!(f, "varint longer than a 64-bit value allows"),
            CodecError::BadWidth { width } => {
                write!(f, "bit-pack group width {width} exceeds 64 bits")
            }
            CodecError::WordCodecOnBytes { codec } => {
                write!(f, "word-slab codec {codec} used in a byte-slab frame")
            }
            CodecError::TrailingInput { remaining } => {
                write!(
                    f,
                    "{remaining} payload bytes left after the declared output"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Raw
// ---------------------------------------------------------------------------

/// Append [`CodecId::Raw`]'s encoding of `words`: 8 little-endian bytes
/// per word.
fn compress_raw(words: &[u64], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + words.len() * 8, 0);
    for (chunk, word) in out[start..].chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
}

/// The byte size of `word_count` raw words — a precise error, not an
/// overflow, for a count no input could hold.
fn slab_bytes(word_count: usize, context: &'static str) -> Result<usize, CodecError> {
    word_count
        .checked_mul(8)
        .ok_or(CodecError::TruncatedInput { context })
}

// ---------------------------------------------------------------------------
// Varint (delta + zig-zag + LEB128)
// ---------------------------------------------------------------------------

#[inline]
pub(crate) fn push_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
pub(crate) fn read_uvarint(
    input: &[u8],
    pos: &mut usize,
    context: &'static str,
) -> Result<u64, CodecError> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *input
            .get(*pos)
            .ok_or(CodecError::TruncatedInput { context })?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        result |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(zz: u64) -> i64 {
    ((zz >> 1) as i64) ^ -((zz & 1) as i64)
}

/// Append [`CodecId::Varint`]'s encoding of `words`: delta filter +
/// zig-zag + LEB128.
///
/// Word `i` is encoded as the zig-zagged varint of
/// `words[i].wrapping_sub(words[i-1])` (the first word deltas against 0).
/// Small integers, pointer indices and runs of equal values all produce
/// single-byte deltas; the worst case (random 64-bit values) costs 10
/// bytes per word, which is why [`choose`] trial-compresses before
/// committing.
fn compress_varint(words: &[u64], out: &mut Vec<u8>) {
    // Small deltas dominate real slabs; reserving ~2 bytes per word keeps
    // the hot loop free of reallocation without over-committing.
    out.reserve(words.len() * 2);
    let mut prev = 0u64;
    for &word in words {
        push_uvarint(out, zigzag(word.wrapping_sub(prev) as i64));
        prev = word;
    }
}

/// Streaming encode side of [`CodecId::Varint`], for callers that produce
/// words incrementally and don't want to stage the whole `u64` slab first
/// (the heap's slab encoder feeds block payloads straight through this
/// while staging word tags, halving its memory traffic).
///
/// Byte-for-byte identical to [`compress_words`] with that codec over the
/// same word sequence:
///
/// ```
/// use mojave_codec::{compress_words, CodecId, VarintStream};
///
/// let words = [5u64, 6, 7, 5];
/// let mut staged = Vec::new();
/// compress_words(CodecId::Varint, &words, &mut staged);
///
/// let mut streamed = Vec::new();
/// let mut stream = VarintStream::new();
/// for &w in &words {
///     stream.push(w, &mut streamed);
/// }
/// assert_eq!(streamed, staged);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct VarintStream {
    prev: u64,
}

impl VarintStream {
    /// A fresh stream (the first word deltas against 0, like the slab
    /// codec).
    pub fn new() -> Self {
        VarintStream::default()
    }

    /// Append the next word's delta encoding to `out`.
    #[inline]
    pub fn push(&mut self, word: u64, out: &mut Vec<u8>) {
        push_uvarint(out, zigzag(word.wrapping_sub(self.prev) as i64));
        self.prev = word;
    }
}

// ---------------------------------------------------------------------------
// Dispatch + byte-slab entry points
// ---------------------------------------------------------------------------

/// Reusable working memory for the compress side: the LZ match table, the
/// stage between the two passes of a chained codec, and the trial outputs
/// of the choice heuristics.
///
/// One image encode chooses and compresses half a dozen slabs; a caller
/// that keeps a `Compressor` (the heap's slab encoders, which a process-wide
/// pool hands to every image encode) pays for that memory once instead of
/// per call.  **The bytes produced never depend on what the compressor was
/// used for before** — the free functions [`compress_words`],
/// [`compress_bytes`], [`choose_words`] and [`choose_bytes`] are these
/// methods on a fresh one.
///
/// When a choice's sample is the whole slab, the winning trial *is* the
/// slab's compressed payload: [`Compressor::chosen_words`] and
/// [`Compressor::chosen_bytes`] hand it back so the caller writes it
/// instead of compressing the slab a second time.
#[derive(Debug, Clone, Default)]
pub struct Compressor {
    table: LzTable,
    staged: Vec<u8>,
    trial: Vec<u8>,
    /// The winner of the last [`Compressor::choose_words`].  Kept apart
    /// from the byte choice's, which a slab encoder runs for other slabs
    /// between choosing the word codec and writing the word frame.
    words_won: Kept,
    /// The winner of the last [`Compressor::choose_bytes`].
    bytes_won: Kept,
}

/// A choice's winning trial output; `whole` when that trial compressed the
/// entire slab (and a non-`Raw` codec won), so it is the slab's payload.
#[derive(Debug, Clone, Default)]
struct Kept {
    payload: Vec<u8>,
    whole: bool,
}

impl Kept {
    fn get(&self) -> Option<&[u8]> {
        self.whole.then_some(self.payload.as_slice())
    }
}

impl Compressor {
    /// A compressor holding no memory yet.
    pub fn new() -> Self {
        Compressor::default()
    }

    /// Append `words` compressed with the named codec to `out`.
    pub fn compress_words(&mut self, id: CodecId, words: &[u64], out: &mut Vec<u8>) {
        match id {
            CodecId::Raw => compress_raw(words, out),
            CodecId::Varint => compress_varint(words, out),
            CodecId::BitPack => bitpack::compress(words, out),
            CodecId::Lz | CodecId::VarintLz => {
                self.staged.clear();
                if id == CodecId::Lz {
                    compress_raw(words, &mut self.staged);
                } else {
                    compress_varint(words, &mut self.staged);
                }
                lz::compress_with(&mut self.table, &self.staged, out);
            }
        }
    }

    /// Append `bytes` compressed with the named codec to `out`
    /// ([`CodecId::byte_capable`] codecs only — callers pick via
    /// [`Compressor::choose_bytes`]).
    ///
    /// # Panics
    /// Panics if `id` is a word-slab-only codec; byte-slab encoders are
    /// always in-tree code choosing from [`choose_bytes`], so this is a
    /// programming error, not an input error.
    pub fn compress_bytes(&mut self, id: CodecId, bytes: &[u8], out: &mut Vec<u8>) {
        match id {
            CodecId::Raw => out.extend_from_slice(bytes),
            CodecId::Lz => lz::compress_with(&mut self.table, bytes, out),
            other => panic!("{other} is not a byte-slab codec"),
        }
    }

    /// Pick the smallest encoding for a word slab from `allowed`, by
    /// trial-compressing a prefix sample with each candidate.
    /// Deterministic: the same slab and set always choose the same codec,
    /// the one whose `(length, place in CodecId::ALL)` is smallest — ties
    /// break toward the earlier codec in [`CodecId::ALL`] order.
    ///
    /// The cheap delta filters are trialled first, so the LZ trials run
    /// against the tightest bound: an LZ trial stops as soon as it can no
    /// longer win.  [`CodecId::VarintLz`] folds the [`CodecId::Varint`]
    /// trial's bytes instead of filtering the sample again.
    pub fn choose_words(&mut self, words: &[u64], allowed: CodecSet) -> CodecId {
        self.words_won.whole = false;
        if words.len() < MIN_COMPRESS_WORDS {
            return CodecId::Raw;
        }
        let sample = &words[..words.len().min(CHOICE_SAMPLE_WORDS)];
        let (mut best, mut best_len) = (CodecId::Raw, sample.len() * 8);
        let mut trial = std::mem::take(&mut self.trial);
        let mut won = std::mem::take(&mut self.words_won.payload);
        if allowed.contains(CodecId::Varint) || allowed.contains(CodecId::VarintLz) {
            self.staged.clear();
            compress_varint(sample, &mut self.staged);
        }
        for candidate in [
            CodecId::BitPack,
            CodecId::Varint,
            CodecId::VarintLz,
            CodecId::Lz,
        ] {
            if !allowed.contains(candidate) {
                continue;
            }
            // The length a trial must come in under: `best`'s, or one more
            // when a tie goes to the candidate.
            let limit = best_len + usize::from((candidate as u8) < (best as u8));
            trial.clear();
            let finished = match candidate {
                CodecId::BitPack => {
                    bitpack::compress(sample, &mut trial);
                    true
                }
                CodecId::Varint => {
                    trial.extend_from_slice(&self.staged);
                    true
                }
                CodecId::VarintLz => {
                    lz::compress_within(&mut self.table, &self.staged, limit, &mut trial)
                }
                CodecId::Lz => {
                    self.staged.clear();
                    compress_raw(sample, &mut self.staged);
                    lz::compress_within(&mut self.table, &self.staged, limit, &mut trial)
                }
                CodecId::Raw => unreachable!("Raw is the starting best, not a trial"),
            };
            if finished && trial.len() < limit {
                best = candidate;
                best_len = trial.len();
                std::mem::swap(&mut trial, &mut won);
            }
        }
        self.trial = trial;
        self.words_won = Kept {
            payload: won,
            whole: best != CodecId::Raw && sample.len() == words.len(),
        };
        best
    }

    /// Pick the smallest encoding for a byte slab from `allowed` — only
    /// [`CodecId::byte_capable`] members are candidates, so the result is
    /// always `Raw` or `Lz`.  An `allowed` containing
    /// [`CodecId::VarintLz`] implies the LZ machinery is available and
    /// admits `Lz` here.
    pub fn choose_bytes(&mut self, bytes: &[u8], allowed: CodecSet) -> CodecId {
        self.bytes_won.whole = false;
        if bytes.len() < MIN_COMPRESS_BYTES {
            return CodecId::Raw;
        }
        if !allowed.contains(CodecId::Lz) && !allowed.contains(CodecId::VarintLz) {
            return CodecId::Raw;
        }
        let sample = &bytes[..bytes.len().min(SAMPLE_BYTES)];
        let won = &mut self.bytes_won;
        won.payload.clear();
        let limit = sample.len();
        if lz::compress_within(&mut self.table, sample, limit, &mut won.payload)
            && won.payload.len() < limit
        {
            won.whole = sample.len() == bytes.len();
            CodecId::Lz
        } else {
            CodecId::Raw
        }
    }

    /// The compressed payload the last [`Compressor::choose_words`] call
    /// produced for the codec it returned — byte for byte what
    /// [`Compressor::compress_words`] would append for that slab and codec
    /// — when its sample was the whole slab; `None` when it sampled a
    /// prefix or chose `Raw`.
    pub fn chosen_words(&self) -> Option<&[u8]> {
        self.words_won.get()
    }

    /// [`Compressor::chosen_words`] for the last
    /// [`Compressor::choose_bytes`] call: its `Lz` trial when that covered
    /// the whole slab.
    pub fn chosen_bytes(&self) -> Option<&[u8]> {
        self.bytes_won.get()
    }
}

/// Compress a word slab with the named codec.
pub fn compress_words(id: CodecId, words: &[u64], out: &mut Vec<u8>) {
    Compressor::new().compress_words(id, words, out);
}

/// Decompress a word slab previously produced by [`compress_words`] with
/// the same codec, appending exactly `word_count` words to `out` — the
/// whole of a [`WordDecoder`], collected.  On error `out` is left as it
/// was.
pub fn decompress_words(
    id: CodecId,
    input: &[u8],
    word_count: usize,
    out: &mut Vec<u64>,
) -> Result<(), CodecError> {
    WordDecoder::new(id, input, word_count)?.read_to_end(out)
}

/// Compress a byte slab with the named codec — see
/// [`Compressor::compress_bytes`], including its panic on a word-slab
/// codec.
pub fn compress_bytes(id: CodecId, bytes: &[u8], out: &mut Vec<u8>) {
    Compressor::new().compress_bytes(id, bytes, out);
}

/// Decompress a byte slab previously produced by [`compress_bytes`],
/// appending exactly `raw_len` bytes to `out`.  Unlike the compress side,
/// a word-slab codec id here is an *input* error (the id byte comes off
/// the wire), reported as [`CodecError::WordCodecOnBytes`].
pub fn decompress_bytes(
    id: CodecId,
    input: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    match id {
        CodecId::Raw => {
            if input.len() != raw_len {
                return Err(CodecError::LengthMismatch {
                    expected: raw_len,
                    found: input.len(),
                });
            }
            out.extend_from_slice(input);
            Ok(())
        }
        CodecId::Lz => {
            let before = out.len();
            lz::decompress(input, raw_len, out)?;
            let produced = out.len() - before;
            if produced != raw_len {
                return Err(CodecError::LengthMismatch {
                    expected: raw_len,
                    found: produced,
                });
            }
            Ok(())
        }
        other => Err(CodecError::WordCodecOnBytes { codec: other }),
    }
}

// ---------------------------------------------------------------------------
// Choice heuristics
// ---------------------------------------------------------------------------

/// How many leading words the choice heuristics trial-compress.  Large
/// enough to see a slab's character, small enough that choosing costs a
/// fraction of compressing.  Public so slab *producers* (the heap's SoA
/// encoder) can stage exactly this prefix for the choice and know the
/// sampled decision matches a choice over the full slab.
pub const CHOICE_SAMPLE_WORDS: usize = 2048;
const SAMPLE_BYTES: usize = 8192;

/// Slabs below this size always go [`CodecId::Raw`]: the frame overhead
/// and the decode dispatch dwarf any byte savings.
const MIN_COMPRESS_WORDS: usize = 16;
const MIN_COMPRESS_BYTES: usize = 64;

/// Pick the smallest encoding for a word slab by sampling its prefix —
/// the convenience form of [`choose_words`] over every codec.
pub fn choose(words: &[u64]) -> CodecId {
    choose_words(words, CodecSet::all())
}

/// Pick the smallest encoding for a word slab from `allowed` — see
/// [`Compressor::choose_words`].
pub fn choose_words(words: &[u64], allowed: CodecSet) -> CodecId {
    Compressor::new().choose_words(words, allowed)
}

/// Pick the smallest encoding for a byte slab from `allowed` — see
/// [`Compressor::choose_bytes`].
pub fn choose_bytes(bytes: &[u8], allowed: CodecSet) -> CodecId {
    Compressor::new().choose_bytes(bytes, allowed)
}

/// The LZ byte-stream entry points, exposed for byte-slab callers and the
/// wire-format documentation tests.
pub use lz::{compress as compress_lz_bytes, decompress as decompress_lz_bytes};

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(id: CodecId, words: &[u64]) -> usize {
        let mut compressed = Vec::new();
        compress_words(id, words, &mut compressed);
        let mut back = Vec::new();
        decompress_words(id, &compressed, words.len(), &mut back)
            .unwrap_or_else(|e| panic!("{id} roundtrip failed: {e}"));
        assert_eq!(back, words, "{id} roundtrip");
        compressed.len()
    }

    #[test]
    fn all_codecs_roundtrip_representative_slabs() {
        let slabs: [Vec<u64>; 6] = [
            vec![],
            vec![42],
            (0..500).collect(),
            vec![7; 1000],
            (0..300u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
                .collect(),
            (0..100).flat_map(|_| [1u64, 2, 3, u64::MAX, 0]).collect(),
        ];
        for slab in &slabs {
            for id in CodecId::ALL {
                roundtrip(id, slab);
            }
        }
    }

    #[test]
    fn small_int_slabs_compress_below_varint_baseline() {
        // The acceptance shape: a small-int slab must compress below the
        // ~2 bytes/word a v1 varint encoding would pay.
        let slab: Vec<u64> = (0..4096).map(|i| 10 + (i % 50)).collect();
        let varint = roundtrip(CodecId::Varint, &slab);
        let varint_lz = roundtrip(CodecId::VarintLz, &slab);
        assert!(varint <= slab.len() * 2, "varint {varint} bytes");
        assert!(varint_lz < varint, "lz folds the repeating delta pattern");
        assert!(varint_lz < slab.len() / 4, "varint_lz {varint_lz} bytes");
    }

    #[test]
    fn repetitive_slabs_collapse_under_lz() {
        let pattern: Vec<u64> = vec![0xDEAD_BEEF_0000_0001, 7, 7, 0xFFFF_0000_FFFF_0000];
        let slab: Vec<u64> = (0..512).flat_map(|_| pattern.clone()).collect();
        let lz = roundtrip(CodecId::Lz, &slab);
        assert!(lz < slab.len(), "lz {lz} bytes for {} words", slab.len());
    }

    #[test]
    fn choose_picks_raw_for_incompressible_and_tiny_slabs() {
        assert_eq!(choose(&[1, 2, 3]), CodecId::Raw);
        let noise: Vec<u64> = (0..4096u64)
            .map(|i| {
                // SplitMix64: incompressible under every pass.
                let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        assert_eq!(choose(&noise), CodecId::Raw);
    }

    #[test]
    fn choose_prefers_the_smallest_and_respects_the_allowed_set() {
        let slab: Vec<u64> = (0..4096).map(|i| i % 13).collect();
        let free = choose(&slab);
        assert_ne!(free, CodecId::Raw, "compressible slab must not stay raw");
        // Restricting to {Raw, Varint} can never yield Lz.
        let limited = choose_words(&slab, CodecSet::only(CodecId::Varint));
        assert_eq!(limited, CodecId::Varint);
        assert_eq!(choose_words(&slab, CodecSet::raw_only()), CodecId::Raw);
    }

    /// The choice every allowed codec run to completion makes: the
    /// smallest `(length, place in CodecId::ALL)` over the sample, and
    /// that trial's bytes when the sample is the whole slab.
    fn exhaustive_choice(words: &[u64], allowed: CodecSet) -> (CodecId, Option<Vec<u8>>) {
        if words.len() < MIN_COMPRESS_WORDS {
            return (CodecId::Raw, None);
        }
        let sample = &words[..words.len().min(CHOICE_SAMPLE_WORDS)];
        let (mut best, mut best_len, mut won) = (CodecId::Raw, sample.len() * 8, None);
        for candidate in allowed.iter().filter(|&c| c != CodecId::Raw) {
            let mut trial = Vec::new();
            compress_words(candidate, sample, &mut trial);
            if trial.len() < best_len {
                (best, best_len, won) = (candidate, trial.len(), Some(trial));
            }
        }
        (best, won.filter(|_| sample.len() == words.len()))
    }

    /// Every codec set that keeps `Raw`.
    fn every_codec_set() -> impl Iterator<Item = CodecSet> {
        (0..32).step_by(2).map(CodecSet::from_bits)
    }

    /// `n` (16..=32) words whose `Varint` and `BitPack` encodings have the
    /// same length: `k` zig-zagged deltas of `width` (8..=14) bits cost
    /// two varint bytes each, the rest one, and `k` is picked so that
    /// `n + k = 1 + ⌈n·width/8⌉`, the size of one packed group.
    fn varint_bitpack_tie(n: usize, width: u32, seed: u64) -> Vec<u64> {
        let k = 1 + (n * width as usize).div_ceil(8) - n;
        let mut x = seed | 1;
        let mut word = 0u64;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let value = match i {
                    0 => (1 << (width - 1)) | (x >> 60),
                    i if i < k => 128 + (x >> 33) % ((1 << width) - 128),
                    _ => (x >> 33) % 128,
                };
                word = word.wrapping_add(unzigzag(value) as u64);
                word
            })
            .collect()
    }

    /// `n` (16..=40) words whose `Varint` and `VarintLz` encodings have
    /// the same length: the zig-zagged deltas are distinct one-byte
    /// varints but for one repeat, at `at` (7..=n-4), of the four at 2, so
    /// the LZ pass finds exactly one four-byte copy, whose two token bytes
    /// and the literal runs' two control bytes cost what it saves.  At
    /// `at = n - 4` no literal run follows the copy, and `VarintLz` wins
    /// by that run's one control byte.
    fn varint_varintlz_tie(n: usize, at: usize) -> Vec<u64> {
        let mut word = 0u64;
        (0..n)
            .map(|i| {
                let value = if (at..at + 4).contains(&i) {
                    i - at + 2
                } else {
                    i
                };
                word = word.wrapping_add(unzigzag(value as u64) as u64);
                word
            })
            .collect()
    }

    /// [`exhaustive_choice`] for a byte slab: `Lz` run to the end, kept
    /// when strictly shorter than the raw sample.
    fn exhaustive_byte_choice(bytes: &[u8], allowed: CodecSet) -> (CodecId, Option<Vec<u8>>) {
        let lz_allowed = allowed.contains(CodecId::Lz) || allowed.contains(CodecId::VarintLz);
        if bytes.len() < MIN_COMPRESS_BYTES || !lz_allowed {
            return (CodecId::Raw, None);
        }
        let sample = &bytes[..bytes.len().min(SAMPLE_BYTES)];
        let mut trial = Vec::new();
        lz::compress(sample, &mut trial);
        if trial.len() < sample.len() {
            (
                CodecId::Lz,
                Some(trial).filter(|_| sample.len() == bytes.len()),
            )
        } else {
            (CodecId::Raw, None)
        }
    }

    /// The bounded choosers against [`exhaustive_choice`] on one slab —
    /// and [`exhaustive_byte_choice`] on its words' low bytes — under
    /// every codec set, through a fresh and a reused compressor.
    fn assert_bounded_choice_is_exhaustive(words: &[u64], warm: &mut Compressor) {
        let bytes: Vec<u8> = words.iter().map(|&word| word as u8).collect();
        for allowed in every_codec_set() {
            let (want, want_words) = exhaustive_choice(words, allowed);
            let (want_byte_codec, want_bytes) = exhaustive_byte_choice(&bytes, allowed);
            for compressor in [&mut Compressor::new(), &mut *warm] {
                let got = compressor.choose_words(words, allowed);
                let got_byte_codec = compressor.choose_bytes(&bytes, allowed);
                let n = words.len();
                assert_eq!(got, want, "{n} words under {allowed:?}");
                assert_eq!(compressor.chosen_words(), want_words.as_deref(), "{n}");
                assert_eq!(
                    got_byte_codec, want_byte_codec,
                    "{n} bytes under {allowed:?}"
                );
                assert_eq!(compressor.chosen_bytes(), want_bytes.as_deref(), "{n}");
            }
        }
    }

    #[test]
    fn designed_ties_go_to_the_earlier_codec() {
        let mut warm = Compressor::new();
        for n in 16..=32 {
            for width in 8..=14 {
                let words = varint_bitpack_tie(n, width, (n as u64) << 8 | u64::from(width));
                let (mut varint, mut packed) = (Vec::new(), Vec::new());
                compress_words(CodecId::Varint, &words, &mut varint);
                compress_words(CodecId::BitPack, &words, &mut packed);
                assert_eq!(varint.len(), packed.len(), "{n} words of width {width}");
                let pair = CodecSet::from_bits(0b1_0011);
                assert_eq!(choose_words(&words, pair), CodecId::Varint);
                assert_bounded_choice_is_exhaustive(&words, &mut warm);
            }
        }
        for n in 16..=40 {
            for at in 7..=n - 4 {
                let words = varint_varintlz_tie(n, at);
                let (mut varint, mut folded) = (Vec::new(), Vec::new());
                compress_words(CodecId::Varint, &words, &mut varint);
                compress_words(CodecId::VarintLz, &words, &mut folded);
                let last = at == n - 4;
                assert_eq!(folded.len() + usize::from(last), varint.len(), "{n}, {at}");
                let pair = CodecSet::from_bits(0b0_1011);
                let want = if last {
                    CodecId::VarintLz
                } else {
                    CodecId::Varint
                };
                assert_eq!(
                    choose_words(&words, pair),
                    want,
                    "{n} words, repeat at {at}"
                );
                assert_bounded_choice_is_exhaustive(&words, &mut warm);
            }
        }
        // The same repeat in a byte slab ties `Lz` with `Raw`, which wins
        // (up to 68 bytes, so each literal run's control is one byte).
        for n in MIN_COMPRESS_BYTES..=68 {
            for at in 7..=n - 4 {
                let words: Vec<u64> = (0..n as u64)
                    .map(|i| {
                        if (at..at + 4).contains(&(i as usize)) {
                            i - at as u64 + 2
                        } else {
                            i
                        }
                    })
                    .collect();
                let bytes: Vec<u8> = words.iter().map(|&word| word as u8).collect();
                let mut folded = Vec::new();
                compress_bytes(CodecId::Lz, &bytes, &mut folded);
                let last = at == n - 4;
                assert_eq!(
                    folded.len() + usize::from(last),
                    n,
                    "{n} bytes, repeat at {at}"
                );
                let want = if last { CodecId::Lz } else { CodecId::Raw };
                assert_eq!(choose_bytes(&bytes, CodecSet::all()), want, "{n}, {at}");
                assert_bounded_choice_is_exhaustive(&words, &mut warm);
            }
        }
    }

    proptest::proptest! {
        /// `choose_words` — cheap codecs first, LZ trials stopped once they
        /// cannot win — picks what running every allowed codec to the end
        /// picks, and keeps the same bytes: on slabs of every character,
        /// at and below the compression floor, beyond the choice sample,
        /// and built so that `Varint` ties `BitPack` or `VarintLz`.
        #[test]
        fn bounded_choice_matches_exhaustive_choice(
            kind in 0u8..7,
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..300,
        ) {
            let mut x = seed | 1;
            let pattern = [seed, seed >> 7, 42, seed.rotate_left(13)];
            let mut step = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            };
            let words: Vec<u64> = match kind {
                0 => (0..len).map(|_| step() % 1000).collect(),
                1 => (0..len).map(|_| step()).collect(),
                2 => (0..len).map(|i| pattern[i % 4]).collect(),
                3 => (0..len % MIN_COMPRESS_WORDS).map(|_| step() % 50).collect(),
                4 => (0..CHOICE_SAMPLE_WORDS + len)
                    .map(|i| if i / 64 % 2 == 0 { step() % 1000 } else { i as u64 })
                    .collect(),
                5 => varint_bitpack_tie(16 + len % 17, 8 + (seed % 7) as u32, seed),
                _ => varint_varintlz_tie(16 + len % 25, 7 + (seed % 6) as usize),
            };
            assert_bounded_choice_is_exhaustive(&words, &mut Compressor::new());
        }
    }

    #[test]
    fn codec_set_negotiation_rules() {
        let all = CodecSet::all();
        let raw = CodecSet::raw_only();
        for c in CodecId::ALL {
            assert!(all.contains(c));
            assert!(CodecSet::only(c).contains(c));
            assert!(CodecSet::only(c).contains(CodecId::Raw), "Raw always in");
        }
        assert!(!raw.contains(CodecId::VarintLz));
        assert_eq!(all.intersect(raw), raw);
        assert_eq!(
            CodecSet::only(CodecId::Lz).intersect(CodecSet::only(CodecId::Varint)),
            raw
        );
    }

    #[test]
    fn byte_slab_roundtrip_and_word_codec_rejection() {
        let bytes: Vec<u8> = (0..2000u32).map(|i| (i % 7) as u8).collect();
        for id in [CodecId::Raw, CodecId::Lz] {
            let mut compressed = Vec::new();
            compress_bytes(id, &bytes, &mut compressed);
            let mut back = Vec::new();
            decompress_bytes(id, &compressed, bytes.len(), &mut back).unwrap();
            assert_eq!(back, bytes);
        }
        let err = decompress_bytes(CodecId::Varint, &[0], 1, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CodecError::WordCodecOnBytes { .. }));
    }

    #[test]
    fn truncated_and_oversized_claims_fail_without_allocation() {
        let slab: Vec<u64> = (0..100).collect();
        for id in CodecId::ALL {
            let mut compressed = Vec::new();
            compress_words(id, &slab, &mut compressed);
            // Truncation.
            let cut = &compressed[..compressed.len() - 1];
            let mut out = Vec::new();
            assert!(
                decompress_words(id, cut, slab.len(), &mut out).is_err(),
                "{id} accepted truncated input"
            );
            // Claimed word count far beyond what the payload can produce:
            // precise error, no multi-gigabyte reserve.
            let mut out = Vec::new();
            assert!(
                decompress_words(id, &compressed, 1 << 30, &mut out).is_err(),
                "{id} accepted a bomb claim"
            );
            assert!(out.capacity() < (1 << 24), "{id} over-allocated");
            // Claimed count below the payload's actual content.
            let mut out = Vec::new();
            assert!(
                decompress_words(id, &compressed, slab.len() - 1, &mut out).is_err(),
                "{id} accepted an undersized claim"
            );
        }
    }

    #[test]
    fn varint_known_encoding() {
        // Deltas: 5, +1, +1, -2 → zigzag 10, 2, 2, 3.
        let mut out = Vec::new();
        compress_words(CodecId::Varint, &[5, 6, 7, 5], &mut out);
        assert_eq!(out, vec![10, 2, 2, 3]);
    }

    /// The two-group example of `docs/WIRE_FORMAT.md`, by hand: 32 fives
    /// (deltas 5, 0, …, 0 → zig-zag 10, 0, …: width 4, 16 bytes holding
    /// 0x0A and zeros), then 3, 1 (the restart deltas 3 against 0, then
    /// −2 → zig-zag 6, 3: width 3, one byte 0b00_011_110).
    fn bitpack_example() -> (Vec<u64>, Vec<u8>) {
        let mut words = vec![5u64; 32];
        words.extend([3, 1]);
        let mut bytes = vec![4, 0x0A];
        bytes.extend([0; 15]);
        bytes.extend([3, 0x1E]);
        (words, bytes)
    }

    #[test]
    fn bitpack_known_encoding() {
        let (words, bytes) = bitpack_example();
        let mut out = Vec::new();
        compress_words(CodecId::BitPack, &words, &mut out);
        assert_eq!(out, bytes);
        // The second group starts at 1 + 4·4 = 17 and decodes alone.
        let mut second = Vec::new();
        decompress_words(CodecId::BitPack, &bytes[17..], 2, &mut second).unwrap();
        assert_eq!(second, [3, 1]);
    }

    #[test]
    fn bitpack_decode_errors_are_precise() {
        let (words, bytes) = bitpack_example();
        let decode = |input: &[u8], count: usize| {
            let mut out = Vec::new();
            let result = decompress_words(CodecId::BitPack, input, count, &mut out);
            (result.err(), out.capacity())
        };
        let truncated = Some(CodecError::TruncatedInput {
            context: "bitpack group",
        });
        // A width byte above 64.
        let mut wide = bytes.clone();
        wide[17] = 65;
        assert_eq!(
            decode(&wide, 34).0,
            Some(CodecError::BadWidth { width: 65 })
        );
        // A group cut short, and a group missing entirely.
        assert_eq!(decode(&bytes[..18], 34).0, truncated);
        assert_eq!(decode(&bytes[..17], 34).0, truncated);
        // A count needing more groups than the payload has bytes: rejected
        // before anything is reserved.
        let (err, reserved) = decode(&bytes, 1 << 40);
        assert_eq!(
            err,
            Some(CodecError::TruncatedInput {
                context: "bitpack slab"
            })
        );
        assert_eq!(reserved, 0);
        // Bytes left after the declared words.
        assert_eq!(
            decode(&bytes, 32).0,
            Some(CodecError::TrailingInput { remaining: 2 })
        );
        assert_eq!(decode(&bytes, words.len()).0, None);
        // BitPack is a word codec only.
        assert_eq!(
            decompress_bytes(CodecId::BitPack, &bytes, 8, &mut Vec::new()),
            Err(CodecError::WordCodecOnBytes {
                codec: CodecId::BitPack
            })
        );
    }

    #[test]
    fn display_and_wire_ids_are_stable() {
        for (id, byte, name) in [
            (CodecId::Raw, 0u8, "Raw"),
            (CodecId::Varint, 1, "Varint"),
            (CodecId::Lz, 2, "Lz"),
            (CodecId::VarintLz, 3, "VarintLz"),
            (CodecId::BitPack, 4, "BitPack"),
        ] {
            assert_eq!(id as u8, byte);
            assert_eq!(CodecId::from_u8(byte), Some(id));
            assert_eq!(id.name(), name);
        }
        assert_eq!(CodecId::from_u8(5), None);
        assert_eq!(CodecId::from_u8(0xFF), None);
    }
}
