//! Frame-of-reference bit packing in fixed 32-word groups
//! ([`crate::CodecId::BitPack`]).
//!
//! ## Group layout
//!
//! The slab is cut into groups of [`GROUP_WORDS`] words (the last group
//! may be shorter).  Each group restarts the delta + zig-zag filter — its
//! first word deltas against 0 — and is written as one width byte
//! `b ∈ 0..=64` followed by `⌈n·b/8⌉` bytes holding the group's `n`
//! zig-zagged deltas, `b` bits each, packed little-endian (value `i`
//! occupies bits `i·b .. (i+1)·b` of the group's bit string).  `b` is the
//! bit length of the largest value in the group.
//!
//! There is no index on the wire: a full group occupies `1 + 4·b` bytes,
//! so group `g` starts at the prefix sum of its predecessors' sizes and
//! decodes alone.
//!
//! Encode and decode are fixed-trip `u64` loops over one group — Goldstein,
//! Ramakrishnan & Shaft, "Compressing Relations and Indexes" (ICDE 1998);
//! Lemire & Boytsov, "Decoding billions of integers per second through
//! vectorization" (SPE 2015).  Random 64-bit words cost 8 bytes plus one
//! width byte per group, never LEB128's 10.

use crate::{unzigzag, zigzag, CodecError};

/// Words per group.  A constant of the format, not a tuning knob: larger
/// groups straddle a small-int run and a full-width run more often, and
/// one wide value then widens every word of its group.
pub(crate) const GROUP_WORDS: usize = 32;

/// One group's bit string, with one spare word so the two-word reads and
/// writes of a value straddling a word boundary never branch.
type Bits = [u64; GROUP_WORDS + 1];

/// Payload bytes of a group of `n` values `width` bits wide.
#[inline]
fn packed_len(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Call `kernel::<W>(args)` for the runtime width `W ∈ 0..=64`, so every
/// shift and mask in the kernel is a constant of its instance.
macro_rules! by_width {
    ($width:expr, $kernel:ident $args:tt) => {
        by_width!(@arms $width, $kernel $args;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59
            60 61 62 63 64)
    };
    (@arms $width:expr, $kernel:ident $args:tt; $($w:literal)*) => {
        match $width {
            $($w => $kernel::<$w> $args,)*
            _ => unreachable!("group widths are checked to be at most 64"),
        }
    };
}

/// Pack a full group of values, each below `2^W`, into `bits`.
fn pack<const W: u32>(values: &[u64; GROUP_WORDS], bits: &mut Bits) {
    for (i, &value) in values.iter().enumerate() {
        let at = i * W as usize;
        let (word, shift) = (at / 64, (at % 64) as u32);
        bits[word] |= value << shift;
        // `value >> (64 - shift)`, written so `shift == 0` shifts by 64
        // in two legal steps and yields 0.
        bits[word + 1] |= (value >> 1) >> (63 - shift);
    }
}

/// Unpack a full group of `W`-bit values from `bits`.
fn unpack<const W: u32>(bits: &Bits, values: &mut [u64; GROUP_WORDS]) {
    let mask = u64::MAX.checked_shr(64 - W).unwrap_or(0);
    for (i, value) in values.iter_mut().enumerate() {
        let at = i * W as usize;
        let (word, shift) = (at / 64, (at % 64) as u32);
        // `bits[word + 1] << (64 - shift)`, legal at `shift == 0`.
        *value = ((bits[word] >> shift) | ((bits[word + 1] << 1) << (63 - shift))) & mask;
    }
}

/// Append one group (`1..=GROUP_WORDS` words) to `out`.  Kept out of line:
/// it runs once per group, and inlined it would bloat the caller's word
/// loop in [`BitPackStream::extend`].
#[inline(never)]
fn encode_group(group: &[u64], out: &mut Vec<u8>) {
    debug_assert!(!group.is_empty() && group.len() <= GROUP_WORDS);
    let mut values = [0u64; GROUP_WORDS];
    let mut prev = 0u64;
    let mut any = 0u64;
    for (value, &word) in values.iter_mut().zip(group) {
        *value = zigzag(word.wrapping_sub(prev) as i64);
        any |= *value;
        prev = word;
    }
    let width = u64::BITS - any.leading_zeros();

    // Values past `group.len()` are zero, so the kernel always packs the
    // full group and pads the bit string with zero bits.
    let mut bits: Bits = [0; GROUP_WORDS + 1];
    by_width!(width, pack(&values, &mut bits));

    let len = packed_len(group.len(), width);
    out.reserve(1 + len);
    out.push(width as u8);
    let (whole, tail) = (len / 8, len % 8);
    for word in &bits[..whole] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&bits[whole].to_le_bytes()[..tail]);
}

/// Compress a whole slab.
pub(crate) fn compress(words: &[u64], out: &mut Vec<u8>) {
    out.reserve(words.len() * 2);
    for group in words.chunks(GROUP_WORDS) {
        encode_group(group, out);
    }
}

/// Decode the group of `n` (`1..=GROUP_WORDS`) words starting at
/// `input[*pos]` into `values[..n]` and advance `*pos` past it.  The kernel
/// always unpacks a full group, so `values[n..]` is overwritten too.
pub(crate) fn decode_group(
    input: &[u8],
    pos: &mut usize,
    n: usize,
    values: &mut [u64; GROUP_WORDS],
) -> Result<(), CodecError> {
    debug_assert!(n > 0 && n <= GROUP_WORDS);
    let truncated = CodecError::TruncatedInput {
        context: "bitpack group",
    };
    let width = *input.get(*pos).ok_or(truncated.clone())?;
    if width > 64 {
        return Err(CodecError::BadWidth { width });
    }
    let width = u32::from(width);
    let len = packed_len(n, width);
    let packed = input.get(*pos + 1..*pos + 1 + len).ok_or(truncated)?;

    let mut bits: Bits = [0; GROUP_WORDS + 1];
    let mut chunks = packed.chunks_exact(8);
    for (word, chunk) in bits.iter_mut().zip(&mut chunks) {
        *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    let tail = chunks.remainder();
    let mut le = [0u8; 8];
    le[..tail.len()].copy_from_slice(tail);
    bits[len / 8] = u64::from_le_bytes(le);

    by_width!(width, unpack(&bits, values));
    let mut prev = 0u64;
    for value in values.iter_mut() {
        prev = prev.wrapping_add(unzigzag(*value) as u64);
        *value = prev;
    }
    *pos += 1 + len;
    Ok(())
}

/// Streaming encode side of [`crate::BitPack`], for callers that produce
/// words incrementally and don't want to stage the whole `u64` slab first:
/// it holds one group and writes each group as it fills.
///
/// Byte-for-byte identical to [`crate::SlabCodec::compress_into`] over the
/// same word sequence once [`BitPackStream::finish`] has written the last
/// (short) group:
///
/// ```
/// use mojave_codec::{BitPack, BitPackStream, SlabCodec};
///
/// let words: Vec<u64> = (0..70).map(|i| i * i).collect();
/// let mut staged = Vec::new();
/// BitPack.compress_into(&words, &mut staged);
///
/// let mut streamed = Vec::new();
/// let mut stream = BitPackStream::new();
/// for part in words.chunks(25) {
///     stream.extend(part.iter().copied(), &mut streamed);
/// }
/// stream.finish(&mut streamed);
/// assert_eq!(streamed, staged);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BitPackStream {
    group: [u64; GROUP_WORDS],
    len: usize,
}

impl BitPackStream {
    /// A stream holding no words.
    pub fn new() -> Self {
        BitPackStream::default()
    }

    /// Add `words` in order, writing each group to `out` as it fills.
    #[inline]
    pub fn extend(&mut self, words: impl IntoIterator<Item = u64>, out: &mut Vec<u8>) {
        let mut len = self.len;
        for word in words {
            // `len` is below a full group here; the modulo only shows the
            // compiler that, so the store needs no bounds check.
            self.group[len % GROUP_WORDS] = word;
            len += 1;
            if len == GROUP_WORDS {
                encode_group(&self.group, out);
                len = 0;
            }
        }
        self.len = len;
    }

    /// Write the last, partly filled group (if any).
    pub fn finish(self, out: &mut Vec<u8>) {
        if self.len > 0 {
            encode_group(&self.group[..self.len], out);
        }
    }
}
