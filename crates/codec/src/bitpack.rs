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
pub const GROUP_WORDS: usize = 32;

/// One group's bit string, with one spare word so the two-word read of a
/// value straddling a word boundary never branches.
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

/// Pack a full group of values, each below `2^W`, into the first `4·W`
/// bytes of `out`.  The values shift into a register accumulator that is
/// stored little-endian each time it fills, so the bit string is written
/// once, in order, and never read back.  The 32 steps are spelled out so
/// each one's shift and store offset is a constant of the width's
/// instance.
#[inline(always)]
fn pack<const W: u32>(values: &[u64; GROUP_WORDS], out: &mut [u8]) {
    let out = &mut out[..4 * W as usize];
    let mut acc = 0u64;
    macro_rules! steps {
        ($($i:literal)*) => {$({
            let (at, value) = ($i * W, values[$i]);
            let shift = at % 64;
            acc |= value << shift;
            if shift + W >= 64 {
                let word = (at / 64) as usize * 8;
                out[word..word + 8].copy_from_slice(&acc.to_le_bytes());
                // The high bits of `value` that did not fit; none when it
                // ended exactly on the word boundary.
                acc = if shift + W == 64 { 0 } else { value >> (64 - shift) };
            }
        })*};
    }
    steps!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31);
    // `32·W` bits end on a word boundary or halfway through a word.
    if W % 2 == 1 {
        let word = (W / 2) as usize * 8;
        out[word..word + 4].copy_from_slice(&acc.to_le_bytes()[..4]);
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

/// Append one group (`1..=GROUP_WORDS` items, each read as a word
/// through `payload`) to `out`.
fn encode_group<T>(group: &[T], payload: impl Fn(&T) -> u64, out: &mut Vec<u8>) {
    debug_assert!(!group.is_empty() && group.len() <= GROUP_WORDS);
    let mut values = [0u64; GROUP_WORDS];
    let mut prev = 0u64;
    let mut any = 0u64;
    for (value, item) in values.iter_mut().zip(group) {
        let word = payload(item);
        *value = zigzag(word.wrapping_sub(prev) as i64);
        any |= *value;
        prev = word;
    }
    write_group(&values, group.len(), u64::BITS - any.leading_zeros(), out);
}

/// Append the width byte and the packed bytes of a group whose first `n`
/// values (the rest are zero) are `width` bits wide, with one resize.
/// Kept out of line, and apart from the generic [`encode_group`], so the
/// 65 kernel instances exist once.
#[inline(never)]
fn write_group(values: &[u64; GROUP_WORDS], n: usize, width: u32, out: &mut Vec<u8>) {
    // The kernel always packs the full group; the bytes past the first
    // `n` values' hold only zero bits and are cut off.
    let start = out.len();
    out.resize(start + 1 + packed_len(GROUP_WORDS, width), 0);
    out[start] = width as u8;
    by_width!(width, pack(values, &mut out[start + 1..]));
    out.truncate(start + 1 + packed_len(n, width));
}

/// The word itself: the `payload` of a slab that is already words.
fn as_word(word: &u64) -> u64 {
    *word
}

/// Compress a whole slab.
pub(crate) fn compress(words: &[u64], out: &mut Vec<u8>) {
    out.reserve(words.len() * 2);
    for group in words.chunks(GROUP_WORDS) {
        encode_group(group, as_word, out);
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

/// Streaming encode side of [`crate::CodecId::BitPack`], for callers whose words
/// arrive in pieces — the blocks of a heap — and who don't want to stage
/// the whole `u64` slab first.  Whole groups inside a piece are packed
/// straight from it; only the words of a group that straddles two pieces
/// are held here between calls.
///
/// Byte-for-byte identical to [`crate::compress_words`] with that codec
/// over the same word sequence once [`BitPackStream::finish`] has written
/// the last (short) group:
///
/// ```
/// use mojave_codec::{compress_words, BitPackStream, CodecId};
///
/// let words: Vec<u64> = (0..70).map(|i| i * i).collect();
/// let mut staged = Vec::new();
/// compress_words(CodecId::BitPack, &words, &mut staged);
///
/// let mut streamed = Vec::new();
/// let mut stream = BitPackStream::new();
/// for part in words.chunks(25) {
///     stream.extend(part, |&word| word, &mut streamed);
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

    /// Add the words `items` hold, read through `payload`, in order,
    /// writing each group to `out` as it fills.
    #[inline]
    pub fn extend<T>(&mut self, items: &[T], payload: impl Fn(&T) -> u64, out: &mut Vec<u8>) {
        let mut items = items;
        if self.len > 0 {
            // Complete the group the last piece left open, word by word.
            let take = (GROUP_WORDS - self.len).min(items.len());
            let (head, rest) = items.split_at(take);
            for (slot, item) in self.group[self.len..].iter_mut().zip(head) {
                *slot = payload(item);
            }
            self.len += take;
            items = rest;
            if self.len < GROUP_WORDS {
                return;
            }
            encode_group(&self.group, as_word, out);
            self.len = 0;
        }
        let mut groups = items.chunks_exact(GROUP_WORDS);
        for group in &mut groups {
            encode_group(group, &payload, out);
        }
        let rest = groups.remainder();
        for (slot, item) in self.group.iter_mut().zip(rest) {
            *slot = payload(item);
        }
        self.len = rest.len();
    }

    /// Whether the stream holds no words: the next word starts a group,
    /// so bytes of whole groups may be appended to `out` as they stand.
    pub fn at_group_start(&self) -> bool {
        self.len == 0
    }

    /// Write the last, partly filled group (if any).
    pub fn finish(self, out: &mut Vec<u8>) {
        if self.len > 0 {
            encode_group(&self.group[..self.len], as_word, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a deterministic stream of test values.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The bit-OR packer the register-accumulator kernel replaced, kept as
    /// the reference it must match: every value ORed into a zeroed bit
    /// string at bit `i·width`, the string then cut to the group's bytes.
    fn reference_group(group: &[u64]) -> Vec<u8> {
        let mut prev = 0u64;
        let values: Vec<u64> = group
            .iter()
            .map(|&word| {
                let value = zigzag(word.wrapping_sub(prev) as i64);
                prev = word;
                value
            })
            .collect();
        let width = u64::BITS - values.iter().fold(0, |any, v| any | v).leading_zeros();
        let mut bits: Bits = [0; GROUP_WORDS + 1];
        for (i, &value) in values.iter().enumerate() {
            let at = i * width as usize;
            let (word, shift) = (at / 64, (at % 64) as u32);
            bits[word] |= value << shift;
            bits[word + 1] |= (value >> 1) >> (63 - shift);
        }
        let mut out = vec![width as u8];
        let bytes = bits.iter().flat_map(|word| word.to_le_bytes());
        out.extend(bytes.take(packed_len(group.len(), width)));
        out
    }

    /// `n` words whose zig-zagged deltas are exactly `width` bits wide: the
    /// last one has its top bit set, the others are random below `2^width`.
    fn group_of_width(width: u32, n: usize, rng: &mut u64) -> Vec<u64> {
        let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let mut word = 0u64;
        (0..n)
            .map(|i| {
                let mut value = next(rng) & mask;
                if i == n - 1 && width > 0 {
                    value |= 1 << (width - 1);
                }
                word = word.wrapping_add(unzigzag(value) as u64);
                word
            })
            .collect()
    }

    #[test]
    fn bitpack_kernel_matches_reference_packer() {
        let mut rng = 35;
        for width in 0..=64 {
            for n in 1..=GROUP_WORDS {
                let group = group_of_width(width, n, &mut rng);
                let mut out = vec![0xAA]; // encode_group appends
                encode_group(&group, as_word, &mut out);
                assert_eq!(
                    out[1..],
                    reference_group(&group),
                    "width {width}, {n} words"
                );
                assert_eq!(u32::from(out[1]), width, "{n} words");

                let mut pos = 1;
                let mut values = [0; GROUP_WORDS];
                decode_group(&out, &mut pos, n, &mut values).unwrap();
                assert_eq!(pos, out.len(), "width {width}, {n} words");
                assert_eq!(values[..n], group, "width {width}, {n} words");
            }
        }
    }

    /// A slab cut into three blocks, the first two of every length in
    /// {0, 1, 31, 32, 33}, streams to the bytes the whole-slab encoder
    /// writes — full groups inside a block, groups straddling one seam or
    /// two, and empty blocks between.
    #[test]
    fn stream_split_at_group_edges_matches_compress() {
        let mut rng = 7;
        let slab: Vec<u64> = (0..150)
            .map(|i| match i / 20 % 3 {
                0 => next(&mut rng) % 1000,
                1 => next(&mut rng),
                _ => i,
            })
            .collect();
        let mut want = Vec::new();
        compress(&slab, &mut want);
        let cuts = [0, 1, 31, 32, 33];
        for first in cuts {
            for second in cuts {
                let (a, rest) = slab.split_at(first);
                let (b, c) = rest.split_at(second);
                let mut got = Vec::new();
                let mut stream = BitPackStream::new();
                for block in [a, b, c] {
                    stream.extend(block, |&word| word, &mut got);
                }
                stream.finish(&mut got);
                assert_eq!(got, want, "blocks of {first}, {second} and the rest");
            }
        }
    }
}
