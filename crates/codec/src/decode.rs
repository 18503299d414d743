//! The decode side of every word codec: one pull-based [`WordDecoder`].
//!
//! A decoder hands a slab's words out in pieces of any size the caller
//! asks for, so a reader can fill its own storage straight from the
//! payload and no `u64` slab is ever built on decode:
//!
//! * [`CodecId::Raw`] and [`CodecId::Varint`] read straight from the
//!   payload;
//! * [`CodecId::BitPack`] unpacks one 32-word group at a time — into the
//!   caller's buffer directly when a whole group fits there;
//! * [`CodecId::Lz`] and [`CodecId::VarintLz`] run the LZ pass up front
//!   and stage only its *byte* output, which the raw or varint reader
//!   then walks.
//!
//! Every check of the untrusted input happens where the whole-slab decode
//! made it, with the same [`CodecError`]: the declared count against what
//! the payload can hold when the decoder is made, each word or group as
//! it is read, and trailing bytes at [`WordDecoder::finish`].

use crate::bitpack::{self, GROUP_WORDS};
use crate::{lz, read_uvarint, slab_bytes, unzigzag, CodecError, CodecId};
use std::borrow::Cow;

/// Upper bound on the varint stage's output per word (a zig-zagged 64-bit
/// delta is at most 10 LEB128 bytes) — bounds the intermediate buffer the
/// LZ stage of [`CodecId::VarintLz`] may produce from untrusted input.
const MAX_VARINT_BYTES_PER_WORD: usize = 10;

/// A pull decoder over one compressed word slab of a known word count.
///
/// [`WordDecoder::read`] fills a caller buffer of any length up to
/// [`WordDecoder::remaining`]; after the last word, [`WordDecoder::finish`]
/// rejects bytes the declared words did not consume.  Reading in pieces
/// yields exactly the words, and the errors, of a whole-slab decode:
///
/// ```
/// use mojave_codec::{compress_words, CodecId, WordDecoder};
///
/// let slab: Vec<u64> = (0..100).map(|i| i * i).collect();
/// let mut packed = Vec::new();
/// compress_words(CodecId::BitPack, &slab, &mut packed);
///
/// let mut decoder = WordDecoder::new(CodecId::BitPack, &packed, slab.len()).unwrap();
/// let mut back = vec![0; slab.len()];
/// for piece in back.chunks_mut(7) {
///     decoder.read(piece).unwrap();
/// }
/// decoder.finish().unwrap();
/// assert_eq!(back, slab);
/// ```
///
/// An error is final: a decoder that returned one has no defined state.
#[derive(Debug, Clone)]
pub struct WordDecoder<'a> {
    /// What the words are read from: the payload, or the LZ stage's output.
    input: Cow<'a, [u8]>,
    /// Read offset into `input`.
    pos: usize,
    /// Words not yet handed out.
    left: usize,
    filter: Filter,
}

/// How words are read from a decoder's input.
#[derive(Debug, Clone)]
enum Filter {
    /// Eight little-endian bytes per word.
    Raw,
    /// Zig-zagged LEB128 deltas against the previous word.
    Varint { prev: u64 },
    /// 32-word groups: the current one, and how far it is handed out.
    BitPack {
        group: Box<[u64; GROUP_WORDS]>,
        at: usize,
        len: usize,
        /// Words in groups not yet unpacked.
        unpacked_left: usize,
    },
}

impl<'a> WordDecoder<'a> {
    /// A decoder of `input`, which must encode exactly `word_count` words
    /// with codec `id`.  Rejects, before anything is allocated for it, a
    /// count the payload cannot hold; the LZ codecs also run their LZ
    /// pass here, bounded by the declared count.
    pub fn new(id: CodecId, input: &'a [u8], word_count: usize) -> Result<Self, CodecError> {
        let (input, filter) = match id {
            CodecId::Raw => {
                exact_bytes(input.len(), word_count, "raw slab")?;
                (Cow::Borrowed(input), Filter::Raw)
            }
            CodecId::Varint => (Cow::Borrowed(input), Filter::Varint { prev: 0 }),
            CodecId::Lz => {
                let mut staged = Vec::new();
                lz::decompress(input, slab_bytes(word_count, "LZ slab")?, &mut staged)?;
                exact_bytes(staged.len(), word_count, "LZ slab")?;
                (Cow::Owned(staged), Filter::Raw)
            }
            CodecId::VarintLz => {
                let max_varint_bytes = word_count.saturating_mul(MAX_VARINT_BYTES_PER_WORD);
                let mut staged = Vec::new();
                lz::decompress(input, max_varint_bytes, &mut staged)?;
                (Cow::Owned(staged), Filter::Varint { prev: 0 })
            }
            CodecId::BitPack => {
                // Every group pays at least its width byte.
                if word_count.div_ceil(GROUP_WORDS) > input.len() {
                    return Err(CodecError::TruncatedInput {
                        context: "bitpack slab",
                    });
                }
                let filter = Filter::BitPack {
                    group: Box::new([0; GROUP_WORDS]),
                    at: 0,
                    len: 0,
                    unpacked_left: word_count,
                };
                (Cow::Borrowed(input), filter)
            }
        };
        // Each varint word consumes at least one byte.
        if matches!(filter, Filter::Varint { .. }) && word_count > input.len() {
            return Err(CodecError::TruncatedInput {
                context: "varint slab",
            });
        }
        Ok(WordDecoder {
            input,
            pos: 0,
            left: word_count,
            filter,
        })
    }

    /// Words not yet read.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Fill `out` with the next `out.len()` words.
    ///
    /// # Panics
    /// Panics if `out` is longer than [`WordDecoder::remaining`]: the word
    /// count is the caller's to respect, not the input's.
    pub fn read(&mut self, out: &mut [u64]) -> Result<(), CodecError> {
        assert!(
            out.len() <= self.left,
            "read of {} words with {} left",
            out.len(),
            self.left
        );
        self.left -= out.len();
        let input = &*self.input;
        match &mut self.filter {
            Filter::Raw => {
                // `new` checked the input holds exactly `8 · word_count`
                // bytes, so this slice is in bounds.
                let bytes = &input[self.pos..self.pos + out.len() * 8];
                for (word, chunk) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                    *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                }
                self.pos += bytes.len();
            }
            Filter::Varint { prev } => {
                for word in out {
                    let zz = read_uvarint(input, &mut self.pos, "varint slab")?;
                    *prev = prev.wrapping_add(unzigzag(zz) as u64);
                    *word = *prev;
                }
            }
            Filter::BitPack {
                group,
                at,
                len,
                unpacked_left,
            } => {
                let mut out = out;
                while !out.is_empty() {
                    if *at == *len {
                        // `out` is no longer than the words left, and none
                        // are buffered, so a group remains to unpack.
                        let n = (*unpacked_left).min(GROUP_WORDS);
                        *unpacked_left -= n;
                        if n == GROUP_WORDS && out.len() >= GROUP_WORDS {
                            let (whole, rest) = out.split_at_mut(GROUP_WORDS);
                            let whole = whole.try_into().expect("one group");
                            bitpack::decode_group(input, &mut self.pos, n, whole)?;
                            out = rest;
                            continue;
                        }
                        bitpack::decode_group(input, &mut self.pos, n, group)?;
                        (*at, *len) = (0, n);
                    }
                    let take = (*len - *at).min(out.len());
                    let (head, rest) = out.split_at_mut(take);
                    head.copy_from_slice(&group[*at..*at + take]);
                    *at += take;
                    out = rest;
                }
            }
        }
        Ok(())
    }

    /// Check, after the last word was read, that the payload held nothing
    /// more.
    pub fn finish(self) -> Result<(), CodecError> {
        debug_assert_eq!(self.left, 0, "finish before the last word");
        match self.input.len() - self.pos {
            0 => Ok(()),
            remaining => Err(CodecError::TrailingInput { remaining }),
        }
    }

    /// Append every remaining word to `out` and [`WordDecoder::finish`].
    /// On error `out` is left as it was.
    pub fn read_to_end(mut self, out: &mut Vec<u64>) -> Result<(), CodecError> {
        let start = out.len();
        out.resize(start + self.left, 0);
        let result = self.read(&mut out[start..]).and_then(|()| self.finish());
        if result.is_err() {
            out.truncate(start);
        }
        result
    }
}

/// Check that `found` bytes hold exactly `word_count` little-endian words.
fn exact_bytes(found: usize, word_count: usize, context: &'static str) -> Result<(), CodecError> {
    let expected = slab_bytes(word_count, context)?;
    if found != expected {
        return Err(CodecError::LengthMismatch { expected, found });
    }
    Ok(())
}
