//! The encode half of the wire format.

use crate::tags::{SectionTag, FORMAT_VERSION, MAGIC};
use mojave_codec::{CodecId, CodecSet, Compressor};
use std::ops::{Deref, DerefMut};

/// Append-only encoder producing the canonical Mojave byte format.
///
/// The writer never fails: it owns a growable `Vec<u8>` and every `write_*`
/// method appends the little-endian / LEB128 encoding of its argument.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Create a writer with a pre-sized buffer, useful when the caller knows
    /// the approximate image size (e.g. packing a heap of known byte count).
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Forget everything written, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`, little-endian.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian two's complement.
    pub fn write_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (NaN payloads preserved).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Write a boolean as a single 0/1 byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Write an unsigned LEB128 varint.
    pub fn write_uvarint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write a signed varint using zig-zag encoding.
    pub fn write_ivarint(&mut self, v: i64) {
        let zz = ((v << 1) ^ (v >> 63)) as u64;
        self.write_uvarint(zz);
    }

    /// Append already-encoded bytes as they are, with no length prefix —
    /// for splicing a section body that was encoded once and kept.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a length-prefixed byte slice.
    ///
    /// This is the zero-copy slab path for byte payloads: one length prefix
    /// followed by a single `extend_from_slice` of the whole slab, which the
    /// reader hands back as a borrowed `&[u8]` view.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_uvarint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Write a length-prefixed slab of 64-bit words as one contiguous
    /// little-endian region.
    ///
    /// This is the batched counterpart of calling [`WireWriter::write_u64`]
    /// in a loop: the buffer is grown once and filled with a tight LE copy
    /// loop (which compiles down to a memcpy on little-endian hosts), so the
    /// per-element cost is a plain 8-byte store instead of a `Vec` growth
    /// check plus a varint encode.  Decode with
    /// [`crate::WireReader::read_words_into`].
    pub fn write_words(&mut self, words: &[u64]) {
        self.write_uvarint(words.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + words.len() * 8, 0);
        for (chunk, word) in self.buf[start..].chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Write a length-prefixed byte region whose bytes `fill` appends in
    /// place — [`WireWriter::write_bytes`] for a payload that is produced
    /// rather than held, so a compressor or a streaming encoder writes
    /// straight into the frame instead of into a side buffer that is then
    /// copied.  The canonical (shortest) LEB128 length is patched in
    /// afterwards; `size_hint` only has to land in the right *order of
    /// magnitude* (lengths of 16 KiB to 2 MiB all take three bytes) for
    /// that to move nothing — a wrong guess costs one `memmove`, never a
    /// different byte on the wire.
    ///
    /// Returns where the region's bytes start in the buffer once written.
    /// `fill` appends after a guessed prefix and the region moves when the
    /// guess was wrong, so an offset `fill` noted as `out.len()` is only
    /// right relative to its own first `out.len()`: add that relative
    /// offset to this.
    pub fn write_bytes_with(&mut self, size_hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> usize {
        let at = self.buf.len();
        let guess = uvarint_len(size_hint as u64);
        self.buf.resize(at + guess, 0);
        fill(&mut self.buf);
        let body = at + guess;
        let len = self.buf.len() - body;
        let prefix = uvarint_len(len as u64);
        if prefix > guess {
            self.buf.resize(self.buf.len() + (prefix - guess), 0);
        }
        if prefix != guess {
            self.buf.copy_within(body..body + len, at + prefix);
            self.buf.truncate(at + prefix + len);
        }
        let mut v = len as u64;
        for byte in &mut self.buf[at..at + prefix] {
            *byte = (v & 0x7F) as u8 | 0x80;
            v >>= 7;
        }
        self.buf[at + prefix - 1] &= 0x7F;
        at + prefix
    }

    /// Write a codec-tagged compressed **word-slab frame** (v5 images):
    /// uvarint word count, codec id byte, then the length-prefixed
    /// compressed payload.  Decode with
    /// [`crate::WireReader::read_word_frame`].
    ///
    /// `codec` is typically picked by [`mojave_codec::choose_words`]; the
    /// [`CodecId::Raw`] fast path writes the slab bytes directly (no
    /// staging copy), so an incompressible slab costs the same as
    /// [`WireWriter::write_words`] plus one id byte.
    pub fn write_word_frame(&mut self, words: &[u64], codec: CodecId) {
        self.write_word_frame_with(&mut Compressor::new(), words, codec);
    }

    /// [`WireWriter::write_word_frame`] through a caller-kept
    /// [`Compressor`] — same bytes, none of its per-call set-up.
    pub fn write_word_frame_with(
        &mut self,
        compressor: &mut Compressor,
        words: &[u64],
        codec: CodecId,
    ) {
        self.write_uvarint(words.len() as u64);
        self.write_u8(codec as u8);
        if codec == CodecId::Raw {
            self.write_uvarint(words.len() as u64 * 8);
            let start = self.buf.len();
            self.buf.resize(start + words.len() * 8, 0);
            for (chunk, word) in self.buf[start..].chunks_exact_mut(8).zip(words) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
        } else {
            self.write_bytes_with(words.len() * 2, |out| {
                compressor.compress_words(codec, words, out)
            });
        }
    }

    /// Write a word frame whose payload `fill` appends in place (see
    /// [`WireWriter::write_bytes_with`] for `size_hint`): what `fill`
    /// produces must be `codec`'s valid encoding of exactly `word_count`
    /// words — e.g. a [`mojave_codec::VarintStream`] fused into the
    /// caller's staging loop, so the slab is never materialised.  Returns
    /// where the payload starts, as [`WireWriter::write_bytes_with`] does.
    pub fn write_word_frame_streamed(
        &mut self,
        word_count: usize,
        codec: CodecId,
        size_hint: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> usize {
        self.write_uvarint(word_count as u64);
        self.write_u8(codec as u8);
        self.write_bytes_with(size_hint, fill)
    }

    /// Write a codec-tagged compressed **byte-slab frame** (v5 images):
    /// uvarint raw length, codec id byte, then the length-prefixed
    /// compressed payload.  Only [`CodecId::byte_capable`] codecs apply;
    /// pick one with [`mojave_codec::choose_bytes`].  Decode with
    /// [`crate::WireReader::read_byte_frame`].
    pub fn write_byte_frame(&mut self, bytes: &[u8], codec: CodecId) {
        self.write_byte_frame_with(&mut Compressor::new(), bytes, codec);
    }

    /// [`WireWriter::write_byte_frame`] through a caller-kept
    /// [`Compressor`] — same bytes, none of its per-call set-up.
    pub fn write_byte_frame_with(
        &mut self,
        compressor: &mut Compressor,
        bytes: &[u8],
        codec: CodecId,
    ) {
        self.write_uvarint(bytes.len() as u64);
        self.write_u8(codec as u8);
        if codec == CodecId::Raw {
            self.write_bytes(bytes);
        } else {
            self.write_bytes_with(bytes.len() / 4, |out| {
                compressor.compress_bytes(codec, bytes, out)
            });
        }
    }

    /// Pick `bytes`' codec from `allowed` with
    /// [`Compressor::choose_bytes`] and write the byte frame.  When the
    /// choice's trial covered the whole slab, that trial is the payload and
    /// nothing is compressed twice; the bytes equal
    /// `write_byte_frame(bytes, choose_bytes(bytes, allowed))` either way.
    pub fn write_byte_frame_chosen(
        &mut self,
        compressor: &mut Compressor,
        bytes: &[u8],
        allowed: CodecSet,
    ) {
        let codec = compressor.choose_bytes(bytes, allowed);
        match compressor.chosen_bytes() {
            Some(payload) => {
                self.write_uvarint(bytes.len() as u64);
                self.write_u8(codec as u8);
                self.write_bytes(payload);
            }
            None => self.write_byte_frame_with(compressor, bytes, codec),
        }
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Write a `usize` as a uvarint (canonical regardless of host width).
    pub fn write_usize(&mut self, v: usize) {
        self.write_uvarint(v as u64);
    }

    /// Write the standard image header: magic, format version and an
    /// arbitrary source-architecture string (the paper records the source
    /// architecture so heterogeneous migration can be observed in logs even
    /// though the heap needs no translation).
    pub fn write_header(&mut self, source_arch: &str) {
        self.write_header_versioned(source_arch, FORMAT_VERSION);
    }

    /// Write an image header carrying an explicit format version.
    ///
    /// Normal encoders always emit [`FORMAT_VERSION`] via
    /// [`WireWriter::write_header`]; this entry point exists so back-compat
    /// tests (and tools regenerating legacy fixtures) can produce v1 images.
    pub fn write_header_versioned(&mut self, source_arch: &str, version: u32) {
        self.write_section(SectionTag::Header);
        self.write_u32(MAGIC);
        self.write_u32(version);
        self.write_str(source_arch);
    }

    /// Write a section tag byte.
    pub fn write_section(&mut self, tag: SectionTag) {
        self.write_u8(tag as u8);
    }

    /// Open a framed, length-prefixed section (v2 image layout).
    ///
    /// Everything written through the returned [`SectionWriter`] becomes the
    /// section body; when the guard is finished (or dropped) the byte length
    /// of the body is patched into the reserved length slot, so readers can
    /// skip or slice sections without understanding their contents.
    pub fn begin_section(&mut self, tag: SectionTag) -> SectionWriter<'_> {
        self.write_section(tag);
        let len_pos = self.buf.len();
        self.write_u32(0); // patched by SectionWriter::finish / Drop
        SectionWriter {
            writer: self,
            len_pos,
        }
    }
}

/// Bytes the canonical LEB128 encoding of `v` takes — what
/// [`WireWriter::write_uvarint`] writes for it.
pub fn uvarint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Guard for a framed section opened with [`WireWriter::begin_section`].
///
/// Dereferences to [`WireWriter`], so every `write_*` method is available on
/// it; the section's length prefix is patched when the guard is dropped.
///
/// ```
/// use mojave_wire::{SectionTag, WireWriter};
///
/// let mut w = WireWriter::new();
/// let mut s = w.begin_section(SectionTag::Resume);
/// s.write_uvarint(7);
/// s.finish();
/// let mut r = mojave_wire::WireReader::new(w.as_bytes());
/// let mut body = r.expect_framed(SectionTag::Resume).unwrap();
/// assert_eq!(body.read_uvarint().unwrap(), 7);
/// ```
#[derive(Debug)]
pub struct SectionWriter<'w> {
    writer: &'w mut WireWriter,
    len_pos: usize,
}

impl SectionWriter<'_> {
    /// Close the section, patching its length prefix.  Equivalent to
    /// dropping the guard; provided so the close is visible in the code.
    pub fn finish(self) {}
}

impl Drop for SectionWriter<'_> {
    fn drop(&mut self) {
        let body_len = self.writer.buf.len() - (self.len_pos + 4);
        assert!(
            body_len <= u32::MAX as usize,
            "section body exceeds the 4 GiB frame limit"
        );
        let le = (body_len as u32).to_le_bytes();
        self.writer.buf[self.len_pos..self.len_pos + 4].copy_from_slice(&le);
    }
}

impl Deref for SectionWriter<'_> {
    type Target = WireWriter;
    fn deref(&self) -> &WireWriter {
        self.writer
    }
}

impl DerefMut for SectionWriter<'_> {
    fn deref_mut(&mut self) -> &mut WireWriter {
        self.writer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut w = WireWriter::new();
            w.write_uvarint(v);
            assert_eq!(w.len(), 1, "value {v}");
        }
    }

    #[test]
    fn uvarint_known_encodings() {
        let mut w = WireWriter::new();
        w.write_uvarint(300);
        assert_eq!(w.as_bytes(), &[0xAC, 0x02]);
    }

    #[test]
    fn ivarint_zigzag() {
        // -1 zig-zags to 1, 1 zig-zags to 2.
        let mut w = WireWriter::new();
        w.write_ivarint(-1);
        w.write_ivarint(1);
        assert_eq!(w.as_bytes(), &[1, 2]);
    }

    #[test]
    fn in_place_length_prefix_is_canonical_for_every_guess() {
        // Body lengths on both sides of each LEB128 width boundary, with
        // hints that guess too short, right and too long.
        for len in [0usize, 1, 127, 128, 300, 16_383, 16_384, 70_000] {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut want = WireWriter::new();
            want.write_u8(0xEE);
            want.write_bytes(&body);
            want.write_u8(0xFF);
            for hint in [0usize, 1, 200, 20_000, 3_000_000, usize::MAX] {
                let mut got = WireWriter::new();
                got.write_u8(0xEE);
                let at = got.write_bytes_with(hint, |out| out.extend_from_slice(&body));
                got.write_u8(0xFF);
                assert_eq!(got.as_bytes(), want.as_bytes(), "len {len} hint {hint}");
                assert_eq!(&got.as_bytes()[at..at + len], body, "len {len} hint {hint}");
            }
        }
    }

    #[test]
    fn header_layout() {
        let mut w = WireWriter::new();
        w.write_header("x86_64-sim");
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], SectionTag::Header as u8);
        assert_eq!(&bytes[1..5], &MAGIC.to_le_bytes());
    }
}
