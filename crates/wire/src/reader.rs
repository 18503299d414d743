//! The decode half of the wire format.

use crate::error::WireError;
use crate::tags::{SectionTag, FORMAT_VERSION, MAGIC, MIN_SUPPORTED_VERSION};
use mojave_codec::{CodecId, WordDecoder};
use std::ops::{Deref, DerefMut};

/// Sanity bound on any single length prefix.  Migration images for the
/// workloads in the paper are a few megabytes; a length prefix claiming more
/// than this is corruption or an adversarial image and is rejected before we
/// try to allocate for it.
pub const MAX_REASONABLE_LEN: u64 = 1 << 32;

/// The decoded image header: format version and source architecture.
///
/// Returned by [`WireReader::read_header`], which accepts every version in
/// the supported range; callers branch on `version` to pick the right
/// layout (v1 unframed vs. v2 framed sections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageHeader {
    /// Format version found in the image (between
    /// [`MIN_SUPPORTED_VERSION`] and [`FORMAT_VERSION`] inclusive).
    pub version: u32,
    /// The architecture tag the packing machine recorded.
    pub source_arch: String,
}

/// Checked narrowing of a decoded 64-bit length to `usize`.
///
/// On 64-bit hosts this never fails, but on 32-bit targets a bare
/// `as usize` cast would silently truncate any value above `u32::MAX` —
/// turning an adversarial 2³²+k length prefix into an innocuous-looking
/// small `k` that passes every later bounds check.  Every length that
/// crosses from wire `u64` to host `usize` goes through here.
fn checked_usize(value: u64, context: &'static str) -> Result<usize, WireError> {
    usize::try_from(value).map_err(|_| WireError::LengthOverflow {
        context,
        len: value,
    })
}

/// Cursor-style decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Create a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a single byte.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn read_i64(&mut self) -> Result<i64, WireError> {
        Ok(self.read_u64()? as i64)
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Read a boolean; any byte other than 0 or 1 is an error.
    pub fn read_bool(&mut self) -> Result<bool, WireError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                context: "bool",
                tag: tag as u64,
            }),
        }
    }

    /// Read an unsigned LEB128 varint.
    pub fn read_uvarint(&mut self) -> Result<u64, WireError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift >= 64 {
                return Err(WireError::VarintTooLong);
            }
            result |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Read a zig-zag signed varint.
    pub fn read_ivarint(&mut self) -> Result<i64, WireError> {
        let zz = self.read_uvarint()?;
        Ok(((zz >> 1) as i64) ^ -((zz & 1) as i64))
    }

    /// Read a length prefix, applying the [`MAX_REASONABLE_LEN`] sanity bound
    /// and also bounding it by the number of bytes remaining (an element
    /// cannot occupy less than one byte, so a length greater than
    /// `remaining()` is always corrupt).
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        let len = self.read_uvarint()?;
        if len > MAX_REASONABLE_LEN {
            return Err(WireError::LengthOverflow {
                context: "sequence",
                len,
            });
        }
        checked_usize(len, "sequence")
    }

    /// Read a length-prefixed byte slice.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.read_len()?;
        self.take(len, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<&'a str, WireError> {
        let bytes = self.read_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }

    /// Read a uvarint-encoded `usize` (counts, capacities, jump targets).
    ///
    /// Bounded by [`MAX_REASONABLE_LEN`] like every other length-bearing
    /// value, and narrowed with a **checked** conversion: no in-tree
    /// encoder produces larger values, and on 32-bit targets an unchecked
    /// cast would silently truncate instead of erroring.
    pub fn read_usize(&mut self) -> Result<usize, WireError> {
        let value = self.read_uvarint()?;
        if value > MAX_REASONABLE_LEN {
            return Err(WireError::LengthOverflow {
                context: "usize value",
                len: value,
            });
        }
        checked_usize(value, "usize value")
    }

    /// Read a uvarint that must fit in 32 bits (pointer-table and function
    /// indices, labels).  A larger value is a [`WireError::LengthOverflow`]
    /// naming `context`, never a truncating cast that would alias index
    /// 2³²+k to k.
    pub fn read_uvarint_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let value = self.read_uvarint()?;
        u32::try_from(value).map_err(|_| WireError::LengthOverflow {
            context,
            len: value,
        })
    }

    /// Read and validate the standard image header written by
    /// [`crate::WireWriter::write_header`].
    ///
    /// Any version between [`MIN_SUPPORTED_VERSION`] and [`FORMAT_VERSION`]
    /// is accepted — decoders use [`ImageHeader::version`] to select the v1
    /// or v2 layout; anything outside the range is a
    /// [`WireError::VersionMismatch`].
    pub fn read_header(&mut self) -> Result<ImageHeader, WireError> {
        self.expect_section(SectionTag::Header)?;
        let magic = self.read_u32()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = self.read_u32()?;
        if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(WireError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let source_arch = self.read_str()?.to_owned();
        Ok(ImageHeader {
            version,
            source_arch,
        })
    }

    /// Read a section tag and require it to be `expected`.
    pub fn expect_section(&mut self, expected: SectionTag) -> Result<(), WireError> {
        let byte = self.read_u8()?;
        if SectionTag::from_u8(byte) == Some(expected) {
            Ok(())
        } else {
            Err(WireError::SectionMismatch {
                expected: expected.name(),
                found: byte,
            })
        }
    }

    /// Read a word slab written by [`crate::WireWriter::write_words`],
    /// appending the decoded words to `out` and returning how many were
    /// read.
    ///
    /// The whole slab is validated with a **single** bounds check (one
    /// borrowed `&[u8]` view over `8 * len` bytes), so decoding is a tight
    /// LE load loop instead of a per-element EOF-checked read.
    pub fn read_words_into(&mut self, out: &mut Vec<u64>) -> Result<usize, WireError> {
        let len = self.read_len()?;
        let byte_len = len.checked_mul(8).ok_or(WireError::LengthOverflow {
            context: "word slab",
            len: len as u64,
        })?;
        let slab = self.take(byte_len, "word slab")?;
        out.reserve(len);
        for chunk in slab.chunks_exact(8) {
            let mut le = [0u8; 8];
            le.copy_from_slice(chunk);
            out.push(u64::from_le_bytes(le));
        }
        Ok(len)
    }

    /// Decode a compressed frame's `(declared length, codec id)` header,
    /// bounding the untrusted declared length **before** anything is
    /// allocated for it.
    fn read_frame_header(&mut self, context: &'static str) -> Result<(usize, CodecId), WireError> {
        let declared = self.read_uvarint()?;
        if declared > MAX_REASONABLE_LEN {
            return Err(WireError::LengthOverflow {
                context,
                len: declared,
            });
        }
        let byte = self.read_u8()?;
        let codec = CodecId::from_u8(byte).ok_or(WireError::BadTag {
            context: "codec id",
            tag: byte as u64,
        })?;
        Ok((checked_usize(declared, context)?, codec))
    }

    /// Read the header and payload of a compressed word-slab frame written
    /// by [`crate::WireWriter::write_word_frame`], returning a decoder that
    /// hands out its [`WordDecoder::remaining`] words in pieces — the
    /// caller decodes straight into its own storage, and no word slab is
    /// built.  [`WordDecoder::read_to_end`] collects them all instead.
    ///
    /// Untrusted-input discipline: the declared word count is bounded by
    /// [`MAX_REASONABLE_LEN`], the compressed payload is sliced with one
    /// bounds check, and the codec layer rejects a count the payload
    /// cannot hold before anything is allocated for it, and holds the
    /// payload to *exactly* the declared count as it is read — a frame
    /// claiming a gigantic slab over a few payload bytes fails with a
    /// precise error after allocating no more than the payload justifies.
    pub fn read_word_frame(&mut self) -> Result<WordDecoder<'a>, WireError> {
        let (count, codec) = self.read_frame_header("word frame")?;
        if count as u64 > MAX_REASONABLE_LEN / 8 {
            return Err(WireError::LengthOverflow {
                context: "word frame",
                len: count as u64,
            });
        }
        let payload = self.read_bytes()?;
        Ok(WordDecoder::new(codec, payload, count)?)
    }

    /// Read a compressed byte-slab frame written by
    /// [`crate::WireWriter::write_byte_frame`], returning the decompressed
    /// bytes.  Same untrusted-input bounds as
    /// [`WireReader::read_word_frame`]; a word-slab codec id in a
    /// byte frame is a [`WireError::Codec`] error.
    pub fn read_byte_frame(&mut self) -> Result<Vec<u8>, WireError> {
        let (raw_len, codec) = self.read_frame_header("byte frame")?;
        let payload = self.read_bytes()?;
        let mut out = Vec::new();
        mojave_codec::decompress_bytes(codec, payload, raw_len, &mut out)?;
        Ok(out)
    }

    /// Advance past a word frame without decompressing it, returning its
    /// wire statistics (used by checkpoint-store size accounting).
    pub fn skip_word_frame(&mut self) -> Result<FrameStats, WireError> {
        let (count, _) = self.read_frame_header("word frame")?;
        let payload = self.read_bytes()?;
        Ok(FrameStats {
            raw_bytes: count as u64 * 8,
            stored_bytes: payload.len() as u64,
        })
    }

    /// Advance past a byte frame without decompressing it, returning its
    /// wire statistics.
    pub fn skip_byte_frame(&mut self) -> Result<FrameStats, WireError> {
        let (raw_len, _) = self.read_frame_header("byte frame")?;
        let payload = self.read_bytes()?;
        Ok(FrameStats {
            raw_bytes: raw_len as u64,
            stored_bytes: payload.len() as u64,
        })
    }

    /// Read the next framed section regardless of its tag (v2 image
    /// layout): tag byte, u32-LE body length, body.  The cursor advances
    /// past the whole section; the body is returned as a [`SectionReader`]
    /// borrowing the underlying buffer (zero-copy).
    pub fn read_framed(&mut self) -> Result<SectionReader<'a>, WireError> {
        let byte = self.read_u8()?;
        let tag = SectionTag::from_u8(byte).ok_or(WireError::BadTag {
            context: "section frame",
            tag: byte as u64,
        })?;
        let len = self.read_u32()? as usize;
        let body = self.take(len, "section body")?;
        Ok(SectionReader {
            tag,
            body: WireReader::new(body),
        })
    }

    /// Read a framed section and require its tag to be `expected`.
    pub fn expect_framed(&mut self, expected: SectionTag) -> Result<SectionReader<'a>, WireError> {
        let section = self.read_framed()?;
        if section.tag() != expected {
            return Err(WireError::SectionMismatch {
                expected: expected.name(),
                found: section.tag() as u8,
            });
        }
        Ok(section)
    }
}

/// Wire statistics of one compressed slab frame: the size its content
/// claims uncompressed vs. the bytes it actually occupies on the wire.
/// Produced by [`WireReader::skip_word_frame`] /
/// [`WireReader::skip_byte_frame`] without decompressing anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Decompressed size the frame header declares.
    pub raw_bytes: u64,
    /// Compressed payload bytes stored on the wire.
    pub stored_bytes: u64,
}

impl FrameStats {
    /// Accumulate another frame's statistics.
    pub fn add(&mut self, other: FrameStats) {
        self.raw_bytes += other.raw_bytes;
        self.stored_bytes += other.stored_bytes;
    }
}

/// A framed section's body, produced by [`WireReader::read_framed`] /
/// [`WireReader::expect_framed`].
///
/// Dereferences to [`WireReader`] positioned at the start of the body; the
/// body is a borrowed view of the parent buffer, so slicing a section out
/// of a multi-megabyte image copies nothing.  Call
/// [`SectionReader::finish`] after decoding to assert the body was fully
/// consumed (trailing bytes inside a section are corruption).
#[derive(Debug, Clone)]
pub struct SectionReader<'a> {
    tag: SectionTag,
    body: WireReader<'a>,
}

impl<'a> SectionReader<'a> {
    /// The section's tag.
    pub fn tag(&self) -> SectionTag {
        self.tag
    }

    /// Assert the body was fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.body.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.body.remaining(),
            })
        }
    }
}

impl<'a> Deref for SectionReader<'a> {
    type Target = WireReader<'a>;
    fn deref(&self) -> &WireReader<'a> {
        &self.body
    }
}

impl<'a> DerefMut for SectionReader<'a> {
    fn deref_mut(&mut self) -> &mut WireReader<'a> {
        &mut self.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::WireWriter;

    #[test]
    fn uvarint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 255, 256, 16383, 16384, u64::MAX] {
            let mut w = WireWriter::new();
            w.write_uvarint(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.read_uvarint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn ivarint_roundtrip_boundaries() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            1 << 40,
            -(1 << 40),
        ] {
            let mut w = WireWriter::new();
            w.write_ivarint(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.read_ivarint().unwrap(), v);
        }
    }

    #[test]
    fn varint_too_long_rejected() {
        // 11 continuation bytes exceed the 64-bit range.
        let bytes = [0x80u8; 10];
        let mut r = WireReader::new(&bytes);
        let err = r.read_uvarint().unwrap_err();
        // Either we run off the end or hit VarintTooLong depending on length;
        // with exactly 10 continuation bytes the shift check fires first.
        assert!(matches!(
            err,
            WireError::VarintTooLong | WireError::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn header_version_mismatch_detected() {
        for bad in [FORMAT_VERSION + 1, MIN_SUPPORTED_VERSION - 1, 0] {
            let mut w = WireWriter::new();
            w.write_section(SectionTag::Header);
            w.write_u32(MAGIC);
            w.write_u32(bad);
            w.write_str("riscv-sim");
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert!(
                matches!(
                    r.read_header().unwrap_err(),
                    WireError::VersionMismatch { .. }
                ),
                "version {bad} must be rejected"
            );
        }
    }

    #[test]
    fn header_supported_version_range_accepted() {
        for version in MIN_SUPPORTED_VERSION..=FORMAT_VERSION {
            let mut w = WireWriter::new();
            w.write_header_versioned("ia32-sim", version);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let header = r.read_header().unwrap();
            assert_eq!(header.version, version);
            assert_eq!(header.source_arch, "ia32-sim");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn word_slab_roundtrip() {
        let words: Vec<u64> = (0..1000).map(|i| i * 0x0101_0101_0101).collect();
        let mut w = WireWriter::new();
        w.write_words(&words);
        // Length varint + exactly 8 bytes per word, no per-element framing.
        assert_eq!(w.len(), 2 + words.len() * 8);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let mut back = Vec::new();
        assert_eq!(r.read_words_into(&mut back).unwrap(), words.len());
        assert_eq!(back, words);
        assert!(r.is_empty());
    }

    #[test]
    fn word_slab_truncation_detected_before_allocation() {
        let mut w = WireWriter::new();
        w.write_words(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..bytes.len() - 1]);
        let mut out = Vec::new();
        assert!(matches!(
            r.read_words_into(&mut out).unwrap_err(),
            WireError::UnexpectedEof { .. }
        ));
        assert!(out.is_empty(), "nothing decoded from a truncated slab");
    }

    #[test]
    fn framed_sections_roundtrip_and_skip() {
        let mut w = WireWriter::new();
        {
            let mut s = w.begin_section(SectionTag::PointerTable);
            s.write_uvarint(42);
            s.finish();
        }
        {
            let mut s = w.begin_section(SectionTag::HeapBlocks);
            s.write_bytes(b"payload");
        } // dropped: length patched without an explicit finish
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        // Skip the first section without decoding it.
        let first = r.read_framed().unwrap();
        assert_eq!(first.tag(), SectionTag::PointerTable);
        let mut second = r.expect_framed(SectionTag::HeapBlocks).unwrap();
        assert_eq!(second.read_bytes().unwrap(), b"payload");
        second.finish().unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn framed_section_errors_are_precise() {
        let mut w = WireWriter::new();
        let mut s = w.begin_section(SectionTag::Resume);
        s.write_uvarint(9);
        s.finish();
        let bytes = w.into_bytes();

        // Wrong expected tag.
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.expect_framed(SectionTag::MigrateEnv).unwrap_err(),
            WireError::SectionMismatch { .. }
        ));
        // Truncated body: the frame claims more bytes than remain.
        let mut r = WireReader::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(
            r.read_framed().unwrap_err(),
            WireError::UnexpectedEof {
                context: "section body",
                ..
            }
        ));
        // Unknown tag byte.
        let mut corrupt = bytes.clone();
        corrupt[0] = 0xEE;
        let mut r = WireReader::new(&corrupt);
        assert!(matches!(
            r.read_framed().unwrap_err(),
            WireError::BadTag {
                context: "section frame",
                ..
            }
        ));
        // Undersized frame: decoding succeeds but finish() reports trailing
        // bytes inside the section.
        let mut r = WireReader::new(&bytes);
        let section = r.read_framed().unwrap();
        assert!(matches!(
            section.finish().unwrap_err(),
            WireError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn oversized_usize_errors_instead_of_truncating() {
        // Regression: decoded lengths used to cross to `usize` with a bare
        // `as` cast, which on 32-bit targets truncates anything above
        // u32::MAX.  Every narrowing now goes through a checked
        // conversion behind the MAX_REASONABLE_LEN bound, so a huge
        // uvarint errors identically on every pointer width.
        for huge in [MAX_REASONABLE_LEN + 1, u64::MAX] {
            let mut w = WireWriter::new();
            w.write_uvarint(huge);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert!(
                matches!(
                    r.read_usize().unwrap_err(),
                    WireError::LengthOverflow { len, .. } if len == huge
                ),
                "usize {huge} must be rejected"
            );
            let mut r = WireReader::new(&bytes);
            assert!(matches!(
                r.read_len().unwrap_err(),
                WireError::LengthOverflow { len, .. } if len == huge
            ));
        }
        // The checked conversion itself reports the precise value.
        #[cfg(target_pointer_width = "32")]
        assert!(matches!(
            super::checked_usize(u64::from(u32::MAX) + 1, "test"),
            Err(WireError::LengthOverflow { .. })
        ));
        // The bound is inclusive: MAX_REASONABLE_LEN itself stays decodable
        // where the host can represent it.
        #[cfg(target_pointer_width = "64")]
        {
            let mut w = WireWriter::new();
            w.write_uvarint(MAX_REASONABLE_LEN);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.read_usize().unwrap() as u64, MAX_REASONABLE_LEN);
        }
    }

    #[test]
    fn header_bad_magic_detected() {
        let mut w = WireWriter::new();
        w.write_section(SectionTag::Header);
        w.write_u32(0x1234_5678);
        w.write_u32(FORMAT_VERSION);
        w.write_str("x86_64");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.read_header().unwrap_err(),
            WireError::BadMagic { .. }
        ));
    }

    #[test]
    fn section_mismatch_reported() {
        let mut w = WireWriter::new();
        w.write_section(SectionTag::HeapBlocks);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let err = r.expect_section(SectionTag::PointerTable).unwrap_err();
        assert!(matches!(err, WireError::SectionMismatch { .. }));
    }

    #[test]
    fn bool_rejects_other_bytes() {
        let bytes = [2u8];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.read_bool().unwrap_err(),
            WireError::BadTag { .. }
        ));
    }
}
