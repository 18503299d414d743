//! # mojave-wire
//!
//! Architecture-independent canonical binary encoding used by the Mojave
//! runtime for migration images, checkpoint files and speculation snapshots.
//!
//! The paper (§4.2.2) stresses that all heap data is kept in a *standard,
//! architecture-independent* representation with fixed byte ordering and
//! alignment rules so that whole-process migration between heterogeneous
//! machines requires essentially no translation.  This crate is that
//! representation: a small, dependency-free, deterministic wire format.
//!
//! Design rules:
//!
//! * every multi-byte integer is encoded **little-endian**;
//! * variable-length unsigned integers use LEB128 (`write_uvarint`);
//! * sequences are length-prefixed with a uvarint;
//! * floating point values are encoded as their IEEE-754 bit pattern;
//! * strings are UTF-8 bytes, length-prefixed;
//! * every composite structure written by the runtime starts with a
//!   [`SectionTag`] so that decoders can detect corrupted or truncated
//!   images early and report a precise [`WireError`].
//!
//! The format is intentionally *not* self-describing beyond section tags:
//! the reader must know the schema.  The image header carries a
//! [`FORMAT_VERSION`]; decoders accept any version down to
//! [`MIN_SUPPORTED_VERSION`] and pick the matching layout, so checkpoints
//! written by older runtimes stay loadable while new images use the
//! compressed v5 layout: framed [`SectionReader`]/[`SectionWriter`]
//! sections whose heap payloads carry **codec-tagged compressed slab
//! frames** (`write_word_frame`/`read_word_frame`, backed by the
//! `mojave-codec` subsystem — see the "Compression" chapter of
//! `docs/WIRE_FORMAT.md`).
//!
//! ```
//! use mojave_wire::{WireWriter, WireReader};
//!
//! let mut w = WireWriter::new();
//! w.write_u32(0xDEAD_BEEF);
//! w.write_str("mojave");
//! w.write_f64(2.5);
//! let bytes = w.into_bytes();
//!
//! let mut r = WireReader::new(&bytes);
//! assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
//! assert_eq!(r.read_str().unwrap(), "mojave");
//! assert_eq!(r.read_f64().unwrap(), 2.5);
//! assert!(r.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frame;
mod reader;
mod tags;
mod writer;

pub use error::WireError;
pub use frame::{
    decode_error, read_frame, read_frame_counted, send_error, write_frame, write_frame_counted,
    FrameError, FrameKind, Hello, LinkStats, Welcome, MAX_FRAME_LEN, TRANSPORT_VERSION,
};
pub use reader::{FrameStats, ImageHeader, SectionReader, WireReader, MAX_REASONABLE_LEN};
pub use tags::{SectionTag, BATCHED_VERSION, FORMAT_VERSION, MAGIC, MIN_SUPPORTED_VERSION};
pub use writer::{uvarint_len, SectionWriter, WireWriter};

// The slab-compression subsystem: re-exported so every consumer of the
// wire format (heap, core, cluster, grid, benches) names codecs through
// one crate.
pub use mojave_codec::{
    choose, choose_bytes, choose_words, compress_bytes, compress_words, decompress_bytes,
    decompress_lz_bytes, decompress_words, BitPackStream, CodecError, CodecId, CodecSet,
    Compressor, VarintStream, WordDecoder, BITPACK_GROUP_WORDS, CHOICE_SAMPLE_WORDS,
};

/// 64-bit FNV-1a fingerprint of a byte payload.
///
/// Not cryptographic — it exists so a delta image can name its base by
/// *content* as well as by checkpoint name, catching the case where the
/// base name was later overwritten with a different image (resolving the
/// delta against it would silently produce a heap state that never
/// existed).
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fingerprint_parts(&[bytes])
}

/// [`fingerprint`] of the concatenation of `parts`, without building it:
/// a delta image names its base's code section by the fingerprint of the
/// section's tag byte followed by its body.
pub fn fingerprint_parts(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in *part {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Convenience trait for types that can be encoded onto a [`WireWriter`]
/// and decoded from a [`WireReader`].
///
/// All FIR and heap structures that participate in migration implement this.
pub trait WireCodec: Sized {
    /// Append the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut WireWriter);
    /// Decode a value previously produced by [`WireCodec::encode`].
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encode a value into a fresh byte buffer.
pub fn to_bytes<T: WireCodec>(value: &T) -> Vec<u8> {
    let mut w = WireWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decode a value from a byte buffer, requiring that the whole buffer is
/// consumed (trailing garbage is an error — truncated/concatenated images
/// must not be silently accepted).
pub fn from_bytes<T: WireCodec>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(v)
}

impl WireCodec for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.write_uvarint(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.read_uvarint()
    }
}

impl WireCodec for i64 {
    fn encode(&self, w: &mut WireWriter) {
        w.write_ivarint(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.read_ivarint()
    }
}

impl WireCodec for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.write_f64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.read_f64()
    }
}

impl WireCodec for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.write_bool(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.read_bool()
    }
}

impl WireCodec for String {
    fn encode(&self, w: &mut WireWriter) {
        w.write_str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.read_str()?.to_owned())
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.write_uvarint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.write_u8(0),
            Some(v) => {
                w.write_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                context: "Option",
                tag: tag as u64,
            }),
        }
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_parts_hashes_the_concatenation() {
        let whole = fingerprint(b"code section");
        assert_eq!(fingerprint_parts(&[b"code", b" ", b"section"]), whole);
        assert_eq!(fingerprint_parts(&[b"", b"code section", b""]), whole);
        assert_ne!(fingerprint_parts(&[b"code section", b"!"]), whole);
    }

    #[test]
    fn roundtrip_scalars() {
        let mut w = WireWriter::new();
        w.write_u8(7);
        w.write_u16(65535);
        w.write_u32(123_456);
        w.write_u64(u64::MAX);
        w.write_i64(-42);
        w.write_f64(-0.125);
        w.write_bool(true);
        w.write_bool(false);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u16().unwrap(), 65535);
        assert_eq!(r.read_u32().unwrap(), 123_456);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_i64().unwrap(), -42);
        assert_eq!(r.read_f64().unwrap(), -0.125);
        assert!(r.read_bool().unwrap());
        assert!(!r.read_bool().unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn roundtrip_vec_and_option() {
        let v: Vec<u64> = vec![0, 1, 127, 128, 300, u64::MAX];
        let bytes = to_bytes(&v);
        let back: Vec<u64> = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);

        let o: Option<String> = Some("checkpoint".to_owned());
        let bytes = to_bytes(&o);
        let back: Option<String> = from_bytes(&bytes).unwrap();
        assert_eq!(o, back);

        let n: Option<String> = None;
        let bytes = to_bytes(&n);
        let back: Option<String> = from_bytes(&bytes).unwrap();
        assert_eq!(back, None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = WireWriter::new();
        w.write_u64(9);
        w.write_u8(0xFF);
        let bytes = w.into_bytes();
        let err = from_bytes::<u64>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes { .. }));
    }

    #[test]
    fn truncated_input_rejected() {
        let mut w = WireWriter::new();
        w.write_str("this string is longer than the truncation point");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..5]);
        assert!(r.read_str().is_err());
    }

    #[test]
    fn nan_bits_preserved() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = WireWriter::new();
        w.write_f64(weird);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_f64().unwrap().to_bits(), weird.to_bits());
    }
}
