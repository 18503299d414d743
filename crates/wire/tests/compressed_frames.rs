//! Hardening tests for the v5 compressed slab frames: untrusted input —
//! truncated payloads, decompressed-length bombs, unknown codec ids and
//! out-of-range LZ copy offsets — must each produce a precise
//! [`WireError`], never a panic or an unbounded allocation.

use mojave_codec::CodecError;
use mojave_wire::{CodecId, WireError, WireReader, WireWriter, MAX_REASONABLE_LEN};

/// Decode one word frame whole — its decoder, read to the end — returning
/// the declared word count.
fn read_words(r: &mut WireReader<'_>, out: &mut Vec<u64>) -> Result<usize, WireError> {
    let decoder = r.read_word_frame()?;
    let count = decoder.remaining();
    decoder.read_to_end(out)?;
    Ok(count)
}

fn frame_bytes(words: &[u64], codec: CodecId) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_word_frame(words, codec);
    w.into_bytes()
}

#[test]
fn word_frames_roundtrip_every_codec() {
    let slab: Vec<u64> = (0..1000).map(|i| i % 97).collect();
    for codec in CodecId::ALL {
        let bytes = frame_bytes(&slab, codec);
        let mut r = WireReader::new(&bytes);
        let mut out = Vec::new();
        assert_eq!(read_words(&mut r, &mut out).unwrap(), slab.len());
        assert_eq!(out, slab, "{codec}");
        assert!(r.is_empty());
    }
}

#[test]
fn byte_frames_roundtrip_raw_and_lz() {
    let data: Vec<u8> = (0..4000u32).map(|i| (i % 11) as u8).collect();
    for codec in [CodecId::Raw, CodecId::Lz] {
        let mut w = WireWriter::new();
        w.write_byte_frame(&data, codec);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_byte_frame().unwrap(), data, "{codec}");
        assert!(r.is_empty());
    }
}

#[test]
fn truncated_compressed_payload_is_a_precise_error() {
    let slab: Vec<u64> = (0..500).collect();
    for codec in CodecId::ALL {
        let bytes = frame_bytes(&slab, codec);
        // Cut inside the compressed payload: either the payload slice
        // itself is short (UnexpectedEof) — or, once sliced, the codec
        // notices the stream ends early (Codec error).
        for cut in [bytes.len() - 1, bytes.len() / 2, 3] {
            let mut r = WireReader::new(&bytes[..cut]);
            let mut out = Vec::new();
            let err = read_words(&mut r, &mut out).unwrap_err();
            assert!(
                matches!(err, WireError::UnexpectedEof { .. } | WireError::Codec(_)),
                "{codec} cut at {cut}: got {err:?}"
            );
        }
    }
}

#[test]
fn raw_length_overflow_bomb_is_rejected_before_allocation() {
    // A frame claiming a decompressed length far beyond the sanity bound:
    // rejected at the header, before any allocation.
    let mut w = WireWriter::new();
    w.write_uvarint(MAX_REASONABLE_LEN + 1);
    w.write_u8(CodecId::Lz as u8);
    w.write_bytes(&[0, 0, 0]);
    let bytes = w.into_bytes();
    let err = WireReader::new(&bytes).read_byte_frame().unwrap_err();
    assert!(
        matches!(
            err,
            WireError::LengthOverflow {
                context: "byte frame",
                ..
            }
        ),
        "got {err:?}"
    );

    // Word-frame variant: the count bound is MAX_REASONABLE_LEN / 8.
    let mut w = WireWriter::new();
    w.write_uvarint(MAX_REASONABLE_LEN / 8 + 1);
    w.write_u8(CodecId::VarintLz as u8);
    w.write_bytes(&[0, 0, 0]);
    let bytes = w.into_bytes();
    let mut out = Vec::new();
    let err = read_words(&mut WireReader::new(&bytes), &mut out).unwrap_err();
    assert!(
        matches!(err, WireError::LengthOverflow { .. }),
        "got {err:?}"
    );
}

#[test]
fn plausible_bomb_claims_fail_without_matching_allocation() {
    // A claimed decompressed length within the sanity bound but vastly
    // larger than what the 4-byte payload can produce (≫ the section
    // size): a precise error, and the output buffer never grows to the
    // claim.
    let claimed: u64 = 512 * 1024 * 1024; // 512 MiB from 4 bytes
    for codec in [CodecId::Lz, CodecId::Varint, CodecId::VarintLz] {
        let mut w = WireWriter::new();
        w.write_uvarint(claimed);
        w.write_u8(codec as u8);
        w.write_bytes(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        if codec == CodecId::Lz {
            let err = WireReader::new(&bytes).read_byte_frame().unwrap_err();
            assert!(matches!(err, WireError::Codec(_)), "{codec}: got {err:?}");
        }
        let mut out = Vec::new();
        let err = read_words(&mut WireReader::new(&bytes), &mut out).unwrap_err();
        assert!(matches!(err, WireError::Codec(_)), "{codec}: got {err:?}");
        assert!(
            out.capacity() < (1 << 22),
            "{codec} allocated {} words for a 4-byte payload",
            out.capacity()
        );
    }
}

#[test]
fn unknown_codec_id_is_a_bad_tag() {
    let mut w = WireWriter::new();
    w.write_uvarint(8); // plausible length
    w.write_u8(0x7E); // no such codec
    w.write_bytes(&[0; 8]);
    let bytes = w.into_bytes();

    let mut out = Vec::new();
    let err = read_words(&mut WireReader::new(&bytes), &mut out).unwrap_err();
    assert!(
        matches!(
            err,
            WireError::BadTag {
                context: "codec id",
                tag: 0x7E
            }
        ),
        "got {err:?}"
    );
    let err = WireReader::new(&bytes).read_byte_frame().unwrap_err();
    assert!(matches!(
        err,
        WireError::BadTag {
            context: "codec id",
            ..
        }
    ));
}

#[test]
fn word_only_codec_in_a_byte_frame_is_rejected() {
    let mut w = WireWriter::new();
    w.write_uvarint(4);
    w.write_u8(CodecId::Varint as u8);
    w.write_bytes(&[0, 0, 0, 0]);
    let bytes = w.into_bytes();
    let err = WireReader::new(&bytes).read_byte_frame().unwrap_err();
    assert!(
        matches!(
            err,
            WireError::Codec(CodecError::WordCodecOnBytes {
                codec: CodecId::Varint
            })
        ),
        "got {err:?}"
    );
}

#[test]
fn lz_copy_offset_out_of_range_is_a_precise_error() {
    // Hand-craft an LZ stream whose first token copies from before the
    // start of the output: control (len 4, odd) then distance 5.
    let mut w = WireWriter::new();
    w.write_uvarint(16); // claimed raw length
    w.write_u8(CodecId::Lz as u8);
    w.write_bytes(&[0x01, 0x05]);
    let bytes = w.into_bytes();
    let err = WireReader::new(&bytes).read_byte_frame().unwrap_err();
    assert!(
        matches!(
            err,
            WireError::Codec(CodecError::BadOffset {
                distance: 5,
                produced: 0
            })
        ),
        "got {err:?}"
    );
}

#[test]
fn raw_frame_with_mismatched_payload_is_rejected() {
    // Raw frames must carry exactly 8 × count payload bytes.
    let mut w = WireWriter::new();
    w.write_uvarint(4); // four words claimed
    w.write_u8(CodecId::Raw as u8);
    w.write_bytes(&[0; 16]); // but only two words of payload
    let bytes = w.into_bytes();
    let mut out = Vec::new();
    let err = read_words(&mut WireReader::new(&bytes), &mut out).unwrap_err();
    assert!(
        matches!(err, WireError::Codec(CodecError::LengthMismatch { .. })),
        "got {err:?}"
    );
}

#[test]
fn skip_frames_report_wire_stats_without_decompressing() {
    let slab: Vec<u64> = vec![7; 10_000];
    let mut w = WireWriter::new();
    w.write_word_frame(&slab, CodecId::VarintLz);
    w.write_byte_frame(&[3u8; 5000], CodecId::Lz);
    let bytes = w.into_bytes();

    let mut r = WireReader::new(&bytes);
    let words = r.skip_word_frame().unwrap();
    assert_eq!(words.raw_bytes, 80_000);
    assert!(words.stored_bytes < 100, "constant slab compresses hard");
    let byte_frame = r.skip_byte_frame().unwrap();
    assert_eq!(byte_frame.raw_bytes, 5000);
    assert!(byte_frame.stored_bytes < 50);
    assert!(r.is_empty());

    let mut total = mojave_wire::FrameStats::default();
    total.add(words);
    total.add(byte_frame);
    assert_eq!(total.raw_bytes, 85_000);
}
