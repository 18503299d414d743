//! The LZ match/copy pass: a greedy, hash-table LZ77 over byte slabs.
//!
//! ## Token stream
//!
//! The compressed stream is a sequence of tokens, each starting with a
//! LEB128 control varint `t`:
//!
//! * `t` even — **literal run**: `(t >> 1) + 1` bytes follow verbatim.
//! * `t` odd — **copy**: length `(t >> 1) + MIN_MATCH`, then a LEB128
//!   *distance* varint `d ≥ 1`; the decoder copies `length` bytes starting
//!   `d` bytes back in the output.  `d` may be smaller than the length
//!   (overlapping copy — byte-wise semantics, so `d = 1` is run-length
//!   encoding), but never larger than the bytes already produced.
//!
//! The stream has no terminator: decoding ends when the input is
//! exhausted, and the caller checks the produced size against the frame's
//! declared raw length.
//!
//! ## Matcher
//!
//! Compression is greedy single-pass: a 2¹⁵-entry hash table maps 4-byte
//! keys to their most recent position; on a hit the match is extended
//! 8 bytes at a time (`memcmp`-width compares) and emitted, else the byte
//! joins the pending literal run.  There is no window limit — distances
//! reach the start of the slab — and no entropy stage, keeping both
//! directions allocation-free and branch-cheap.

use crate::{push_uvarint, read_uvarint, CodecError};

/// Shortest copy worth a token (control byte + distance varint).
const MIN_MATCH: usize = 4;

const HASH_BITS: u32 = 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let key = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (key.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn flush_literals(src: &[u8], from: usize, to: usize, out: &mut Vec<u8>) {
    if from < to {
        push_uvarint(out, ((to - from - 1) as u64) << 1);
        out.extend_from_slice(&src[from..to]);
    }
}

/// The matcher's hash table, reusable across slabs.
///
/// An entry is `base + position` of the most recent occurrence of its
/// 4-byte key; finishing a slab moves `base` past every position it
/// entered, so what an earlier slab left behind reads as *stale* (below
/// `base`) and costs nothing to forget.  A fresh table and a reused one
/// therefore find exactly the same matches, and one image encode — half a
/// dozen trial and real compressions — fills the 128 KiB table once
/// instead of allocating and filling one per call.
#[derive(Debug, Clone)]
pub struct LzTable {
    /// Allocated (zeroed, so every entry is stale) on first use.
    entries: Vec<u32>,
    base: u32,
}

impl Default for LzTable {
    /// An empty table; the first compression allocates it.
    fn default() -> Self {
        LzTable {
            entries: Vec::new(),
            base: 1,
        }
    }
}

impl LzTable {
    /// Reserve `base .. base + len` for the next slab's positions and
    /// return its `base`.  When the 32-bit position space runs out (after
    /// ~4 GiB of input) the table is cleared once and numbering restarts.
    fn begin(&mut self, len: usize) -> u32 {
        if self.entries.is_empty() {
            self.entries = vec![0; 1 << HASH_BITS];
        }
        let len = u32::try_from(len)
            .ok()
            .filter(|&len| len < u32::MAX)
            .expect("an LZ slab is under 4 GiB");
        match self.base.checked_add(len) {
            Some(next) => std::mem::replace(&mut self.base, next),
            None => {
                self.entries.fill(0);
                self.base = 1 + len;
                1
            }
        }
    }
}

/// Compress `src` into `out` (appending).  Never fails; incompressible
/// input degrades to one literal-run token per slab plus a byte of
/// control overhead per 128 literals.  (Uses a fresh match table; a
/// [`crate::Compressor`] keeps one across calls.)
pub fn compress(src: &[u8], out: &mut Vec<u8>) {
    compress_with(&mut LzTable::default(), src, out);
}

/// [`compress`] with a caller-kept table.  The bytes produced do not
/// depend on what `table` was used for before.
pub fn compress_with(table: &mut LzTable, src: &[u8], out: &mut Vec<u8>) {
    compress_within(table, src, usize::MAX, out);
}

/// [`compress_with`] for a trial that only matters if it beats `limit`
/// bytes: it stops, returning `false` and leaving a partial stream in
/// `out`, once the bytes it has appended plus the literals it has
/// committed to (every one is written verbatim) reach `limit`, since the
/// finished stream could then be no shorter.  Otherwise it returns `true`
/// having appended exactly what [`compress_with`] appends.
pub(crate) fn compress_within(
    table: &mut LzTable,
    src: &[u8],
    limit: usize,
    out: &mut Vec<u8>,
) -> bool {
    let start = out.len();
    if src.len() < MIN_MATCH {
        flush_literals(src, 0, src.len(), out);
        return true;
    }
    let base = table.begin(src.len());
    let table = &mut table.entries[..1 << HASH_BITS];
    let mut pos = 0usize;
    let mut literal_start = 0usize;
    while pos + MIN_MATCH <= src.len() {
        if out.len() - start + (pos - literal_start) >= limit {
            return false;
        }
        let slot = hash4(&src[pos..]);
        let entry = table[slot];
        table[slot] = base + pos as u32;
        // Stale entries (below `base`) are misses.
        let candidate = entry.wrapping_sub(base) as usize;
        if entry >= base && src[candidate..candidate + MIN_MATCH] == src[pos..pos + MIN_MATCH] {
            // Extend the match 8 bytes at a time (compiles to wide
            // compares), then byte-wise to the exact end.
            let mut len = MIN_MATCH;
            while pos + len + 8 <= src.len()
                && src[candidate + len..candidate + len + 8] == src[pos + len..pos + len + 8]
            {
                len += 8;
            }
            while pos + len < src.len() && src[candidate + len] == src[pos + len] {
                len += 1;
            }
            flush_literals(src, literal_start, pos, out);
            push_uvarint(out, (((len - MIN_MATCH) as u64) << 1) | 1);
            push_uvarint(out, (pos - candidate) as u64);
            // Seed the table at the match tail so back-to-back repeats of
            // long blocks chain matches instead of re-scanning literals.
            if pos + len + MIN_MATCH <= src.len() {
                table[hash4(&src[pos + len - 1..])] = base + (pos + len - 1) as u32;
            }
            pos += len;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(src, literal_start, src.len(), out);
    true
}

/// Decompress `src` into `out` (appending), producing at most `max_out`
/// bytes beyond `out`'s starting length.
///
/// Untrusted-input discipline: every token is bounded against `max_out`
/// *before* its bytes are produced, copy distances are checked against the
/// bytes actually emitted, and the output buffer grows with the data — a
/// frame claiming a huge raw length with a tiny payload fails with a
/// precise error after allocating no more than the payload could justify.
pub fn decompress(src: &[u8], max_out: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let base = out.len();
    let mut pos = 0usize;
    while pos < src.len() {
        let control = read_uvarint(src, &mut pos, "LZ token")?;
        if control & 1 == 0 {
            let run = (control >> 1) as usize + 1;
            let produced = out.len() - base;
            if run > max_out - produced {
                return Err(CodecError::OutputOverrun { limit: max_out });
            }
            let end = pos.checked_add(run).ok_or(CodecError::TruncatedInput {
                context: "LZ literal run",
            })?;
            if end > src.len() {
                return Err(CodecError::TruncatedInput {
                    context: "LZ literal run",
                });
            }
            out.extend_from_slice(&src[pos..end]);
            pos = end;
        } else {
            let len = (control >> 1) as usize + MIN_MATCH;
            let distance = read_uvarint(src, &mut pos, "LZ token")? as usize;
            let produced = out.len() - base;
            if distance == 0 || distance > produced {
                return Err(CodecError::BadOffset { distance, produced });
            }
            if len > max_out - produced {
                return Err(CodecError::OutputOverrun { limit: max_out });
            }
            // Byte-wise semantics: an overlapping copy (RLE) repeats the
            // `distance` bytes before it.  Each pass copies everything the
            // run has produced so far — always a whole number of periods,
            // so copying from the run's start *is* the byte-wise result —
            // which doubles the span instead of pushing one byte at a time.
            let start = out.len() - distance;
            out.reserve(len);
            let mut copied = 0usize;
            while copied < len {
                let span = (distance + copied).min(len - copied);
                out.extend_from_within(start..start + span);
                copied += span;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let mut compressed = Vec::new();
        compress(data, &mut compressed);
        let mut back = Vec::new();
        decompress(&compressed, data.len(), &mut back).expect("valid stream");
        assert_eq!(back, data);
        compressed.len()
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
        roundtrip(b"abcdabcdabcdabcd");
        roundtrip(&[0u8; 10_000]);
        let mixed: Vec<u8> = (0..5000u32).map(|i| (i * 31 % 251) as u8).collect();
        roundtrip(&mixed);
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let block: Vec<u8> = (0..600u32).map(|i| (i % 97) as u8).collect();
        let data: Vec<u8> = (0..100).flat_map(|_| block.clone()).collect();
        let compressed = roundtrip(&data);
        assert!(
            compressed < data.len() / 20,
            "{compressed} bytes for {} input",
            data.len()
        );
    }

    #[test]
    fn rle_via_overlapping_copy() {
        // A run of one byte: the copy distance 1 overlaps the output.
        let data = vec![9u8; 4096];
        let mut compressed = Vec::new();
        compress(&data, &mut compressed);
        assert!(compressed.len() < 16, "{} bytes", compressed.len());
        let mut back = Vec::new();
        decompress(&compressed, data.len(), &mut back).unwrap();
        assert_eq!(back, data);
    }

    /// One copy token of `len` bytes at `distance`, after `prefix` as
    /// literals: the doubling copy must produce what the byte-wise
    /// definition (`out[n] = out[n - distance]`, one byte at a time) does.
    #[test]
    fn overlapping_copies_match_the_bytewise_definition() {
        let prefix: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for len in [MIN_MATCH, 5, 8, 13, 39, 40, 41, 1000] {
            for distance in [1, 2, 3, 7, len - 1, len, len + 1] {
                if distance == 0 || distance > prefix.len() {
                    continue;
                }
                let mut stream = Vec::new();
                push_uvarint(&mut stream, ((prefix.len() - 1) as u64) << 1);
                stream.extend_from_slice(&prefix);
                push_uvarint(&mut stream, (((len - MIN_MATCH) as u64) << 1) | 1);
                push_uvarint(&mut stream, distance as u64);

                let mut want = prefix.clone();
                for _ in 0..len {
                    want.push(want[want.len() - distance]);
                }
                let mut got = vec![0xEE]; // decompress appends
                decompress(&stream, want.len(), &mut got).expect("valid stream");
                assert_eq!(&got[1..], &want[..], "len {len} distance {distance}");
            }
        }
    }

    /// A table whose position numbering is about to run out is cleared
    /// once and keeps producing the bytes a fresh table produces.
    #[test]
    fn table_survives_running_out_of_position_numbers() {
        let slab: Vec<u8> = (0..3000u32).map(|i| (i % 97) as u8).collect();
        let mut fresh = Vec::new();
        compress(&slab, &mut fresh);

        let mut table = LzTable::default();
        let mut first = Vec::new();
        compress_with(&mut table, &slab, &mut first);
        assert_eq!(first, fresh);
        // Leave room for one more slab but not two.
        table.base = u32::MAX - 4000;
        for round in 0..3 {
            let mut out = Vec::new();
            compress_with(&mut table, &slab, &mut out);
            assert_eq!(out, fresh, "round {round}");
        }
        assert!(table.base < 10_000, "numbering restarted");
    }

    #[test]
    fn bad_offset_is_a_precise_error() {
        // Copy token at output start: distance 1 with nothing produced.
        let mut stream = Vec::new();
        push_uvarint(&mut stream, 1); // control: copy, len 4
        push_uvarint(&mut stream, 1); // distance 1
        let err = decompress(&stream, 100, &mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            CodecError::BadOffset {
                distance: 1,
                produced: 0
            }
        ));

        // Distance beyond what literals produced.
        let mut stream = Vec::new();
        push_uvarint(&mut stream, (3u64 - 1) << 1); // 3 literals
        stream.extend_from_slice(b"abc");
        push_uvarint(&mut stream, 1); // copy len 4
        push_uvarint(&mut stream, 9); // distance 9 > 3 produced
        let err = decompress(&stream, 100, &mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            CodecError::BadOffset {
                distance: 9,
                produced: 3
            }
        ));
    }

    #[test]
    fn output_bound_is_enforced_before_producing() {
        // A copy claiming far more than max_out.
        let mut stream = Vec::new();
        push_uvarint(&mut stream, (2u64 - 1) << 1);
        stream.extend_from_slice(b"ab");
        push_uvarint(&mut stream, ((1u64 << 40) << 1) | 1); // absurd copy length
        push_uvarint(&mut stream, 1);
        let mut out = Vec::new();
        let err = decompress(&stream, 1 << 20, &mut out).unwrap_err();
        assert!(matches!(err, CodecError::OutputOverrun { .. }));
        assert!(out.capacity() < (1 << 16), "no allocation for the claim");
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let data = b"the quick brown fox jumps over the quick brown fox";
        let mut compressed = Vec::new();
        compress(data, &mut compressed);
        for cut in [1, compressed.len() / 2, compressed.len() - 1] {
            let mut out = Vec::new();
            // Either the stream errors mid-token, or it decodes cleanly to
            // fewer bytes than expected (caught by the caller's length
            // check); what it must never do is panic or over-produce.
            match decompress(&compressed[..cut], data.len(), &mut out) {
                Ok(()) => assert!(out.len() < data.len()),
                Err(e) => assert!(matches!(
                    e,
                    CodecError::TruncatedInput { .. } | CodecError::BadOffset { .. }
                )),
            }
        }
    }

    #[test]
    fn decompress_never_panics_on_byte_soup() {
        // Deterministic pseudo-random streams through the decoder.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for round in 0..200 {
            let len = (round % 64) + 1;
            let mut soup = Vec::with_capacity(len);
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                soup.push((state >> 33) as u8);
            }
            let mut out = Vec::new();
            let _ = decompress(&soup, 4096, &mut out);
            assert!(out.len() <= 4096);
        }
    }
}
