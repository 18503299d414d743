//! The heap image (paper §4.2.2: pack / unpack of the heap and its pointer
//! table): the codec negotiation, the one encoder and every decoder.
//!
//! * **Write side.** Every image is encoded from a frozen heap:
//!   [`crate::HeapSnapshot::image_records`] borrows the record list a full
//!   or delta image serialises, and [`ImageRecords::encode`] writes it as
//!   v5 slab frames, each frame's codec chosen within the set
//!   [`negotiate_codecs`] resolved for the sink.  A stop-the-world image
//!   is a [`Heap::freeze`] encoded before the mutator resumes, so the
//!   synchronous and the asynchronous pack share one record source.
//! * **Read side.** [`Heap::decode_image`] and [`Heap::decode_delta_image`]
//!   dispatch on the [`ImageCodec`] an image's wire format version implies
//!   ([`ImageCodec::of_version`]): v5 is the one layout written, v1 and v4
//!   are still read.
//!
//! `docs/WIRE_FORMAT.md` specifies the bytes.

use crate::block::{
    Block, BlockData, BlockHeader, BlockKind, Encoded, Generation, Numeric, Payload, Shared, Words,
    WordsView,
};
use crate::heap::{Heap, HeapConfig};
use crate::pointer_table::{PointerTable, PtrIdx};
use crate::word::extend_from_raw;
use mojave_wire::{
    BitPackStream, CodecId, CodecSet, Compressor, FrameStats, WireCodec, WireError, WireReader,
    WireWriter, BATCHED_VERSION, BITPACK_GROUP_WORDS, MIN_SUPPORTED_VERSION,
};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;

/// Which block codec a heap image payload uses — implied by the image's
/// wire format version ([`ImageCodec::of_version`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageCodec {
    /// v1 images: one varint-encoded record per word.
    PerWord,
    /// v4 images: batched per-block tag/payload slabs, uncompressed.
    Batched,
    /// v5 images: structure-of-arrays slabs in codec-tagged compressed
    /// frames (see `mojave-codec`).
    Slab,
}

impl ImageCodec {
    /// The codec of the heap payload in an image of wire format `version`:
    /// v1 → per-word, v4 → batched slabs, v5 → compressed slab frames.
    pub fn of_version(version: u32) -> ImageCodec {
        if version <= MIN_SUPPORTED_VERSION {
            ImageCodec::PerWord
        } else if version <= BATCHED_VERSION {
            ImageCodec::Batched
        } else {
            ImageCodec::Slab
        }
    }
}

/// The codecs a new image's slab frames may use, for a sink that accepts
/// `accepted`, under the process's codec `preference`.  The preference
/// narrows the accepted set, falling back to Raw (which every sink
/// accepts) when the sink does not advertise it; without one the slab
/// encoder picks the smallest encoding within the whole set.  Every set
/// is written as v5 frames — a `{Raw}` set as frames that are all Raw.
pub fn negotiate_codecs(accepted: CodecSet, preference: Option<CodecId>) -> CodecSet {
    match preference {
        Some(codec) if accepted.contains(codec) => CodecSet::only(codec),
        Some(_) => CodecSet::raw_only(),
        None => accepted,
    }
}

/// Which image [`crate::HeapSnapshot::image_records`] collects the records
/// of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageKind {
    /// Every live block.
    Full,
    /// The live blocks changed since the last [`Heap::mark_clean`], plus
    /// the pointer indices freed since — applied to the full image taken
    /// at that clean point, it reconstructs the current heap.
    Delta,
}

/// The record list of one heap image, borrowed from a
/// [`crate::HeapSnapshot`] — the only producer: the pointer-table
/// capacity, the `(index, block)` records ascending by index and, for a
/// delta, the freed indices.
#[derive(Debug)]
pub struct ImageRecords<'a> {
    pub(crate) capacity: usize,
    pub(crate) records: Vec<(PtrIdx, &'a Block)>,
    /// The freed-index fixups of a delta image, ascending; `None` for a
    /// full image.
    pub(crate) freed: Option<&'a [PtrIdx]>,
}

impl<'a> ImageRecords<'a> {
    /// Write the v5 image: table capacity, record count, the records as
    /// slab frames whose codecs are chosen within `codecs`, then (delta
    /// images only) the freed-index fixups.  Long shared columns whose
    /// groups a live image already holds are copied from it (see
    /// [`ImageRecords::encode_shared`]); this image is not recorded for
    /// later ones.
    pub fn encode(&self, w: &mut WireWriter, codecs: CodecSet) {
        self.encode_noting(w, codecs);
    }

    /// [`ImageRecords::encode`] into `w`, whose bytes then move, without a
    /// copy, into the `Arc` an image keeps; each long shared column whose
    /// groups were encoded afresh is then recorded as held by it, so a
    /// later image of the same unwritten payload copies them instead.
    /// Returns the bytes and how many of them were copied from earlier
    /// images.
    pub fn encode_shared(&self, mut w: WireWriter, codecs: CodecSet) -> (Arc<Vec<u8>>, u64) {
        let reuse = self.encode_noting(&mut w, codecs);
        let bytes = Arc::new(w.into_bytes());
        let copied = reuse.copied;
        reuse.publish(&bytes);
        (bytes, copied)
    }

    /// The one function that writes heap-image bytes.
    fn encode_noting(&self, w: &mut WireWriter, codecs: CodecSet) -> Reuse<'a> {
        w.write_usize(self.capacity);
        w.write_usize(self.records.len());
        let reuse = with_pooled_encoder(|encoder| encoder.encode_records(w, &self.records, codecs));
        if let Some(freed) = self.freed {
            debug_assert!(freed.windows(2).all(|p| p[0] < p[1]));
            w.write_usize(freed.len());
            for ptr in freed {
                w.write_uvarint(ptr.0 as u64);
            }
        }
        reuse
    }
}

/// Whole BitPack groups a shared column must span before an encode copies
/// them from an earlier image or records them for a later one: a constant
/// of the format's cost, not an option.  Measured on a 2-vCPU host, a
/// copy beats packing from one group up (≈ 45–70 ns against ≈ 65–80 ns
/// for a one-group column), but a column packed afresh pays ≈ 25–45 ns
/// to be noted and published, which one written before every image never
/// earns back: ≈ 30 % of its encode at 2 groups, under 10 % at 8.  The
/// floor also keeps small-block heaps out entirely (a 64-word block spans
/// two groups).
const REUSE_MIN_GROUPS: usize = 8;

/// What one encode learned about reuse: the long shared columns whose
/// groups it encoded and no image holds yet, with the byte range they took
/// in the writer's buffer and their phase; and the bytes it copied from
/// earlier images instead of encoding.
#[derive(Debug, Default)]
struct Reuse<'a> {
    noted: Vec<(&'a Shared<u64>, Range<usize>, u8)>,
    copied: u64,
}

impl Reuse<'_> {
    /// Record that `image` — the buffer the ranges were noted in — holds
    /// each noted column's groups.  One `Arc::downgrade` per column, and
    /// a slot another image filled in the meantime stays as it is.
    fn publish(self, image: &Arc<Vec<u8>>) {
        for (shared, range, phase) in self.noted {
            let image = Arc::downgrade(image);
            shared.publish(Encoded {
                image,
                range,
                phase,
            });
        }
    }
}

/// Wire statistics of a v5 heap payload: what the slab frames claim
/// uncompressed vs. what the payload occupies on the wire.  Computed by
/// [`image_payload_stats`] without decompressing anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PayloadWireStats {
    /// Payload size if every slab frame were stored raw.
    pub raw_bytes: u64,
    /// Actual payload size on the wire.
    pub stored_bytes: u64,
}

/// Walk a v5 heap payload (full image when `delta` is false, delta image
/// otherwise) and report its raw-vs-stored wire statistics.  Only frame
/// headers are read — nothing is decompressed — so checkpoint stores can
/// account compression per `put` at negligible cost.
pub fn image_payload_stats(bytes: &[u8], delta: bool) -> Result<PayloadWireStats, WireError> {
    let mut r = WireReader::new(bytes);
    r.read_usize()?; // table capacity
    r.read_usize()?; // used / dirty record count
    let mut frames = FrameStats::default();
    frames.add(r.skip_byte_frame()?); // meta
    frames.add(r.skip_byte_frame()?); // tag slab
    frames.add(r.skip_word_frame()?); // word payload slab
    frames.add(r.skip_byte_frame()?); // byte payload slab
    if delta {
        let freed = r.read_usize()?;
        for _ in 0..freed {
            r.read_uvarint()?;
        }
    }
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    let stored = bytes.len() as u64;
    Ok(PayloadWireStats {
        raw_bytes: stored - frames.stored_bytes + frames.raw_bytes,
        stored_bytes: stored,
    })
}

impl Heap {
    /// Rebuild a heap from a full image whose payload uses `codec`.
    ///
    /// Pointer indices are preserved exactly (heap words contain indices, so
    /// identity must survive the round trip); slots are assigned fresh.
    pub fn decode_image(
        r: &mut WireReader<'_>,
        codec: ImageCodec,
        config: HeapConfig,
    ) -> Result<Heap, WireError> {
        let (capacity, blocks) = Heap::parse_blocks(r, codec)?;
        Heap::build_from_blocks(capacity, blocks, config)
    }

    /// Rebuild a heap from a base image plus a delta image written against
    /// it.
    ///
    /// `base_codec` / `delta_codec` select each payload's block codec (the
    /// caller maps wire format versions — a v5 delta may resolve against a
    /// v4 or even v1 base).  Freed indices unknown to the base are ignored
    /// — they belong to blocks allocated *and* freed between the two
    /// images.
    pub fn decode_delta_image(
        base: &mut WireReader<'_>,
        delta: &mut WireReader<'_>,
        base_codec: ImageCodec,
        delta_codec: ImageCodec,
        config: HeapConfig,
    ) -> Result<Heap, WireError> {
        let (_, base_blocks) = Heap::parse_blocks(base, base_codec)?;
        if delta_codec == ImageCodec::PerWord {
            return Err(WireError::Invalid(
                "v1 images cannot carry delta heap payloads".into(),
            ));
        }
        let capacity = Heap::check_capacity(delta.read_usize()?)?;
        let dirty = delta.read_usize()?;
        // Overwriting a *base* entry is the point of a delta; two delta
        // records for one index is corruption (order-dependent decode).
        let dirty = ascending(
            Heap::parse_records(delta, dirty, delta_codec)?,
            "delta image",
        )?;
        let freed = delta.read_usize()?;
        let mut freed_indices = Vec::with_capacity(freed.min(1 << 16));
        for _ in 0..freed {
            freed_indices.push(delta.read_uvarint_u32("freed pointer index")?);
        }
        freed_indices.sort_unstable();
        let blocks = merge_delta(base_blocks, dirty, &freed_indices);
        Heap::build_from_blocks(capacity, blocks, config)
    }

    /// Bound the pointer-table capacity an image may declare.  Images come
    /// from untrusted peers; an absurd capacity must fail fast rather than
    /// drive the table rebuild into gigabytes of allocation (and a
    /// capacity above `u32::MAX` would silently truncate, decoding every
    /// block into the void).
    fn check_capacity(capacity: usize) -> Result<usize, WireError> {
        /// Far above any real workload (the paper's heaps hold a few
        /// thousand blocks) and far below address-space exhaustion: an
        /// entry of a decoded heap costs at most 64 bytes (table entry,
        /// block slot and free-slot entry), so the largest table is
        /// 64 MiB.
        const MAX_TABLE_CAPACITY: usize = 1 << 20;
        if capacity > MAX_TABLE_CAPACITY {
            return Err(WireError::LengthOverflow {
                context: "pointer-table capacity",
                len: capacity as u64,
            });
        }
        Ok(capacity)
    }

    /// Decode the capacity and the blocks of a full image, ascending by
    /// index, rejecting duplicate indices.
    fn parse_blocks(
        r: &mut WireReader<'_>,
        codec: ImageCodec,
    ) -> Result<(usize, Vec<Block>), WireError> {
        let capacity = Heap::check_capacity(r.read_usize()?)?;
        let used = r.read_usize()?;
        if used > capacity {
            return Err(WireError::Invalid(format!(
                "heap image claims {used} used entries but a table of {capacity}"
            )));
        }
        let blocks = ascending(Heap::parse_records(r, used, codec)?, "heap image")?;
        Ok((capacity, blocks))
    }

    /// Decode `count` records of `codec`'s layout, in record order, each
    /// block's header carrying its index.  In the per-record layouts each
    /// block header repeats its index, and the two must agree.
    fn parse_records(
        r: &mut WireReader<'_>,
        count: usize,
        codec: ImageCodec,
    ) -> Result<Vec<Block>, WireError> {
        if codec == ImageCodec::Slab {
            return Heap::parse_records_slab(r, count);
        }
        let mut records = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let idx = r.read_uvarint_u32("heap record index")?;
            let block = if codec == ImageCodec::Batched {
                Block::decode_batched(r)?
            } else {
                Block::decode_v1(r)?
            };
            if block.header.index.0 != idx {
                return Err(WireError::Invalid(format!(
                    "block header index {} does not match record index {idx}",
                    block.header.index.0
                )));
            }
            records.push(block);
        }
        Ok(records)
    }

    /// Decode `count` v5 slab records (the four compressed frames) back
    /// into blocks, in record order, in one streamed pass, so no payload
    /// slab is built: an `Array` whose tag run is one numeric tag becomes
    /// a column ([`crate::Words::Int`] or [`crate::Words::Float`]) read
    /// straight from the payload frame's [`mojave_wire::WordDecoder`] —
    /// any `u64` is a valid `Int` or `Float`, so nothing is checked per
    /// word — and every other word block's `Vec<Word>` is filled from it
    /// a chunk at a time.  Every
    /// slab length cross-check — tags vs. payload words, declared block
    /// lengths vs. slab sizes — is a precise [`WireError`], and nothing
    /// is allocated beyond what the blocks themselves and the byte slabs
    /// hold.
    fn parse_records_slab(r: &mut WireReader<'_>, count: usize) -> Result<Vec<Block>, WireError> {
        let meta = r.read_byte_frame()?;
        let tags = r.read_byte_frame()?;
        let mut payload = r.read_word_frame()?;
        let raw = r.read_byte_frame()?;
        if tags.len() != payload.remaining() {
            return Err(WireError::Invalid(format!(
                "heap image has {} word tags but {} word payloads",
                tags.len(),
                payload.remaining()
            )));
        }
        let mut mr = WireReader::new(&meta);
        let mut blocks = Vec::with_capacity(count.min(1 << 16));
        let mut word_off = 0usize;
        let mut byte_off = 0usize;
        let mut chunk = [0u64; DECODE_CHUNK_WORDS];
        for _ in 0..count {
            let idx = mr.read_uvarint_u32("heap record index")?;
            let kind = BlockKind::decode(&mut mr)?;
            let len = mr.read_usize()?;
            let data = if kind.is_words() {
                if len > tags.len() - word_off {
                    return Err(WireError::Invalid(format!(
                        "block {idx} claims {len} words but the slab holds {}",
                        tags.len() - word_off
                    )));
                }
                let run = &tags[word_off..word_off + len];
                word_off += len;
                if let Some(tag) = Numeric::of_run(kind, run) {
                    let mut column = vec![0; len];
                    payload.read(&mut column)?;
                    BlockData::column(tag, column)
                } else {
                    let mut words = Vec::with_capacity(len);
                    for tags in run.chunks(DECODE_CHUNK_WORDS) {
                        let payloads = &mut chunk[..tags.len()];
                        payload.read(payloads)?;
                        extend_from_raw(&mut words, tags, payloads)?;
                    }
                    BlockData::words(words)
                }
            } else {
                if len > raw.len() - byte_off {
                    return Err(WireError::Invalid(format!(
                        "block {idx} claims {len} bytes but the slab holds {}",
                        raw.len() - byte_off
                    )));
                }
                let bytes = raw[byte_off..byte_off + len].to_vec();
                byte_off += len;
                BlockData::bytes(bytes)
            };
            blocks.push(Block {
                header: BlockHeader::new(PtrIdx(idx), kind, Generation::Old),
                data,
            });
        }
        if !mr.is_empty() {
            return Err(WireError::TrailingBytes {
                remaining: mr.remaining(),
            });
        }
        if word_off != tags.len() || byte_off != raw.len() {
            return Err(WireError::Invalid(format!(
                "heap image slabs hold more data than the records claim \
                 ({} words, {} bytes unclaimed)",
                tags.len() - word_off,
                raw.len() - byte_off
            )));
        }
        payload.finish()?;
        Ok(blocks)
    }

    /// Materialise a heap from `blocks`, ascending by index, whose
    /// indices land exactly where the image says, in the slot layout
    /// allocating every entry `0..capacity` in order and then freeing the
    /// unused ones leaves: block `i` in slot `i`, and every unused index
    /// a free table entry and a free slot, the highest reused first.  The
    /// collector sweeps in slot order, which decides the indices later
    /// allocations get, so this layout is what keeps a resumed process's
    /// later images byte-identical.  It is built in place — `blocks`
    /// becomes the block store and each block moves once, to its slot —
    /// so a free entry costs its table entry, its empty slot and its
    /// free-slot entry and nothing else.  The result starts clean (its
    /// own image is its base) but with dirty tracking disarmed — a
    /// resurrected process only starts paying the bookkeeping once it
    /// takes a full checkpoint.
    fn build_from_blocks(
        capacity: usize,
        blocks: Vec<Block>,
        config: HeapConfig,
    ) -> Result<Heap, WireError> {
        if let Some(last) = blocks.last() {
            let max_index = last.header.index.0;
            if max_index as usize >= capacity {
                return Err(WireError::Invalid(format!(
                    "pointer index {max_index} exceeds declared table capacity {capacity}"
                )));
            }
        }
        let mut heap = Heap::with_config(config);
        heap.table = PointerTable::rebuild(capacity, blocks.iter().map(|b| b.header.index));
        let bytes: usize = blocks.iter().map(Block::byte_size).sum();
        heap.live_bytes = bytes;
        heap.stats.blocks_allocated = blocks.len() as u64;
        heap.stats.bytes_allocated = bytes as u64;

        let used = blocks.len();
        // `Option<Block>` is `Block`'s size (the niche; asserted below),
        // so this reuses the vector.
        let mut slots: Vec<Option<Block>> = blocks.into_iter().map(Some).collect();
        slots.resize_with(capacity, || None);
        // Indices ascend and are at least their rank, so moving blocks
        // from the last down never lands on one not yet moved.
        for rank in (0..used).rev() {
            let slot = slots[rank].as_ref().expect("not moved yet").header.index.0 as usize;
            slots.swap(rank, slot);
        }
        heap.free_slots = Vec::with_capacity(capacity - used);
        heap.free_slots
            .extend((0..capacity).filter(|&slot| slots[slot].is_none()));
        heap.blocks = slots;
        Ok(heap)
    }
}

// `build_from_blocks` turns its `Vec<Block>` into the `Vec<Option<Block>>`
// block store without reallocating.
const _: () = assert!(std::mem::size_of::<Option<Block>>() == std::mem::size_of::<Block>());

/// `blocks` ascending by index: as they come when in order, which is how
/// every encoder writes them, else sorted.  Two blocks with one index are
/// a precise error naming the index and `image`.
fn ascending(mut blocks: Vec<Block>, image: &str) -> Result<Vec<Block>, WireError> {
    let index = |block: &Block| block.header.index;
    if blocks.windows(2).all(|p| index(&p[0]) < index(&p[1])) {
        return Ok(blocks);
    }
    blocks.sort_unstable_by_key(index);
    if let Some(p) = blocks.windows(2).find(|p| index(&p[0]) == index(&p[1])) {
        return Err(WireError::Invalid(format!(
            "duplicate pointer index {} in {image}",
            index(&p[0]).0
        )));
    }
    Ok(blocks)
}

/// The blocks of a base image with a delta applied, ascending by index:
/// the delta's `dirty` blocks replace or join the base's, then every
/// `freed` index (ascending) goes, whichever side its block came from.
fn merge_delta(base: Vec<Block>, dirty: Vec<Block>, freed: &[u32]) -> Vec<Block> {
    let mut merged = Vec::with_capacity(base.len() + dirty.len());
    let mut freed = freed.iter().copied().peekable();
    let mut keep = |block: Block| {
        let idx = block.header.index.0;
        while freed.next_if(|&f| f < idx).is_some() {}
        if freed.peek() != Some(&idx) {
            merged.push(block);
        }
    };
    let mut base = base.into_iter().peekable();
    for block in dirty {
        let idx = block.header.index;
        while let Some(older) = base.next_if(|b| b.header.index <= idx) {
            if older.header.index < idx {
                keep(older);
            }
        }
        keep(block);
    }
    base.for_each(keep);
    merged
}

/// Payload words decoded per [`mojave_wire::WordDecoder::read`] into a
/// stack buffer before they become a block's `Word`s: eight BitPack
/// groups, small enough to stay in L1 between the two steps.
const DECODE_CHUNK_WORDS: usize = 256;

/// Encoders between images, each beside the thread that returned it.
/// Every slab image — and through [`ImageRecords::encode`] synchronous
/// packs, pipeline workers and delta resolution alike — takes one for the
/// length of one image ([`with_pooled_encoder`]), so steady state neither
/// allocates staging nor zero-fills an LZ table per image.  The pool holds
/// as many encoders as images were ever encoded at once.
static ENCODERS: Mutex<Vec<(ThreadId, SlabEncoder)>> = Mutex::new(Vec::new());

/// Run `encode` with an encoder from the pool: taken under the lock, used
/// outside it, returned afterwards.  A thread gets back the encoder it
/// returned last when that one is free — its 128 KiB LZ table is then
/// still in this core's cache (on a 2-vCPU host, two grid workers handed
/// each other's encoders spent 1.4× as long in LZ as with a fresh table).
/// An encode that panics drops its encoder rather than returning it.
fn with_pooled_encoder<R>(encode: impl FnOnce(&mut SlabEncoder) -> R) -> R {
    // Only `swap_remove` and `push` run under the lock and a `Vec` is
    // whole after either, so a poisoned lock still guards a usable pool.
    let pool = || ENCODERS.lock().unwrap_or_else(PoisonError::into_inner);
    let me = std::thread::current().id();
    let mut encoder = {
        let mut pool = pool();
        let mine = pool.iter().rposition(|(owner, _)| *owner == me);
        match mine.or(pool.len().checked_sub(1)) {
            Some(at) => pool.swap_remove(at).1,
            None => SlabEncoder::default(),
        }
    };
    let result = encode(&mut encoder);
    pool().push((me, encoder));
    result
}

/// The v5 slab encoder, with the working memory it keeps between images:
/// the codec crate's [`Compressor`] (LZ match table and trial buffers)
/// and the staging slabs.  Built only by the pool behind
/// [`with_pooled_encoder`].  **The bytes written never depend on what the
/// encoder was used for before** — that is what makes one pool safe to
/// share between every caller.
#[derive(Debug, Default)]
struct SlabEncoder {
    compressor: Compressor,
    meta: WireWriter,
    sample: Vec<u64>,
    tags: Vec<u8>,
    raw: Vec<u8>,
    /// Word payloads — staged only when [`CodecId::Raw`] / [`CodecId::Lz`]
    /// wins; the delta filters stream instead.
    payload: Vec<u64>,
    /// The varint stream between [`CodecId::VarintLz`]'s two passes.
    varint: Vec<u8>,
}

impl SlabEncoder {
    /// Gather `records` into the four v5 slabs and write them as
    /// compressed frames: meta (index, kind, length per record), word
    /// tags, word payloads, byte payloads.  Shared by full and delta
    /// encoding.
    ///
    /// Hot-path shape: one sizing pass (which also emits the meta slab),
    /// the word codec chosen from a staged *prefix sample* only, one pass
    /// staging tags and bytes with an exact-size `extend` per block, then
    /// the payload pass — when a delta filter wins, payload words stream
    /// through [`mojave_wire::VarintStream`] or
    /// [`mojave_wire::BitPackStream`] straight into `w`'s frame (length
    /// patched afterwards), the latter packing whole 32-word groups
    /// straight from each block's words and going word by word only for
    /// a group that straddles two blocks.  Neither the 8-bytes-per-word
    /// `u64` slab nor a side copy of the encoded bytes is ever
    /// materialised.  A slab the choice sampled whole is compressed once:
    /// the winning trial is written as its payload.
    ///
    /// When BitPack streams, a long shared column's whole groups are
    /// copied from an earlier live image that holds them at the same
    /// phase ([`pack_column`]) — the bytes packing would write — and the
    /// columns packed afresh come back in the [`Reuse`], for
    /// [`ImageRecords::encode_shared`] to record once the image's bytes
    /// have their final home.
    ///
    /// A numeric column ([`crate::Words::Int`], [`crate::Words::Float`])
    /// is read once per pass as the payload slab it already is: its tag
    /// run is a fill, and the sample and the streams take its `u64`s as
    /// they stand.  Only a tagged block splits each [`Word`](crate::Word)
    /// with `to_raw`.
    ///
    /// Staging the tags in the payload pass instead, block by block, was
    /// measured and is slower: the tag frame precedes the payload frame,
    /// so the payload then needs a side copy, which costs more than
    /// reading the blocks twice.
    fn encode_records<'a>(
        &mut self,
        w: &mut WireWriter,
        records: &[(PtrIdx, &'a Block)],
        allowed: CodecSet,
    ) -> Reuse<'a> {
        // Staging exactly the codec crate's choice-sample prefix makes
        // the sampled choice identical to a choice over the full slab.
        use mojave_wire::CHOICE_SAMPLE_WORDS;
        let SlabEncoder {
            compressor,
            meta,
            sample,
            tags,
            raw,
            payload,
            varint,
        } = self;

        meta.clear();
        let mut word_total = 0usize;
        let mut byte_total = 0usize;
        for (idx, block) in records {
            meta.write_uvarint(idx.0 as u64);
            block.header.kind.encode(meta);
            meta.write_usize(block.len());
            match &block.data {
                BlockData::Words(words) => word_total += words.len(),
                BlockData::Bytes(bytes) => byte_total += bytes.len(),
            }
        }

        let word_blocks = || {
            records
                .iter()
                .filter_map(|(_, block)| Some(block.as_words()?.view()))
        };
        let payload_of = |word: &crate::Word| word.to_raw().1;

        sample.clear();
        for words in word_blocks() {
            let room = CHOICE_SAMPLE_WORDS - sample.len();
            if room == 0 {
                break;
            }
            match words {
                WordsView::Tagged(w) => sample.extend(w.iter().take(room).map(payload_of)),
                WordsView::Column(_, c) => sample.extend_from_slice(&c[..room.min(c.len())]),
            }
        }
        let word_codec = compressor.choose_words(sample, allowed);
        let sampled_whole = sample.len() == word_total;

        w.write_byte_frame_chosen(compressor, meta.as_bytes(), allowed);

        tags.clear();
        tags.reserve(word_total);
        raw.clear();
        raw.reserve(byte_total);
        for (_, block) in records {
            match &block.data {
                BlockData::Words(words) => match words.view() {
                    WordsView::Tagged(w) => tags.extend(w.iter().map(|word| word.to_raw().0)),
                    WordsView::Column(tag, c) => tags.resize(tags.len() + c.len(), tag.raw_tag()),
                },
                BlockData::Bytes(bytes) => raw.extend_from_slice(bytes),
            }
        }
        w.write_byte_frame_chosen(compressor, tags, allowed);

        let stream_payloads = |out: &mut Vec<u8>| {
            let mut stream = mojave_wire::VarintStream::new();
            for words in word_blocks() {
                match words {
                    WordsView::Tagged(w) => {
                        w.iter().for_each(|word| stream.push(payload_of(word), out))
                    }
                    WordsView::Column(_, c) => c.iter().for_each(|&p| stream.push(p, out)),
                }
            }
        };
        let mut reuse = Reuse::default();
        // The byte-frame choices above keep their trials apart from this
        // one, so the word choice's winner is still the payload here.
        if let Some(won) = compressor.chosen_words().filter(|_| sampled_whole) {
            w.write_word_frame_streamed(word_total, word_codec, won.len(), |out| {
                out.extend_from_slice(won)
            });
        } else {
            match word_codec {
                CodecId::Varint => {
                    w.write_word_frame_streamed(
                        word_total,
                        word_codec,
                        word_total * 2,
                        stream_payloads,
                    );
                }
                CodecId::BitPack => {
                    let body = w.write_word_frame_streamed(
                        word_total,
                        word_codec,
                        word_total * 4,
                        |out| pack_payloads(records, out, &mut reuse),
                    );
                    // The ranges were noted relative to the payload as it
                    // was filled; it may have moved since.
                    for (_, range, _) in &mut reuse.noted {
                        *range = range.start + body..range.end + body;
                    }
                }
                CodecId::VarintLz => {
                    varint.clear();
                    varint.reserve(word_total * 2 + 16);
                    stream_payloads(varint);
                    w.write_word_frame_streamed(word_total, word_codec, varint.len() / 4, |out| {
                        compressor.compress_bytes(CodecId::Lz, varint, out)
                    });
                }
                CodecId::Raw | CodecId::Lz => {
                    payload.clear();
                    payload.reserve(word_total);
                    for words in word_blocks() {
                        match words {
                            WordsView::Tagged(w) => payload.extend(w.iter().map(payload_of)),
                            WordsView::Column(_, c) => payload.extend_from_slice(c),
                        }
                    }
                    w.write_word_frame_with(compressor, payload, word_codec);
                }
            }
        }

        w.write_byte_frame_chosen(compressor, raw, allowed);
        reuse
    }
}

/// Stream the payload words of `records`' word blocks into `out` as one
/// BitPack slab, noting in `reuse` ranges relative to where `out` started.
///
/// A group's bytes are a function of its 32 words alone (every group
/// restarts the delta filter), so a long shared column's whole groups are
/// the same bytes in every image that cuts them at the same *phase* —
/// the slab words before the column, mod 32.  [`pack_column`] copies them
/// from a live image that holds them, and otherwise encodes them and
/// notes where.
fn pack_payloads<'a>(records: &[(PtrIdx, &'a Block)], out: &mut Vec<u8>, reuse: &mut Reuse<'a>) {
    let body = out.len();
    let mut stream = BitPackStream::new();
    let mut streamed = 0usize;
    for &(_, block) in records {
        let Some(words) = block.as_words() else {
            continue;
        };
        match words {
            Words::Tagged(w) => stream.extend(w, |word| word.to_raw().1, out),
            // A short column cannot take part whatever its phase: it
            // streams straight away (most blocks of a small-block heap).
            Words::Int(column) | Words::Float(column)
                if column.len() < REUSE_MIN_GROUPS * BITPACK_GROUP_WORDS =>
            {
                stream.extend(column, |&payload| payload, out)
            }
            Words::Int(column) | Words::Float(column) => {
                pack_column(column, streamed, &mut stream, out, body, reuse)
            }
        }
        streamed += words.len();
    }
    stream.finish(out);
}

/// Stream one column that starts `streamed` words into the slab: the head
/// words that finish the open group, then its whole groups — copied from
/// the image its slot names when that image is alive and cut them at this
/// phase, else encoded and (if no image holds them yet) noted — then the
/// tail.  An owned column, or one spanning fewer than
/// [`REUSE_MIN_GROUPS`] whole groups, streams as it stands.
fn pack_column<'a>(
    column: &'a Payload<u64>,
    streamed: usize,
    stream: &mut BitPackStream,
    out: &mut Vec<u8>,
    body: usize,
    reuse: &mut Reuse<'a>,
) {
    let word = |&payload: &u64| payload;
    let phase = streamed % BITPACK_GROUP_WORDS;
    let head = (BITPACK_GROUP_WORDS - phase) % BITPACK_GROUP_WORDS;
    let groups = column.len().saturating_sub(head) / BITPACK_GROUP_WORDS;
    let shared = match column {
        Payload::Shared(shared) if groups >= REUSE_MIN_GROUPS => shared,
        _ => return stream.extend(column, word, out),
    };
    let (head, rest) = column.split_at(head);
    let (whole, tail) = rest.split_at(groups * BITPACK_GROUP_WORDS);
    stream.extend(head, word, out);
    debug_assert!(stream.at_group_start());
    let phase = phase as u8;
    if let Some((image, range)) = shared.encoded_at(phase) {
        reuse.copied += range.len() as u64;
        out.extend_from_slice(&image[range]);
    } else {
        let start = out.len() - body;
        stream.extend(whole, word, out);
        if shared.unencoded() {
            reuse.noted.push((shared, start..out.len() - body, phase));
        }
    }
    stream.extend(tail, word, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Numeric, Word};
    use mojave_wire::{choose_bytes, choose_words};

    /// The slab image as the encoder wrote it before numeric columns
    /// existed, kept literally as the oracle: every word block's
    /// `(tag, payload)` pairs split from its [`Word`]s with `to_raw`, each
    /// slab staged whole, and each frame written in the codec the plain
    /// choice functions pick for it.
    fn reference_image(records: &ImageRecords<'_>, allowed: CodecSet) -> Vec<u8> {
        let mut meta = WireWriter::new();
        let (mut tags, mut payloads, mut raw) = (Vec::new(), Vec::new(), Vec::new());
        for (idx, block) in &records.records {
            meta.write_uvarint(idx.0 as u64);
            block.header.kind.encode(&mut meta);
            meta.write_usize(block.len());
            match &block.data {
                BlockData::Words(words) => {
                    for (tag, payload) in words.iter().map(Word::to_raw) {
                        tags.push(tag);
                        payloads.push(payload);
                    }
                }
                BlockData::Bytes(bytes) => raw.extend_from_slice(bytes),
            }
        }
        let mut w = WireWriter::new();
        w.write_usize(records.capacity);
        w.write_usize(records.records.len());
        w.write_byte_frame(meta.as_bytes(), choose_bytes(meta.as_bytes(), allowed));
        w.write_byte_frame(&tags, choose_bytes(&tags, allowed));
        w.write_word_frame(&payloads, choose_words(&payloads, allowed));
        w.write_byte_frame(&raw, choose_bytes(&raw, allowed));
        if let Some(freed) = records.freed {
            w.write_usize(freed.len());
            for ptr in freed {
                w.write_uvarint(ptr.0 as u64);
            }
        }
        w.into_bytes()
    }

    /// Every set a sink can negotiate down to: all codecs, and each alone.
    fn codec_sets() -> impl Iterator<Item = CodecSet> {
        std::iter::once(CodecSet::all()).chain(CodecId::ALL.into_iter().map(CodecSet::only))
    }

    /// A heap of Int and Float columns beside tagged word blocks — mixed
    /// arrays, arrays tagged though every word is an `Int` (built tagged,
    /// or converted and written back), tuples, pointer arrays — and byte
    /// blocks, at lengths that are not multiples of 32, so BitPack groups
    /// straddle the seams between the forms, and more words in all than
    /// the codec choice samples.
    fn seamed_heap() -> (Heap, Vec<PtrIdx>) {
        let mut heap = Heap::new();
        let mut ptrs: Vec<PtrIdx> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x >> 7
        };
        let lengths = [1, 31, 33, 45, 70, 0, 95, 100, 7, 300, 64, 700, 1100, 2];
        for (b, &len) in lengths.iter().enumerate() {
            let ptr = match b % 8 {
                0 => heap.alloc_array(len, Word::Int(0)).unwrap(),
                1 => heap.alloc_array(len, Word::Float(0.5)).unwrap(),
                2 | 3 => heap.alloc_array(len, Word::Unit).unwrap(),
                4 => heap.alloc_array(len, Word::Int(0)).unwrap(),
                5 => {
                    let words = (0..len).map(|i| Word::Int(i * 3)).collect();
                    heap.alloc_tuple(words).unwrap()
                }
                6 => heap.alloc_array(len, Word::Ptr(ptrs[0])).unwrap(),
                _ => heap.alloc_raw(len * 3).unwrap(),
            };
            for i in 0..len {
                let word = match b % 8 {
                    0 => Word::Int((next() % 1000) as i64),
                    1 => Word::Float(f64::from_bits(next())),
                    2 => Word::Int(next() as i64 - (1 << 40)),
                    3 => match i % 5 {
                        0 => Word::Bool(i % 2 == 0),
                        1 => Word::Char(char::from_u32(0x3B0 + i as u32).unwrap()),
                        2 => Word::Fun(i as u32),
                        _ => Word::Float(i as f64),
                    },
                    // A column one foreign store converts, written back
                    // to `Int`s: tagged, though uniform.
                    4 if i == len / 2 => {
                        heap.store(ptr, i, Word::Bool(true)).unwrap();
                        Word::Int(-i)
                    }
                    4 => Word::Int(-i),
                    6 => Word::Ptr(ptrs[(i as usize) % ptrs.len()]),
                    _ => continue,
                };
                heap.store(ptr, i, word).unwrap();
            }
            ptrs.push(ptr);
        }
        let hole = heap.alloc_raw(8).unwrap();
        heap.free_block(hole);
        heap.alloc_str("seam").unwrap();
        (heap, ptrs)
    }

    fn encoded(records: &ImageRecords<'_>, allowed: CodecSet) -> Vec<u8> {
        let mut w = WireWriter::new();
        records.encode(&mut w, allowed);
        w.into_bytes()
    }

    #[test]
    fn column_encoder_writes_the_word_reference_bytes() {
        let (mut heap, ptrs) = seamed_heap();
        let forms: Vec<Option<Numeric>> = ptrs
            .iter()
            .filter_map(|p| heap.block(*p).unwrap().as_words())
            .map(|words| words.column_tag())
            .collect();
        assert!(forms.contains(&Some(Numeric::Int)) && forms.contains(&Some(Numeric::Float)));
        assert!(forms.contains(&None));
        let base = heap.freeze();
        let full = base.image_records(ImageKind::Full).unwrap();
        for allowed in codec_sets() {
            assert_eq!(
                encoded(&full, allowed),
                reference_image(&full, allowed),
                "full image, {allowed:?}"
            );
        }

        heap.mark_clean();
        heap.store(ptrs[8], 6, Word::Int(-5)).unwrap();
        heap.store(ptrs[1], 30, Word::Float(-0.0)).unwrap();
        heap.store(ptrs[0], 0, Word::Char('c')).unwrap(); // converts
        heap.store(ptrs[9], 299, Word::Int(3)).unwrap(); // converts
        let fresh = heap.alloc_array(45, Word::Float(2.0)).unwrap();
        heap.store(fresh, 44, Word::Float(-2.0)).unwrap();
        heap.free_block(ptrs[3]);
        let snap = heap.freeze();
        let delta = snap.image_records(ImageKind::Delta).unwrap();
        assert_eq!(delta.records.len(), 5);
        for allowed in codec_sets() {
            assert_eq!(
                encoded(&delta, allowed),
                reference_image(&delta, allowed),
                "delta image, {allowed:?}"
            );
        }
    }

    /// `data` with every payload copied into a `Vec` of its own, in the
    /// same stored form: nothing in it is shared, so an encode of it has
    /// no slot to consult.
    fn unshared(data: &BlockData) -> BlockData {
        let own = |words: &Payload<u64>| Payload::Owned(words.to_vec());
        match data {
            BlockData::Words(Words::Tagged(w)) => BlockData::words(w.to_vec()),
            BlockData::Words(Words::Int(c)) => BlockData::Words(Words::Int(own(c))),
            BlockData::Words(Words::Float(c)) => BlockData::Words(Words::Float(own(c))),
            BlockData::Bytes(b) => BlockData::bytes(b.to_vec()),
        }
    }

    /// Encode `snap`'s image (a delta when asked for and possible) as a
    /// pack does, recording it for later images, and check it byte for
    /// byte against the reference encode of unshared copies of the same
    /// blocks.  The image is kept in `images`; returns the bytes it copied
    /// from earlier ones.
    fn encode_checked(
        snap: &crate::HeapSnapshot,
        allowed: CodecSet,
        delta: bool,
        images: &mut Vec<Arc<Vec<u8>>>,
    ) -> u64 {
        let kind = if delta && snap.delta_capable() {
            ImageKind::Delta
        } else {
            ImageKind::Full
        };
        let records = snap.image_records(kind).unwrap();
        let (bytes, copied) = records.encode_shared(WireWriter::new(), allowed);
        let copies: Vec<Block> = records
            .records
            .iter()
            .map(|(_, block)| Block {
                header: block.header,
                data: unshared(&block.data),
            })
            .collect();
        let reference = ImageRecords {
            capacity: records.capacity,
            records: records
                .records
                .iter()
                .map(|(idx, _)| *idx)
                .zip(&copies)
                .collect(),
            freed: records.freed,
        };
        assert_eq!(
            *bytes,
            encoded(&reference, allowed),
            "{kind:?} image, {allowed:?}"
        );
        images.push(bytes);
        copied
    }

    /// The column a decoder must rebuild for these elements of a `kind`
    /// block, worked out word by word: an `Array` whose words all carry
    /// one numeric tag.
    fn uniform(kind: BlockKind, words: &[Word]) -> Option<Numeric> {
        let tags: Vec<Option<Numeric>> = words
            .iter()
            .map(|w| Numeric::of(*w).map(|(tag, _)| tag))
            .collect();
        let first = *tags.first()?;
        (kind == BlockKind::Array && tags.iter().all(|t| *t == first)).then_some(first)?
    }

    #[test]
    fn decode_keeps_exactly_the_uniform_numeric_arrays_as_columns() {
        let (mut heap, _) = seamed_heap();
        let snap = heap.freeze();
        let full = snap.image_records(ImageKind::Full).unwrap();
        for allowed in codec_sets() {
            let bytes = encoded(&full, allowed);
            let back = Heap::decode_image(
                &mut WireReader::new(&bytes),
                ImageCodec::Slab,
                HeapConfig::default(),
            )
            .unwrap();
            assert_eq!(back.snapshot(), heap.snapshot());
            let mut columns = 0;
            for (idx, _) in back.pointer_table().iter_used() {
                let block = back.block(idx).unwrap();
                let Some(words) = block.as_words() else {
                    continue;
                };
                let want = uniform(block.header.kind, &words.to_vec());
                assert_eq!(words.column_tag(), want, "block {idx}, {allowed:?}");
                columns += usize::from(want.is_some());
            }
            // Four columns, and the four `Int` arrays built or converted
            // tagged: the form decode gives follows the content alone.
            assert_eq!(columns, 8, "{allowed:?}");
        }
    }

    /// A heap of small tuples of lengths `smalls` followed by columns of
    /// lengths `columns` (the second one `Float`) filled from `seed`, the
    /// even ones with small values, the odd ones with all 64 bits.
    fn column_heap(
        smalls: &[usize],
        columns: &[usize],
        seed: u64,
    ) -> (Heap, Vec<PtrIdx>, Vec<PtrIdx>) {
        let mut heap = Heap::new();
        let mut x = seed | 1;
        let smalls = smalls
            .iter()
            .map(|&len| heap.alloc_tuple(vec![Word::Int(7); len]).unwrap())
            .collect();
        let columns = columns
            .iter()
            .enumerate()
            .map(|(j, &len)| {
                let float = j == 1;
                let init = if float {
                    Word::Float(0.0)
                } else {
                    Word::Int(0)
                };
                let ptr = heap.alloc_array(len as i64, init).unwrap();
                for i in 0..len as i64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let word = match (float, j % 2) {
                        (true, _) => Word::Float(f64::from_bits(x)),
                        (false, 0) => Word::Int((x % 1000) as i64),
                        (false, _) => Word::Int(x as i64),
                    };
                    heap.store(ptr, i, word).unwrap();
                }
                ptr
            })
            .collect();
        (heap, smalls, columns)
    }

    proptest::proptest! {
        /// The reuse oracle.  Through a seeded run of stores into long
        /// columns, small blocks allocated and freed ahead of them (which
        /// shifts their group phase), a column turned tagged by a pointer
        /// store, speculation entered, committed and rolled back,
        /// collections, clean points, and images encoded at once, out of
        /// order and dropped, every image — full or delta, BitPack alone
        /// or every codec — equals byte for byte the image the encoder
        /// writes from unshared copies of the same blocks.  Each case ends
        /// by showing the copy path ran: two images of an unwritten heap,
        /// the second copying from the first.
        #[test]
        fn reused_groups_match_a_fresh_encode_byte_for_byte(
            smalls in proptest::collection::vec(1usize..6, 1..4),
            first in 2100usize..2600,
            columns in proptest::collection::vec(200usize..1700, 1..5),
            seed in proptest::prelude::any::<u64>(),
            steps in proptest::collection::vec(
                (0u8..15, 0usize..64, 0usize..4096, proptest::prelude::any::<u64>()),
                1..40,
            ),
        ) {
            // Column 0 alone outgrows the codec choice's sample, so the
            // payload is always streamed.
            let lengths: Vec<usize> = std::iter::once(first).chain(columns).collect();
            let (mut heap, mut smalls, columns) = column_heap(&smalls, &lengths, seed);
            let mut images: Vec<Arc<Vec<u8>>> = Vec::new();
            let mut pending = Vec::new();
            let codecs = |v: u64| {
                if v & 1 == 0 { CodecSet::only(CodecId::BitPack) } else { CodecSet::all() }
            };
            for (op, a, b, v) in steps {
                let column = columns[a % columns.len()];
                let len = heap.block_len(column).unwrap() as i64;
                match op {
                    0..=2 => {
                        for k in 0..=(v % 4) as i64 {
                            let at = (b as i64 + k * 97) % len;
                            let word = match heap.block(column).unwrap().as_words().unwrap().column_tag() {
                                Some(Numeric::Float) => Word::Float(f64::from_bits(v >> k)),
                                _ => Word::Int((v >> k) as i64 % 1000),
                            };
                            heap.store(column, at, word).unwrap();
                        }
                    }
                    3 => smalls.push(heap.alloc_tuple(vec![Word::Int(1); 1 + b % 7]).unwrap()),
                    4 if heap.spec_depth() == 0 && !smalls.is_empty() => {
                        heap.free_block(smalls.swap_remove(a % smalls.len()));
                    }
                    // Column 0 stays a column throughout.
                    5 if column != columns[0] => {
                        heap.store(column, b as i64 % len, Word::Ptr(column)).unwrap();
                    }
                    6 if heap.spec_depth() < 3 => {
                        heap.spec_enter();
                    }
                    7 if heap.spec_depth() > 0 => {
                        heap.spec_commit(1 + a % heap.spec_depth()).unwrap();
                    }
                    8 if heap.spec_depth() > 0 => {
                        heap.spec_rollback(1 + a % heap.spec_depth()).unwrap();
                    }
                    9 => {
                        // Every column and all but one small block stay
                        // rooted: the collector frees the rest.
                        smalls.retain(|p| heap.block(*p).is_ok());
                        smalls.sort_unstable();
                        smalls.dedup();
                        if !smalls.is_empty() {
                            smalls.swap_remove(a % smalls.len());
                        }
                        let roots: Vec<Word> =
                            columns.iter().chain(&smalls).map(|p| Word::Ptr(*p)).collect();
                        if b % 2 == 0 { heap.gc_major(&roots) } else { heap.gc_minor(&roots) }
                    }
                    10 => heap.mark_clean(),
                    11 => {
                        let snap = heap.freeze();
                        encode_checked(&snap, codecs(v), v & 2 != 0, &mut images);
                    }
                    12 => pending.push(heap.freeze()),
                    13 => {
                        while let Some(snap) = pending.pop() {
                            encode_checked(&snap, codecs(v), v & 2 != 0, &mut images);
                        }
                    }
                    14 => {
                        let mut keep = v;
                        images.retain(|_| {
                            keep = keep.rotate_right(1);
                            keep & 1 == 0
                        });
                    }
                    _ => {}
                }
            }
            for snap in pending.drain(..) {
                encode_checked(&snap, CodecSet::only(CodecId::BitPack), false, &mut images);
            }
            // Column 0 is written, so its next freeze shares a fresh
            // payload; the first image records its groups and the second
            // copies them.
            let word = heap.load(columns[0], 0).unwrap();
            heap.store(columns[0], 0, word).unwrap();
            let bitpack = CodecSet::only(CodecId::BitPack);
            let first = heap.freeze();
            encode_checked(&first, bitpack, false, &mut images);
            let copied = encode_checked(&heap.freeze(), bitpack, false, &mut images);
            assert!(copied > 0);
        }
    }
}
