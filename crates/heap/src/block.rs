//! Heap blocks, their headers and their payloads.
//!
//! A payload is owned by its block until a freeze or a copy-on-write clone
//! shares it ([`Payload`]); the block's next write takes it back, or copies
//! it if the sharer still holds it.

use crate::pointer_table::PtrIdx;
use crate::word::Word;
use mojave_wire::{WireCodec, WireError, WireReader, WireWriter};
use std::ops::Range;
use std::sync::{Arc, OnceLock, Weak};

/// What a block holds and how the runtime is allowed to access it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// A fixed-shape aggregate of [`Word`]s (structs, message payloads).
    Tuple,
    /// A homogeneous array of [`Word`]s.
    Array,
    /// Raw bytes (C buffers); accessed with `load_raw`/`store_raw`.
    Raw,
    /// Immutable UTF-8 string constant.
    Str,
    /// A closure: element 0 is `Word::Fun(f)`, the rest are captured values.
    Closure,
    /// The migrate environment: the block that packs all live variables
    /// across a migration point (paper §4.2.2).
    MigrateEnv,
}

impl BlockKind {
    /// Whether the block stores words (as opposed to raw bytes).
    pub fn is_words(self) -> bool {
        !matches!(self, BlockKind::Raw | BlockKind::Str)
    }

    /// All kinds (for the wire codec and property tests).
    pub const ALL: [BlockKind; 6] = [
        BlockKind::Tuple,
        BlockKind::Array,
        BlockKind::Raw,
        BlockKind::Str,
        BlockKind::Closure,
        BlockKind::MigrateEnv,
    ];
}

/// Which GC generation a block currently belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generation {
    /// Allocated since the last minor collection.
    Young,
    /// Survived at least one minor collection.
    Old,
}

/// A payload's elements: owned by their block until something shares them.
///
/// A block's payload is a plain `Vec` while only its block holds it, so a
/// store writes it in place and pays no atomic.  [`Heap::freeze`] and a
/// speculation-level copy-on-write clone share it in place
/// ([`Payload::Shared`]) and hand out a second reference; the block's
/// next write takes it back without a copy once it is the only holder
/// again, and copies it while a clone or a live
/// [`crate::HeapSnapshot`] still holds it.  That keeps a freeze
/// O(pointer-table): the frozen originals stay readable from another
/// thread while the mutator copies exactly the blocks it touches.
///
/// Cloning an owned payload copies it; cloning a shared one shares it.
///
/// [`Heap::freeze`]: crate::Heap::freeze
#[derive(Debug, Clone)]
pub enum Payload<T> {
    /// Held by its block alone.
    Owned(Vec<T>),
    /// Shared with a clone or a snapshot, or it was and has not been
    /// written since — with the slot that says where an image holds it
    /// encoded ([`Shared`]).
    Shared(Arc<Shared<T>>),
}

/// A shared payload: the elements, and where an image already holds them
/// encoded.
///
/// A shared payload is never written in place — a write takes the `Vec`
/// out of it ([`Payload::to_mut`]) or copies it, and the allocation, slot
/// included, goes with the last reference — so what the slot says can
/// never describe older contents.  Keeping the slot here rather than in a
/// side table keyed by address is what makes that hold: a freed
/// allocation's address comes back, and this slot dies with its payload.
/// The slot is boxed, so a payload that never takes part — every short
/// block, every byte and tagged payload — pays 16 bytes for it.
#[derive(Debug)]
pub struct Shared<T> {
    elems: Vec<T>,
    encoded: OnceLock<Box<Encoded>>,
}

/// Where a live image holds a column's whole BitPack groups: the byte
/// range of the image's heap payload they occupy, and the group phase —
/// words of the image's payload slab before the column, mod 32 — they
/// were cut at.  The image is held weakly, so the slot never keeps it
/// alive; once it is gone the slot is dead, and it is never refilled.
#[derive(Debug)]
pub(crate) struct Encoded {
    pub(crate) image: Weak<Vec<u8>>,
    pub(crate) range: Range<usize>,
    pub(crate) phase: u8,
}

impl<T> Shared<T> {
    /// The bytes a live image holds for these elements' whole groups cut at
    /// `phase`, and that image (keep it while the range is read).
    pub(crate) fn encoded_at(&self, phase: u8) -> Option<(Arc<Vec<u8>>, Range<usize>)> {
        let encoded = self.encoded.get().filter(|e| e.phase == phase)?;
        Some((encoded.image.upgrade()?, encoded.range.clone()))
    }

    /// Whether no image has been recorded for these elements yet.
    pub(crate) fn unencoded(&self) -> bool {
        self.encoded.get().is_none()
    }

    /// Record where `encoded.image` holds these elements' groups, unless a
    /// slot is already filled (by another image; it stays as it is).
    pub(crate) fn publish(&self, encoded: Encoded) {
        let _ = self.encoded.set(Box::new(encoded));
    }
}

impl<T: Clone> Payload<T> {
    /// Whether another holder still references the payload, i.e. whether
    /// the next [`Payload::to_mut`] will copy it.
    #[inline]
    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, Payload::Shared(shared) if Arc::strong_count(shared) > 1)
    }

    /// Mutable access: in place when owned; a shared payload is taken back
    /// when no one else holds it and copied otherwise.  Either way the
    /// shared allocation, and its slot, is left behind.
    #[inline]
    pub(crate) fn to_mut(&mut self) -> &mut Vec<T> {
        if let Payload::Shared(shared) = self {
            let elems = match Arc::get_mut(shared) {
                Some(shared) => std::mem::take(&mut shared.elems),
                None => shared.elems.clone(),
            };
            *self = Payload::Owned(elems);
        }
        match self {
            Payload::Owned(elems) => elems,
            Payload::Shared(_) => unreachable!("just made owned"),
        }
    }

    /// A second reference to the payload, sharing it in place first if it
    /// is owned (one `Arc` allocation, with an empty slot).
    pub(crate) fn share(&mut self) -> Self {
        if let Payload::Owned(elems) = self {
            *self = Payload::Shared(Arc::new(Shared {
                elems: std::mem::take(elems),
                encoded: OnceLock::new(),
            }));
        }
        match self {
            Payload::Shared(shared) => Payload::Shared(Arc::clone(shared)),
            Payload::Owned(_) => unreachable!("just shared"),
        }
    }
}

impl<T> std::ops::Deref for Payload<T> {
    type Target = Vec<T>;

    #[inline]
    fn deref(&self) -> &Vec<T> {
        match self {
            Payload::Owned(elems) => elems,
            Payload::Shared(shared) => &shared.elems,
        }
    }
}

/// Payloads compare by content, whoever holds them.
impl<T: PartialEq> PartialEq for Payload<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// The tag every element of a numeric column carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Numeric {
    /// Every element is a [`Word::Int`].
    Int,
    /// Every element is a [`Word::Float`].
    Float,
}

impl Numeric {
    /// The column tag and payload of `word`, if it is an `Int` or a `Float`.
    #[inline]
    pub fn of(word: Word) -> Option<(Numeric, u64)> {
        match word {
            Word::Int(v) => Some((Numeric::Int, v as u64)),
            Word::Float(v) => Some((Numeric::Float, v.to_bits())),
            _ => None,
        }
    }

    /// The word a column of this tag holds as `payload`.  Every `u64` is a
    /// valid `Int` and a valid `Float`, so there is nothing to check.
    #[inline]
    pub(crate) fn word(self, payload: u64) -> Word {
        match self {
            Numeric::Int => Word::Int(payload as i64),
            Numeric::Float => Word::Float(f64::from_bits(payload)),
        }
    }

    /// The tag byte [`Word::to_raw`] gives this tag's words.
    pub fn raw_tag(self) -> u8 {
        match self {
            Numeric::Int => 1,
            Numeric::Float => 2,
        }
    }

    /// The column a decoded `kind` block whose words carry `tags` is kept
    /// as: an `Array` whose tags are one numeric tag throughout.  Every
    /// other block — and an empty array, which has no tag — is tagged.
    pub(crate) fn of_run(kind: BlockKind, tags: &[u8]) -> Option<Numeric> {
        let tag = match (kind, tags.first()?) {
            (BlockKind::Array, 1) => Numeric::Int,
            (BlockKind::Array, 2) => Numeric::Float,
            _ => return None,
        };
        let raw = tag.raw_tag();
        tags.iter().all(|&t| t == raw).then_some(tag)
    }
}

/// A word block's elements, in one of two stored forms.
///
/// An `Array` created numeric — by [`crate::Heap::alloc_array`] with an
/// `Int` or `Float` initialiser, or decoded from an image whose record
/// holds one numeric tag throughout — is a *column* ([`Words::Int`] or
/// [`Words::Float`]): its tag once, in the variant, and its 8-byte
/// payloads.  A store of that tag writes 8 bytes; a store of any other
/// tag converts the block to [`Words::Tagged`] once, and it stays tagged.
/// Every other word block is tagged.  Either form reads back the same
/// [`Word`]s, and compares equal by them; the form is not part of any
/// image.
///
/// The column's tag is a variant rather than a [`Numeric`] field so that
/// the form, the tag and `BlockData`'s own variant share one discriminant
/// byte: a load dispatches on it once.
#[derive(Debug, Clone)]
pub enum Words {
    /// One [`Word`] per element: any mix of tags.
    Tagged(Payload<Word>),
    /// Every element is an `Int`; the payloads are `v as u64`.
    Int(Payload<u64>),
    /// Every element is a `Float`; the payloads are `v.to_bits()`.
    Float(Payload<u64>),
}

/// A word block's elements as a reader walks them: the tagged words, or
/// a column's tag and payloads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WordsView<'a> {
    Tagged(&'a [Word]),
    Column(Numeric, &'a [u64]),
}

impl Words {
    /// The elements' storage, borrowed.
    #[inline]
    pub(crate) fn view(&self) -> WordsView<'_> {
        match self {
            Words::Tagged(w) => WordsView::Tagged(w),
            Words::Int(c) => WordsView::Column(Numeric::Int, c),
            Words::Float(c) => WordsView::Column(Numeric::Float, c),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Words::Tagged(w) => w.len(),
            Words::Int(c) | Words::Float(c) => c.len(),
        }
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`, if in bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Word> {
        match self.view() {
            WordsView::Tagged(w) => w.get(i).copied(),
            WordsView::Column(tag, c) => c.get(i).map(|&p| tag.word(p)),
        }
    }

    /// The elements, in order.
    pub fn iter(&self) -> impl Iterator<Item = Word> + '_ {
        let (tagged, column, tag): (&[Word], &[u64], _) = match self.view() {
            WordsView::Tagged(w) => (w, &[], Numeric::Int),
            WordsView::Column(tag, c) => (&[], c, tag),
        };
        let column = column.iter().map(move |&p| tag.word(p));
        tagged.iter().copied().chain(column)
    }

    /// The elements, copied out.
    pub fn to_vec(&self) -> Vec<Word> {
        self.iter().collect()
    }

    /// The column's tag, if the block is stored as a column.
    pub fn column_tag(&self) -> Option<Numeric> {
        match self.view() {
            WordsView::Column(tag, _) => Some(tag),
            WordsView::Tagged(_) => None,
        }
    }

    /// Write `value` at `i` (in bounds): 8 bytes into a column of its tag,
    /// otherwise a [`Word`] into the tagged form, converting a column to it
    /// first.  Returns whether a column was converted.
    pub(crate) fn set(&mut self, i: usize, value: Word) -> bool {
        match (&mut *self, value) {
            (Words::Int(c), Word::Int(v)) => c.to_mut()[i] = v as u64,
            (Words::Float(c), Word::Float(v)) => c.to_mut()[i] = v.to_bits(),
            _ => {
                let converted = self.column_tag().is_some();
                self.tagged_mut()[i] = value;
                return converted;
            }
        }
        false
    }

    /// Mutable access to the tagged form, converting a column to it first
    /// (one pass that writes the new `Vec` and, for a shared column, is the
    /// only copy).
    pub(crate) fn tagged_mut(&mut self) -> &mut Vec<Word> {
        if let WordsView::Column(tag, c) = self.view() {
            *self = Words::Tagged(Payload::Owned(c.iter().map(|&p| tag.word(p)).collect()));
        }
        match self {
            Words::Tagged(w) => w.to_mut(),
            Words::Int(_) | Words::Float(_) => unreachable!("just converted"),
        }
    }

    fn is_shared(&self) -> bool {
        match self {
            Words::Tagged(w) => w.is_shared(),
            Words::Int(c) | Words::Float(c) => c.is_shared(),
        }
    }

    fn is_owned(&self) -> bool {
        match self {
            Words::Tagged(w) => matches!(w, Payload::Owned(_)),
            Words::Int(c) | Words::Float(c) => matches!(c, Payload::Owned(_)),
        }
    }

    fn share(&mut self) -> Self {
        match self {
            Words::Tagged(w) => Words::Tagged(w.share()),
            Words::Int(c) => Words::Int(c.share()),
            Words::Float(c) => Words::Float(c.share()),
        }
    }
}

/// Words compare by the elements they read back, whatever their form
/// (floats by IEEE equality, as [`Word`] compares them).
impl PartialEq for Words {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Words::Tagged(a), Words::Tagged(b)) => a == b,
            (Words::Int(a), Words::Int(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

/// Block payload: either words or raw bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockData {
    /// Word-addressed payload, tagged or a numeric column.
    Words(Words),
    /// Byte-addressed payload.
    Bytes(Payload<u8>),
}

impl BlockData {
    /// A tagged word payload (takes ownership of the vector, no copy).
    pub fn words(words: Vec<Word>) -> Self {
        BlockData::Words(Words::Tagged(Payload::Owned(words)))
    }

    /// A numeric column: every element carries `tag`, `payloads` hold
    /// their [`Word::to_raw`] payloads (takes ownership, no copy).
    pub(crate) fn column(tag: Numeric, payloads: Vec<u64>) -> Self {
        let payloads = Payload::Owned(payloads);
        BlockData::Words(match tag {
            Numeric::Int => Words::Int(payloads),
            Numeric::Float => Words::Float(payloads),
        })
    }

    /// A byte payload (takes ownership of the vector, no copy).
    pub fn bytes(bytes: Vec<u8>) -> Self {
        BlockData::Bytes(Payload::Owned(bytes))
    }

    /// Whether the payload is currently shared with a clone or a live
    /// snapshot — i.e. whether the next mutation will copy it.
    #[inline]
    pub fn is_shared(&self) -> bool {
        match self {
            BlockData::Words(w) => w.is_shared(),
            BlockData::Bytes(b) => b.is_shared(),
        }
    }

    /// Whether the payload is held by its block alone and was not shared
    /// since it was last written.
    pub fn is_owned(&self) -> bool {
        match self {
            BlockData::Words(w) => w.is_owned(),
            BlockData::Bytes(b) => matches!(b, Payload::Owned(_)),
        }
    }

    /// Mutable access to a byte payload, un-sharing it first if a clone or
    /// snapshot still references it.
    ///
    /// # Panics
    /// Panics if the payload is word-addressed; callers validate the block
    /// kind before mutating.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        match self {
            BlockData::Bytes(b) => b.to_mut(),
            BlockData::Words(_) => unreachable!("validated as a raw block"),
        }
    }

    /// A second reference to the payload, sharing it in place first.
    fn share(&mut self) -> Self {
        match self {
            BlockData::Words(w) => BlockData::Words(w.share()),
            BlockData::Bytes(b) => BlockData::Bytes(b.share()),
        }
    }

    /// Number of addressable elements (words or bytes).
    pub fn len(&self) -> usize {
        match self {
            BlockData::Words(w) => w.len(),
            BlockData::Bytes(b) => b.len(),
        }
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes (words are 8 bytes in the canonical format,
    /// in either stored form).
    pub fn byte_size(&self) -> usize {
        match self {
            BlockData::Words(w) => w.len() * 8,
            BlockData::Bytes(b) => b.len(),
        }
    }
}

/// The header every block carries (paper §4.1: "each block has a header").
///
/// The `index` back-reference is what makes compaction cheap: when a block
/// moves, the collector reads the header to find which pointer-table entry
/// must be repointed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Pointer-table entry that *normally* refers to this block.  Under
    /// speculation the entry may temporarily point at a copy-on-write clone
    /// while this block is preserved by a checkpoint record.
    pub index: PtrIdx,
    /// What the block holds.
    pub kind: BlockKind,
    /// GC generation.
    pub generation: Generation,
    /// Mark bit used by the collector.
    pub marked: bool,
    /// Speculation epoch at which this block was installed or cloned
    /// (never serialised).  A store clones a block iff a level is open and
    /// the stamp is older than that level's entry epoch — see
    /// "Epochs, not sets" in `docs/ARCHITECTURE.md`.
    pub stamp: u64,
    /// Clean epoch at which this block was last appended to the heap's
    /// dirty list (never serialised); any other value means "not listed
    /// since the last [`crate::Heap::mark_clean`]".
    pub dirty_epoch: u64,
}

impl BlockHeader {
    /// A header for a block nothing has stamped or listed yet.
    pub fn new(index: PtrIdx, kind: BlockKind, generation: Generation) -> Self {
        BlockHeader {
            index,
            kind,
            generation,
            marked: false,
            stamp: 0,
            dirty_epoch: 0,
        }
    }
}

/// A heap block: header plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// The payload.
    pub data: BlockData,
}

impl Block {
    /// Create a word block.
    pub fn words(index: PtrIdx, kind: BlockKind, words: Vec<Word>) -> Self {
        debug_assert!(kind.is_words());
        Block {
            header: BlockHeader::new(index, kind, Generation::Young),
            data: BlockData::words(words),
        }
    }

    /// Create a raw byte block.
    pub fn bytes(index: PtrIdx, kind: BlockKind, bytes: Vec<u8>) -> Self {
        debug_assert!(!kind.is_words());
        Block {
            header: BlockHeader::new(index, kind, Generation::Young),
            data: BlockData::bytes(bytes),
        }
    }

    /// A copy of the block that shares its payload (see [`Payload`]): what
    /// a freeze records and what a copy-on-write clone starts from.
    pub(crate) fn share(&mut self) -> Block {
        Block {
            header: self.header,
            data: self.data.share(),
        }
    }

    /// Number of addressable elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the block has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total footprint in bytes including the per-block header overhead the
    /// paper reports (>12 bytes per block including its table entry).
    pub fn byte_size(&self) -> usize {
        crate::heap::HEADER_OVERHEAD_BYTES + self.data.byte_size()
    }

    /// The words of the payload, if word-addressed.
    pub fn as_words(&self) -> Option<&Words> {
        match &self.data {
            BlockData::Words(w) => Some(w),
            BlockData::Bytes(_) => None,
        }
    }

    /// The bytes of the payload, if byte-addressed.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match &self.data {
            BlockData::Bytes(b) => Some(b),
            BlockData::Words(_) => None,
        }
    }

    /// Iterate the pointer-table indices referenced from this block (the
    /// collector's trace function).  A numeric column holds no pointer and
    /// is never read.
    pub fn referenced_ptrs(&self) -> impl Iterator<Item = PtrIdx> + '_ {
        let words: &[Word] = match &self.data {
            BlockData::Words(Words::Tagged(w)) => w,
            BlockData::Words(Words::Int(_) | Words::Float(_)) | BlockData::Bytes(_) => &[],
        };
        words.iter().filter_map(|w| w.as_ptr())
    }
}

impl WireCodec for BlockKind {
    fn encode(&self, w: &mut WireWriter) {
        let idx = BlockKind::ALL
            .iter()
            .position(|k| k == self)
            .expect("known block kind");
        w.write_u8(idx as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let idx = r.read_u8()? as usize;
        BlockKind::ALL.get(idx).copied().ok_or(WireError::BadTag {
            context: "BlockKind",
            tag: idx as u64,
        })
    }
}

impl Block {
    /// Decode a block of a batched v4 image: index, kind, then the payload
    /// as contiguous slabs — a tag slab (one byte per word) plus a payload
    /// slab (8 little-endian bytes per word) for word blocks, or the raw
    /// byte slab for byte blocks.  Only read: new images are v5.
    pub(crate) fn decode_batched(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let index = PtrIdx(r.read_uvarint_u32("v4 block index")?);
        let kind = BlockKind::decode(r)?;
        let data = if kind.is_words() {
            let tags = r.read_bytes()?;
            let mut payloads = Vec::new();
            let n = r.read_words_into(&mut payloads)?;
            if n != tags.len() {
                return Err(WireError::Invalid(format!(
                    "word block {index}: {} tags but {n} payloads",
                    tags.len()
                )));
            }
            match Numeric::of_run(kind, tags) {
                Some(tag) => BlockData::column(tag, payloads),
                None => {
                    let mut words = Vec::with_capacity(n);
                    crate::word::extend_from_raw(&mut words, tags, &payloads)?;
                    BlockData::words(words)
                }
            }
        } else {
            BlockData::bytes(r.read_bytes()?.to_vec())
        };
        Ok(Block {
            header: BlockHeader::new(index, kind, Generation::Old),
            data,
        })
    }

    /// Decode a block of a v1 image: index, kind, then a representation
    /// byte and the payload — per-word [`Word`] encodings or a byte
    /// string.  Only read: new images are v5.
    pub(crate) fn decode_v1(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let index = PtrIdx(r.read_uvarint_u32("v1 block index")?);
        let kind = BlockKind::decode(r)?;
        let data = match r.read_u8()? {
            0 => {
                let words = Vec::<Word>::decode(r)?;
                let (tags, payloads): (Vec<u8>, Vec<u64>) =
                    words.iter().map(|word| word.to_raw()).unzip();
                match Numeric::of_run(kind, &tags) {
                    Some(tag) => BlockData::column(tag, payloads),
                    None => BlockData::words(words),
                }
            }
            1 => BlockData::bytes(r.read_bytes()?.to_vec()),
            tag => {
                return Err(WireError::BadTag {
                    context: "BlockData",
                    tag: tag as u64,
                })
            }
        };
        if kind.is_words() != matches!(data, BlockData::Words(_)) {
            return Err(WireError::Invalid(format!(
                "block kind {kind:?} does not match its payload representation"
            )));
        }
        Ok(Block {
            header: BlockHeader::new(index, kind, Generation::Old),
            data,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Write `block` as a v1 image writer did: index, kind, then a
    /// representation byte and the per-word (or byte-string) payload.
    /// Only decoders read v1, so only tests write it.
    pub(crate) fn encode_v1(block: &Block, w: &mut WireWriter) {
        w.write_uvarint(block.header.index.0 as u64);
        block.header.kind.encode(w);
        match &block.data {
            BlockData::Words(words) => {
                w.write_u8(0);
                words.to_vec().encode(w);
            }
            BlockData::Bytes(bytes) => {
                w.write_u8(1);
                w.write_bytes(bytes);
            }
        }
    }

    /// Write `block` as a batched v4 image writer did: index, kind, then
    /// the tag and payload slabs of a word block or the bytes of a byte
    /// block.  Only decoders read v4, so only tests write it.
    pub(crate) fn encode_v4(block: &Block, w: &mut WireWriter) {
        w.write_uvarint(block.header.index.0 as u64);
        block.header.kind.encode(w);
        match &block.data {
            BlockData::Words(words) => {
                let (tags, payloads): (Vec<u8>, Vec<u64>) =
                    words.iter().map(|word| word.to_raw()).unzip();
                w.write_bytes(&tags);
                w.write_words(&payloads);
            }
            BlockData::Bytes(bytes) => w.write_bytes(bytes),
        }
    }

    fn decode_v1(bytes: &[u8]) -> Result<Block, WireError> {
        let mut r = WireReader::new(bytes);
        let block = Block::decode_v1(&mut r)?;
        assert!(r.is_empty());
        Ok(block)
    }

    fn v1_bytes(block: &Block) -> Vec<u8> {
        let mut w = WireWriter::new();
        encode_v1(block, &mut w);
        w.into_bytes()
    }

    #[test]
    fn byte_size_includes_header_overhead() {
        let b = Block::words(PtrIdx(0), BlockKind::Array, vec![Word::Int(0); 10]);
        assert_eq!(b.byte_size(), crate::heap::HEADER_OVERHEAD_BYTES + 80);
        let r = Block::bytes(PtrIdx(1), BlockKind::Raw, vec![0u8; 10]);
        assert_eq!(r.byte_size(), crate::heap::HEADER_OVERHEAD_BYTES + 10);
    }

    #[test]
    fn referenced_ptrs_only_from_word_blocks() {
        let b = Block::words(
            PtrIdx(0),
            BlockKind::Tuple,
            vec![Word::Int(1), Word::Ptr(PtrIdx(7)), Word::Ptr(PtrIdx(9))],
        );
        let refs: Vec<_> = b.referenced_ptrs().collect();
        assert_eq!(refs, vec![PtrIdx(7), PtrIdx(9)]);

        let raw = Block::bytes(PtrIdx(1), BlockKind::Raw, vec![7, 7, 7]);
        assert_eq!(raw.referenced_ptrs().count(), 0);
    }

    #[test]
    fn wire_roundtrip_word_block() {
        let b = Block::words(
            PtrIdx(3),
            BlockKind::Closure,
            vec![Word::Fun(2), Word::Int(10), Word::Ptr(PtrIdx(1))],
        );
        let back = decode_v1(&v1_bytes(&b)).unwrap();
        assert_eq!(back.header.index, PtrIdx(3));
        assert_eq!(back.header.kind, BlockKind::Closure);
        assert_eq!(back.data, b.data);
    }

    #[test]
    fn wire_roundtrip_raw_block() {
        let b = Block::bytes(PtrIdx(8), BlockKind::Str, "hello".as_bytes().to_vec());
        let back = decode_v1(&v1_bytes(&b)).unwrap();
        assert_eq!(back.as_bytes().unwrap(), b"hello");
    }

    #[test]
    fn batched_roundtrip_matches_per_word_semantics() {
        let blocks = [
            Block::words(
                PtrIdx(3),
                BlockKind::Closure,
                vec![
                    Word::Fun(2),
                    Word::Int(-10),
                    Word::Ptr(PtrIdx(1)),
                    Word::Float(0.5),
                    Word::Char('ü'),
                    Word::Bool(true),
                    Word::Unit,
                ],
            ),
            Block::bytes(PtrIdx(8), BlockKind::Raw, (0..=255).collect()),
            Block::words(PtrIdx(0), BlockKind::Array, vec![]),
        ];
        for block in blocks {
            let mut w = WireWriter::new();
            encode_v4(&block, &mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = Block::decode_batched(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(back.header.index, block.header.index);
            assert_eq!(back.header.kind, block.header.kind);
            assert_eq!(back.data, block.data);
        }
    }

    #[test]
    fn batched_decode_rejects_tag_payload_length_mismatch() {
        // Hand-craft a word block whose tag slab and payload slab disagree.
        let mut w = WireWriter::new();
        w.write_uvarint(0);
        BlockKind::Array.encode(&mut w);
        w.write_bytes(&[1, 1, 1]); // three tags
        w.write_words(&[5, 6]); // two payloads
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Block::decode_batched(&mut r).unwrap_err(),
            WireError::Invalid(_)
        ));
    }

    #[test]
    fn mismatched_kind_payload_rejected() {
        // Encode a Raw kind with a Words payload by hand.
        let mut w = WireWriter::new();
        w.write_uvarint(0);
        BlockKind::Raw.encode(&mut w);
        w.write_u8(0); // words payload tag
        Vec::<Word>::new().encode(&mut w);
        let err = decode_v1(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)));
    }
}
