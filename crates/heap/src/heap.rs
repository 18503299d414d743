//! The heap proper: allocation, checked access, copy-on-write speculation,
//! dirty tracking and the freeze.  Garbage collection is in [`crate::gc`],
//! the image format in [`crate::image`].

use crate::block::{Block, BlockData, BlockHeader, BlockKind, Generation, Numeric, Payload, Words};
use crate::cow::SpecLevelRecord;
use crate::error::HeapError;
use crate::pointer_table::{PointerTable, PtrIdx};
use crate::stats::HeapStats;
use crate::word::Word;
use std::collections::HashMap;

/// Per-block bookkeeping overhead in bytes: the header (index, kind,
/// generation, mark) plus the pointer-table entry.  The paper reports "in
/// excess of 12 bytes per block, including the pointer table" for the IA32
/// runtime; the canonical format uses 16.
pub const HEADER_OVERHEAD_BYTES: usize = 16;

/// Tunable heap parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Young-generation size that triggers a minor collection.
    pub minor_threshold_bytes: usize,
    /// Live-heap size that triggers a major collection.
    pub major_threshold_bytes: usize,
    /// Largest allowed single allocation, in elements or bytes.
    pub max_alloc: usize,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            minor_threshold_bytes: 256 * 1024,
            major_threshold_bytes: 8 * 1024 * 1024,
            max_alloc: 1 << 28,
        }
    }
}

/// The Mojave runtime heap.
///
/// See the crate-level documentation for the overall design.  All access is
/// checked; none of the operations panic on malformed input from the program
/// under execution (they return [`HeapError`], which the backend turns into
/// a trap).
#[derive(Debug, Clone, Default)]
pub struct Heap {
    /// Block store.  A `None` is a free slot awaiting reuse or compaction.
    pub(crate) blocks: Vec<Option<Block>>,
    /// Free slots available for reuse.
    pub(crate) free_slots: Vec<usize>,
    /// The pointer table.
    pub(crate) table: PointerTable,
    /// Open speculation levels, oldest first (level 1 is index 0).
    pub(crate) spec_levels: Vec<SpecLevelRecord>,
    /// Configuration.
    pub(crate) config: HeapConfig,
    /// Statistics.
    pub(crate) stats: HeapStats,
    /// Bytes held by live blocks (approximate; maintained incrementally).
    pub(crate) live_bytes: usize,
    /// Bytes allocated into the young generation since the last collection.
    pub(crate) young_bytes: usize,
    /// Speculation epoch: bumped by every [`Heap::spec_enter`], recorded as
    /// the level's `enter_epoch` and stamped into every block installed or
    /// cloned.  `u64`: at tens of thousands of speculations per second a
    /// `u32` would wrap within days.
    pub(crate) spec_epoch: u64,
    /// Clean epoch: bumped by every [`Heap::mark_clean`]; 0 until the first
    /// one, which is what "dirty tracking is not armed" means.  A block is
    /// on the dirty list iff its `dirty_epoch` equals this — an epoch, not a
    /// bit, because a clean point can be declared inside an open level and
    /// the originals a rollback later restores must then read as unlisted.
    pub(crate) clean_epoch: u64,
    /// Pointer indices whose block content may have diverged from the last
    /// clean point, appended on a block's first mutation since then and on
    /// every allocation.  May hold repeats and freed indices; the sorted
    /// set of *live* entries is materialised where an image or a count
    /// needs it ([`Heap::sorted_dirty`]).  Rollbacks keep entries even when
    /// they restore the original content — a conservative
    /// over-approximation, which keeps delta images correct.
    pub(crate) dirty: Vec<PtrIdx>,
    /// Pointer indices freed since the last clean point, in free order; the
    /// entries that are *not live now* are the pointer-table fixups a delta
    /// image must ship ([`Heap::sorted_freed`]).
    pub(crate) freed_since_clean: Vec<PtrIdx>,
    /// The collector's slot worklist, kept between collections so a
    /// collection allocates nothing once it has grown: the slots left to
    /// mark, then the dead slots to free, then compaction's old-to-new slot
    /// map.  Empty outside a collection.
    pub(crate) gc_work: Vec<usize>,
    /// Flight recorder for GC, freeze and speculation events.  Disabled
    /// by default (one-branch cost); cloned shares between heap, process
    /// and pipeline.
    pub(crate) recorder: mojave_obs::Recorder,
}

impl Heap {
    /// Create a heap with the default configuration.
    pub fn new() -> Self {
        Heap::with_config(HeapConfig::default())
    }

    /// Create a heap with an explicit configuration.
    pub fn with_config(config: HeapConfig) -> Self {
        Heap {
            config,
            ..Heap::default()
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Attach a flight recorder: GC, freeze and speculation events flow
    /// into it.  The default recorder is disabled and costs one branch.
    pub fn set_recorder(&mut self, recorder: mojave_obs::Recorder) {
        self.recorder = recorder;
    }

    /// The attached flight recorder (disabled unless
    /// [`Heap::set_recorder`] was called).
    pub fn recorder(&self) -> &mojave_obs::Recorder {
        &self.recorder
    }

    /// The heap configuration.
    pub fn config(&self) -> HeapConfig {
        self.config
    }

    /// Number of live blocks.
    pub fn live_blocks(&self) -> usize {
        self.table.live()
    }

    /// Approximate bytes held by live blocks (payload + per-block overhead).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Bytes allocated into the young generation since the last collection.
    pub fn young_bytes(&self) -> usize {
        self.young_bytes
    }

    /// Number of currently open speculation levels.
    pub fn spec_depth(&self) -> usize {
        self.spec_levels.len()
    }

    /// The open speculation records (oldest first), for diagnostics.
    pub fn spec_records(&self) -> &[SpecLevelRecord] {
        &self.spec_levels
    }

    /// Read-only access to the pointer table.
    pub fn pointer_table(&self) -> &PointerTable {
        &self.table
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    fn check_size(&self, n: i64) -> Result<usize, HeapError> {
        if n < 0 {
            return Err(HeapError::NegativeSize(n));
        }
        let n = n as usize;
        if n > self.config.max_alloc {
            return Err(HeapError::AllocTooLarge {
                requested: n as i64,
                limit: self.config.max_alloc,
            });
        }
        Ok(n)
    }

    pub(crate) fn take_slot(&mut self) -> usize {
        if let Some(slot) = self.free_slots.pop() {
            slot
        } else {
            self.blocks.push(None);
            self.blocks.len() - 1
        }
    }

    fn install_block(&mut self, kind: BlockKind, data: BlockData) -> PtrIdx {
        let slot = self.take_slot();
        let idx = self.table.allocate(slot);
        let block = Block {
            header: BlockHeader {
                stamp: self.spec_epoch,
                dirty_epoch: self.clean_epoch,
                ..BlockHeader::new(idx, kind, Generation::Young)
            },
            data,
        };
        let size = block.byte_size();
        self.blocks[slot] = Some(block);
        self.live_bytes += size;
        self.young_bytes += size;
        self.stats.blocks_allocated += 1;
        self.stats.bytes_allocated += size as u64;
        if self.dirty_tracking_armed() {
            self.dirty.push(idx);
        }
        if let Some(top) = self.spec_levels.last_mut() {
            top.note_allocation(idx);
        }
        idx
    }

    /// Allocate an array of `len` words, each initialised to `init`: a
    /// numeric column ([`Words::Int`], [`Words::Float`]) when `init` is an
    /// `Int` or a `Float`, tagged otherwise.
    pub fn alloc_array(&mut self, len: i64, init: Word) -> Result<PtrIdx, HeapError> {
        let len = self.check_size(len)?;
        let data = match Numeric::of(init) {
            Some((tag, payload)) => BlockData::column(tag, vec![payload; len]),
            None => BlockData::words(vec![init; len]),
        };
        Ok(self.install_block(BlockKind::Array, data))
    }

    /// Allocate a tuple holding the given words.
    pub fn alloc_tuple(&mut self, words: Vec<Word>) -> Result<PtrIdx, HeapError> {
        self.check_size(words.len() as i64)?;
        Ok(self.install_block(BlockKind::Tuple, BlockData::words(words)))
    }

    /// Allocate a closure block: element 0 is the function index, the rest
    /// are the captured environment.
    pub fn alloc_closure(&mut self, fun: u32, captured: Vec<Word>) -> Result<PtrIdx, HeapError> {
        let mut words = Vec::with_capacity(captured.len() + 1);
        words.push(Word::Fun(fun));
        words.extend(captured);
        Ok(self.install_block(BlockKind::Closure, BlockData::words(words)))
    }

    /// Allocate the migrate environment block (paper §4.2.2).
    pub fn alloc_migrate_env(&mut self, words: Vec<Word>) -> Result<PtrIdx, HeapError> {
        Ok(self.install_block(BlockKind::MigrateEnv, BlockData::words(words)))
    }

    /// Allocate a zero-filled raw block of `size` bytes.
    pub fn alloc_raw(&mut self, size: i64) -> Result<PtrIdx, HeapError> {
        let size = self.check_size(size)?;
        Ok(self.install_block(BlockKind::Raw, BlockData::bytes(vec![0; size])))
    }

    /// Allocate an immutable string block.
    pub fn alloc_str(&mut self, s: &str) -> Result<PtrIdx, HeapError> {
        self.check_size(s.len() as i64)?;
        Ok(self.install_block(BlockKind::Str, BlockData::bytes(s.as_bytes().to_vec())))
    }

    // ------------------------------------------------------------------
    // Checked access
    // ------------------------------------------------------------------

    fn slot_of(&self, ptr: PtrIdx) -> Result<usize, HeapError> {
        self.table.lookup(ptr).ok_or(HeapError::InvalidPointer(ptr))
    }

    /// Borrow a block.
    pub fn block(&self, ptr: PtrIdx) -> Result<&Block, HeapError> {
        let slot = self.slot_of(ptr)?;
        self.blocks[slot]
            .as_ref()
            .ok_or(HeapError::InvalidPointer(ptr))
    }

    /// The kind of the block `ptr` refers to.
    pub fn block_kind(&self, ptr: PtrIdx) -> Result<BlockKind, HeapError> {
        Ok(self.block(ptr)?.header.kind)
    }

    /// Number of addressable elements (words or bytes) of the block.
    pub fn block_len(&self, ptr: PtrIdx) -> Result<usize, HeapError> {
        Ok(self.block(ptr)?.len())
    }

    /// Read a word from a word-addressed block.
    #[inline]
    pub fn load(&self, ptr: PtrIdx, index: i64) -> Result<Word, HeapError> {
        let mut word = Word::Unit;
        self.load_into(ptr, index, &mut word)?;
        Ok(word)
    }

    /// [`Heap::load`] into `dst`, for a caller that keeps its words in
    /// memory (the VM's register file).
    ///
    /// One pointer resolution, checked on that one borrow; every failure
    /// leaves through `word_access_error`, out of line.  Each stored form
    /// writes `dst` on its own path — a tagged word as one 16-byte copy, a
    /// column's payload under its tag — so no path assembles a [`Word`]
    /// from the others' pieces on the stack before the write.
    #[inline]
    pub fn load_into(&self, ptr: PtrIdx, index: i64, dst: &mut Word) -> Result<(), HeapError> {
        let block = self
            .table
            .lookup(ptr)
            .and_then(|slot| self.blocks.get(slot)?.as_ref());
        if let (Some(BlockData::Words(words)), Ok(i)) =
            (block.map(|b| &b.data), usize::try_from(index))
        {
            match words {
                Words::Tagged(w) => {
                    if let Some(word) = w.get(i) {
                        *dst = *word;
                        return Ok(());
                    }
                }
                Words::Int(c) => {
                    if let Some(&payload) = c.get(i) {
                        *dst = Word::Int(payload as i64);
                        return Ok(());
                    }
                }
                Words::Float(c) => {
                    if let Some(&payload) = c.get(i) {
                        *dst = Word::Float(f64::from_bits(payload));
                        return Ok(());
                    }
                }
            }
        }
        Err(self.word_access_error(ptr, index, false))
    }

    /// Write a word into a word-addressed block, performing copy-on-write if
    /// a speculation is open.  A store tells the collector nothing: a minor
    /// collection traces from every old block ([`Heap::gc_minor`]).
    ///
    /// The common store — an owned payload the open level (if any) already
    /// owns, and for a numeric column a value of its tag (8 bytes after
    /// one tag compare) — resolves its block once and writes in place;
    /// everything else (a copy-on-write clone, a shared payload, a column
    /// conversion, an error) goes out of line.
    #[inline]
    pub fn store(&mut self, ptr: PtrIdx, index: i64, value: Word) -> Result<(), HeapError> {
        let enter_epoch = self.spec_levels.last().map_or(0, |top| top.enter_epoch);
        let block = self
            .table
            .lookup(ptr)
            .and_then(|slot| self.blocks.get_mut(slot)?.as_mut());
        if let Some(Block {
            header,
            data: BlockData::Words(words),
        }) = block
        {
            let i = usize::try_from(index)
                .ok()
                .filter(|_| header.stamp >= enter_epoch);
            let column = match (&mut *words, value) {
                (Words::Int(Payload::Owned(c)), Word::Int(v)) => Some((c, v as u64)),
                (Words::Float(Payload::Owned(c)), Word::Float(v)) => Some((c, v.to_bits())),
                _ => None,
            };
            if let Some((column, payload)) = column {
                if let Some(at) = i.and_then(|i| column.get_mut(i)) {
                    *at = payload;
                    list_dirty(&mut self.dirty, self.clean_epoch, header);
                    return Ok(());
                }
            } else if let Words::Tagged(Payload::Owned(words)) = words {
                if let Some(word) = i.and_then(|i| words.get_mut(i)) {
                    *word = value;
                    list_dirty(&mut self.dirty, self.clean_epoch, header);
                    return Ok(());
                }
            }
        }
        self.store_shared(ptr, index, value)
    }

    /// [`Heap::store`] into a block that needs a copy-on-write clone, a
    /// shared payload, a column conversion, or an error.
    #[inline(never)]
    fn store_shared(&mut self, ptr: PtrIdx, index: i64, value: Word) -> Result<(), HeapError> {
        // Validate before mutating anything.  A `Str` block holds bytes, so
        // "word-addressed" covers "mutable"; a negative index is a huge `u64`.
        let slot = self.table.lookup(ptr).filter(|slot| {
            matches!(self.blocks.get(*slot), Some(Some(Block { data: BlockData::Words(w), .. }))
                if (index as u64) < w.len() as u64)
        });
        let Some(slot) = slot else {
            return Err(self.word_access_error(ptr, index, true));
        };
        let BlockData::Words(words) = &mut self.writable_block(ptr, slot).data else {
            unreachable!("validated as a word block")
        };
        let converted = words.set(index as usize, value);
        self.stats.column_conversions += u64::from(converted);
        Ok(())
    }

    /// The error for a word access that [`Heap::load`] (`store` false) or
    /// [`Heap::store`] refused, derived out of line in the order callers
    /// rely on: pointer, immutability, kind, bounds.
    #[cold]
    #[inline(never)]
    fn word_access_error(&self, ptr: PtrIdx, index: i64, store: bool) -> HeapError {
        let block = match self.block(ptr) {
            Ok(block) => block,
            Err(e) => return e,
        };
        if store && block.header.kind == BlockKind::Str {
            return HeapError::ImmutableBlock(ptr);
        }
        match block.as_words() {
            None => HeapError::KindMismatch {
                ptr,
                kind: block.header.kind,
                access: if store { "word store" } else { "word load" },
            },
            Some(words) => HeapError::OutOfBounds {
                ptr,
                index,
                len: words.len(),
            },
        }
    }

    fn check_raw_access(
        &self,
        ptr: PtrIdx,
        offset: i64,
        width: u8,
        write: bool,
    ) -> Result<usize, HeapError> {
        if !matches!(width, 1 | 4 | 8) {
            return Err(HeapError::BadWidth(width));
        }
        let block = self.block(ptr)?;
        if write && block.header.kind == BlockKind::Str {
            return Err(HeapError::ImmutableBlock(ptr));
        }
        let bytes = block.as_bytes().ok_or(HeapError::KindMismatch {
            ptr,
            kind: block.header.kind,
            access: "raw access",
        })?;
        let len = bytes.len();
        if offset < 0 || offset as usize + width as usize > len {
            return Err(HeapError::OutOfBounds {
                ptr,
                index: offset,
                len,
            });
        }
        Ok(offset as usize)
    }

    /// Read `width` bytes (1, 4 or 8) little-endian from a raw block,
    /// zero-extended.
    pub fn load_raw(&self, ptr: PtrIdx, offset: i64, width: u8) -> Result<i64, HeapError> {
        let off = self.check_raw_access(ptr, offset, width, false)?;
        let bytes = self.block(ptr)?.as_bytes().expect("validated raw block");
        let mut buf = [0u8; 8];
        buf[..width as usize].copy_from_slice(&bytes[off..off + width as usize]);
        Ok(i64::from_le_bytes(buf))
    }

    /// Write the low `width` bytes of `value` little-endian into a raw block.
    pub fn store_raw(
        &mut self,
        ptr: PtrIdx,
        offset: i64,
        width: u8,
        value: i64,
    ) -> Result<(), HeapError> {
        let off = self.check_raw_access(ptr, offset, width, true)?;
        let slot = self.slot_of(ptr)?;
        let bytes = self.writable_block(ptr, slot).data.bytes_mut();
        let le = value.to_le_bytes();
        bytes[off..off + width as usize].copy_from_slice(&le[..width as usize]);
        Ok(())
    }

    /// Copy `len` bytes between raw blocks (used by the object-store
    /// externals of the Transfer example).
    pub fn copy_raw(&mut self, src: PtrIdx, dst: PtrIdx, len: usize) -> Result<(), HeapError> {
        let data: Vec<u8> = {
            let block = self.block(src)?;
            let bytes = block.as_bytes().ok_or(HeapError::KindMismatch {
                ptr: src,
                kind: block.header.kind,
                access: "raw copy source",
            })?;
            if bytes.len() < len {
                return Err(HeapError::OutOfBounds {
                    ptr: src,
                    index: len as i64,
                    len: bytes.len(),
                });
            }
            bytes[..len].to_vec()
        };
        {
            let block = self.block(dst)?;
            let bytes = block.as_bytes().ok_or(HeapError::KindMismatch {
                ptr: dst,
                kind: block.header.kind,
                access: "raw copy destination",
            })?;
            if bytes.len() < len {
                return Err(HeapError::OutOfBounds {
                    ptr: dst,
                    index: len as i64,
                    len: bytes.len(),
                });
            }
        }
        let slot = self.slot_of(dst)?;
        self.writable_block(dst, slot).data.bytes_mut()[..len].copy_from_slice(&data);
        Ok(())
    }

    /// Read a string block's contents.
    pub fn str_value(&self, ptr: PtrIdx) -> Result<String, HeapError> {
        let block = self.block(ptr)?;
        match (block.header.kind, block.as_bytes()) {
            (BlockKind::Str, Some(bytes)) => Ok(String::from_utf8_lossy(bytes).into_owned()),
            _ => Err(HeapError::KindMismatch {
                ptr,
                kind: block.header.kind,
                access: "string read",
            }),
        }
    }

    // ------------------------------------------------------------------
    // Speculation: copy-on-write, commit and rollback (paper §4.3)
    // ------------------------------------------------------------------

    /// The block a validated write through `ptr` (now at `slot`) may
    /// mutate: a fresh copy-on-write clone if a level is open and the block
    /// predates it, the block itself otherwise.
    ///
    /// A block needs a clone iff `stamp < top.enter_epoch` — the same
    /// blocks the top level's record neither preserves nor allocated, under
    /// every commit order (see "Epochs, not sets" in
    /// `docs/ARCHITECTURE.md`).  Also lists the block dirty on its first
    /// mutation since the clean point and accounts the deferred payload
    /// copy the caller's write is about to pay because the payload is
    /// shared with a clone or a live [`crate::HeapSnapshot`].
    #[inline]
    fn writable_block(&mut self, ptr: PtrIdx, slot: usize) -> &mut Block {
        let enter_epoch = self.spec_levels.last().map_or(0, |top| top.enter_epoch);
        let slot = match &self.blocks[slot] {
            Some(block) if block.header.stamp < enter_epoch => self.cow_clone(ptr, slot),
            _ => slot,
        };
        let block = self.blocks[slot]
            .as_mut()
            .expect("slot referenced by pointer table holds a block");
        list_dirty(&mut self.dirty, self.clean_epoch, &mut block.header);
        if block.data.is_shared() {
            self.stats.shared_payload_copies += 1;
            self.stats.shared_payload_bytes += block.data.byte_size() as u64;
        }
        block
    }

    /// Clone-before-write (paper §4.3).  The *original* block stays at
    /// `orig_slot` and is recorded in the top level's checkpoint record; the
    /// clone, stamped with the current epoch, becomes the block the pointer
    /// table refers to, so subsequent reads and writes see the new copy.
    /// Returns the clone's slot.
    #[cold]
    #[inline(never)]
    fn cow_clone(&mut self, ptr: PtrIdx, orig_slot: usize) -> usize {
        let mut clone = self.blocks[orig_slot]
            .as_mut()
            .expect("slot referenced by pointer table holds a block")
            .share();
        clone.header.stamp = self.spec_epoch;
        let size = clone.byte_size();
        // The clone keeps the original's generation: a clone of an old
        // block is old, and no minor collection could free it.
        if clone.header.generation == Generation::Young {
            self.young_bytes += size;
        }
        let clone_slot = self.take_slot();
        self.blocks[clone_slot] = Some(clone);
        self.table.relocate(ptr, clone_slot);
        self.live_bytes += size;
        self.stats.cow_clones += 1;
        self.stats.cow_bytes += size as u64;
        self.spec_levels
            .last_mut()
            .expect("speculation level present")
            .saved
            .insert(ptr, orig_slot);
        clone_slot
    }

    /// Enter a new speculation level; returns its 1-based level number.
    pub fn spec_enter(&mut self) -> usize {
        self.spec_epoch += 1;
        self.spec_levels.push(SpecLevelRecord {
            enter_epoch: self.spec_epoch,
            ..SpecLevelRecord::default()
        });
        self.stats.speculations_entered += 1;
        self.recorder.record(
            mojave_obs::EventKind::SpecEnter,
            self.spec_levels.len() as u64,
            0,
        );
        self.spec_levels.len()
    }

    fn check_level(&self, level: usize) -> Result<(), HeapError> {
        if level == 0 || level > self.spec_levels.len() {
            Err(HeapError::NoSuchSpeculation {
                level,
                open: self.spec_levels.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Commit speculation level `level` (1-based), folding its changes into
    /// the enclosing level, or making them permanent if it is the oldest
    /// level.  Commits may happen out of order (paper §2).
    pub fn spec_commit(&mut self, level: usize) -> Result<(), HeapError> {
        self.check_level(level)?;
        let record = self.spec_levels.remove(level - 1);
        if level == 1 {
            // Changes become permanent: the preserved originals are no longer
            // needed for any rollback.
            for (_, slot) in record.saved {
                self.discard_slot(slot);
            }
        } else {
            let parent = &mut self.spec_levels[level - 2];
            let discard = parent.absorb(record);
            for slot in discard {
                self.discard_slot(slot);
            }
        }
        self.stats.speculations_committed += 1;
        self.recorder
            .record(mojave_obs::EventKind::SpecCommit, level as u64, 0);
        Ok(())
    }

    /// Roll back to speculation level `level` (1-based): abort that level and
    /// every younger level, restoring the heap to its state at the moment
    /// `level` was entered.
    pub fn spec_rollback(&mut self, level: usize) -> Result<(), HeapError> {
        self.check_level(level)?;
        // Process newest levels first so that the oldest preserved copy of a
        // block is the one left standing.
        while self.spec_levels.len() >= level {
            let record = self.spec_levels.pop().expect("level count checked");
            for (ptr, orig_slot) in &record.saved {
                if let Some(cur_slot) = self.table.lookup(*ptr) {
                    if cur_slot != *orig_slot {
                        self.discard_slot(cur_slot);
                    }
                    self.table.relocate(*ptr, *orig_slot);
                    // The restore changes the block's visible content, so it
                    // diverges from any clean point declared while the level
                    // was open (the original's own `dirty_epoch` predates
                    // that clean point, so it is listed again).
                    if let Some(original) = self.blocks[*orig_slot].as_mut() {
                        list_dirty(&mut self.dirty, self.clean_epoch, &mut original.header);
                    }
                }
            }
            // Blocks allocated inside the aborted level never existed as far
            // as the restored state is concerned.
            for ptr in &record.allocated {
                if let Some(slot) = self.table.free(*ptr) {
                    self.discard_slot(slot);
                    self.note_freed(*ptr);
                }
            }
        }
        self.stats.speculations_rolled_back += 1;
        self.recorder
            .record(mojave_obs::EventKind::SpecAbort, level as u64, 0);
        Ok(())
    }

    /// Free a slot's block without touching the pointer table (the table
    /// entry either already points elsewhere or has been freed by the
    /// caller).
    fn discard_slot(&mut self, slot: usize) {
        if let Some(block) = self.blocks[slot].take() {
            self.live_bytes = self.live_bytes.saturating_sub(block.byte_size());
            self.free_slots.push(slot);
        }
    }

    /// Free a block and its pointer-table entry (used by the collector).
    pub(crate) fn free_block(&mut self, ptr: PtrIdx) {
        if let Some(slot) = self.table.free(ptr) {
            self.discard_slot(slot);
            self.note_freed(ptr);
            self.stats.blocks_collected += 1;
        }
    }

    /// Record that `ptr`'s table entry was released: the index joins the
    /// delta fixup list (and, no longer live, drops out of the materialised
    /// dirty set — a freed block has no content to ship).
    fn note_freed(&mut self, ptr: PtrIdx) {
        if self.dirty_tracking_armed() {
            self.freed_since_clean.push(ptr);
        }
    }

    // ------------------------------------------------------------------
    // Dirty tracking (incremental checkpoint deltas)
    // ------------------------------------------------------------------

    /// Declare the current heap state *clean*: subsequent mutations,
    /// allocations and frees are tracked relative to this point, and a
    /// [`crate::ImageKind::Delta`] image ships exactly that tracked set.
    ///
    /// The first call **arms** dirty tracking — before it, mutation paths
    /// skip the bookkeeping entirely, so heaps that never take delta
    /// checkpoints pay a single branch per store.
    ///
    /// The caller must pair this with durably storing a full image of the
    /// current state (the delta's base); `mojave-core` does so when a full
    /// checkpoint is stored.
    pub fn mark_clean(&mut self) {
        self.clean_epoch += 1;
        self.dirty.clear();
        self.freed_since_clean.clear();
    }

    /// Whether dirty tracking has been armed by a [`Heap::mark_clean`],
    /// i.e. whether a [`crate::ImageKind::Delta`] image has a clean point
    /// to be relative to.
    pub fn dirty_tracking_armed(&self) -> bool {
        self.clean_epoch != 0
    }

    /// Number of live blocks whose content may differ from the last clean
    /// point.
    pub fn dirty_count(&self) -> usize {
        self.sorted_dirty().len()
    }

    /// Number of pointer indices freed since the last clean point.
    pub fn freed_count(&self) -> usize {
        self.sorted_freed().len()
    }

    /// The live entries of the dirty list, ascending and distinct — the
    /// record set a delta image ships.  Sorting here is what makes image
    /// bytes a function of the heap's state and not of the order in which
    /// the mutator reached it.
    pub(crate) fn sorted_dirty(&self) -> Vec<PtrIdx> {
        sorted_where(&self.dirty, |ptr| self.table.is_valid(ptr))
    }

    /// The entries of the freed list that are not live now, ascending and
    /// distinct — the freed-index fixup list both delta layouts append.
    pub(crate) fn sorted_freed(&self) -> Vec<PtrIdx> {
        sorted_where(&self.freed_since_clean, |ptr| !self.table.is_valid(ptr))
    }

    // ------------------------------------------------------------------
    // Snapshots (used by tests to prove rollback exactness)
    // ------------------------------------------------------------------

    /// A value snapshot of every block reachable through the pointer table,
    /// keyed by pointer index.  Two snapshots compare equal iff the program-
    /// visible heap state is identical.  Owned payloads are copied (shared
    /// ones shared), so holding the result takes nothing from the heap.
    pub fn snapshot(&self) -> HashMap<u32, BlockData> {
        self.table
            .iter_used()
            .filter_map(|(idx, slot)| self.blocks[slot].as_ref().map(|b| (idx.0, b.data.clone())))
            .collect()
    }

    /// Freeze the current program-visible heap state into an owned,
    /// thread-safe [`crate::HeapSnapshot`] in **O(pointer-table)** time.
    ///
    /// This is the zero-pause half of the asynchronous checkpoint pipeline
    /// (paper §4.3's copy-on-write machinery turned outward): the freeze
    /// shares each block's payload in place instead of copying bytes,
    /// paying one `Arc` allocation per block whose payload was still
    /// owned.  The mutator resumes immediately; the first subsequent write
    /// to each block pays that block's copy lazily while the snapshot
    /// still holds it ([`HeapStats::shared_payload_copies`] counts them),
    /// exactly like the first write inside a speculation level, and takes
    /// the payload back without a copy once the snapshot is gone.
    ///
    /// The snapshot also captures the dirty/freed tracking state, so it
    /// encodes the delta of the freeze point as well as the full image.
    /// It is the only source of image records: a synchronous pack freezes
    /// too, and encodes before the mutator resumes.
    ///
    /// Interactions (all safe, by construction — the snapshot owns its
    /// records and never looks back at the heap):
    ///
    /// * **Speculation**: freezing inside an open level captures the
    ///   speculative (current-clone) state; a later rollback or commit
    ///   does not disturb the snapshot.
    /// * **GC**: collections may run while a snapshot is live.  Freeing a
    ///   block drops the heap's reference; the snapshot's reference keeps
    ///   the frozen payload alive.  Compaction moves slots, which the
    ///   snapshot never consults.
    /// * **Multiple snapshots** may be live at once; each is independent.
    pub fn freeze(&mut self) -> crate::HeapSnapshot {
        self.stats.snapshots_frozen += 1;
        let mut records = Vec::with_capacity(self.table.live());
        records.extend(self.table.iter_used().map(|(idx, slot)| {
            let block = self.blocks[slot].as_mut();
            let block = block.expect("used table entry points at a block");
            (idx, block.share())
        }));
        self.recorder.record(
            mojave_obs::EventKind::Freeze,
            records.len() as u64,
            self.live_bytes as u64,
        );
        crate::HeapSnapshot::new(
            self.table.capacity(),
            records,
            self.sorted_dirty(),
            self.sorted_freed(),
            self.dirty_tracking_armed(),
            self.live_bytes,
        )
    }
}

/// Append `header`'s block to the dirty list unless its `dirty_epoch` says
/// it has been listed since the clean point.  With tracking not armed both
/// epochs are 0 and nothing is ever listed.
#[inline]
fn list_dirty(dirty: &mut Vec<PtrIdx>, clean_epoch: u64, header: &mut BlockHeader) {
    if header.dirty_epoch != clean_epoch {
        header.dirty_epoch = clean_epoch;
        dirty.push(header.index);
    }
}

/// The entries of an append-order list that satisfy `keep`, ascending and
/// distinct.
fn sorted_where(list: &[PtrIdx], keep: impl Fn(PtrIdx) -> bool) -> Vec<PtrIdx> {
    let mut kept = list.to_vec();
    fold_where(&mut kept, keep);
    kept
}

/// [`sorted_where`] in place: fold an append-order list down to the set it
/// stands for.
pub(crate) fn fold_where(list: &mut Vec<PtrIdx>, keep: impl Fn(PtrIdx) -> bool) {
    list.retain(|ptr| keep(*ptr));
    list.sort_unstable();
    list.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::tests::{encode_v1, encode_v4};
    use crate::{image_payload_stats, ImageCodec, ImageKind, ImageRecords};
    use mojave_wire::{CodecSet, WireCodec, WireError, WireReader, WireWriter};

    /// A v1 (per-word) image of `heap`, written from public API: table
    /// capacity, used count, then each used entry's index and its block in
    /// the per-word encoding.  Only decoders read v1.
    fn v1_image(heap: &Heap) -> Vec<u8> {
        let table = heap.pointer_table();
        let mut w = WireWriter::new();
        w.write_usize(table.capacity());
        w.write_usize(table.live());
        for (idx, _) in table.iter_used() {
            w.write_uvarint(idx.0 as u64);
            encode_v1(heap.block(idx).unwrap(), &mut w);
        }
        w.into_bytes()
    }

    /// A batched v4 image of `heap`'s `kind` records, full or delta: table
    /// capacity, record count, each record's index and batched block, then
    /// a delta's freed indices.  Only decoders read v4.
    fn v4_image(heap: &mut Heap, kind: ImageKind) -> Vec<u8> {
        let snap = heap.freeze();
        let records = snap.image_records(kind).unwrap();
        let mut w = WireWriter::new();
        w.write_usize(records.capacity);
        w.write_usize(records.records.len());
        for (idx, block) in &records.records {
            w.write_uvarint(idx.0 as u64);
            encode_v4(block, &mut w);
        }
        if let Some(freed) = records.freed {
            w.write_usize(freed.len());
            for ptr in freed {
                w.write_uvarint(ptr.0 as u64);
            }
        }
        w.into_bytes()
    }

    /// The v5 image of `heap`'s `kind` records in `codecs`, encoded from a
    /// freeze as every pack encodes it.
    fn v5_image(heap: &mut Heap, kind: ImageKind, codecs: CodecSet) -> Vec<u8> {
        let mut w = WireWriter::new();
        let snap = heap.freeze();
        snap.image_records(kind).unwrap().encode(&mut w, codecs);
        w.into_bytes()
    }

    #[test]
    fn alloc_load_store_roundtrip() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
        assert_eq!(heap.block_len(arr).unwrap(), 4);
        heap.store(arr, 2, Word::Float(1.5)).unwrap();
        assert_eq!(heap.load(arr, 2).unwrap(), Word::Float(1.5));
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(0));
    }

    #[test]
    fn bounds_and_pointer_validation() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(2, Word::Int(0)).unwrap();
        assert!(matches!(
            heap.load(arr, 5),
            Err(HeapError::OutOfBounds { .. })
        ));
        assert!(matches!(
            heap.load(arr, -1),
            Err(HeapError::OutOfBounds { .. })
        ));
        assert!(matches!(
            heap.load(PtrIdx(99), 0),
            Err(HeapError::InvalidPointer(_))
        ));
        assert!(matches!(
            heap.store(arr, 9, Word::Int(1)),
            Err(HeapError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_and_oversized_allocations_rejected() {
        let mut heap = Heap::with_config(HeapConfig {
            max_alloc: 100,
            ..HeapConfig::default()
        });
        assert!(matches!(
            heap.alloc_array(-1, Word::Unit),
            Err(HeapError::NegativeSize(-1))
        ));
        assert!(matches!(
            heap.alloc_raw(101),
            Err(HeapError::AllocTooLarge { .. })
        ));
    }

    #[test]
    fn raw_block_little_endian_access() {
        let mut heap = Heap::new();
        let buf = heap.alloc_raw(16).unwrap();
        heap.store_raw(buf, 0, 8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(heap.load_raw(buf, 0, 1).unwrap(), 0x08);
        assert_eq!(heap.load_raw(buf, 0, 4).unwrap(), 0x0506_0708);
        assert_eq!(heap.load_raw(buf, 0, 8).unwrap(), 0x0102_0304_0506_0708);
        // Width and bounds checks.
        assert!(matches!(
            heap.load_raw(buf, 0, 3),
            Err(HeapError::BadWidth(3))
        ));
        assert!(matches!(
            heap.load_raw(buf, 12, 8),
            Err(HeapError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn strings_are_immutable() {
        let mut heap = Heap::new();
        let s = heap.alloc_str("constant").unwrap();
        assert_eq!(heap.str_value(s).unwrap(), "constant");
        assert!(matches!(
            heap.store_raw(s, 0, 1, 0),
            Err(HeapError::ImmutableBlock(_))
        ));
    }

    #[test]
    fn kind_mismatch_detected() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(2, Word::Int(0)).unwrap();
        let raw = heap.alloc_raw(8).unwrap();
        assert!(matches!(
            heap.load_raw(arr, 0, 4),
            Err(HeapError::KindMismatch { .. })
        ));
        assert!(matches!(
            heap.load(raw, 0),
            Err(HeapError::KindMismatch { .. })
        ));
    }

    #[test]
    fn copy_raw_between_blocks() {
        let mut heap = Heap::new();
        let a = heap.alloc_raw(8).unwrap();
        let b = heap.alloc_raw(8).unwrap();
        heap.store_raw(a, 0, 8, 42).unwrap();
        heap.copy_raw(a, b, 8).unwrap();
        assert_eq!(heap.load_raw(b, 0, 8).unwrap(), 42);
    }

    #[test]
    fn speculation_rollback_restores_exact_state() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(8, Word::Int(1)).unwrap();
        let tup = heap
            .alloc_tuple(vec![Word::Int(10), Word::Ptr(arr)])
            .unwrap();
        let before = heap.snapshot();

        let level = heap.spec_enter();
        assert_eq!(level, 1);
        heap.store(arr, 0, Word::Int(99)).unwrap();
        heap.store(tup, 0, Word::Int(77)).unwrap();
        let extra = heap.alloc_array(4, Word::Int(5)).unwrap();
        heap.store(tup, 1, Word::Ptr(extra)).unwrap();
        assert_ne!(heap.snapshot(), before);

        heap.spec_rollback(level).unwrap();
        assert_eq!(heap.snapshot(), before);
        assert_eq!(heap.spec_depth(), 0);
        // The speculative allocation is gone.
        assert!(heap.load(extra, 0).is_err());
    }

    #[test]
    fn speculation_commit_keeps_changes() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
        let level = heap.spec_enter();
        heap.store(arr, 1, Word::Int(11)).unwrap();
        heap.spec_commit(level).unwrap();
        assert_eq!(heap.spec_depth(), 0);
        assert_eq!(heap.load(arr, 1).unwrap(), Word::Int(11));
        assert_eq!(heap.stats().cow_clones, 1);
    }

    #[test]
    fn nested_rollback_restores_outer_level_state() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1, Word::Int(0)).unwrap();
        let l1 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(1)).unwrap();
        let state_after_l1_write = heap.snapshot();
        let l2 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(2)).unwrap();
        // Roll back only the inner level: the value written in level 1 stays.
        heap.spec_rollback(l2).unwrap();
        assert_eq!(heap.snapshot(), state_after_l1_write);
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(1));
        // Roll back the outer level: back to the original value.
        heap.spec_rollback(l1).unwrap();
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(0));
    }

    #[test]
    fn rollback_to_outer_level_aborts_inner_levels_too() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1, Word::Int(0)).unwrap();
        let before = heap.snapshot();
        let l1 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(1)).unwrap();
        let _l2 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(2)).unwrap();
        let _l3 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(3)).unwrap();
        heap.spec_rollback(l1).unwrap();
        assert_eq!(heap.snapshot(), before);
        assert_eq!(heap.spec_depth(), 0);
    }

    #[test]
    fn out_of_order_commit_then_rollback() {
        // Commit level 1 while level 2 is still open (the grid loop does the
        // opposite order, but §4.3.1 allows commits out of order), then roll
        // back level 1 — which after the renumbering is the old level 2.
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1, Word::Int(0)).unwrap();
        let l1 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(1)).unwrap();
        let _l2 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(2)).unwrap();
        // Commit the oldest level: its write (value 1) becomes permanent.
        heap.spec_commit(l1).unwrap();
        assert_eq!(heap.spec_depth(), 1);
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(2));
        // Rolling back the remaining level restores the committed state.
        heap.spec_rollback(1).unwrap();
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(1));
    }

    #[test]
    fn commit_inner_then_rollback_outer_restores_original() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1, Word::Int(0)).unwrap();
        let before = heap.snapshot();
        let l1 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(1)).unwrap();
        let l2 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(2)).unwrap();
        heap.spec_commit(l2).unwrap();
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(2));
        heap.spec_rollback(l1).unwrap();
        assert_eq!(heap.snapshot(), before);
    }

    #[test]
    fn invalid_speculation_levels_rejected() {
        let mut heap = Heap::new();
        assert!(matches!(
            heap.spec_commit(1),
            Err(HeapError::NoSuchSpeculation { .. })
        ));
        heap.spec_enter();
        assert!(matches!(
            heap.spec_rollback(2),
            Err(HeapError::NoSuchSpeculation { .. })
        ));
        assert!(matches!(
            heap.spec_rollback(0),
            Err(HeapError::NoSuchSpeculation { .. })
        ));
    }

    #[test]
    fn cow_only_clones_once_per_level() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(128, Word::Int(0)).unwrap();
        heap.spec_enter();
        for i in 0..128 {
            heap.store(arr, i, Word::Int(i)).unwrap();
        }
        assert_eq!(heap.stats().cow_clones, 1);
        heap.spec_enter();
        heap.store(arr, 0, Word::Int(-1)).unwrap();
        heap.store(arr, 1, Word::Int(-2)).unwrap();
        assert_eq!(heap.stats().cow_clones, 2);

        // Across blocks: writing to half of them under an open level
        // clones exactly that half, once each.
        let mut heap = Heap::new();
        let blocks: Vec<_> = (0..64)
            .map(|i| heap.alloc_array(64, Word::Int(i)).unwrap())
            .collect();
        heap.spec_enter();
        for (i, ptr) in blocks.iter().take(32).enumerate() {
            heap.store(*ptr, i as i64, Word::Int(-1)).unwrap();
            heap.store(*ptr, 63, Word::Int(-2)).unwrap();
        }
        assert_eq!(heap.stats().cow_clones, 32);
    }

    #[test]
    fn blocks_allocated_in_speculation_need_no_cow() {
        let mut heap = Heap::new();
        heap.spec_enter();
        let arr = heap.alloc_array(16, Word::Int(0)).unwrap();
        heap.store(arr, 3, Word::Int(3)).unwrap();
        assert_eq!(heap.stats().cow_clones, 0);
        heap.spec_rollback(1).unwrap();
        assert!(heap.load(arr, 0).is_err());
    }

    #[test]
    fn image_roundtrip_preserves_pointer_identity() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(3, Word::Int(7)).unwrap();
        let s = heap.alloc_str("hello").unwrap();
        let t = heap
            .alloc_tuple(vec![Word::Ptr(a), Word::Ptr(s), Word::Float(2.5)])
            .unwrap();
        // Free a block so the table has a hole, then allocate another.
        let tmp = heap.alloc_raw(64).unwrap();
        heap.free_block(tmp);
        let b = heap.alloc_array(2, Word::Int(1)).unwrap();

        let bytes = v4_image(&mut heap, ImageKind::Full);
        let mut r = WireReader::new(&bytes);
        let back = Heap::decode_image(&mut r, ImageCodec::Batched, HeapConfig::default()).unwrap();
        assert!(r.is_empty());

        assert_eq!(back.load(a, 0).unwrap(), Word::Int(7));
        assert_eq!(back.str_value(s).unwrap(), "hello");
        assert_eq!(back.load(t, 0).unwrap(), Word::Ptr(a));
        assert_eq!(back.load(t, 2).unwrap(), Word::Float(2.5));
        assert_eq!(back.load(b, 1).unwrap(), Word::Int(1));
        assert_eq!(back.live_blocks(), heap.live_blocks());
    }

    /// Build a heap with a few blocks, a table hole and cross-references —
    /// the shape the image codecs must preserve.
    fn populated_heap() -> (Heap, PtrIdx, PtrIdx, PtrIdx) {
        let mut heap = Heap::new();
        let a = heap.alloc_array(3, Word::Int(7)).unwrap();
        let s = heap.alloc_str("hello").unwrap();
        let t = heap
            .alloc_tuple(vec![Word::Ptr(a), Word::Ptr(s), Word::Float(2.5)])
            .unwrap();
        let tmp = heap.alloc_raw(64).unwrap();
        heap.free_block(tmp);
        (heap, a, s, t)
    }

    #[test]
    fn legacy_image_roundtrip_still_decodes() {
        let (heap, a, s, t) = populated_heap();
        let bytes = v1_image(&heap);
        let mut r = WireReader::new(&bytes);
        let back = Heap::decode_image(&mut r, ImageCodec::PerWord, HeapConfig::default()).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.load(a, 0).unwrap(), Word::Int(7));
        assert_eq!(back.str_value(s).unwrap(), "hello");
        assert_eq!(back.load(t, 1).unwrap(), Word::Ptr(s));
        assert_eq!(back.live_blocks(), heap.live_blocks());
    }

    #[test]
    fn batched_and_legacy_images_decode_to_equal_heaps() {
        let (mut heap, ..) = populated_heap();
        let b1 = v4_image(&mut heap, ImageKind::Full);
        let b2 = v1_image(&heap);
        let h1 = Heap::decode_image(
            &mut WireReader::new(&b1),
            ImageCodec::Batched,
            HeapConfig::default(),
        )
        .unwrap();
        let h2 = Heap::decode_image(
            &mut WireReader::new(&b2),
            ImageCodec::PerWord,
            HeapConfig::default(),
        )
        .unwrap();
        assert_eq!(h1.snapshot(), h2.snapshot());
        assert_eq!(h1.snapshot(), heap.snapshot());
    }

    /// Word blocks whose lengths straddle the 32-word `BitPack` groups
    /// and the decoder's chunk, mostly small `Int`s with every other word
    /// kind (and a table hole) among them.
    fn mixed_word_heap() -> Heap {
        let mut heap = Heap::new();
        let mut blocks = Vec::new();
        for (b, len) in [1i64, 31, 33, 64, 95, 300, 7].into_iter().enumerate() {
            let block = heap.alloc_array(len, Word::Int(0)).unwrap();
            for i in 0..len {
                let word = match (i * 7 + b as i64) % 23 {
                    0 => Word::Bool(i % 2 == 0),
                    1 => Word::Char(char::from_u32(0x3B0 + i as u32).unwrap()),
                    2 => Word::Ptr(blocks.first().copied().unwrap_or(block)),
                    3 => Word::Fun(i as u32),
                    // Subnormal, so a group holding one stays narrow.
                    4 => Word::Float(f64::from_bits(i as u64 * 3)),
                    5 => Word::Unit,
                    _ => Word::Int(i % 50 - 10),
                };
                heap.store(block, i, word).unwrap();
            }
            blocks.push(block);
        }
        let hole = heap.alloc_raw(8).unwrap();
        heap.free_block(hole);
        heap.alloc_str("straddle").unwrap();
        heap
    }

    /// The codec id of a v5 image's word payload frame.
    fn word_frame_codec(image: &[u8]) -> u8 {
        let mut r = WireReader::new(image);
        r.read_usize().unwrap();
        r.read_usize().unwrap();
        r.skip_byte_frame().unwrap();
        r.skip_byte_frame().unwrap();
        r.read_uvarint().unwrap();
        r.read_u8().unwrap()
    }

    #[test]
    fn compressed_image_roundtrip_matches_batched() {
        let (mut heap, a, s, t) = populated_heap();
        let mut mixed = mixed_word_heap();
        let frozen = [heap.freeze(), mixed.freeze()];
        let every_codec_set = std::iter::once(CodecSet::all())
            .chain(mojave_wire::CodecId::ALL.into_iter().map(CodecSet::only));
        for allowed in every_codec_set {
            for (source, snap) in [&heap, &mixed].into_iter().zip(&frozen) {
                // Encoders write records ascending by index; a decoder
                // takes them in any order.
                for reversed in [false, true] {
                    let mut records = snap.image_records(ImageKind::Full).unwrap();
                    if reversed {
                        records.records.reverse();
                    }
                    let mut w = WireWriter::new();
                    records.encode(&mut w, allowed);
                    let bytes = w.into_bytes();
                    if std::ptr::eq(source, &mixed) && allowed != CodecSet::all() {
                        // Enough small ints that the one codec offered
                        // besides Raw wins the payload slab.
                        let codec = allowed.iter().last().unwrap();
                        assert_eq!(word_frame_codec(&bytes), codec as u8, "{codec}");
                    }
                    let mut r = WireReader::new(&bytes);
                    let back = Heap::decode_image(&mut r, ImageCodec::Slab, HeapConfig::default())
                        .unwrap();
                    assert!(r.is_empty());
                    assert_eq!(back.snapshot(), source.snapshot(), "{allowed:?} {reversed}");
                    assert_eq!(
                        back.pointer_table().capacity(),
                        source.pointer_table().capacity()
                    );
                }
            }
            let mut w = WireWriter::new();
            frozen[0]
                .image_records(ImageKind::Full)
                .unwrap()
                .encode(&mut w, allowed);
            let back = Heap::decode_image(
                &mut WireReader::new(&w.into_bytes()),
                ImageCodec::Slab,
                HeapConfig::default(),
            )
            .unwrap();
            assert_eq!(back.load(a, 0).unwrap(), Word::Int(7));
            assert_eq!(back.str_value(s).unwrap(), "hello");
            assert_eq!(back.load(t, 1).unwrap(), Word::Ptr(s));
        }
    }

    #[test]
    fn compressed_images_shrink_small_int_heaps_below_per_word_size() {
        // The byte claim behind wire v5: on a small-int heap the
        // compressed slab layout beats even the v1 varint encoding.
        let mut heap = Heap::new();
        for i in 0..200 {
            heap.alloc_array(64, Word::Int(i % 50)).unwrap();
        }
        let legacy = v1_image(&heap);
        let batched = v4_image(&mut heap, ImageKind::Full);
        let compressed = v5_image(&mut heap, ImageKind::Full, CodecSet::all());
        let (v1, v4, v5) = (legacy.len(), batched.len(), compressed.len());
        assert!(v4 > v1, "batched trades bytes for speed: {v4} vs {v1}");
        assert!(v5 < v1, "compressed must beat v1 varints: {v5} vs {v1}");
        assert!(v5 * 8 < v4, "compressed ≥8× below batched: {v5} vs {v4}");
    }

    #[test]
    fn compressed_delta_roundtrip_including_mixed_base_codecs() {
        let (mut heap, a, _s, t) = populated_heap();
        // Base in v4 batched *and* v5 compressed form: a v5 delta must
        // resolve against either.
        let base_batched = v4_image(&mut heap, ImageKind::Full);
        let base_slab = v5_image(&mut heap, ImageKind::Full, CodecSet::all());
        heap.mark_clean();

        heap.store(a, 0, Word::Int(-9)).unwrap();
        let fresh = heap.alloc_array(5, Word::Int(3)).unwrap();
        heap.store(t, 2, Word::Ptr(fresh)).unwrap();
        heap.free_block(a);

        let delta_bytes = v5_image(&mut heap, ImageKind::Delta, CodecSet::all());

        for (base_bytes, base_codec) in [
            (&base_batched, ImageCodec::Batched),
            (&base_slab, ImageCodec::Slab),
        ] {
            let back = Heap::decode_delta_image(
                &mut WireReader::new(base_bytes),
                &mut WireReader::new(&delta_bytes),
                base_codec,
                ImageCodec::Slab,
                HeapConfig::default(),
            )
            .unwrap();
            assert_eq!(back.snapshot(), heap.snapshot());
            assert!(back.load(a, 0).is_err(), "freed block stays freed");
            assert_eq!(back.load(fresh, 4).unwrap(), Word::Int(3));
        }
    }

    #[test]
    fn compressed_image_with_corrupted_slabs_rejected() {
        let (mut heap, ..) = populated_heap();
        let bytes = v5_image(&mut heap, ImageKind::Full, CodecSet::all());

        // Truncations anywhere must be precise errors, never panics.
        for cut in [bytes.len() - 1, bytes.len() / 2, 5] {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(Heap::decode_image(&mut r, ImageCodec::Slab, HeapConfig::default()).is_err());
        }

        // A record count that disagrees with the slab content.
        let mut w = WireWriter::new();
        w.write_usize(4); // capacity
        w.write_usize(2); // claims two records…
        let mut meta = WireWriter::new();
        meta.write_uvarint(0);
        BlockKind::Array.encode(&mut meta);
        meta.write_usize(1);
        w.write_byte_frame(meta.as_bytes(), mojave_wire::CodecId::Raw); // …meta holds one
        w.write_byte_frame(&[1], mojave_wire::CodecId::Raw);
        w.write_word_frame(&[5], mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[], mojave_wire::CodecId::Raw);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(Heap::decode_image(&mut r, ImageCodec::Slab, HeapConfig::default()).is_err());

        // Slabs holding more data than the records claim.
        let mut w = WireWriter::new();
        w.write_usize(4);
        w.write_usize(1);
        let mut meta = WireWriter::new();
        meta.write_uvarint(0);
        BlockKind::Array.encode(&mut meta);
        meta.write_usize(1);
        w.write_byte_frame(meta.as_bytes(), mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[1, 1], mojave_wire::CodecId::Raw); // two words staged
        w.write_word_frame(&[5, 6], mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[], mojave_wire::CodecId::Raw);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Heap::decode_image(&mut r, ImageCodec::Slab, HeapConfig::default()).unwrap_err(),
            WireError::Invalid(_)
        ));

        // A payload frame that runs out in the middle of the second
        // block, though its header passed the count check: the decoder's
        // precise error, from the word it could not read.
        use mojave_wire::{CodecError, CodecId};
        let words: Vec<u64> = (0..80).map(|i| if i % 2 == 0 { 0 } else { 100 }).collect();
        for (codec, held, error) in [
            (CodecId::BitPack, 64, "bitpack group"),
            (CodecId::Varint, 60, "varint slab"),
        ] {
            let mut w = WireWriter::new();
            w.write_usize(2);
            w.write_usize(2);
            let mut meta = WireWriter::new();
            for idx in 0..2 {
                meta.write_uvarint(idx);
                BlockKind::Array.encode(&mut meta);
                meta.write_usize(40);
            }
            w.write_byte_frame(meta.as_bytes(), CodecId::Raw);
            w.write_byte_frame(&[1; 80], CodecId::Raw);
            let mut short = Vec::new();
            mojave_wire::compress_words(codec, &words[..held], &mut short);
            w.write_uvarint(80);
            w.write_u8(codec as u8);
            w.write_bytes(&short);
            w.write_byte_frame(&[], CodecId::Raw);
            let bytes = w.into_bytes();
            assert_eq!(
                Heap::decode_image(
                    &mut WireReader::new(&bytes),
                    ImageCodec::Slab,
                    HeapConfig::default()
                )
                .unwrap_err(),
                WireError::Codec(CodecError::TruncatedInput { context: error }),
                "{codec}"
            );
        }
    }

    #[test]
    fn payload_stats_reflect_compression() {
        let mut heap = Heap::new();
        for i in 0..100 {
            heap.alloc_array(64, Word::Int(i)).unwrap();
        }
        let bytes = v5_image(&mut heap, ImageKind::Full, CodecSet::all());
        let stats = image_payload_stats(&bytes, false).unwrap();
        assert_eq!(stats.stored_bytes, bytes.len() as u64);
        assert!(
            stats.raw_bytes > stats.stored_bytes * 4,
            "small-int heap must compress ≥4×: raw {} stored {}",
            stats.raw_bytes,
            stats.stored_bytes
        );

        // Raw-only images report ~no savings.
        let bytes = v5_image(&mut heap, ImageKind::Full, CodecSet::raw_only());
        let stats = image_payload_stats(&bytes, false).unwrap();
        assert_eq!(stats.raw_bytes, stats.stored_bytes);

        // Delta payloads walk the freed tail too.
        heap.mark_clean();
        let doomed = heap.alloc_array(2, Word::Int(1)).unwrap();
        heap.free_block(doomed);
        let bytes = v5_image(&mut heap, ImageKind::Delta, CodecSet::all());
        assert!(image_payload_stats(&bytes, true).is_ok());
        assert!(image_payload_stats(&bytes, false).is_err());
    }

    #[test]
    fn dirty_tracking_follows_mutations_allocs_and_frees() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(4, Word::Int(0)).unwrap();
        let b = heap.alloc_raw(16).unwrap();
        heap.mark_clean();
        assert_eq!(heap.dirty_count(), 0);
        assert_eq!(heap.freed_count(), 0);

        heap.store(a, 1, Word::Int(5)).unwrap();
        heap.store(a, 2, Word::Int(6)).unwrap(); // same block: still one entry
        assert_eq!(heap.dirty_count(), 1);
        heap.store_raw(b, 0, 8, 42).unwrap();
        assert_eq!(heap.dirty_count(), 2);

        let c = heap.alloc_array(2, Word::Int(1)).unwrap();
        assert_eq!(heap.dirty_count(), 3);
        heap.free_block(c);
        // Allocated and freed within the window: no content, no fixup a
        // base image could know about — but the index is reported freed.
        assert_eq!(heap.dirty_count(), 2);
        heap.free_block(a);
        assert!(heap.freed_count() >= 1);
        assert_eq!(heap.dirty_count(), 1);
    }

    #[test]
    fn delta_image_reconstructs_exact_heap() {
        let (mut heap, a, _s, t) = populated_heap();
        let base_bytes = v4_image(&mut heap, ImageKind::Full);
        heap.mark_clean();

        // Mutate: overwrite, allocate, free, re-point.
        heap.store(a, 0, Word::Int(-9)).unwrap();
        let fresh = heap.alloc_array(5, Word::Int(3)).unwrap();
        heap.store(t, 2, Word::Ptr(fresh)).unwrap();
        heap.free_block(a);

        let delta_bytes = v4_image(&mut heap, ImageKind::Delta);
        // The delta is smaller than a full image of the same heap.
        let full = v4_image(&mut heap, ImageKind::Full);
        assert!(delta_bytes.len() < full.len() + 16);

        let back = Heap::decode_delta_image(
            &mut WireReader::new(&base_bytes),
            &mut WireReader::new(&delta_bytes),
            ImageCodec::Batched,
            ImageCodec::Batched,
            HeapConfig::default(),
        )
        .unwrap();
        assert_eq!(back.snapshot(), heap.snapshot());
        assert!(back.load(a, 0).is_err(), "freed block stays freed");
        assert_eq!(back.load(fresh, 4).unwrap(), Word::Int(3));
        assert_eq!(back.load(t, 2).unwrap(), Word::Ptr(fresh));
    }

    #[test]
    fn delta_after_rollback_ships_restored_blocks() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(2, Word::Int(1)).unwrap();
        let level = heap.spec_enter();
        heap.store(a, 0, Word::Int(2)).unwrap();

        // Clean point taken while the speculation is open.
        let base_bytes = v4_image(&mut heap, ImageKind::Full);
        heap.mark_clean();

        // The rollback reverts `a` — it must re-enter the dirty set or the
        // delta would silently miss the restored content.
        heap.spec_rollback(level).unwrap();
        let delta_bytes = v4_image(&mut heap, ImageKind::Delta);

        let back = Heap::decode_delta_image(
            &mut WireReader::new(&base_bytes),
            &mut WireReader::new(&delta_bytes),
            ImageCodec::Batched,
            ImageCodec::Batched,
            HeapConfig::default(),
        )
        .unwrap();
        assert_eq!(back.load(a, 0).unwrap(), Word::Int(1));
        assert_eq!(back.snapshot(), heap.snapshot());
    }

    #[test]
    fn empty_delta_is_tiny_and_reconstructs_base() {
        let (mut heap, ..) = populated_heap();
        let base_bytes = v4_image(&mut heap, ImageKind::Full);
        heap.mark_clean();

        let delta_bytes = v4_image(&mut heap, ImageKind::Delta);
        assert!(delta_bytes.len() <= 8, "no changes → a few header bytes");

        let back = Heap::decode_delta_image(
            &mut WireReader::new(&base_bytes),
            &mut WireReader::new(&delta_bytes),
            ImageCodec::Batched,
            ImageCodec::Batched,
            HeapConfig::default(),
        )
        .unwrap();
        assert_eq!(back.snapshot(), heap.snapshot());
    }

    #[test]
    fn image_with_absurd_capacity_rejected_before_allocation() {
        // Full image claiming a gigantic pointer table.
        let mut w = WireWriter::new();
        w.write_usize(1 << 40);
        w.write_usize(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            Heap::decode_image(
                &mut WireReader::new(&bytes),
                ImageCodec::Batched,
                HeapConfig::default()
            )
            .unwrap_err(),
            WireError::LengthOverflow { .. }
        ));

        // Delta declaring the same against a legitimate base.
        let (mut heap, ..) = populated_heap();
        let base_bytes = v4_image(&mut heap, ImageKind::Full);
        let mut w = WireWriter::new();
        w.write_usize(1 << 40);
        w.write_usize(0);
        w.write_usize(0);
        let delta_bytes = w.into_bytes();
        assert!(matches!(
            Heap::decode_delta_image(
                &mut WireReader::new(&base_bytes),
                &mut WireReader::new(&delta_bytes),
                ImageCodec::Batched,
                ImageCodec::Batched,
                HeapConfig::default(),
            )
            .unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn delta_with_duplicate_records_rejected() {
        let (mut heap, a, ..) = populated_heap();
        let base_bytes = v4_image(&mut heap, ImageKind::Full);

        // Two dirty records for the same index: order-dependent decode is
        // corruption, not a tolerated overwrite.
        let mut w = WireWriter::new();
        w.write_usize(heap.pointer_table().capacity());
        w.write_usize(2);
        for value in [1i64, 2] {
            w.write_uvarint(a.0 as u64);
            encode_v4(
                &Block::words(a, BlockKind::Array, vec![Word::Int(value)]),
                &mut w,
            );
        }
        w.write_usize(0);
        let delta_bytes = w.into_bytes();
        assert!(matches!(
            Heap::decode_delta_image(
                &mut WireReader::new(&base_bytes),
                &mut WireReader::new(&delta_bytes),
                ImageCodec::Batched,
                ImageCodec::Batched,
                HeapConfig::default(),
            )
            .unwrap_err(),
            WireError::Invalid(_)
        ));

        // The same in v5, full and delta images alike, with the repeat
        // out of order: records may come in any order, and once sorted a
        // repeat is the adjacent-equal pair.
        let v5 = |mut records: ImageRecords<'_>, at: usize| {
            records.records.insert(0, records.records[at]);
            let mut w = WireWriter::new();
            records.encode(&mut w, CodecSet::all());
            w.into_bytes()
        };
        let duplicate = |idx: PtrIdx, image: &str| {
            WireError::Invalid(format!("duplicate pointer index {} in {image}", idx.0))
        };
        let snap = heap.freeze();
        let full = snap.image_records(ImageKind::Full).unwrap();
        let last = full.records.len() - 1;
        let dup = full.records[last].0;
        assert_eq!(
            Heap::decode_image(
                &mut WireReader::new(&v5(full, last)),
                ImageCodec::Slab,
                HeapConfig::default()
            )
            .unwrap_err(),
            duplicate(dup, "heap image")
        );

        let base = v5_image(&mut heap, ImageKind::Full, CodecSet::all());
        heap.mark_clean();
        heap.store(a, 0, Word::Int(-1)).unwrap();
        let fresh = heap.alloc_array(3, Word::Int(4)).unwrap();
        let snap = heap.freeze();
        let delta = snap.image_records(ImageKind::Delta).unwrap();
        assert_eq!(delta.records.last().unwrap().0, fresh);
        assert_eq!(
            Heap::decode_delta_image(
                &mut WireReader::new(&base),
                &mut WireReader::new(&v5(delta, 1)),
                ImageCodec::Slab,
                ImageCodec::Slab,
                HeapConfig::default(),
            )
            .unwrap_err(),
            duplicate(fresh, "delta image")
        );
    }

    #[test]
    fn image_with_bad_index_rejected() {
        let mut w = WireWriter::new();
        w.write_usize(1); // capacity 1
        w.write_usize(1); // one used entry
        w.write_uvarint(5); // index 5 out of range
        encode_v4(&Block::words(PtrIdx(5), BlockKind::Array, vec![]), &mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(Heap::decode_image(&mut r, ImageCodec::Batched, HeapConfig::default()).is_err());
    }

    #[test]
    fn image_indices_beyond_u32_are_rejected_not_truncated() {
        const BEYOND: u64 = (1 << 32) + 1;

        // A v5 record whose meta index is 2^32 + 1: a truncating read
        // decodes it as block 1.
        let mut w = WireWriter::new();
        w.write_usize(2); // capacity
        w.write_usize(1); // one record
        let mut meta = WireWriter::new();
        meta.write_uvarint(BEYOND);
        BlockKind::Array.encode(&mut meta);
        meta.write_usize(1);
        w.write_byte_frame(meta.as_bytes(), mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[1], mojave_wire::CodecId::Raw);
        w.write_word_frame(&[5], mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[], mojave_wire::CodecId::Raw);
        let bytes = w.into_bytes();
        assert_eq!(
            Heap::decode_image(
                &mut WireReader::new(&bytes),
                ImageCodec::Slab,
                HeapConfig::default()
            )
            .unwrap_err(),
            WireError::LengthOverflow {
                context: "heap record index",
                len: BEYOND,
            }
        );

        // A v5 delta freeing index 2^32 + 1: a truncating read deletes
        // block 1 of the base.
        let mut heap = Heap::new();
        heap.alloc_array(1, Word::Int(0)).unwrap();
        heap.alloc_array(1, Word::Int(1)).unwrap();
        let base = v5_image(&mut heap, ImageKind::Full, CodecSet::all());
        let mut w = WireWriter::new();
        w.write_usize(2); // capacity
        w.write_usize(0); // no dirty records
        w.write_byte_frame(&[], mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[], mojave_wire::CodecId::Raw);
        w.write_word_frame(&[], mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[], mojave_wire::CodecId::Raw);
        w.write_usize(1); // one freed index
        w.write_uvarint(BEYOND);
        let delta = w.into_bytes();
        assert_eq!(
            Heap::decode_delta_image(
                &mut WireReader::new(&base),
                &mut WireReader::new(&delta),
                ImageCodec::Slab,
                ImageCodec::Slab,
                HeapConfig::default(),
            )
            .unwrap_err(),
            WireError::LengthOverflow {
                context: "freed pointer index",
                len: BEYOND,
            }
        );
    }

    #[test]
    fn stats_track_allocation() {
        let mut heap = Heap::new();
        heap.alloc_array(10, Word::Int(0)).unwrap();
        heap.alloc_raw(100).unwrap();
        let stats = heap.stats();
        assert_eq!(stats.blocks_allocated, 2);
        assert!(stats.bytes_allocated >= 180);
        assert_eq!(heap.live_blocks(), 2);
    }
}
