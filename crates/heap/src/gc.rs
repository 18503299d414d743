//! The generational mark-sweep compacting collector (paper §4).
//!
//! Two phases, exactly as the paper describes:
//!
//! * a **minor** collection that is fast and eliminates blocks with short
//!   live ranges — only young-generation blocks are candidates.  It never
//!   frees an old block, so everything an old block references is live:
//!   every old block seeds its mark, and a store records nothing;
//! * a **major** collection that marks from the full root set, sweeps the
//!   entire heap and **compacts** it with a sliding pass that preserves
//!   allocation order (and therefore temporal locality, the paper's argument
//!   for compaction over breadth-first copying).
//!
//! Because every heap reference is a pointer-table index, relocation during
//! compaction only rewrites table entries — heap payloads are never touched,
//! which is the same property migration relies on.
//!
//! Blocks preserved by open speculation levels (copy-on-write originals) are
//! GC roots: they must survive so a later rollback can restore them, and the
//! clones currently installed in the table must survive so commits keep
//! working.  Speculation-level records are updated when compaction moves the
//! preserved originals.
//!
//! No phase hashes or allocates per block.  Marking sets the `marked` bit
//! every [`crate::BlockHeader`] carries, tracing each block's words in
//! place through a worklist the heap keeps between collections; the sweep
//! reads and clears the bit in one pass over the slots and frees the dead
//! in slot order — the order their indices return to the pointer table's
//! free list, which decides the indices later allocations get and so the
//! bytes of later images; compaction remaps through a slot-indexed table
//! built in the same worklist.

use crate::block::Generation;
use crate::heap::Heap;
use crate::word::Word;

/// Which collection was performed by [`Heap::maybe_gc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// Young-generation collection.
    Minor,
    /// Full mark-sweep-compact collection.
    Major,
}

impl Heap {
    /// Run a collection if the configured thresholds are exceeded.
    ///
    /// `roots` are the mutator's registers (every live [`Word`] outside the
    /// heap).  Returns which collection ran, if any.
    pub fn maybe_gc(&mut self, roots: &[Word]) -> Option<GcKind> {
        let kind = self.gc_due()?;
        match kind {
            GcKind::Major => self.gc_major(roots),
            GcKind::Minor => self.gc_minor(roots),
        }
        Some(kind)
    }

    /// Which collection [`Heap::maybe_gc`] would run right now, if any — two
    /// threshold compares, so a mutator can skip building its root set when
    /// nothing is due.
    #[inline]
    pub fn gc_due(&self) -> Option<GcKind> {
        if self.live_bytes >= self.config.major_threshold_bytes {
            Some(GcKind::Major)
        } else if self.young_bytes >= self.config.minor_threshold_bytes {
            Some(GcKind::Minor)
        } else {
            None
        }
    }

    /// Set the mark bit of every block reachable from `roots`, from the
    /// speculation roots — the preserved originals (reachable only through
    /// checkpoint records) and the current clones and allocations the table
    /// points at — and, for a `minor` collection, from every old block.  A
    /// slot is pushed once per reference and marked when popped, so each
    /// block's words are walked once, in place.
    fn mark(&mut self, roots: &[Word], minor: bool) {
        let mut work = std::mem::take(&mut self.gc_work);
        let table = &self.table;
        work.extend(roots.iter().filter_map(|w| table.lookup(w.as_ptr()?)));
        for level in &self.spec_levels {
            for (ptr, orig_slot) in &level.saved {
                work.push(*orig_slot);
                work.extend(table.lookup(*ptr));
            }
            work.extend(level.allocated.iter().filter_map(|ptr| table.lookup(*ptr)));
        }
        if minor {
            work.extend(self.blocks.iter().enumerate().filter_map(|(slot, block)| {
                (block.as_ref()?.header.generation == Generation::Old).then_some(slot)
            }));
        }
        while let Some(slot) = work.pop() {
            let Some(Some(block)) = self.blocks.get_mut(slot) else {
                continue;
            };
            if !block.header.marked {
                block.header.marked = true;
                work.extend(block.referenced_ptrs().filter_map(|ptr| table.lookup(ptr)));
            }
        }
        self.gc_work = work;
    }

    /// Clear every mark bit and free the unmarked blocks — all of them
    /// (`major`), or only young ones (minor: old blocks are conservatively
    /// live).  Marked blocks become old: a minor collection promotes its
    /// young survivors, and everything that survives a major one is old.
    /// Returns the number of blocks freed.
    fn sweep(&mut self, major: bool) -> u64 {
        let mut dead = std::mem::take(&mut self.gc_work);
        for (slot, entry) in self.blocks.iter_mut().enumerate() {
            let Some(block) = entry else { continue };
            if std::mem::replace(&mut block.header.marked, false) {
                block.header.generation = Generation::Old;
            } else if major || block.header.generation == Generation::Young {
                dead.push(slot);
            }
        }
        // Freed by header index, in slot order.  An unmarked block is never
        // a preserved original (those are roots), so its index's table
        // entry refers to this very slot.
        for &slot in &dead {
            let ptr = self.blocks[slot]
                .as_ref()
                .expect("a dead slot holds a block")
                .header
                .index;
            self.free_block(ptr);
        }
        let freed = dead.len() as u64;
        dead.clear();
        self.gc_work = dead;
        freed
    }

    /// Minor collection: collect unreachable *young* blocks.
    ///
    /// Old blocks are conservatively assumed live, so every one of them is
    /// traced as an extra root: a young block an old one references
    /// survives however the reference was stored.
    pub fn gc_minor(&mut self, roots: &[Word]) {
        self.mark(roots, true);
        let freed = self.sweep(false);
        self.reset_after_gc();
        self.stats.minor_collections += 1;
        self.recorder.record(
            mojave_obs::EventKind::GcMinor,
            freed,
            self.table.live() as u64,
        );
    }

    /// Major collection: full mark, sweep and sliding compaction.
    pub fn gc_major(&mut self, roots: &[Word]) {
        self.mark(roots, false);
        let freed = self.sweep(true);
        self.compact();
        self.reset_after_gc();
        self.stats.major_collections += 1;
        self.recorder.record(
            mojave_obs::EventKind::GcMajor,
            freed,
            self.table.live() as u64,
        );
    }

    /// Sliding compaction: move every live block to the lowest free slot,
    /// preserving order (temporal locality), and rewrite the pointer table
    /// and speculation records.
    ///
    /// Under speculation a table entry may point at a clone while the
    /// original sits elsewhere, so references are rewritten by old slot
    /// number (`remap[old] = new`), not by walking headers.
    fn compact(&mut self) {
        let mut remap = std::mem::take(&mut self.gc_work);
        remap.extend(0..self.blocks.len());
        let mut target = 0usize;
        let mut moved = 0u64;
        for (slot, new) in remap.iter_mut().enumerate() {
            if self.blocks[slot].is_some() {
                if slot != target {
                    // Slots `target..slot` are all empty.
                    self.blocks.swap(slot, target);
                    *new = target;
                    moved += 1;
                }
                target += 1;
            }
        }
        self.blocks.truncate(target);
        self.free_slots.clear();

        if moved > 0 {
            self.stats.blocks_compacted += moved;
            let new_slot = |slot: usize| remap.get(slot).copied().unwrap_or(slot);
            self.table.remap_slots(new_slot);
            for level in &mut self.spec_levels {
                for slot in level.saved.values_mut() {
                    *slot = new_slot(*slot);
                }
            }
        }
        remap.clear();
        self.gc_work = remap;
    }

    /// Recompute byte accounting after a collection, and fold the
    /// append-order dirty and freed lists down, in place, to the sets they
    /// stand for, so a process that allocates for days between clean
    /// points holds lists bounded by its table, not by its allocation count.
    fn reset_after_gc(&mut self) {
        let table = &self.table;
        crate::heap::fold_where(&mut self.dirty, |ptr| table.is_valid(ptr));
        crate::heap::fold_where(&mut self.freed_since_clean, |ptr| !table.is_valid(ptr));
        self.live_bytes = 0;
        self.young_bytes = 0;
        for block in self.blocks.iter().flatten() {
            self.live_bytes += block.byte_size();
            if block.header.generation == Generation::Young {
                self.young_bytes += block.byte_size();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::pointer_table::PtrIdx;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn small_heap() -> Heap {
        Heap::with_config(HeapConfig {
            minor_threshold_bytes: 4 * 1024,
            major_threshold_bytes: 64 * 1024,
            max_alloc: 1 << 20,
        })
    }

    #[test]
    fn unreachable_blocks_are_collected() {
        let mut heap = Heap::new();
        let keep = heap.alloc_array(8, Word::Int(1)).unwrap();
        let _garbage = heap.alloc_array(8, Word::Int(2)).unwrap();
        let roots = vec![Word::Ptr(keep)];
        assert_eq!(heap.live_blocks(), 2);
        heap.gc_major(&roots);
        assert_eq!(heap.live_blocks(), 1);
        assert_eq!(heap.load(keep, 0).unwrap(), Word::Int(1));
    }

    #[test]
    fn reachability_is_transitive() {
        let mut heap = Heap::new();
        let inner = heap.alloc_array(4, Word::Int(7)).unwrap();
        let outer = heap.alloc_tuple(vec![Word::Ptr(inner)]).unwrap();
        let _dead = heap.alloc_raw(128).unwrap();
        heap.gc_major(&[Word::Ptr(outer)]);
        assert_eq!(heap.live_blocks(), 2);
        assert_eq!(heap.load(inner, 0).unwrap(), Word::Int(7));
        // The chain still resolves through the (possibly relocated) table.
        let loaded = heap.load(outer, 0).unwrap();
        assert_eq!(loaded, Word::Ptr(inner));
    }

    #[test]
    fn compaction_relocates_without_changing_indices() {
        let mut heap = Heap::new();
        let mut keep = Vec::new();
        let mut drop_list = Vec::new();
        for i in 0..50 {
            let p = heap.alloc_array(4, Word::Int(i)).unwrap();
            if i % 2 == 0 {
                keep.push(p);
            } else {
                drop_list.push(p);
            }
        }
        let roots: Vec<Word> = keep.iter().map(|p| Word::Ptr(*p)).collect();
        heap.gc_major(&roots);
        assert_eq!(heap.live_blocks(), keep.len());
        assert!(heap.stats().blocks_compacted > 0);
        for (i, p) in keep.iter().enumerate() {
            assert_eq!(heap.load(*p, 0).unwrap(), Word::Int(i as i64 * 2));
        }
        for p in drop_list {
            assert!(heap.load(p, 0).is_err());
        }
    }

    #[test]
    fn minor_collection_promotes_survivors_and_frees_garbage() {
        let mut heap = small_heap();
        let keep = heap.alloc_array(16, Word::Int(3)).unwrap();
        let _dead = heap.alloc_array(16, Word::Int(4)).unwrap();
        heap.gc_minor(&[Word::Ptr(keep)]);
        assert_eq!(heap.live_blocks(), 1);
        assert_eq!(heap.stats().minor_collections, 1);
        assert_eq!(heap.block(keep).unwrap().header.generation, Generation::Old);
        assert_eq!(heap.young_bytes(), 0);
    }

    /// A copy-on-write clone keeps its original's generation, so cloning a
    /// promoted block inside a level charges nothing young: no minor
    /// collection falls due that could free none of it.
    #[test]
    fn a_clone_of_an_old_block_is_not_charged_as_young() {
        let mut heap = small_heap();
        let array = heap.alloc_array(1000, Word::Int(1)).unwrap();
        heap.gc_major(&[Word::Ptr(array)]);
        assert_eq!(
            heap.block(array).unwrap().header.generation,
            Generation::Old
        );
        let young = heap.young_bytes();
        heap.spec_enter();
        heap.store(array, 0, Word::Int(2)).unwrap();
        assert_eq!(heap.stats().cow_clones, 1);
        assert_eq!(heap.young_bytes(), young);
        assert_eq!(heap.gc_due(), None);
    }

    #[test]
    fn old_blocks_keep_young_blocks_they_reference() {
        let mut heap = small_heap();
        let holder = heap.alloc_tuple(vec![Word::Unit]).unwrap();
        // Promote `holder` to the old generation.
        heap.gc_minor(&[Word::Ptr(holder)]);
        // Allocate a young block referenced only from the old block.
        let young = heap.alloc_array(4, Word::Int(9)).unwrap();
        heap.store(holder, 0, Word::Ptr(young)).unwrap();
        // No direct root for `young`: tracing the old `holder` keeps it.
        heap.gc_minor(&[Word::Ptr(holder)]);
        assert_eq!(heap.load(young, 0).unwrap(), Word::Int(9));
    }

    /// A store inside a level clones the old holder into a new slot, and
    /// the commit discards the original: the clone, not the original, is
    /// what references the young block from then on.
    #[test]
    fn a_committed_clone_keeps_the_young_block_it_references() {
        let mut heap = small_heap();
        let holder = heap.alloc_tuple(vec![Word::Unit, Word::Unit]).unwrap();
        heap.gc_minor(&[Word::Ptr(holder)]);
        let young = heap.alloc_array(4, Word::Int(9)).unwrap();
        heap.store(holder, 0, Word::Ptr(young)).unwrap();
        let level = heap.spec_enter();
        heap.store(holder, 1, Word::Int(1)).unwrap();
        heap.spec_commit(level).unwrap();
        // No root at all: `holder` survives as an old block.
        heap.gc_minor(&[]);
        assert_eq!(heap.load(holder, 0).unwrap(), Word::Ptr(young));
        assert_eq!(heap.load(young, 0).unwrap(), Word::Int(9));
        let next = heap.alloc_array(1, Word::Int(-1)).unwrap();
        assert_ne!(next, young, "the young block's index was reused");
    }

    #[test]
    fn maybe_gc_triggers_on_thresholds() {
        let mut heap = Heap::with_config(HeapConfig {
            minor_threshold_bytes: 2_000,
            major_threshold_bytes: 1 << 30,
            max_alloc: 1 << 20,
        });
        let mut last = None;
        for _ in 0..100 {
            let p = heap.alloc_array(16, Word::Int(0)).unwrap();
            last = Some(p);
            if let Some(kind) = heap.maybe_gc(&[Word::Ptr(p)]) {
                assert_eq!(kind, GcKind::Minor);
                break;
            }
        }
        assert!(heap.stats().minor_collections >= 1);
        assert!(last.is_some());
    }

    #[test]
    fn speculation_originals_survive_major_gc_and_rollback_still_works() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(32, Word::Int(1)).unwrap();
        let before = heap.snapshot();
        let level = heap.spec_enter();
        heap.store(arr, 0, Word::Int(99)).unwrap();

        // Major GC with only the array as root: the preserved original (kept
        // solely by the checkpoint record) must not be collected, and
        // compaction must keep the record's slot reference coherent.
        let _garbage = heap.alloc_raw(4096).unwrap();
        heap.gc_major(&[Word::Ptr(arr)]);

        heap.spec_rollback(level).unwrap();
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(1));
        assert_eq!(heap.snapshot(), before);
    }

    #[test]
    fn speculative_clone_survives_gc_and_commit_applies() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(8, Word::Int(0)).unwrap();
        let level = heap.spec_enter();
        heap.store(arr, 3, Word::Int(42)).unwrap();
        heap.gc_major(&[Word::Ptr(arr)]);
        heap.spec_commit(level).unwrap();
        assert_eq!(heap.load(arr, 3).unwrap(), Word::Int(42));
    }

    /// The old collector's reachability, kept literally as the oracle: a
    /// set of marked slots grown from a worklist, with each block's
    /// references collected — from every element it reads back, whatever
    /// its stored form — before they are followed.  A minor collection
    /// never frees an old block, so it seeds from every one of them.
    /// Returns the blocks a collection must free, as `(slot, index)` in
    /// slot order.
    fn reference_dead(heap: &Heap, roots: &[Word], minor: bool) -> Vec<(usize, PtrIdx)> {
        let table = &heap.table;
        let mut seeds: Vec<usize> = roots
            .iter()
            .filter_map(|w| table.lookup(w.as_ptr()?))
            .collect();
        for level in &heap.spec_levels {
            for (ptr, orig_slot) in &level.saved {
                seeds.push(*orig_slot);
                seeds.extend(table.lookup(*ptr));
            }
            seeds.extend(level.allocated.iter().filter_map(|ptr| table.lookup(*ptr)));
        }
        if minor {
            seeds.extend(heap.blocks.iter().enumerate().filter_map(|(slot, block)| {
                (block.as_ref()?.header.generation == Generation::Old).then_some(slot)
            }));
        }
        let mut marked = BTreeSet::new();
        let mut work: Vec<usize> = seeds.into_iter().filter(|s| marked.insert(*s)).collect();
        while let Some(slot) = work.pop() {
            let Some(block) = &heap.blocks[slot] else {
                continue;
            };
            let refs: Vec<PtrIdx> = match block.as_words() {
                Some(words) => words.iter().filter_map(|w| w.as_ptr()).collect(),
                None => Vec::new(),
            };
            for ptr in refs {
                if let Some(s) = table.lookup(ptr) {
                    if marked.insert(s) {
                        work.push(s);
                    }
                }
            }
        }
        heap.blocks
            .iter()
            .enumerate()
            .filter_map(|(slot, block)| {
                let block = block.as_ref()?;
                let candidate = !minor || block.header.generation == Generation::Young;
                (candidate && !marked.contains(&slot)).then_some((slot, block.header.index))
            })
            .collect()
    }

    /// Collect `heap` and check it against [`reference_dead`]: the blocks
    /// freed, the order their indices return to the pointer table (read back
    /// by allocating: the free list hands out the last index freed first),
    /// no mark bit left set, and — for a major collection — compaction to
    /// the rank of each surviving slot in the table and the speculation
    /// records.
    fn checked_gc(heap: &mut Heap, roots: &[Word], major: bool) {
        let dead = reference_dead(heap, roots, !major);
        let dead_slots: BTreeSet<usize> = dead.iter().map(|(slot, _)| *slot).collect();
        let survivors: Vec<usize> = (0..heap.blocks.len())
            .filter(|slot| heap.blocks[*slot].is_some() && !dead_slots.contains(slot))
            .collect();
        let table: Vec<(PtrIdx, usize)> = heap
            .table
            .iter_used()
            .filter(|(_, slot)| !dead_slots.contains(slot))
            .collect();
        let saved: Vec<Vec<(PtrIdx, usize)>> = heap
            .spec_levels
            .iter()
            .map(|level| level.saved.iter().map(|(p, s)| (*p, *s)).collect())
            .collect();
        let collected = heap.stats.blocks_collected;

        if major {
            heap.gc_major(roots);
        } else {
            heap.gc_minor(roots);
        }

        assert_eq!(heap.stats.blocks_collected - collected, dead.len() as u64);
        assert!(heap.blocks.iter().flatten().all(|b| !b.header.marked));
        let mut probe = heap.clone();
        let mut reused: Vec<PtrIdx> = dead
            .iter()
            .map(|_| probe.alloc_array(1, Word::Unit).unwrap())
            .collect();
        reused.reverse();
        let freed: Vec<PtrIdx> = dead.iter().map(|(_, ptr)| *ptr).collect();
        assert_eq!(reused, freed, "free order");

        let new_slot = |slot: usize| {
            if major {
                survivors.binary_search(&slot).expect("a survivor")
            } else {
                slot
            }
        };
        for (ptr, slot) in table {
            assert_eq!(heap.table.lookup(ptr), Some(new_slot(slot)), "{ptr}");
        }
        for (level, saved) in heap.spec_levels.iter().zip(saved) {
            let want: Vec<(PtrIdx, usize)> =
                saved.iter().map(|(p, s)| (*p, new_slot(*s))).collect();
            let got: Vec<(PtrIdx, usize)> = level.saved.iter().map(|(p, s)| (*p, *s)).collect();
            assert_eq!(got, want);
        }
    }

    /// Apply one generated step to `heap`; `handles` are every index ever
    /// allocated, and operands are picked among the live ones: a stale
    /// pointer whose index is reused would be an old-to-young edge no
    /// program can store.  Pointer stores get three of the fourteen ops,
    /// so open levels hold preserved originals and promoted blocks point
    /// at young ones.  Arrays start as `Int` or `Float` columns (the
    /// collector never reads them) or as pointer arrays; a pointer store
    /// into a column converts it, and op 12 does so to a column a minor
    /// collection has just promoted.  Op 13 stores a young pointer into a
    /// promoted block, then commits a level that cloned the block, so the
    /// clone in a new slot is what holds the pointer.
    fn step(heap: &mut Heap, handles: &mut Vec<PtrIdx>, (op, a, b, x): (u8, usize, usize, u64)) {
        let live: Vec<PtrIdx> = handles
            .iter()
            .filter(|p| heap.table.is_valid(**p))
            .copied()
            .collect();
        let handle = |i: usize| live.get(i % live.len().max(1)).copied();
        let all: Vec<Word> = handles.iter().map(|p| Word::Ptr(*p)).collect();
        match op {
            0 => handles.push(
                heap.alloc_array((x % 5 + 1) as i64, Word::Int(x as i64))
                    .unwrap(),
            ),
            1 => {
                let words = handle(a).map(Word::Ptr).into_iter().chain([Word::Int(1)]);
                handles.push(heap.alloc_tuple(words.collect()).unwrap());
            }
            2 => handles.push(heap.alloc_raw(16).unwrap()),
            3 | 8 | 9 => {
                if let (Some(from), Some(to)) = (handle(a), handle(b)) {
                    let _ = heap.store(from, (x % 4) as i64, Word::Ptr(to));
                }
            }
            4 if heap.spec_depth() < 3 => {
                heap.spec_enter();
            }
            5 if heap.spec_depth() > 0 => {
                heap.spec_commit(x as usize % heap.spec_depth() + 1)
                    .unwrap();
            }
            6 if heap.spec_depth() > 0 => {
                heap.spec_rollback(x as usize % heap.spec_depth() + 1)
                    .unwrap();
            }
            7 => {
                let roots = rooted(handles, x >> 1);
                checked_gc(heap, &roots, x & 1 == 1);
            }
            10 => handles.push(
                heap.alloc_array((x % 40 + 1) as i64, Word::Float(x as f64))
                    .unwrap(),
            ),
            11 => {
                let init = handle(a).map_or(Word::Unit, Word::Ptr);
                handles.push(heap.alloc_array((x % 5 + 1) as i64, init).unwrap());
            }
            12 => {
                let column = |p: &PtrIdx| {
                    let words = heap.block(*p).ok().and_then(|b| b.as_words());
                    words.is_some_and(|w| w.column_tag().is_some())
                };
                let columns: Vec<PtrIdx> = live.iter().filter(|p| column(p)).copied().collect();
                if let (Some(&from), Some(to)) = (columns.get(a % columns.len().max(1)), handle(b))
                {
                    checked_gc(heap, &all, false);
                    let converted = heap.stats().column_conversions;
                    heap.store(from, 0, Word::Ptr(to)).unwrap();
                    assert_eq!(heap.stats().column_conversions, converted + 1);
                }
            }
            13 => {
                let pair = |p: &PtrIdx| {
                    let words = heap.block(*p).ok().and_then(|b| b.as_words());
                    words.is_some_and(|w| w.len() >= 2)
                };
                let holders: Vec<PtrIdx> = live.iter().filter(|p| pair(p)).copied().collect();
                if let Some(&holder) = holders.get(a % holders.len().max(1)) {
                    checked_gc(heap, &all, false);
                    let young = heap
                        .alloc_array((x % 5 + 1) as i64, Word::Int(x as i64))
                        .unwrap();
                    handles.push(young);
                    heap.store(holder, 0, Word::Ptr(young)).unwrap();
                    let level = heap.spec_enter();
                    let young_bytes = heap.young_bytes();
                    heap.store(holder, 1, Word::Int(x as i64)).unwrap();
                    // The promoted holder's clone is old: nothing young.
                    assert_eq!(heap.young_bytes(), young_bytes);
                    heap.spec_commit(level).unwrap();
                }
            }
            _ => {}
        }
    }

    /// The handles whose bit is set in `mask` (cycling), as root words.
    fn rooted(handles: &[PtrIdx], mask: u64) -> Vec<Word> {
        handles
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
            .map(|(_, ptr)| Word::Ptr(*ptr))
            .collect()
    }

    proptest! {
        /// On random heaps with open speculation levels, committed clones
        /// of promoted blocks, free slots, numeric columns, pointer arrays
        /// and converted columns, every minor and major collection
        /// frees exactly what the old set-based reachability frees, in the
        /// same order, leaves no mark bit set and compacts to the same
        /// slots.
        #[test]
        fn collections_match_the_set_based_reference(
            steps in proptest::collection::vec((0u8..14, 0usize..48, 0usize..48, any::<u64>()), 1..48),
            mask in any::<u64>(),
        ) {
            let mut heap = Heap::new();
            let mut handles = Vec::new();
            for s in steps {
                step(&mut heap, &mut handles, s);
            }
            let roots = rooted(&handles, mask);
            checked_gc(&mut heap.clone(), &roots, false);
            checked_gc(&mut heap, &roots, true);
        }
    }

    #[test]
    fn gc_reclaims_bytes() {
        let mut heap = Heap::new();
        for _ in 0..100 {
            let _ = heap.alloc_raw(1024).unwrap();
        }
        let before = heap.live_bytes();
        heap.gc_major(&[]);
        assert!(heap.live_bytes() < before);
        assert_eq!(heap.live_blocks(), 0);
        assert!(heap.stats().blocks_collected >= 100);
    }
}
