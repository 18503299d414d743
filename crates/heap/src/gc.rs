//! The generational mark-sweep compacting collector (paper §4).
//!
//! Two phases, exactly as the paper describes:
//!
//! * a **minor** collection that is fast and eliminates blocks with short
//!   live ranges — only young-generation blocks are candidates; old blocks
//!   that may point into the young generation are found through the
//!   remembered set maintained by the store write barrier;
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

use crate::block::Generation;
use crate::heap::Heap;
use crate::pointer_table::PtrIdx;
use crate::word::Word;
use std::collections::HashSet;

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

    /// Pointer-table indices that must be treated as roots because of open
    /// speculation levels: both the preserved originals (reachable only
    /// through checkpoint records) and the current clones the table points
    /// at.
    fn speculation_root_slots(&self) -> Vec<usize> {
        let mut slots = Vec::new();
        for level in &self.spec_levels {
            for (ptr, orig_slot) in &level.saved {
                slots.push(*orig_slot);
                if let Some(cur) = self.table.lookup(*ptr) {
                    slots.push(cur);
                }
            }
            for ptr in &level.allocated {
                if let Some(cur) = self.table.lookup(*ptr) {
                    slots.push(cur);
                }
            }
        }
        slots
    }

    /// Mark every block reachable from `roots` plus the speculation roots.
    /// Returns the set of marked slots.
    fn mark(&mut self, roots: &[Word]) -> HashSet<usize> {
        let mut marked: HashSet<usize> = HashSet::new();
        let mut worklist: Vec<usize> = Vec::new();

        let push_ptr = |table: &crate::pointer_table::PointerTable,
                        marked: &mut HashSet<usize>,
                        worklist: &mut Vec<usize>,
                        ptr: PtrIdx| {
            if let Some(slot) = table.lookup(ptr) {
                if marked.insert(slot) {
                    worklist.push(slot);
                }
            }
        };

        for root in roots {
            if let Some(ptr) = root.as_ptr() {
                push_ptr(&self.table, &mut marked, &mut worklist, ptr);
            }
        }
        for slot in self.speculation_root_slots() {
            if marked.insert(slot) {
                worklist.push(slot);
            }
        }

        while let Some(slot) = worklist.pop() {
            let refs: Vec<PtrIdx> = match &self.blocks[slot] {
                Some(block) => block.referenced_ptrs().collect(),
                None => continue,
            };
            for ptr in refs {
                push_ptr(&self.table, &mut marked, &mut worklist, ptr);
            }
        }

        for &slot in &marked {
            if let Some(b) = self.blocks[slot].as_mut() {
                b.header.marked = true;
            }
        }
        marked
    }

    fn clear_marks(&mut self) {
        for block in self.blocks.iter_mut().flatten() {
            block.header.marked = false;
        }
    }

    /// Minor collection: collect unreachable *young* blocks.
    ///
    /// Old blocks are conservatively assumed live; pointers from old blocks
    /// into the young generation are covered by the remembered set.
    pub fn gc_minor(&mut self, roots: &[Word]) {
        // Extended root set: mutator roots + every old block in the
        // remembered set (we trace through them to find live young blocks).
        let mut marked = self.mark(roots);
        let remembered: Vec<usize> = self.remembered.iter().copied().collect();
        let mut worklist = Vec::new();
        for slot in remembered {
            if self.blocks[slot].is_some() && marked.insert(slot) {
                worklist.push(slot);
            }
        }
        while let Some(slot) = worklist.pop() {
            let refs: Vec<PtrIdx> = match &self.blocks[slot] {
                Some(block) => block.referenced_ptrs().collect(),
                None => continue,
            };
            for ptr in refs {
                if let Some(s) = self.table.lookup(ptr) {
                    if marked.insert(s) {
                        worklist.push(s);
                    }
                }
            }
        }

        // Sweep young, unmarked blocks; promote young survivors.
        let mut to_free: Vec<PtrIdx> = Vec::new();
        for (slot, maybe_block) in self.blocks.iter_mut().enumerate() {
            if let Some(block) = maybe_block {
                match block.header.generation {
                    Generation::Young => {
                        if marked.contains(&slot) {
                            block.header.generation = Generation::Old;
                        } else {
                            to_free.push(block.header.index);
                        }
                    }
                    Generation::Old => {}
                }
            }
        }
        let freed = to_free.len() as u64;
        for ptr in to_free {
            // A young unmarked block might still be the preserved original of
            // a speculation record whose table entry points elsewhere; those
            // slots were added to the mark set above, so anything unmarked
            // here is genuinely dead.
            self.free_young_unmarked(ptr);
        }

        self.reset_after_gc();
        self.stats.minor_collections += 1;
        self.clear_marks();
        self.recorder.record(
            mojave_obs::EventKind::GcMinor,
            freed,
            self.table.live() as u64,
        );
    }

    /// Free a young block found dead by the minor collection.  The pointer
    /// table entry is only freed if it still refers to this block.
    fn free_young_unmarked(&mut self, ptr: PtrIdx) {
        self.free_block(ptr);
    }

    /// Major collection: full mark, sweep and sliding compaction.
    pub fn gc_major(&mut self, roots: &[Word]) {
        let marked = self.mark(roots);

        // Sweep: free every unmarked block.
        let dead: Vec<PtrIdx> = self
            .blocks
            .iter()
            .enumerate()
            .filter_map(|(slot, b)| match b {
                Some(block) if !marked.contains(&slot) => Some(block.header.index),
                _ => None,
            })
            .collect();
        // A preserved original's table entry points at its clone, so freeing
        // by index would free the wrong block.  Collect the slots that are
        // preserved originals so we can skip them here (they are marked
        // anyway via speculation_root_slots, so they never appear in `dead`).
        let freed = dead.len() as u64;
        for ptr in dead {
            self.free_block(ptr);
        }

        // Everything that survives a major collection is old.
        for block in self.blocks.iter_mut().flatten() {
            block.header.generation = Generation::Old;
        }

        self.compact();
        self.reset_after_gc();
        self.stats.major_collections += 1;
        self.clear_marks();
        self.recorder.record(
            mojave_obs::EventKind::GcMajor,
            freed,
            self.table.live() as u64,
        );
    }

    /// Sliding compaction: move every live block to the lowest free slot,
    /// preserving order (temporal locality), and rewrite the pointer table,
    /// speculation records and remembered set.
    fn compact(&mut self) {
        let mut target = 0usize;
        let len = self.blocks.len();
        let mut moved: Vec<(usize, usize)> = Vec::new(); // (from, to)
        for slot in 0..len {
            if self.blocks[slot].is_some() {
                if slot != target {
                    let block = self.blocks[slot].take();
                    self.blocks[target] = block;
                    moved.push((slot, target));
                }
                target += 1;
            }
        }
        self.blocks.truncate(target);
        self.free_slots.clear();

        if moved.is_empty() {
            return;
        }
        self.stats.blocks_compacted += moved.len() as u64;
        let remap: std::collections::HashMap<usize, usize> = moved.into_iter().collect();

        // Rewrite the pointer table.  The header back-reference tells us the
        // table entry, but under speculation an entry may point at a clone
        // while the original sits elsewhere — so instead of walking headers
        // we rewrite by old slot number.
        let updates: Vec<(PtrIdx, usize)> = self
            .table
            .iter_used()
            .filter_map(|(idx, slot)| remap.get(&slot).map(|new| (idx, *new)))
            .collect();
        for (idx, new_slot) in updates {
            self.table.relocate(idx, new_slot);
        }

        // Rewrite speculation checkpoint records.
        for level in &mut self.spec_levels {
            for slot in level.saved.values_mut() {
                if let Some(new) = remap.get(slot) {
                    *slot = *new;
                }
            }
        }

        // Rewrite the remembered set.
        let remembered = std::mem::take(&mut self.remembered);
        self.remembered = remembered
            .into_iter()
            .map(|slot| *remap.get(&slot).unwrap_or(&slot))
            .collect();
    }

    /// Recompute byte accounting after a collection, and fold the
    /// append-order dirty and freed lists down to the sets they stand for,
    /// so a process that allocates for days between clean points holds
    /// lists bounded by its table, not by its allocation count.
    fn reset_after_gc(&mut self) {
        self.dirty = self.sorted_dirty();
        self.freed_since_clean = self.sorted_freed();
        let live: usize = self.blocks.iter().flatten().map(|b| b.byte_size()).sum();
        self.live_bytes = live;
        self.young_bytes = self
            .blocks
            .iter()
            .flatten()
            .filter(|b| b.header.generation == Generation::Young)
            .map(|b| b.byte_size())
            .sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;

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

    #[test]
    fn remembered_set_keeps_young_blocks_referenced_from_old_ones() {
        let mut heap = small_heap();
        let holder = heap.alloc_tuple(vec![Word::Unit]).unwrap();
        // Promote `holder` to the old generation.
        heap.gc_minor(&[Word::Ptr(holder)]);
        // Allocate a young block referenced only from the old block.
        let young = heap.alloc_array(4, Word::Int(9)).unwrap();
        heap.store(holder, 0, Word::Ptr(young)).unwrap();
        // No direct root for `young`: only the remembered set keeps it alive.
        heap.gc_minor(&[Word::Ptr(holder)]);
        assert_eq!(heap.load(young, 0).unwrap(), Word::Int(9));
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
