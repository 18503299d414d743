//! Copy-on-write checkpoint records for speculation levels (paper §4.3).
//!
//! "Speculation levels use copy-on-write semantics; when a block in the heap
//! is modified, the block is cloned and the pointer table updated to point to
//! the new copy of the block, preserving the data in the original block.  On
//! a commit or rollback operation, exactly one of these blocks will be
//! discarded."
//!
//! A [`SpecLevelRecord`] is the per-level checkpoint record that tracks the
//! preserved originals ("valid blocks in the heap whose pointer table entry
//! refers to a different block") and the blocks allocated inside the level
//! (which must be discarded if the level is rolled back).
//!
//! Neither collection is consulted by a store that needs no clone: whether
//! a block is already private to the top level is read off the block's own
//! stamp (`stamp >= enter_epoch`, see [`crate::Heap::store`]).

use crate::pointer_table::PtrIdx;
use std::collections::btree_map::{BTreeMap, Entry};

/// Checkpoint record for one open speculation level.
#[derive(Debug, Clone, Default)]
pub struct SpecLevelRecord {
    /// The heap's speculation epoch when this level was entered.  Blocks
    /// stamped at or after it were cloned or allocated inside this level (or
    /// inside a level since folded into it) and need no further clone.
    pub(crate) enter_epoch: u64,
    /// For each pointer index first modified inside this level: the slot of
    /// the *original* block preserved at the moment of the first write.
    /// Ordered, so commit and rollback discard slots in the same order on
    /// every run.
    pub(crate) saved: BTreeMap<PtrIdx, usize>,
    /// Pointer indices allocated inside this level, in allocation order.
    pub(crate) allocated: Vec<PtrIdx>,
}

impl SpecLevelRecord {
    /// Number of blocks preserved by this level.
    pub fn saved_count(&self) -> usize {
        self.saved.len()
    }

    /// Number of distinct blocks allocated inside this level.
    pub fn allocated_count(&self) -> usize {
        let mut distinct = self.allocated.clone();
        distinct.sort_unstable();
        distinct.dedup();
        distinct.len()
    }

    /// Whether the level has recorded any state at all.
    pub fn is_empty(&self) -> bool {
        self.saved.is_empty() && self.allocated.is_empty()
    }

    pub(crate) fn note_allocation(&mut self, ptr: PtrIdx) {
        self.allocated.push(ptr);
    }

    /// Fold `child` (a younger, committed level) into `self`.
    ///
    /// Returns the slots whose preserved originals are no longer needed and
    /// should be freed by the caller: for every pointer the parent already
    /// preserves, the parent's copy is older and wins.
    pub(crate) fn absorb(&mut self, child: SpecLevelRecord) -> Vec<usize> {
        let mut discard = Vec::new();
        for (ptr, slot) in child.saved {
            match self.saved.entry(ptr) {
                Entry::Occupied(_) => discard.push(slot),
                Entry::Vacant(entry) => {
                    entry.insert(slot);
                }
            }
        }
        self.allocated.extend(child.allocated);
        discard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_allocation_deduplicates() {
        // Rollback frees by index and tolerates a repeat, so the list itself
        // is append-only; the reported count is of distinct blocks.
        let mut rec = SpecLevelRecord::default();
        rec.note_allocation(PtrIdx(3));
        rec.note_allocation(PtrIdx(3));
        rec.note_allocation(PtrIdx(4));
        assert_eq!(rec.allocated_count(), 2);
        assert!(!rec.is_empty());
    }

    #[test]
    fn absorb_prefers_parent_copy() {
        let mut parent = SpecLevelRecord::default();
        parent.saved.insert(PtrIdx(1), 100);
        let mut child = SpecLevelRecord::default();
        child.saved.insert(PtrIdx(1), 200); // newer copy — discarded
        child.saved.insert(PtrIdx(2), 300); // new to the parent — kept
        child.note_allocation(PtrIdx(9));

        let discard = parent.absorb(child);
        assert_eq!(discard, vec![200]);
        assert_eq!(parent.saved[&PtrIdx(1)], 100);
        assert_eq!(parent.saved[&PtrIdx(2)], 300);
        assert_eq!(parent.allocated, vec![PtrIdx(9)]);
    }

    #[test]
    fn empty_record_reports_empty() {
        let rec = SpecLevelRecord::default();
        assert!(rec.is_empty());
        assert_eq!(rec.saved_count(), 0);
    }
}
