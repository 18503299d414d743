//! The pointer table (paper §4.1.1).
//!
//! Source-level pointers are represented as (base + offset) pairs whose base
//! is an *index* into this table rather than a machine address.  The table
//! entry holds the current location of the block (here: its slot in the
//! block store).  This indirection buys three things:
//!
//! 1. **Safety** — validating a pointer read from the heap is two checks:
//!    the index is within the table, and the entry is not free.
//! 2. **Relocation** — the compacting collector and the migration unpacker
//!    move blocks freely and only have to rewrite table entries, never heap
//!    data.
//! 3. **Speculation** — copy-on-write clones a block and repoints the table
//!    entry at the clone; the original stays put and is recorded in the
//!    speculation checkpoint record.

use std::fmt;

/// An index into the pointer table — the runtime representation of a base
/// pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PtrIdx(pub u32);

impl fmt::Display for PtrIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One pointer-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// Free entry; holds the next free index to form an intrusive free list.
    Free { next: Option<u32> },
    /// Used entry pointing at a block slot.
    Used { slot: usize },
}

/// The pointer table.
#[derive(Debug, Clone, Default)]
pub struct PointerTable {
    entries: Vec<Entry>,
    free_head: Option<u32>,
    live: usize,
}

impl PointerTable {
    /// An empty table.
    pub fn new() -> Self {
        PointerTable::default()
    }

    /// A table of `capacity` entries whose used ones are `used` (strictly
    /// ascending, each below `capacity`), each pointing at the slot of its
    /// own number.  The free entries chain exactly as allocating every
    /// entry and then freeing the unused ones in ascending order would
    /// leave them: the highest free index is reused first.
    pub(crate) fn rebuild(capacity: usize, used: impl IntoIterator<Item = PtrIdx>) -> Self {
        let mut entries = Vec::with_capacity(capacity);
        let mut free_head = None;
        let mut free_below = |entries: &mut Vec<Entry>, end: usize| {
            for i in entries.len()..end {
                entries.push(Entry::Free { next: free_head });
                free_head = Some(i as u32);
            }
        };
        let mut live = 0;
        for idx in used {
            let slot = idx.0 as usize;
            debug_assert!(slot >= entries.len() && slot < capacity);
            free_below(&mut entries, slot);
            entries.push(Entry::Used { slot });
            live += 1;
        }
        free_below(&mut entries, capacity);
        PointerTable {
            entries,
            free_head,
            live,
        }
    }

    /// Total number of entries (free and used).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of used entries (== number of valid blocks, one of the paper's
    /// invariants: "every valid block in the heap has an entry allocated for
    /// it in the pointer table").
    pub fn live(&self) -> usize {
        self.live
    }

    /// Allocate an entry pointing at `slot`, reusing a free entry when one
    /// exists.
    pub fn allocate(&mut self, slot: usize) -> PtrIdx {
        self.live += 1;
        if let Some(free) = self.free_head {
            let idx = free as usize;
            match self.entries[idx] {
                Entry::Free { next } => {
                    self.free_head = next;
                    self.entries[idx] = Entry::Used { slot };
                    PtrIdx(free)
                }
                Entry::Used { .. } => unreachable!("free list points at a used entry"),
            }
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push(Entry::Used { slot });
            PtrIdx(idx)
        }
    }

    /// Release an entry back to the free list.
    ///
    /// Returns the slot it pointed to, or `None` if the entry was already
    /// free / out of range (double frees are reported, not panicked on, so
    /// the GC can assert on them).
    pub fn free(&mut self, idx: PtrIdx) -> Option<usize> {
        let i = idx.0 as usize;
        match self.entries.get(i).copied() {
            Some(Entry::Used { slot }) => {
                self.entries[i] = Entry::Free {
                    next: self.free_head,
                };
                self.free_head = Some(idx.0);
                self.live -= 1;
                Some(slot)
            }
            _ => None,
        }
    }

    /// Validate an index and return the slot it refers to.
    ///
    /// This is the check sequence of §4.1.1: "when an index i for a base
    /// pointer is read from the heap, i is checked against the size of the
    /// pointer table to verify if it is a valid index, then `T[i]` is read and
    /// checked to ensure it is not a free entry."
    #[inline]
    pub fn lookup(&self, idx: PtrIdx) -> Option<usize> {
        match self.entries.get(idx.0 as usize) {
            Some(Entry::Used { slot }) => Some(*slot),
            _ => None,
        }
    }

    /// Whether an index refers to a valid (used) entry.
    pub fn is_valid(&self, idx: PtrIdx) -> bool {
        self.lookup(idx).is_some()
    }

    /// Repoint an existing entry at a new slot (relocation by the compacting
    /// collector, copy-on-write cloning, or the migration unpacker).
    ///
    /// Returns the previous slot.
    pub fn relocate(&mut self, idx: PtrIdx, new_slot: usize) -> Option<usize> {
        let i = idx.0 as usize;
        match self.entries.get_mut(i) {
            Some(Entry::Used { slot }) => {
                let old = *slot;
                *slot = new_slot;
                Some(old)
            }
            _ => None,
        }
    }

    /// Repoint every used entry at `new_slot(its slot)` — the compacting
    /// collector's rewrite, one pass over the table.
    pub(crate) fn remap_slots(&mut self, new_slot: impl Fn(usize) -> usize) {
        for entry in &mut self.entries {
            if let Entry::Used { slot } = entry {
                *slot = new_slot(*slot);
            }
        }
    }

    /// Iterate over `(index, slot)` pairs of all used entries.
    pub fn iter_used(&self) -> impl Iterator<Item = (PtrIdx, usize)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Used { slot } => Some((PtrIdx(i as u32), *slot)),
                Entry::Free { .. } => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_free_cycle() {
        let mut t = PointerTable::new();
        let a = t.allocate(10);
        let b = t.allocate(20);
        assert_ne!(a, b);
        assert_eq!(t.lookup(a), Some(10));
        assert_eq!(t.lookup(b), Some(20));
        assert_eq!(t.live(), 2);

        assert_eq!(t.free(a), Some(10));
        assert_eq!(t.lookup(a), None);
        assert!(!t.is_valid(a));
        assert_eq!(t.live(), 1);

        // The freed entry is reused before the table grows.
        let c = t.allocate(30);
        assert_eq!(c, a);
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn double_free_reported_not_panicked() {
        let mut t = PointerTable::new();
        let a = t.allocate(1);
        assert!(t.free(a).is_some());
        assert!(t.free(a).is_none());
        assert!(t.free(PtrIdx(99)).is_none());
    }

    #[test]
    fn out_of_range_index_invalid() {
        let t = PointerTable::new();
        assert!(!t.is_valid(PtrIdx(0)));
        assert!(!t.is_valid(PtrIdx(u32::MAX)));
    }

    #[test]
    fn relocation_preserves_identity() {
        let mut t = PointerTable::new();
        let a = t.allocate(5);
        assert_eq!(t.relocate(a, 42), Some(5));
        assert_eq!(t.lookup(a), Some(42));
        assert_eq!(t.relocate(PtrIdx(9), 1), None);
    }

    /// A rebuilt table is the table allocating every entry and freeing the
    /// unused ones in ascending order leaves: same entries, same free-list
    /// order, so later allocations get the same indices.
    #[test]
    fn rebuild_matches_allocate_then_free() {
        for (capacity, used) in [
            (0, vec![]),
            (5, vec![]),
            (5, vec![0, 1, 2, 3, 4]),
            (9, vec![1, 2, 6]),
            (4, vec![3]),
        ] {
            let mut slow = PointerTable::new();
            for i in 0..capacity {
                slow.allocate(i as usize);
            }
            for i in (0..capacity).filter(|i| !used.contains(i)) {
                slow.free(PtrIdx(i));
            }
            let fast = PointerTable::rebuild(capacity as usize, used.iter().map(|&i| PtrIdx(i)));
            assert_eq!(fast.entries, slow.entries, "{capacity} {used:?}");
            assert_eq!(fast.free_head, slow.free_head);
            assert_eq!(fast.live, slow.live);
        }
    }

    #[test]
    fn iter_used_skips_free_entries() {
        let mut t = PointerTable::new();
        let a = t.allocate(0);
        let b = t.allocate(1);
        let c = t.allocate(2);
        t.free(b);
        let used: Vec<_> = t.iter_used().collect();
        assert_eq!(used, vec![(a, 0), (c, 2)]);
    }
}
