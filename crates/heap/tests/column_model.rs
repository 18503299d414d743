//! Model test for the two stored forms of a word block.
//!
//! An `Array` allocated with an `Int` or `Float` initialiser is kept as a
//! numeric column (its tag once, its 8-byte payloads); a store of any
//! other tag converts it, once and for good, to the tagged form.  The
//! [`Model`] knows nothing of columns: every block is a `Vec<Word>`, with
//! the payload holders counted as `Arc::strong_count` would count them.
//! Random sequences of allocations with every initialiser tag, stores of a
//! block's own tag and of foreign ones, loads, freezes with stores after
//! them, speculation levels entered, committed and rolled back, and minor
//! and major collections run on both.  After every step the heap must
//! agree with the model on every load, every block length, `live_bytes`,
//! the collection count, the copy-on-write and payload-copy counters —
//! and on each block's form, which the model derives from the history:
//! numeric at allocation, tagged from the first foreign store on.
//!
//! Reachability is not modelled: after a collection the model learns
//! which indices the collector freed from the heap itself.

use mojave_heap::{Heap, HeapSnapshot, Numeric, PtrIdx, Word, HEADER_OVERHEAD_BYTES};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate an array of `len` words initialised with a word of `tag`.
    Alloc {
        tag: u8,
        len: usize,
        bits: u64,
    },
    /// Store into a live array: a word of the block's own numeric tag when
    /// `own`, else one of `tag`.
    Store {
        target: usize,
        index: usize,
        own: bool,
        tag: u8,
        bits: u64,
    },
    Load {
        target: usize,
        index: usize,
    },
    /// Take a snapshot and hold it (dropping the one held before).
    Freeze,
    Thaw,
    Enter,
    Commit(usize),
    Rollback(usize),
    /// Collect with every live block whose index is not ≡ `skip` (mod 3)
    /// as a root.
    Gc {
        major: bool,
        skip: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let store = (0usize..64, 0usize..128, any::<bool>(), 0u8..7, any::<u64>()).prop_map(
        |(target, index, own, tag, bits)| Op::Store {
            target,
            index,
            own,
            tag,
            bits,
        },
    );
    prop_oneof![
        (0u8..7, 0usize..101, any::<u64>()).prop_map(|(tag, len, bits)| Op::Alloc {
            tag,
            len,
            bits
        }),
        store.clone(),
        store,
        (0usize..64, 0usize..128).prop_map(|(target, index)| Op::Load { target, index }),
        (0usize..1).prop_map(|_| Op::Freeze),
        (0usize..1).prop_map(|_| Op::Thaw),
        (0usize..1).prop_map(|_| Op::Enter),
        (0usize..4).prop_map(Op::Commit),
        (0usize..4).prop_map(Op::Rollback),
        (any::<bool>(), 0u32..3).prop_map(|(major, skip)| Op::Gc { major, skip }),
    ]
}

/// A word of `tag` (the `to_raw` tag numbering) made from `bits`; a
/// pointer refers to one of `live`, or is `Unit` when none is.
fn word_of(tag: u8, bits: u64, live: &[PtrIdx]) -> Word {
    match tag {
        1 => Word::Int(bits as i64),
        2 => Word::Float(f64::from_bits(bits)),
        3 => Word::Bool(bits & 1 == 1),
        4 => Word::Char(char::from_u32((bits % 0xD000) as u32).expect("below the surrogates")),
        5 if !live.is_empty() => Word::Ptr(live[bits as usize % live.len()]),
        6 => Word::Fun(bits as u32),
        _ => Word::Unit,
    }
}

/// A payload's identity, for counting its holders.
type PayloadId = u64;

/// One block as the model sees it: its words, its payload, and the form
/// the heap must keep it in.
#[derive(Debug, Clone)]
struct ModelBlock {
    words: Vec<Word>,
    payload: PayloadId,
    column: Option<Numeric>,
}

#[derive(Debug, Default)]
struct ModelLevel {
    saved: BTreeMap<PtrIdx, ModelBlock>,
    allocated: HashSet<PtrIdx>,
}

#[derive(Debug, Default)]
struct Model {
    view: BTreeMap<PtrIdx, ModelBlock>,
    levels: Vec<ModelLevel>,
    refs: HashMap<PayloadId, usize>,
    next_payload: PayloadId,
    frozen: Vec<PayloadId>,
    collections: u64,
    cow_clones: u64,
    shared_payload_copies: u64,
    column_conversions: u64,
}

impl Model {
    fn fresh_payload(&mut self) -> PayloadId {
        self.next_payload += 1;
        self.refs.insert(self.next_payload, 1);
        self.next_payload
    }

    fn release(&mut self, payload: PayloadId) {
        *self.refs.get_mut(&payload).expect("known payload") -= 1;
    }

    fn alloc(&mut self, ptr: PtrIdx, init: Word, len: usize) {
        let payload = self.fresh_payload();
        let column = Numeric::of(init).map(|(tag, _)| tag);
        let words = vec![init; len];
        self.view.insert(
            ptr,
            ModelBlock {
                words,
                payload,
                column,
            },
        );
        if let Some(top) = self.levels.last_mut() {
            top.allocated.insert(ptr);
        }
    }

    /// A store of `value` at `index` of `ptr`: a copy-on-write clone first
    /// if the top level neither preserves nor allocated the block, a
    /// payload copy if anything else still holds the payload, then the
    /// write — converting a column `value` is not of.
    fn store(&mut self, ptr: PtrIdx, index: usize, value: Word) {
        let current = self.view[&ptr].clone();
        if let Some(top) = self.levels.last_mut() {
            if !top.saved.contains_key(&ptr) && !top.allocated.contains(&ptr) {
                *self.refs.get_mut(&current.payload).expect("known payload") += 1;
                top.saved.insert(ptr, current.clone());
                self.cow_clones += 1;
            }
        }
        if self.refs[&current.payload] > 1 {
            self.shared_payload_copies += 1;
            self.release(current.payload);
            let private = self.fresh_payload();
            self.view.get_mut(&ptr).expect("live").payload = private;
        }
        let block = self.view.get_mut(&ptr).expect("live");
        if block.column.is_some() && Numeric::of(value).map(|(tag, _)| tag) != block.column {
            block.column = None;
            self.column_conversions += 1;
        }
        block.words[index] = value;
    }

    fn free(&mut self, ptr: PtrIdx) {
        if let Some(block) = self.view.remove(&ptr) {
            self.release(block.payload);
        }
    }

    fn commit(&mut self, level: usize) {
        let record = self.levels.remove(level - 1);
        for (ptr, original) in record.saved {
            let parent = level.checked_sub(2).map(|i| &mut self.levels[i]);
            match parent {
                Some(parent) if !parent.saved.contains_key(&ptr) => {
                    parent.saved.insert(ptr, original);
                }
                _ => self.release(original.payload),
            }
        }
        if level >= 2 {
            self.levels[level - 2].allocated.extend(record.allocated);
        }
    }

    fn rollback(&mut self, level: usize) {
        while self.levels.len() >= level {
            let record = self.levels.pop().expect("level count checked");
            for (ptr, original) in record.saved {
                let current = self.view.insert(ptr, original).expect("preserved is live");
                self.release(current.payload);
            }
            for ptr in record.allocated {
                self.free(ptr);
            }
        }
    }

    /// What the heap's blocks occupy: every live block, and every original
    /// an open level preserves.
    fn live_bytes(&self) -> usize {
        let size = |b: &ModelBlock| HEADER_OVERHEAD_BYTES + 8 * b.words.len();
        let preserved = self.levels.iter().flat_map(|l| l.saved.values());
        self.view.values().chain(preserved).map(size).sum()
    }
}

#[derive(Debug, Default)]
struct Pair {
    heap: Heap,
    model: Model,
    held: Option<HeapSnapshot>,
}

impl Pair {
    fn live(&self) -> Vec<PtrIdx> {
        self.model.view.keys().copied().collect()
    }

    fn step(&mut self, op: Op) {
        let live = self.live();
        match op {
            Op::Alloc { tag, len, bits } => {
                let init = word_of(tag, bits, &live);
                let ptr = self.heap.alloc_array(len as i64, init).unwrap();
                self.model.alloc(ptr, init, len);
            }
            Op::Store {
                target,
                index,
                own,
                tag,
                bits,
            } if !live.is_empty() => {
                let ptr = live[target % live.len()];
                let len = self.model.view[&ptr].words.len();
                let tag = match self.model.view[&ptr].column {
                    Some(numeric) if own => numeric.raw_tag(),
                    _ => tag,
                };
                let value = word_of(tag, bits, &live);
                if index >= len {
                    assert!(self.heap.store(ptr, index as i64, value).is_err());
                } else {
                    self.heap.store(ptr, index as i64, value).unwrap();
                    self.model.store(ptr, index, value);
                }
            }
            Op::Load { target, index } if !live.is_empty() => {
                let ptr = live[target % live.len()];
                let got = self.heap.load(ptr, index as i64);
                match self.model.view[&ptr].words.get(index) {
                    Some(want) => assert!(got.unwrap().bitwise_eq(want), "{ptr}[{index}]"),
                    None => assert!(got.is_err(), "{ptr}[{index}] is out of bounds"),
                }
            }
            Op::Freeze => {
                self.thaw();
                self.held = Some(self.heap.freeze());
                let payloads: Vec<PayloadId> =
                    self.model.view.values().map(|b| b.payload).collect();
                for payload in payloads {
                    *self.model.refs.get_mut(&payload).expect("known payload") += 1;
                    self.model.frozen.push(payload);
                }
            }
            Op::Thaw => self.thaw(),
            Op::Enter => {
                self.heap.spec_enter();
                self.model.levels.push(ModelLevel::default());
            }
            Op::Commit(level) if !self.model.levels.is_empty() => {
                let level = 1 + level % self.model.levels.len();
                self.heap.spec_commit(level).unwrap();
                self.model.commit(level);
            }
            Op::Rollback(level) if !self.model.levels.is_empty() => {
                let level = 1 + level % self.model.levels.len();
                self.heap.spec_rollback(level).unwrap();
                self.model.rollback(level);
            }
            Op::Gc { major, skip } => {
                let roots: Vec<Word> = live
                    .iter()
                    .filter(|ptr| ptr.0 % 3 != skip)
                    .map(|ptr| Word::Ptr(*ptr))
                    .collect();
                if major {
                    self.heap.gc_major(&roots);
                } else {
                    self.heap.gc_minor(&roots);
                }
                self.model.collections += 1;
                for ptr in live {
                    if !self.heap.pointer_table().is_valid(ptr) {
                        assert!(!roots.contains(&Word::Ptr(ptr)), "a root was freed");
                        self.model.free(ptr);
                    }
                }
            }
            Op::Store { .. } | Op::Load { .. } | Op::Commit(_) | Op::Rollback(_) => {}
        }
        self.check();
    }

    fn thaw(&mut self) {
        self.held = None;
        for payload in std::mem::take(&mut self.model.frozen) {
            self.model.release(payload);
        }
    }

    fn check(&self) {
        let (heap, model) = (&self.heap, &self.model);
        assert_eq!(heap.live_blocks(), model.view.len());
        for (ptr, block) in &model.view {
            assert_eq!(heap.block_len(*ptr).unwrap(), block.words.len(), "{ptr}");
            for (i, want) in block.words.iter().enumerate() {
                let got = heap.load(*ptr, i as i64).unwrap();
                assert!(got.bitwise_eq(want), "{ptr}[{i}]: {got:?} vs {want:?}");
            }
            let words = heap.block(*ptr).unwrap().as_words().expect("an array");
            assert_eq!(words.column_tag(), block.column, "{ptr}'s form");
        }
        assert_eq!(heap.live_bytes(), model.live_bytes());
        let stats = heap.stats();
        assert_eq!(stats.total_collections(), model.collections);
        assert_eq!(stats.cow_clones, model.cow_clones);
        assert_eq!(stats.shared_payload_copies, model.shared_payload_copies);
        assert_eq!(stats.column_conversions, model.column_conversions);
    }
}

fn run(ops: &[Op]) -> Pair {
    let mut pair = Pair::default();
    for op in ops {
        pair.step(*op);
    }
    pair
}

proptest! {
    #[test]
    fn both_block_forms_match_the_word_model(
        ops in proptest::collection::vec(op_strategy(), 1..100)
    ) {
        run(&ops);
    }
}

/// A store of the column's own tag after a freeze copies the column once
/// and keeps it a column; a foreign store after the next freeze is that
/// freeze's one copy and the one conversion.
#[test]
fn stores_after_a_freeze_copy_once_and_convert_once() {
    let store = |own, tag, index| Op::Store {
        target: 0,
        index,
        own,
        tag,
        bits: 9,
    };
    let pair = run(&[
        Op::Alloc {
            tag: 2,
            len: 33,
            bits: 0,
        },
        Op::Freeze,
        store(true, 0, 1),
        store(true, 0, 32),
        Op::Freeze,
        store(false, 5, 0),
        store(false, 1, 2),
    ]);
    let stats = pair.heap.stats();
    assert_eq!(stats.shared_payload_copies, 2);
    assert_eq!(stats.column_conversions, 1);
    let block = pair.heap.block(PtrIdx(0)).unwrap();
    assert_eq!(block.as_words().unwrap().column_tag(), None);
}

/// A rollback restores the column a level's clone converted.
#[test]
fn rollback_restores_the_column_a_clone_converted() {
    let pair = run(&[
        Op::Alloc {
            tag: 1,
            len: 4,
            bits: 3,
        },
        Op::Enter,
        Op::Store {
            target: 0,
            index: 3,
            own: false,
            tag: 3,
            bits: 1,
        },
        Op::Rollback(0),
    ]);
    let block = pair.heap.block(PtrIdx(0)).unwrap();
    assert_eq!(block.as_words().unwrap().column_tag(), Some(Numeric::Int));
    assert_eq!(pair.heap.stats().column_conversions, 1);
}
