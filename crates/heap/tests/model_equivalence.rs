//! Model-based equivalence test for the heap's mutator bookkeeping.
//!
//! The heap decides "does this store need a copy-on-write clone?" from an
//! epoch stamp in the block header, and "is this block already listed
//! dirty?" from a clean epoch.  [`Model`] keeps the rule those stamps stand
//! for *literally* — a `saved` map and an `allocated` set per open level, a
//! dirty set and a freed set — together with a reference count per payload
//! (what `Arc::strong_count` reads), and every random step is applied to
//! both.  After each step the heap must agree with the model on its
//! program-visible content, its clone and payload-copy counters, and the
//! dirty and freed lists a delta image ships (read back out of the image).
//!
//! Reachability is not modelled: after a collection the model learns which
//! indices the collector freed from the heap itself, and applies the
//! bookkeeping rule for a free to each.

use mojave_heap::{BlockKind, Heap, HeapSnapshot, ImageKind, PtrIdx, Word};
use mojave_wire::{CodecSet, WireCodec, WireReader, WireWriter};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One mutator step; every operand is reduced modulo what is live when the
/// step runs, so any sequence is valid.
#[derive(Debug, Clone, Copy)]
enum Op {
    AllocArray(i64),
    AllocRaw(i64),
    /// Store an `Int`, or (every third `val`) a pointer to another block.
    Store {
        target: usize,
        index: usize,
        val: i64,
    },
    StoreRaw {
        target: usize,
        val: i64,
    },
    CopyRaw {
        src: usize,
        dst: usize,
    },
    Enter,
    Commit(usize),
    Rollback(usize),
    /// Collect with every live block whose index is not ≡ `skip` (mod 3)
    /// as a root.
    Gc {
        major: bool,
        skip: u32,
    },
    MarkClean,
    /// Take a snapshot and hold it (dropping the one held before).
    Freeze,
    /// Drop the held snapshot.
    Thaw,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1i64..6).prop_map(Op::AllocArray),
        (8i64..24).prop_map(Op::AllocRaw),
        (0usize..64, 0usize..8, -9i64..9).prop_map(|(target, index, val)| Op::Store {
            target,
            index,
            val
        }),
        (0usize..64, 0usize..8, -9i64..9).prop_map(|(target, index, val)| Op::Store {
            target,
            index,
            val
        }),
        (0usize..64, any::<i64>()).prop_map(|(target, val)| Op::StoreRaw { target, val }),
        (0usize..64, 0usize..64).prop_map(|(src, dst)| Op::CopyRaw { src, dst }),
        (0usize..1).prop_map(|_| Op::Enter),
        (0usize..4).prop_map(Op::Commit),
        (0usize..4).prop_map(Op::Rollback),
        (any::<bool>(), 0u32..3).prop_map(|(major, skip)| Op::Gc { major, skip }),
        (0usize..1).prop_map(|_| Op::MarkClean),
        (0usize..1).prop_map(|_| Op::Freeze),
        (0usize..1).prop_map(|_| Op::Thaw),
    ]
}

/// A payload's identity, for reference counting.
type Payload = u64;

/// A block's program-visible content as the model keeps it: its own words
/// or bytes, never the heap's stored form.
#[derive(Debug, Clone, PartialEq)]
enum Content {
    Words(Vec<Word>),
    Bytes(Vec<u8>),
}

impl Content {
    fn len(&self) -> usize {
        match self {
            Content::Words(words) => words.len(),
            Content::Bytes(bytes) => bytes.len(),
        }
    }
}

/// What one open level remembers, as sets.
#[derive(Debug, Default)]
struct ModelLevel {
    /// Content and payload of each block at its first write in this level.
    saved: BTreeMap<PtrIdx, (Content, Payload)>,
    allocated: HashSet<PtrIdx>,
    /// The program-visible state at `spec_enter`, less what a collection
    /// has freed since (unreachable blocks do not come back).
    view_at_enter: HashMap<u32, Content>,
}

/// The reference model: today's rule, kept as sets.
#[derive(Debug, Default)]
struct Model {
    /// Program-visible content and current payload per live index.
    view: BTreeMap<PtrIdx, (Content, Payload)>,
    levels: Vec<ModelLevel>,
    tracking: bool,
    dirty: BTreeSet<PtrIdx>,
    freed: BTreeSet<PtrIdx>,
    /// Holders per payload: blocks (current or preserved) and snapshots.
    refs: HashMap<Payload, usize>,
    next_payload: Payload,
    /// Payloads the held snapshot keeps alive.
    frozen: Vec<Payload>,
    cow_clones: u64,
    shared_payload_copies: u64,
}

impl Model {
    fn fresh_payload(&mut self) -> Payload {
        self.next_payload += 1;
        self.refs.insert(self.next_payload, 1);
        self.next_payload
    }

    fn release(&mut self, payload: Payload) {
        *self.refs.get_mut(&payload).expect("known payload") -= 1;
    }

    fn alloc(&mut self, ptr: PtrIdx, data: Content) {
        let payload = self.fresh_payload();
        self.view.insert(ptr, (data, payload));
        if self.tracking {
            self.dirty.insert(ptr);
            self.freed.remove(&ptr);
        }
        if let Some(top) = self.levels.last_mut() {
            top.allocated.insert(ptr);
        }
    }

    /// A mutation of `ptr`: clone first iff a level is open and its record
    /// neither preserves nor allocated the block; then the write un-shares
    /// the payload if anything else still holds it.
    fn write(&mut self, ptr: PtrIdx, mutate: impl FnOnce(&mut Content)) {
        let (data, payload) = self.view[&ptr].clone();
        if let Some(top) = self.levels.last_mut() {
            if !top.saved.contains_key(&ptr) && !top.allocated.contains(&ptr) {
                // The original keeps its hold; the clone adds one.
                top.saved.insert(ptr, (data, payload));
                *self.refs.get_mut(&payload).expect("known payload") += 1;
                self.cow_clones += 1;
            }
        }
        if self.tracking {
            self.dirty.insert(ptr);
        }
        if self.refs[&payload] > 1 {
            self.shared_payload_copies += 1;
            self.release(payload);
            let private = self.fresh_payload();
            self.view.get_mut(&ptr).expect("live").1 = private;
        }
        mutate(&mut self.view.get_mut(&ptr).expect("live").0);
    }

    fn free(&mut self, ptr: PtrIdx) {
        if let Some((_, payload)) = self.view.remove(&ptr) {
            self.release(payload);
            if self.tracking {
                self.dirty.remove(&ptr);
                self.freed.insert(ptr);
            }
        }
    }

    fn enter(&mut self, view_at_enter: HashMap<u32, Content>) {
        self.levels.push(ModelLevel {
            view_at_enter,
            ..ModelLevel::default()
        });
    }

    fn commit(&mut self, level: usize) {
        let record = self.levels.remove(level - 1);
        for (ptr, (data, payload)) in record.saved {
            // The oldest preserved copy wins; any other is discarded.
            let parent = level.checked_sub(2).map(|i| &mut self.levels[i]);
            match parent {
                Some(parent) if !parent.saved.contains_key(&ptr) => {
                    parent.saved.insert(ptr, (data, payload));
                }
                _ => self.release(payload),
            }
        }
        if level >= 2 {
            self.levels[level - 2].allocated.extend(record.allocated);
        }
    }

    /// Returns the state the heap must now show: the one at `spec_enter`.
    fn rollback(&mut self, level: usize) -> HashMap<u32, Content> {
        let mut restored = HashMap::new();
        while self.levels.len() >= level {
            let record = self.levels.pop().expect("level count checked");
            for (ptr, original) in record.saved {
                let (_, current) = self.view.insert(ptr, original).expect("preserved is live");
                self.release(current);
                if self.tracking {
                    self.dirty.insert(ptr);
                }
            }
            for ptr in record.allocated {
                self.free(ptr);
            }
            restored = record.view_at_enter;
        }
        restored
    }

    fn mark_clean(&mut self) {
        self.tracking = true;
        self.dirty.clear();
        self.freed.clear();
    }

    fn program_view(&self) -> HashMap<u32, Content> {
        self.view
            .iter()
            .map(|(ptr, (data, _))| (ptr.0, data.clone()))
            .collect()
    }
}

/// The heap under test, the model beside it, and the snapshot the test
/// holds (a live snapshot shares payloads with the heap).
#[derive(Debug, Default)]
struct Pair {
    heap: Heap,
    model: Model,
    held: Option<HeapSnapshot>,
}

/// The dirty records and freed fixups of the delta image `heap` would ship
/// now, in image order (empty when no clean point exists yet).  Images are
/// encoded from a freeze, and a freeze shares payloads in place, so this
/// freezes a clone: the payload ownership the model tracks is left alone.
fn shipped(heap: &Heap) -> (Vec<PtrIdx>, Vec<PtrIdx>) {
    if !heap.dirty_tracking_armed() {
        return (Vec::new(), Vec::new());
    }
    let mut w = WireWriter::new();
    heap.clone()
        .freeze()
        .image_records(ImageKind::Delta)
        .unwrap()
        .encode(&mut w, CodecSet::raw_only());
    let bytes = w.into_bytes();
    let mut r = WireReader::new(&bytes);
    r.read_usize().unwrap(); // table capacity
    let count = r.read_usize().unwrap();
    let meta = r.read_byte_frame().unwrap();
    let mut m = WireReader::new(&meta);
    let dirty = (0..count)
        .map(|_| {
            let idx = PtrIdx(m.read_uvarint_u32("record index").unwrap());
            BlockKind::decode(&mut m).unwrap();
            m.read_usize().unwrap(); // block length
            idx
        })
        .collect();
    assert!(m.is_empty());
    r.skip_byte_frame().unwrap(); // word tags
    r.skip_word_frame().unwrap(); // word payloads
    r.skip_byte_frame().unwrap(); // byte payloads
    let freed = (0..r.read_usize().unwrap())
        .map(|_| PtrIdx(r.read_uvarint_u32("freed index").unwrap()))
        .collect();
    assert!(r.is_empty());
    (dirty, freed)
}

/// The heap's program-visible state, read out into the model's own form:
/// each word block through `as_words().iter()`, each byte block copied.
/// Holding the result shares nothing with the heap (a `snapshot()` clone
/// would, and move the counters).
fn detached(heap: &Heap) -> HashMap<u32, Content> {
    heap.pointer_table()
        .iter_used()
        .map(|(ptr, _)| {
            let block = heap.block(ptr).unwrap();
            let content = match block.as_words() {
                Some(words) => Content::Words(words.iter().collect()),
                None => Content::Bytes(block.as_bytes().unwrap().to_vec()),
            };
            (ptr.0, content)
        })
        .collect()
}

impl Pair {
    fn live(&self, words: bool) -> Vec<PtrIdx> {
        let of_kind = |(ptr, (data, _)): (&PtrIdx, &(Content, Payload))| {
            (matches!(data, Content::Words(_)) == words).then_some(*ptr)
        };
        self.model.view.iter().filter_map(of_kind).collect()
    }

    fn step(&mut self, op: Op) {
        let (arrays, raws) = (self.live(true), self.live(false));
        match op {
            Op::AllocArray(len) => {
                let ptr = self.heap.alloc_array(len, Word::Int(0)).unwrap();
                let words = vec![Word::Int(0); len as usize];
                self.model.alloc(ptr, Content::Words(words));
            }
            Op::AllocRaw(size) => {
                let ptr = self.heap.alloc_raw(size).unwrap();
                self.model
                    .alloc(ptr, Content::Bytes(vec![0; size as usize]));
            }
            Op::Store { target, index, val } if !arrays.is_empty() => {
                let ptr = arrays[target % arrays.len()];
                let index = index % self.model.view[&ptr].0.len();
                let value = if val % 3 == 0 {
                    Word::Ptr(arrays[val.unsigned_abs() as usize % arrays.len()])
                } else {
                    Word::Int(val)
                };
                self.heap.store(ptr, index as i64, value).unwrap();
                self.model.write(ptr, |data| match data {
                    Content::Words(words) => words[index] = value,
                    Content::Bytes(_) => unreachable!("a word block"),
                });
            }
            Op::StoreRaw { target, val } if !raws.is_empty() => {
                let ptr = raws[target % raws.len()];
                self.heap.store_raw(ptr, 0, 8, val).unwrap();
                self.model.write(ptr, |data| match data {
                    Content::Bytes(bytes) => bytes[..8].copy_from_slice(&val.to_le_bytes()),
                    Content::Words(_) => unreachable!("a raw block"),
                });
            }
            Op::CopyRaw { src, dst } if !raws.is_empty() => {
                let (src, dst) = (raws[src % raws.len()], raws[dst % raws.len()]);
                self.heap.copy_raw(src, dst, 8).unwrap();
                let head = self.model.view[&src].0.clone();
                let head = match &head {
                    Content::Bytes(b) => b[..8].to_vec(),
                    Content::Words(_) => unreachable!("raw block"),
                };
                self.model.write(dst, |data| match data {
                    Content::Bytes(bytes) => bytes[..8].copy_from_slice(&head),
                    Content::Words(_) => unreachable!("a raw block"),
                });
            }
            Op::Enter => {
                let level = self.heap.spec_enter();
                self.model.enter(detached(&self.heap));
                assert_eq!(level, self.model.levels.len());
            }
            Op::Commit(level) if !self.model.levels.is_empty() => {
                let level = 1 + level % self.model.levels.len();
                self.heap.spec_commit(level).unwrap();
                self.model.commit(level);
            }
            Op::Rollback(level) if !self.model.levels.is_empty() => {
                let level = 1 + level % self.model.levels.len();
                self.heap.spec_rollback(level).unwrap();
                let at_enter = self.model.rollback(level);
                assert_eq!(detached(&self.heap), at_enter, "rollback is exact");
            }
            Op::Gc { major, skip } => {
                let roots: Vec<Word> = self
                    .model
                    .view
                    .keys()
                    .filter(|ptr| ptr.0 % 3 != skip)
                    .map(|ptr| Word::Ptr(*ptr))
                    .collect();
                if major {
                    self.heap.gc_major(&roots);
                } else {
                    self.heap.gc_minor(&roots);
                }
                let live: Vec<PtrIdx> = self.model.view.keys().copied().collect();
                for ptr in live {
                    if !self.heap.pointer_table().is_valid(ptr) {
                        assert!(!roots.contains(&Word::Ptr(ptr)), "a root was freed");
                        self.model.free(ptr);
                        for level in &mut self.model.levels {
                            level.view_at_enter.remove(&ptr.0);
                        }
                    }
                }
                // Whatever the model still holds, the collector kept.
                for (holder, (data, _)) in &self.model.view {
                    let Content::Words(words) = data else {
                        continue;
                    };
                    for ptr in words.iter().filter_map(|w| w.as_ptr()) {
                        let valid = self.heap.pointer_table().is_valid(ptr);
                        assert!(valid, "{holder} holds dangling {ptr}");
                    }
                }
            }
            Op::MarkClean => {
                self.heap.mark_clean();
                self.model.mark_clean();
            }
            Op::Freeze => {
                self.thaw();
                self.held = Some(self.heap.freeze());
                for (_, payload) in self.model.view.values() {
                    *self.model.refs.get_mut(payload).expect("known payload") += 1;
                    self.model.frozen.push(*payload);
                }
                let snapshot = self.held.as_ref().expect("just taken");
                assert_eq!(snapshot.dirty_count(), self.model_dirty().len());
                assert_eq!(snapshot.freed_count(), self.model.freed.len());
            }
            Op::Thaw => self.thaw(),
            // Nothing of the kind the step needs is live.
            Op::Store { .. }
            | Op::StoreRaw { .. }
            | Op::CopyRaw { .. }
            | Op::Commit(_)
            | Op::Rollback(_) => {}
        }
        self.check();
    }

    fn thaw(&mut self) {
        self.held = None;
        for payload in std::mem::take(&mut self.model.frozen) {
            self.model.release(payload);
        }
    }

    /// The model's dirty set as the heap reports it: live entries only.
    fn model_dirty(&self) -> Vec<PtrIdx> {
        let live = |ptr: &&PtrIdx| self.model.view.contains_key(ptr);
        self.model.dirty.iter().filter(live).copied().collect()
    }

    fn check(&self) {
        let (heap, model) = (&self.heap, &self.model);
        assert_eq!(detached(heap), model.program_view());
        assert_eq!(heap.stats().cow_clones, model.cow_clones);
        assert_eq!(
            heap.stats().shared_payload_copies,
            model.shared_payload_copies
        );
        assert_eq!(heap.spec_depth(), model.levels.len());
        assert_eq!(heap.dirty_tracking_armed(), model.tracking);
        let freed: Vec<PtrIdx> = model.freed.iter().copied().collect();
        assert_eq!(shipped(heap), (self.model_dirty(), freed.clone()));
        assert_eq!(heap.dirty_count(), self.model_dirty().len());
        assert_eq!(heap.freed_count(), freed.len());
        for (level, record) in heap.spec_records().iter().zip(&model.levels) {
            assert_eq!(level.saved_count(), record.saved.len());
            assert_eq!(level.allocated_count(), record.allocated.len());
        }
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
    /// Random interleavings of every mutator entry point, commits and
    /// rollbacks of *any* open level included.
    #[test]
    fn heap_bookkeeping_matches_the_set_model(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        run(&ops);
    }
}

/// The reason the dirty mark is an epoch and not a bit: a clean point
/// declared inside an open level, then a rollback.  The restored original
/// was last listed before that clean point and must be listed again.
#[test]
fn mark_clean_inside_a_level_then_rollback_relists_the_original() {
    let store = |val| Op::Store {
        target: 0,
        index: 0,
        val,
    };
    let pair = run(&[
        Op::AllocArray(2),
        Op::MarkClean,
        store(1), // listed under the first clean epoch
        Op::Enter,
        store(2), // cloned; the clone inherits "listed"
        Op::MarkClean,
        store(4), // the clone is listed under the second epoch
        Op::Rollback(0),
    ]);
    assert_eq!(shipped(&pair.heap), (vec![PtrIdx(0)], vec![]));
    assert_eq!(pair.heap.load(PtrIdx(0), 0).unwrap(), Word::Int(1));
}

/// A store inside a level clones the promoted #0 into a new slot and the
/// commit discards the original, so the clone alone holds #0's pointer to
/// the young #3 when a minor collection runs without rooting either.
#[test]
fn minor_gc_after_a_commit_keeps_what_the_committed_clone_references() {
    let pair = run(&[
        Op::AllocArray(2),
        Op::Gc {
            major: false,
            skip: 1,
        }, // #0 is rooted and promoted
        Op::AllocArray(2),
        Op::AllocArray(2),
        Op::AllocArray(2),
        Op::Store {
            target: 0,
            index: 0,
            val: 3,
        }, // #0[0] = Ptr(#3)
        Op::Enter,
        Op::Store {
            target: 0,
            index: 1,
            val: 1,
        }, // cloned
        Op::Commit(0),
        Op::Gc {
            major: false,
            skip: 0,
        }, // roots #1 and #2 only
    ]);
    assert_eq!(pair.heap.load(PtrIdx(3), 0).unwrap(), Word::Int(0));
}

/// An index the collector frees inside a level is reallocated there: the
/// new block is private to the level (no clone on its first store), and
/// the rollback frees it again.
#[test]
fn index_freed_by_gc_and_reallocated_inside_a_rolled_back_level() {
    let pair = run(&[
        Op::AllocArray(2), // #0, survives
        Op::AllocArray(2), // #1, unrooted below
        Op::MarkClean,
        Op::Enter,
        Op::Gc {
            major: true,
            skip: 1,
        },
        Op::AllocArray(3), // reuses #1
        Op::Store {
            target: 1,
            index: 0,
            val: 7,
        },
        Op::Rollback(0),
    ]);
    assert_eq!(pair.heap.stats().cow_clones, 0);
    assert!(!pair.heap.pointer_table().is_valid(PtrIdx(1)));
    assert_eq!(shipped(&pair.heap), (vec![], vec![PtrIdx(1)]));
}
