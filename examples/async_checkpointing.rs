//! The asynchronous checkpoint pipeline, end to end: a heap is frozen
//! with a zero-pause COW snapshot, the expensive encode + store delivery
//! runs on a pipeline worker thread, and the mutator keeps writing to the
//! same blocks **while the checkpoint is still in flight** — the frozen
//! originals stay readable, first writes clone lazily.
//!
//! The example prints the pipeline's [`PipelineStats`] so the split is
//! visible: the mutator pause (freeze + submit) vs. the off-thread encode
//! time, and the raw vs. stored checkpoint bytes.
//!
//! ```text
//! cargo run --example async_checkpointing
//! ```

use mojave::core::{CheckpointStore, InMemorySink, Process, ProcessConfig};
use mojave::fir::MigrateProtocol;
use mojave::heap::{ImageKind, Word};
use mojave::runtime::{AsyncSink, PipelineConfig};
use mojave::wire::CodecSet;

fn main() {
    // A process with ~1 MiB of live heap data.
    let program =
        mojave::lang::compile_source("int main() { return 0; }").expect("program compiles");
    let mut process = Process::new(program, ProcessConfig::default()).expect("program verifies");
    let mut ptrs = Vec::new();
    while process.heap().live_bytes() < 1024 * 1024 {
        let len = ptrs.len();
        ptrs.push(
            process
                .heap_mut()
                .alloc_array(64, Word::Int(len as i64))
                .expect("allocates"),
        );
    }
    println!(
        "live heap: {} KiB in {} blocks",
        process.heap().live_bytes() / 1024,
        process.heap().live_blocks()
    );

    let store = CheckpointStore::new();
    let mut sink = AsyncSink::new(
        Box::new(InMemorySink::with_store(store.clone())),
        PipelineConfig::default(),
    );

    // Freeze (the only mutator pause) and hand the checkpoint to the
    // pipeline.  `Process::run` does this automatically when
    // `ProcessConfig::async_checkpoints` is set; here we drive the same
    // API by hand so the overlap is observable.
    let pack = process
        .pack_snapshot(0, Word::Fun(0), &[], None)
        .expect("snapshot pack");
    let frozen_blocks = pack.heap.block_count();
    use mojave::core::MigrationSink;
    sink.deliver_deferred(MigrateProtocol::Checkpoint, "async-ck", pack);

    // Mutate concurrently with the in-flight checkpoint: every store that
    // hits a still-shared block un-shares it (copy-on-write), leaving the
    // frozen original for the encoder.
    for (i, ptr) in ptrs.iter().enumerate() {
        process
            .heap_mut()
            .store(*ptr, (i % 64) as i64, Word::Int(-1))
            .expect("stores");
    }
    let stats = process.heap().stats();
    println!(
        "mutated {} blocks while the checkpoint was in flight \
         ({} copy-on-write un-sharing copies, {} KiB copied lazily)",
        ptrs.len(),
        stats.shared_payload_copies,
        stats.shared_payload_bytes / 1024
    );

    // Wait for the delivery, then show the pipeline accounting.
    sink.drain();
    let pipeline = sink.stats();
    println!("pipeline stats: {pipeline:#?}");
    assert_eq!(pipeline.completed, 1);
    assert!(store.contains("async-ck"));

    // The stored image is the *frozen* state: decode it and check a value
    // the mutator overwrote after the freeze.
    let image = store.load("async-ck").expect("checkpoint loads");
    let frozen = image.decode_heap(Default::default()).expect("heap decodes");
    let probe = ptrs[7];
    assert_eq!(frozen.load(probe, 7).expect("load"), Word::Int(7));
    assert_eq!(
        process.heap().load(probe, 7).expect("load"),
        Word::Int(-1),
        "the live heap moved on"
    );
    println!(
        "frozen image holds the pre-mutation state ({frozen_blocks} blocks); \
         the live heap holds the new values"
    );

    // For contrast: the synchronous cost of the same checkpoint is the
    // same freeze followed at once by a full encode on the mutator thread.
    let t = std::time::Instant::now();
    let mut w = mojave::wire::WireWriter::new();
    process
        .heap_mut()
        .freeze()
        .image_records(ImageKind::Full)
        .expect("a full image needs no clean point")
        .encode(&mut w, CodecSet::all());
    println!(
        "synchronous encode of the same heap: {:?} for {} bytes on the wire \
         (the pipeline moved ~all of it off the mutator: pause {} µs vs encode {} µs)",
        t.elapsed(),
        w.len(),
        pipeline.pause_ns / 1_000,
        pipeline.encode_ns / 1_000,
    );
}
