//! Integration tests for the asynchronous checkpoint pipeline: end-to-end
//! process runs, backpressure, drain barriers and failure handling.

use mojave_core::{
    CheckpointStore, DeliveryOutcome, InMemorySink, MigrationImage, MigrationSink, Process,
    ProcessConfig, RunOutcome, SnapshotPack,
};
use mojave_fir::MigrateProtocol;
use mojave_heap::Word;
use mojave_runtime::{AsyncSink, CheckpointPipeline, PipelineConfig};
use mojave_wire::CodecSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A MojaveC worker that mutates an array between rotating-name
/// checkpoints — the delta pipeline's natural shape.
fn checkpointing_source(rounds: usize) -> String {
    format!(
        r#"
int main() {{
    int[] data = alloc_int(256);
    int acc = 0;
    int i = 0;
    while (i < {rounds}) {{
        int j = 0;
        while (j < 32) {{
            data[i * 32 + j] = i * 100 + j;
            j = j + 1;
        }}
        acc = acc + data[i * 32 + 7];
        checkpoint(str_concat("ck-", int_to_str(i)));
        i = i + 1;
    }}
    return acc;
}}
"#
    )
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Sync,
    /// Optimistic pipeline: the mutator never waits for deliveries.
    Async,
    /// Pipeline with the determinism barrier: every submission drains.
    AsyncBarrier,
}

fn run_checkpointing(mode: Mode, store: CheckpointStore) -> (RunOutcome, Process) {
    let program = mojave_lang::compile_source(&checkpointing_source(6)).expect("compiles");
    let config = ProcessConfig {
        delta_checkpoints: true,
        async_checkpoints: mode != Mode::Sync,
        ..ProcessConfig::default()
    };
    let inner = InMemorySink::with_store(store);
    let sink: Box<dyn MigrationSink> = match mode {
        Mode::Sync => Box::new(inner),
        Mode::Async => Box::new(AsyncSink::new(Box::new(inner), PipelineConfig::default())),
        Mode::AsyncBarrier => Box::new(AsyncSink::new(
            Box::new(inner),
            PipelineConfig {
                drain_after_submit: true,
                ..PipelineConfig::default()
            },
        )),
    };
    let mut process = Process::new(program, config)
        .expect("verifies")
        .with_sink(sink);
    let outcome = process.run().expect("runs");
    (outcome, process)
}

#[test]
fn async_checkpoints_match_sync_semantics_and_resume() {
    let sync_store = CheckpointStore::new();
    let (sync_outcome, sync_process) = run_checkpointing(Mode::Sync, sync_store.clone());
    let async_store = CheckpointStore::new();
    let (async_outcome, async_process) = run_checkpointing(Mode::Async, async_store.clone());

    assert_eq!(sync_outcome, async_outcome);
    assert_eq!(sync_store.names(), async_store.names());
    let sync_stats = sync_process.stats();
    let async_stats = async_process.stats();
    assert_eq!(sync_stats.checkpoints, async_stats.checkpoints);
    // The optimistic pipeline may substitute fulls for deltas while a base
    // fingerprint is still pending — more bytes, never a wrong image — so
    // only an upper bound holds here (the barrier test below pins the
    // exact delta chain).
    assert!(async_stats.delta_checkpoints <= sync_stats.delta_checkpoints);
    // Pause/encode accounting: the async mutator pause excludes the encode,
    // which lands in the worker-side counter instead.
    assert!(async_stats.checkpoint_pause_ns > 0);
    assert!(async_stats.checkpoint_encode_ns > 0);

    // Every async checkpoint is resolvable, and resuming from the *last*
    // one replays the remaining rounds to the same exit code.
    for name in async_store.names() {
        async_store.load(&name).expect("checkpoint resolvable");
    }
    let image = async_store.load("ck-5").expect("last checkpoint");
    let mut resumed = Process::from_image(image, ProcessConfig::default()).expect("unpacks");
    let outcome = resumed.run().expect("resumes");
    assert_eq!(outcome, sync_outcome);
}

#[test]
fn barrier_mode_reproduces_the_sync_delta_chain_exactly() {
    let sync_store = CheckpointStore::new();
    let (sync_outcome, sync_process) = run_checkpointing(Mode::Sync, sync_store.clone());
    let barrier_store = CheckpointStore::new();
    let (barrier_outcome, barrier_process) =
        run_checkpointing(Mode::AsyncBarrier, barrier_store.clone());

    // With the drain barrier every base fingerprint is known before the
    // next checkpoint, so the full/delta pattern matches the synchronous
    // run exactly — the property deterministic grid replays build on.
    assert_eq!(sync_outcome, barrier_outcome);
    let sync_stats = sync_process.stats();
    let barrier_stats = barrier_process.stats();
    assert_eq!(sync_stats.checkpoints, barrier_stats.checkpoints);
    assert_eq!(
        sync_stats.delta_checkpoints,
        barrier_stats.delta_checkpoints
    );
    assert!(barrier_stats.delta_checkpoints > 0);
    assert_eq!(sync_store.names(), barrier_store.names());
    for name in barrier_store.names() {
        barrier_store.load(&name).expect("checkpoint resolvable");
    }
}

#[test]
fn async_pipeline_stats_are_exposed_through_the_process_sink() {
    let store = CheckpointStore::new();
    let (_, process) = run_checkpointing(Mode::Async, store);
    // run() flushed the pipeline, so every submission completed.
    let stats = process.stats();
    assert_eq!(stats.checkpoints, 6);
    assert_eq!(stats.migration_failures, 0);
}

/// A sink wrapper that sleeps before delegating, so tests can hold jobs
/// in the pipeline queue deterministically long enough to observe
/// backpressure.
struct SlowSink {
    inner: InMemorySink,
    delay: Duration,
}

impl MigrationSink for SlowSink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        std::thread::sleep(self.delay);
        self.inner.deliver(protocol, target, image)
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        self.inner.has_base(base, base_fingerprint)
    }

    fn accepted_codecs(&self) -> CodecSet {
        self.inner.accepted_codecs()
    }
}

/// A sink that fails every delivery.
struct FailingSink;

impl MigrationSink for FailingSink {
    fn deliver(
        &mut self,
        _protocol: MigrateProtocol,
        _target: &str,
        _image: &MigrationImage,
    ) -> DeliveryOutcome {
        DeliveryOutcome::Failed("injected sink failure".into())
    }
}

/// Build a full-image SnapshotPack from a small populated process.
fn sample_pack(process: &mut Process, delta: bool) -> SnapshotPack {
    if delta {
        process.heap_mut().mark_clean();
        let ptr = process.heap_mut().alloc_array(4, Word::Int(9)).unwrap();
        process.heap_mut().store(ptr, 0, Word::Int(1)).unwrap();
    }
    let base = delta.then(|| ("base-ck".to_owned(), 0xFEED_u64));
    process
        .pack_snapshot(
            0,
            Word::Fun(0),
            &[],
            base.as_ref().map(|(b, fp)| (b.as_str(), *fp)),
        )
        .expect("pack")
}

fn sample_process() -> Process {
    let program = mojave_lang::compile_source("int main() { return 1; }").expect("compiles");
    let mut process = Process::new(program, ProcessConfig::default()).expect("verifies");
    for i in 0..32 {
        process.heap_mut().alloc_array(16, Word::Int(i)).unwrap();
    }
    process
}

#[test]
fn block_backpressure_preserves_every_checkpoint() {
    let store = CheckpointStore::new();
    let sink: Box<dyn MigrationSink + Send> = Box::new(SlowSink {
        inner: InMemorySink::with_store(store.clone()),
        delay: Duration::from_millis(5),
    });
    let pipeline = CheckpointPipeline::new(
        Arc::new(Mutex::new(sink)),
        PipelineConfig {
            queue_capacity: 1,
            drain_after_submit: false,
        },
    );
    let recorder = mojave_obs::Recorder::new(0, mojave_obs::Level::Trace);
    pipeline.set_recorder(recorder.clone());
    let mut process = sample_process();
    for i in 0..8 {
        let pack = sample_pack(&mut process, false);
        pipeline.submit(MigrateProtocol::Checkpoint, &format!("ck-{i}"), pack);
    }
    pipeline.drain();
    let stats = pipeline.stats();
    // Every submission completed and none failed: nothing was dropped.
    // (`completed` counts failed deliveries too.)
    assert_eq!(stats.submitted, 8);
    assert_eq!((stats.completed, stats.failed), (stats.submitted, 0));
    assert_eq!(stats.queue_depth, 0);
    // The high-water mark survives the drain: the capacity-1 queue was
    // full at least once while the slow sink held the worker.
    assert!(
        stats.queue_depth_max >= 1,
        "queue_depth_max = {}",
        stats.queue_depth_max
    );
    // Every submission also left a QueueDepth sample in the recorder,
    // carrying the observed depth and the configured capacity.
    let samples: Vec<_> = recorder
        .events()
        .into_iter()
        .filter(|e| e.kind == mojave_obs::EventKind::QueueDepth)
        .collect();
    assert_eq!(samples.len(), 8);
    assert!(samples.iter().all(|e| e.b == 1), "capacity rides in b");
    assert!(samples.iter().any(|e| e.a >= 1));
    assert_eq!(store.len(), 8, "Block never drops a checkpoint");
    // The blocked submissions are visible as mutator pause.
    assert!(stats.pause_ns > 0);
    assert!(stats.encode_ns > 0);
    assert!(stats.bytes_raw >= stats.bytes_stored);
}

#[test]
fn drain_barrier_reports_the_real_outcome() {
    let mut failing = AsyncSink::new(
        Box::new(FailingSink),
        PipelineConfig {
            drain_after_submit: true,
            ..PipelineConfig::default()
        },
    );
    let mut process = sample_process();
    let pack = sample_pack(&mut process, false);
    let outcome = failing.deliver_deferred(MigrateProtocol::Checkpoint, "ck", pack);
    assert!(matches!(outcome, DeliveryOutcome::Failed(_)));
    assert_eq!(failing.stats().failed, 1);

    // Without the barrier the same failure is reported optimistically and
    // surfaces in the stats instead.
    let mut optimistic = AsyncSink::new(Box::new(FailingSink), PipelineConfig::default());
    let pack = sample_pack(&mut process, false);
    let outcome = optimistic.deliver_deferred(MigrateProtocol::Checkpoint, "ck", pack);
    assert_eq!(outcome, DeliveryOutcome::Stored);
    optimistic.drain();
    assert_eq!(optimistic.stats().failed, 1);
}

#[test]
fn synchronous_deliveries_drain_pending_checkpoints_first() {
    let store = CheckpointStore::new();
    let mut sink = AsyncSink::new(
        Box::new(SlowSink {
            inner: InMemorySink::with_store(store.clone()),
            delay: Duration::from_millis(10),
        }),
        PipelineConfig::default(),
    );
    let mut process = sample_process();
    let pack = sample_pack(&mut process, false);
    sink.deliver_deferred(MigrateProtocol::Checkpoint, "ck-before", pack);

    // A suspend image must not overtake the queued checkpoint.
    let image = process.pack(9, Word::Fun(0), &[]).expect("pack");
    let outcome = sink.deliver(MigrateProtocol::Suspend, "final", &image);
    assert_eq!(outcome, DeliveryOutcome::Stored);
    assert!(store.contains("ck-before"));
    assert!(store.contains("final"));
}

#[test]
fn failed_async_full_never_poisons_the_delta_chain() {
    // A sink that drops the *first* full checkpoint and stores the rest:
    // the process must keep emitting resolvable (full) images — never a
    // delta against the base that silently failed to store.
    struct DropFirst {
        inner: InMemorySink,
        dropped: bool,
    }
    impl MigrationSink for DropFirst {
        fn deliver(
            &mut self,
            protocol: MigrateProtocol,
            target: &str,
            image: &MigrationImage,
        ) -> DeliveryOutcome {
            if !self.dropped {
                self.dropped = true;
                return DeliveryOutcome::Failed("first full dropped".into());
            }
            self.inner.deliver(protocol, target, image)
        }
        fn has_base(&self, base: &str, fp: u64) -> bool {
            self.inner.has_base(base, fp)
        }
        fn accepted_codecs(&self) -> CodecSet {
            self.inner.accepted_codecs()
        }
    }

    let store = CheckpointStore::new();
    let program = mojave_lang::compile_source(&checkpointing_source(5)).expect("compiles");
    let mut process = Process::new(
        program,
        ProcessConfig {
            delta_checkpoints: true,
            async_checkpoints: true,
            ..ProcessConfig::default()
        },
    )
    .expect("verifies")
    .with_sink(Box::new(AsyncSink::new(
        Box::new(DropFirst {
            inner: InMemorySink::with_store(store.clone()),
            dropped: false,
        }),
        PipelineConfig::default(),
    )));
    process.run().expect("runs");
    // ck-0 was dropped by the sink; everything that landed must resolve.
    assert!(!store.contains("ck-0"));
    for name in store.names() {
        store
            .load(&name)
            .unwrap_or_else(|e| panic!("checkpoint {name} must resolve after a dropped base: {e}"));
    }
    assert!(store.len() >= 3);
}

/// A `ckpt_stream`-shaped worker: `arrays` `int[2048]` columns (even ones
/// small values, odd ones all 64 bits), then `rounds` full checkpoints
/// with one word stored into each of `arrays / 4` of them, in rotation,
/// before each one.
fn streaming_source(arrays: usize, rounds: usize) -> String {
    let mut src = String::from("int main() {\n    int x = 12345;\n");
    for a in 0..arrays {
        let value = if a % 2 == 0 { "x % 1000" } else { "x" };
        src.push_str(&format!(
            "    int[] a{a} = alloc_int(2048);\n    \
             for (int i{a} = 0; i{a} < 2048; i{a} = i{a} + 1) {{ \
             x = x * 6364136223846793005 + 1442695040888963407; a{a}[i{a}] = {value}; }}\n"
        ));
    }
    src.push_str(&format!("    int k = 0;\n    while (k < {rounds}) {{\n"));
    for g in 0..4 {
        src.push_str(&format!("        if (k % 4 == {g}) {{\n"));
        for a in (0..arrays).filter(|a| a % 4 == g) {
            src.push_str(&format!("            a{a}[k] = a{a}[k + 1] + k;\n"));
        }
        src.push_str("        }\n");
    }
    src.push_str("        checkpoint(str_concat(\"ck-\", int_to_str(k)));\n");
    src.push_str("        k = k + 1;\n    }\n    return a0[3];\n}\n");
    src
}

/// Run [`streaming_source`] with full asynchronous checkpoints into a
/// fresh store; the pipeline counters the process read after its final
/// flush come back with it.
fn run_streaming(config: PipelineConfig) -> (CheckpointStore, mojave_core::PipelineStats) {
    /// Forwards to an [`AsyncSink`] and keeps the last counters asked of
    /// it.
    struct Watched(AsyncSink, Arc<Mutex<Option<mojave_core::PipelineStats>>>);
    impl MigrationSink for Watched {
        fn deliver(&mut self, p: MigrateProtocol, t: &str, i: &MigrationImage) -> DeliveryOutcome {
            self.0.deliver(p, t, i)
        }
        fn deliver_deferred(
            &mut self,
            p: MigrateProtocol,
            t: &str,
            pack: SnapshotPack,
        ) -> DeliveryOutcome {
            self.0.deliver_deferred(p, t, pack)
        }
        fn flush(&mut self) {
            self.0.flush();
        }
        fn pipeline_stats(&self) -> Option<mojave_core::PipelineStats> {
            let stats = self.0.pipeline_stats();
            *self.1.lock().unwrap() = stats;
            stats
        }
    }

    let program = mojave_lang::compile_source(&streaming_source(16, 32)).expect("compiles");
    let store = CheckpointStore::new();
    let seen = Arc::new(Mutex::new(None));
    let sink = AsyncSink::new(Box::new(InMemorySink::with_store(store.clone())), config);
    let config = ProcessConfig {
        async_checkpoints: true,
        delta_checkpoints: false,
        ..ProcessConfig::default()
    };
    let mut process = Process::new(program, config)
        .expect("verifies")
        .with_sink(Box::new(Watched(sink, Arc::clone(&seen))));
    assert!(matches!(process.run().expect("runs"), RunOutcome::Exit(_)));
    let stats = seen.lock().unwrap().expect("the process read the counters");
    (store, stats)
}

/// Heap-payload bytes of checkpoint `k`'s long columns (at least 8 whole
/// BitPack groups) that checkpoint `k - 1` holds unchanged at the same
/// group phase, summed over `k` in `1..rounds`: the bytes an encode may
/// copy rather than write, worked out from the decoded heaps alone.
fn eligible_bytes(store: &CheckpointStore, rounds: usize) -> u64 {
    use mojave_heap::{Heap, HeapConfig};
    const GROUP: usize = mojave_wire::BITPACK_GROUP_WORDS;
    let heap = |k: usize| -> Heap {
        let image = store.load(&format!("ck-{k}")).expect("stored");
        image.decode_heap(HeapConfig::default()).expect("decodes")
    };
    // Each column's words by pointer index, with the slab words before it.
    let columns = |heap: &Heap| {
        let mut streamed = 0;
        let mut out = std::collections::HashMap::new();
        for (idx, _) in heap.pointer_table().iter_used() {
            let Some(words) = heap.block(idx).unwrap().as_words() else {
                continue;
            };
            if words.column_tag().is_some() {
                out.insert(idx, (streamed, words.to_vec()));
            }
            streamed += words.len();
        }
        out
    };
    let mut eligible = 0;
    let mut before = columns(&heap(0));
    for k in 1..rounds {
        let now = columns(&heap(k));
        for (idx, column) in &now {
            if before.get(idx) != Some(column) {
                continue;
            }
            let (streamed, words) = column;
            let head = (GROUP - streamed % GROUP) % GROUP;
            let groups = words.len().saturating_sub(head) / GROUP;
            if groups >= 8 {
                let whole: Vec<u64> = words[head..head + groups * GROUP]
                    .iter()
                    .map(|w| w.to_raw().1)
                    .collect();
                let mut packed = Vec::new();
                mojave_wire::compress_words(mojave_wire::CodecId::BitPack, &whole, &mut packed);
                eligible += packed.len() as u64;
            }
        }
        before = now;
    }
    eligible
}

/// Full checkpoints of a heap of long columns, most of them unwritten
/// between two checkpoints, copy those columns' groups from the image
/// before instead of encoding them: every eligible byte when each
/// checkpoint is delivered before the mutator goes on, and the same image
/// bytes either way.
#[test]
fn unwritten_columns_are_copied_from_the_previous_checkpoint() {
    let (barrier, stats) = run_streaming(PipelineConfig {
        drain_after_submit: true,
        ..PipelineConfig::default()
    });
    let eligible = eligible_bytes(&barrier, 32);
    // 12 of 16 columns unwritten between two checkpoints, for 31 of them.
    assert!(
        eligible * 2 > stats.bytes_stored,
        "{eligible} of {}",
        stats.bytes_stored
    );
    assert_eq!(stats.bytes_reused, eligible);

    // Without the barrier two workers may both miss a column just
    // written; the images are the same bytes.
    let (streamed, stats) = run_streaming(PipelineConfig::default());
    assert!(stats.bytes_reused > 0);
    for k in 0..32 {
        let name = format!("ck-{k}");
        assert_eq!(streamed.get(&name), barrier.get(&name), "{name}");
    }
}
