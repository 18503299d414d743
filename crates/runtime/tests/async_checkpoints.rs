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
