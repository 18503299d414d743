//! [`AsyncSink`]: the adapter that turns any [`MigrationSink`] into an
//! asynchronous one by routing deferred checkpoints through a
//! [`CheckpointPipeline`].

use crate::pipeline::{lock_sink, CheckpointPipeline, PipelineConfig, SharedSink};
use mojave_core::{DeliveryOutcome, MigrationImage, MigrationSink, PipelineStats, SnapshotPack};
use mojave_fir::MigrateProtocol;
use mojave_wire::CodecSet;
use std::sync::{Arc, Mutex};

/// Wraps any [`MigrationSink`] with an asynchronous checkpoint pipeline.
///
/// * [`MigrationSink::deliver_deferred`] enqueues the frozen snapshot and
///   returns immediately with an optimistic `Stored` (pipeline workers
///   encode concurrently with the mutator and with each other, and
///   deliver in submit order).  With
///   [`PipelineConfig::drain_after_submit`] it instead blocks until the
///   delivery completed and returns the real outcome — the determinism
///   barrier deterministic grid replays rely on.
/// * Synchronous deliveries (`migrate://`, `suspend://`, or checkpoints
///   from a process without `async_checkpoints`) first drain the pipeline
///   — a suspend image must land *after* every checkpoint submitted
///   before it — then forward to the inner sink.
/// * `has_base` / `accepted_codecs` forward to the inner sink.  During a
///   backlog a just-submitted full checkpoint is not in the store yet, so
///   `has_base` answers false and the process emits full images — more
///   bytes, never a wrong delta.
pub struct AsyncSink {
    inner: SharedSink,
    pipeline: CheckpointPipeline,
    drain_after_submit: bool,
}

impl std::fmt::Debug for AsyncSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSink")
            .field("pipeline", &self.pipeline)
            .finish()
    }
}

impl AsyncSink {
    /// Wrap `inner`, spawning the pipeline workers.
    pub fn new(inner: Box<dyn MigrationSink + Send>, config: PipelineConfig) -> Self {
        let inner = Arc::new(Mutex::new(inner));
        let pipeline = CheckpointPipeline::new(Arc::clone(&inner), config);
        AsyncSink {
            inner,
            pipeline,
            drain_after_submit: config.drain_after_submit,
        }
    }

    /// The pipeline counters (also available through
    /// [`MigrationSink::pipeline_stats`]).
    pub fn stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// Block until every accepted checkpoint is encoded and delivered.
    pub fn drain(&self) {
        self.pipeline.drain();
    }

    /// Attach a flight recorder to the pipeline (queue-depth samples and
    /// worker-side encode/deliver events).
    pub fn set_recorder(&self, recorder: mojave_obs::Recorder) {
        self.pipeline.set_recorder(recorder);
    }
}

impl MigrationSink for AsyncSink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        // Ordering: a synchronous delivery (e.g. the final suspend image)
        // must not overtake checkpoints already accepted by the pipeline.
        self.pipeline.drain();
        lock_sink(&self.inner).deliver(protocol, target, image)
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        lock_sink(&self.inner).has_base(base, base_fingerprint)
    }

    fn accepted_codecs(&self) -> CodecSet {
        lock_sink(&self.inner).accepted_codecs()
    }

    fn deliver_deferred(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        pack: SnapshotPack,
    ) -> DeliveryOutcome {
        let outcome = self.pipeline.submit(protocol, target, pack);
        if self.drain_after_submit {
            self.pipeline.drain();
            outcome
                .get()
                .cloned()
                .unwrap_or_else(|| DeliveryOutcome::Failed("pipeline dropped the job".into()))
        } else {
            // Optimistic: failures surface in `PipelineStats::failed` and
            // in the job's outcome slot, not in the mutator's control
            // flow — exactly like a write-behind cache.
            DeliveryOutcome::Stored
        }
    }

    fn flush(&mut self) {
        self.pipeline.drain();
    }

    fn pipeline_stats(&self) -> Option<PipelineStats> {
        Some(self.pipeline.stats())
    }
}
