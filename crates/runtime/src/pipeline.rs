//! The checkpoint pipeline: a bounded queue of [`SnapshotPack`]s consumed
//! by worker threads that run the deferred encodes (codec choice, slab
//! staging, compression) side by side and deliver to the sink strictly in
//! submit order.

use mojave_core::{DeliveryOutcome, MigrationSink, PipelineStats, SnapshotPack};
use mojave_fir::MigrateProtocol;
use mojave_obs::{EventKind, Recorder};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// The sink every delivery goes through, shared with the mutator thread.
pub(crate) type SharedSink = Arc<Mutex<Box<dyn MigrationSink + Send>>>;

/// Lock the shared sink, also after a delivery panicked while holding it:
/// that checkpoint is accounted as failed, and a sink that can no longer
/// work says so through its own outcomes — refusing every later checkpoint
/// here would turn one lost image into all of them.
pub(crate) fn lock_sink(sink: &SharedSink) -> MutexGuard<'_, Box<dyn MigrationSink + Send>> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a [`CheckpointPipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Maximum checkpoints queued ahead of the workers (≥ 1) — snapshots
    /// accepted but not yet picked up.  Each of the
    /// `min(available cores, queue_capacity)` workers holds one more while
    /// it encodes, so `queue_capacity + workers` frozen snapshots is the
    /// most the pipeline ever keeps alive.  A submit to a full queue
    /// blocks the mutator until a worker takes a job off it, so no
    /// checkpoint is ever dropped.
    pub queue_capacity: usize,
    /// Drain the pipeline inside every deferred delivery, making the
    /// asynchronous path a **barrier**: the submission returns only after
    /// its checkpoint is durably delivered, and the returned outcome is
    /// the real one instead of the optimistic `Stored`.
    ///
    /// This is the determinism switch: with it, a grid replay interleaves checkpoint side effects (store writes, network
    /// accounting, failure injection) at exactly the points the
    /// synchronous path would, so replay digests are identical with the
    /// pipeline on or off.  It deliberately gives back the pause benefit
    /// — replay proofs buy determinism with latency.
    pub drain_after_submit: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            queue_capacity: 4,
            drain_after_submit: false,
        }
    }
}

/// One queued checkpoint: where it goes, the frozen state, and the slot
/// its real delivery outcome lands in.
struct Job {
    protocol: MigrateProtocol,
    target: String,
    pack: SnapshotPack,
    outcome: Arc<OnceLock<DeliveryOutcome>>,
}

struct State {
    queue: VecDeque<Job>,
    /// The sequence number the next job taken off the queue gets.
    next_seq: u64,
    /// The delivery turnstile: the sequence number whose delivery is due.
    /// Only the worker holding that job passes, and only it moves the
    /// turn on — so deliveries, recorder events, outcomes and stats happen
    /// in exactly the order jobs left the queue, which is submit order.
    /// `next_seq - deliver_turn` jobs are in flight: being encoded,
    /// waiting here, or being delivered.
    deliver_turn: u64,
    shutdown: bool,
    stats: PipelineStats,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued (or shutdown requested).
    job_ready: Condvar,
    /// Signalled when a worker takes a job (queue space available).
    space_ready: Condvar,
    /// Signalled when the delivery turn moves on.
    turn: Condvar,
    /// Signalled when a worker completes a job (drain waits here).
    idle: Condvar,
    /// Flight recorder for queue-depth samples and worker-side
    /// encode/deliver events.  Set at most once; absent = silent.
    recorder: OnceLock<Recorder>,
}

impl Shared {
    /// The state lock.  Nothing panics while holding it (the work that can
    /// — encode, delivery — runs outside), so poisoning is tolerated
    /// rather than propagated into `Drop`s and unwinding workers.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the oldest queued job and its sequence number; `None` once the
    /// queue is empty and shutdown was requested.
    fn next_job(&self) -> Option<(u64, Job)> {
        let mut state = self.lock();
        let job = loop {
            if let Some(job) = state.queue.pop_front() {
                break job;
            }
            if state.shutdown {
                return None;
            }
            state = self
                .job_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        };
        let seq = state.next_seq;
        state.next_seq += 1;
        state.stats.queue_depth = state.queue.len();
        drop(state);
        self.space_ready.notify_all();
        Some((seq, job))
    }

    /// Block until every job taken before `seq` has completed.
    fn wait_turn(&self, seq: u64) {
        let mut state = self.lock();
        while state.deliver_turn != seq {
            state = self
                .turn
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What a finished job reports when its turn comes.
struct Completion {
    outcome: DeliveryOutcome,
    encode_ns: u64,
    /// `(raw, stored, reused)` heap-payload bytes of the image, if one
    /// was encoded.
    wire: Option<(u64, u64, u64)>,
}

/// A job's place in the delivery order.  Dropping it completes the job —
/// with the report the job left, or as failed if it panicked before
/// leaving one — and that is the only thing that moves the turnstile on,
/// so no exit from a job can strand the sequence numbers behind it or
/// leave `drain` waiting.
struct Ticket<'a> {
    shared: &'a Shared,
    seq: u64,
    slot: Arc<OnceLock<DeliveryOutcome>>,
    report: Option<Completion>,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let Completion {
            outcome,
            encode_ns,
            wire,
        } = self.report.take().unwrap_or_else(|| Completion {
            outcome: DeliveryOutcome::Failed(
                "the pipeline worker panicked while encoding or delivering this checkpoint".into(),
            ),
            encode_ns: 0,
            wire: None,
        });
        let shared = self.shared;
        shared.wait_turn(self.seq);
        if let Some(recorder) = shared.recorder.get() {
            if let Some((raw, stored, _)) = wire {
                recorder.record(EventKind::Encode, raw, stored);
            }
            recorder.record(
                EventKind::Deliver,
                outcome.obs_code(),
                wire.map_or(0, |(_, stored, _)| stored),
            );
            recorder.observe("pipeline.encode_ns", encode_ns);
        }
        let mut state = shared.lock();
        state.stats.encode_ns += encode_ns;
        state.stats.completed += 1;
        if let Some((raw, stored, reused)) = wire {
            state.stats.bytes_raw += raw;
            state.stats.bytes_stored += stored;
            state.stats.bytes_reused += reused;
        }
        if matches!(outcome, DeliveryOutcome::Failed(_)) {
            state.stats.failed += 1;
        }
        state.deliver_turn += 1;
        let _ = self.slot.set(outcome);
        drop(state);
        shared.turn.notify_all();
        shared.idle.notify_all();
    }
}

/// The checkpoint pipeline: encode in parallel, deliver in order.
///
/// Checkpoints of one process form an ordered chain — a delta must reach
/// the store after the full image it pins — but that is a property of
/// *delivery*.  An encode reads nothing but its own frozen snapshot, so
/// `min(available cores, queue_capacity)` workers encode side by side and
/// then pass a turnstile that admits them to the sink in submit order.
/// The worker count is derived, not configured: more workers than cores
/// only adds contention, more than `queue_capacity` can never all be fed,
/// and a capacity-1 pipeline (or a 1-core host) stays strictly serial.
///
/// Dropping the pipeline drains it first, so accepted checkpoints are
/// durable once the owner (normally an
/// [`AsyncSink`](crate::AsyncSink) inside a finished [`mojave_core::Process`])
/// goes away.
pub struct CheckpointPipeline {
    shared: Arc<Shared>,
    config: PipelineConfig,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CheckpointPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointPipeline")
            .field("config", &self.config)
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl CheckpointPipeline {
    /// Spawn the worker threads, delivering into `sink`.
    ///
    /// The sink is shared behind a mutex because base negotiation
    /// (`has_base`) and synchronous deliveries still reach it from the
    /// mutator thread; a worker holds the lock only for the delivery
    /// itself, never during the encode.
    pub fn new(sink: Arc<Mutex<Box<dyn MigrationSink + Send>>>, config: PipelineConfig) -> Self {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        Self::spawn(sink, config, cores)
    }

    /// [`CheckpointPipeline::new`] with the core count given instead of
    /// asked of the host (tests run the multi-worker paths on any runner).
    fn spawn(sink: SharedSink, config: PipelineConfig, cores: usize) -> Self {
        let config = PipelineConfig {
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                next_seq: 0,
                deliver_turn: 0,
                shutdown: false,
                stats: PipelineStats::default(),
            }),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            turn: Condvar::new(),
            idle: Condvar::new(),
            recorder: OnceLock::new(),
        });
        let workers = (0..cores.clamp(1, config.queue_capacity))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let sink = Arc::clone(&sink);
                thread::Builder::new()
                    .name("mojave-ckpt-pipeline".into())
                    .spawn(move || worker_loop(&shared, &sink))
                    .expect("spawn checkpoint pipeline worker")
            })
            .collect();
        CheckpointPipeline {
            shared,
            config,
            workers,
        }
    }

    /// Queue a checkpoint for deferred encode + delivery, blocking while
    /// the queue is full.  Returns the slot a worker fills with the real
    /// [`DeliveryOutcome`].
    ///
    /// The mutator-side cost of the whole submission — the heap freeze
    /// recorded in the pack plus any blocking on a full queue — is
    /// accounted into [`PipelineStats::pause_ns`].
    pub fn submit(
        &self,
        protocol: MigrateProtocol,
        target: &str,
        pack: SnapshotPack,
    ) -> Arc<OnceLock<DeliveryOutcome>> {
        let submit_start = Instant::now();
        let outcome = Arc::new(OnceLock::new());
        let job = Job {
            protocol,
            target: target.to_owned(),
            pack,
            outcome: Arc::clone(&outcome),
        };
        let mut state = self.shared.lock();
        state.stats.submitted += 1;
        state.stats.pause_ns += job.pack.freeze_ns;
        while state.queue.len() >= self.config.queue_capacity {
            state = self
                .shared
                .space_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.queue.push_back(job);
        state.stats.queue_depth = state.queue.len();
        state.stats.queue_depth_max = state.stats.queue_depth_max.max(state.queue.len());
        state.stats.pause_ns += submit_start.elapsed().as_nanos() as u64;
        let depth = state.queue.len() as u64;
        drop(state);
        if let Some(recorder) = self.shared.recorder.get() {
            recorder.record(
                EventKind::QueueDepth,
                depth,
                self.config.queue_capacity as u64,
            );
        }
        self.shared.job_ready.notify_one();
        outcome
    }

    /// Attach a flight recorder: queue-depth samples at every submit,
    /// encode/deliver events from the workers (in delivery order).  At
    /// most one recorder per pipeline; later calls are ignored.
    pub fn set_recorder(&self, recorder: Recorder) {
        let _ = self.shared.recorder.set(recorder);
    }

    /// Block until the queue is empty and no job is in flight — every
    /// previously submitted checkpoint is encoded and delivered.
    pub fn drain(&self) {
        let mut state = self.shared.lock();
        while !state.queue.is_empty() || state.deliver_turn != state.next_seq {
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A snapshot of the pipeline counters.
    pub fn stats(&self) -> PipelineStats {
        let state = self.shared.lock();
        PipelineStats {
            queue_depth: state.queue.len(),
            ..state.stats
        }
    }
}

impl Drop for CheckpointPipeline {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.job_ready.notify_all();
        for worker in self.workers.drain(..) {
            // Workers empty the queue before honouring the shutdown flag,
            // so accepted checkpoints are never lost.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, sink: &SharedSink) {
    while let Some((seq, job)) = shared.next_job() {
        // A panic in the encode or in the sink fails that one checkpoint
        // (its ticket is dropped without a report).  It must not take the
        // worker — with a single worker, the whole pipeline — down with it.
        let _ = catch_unwind(AssertUnwindSafe(|| run_job(shared, sink, seq, job)));
    }
}

/// Encode one job (concurrently with the other workers, each through an
/// encoder from the heap crate's pool), then wait for its turn and deliver
/// it.
fn run_job(shared: &Shared, sink: &SharedSink, seq: u64, job: Job) {
    let mut ticket = Ticket {
        shared,
        seq,
        slot: job.outcome,
        report: None,
    };

    // The expensive half, off the mutator thread: codec choice, slab
    // staging, compression.
    let encode_start = Instant::now();
    let encoded = job.pack.into_image_counted();
    let encode_ns = encode_start.elapsed().as_nanos() as u64;

    ticket.report = Some(match encoded {
        Ok((image, reused)) => {
            let (raw, stored) = image.heap_payload_wire_stats();
            shared.wait_turn(seq);
            Completion {
                outcome: lock_sink(sink).deliver(job.protocol, &job.target, &image),
                encode_ns,
                wire: Some((raw, stored, reused)),
            }
        }
        Err(e) => Completion {
            outcome: DeliveryOutcome::Failed(format!("deferred encode failed: {e}")),
            encode_ns,
            wire: None,
        },
    });
}

#[cfg(test)]
mod tests {
    //! The ordering oracle, the panic guard and the derived worker count —
    //! through [`CheckpointPipeline::spawn`], so the multi-worker paths run
    //! whatever the host's core count is.

    use super::*;
    use mojave_core::rng::SplitMix64;
    use mojave_core::{
        CheckpointStore, HeapImage, InMemorySink, MigrationImage, Process, ProcessConfig,
    };
    use mojave_heap::Word;
    use mojave_wire::CodecSet;
    use std::time::Duration;

    /// What a [`Probe`] sink saw, in the order it saw it.
    #[derive(Default)]
    struct Seen {
        order: Vec<String>,
        /// Deltas delivered while their base was not in the store.
        orphans: Vec<String>,
    }

    /// An [`InMemorySink`] that records delivery order, checks every delta
    /// for its base, and optionally sleeps a seeded random while or panics
    /// on its k-th delivery.
    struct Probe {
        inner: InMemorySink,
        store: CheckpointStore,
        seen: Arc<Mutex<Seen>>,
        jitter: Option<SplitMix64>,
        panic_on: Option<usize>,
        delivered: usize,
    }

    impl Probe {
        fn new(store: &CheckpointStore) -> (Probe, Arc<Mutex<Seen>>) {
            let seen = Arc::new(Mutex::new(Seen::default()));
            let probe = Probe {
                inner: InMemorySink::with_store(store.clone()),
                store: store.clone(),
                seen: Arc::clone(&seen),
                jitter: None,
                panic_on: None,
                delivered: 0,
            };
            (probe, seen)
        }

        fn shared(self) -> SharedSink {
            Arc::new(Mutex::new(Box::new(self)))
        }
    }

    impl MigrationSink for Probe {
        fn deliver(
            &mut self,
            protocol: MigrateProtocol,
            target: &str,
            image: &MigrationImage,
        ) -> DeliveryOutcome {
            self.delivered += 1;
            if self.panic_on == Some(self.delivered) {
                panic!("injected sink panic on delivery {}", self.delivered);
            }
            if let Some(rng) = &mut self.jitter {
                thread::sleep(Duration::from_micros(rng.next_u64() % 400));
            }
            let mut seen = self.seen.lock().expect("seen lock");
            seen.order.push(target.to_owned());
            if let HeapImage::Delta { base, .. } = &image.heap_image {
                if !self.store.contains(base) {
                    seen.orphans.push(target.to_owned());
                }
            }
            drop(seen);
            self.inner.deliver(protocol, target, image)
        }

        fn accepted_codecs(&self) -> CodecSet {
            self.inner.accepted_codecs()
        }
    }

    fn config(queue_capacity: usize) -> PipelineConfig {
        PipelineConfig {
            queue_capacity,
            drain_after_submit: false,
        }
    }

    /// A process whose heap holds `arrays` arrays of `words` pseudo-random
    /// words — half of them small, half full-width, so an image of a big
    /// one takes the encoder real time.
    fn process_with_heap(arrays: usize, words: i64, seed: u64) -> Process {
        let program = mojave_lang::compile_source("int main() { return 1; }").expect("compiles");
        let mut process = Process::new(program, ProcessConfig::default()).expect("verifies");
        let mut rng = SplitMix64::new(seed);
        for a in 0..arrays {
            let arr = process
                .heap_mut()
                .alloc_array(words, Word::Int(0))
                .expect("allocates");
            for i in 0..words {
                let bits = rng.next_u64() as i64;
                let value = if a % 2 == 0 { bits % 1000 } else { bits };
                process
                    .heap_mut()
                    .store(arr, i, Word::Int(value))
                    .expect("in range");
            }
        }
        process
    }

    fn pack(process: &mut Process, delta_base: Option<(&str, u64)>) -> SnapshotPack {
        process
            .pack_snapshot(0, Word::Fun(0), &[], delta_base)
            .expect("packs")
    }

    /// A second pack of the same frozen state (packing twice would not be
    /// one: every pack allocates its `migrate_env` block first).
    fn twin(pack: &SnapshotPack) -> SnapshotPack {
        SnapshotPack {
            codecs: pack.codecs,
            source_arch: pack.source_arch.clone(),
            code: pack.code.clone(),
            heap: pack.heap.clone(),
            delta_base: pack.delta_base.clone(),
            migrate_env: pack.migrate_env,
            resume_fun: pack.resume_fun,
            label: pack.label,
            open_speculations: pack.open_speculations,
            freeze_ns: pack.freeze_ns,
            fingerprint_slot: None,
        }
    }

    /// Store one more word and allocate one more block: the next delta has
    /// something to say.
    fn touch(process: &mut Process, round: i64) {
        let heap = process.heap_mut();
        let arr = heap.alloc_array(8, Word::Int(round)).expect("allocates");
        heap.store(arr, round % 8, Word::Int(-round))
            .expect("in range");
    }

    #[test]
    fn worker_count_is_derived_from_cores_and_capacity() {
        let workers = |queue_capacity, cores| {
            let (probe, _) = Probe::new(&CheckpointStore::new());
            let pipeline = CheckpointPipeline::spawn(probe.shared(), config(queue_capacity), cores);
            pipeline.workers.len()
        };
        assert_eq!(workers(1, 8), 1, "a capacity-1 pipeline is strictly serial");
        assert_eq!(workers(4, 1), 1, "so is a 1-core host");
        assert_eq!(workers(4, 2), 2);
        assert_eq!(workers(4, 64), 4, "never more workers than queue slots");
        assert_eq!(workers(0, 0), 1, "degenerate inputs still get a worker");
    }

    /// (i) A big heap first and tiny ones after: the later encodes finish
    /// first, the deliveries and the recorder events still come out in
    /// submit order.
    #[test]
    fn deliveries_and_events_keep_submit_order_when_later_encodes_finish_first() {
        let store = CheckpointStore::new();
        let (probe, seen) = Probe::new(&store);
        let pipeline = CheckpointPipeline::spawn(probe.shared(), config(4), 3);
        let recorder = Recorder::new(0, mojave_obs::Level::Trace);
        pipeline.set_recorder(recorder.clone());

        let mut big = process_with_heap(64, 2048, 7);
        let mut small = process_with_heap(1, 16, 8);
        let mut names = Vec::new();
        let mut expected_events = Vec::new();
        for i in 0..9i64 {
            let pack = if i % 4 == 0 {
                pack(&mut big, None)
            } else {
                touch(&mut small, i);
                pack(&mut small, None)
            };
            let (raw, stored) = twin(&pack)
                .into_image()
                .expect("encodes")
                .heap_payload_wire_stats();
            expected_events.push((EventKind::Encode, raw, stored));
            expected_events.push((EventKind::Deliver, 0, stored));
            names.push(format!("ck-{i}"));
            pipeline.submit(MigrateProtocol::Checkpoint, &names[i as usize], pack);
        }
        pipeline.drain();

        assert_eq!(seen.lock().unwrap().order, names);
        let events: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Encode | EventKind::Deliver))
            .map(|e| (e.kind, e.a, e.b))
            .collect();
        assert_eq!(events, expected_events);
        let stats = pipeline.stats();
        assert_eq!((stats.completed, stats.failed), (9, 0));
    }

    /// (ii) full → delta → delta, the full by far the slowest encode: the
    /// store never sees a delta before its base, and every delta resolves.
    #[test]
    fn a_full_is_stored_before_the_deltas_that_pin_it() {
        let store = CheckpointStore::new();
        let (probe, seen) = Probe::new(&store);
        let pipeline = CheckpointPipeline::spawn(probe.shared(), config(4), 3);

        let mut process = process_with_heap(64, 2048, 21);
        let mut names = Vec::new();
        for chain in 0..3 {
            let full = pack(&mut process, None);
            let HeapImage::Full(payload) = twin(&full).into_image().expect("encodes").heap_image
            else {
                panic!("a pack without a base encodes a full image");
            };
            let fingerprint = mojave_wire::fingerprint(&payload);
            process.heap_mut().mark_clean();
            let base = format!("full-{chain}");
            pipeline.submit(MigrateProtocol::Checkpoint, &base, full);
            names.push(base.clone());
            for d in 0..2 {
                touch(&mut process, d);
                let delta = pack(&mut process, Some((&base, fingerprint)));
                assert!(delta.delta_base.is_some());
                let name = format!("delta-{chain}-{d}");
                pipeline.submit(MigrateProtocol::Checkpoint, &name, delta);
                names.push(name);
            }
        }
        pipeline.drain();

        let seen = seen.lock().unwrap();
        assert_eq!(seen.order, names);
        assert!(seen.orphans.is_empty(), "orphans: {:?}", seen.orphans);
        for name in &names {
            store
                .load(name)
                .unwrap_or_else(|e| panic!("`{name}` does not resolve: {e}"));
        }
    }

    /// Run one seeded schedule of 200 submissions — fulls and deltas under
    /// seven rotating names, so what the store ends up holding depends on
    /// delivery order — through a pipeline with `cores` workers and a
    /// randomly slow sink.
    fn run_schedule(cores: usize) -> Vec<(String, Vec<u8>)> {
        let store = CheckpointStore::new();
        let (mut probe, _) = Probe::new(&store);
        probe.jitter = Some(SplitMix64::new(0xC0FFEE ^ cores as u64));
        let pipeline = CheckpointPipeline::spawn(probe.shared(), config(4), cores);
        let mut process = process_with_heap(6, 96, 11);
        let mut rng = SplitMix64::new(99);
        process.heap_mut().mark_clean();
        for i in 0..200i64 {
            for _ in 0..rng.next_u64() % 4 {
                touch(&mut process, i);
            }
            let pack = if rng.next_u64() % 3 == 0 {
                pack(&mut process, None)
            } else {
                pack(&mut process, Some(("base", rng.next_u64())))
            };
            let name = format!("ck-{}", rng.next_u64() % 7);
            pipeline.submit(MigrateProtocol::Checkpoint, &name, pack);
        }
        pipeline.drain();
        assert_eq!(pipeline.stats().completed, 200);
        let mut names = store.names();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let bytes = store.get(&name).expect("named image present");
                (name, bytes)
            })
            .collect()
    }

    /// (iii) The store a multi-worker pipeline leaves behind is the store a
    /// one-worker pipeline leaves behind, byte for byte.
    #[test]
    fn store_contents_do_not_depend_on_the_worker_count() {
        let serial = run_schedule(1);
        assert_eq!(serial.len(), 7);
        assert_eq!(run_schedule(3), serial);
    }

    /// A sink that panics mid-stream fails that one checkpoint; the
    /// pipeline — also a one-worker pipeline — keeps going.
    #[test]
    fn a_panicking_delivery_fails_one_checkpoint_and_wedges_nothing() {
        for cores in [1, 2] {
            let store = CheckpointStore::new();
            let (mut probe, seen) = Probe::new(&store);
            probe.panic_on = Some(3);
            let sink = probe.shared();
            let pipeline = CheckpointPipeline::spawn(Arc::clone(&sink), config(4), cores);
            let mut process = process_with_heap(4, 64, 13);
            let outcomes: Vec<_> = (0..8)
                .map(|i| {
                    touch(&mut process, i);
                    let pack = pack(&mut process, None);
                    pipeline.submit(MigrateProtocol::Checkpoint, &format!("ck-{i}"), pack)
                })
                .collect();
            pipeline.drain();

            let stats = pipeline.stats();
            assert_eq!((stats.submitted, stats.completed, stats.failed), (8, 8, 1));
            for (i, slot) in outcomes.iter().enumerate() {
                match slot.get().expect("every job got an outcome") {
                    DeliveryOutcome::Failed(why) => {
                        assert_eq!(i, 2);
                        assert!(why.contains("panicked"), "{why}");
                    }
                    outcome => assert_eq!(*outcome, DeliveryOutcome::Stored, "ck-{i}"),
                }
            }
            let landed: Vec<String> = (0..8)
                .filter(|i| *i != 2)
                .map(|i| format!("ck-{i}"))
                .collect();
            assert_eq!(seen.lock().unwrap().order, landed);
            assert!(!store.contains("ck-2"));
            // The mutator's side of the (now poisoned) sink lock still works.
            assert_eq!(lock_sink(&sink).accepted_codecs(), CodecSet::all());
            drop(pipeline);
        }
    }
}
