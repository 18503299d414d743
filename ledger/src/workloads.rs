//! The five workloads.
//!
//! Every workload is a closed loop with one client: the next op starts when
//! the previous one has returned.  An *op* is what a user of the system
//! waits for — a whole grid run, a whole migration, a whole checkpointed
//! run — and each has an oracle that does not depend on the code under
//! test's own outputs agreeing with themselves.
//!
//! An op runs in one of three modes.  `Plain` and `Metrics` call the
//! system's public entry points unchanged (`Metrics` only raises the
//! observability level).  `Traced` is the benchmark bootstrapping the same
//! processes itself so it can put [`Spanned`] wrappers around their
//! externals and sinks; its result must equal the plain one for the same
//! op index, which the harness asserts.

use crate::inputs::{
    ckpt_stream_source, heap_digest, populate_heap_mixed, CKPT_ROUNDS, CKPT_SUSPEND_NAME,
    GRID_COMPUTE, GRID_RECOVER, GRID_RECOVER_FAILURE, GRID_SERVED, MIGRATE_HEAP_BYTES,
};
use crate::span::{Causes, SpanGuard, SpanId, Spanned, Tracer};
use mojave_cluster::{
    Cluster, ClusterConfig, ClusterExternals, ClusterServer, ClusterSink, JobSpec, NodeStats,
    RemoteCluster, RemoteExternals, RemoteSink,
};
use mojave_core::{
    BackendKind, CheckpointStore, InMemorySink, Machine, MigrationImage, PipelineStats, Process,
    ProcessConfig, ProcessStats, RunOutcome, RuntimeError,
};
use mojave_grid::{
    reference_checksums, run_grid_served, run_grid_with, worker_source, FailurePlan, GridConfig,
    GridOptions, GridReport,
};
use mojave_heap::{HeapStats, PtrIdx, Word};
use mojave_obs::{Level, Recorder};
use mojave_runtime::{AsyncSink, PipelineConfig};
use mojave_wire::{CodecId, CodecSet};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Names of the workloads, in the order `ledger all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "grid_compute",
    "grid_recover",
    "grid_served",
    "migrate_cold",
    "ckpt_stream",
];

/// How an op is run.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// The public entry point, observability off: what the timed window runs.
    Plain,
    /// The public entry point at `Level::Metrics` (exact per-layer counts).
    Metrics,
    /// Bootstrapped by the benchmark with spans around every layer call.
    Traced(&'a Tracer),
}

impl<'a> Mode<'a> {
    /// Open a span in traced mode; nothing otherwise.
    fn span(self, name: &'static str) -> Option<SpanGuard<'a>> {
        match self {
            Mode::Traced(tracer) => Some(tracer.span(name)),
            _ => None,
        }
    }
}

/// What the oracle made of one op.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Bytes the op put on the network and into checkpoint storage.
    pub wire_bytes: u64,
    /// Everything about the result that must not depend on the mode the op
    /// ran in: equal between the plain and the traced op of one index.
    pub fingerprint: String,
    /// Exact per-op counts and stats, keyed by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
}

/// One workload: set-up, op, oracle.
pub trait Workload: Sized {
    /// What an op hands its oracle.
    type Raw;

    /// Worker threads a traced op keeps busy at once (for per-thread shares).
    fn workers(&self) -> usize {
        1
    }

    /// Run op number `index`.  This is the timed part.
    fn op(&mut self, index: u64, mode: Mode<'_>) -> Result<Self::Raw, String>;

    /// The oracle (untimed): `Err` is a failed op.
    fn judge(&mut self, raw: Self::Raw) -> Result<Outcome, String>;
}

// ---------------------------------------------------------------------------
// The three grid workloads
// ---------------------------------------------------------------------------

/// A grid workload: one op is one whole grid run on a fresh seeded cluster.
#[derive(Debug)]
pub struct Grid {
    shape: GridConfig,
    failure: Option<FailurePlan>,
    /// `Some(path to mcc)`: workers are `mcc node` processes over loopback.
    served_by: Option<PathBuf>,
    seed: u64,
}

impl Grid {
    /// `grid_compute`: see [`GRID_COMPUTE`].
    pub fn compute(seed: u64) -> Grid {
        Grid {
            shape: GRID_COMPUTE,
            failure: None,
            served_by: None,
            seed,
        }
    }

    /// `grid_recover`: see [`GRID_RECOVER`].
    pub fn recover(seed: u64) -> Grid {
        Grid {
            shape: GRID_RECOVER,
            failure: Some(GRID_RECOVER_FAILURE),
            served_by: None,
            seed,
        }
    }

    /// `grid_served`: see [`GRID_SERVED`].  Needs the `mcc` binary beside
    /// the running executable.
    pub fn served(seed: u64) -> Result<Grid, String> {
        let mcc = mcc_path().ok_or_else(|| {
            "grid_served needs the `mcc` binary beside `ledger` (build it with \
             `cargo build --release -p mcc`)"
                .to_owned()
        })?;
        Ok(Grid {
            shape: GRID_SERVED,
            failure: None,
            served_by: Some(mcc),
            seed,
        })
    }
}

/// Where `mcc` is expected: in the directory of the running executable.
pub fn mcc_path() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join("mcc");
    candidate.is_file().then_some(candidate)
}

impl Workload for Grid {
    type Raw = GridReport;

    fn workers(&self) -> usize {
        self.shape.workers
    }

    fn op(&mut self, index: u64, mode: Mode<'_>) -> Result<GridReport, String> {
        // Every op gets its own cluster seed, so no two ops replay the same
        // virtual-clock schedule.
        let seed = self.seed.wrapping_add(index);
        let obs = match mode {
            Mode::Metrics => Level::Metrics,
            _ => Level::Off,
        };
        let options = GridOptions {
            seed: Some(seed),
            obs,
            ..GridOptions::default()
        };
        match (mode, &self.served_by) {
            (Mode::Traced(tracer), None) => {
                traced_grid_in_process(&self.shape, self.failure, seed, tracer)
            }
            (Mode::Traced(tracer), Some(_)) => traced_grid_served(&self.shape, seed, tracer),
            (_, None) => run_grid_with(&self.shape, self.failure, options).map_err(text),
            (_, Some(mcc)) => {
                let server = bind_hub(self.shape.workers, seed)?;
                let addr = server.local_addr().to_string();
                run_grid_served(&server, &self.shape, None, options, |node| {
                    Command::new(mcc)
                        .arg("node")
                        .arg(&addr)
                        .arg(node.to_string())
                        .stdin(Stdio::null())
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .spawn()
                })
                .map_err(text)
            }
        }
    }

    fn judge(&mut self, report: GridReport) -> Result<Outcome, String> {
        if !report.is_correct() {
            return Err(format!(
                "checksums {:?} differ from the sequential reference {:?}",
                report.worker_checksums, report.reference_checksums
            ));
        }
        if self.failure.is_some() != report.recovered_from_failure {
            return Err(format!(
                "recovered_from_failure is {} but a failure was{} injected",
                report.recovered_from_failure,
                if self.failure.is_some() { "" } else { " not" }
            ));
        }
        let mut counts = vec![
            ("cluster.msgs_per_op", report.network_messages as f64),
            ("grid.checkpoints_per_op", report.checkpoints as f64),
            (
                "grid.delta_share",
                report.delta_checkpoints as f64 / (report.checkpoints.max(1)) as f64,
            ),
        ];
        if !report.node_obs.is_empty() {
            let sum = |name: &str| -> f64 {
                report
                    .node_obs
                    .iter()
                    .map(|o| o.metrics.counter(name) as f64)
                    .sum()
            };
            counts.push(("core.vm_steps_per_op", sum("process.steps")));
            counts.push(("heap.cow_clones_per_op", sum("heap.cow_clones")));
            counts.push((
                "heap.gc_per_op",
                sum("heap.minor_collections") + sum("heap.major_collections"),
            ));
        }
        Ok(Outcome {
            wire_bytes: report.network_bytes + report.checkpoint_stored_bytes,
            fingerprint: format!(
                "{} net={} stored={}",
                report.replay_digest(),
                report.network_bytes,
                report.checkpoint_stored_bytes
            ),
            counts,
        })
    }
}

/// An error as the `String` every fallible step here reports.
pub(crate) fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn bind_hub(workers: usize, seed: u64) -> Result<ClusterServer, String> {
    let cluster = Cluster::new(ClusterConfig::deterministic(workers, seed));
    ClusterServer::bind(cluster, "127.0.0.1:0").map_err(|e| format!("cannot bind the hub: {e}"))
}

/// The step budget the grid coordinator gives its workers.
const WORKER_STEP_BUDGET: u64 = 500_000_000;

/// How a traced worker starts.
enum Start {
    Fresh(mojave_fir::Program),
    /// From a checkpoint image; the span is the resurrection that caused it.
    Resurrected(MigrationImage, Option<SpanId>),
}

struct WorkerResult {
    worker: usize,
    outcome: Result<RunOutcome, RuntimeError>,
    stats: ProcessStats,
}

/// One in-process grid worker, bootstrapped exactly as the grid coordinator
/// does it, with spans around process construction, the run, every external
/// call and every checkpoint delivery.
fn spawn_traced_worker(
    cluster: &Cluster,
    start: Start,
    worker: usize,
    tracer: &Tracer,
    tx: mpsc::Sender<WorkerResult>,
) -> thread::JoinHandle<()> {
    let cluster = cluster.clone();
    let tracer = tracer.clone();
    let parent = Tracer::current();
    thread::spawn(move || {
        Tracer::adopt(parent);
        let config = ProcessConfig {
            machine: Machine::new(cluster.arch(worker)),
            step_budget: Some(WORKER_STEP_BUDGET),
            delta_checkpoints: true,
            ..ProcessConfig::default()
        };
        let built = match start {
            Start::Fresh(program) => {
                let _span = tracer.span("core.process_new");
                Process::new(program, config)
            }
            Start::Resurrected(image, cause) => {
                let _span = tracer.span_under(cause, "core.from_image");
                Process::from_image(image, config)
            }
        };
        let (outcome, stats) = match built {
            Ok(process) => {
                let mut process = process
                    .with_externals(Box::new(Spanned::new(
                        ClusterExternals::new(cluster.clone(), worker),
                        &tracer,
                        "cluster.ext_call",
                    )))
                    .with_sink(Box::new(Spanned::new(
                        ClusterSink::new(cluster.clone(), worker),
                        &tracer,
                        "cluster.deliver",
                    )));
                let outcome = {
                    let _span = tracer.span("core.run");
                    process.run()
                };
                (outcome, process.stats())
            }
            Err(e) => (Err(e), ProcessStats::default()),
        };
        let _ = tx.send(WorkerResult {
            worker,
            outcome,
            stats,
        });
    })
}

/// Running totals a coordinator folds worker reports into.
#[derive(Default)]
struct Totals {
    rollbacks: u64,
    checkpoints: u64,
    delta_checkpoints: u64,
    speculations: u64,
    pause_ns: u64,
    encode_ns: u64,
}

impl Totals {
    fn report(
        self,
        shape: &GridConfig,
        cluster: &Cluster,
        checksums: Vec<f64>,
        recovered: bool,
        start: Instant,
        tracer: &Tracer,
    ) -> GridReport {
        let wall_time = start.elapsed();
        let reference = {
            let _span = tracer.span("grid.reference");
            reference_checksums(shape)
        };
        let store = cluster.store().stats();
        GridReport {
            worker_checksums: checksums,
            reference_checksums: reference,
            recovered_from_failure: recovered,
            rollbacks: self.rollbacks,
            checkpoints: self.checkpoints,
            delta_checkpoints: self.delta_checkpoints,
            speculations: self.speculations,
            wall_time,
            network_bytes: cluster.bytes_transferred(),
            network_messages: cluster.messages_sent(),
            checkpoint_raw_bytes: store.raw_bytes,
            checkpoint_stored_bytes: store.stored_bytes,
            checkpoint_pause_ns: self.pause_ns,
            checkpoint_encode_ns: self.encode_ns,
            node_obs: Vec::new(),
        }
    }
}

/// The newest `grid-<worker>-<step>` checkpoint on the shared store.
fn latest_checkpoint(cluster: &Cluster, worker: usize) -> Option<String> {
    let prefix = format!("grid-{worker}-");
    cluster
        .store()
        .names()
        .into_iter()
        .filter_map(|name| {
            let step = name.strip_prefix(&prefix)?.parse::<u64>().ok()?;
            Some((step, name))
        })
        .max()
        .map(|(_, name)| name)
}

/// The traced twin of `run_grid_with` in deterministic mode: same cluster,
/// same worker configuration, same failure schedule and resurrection.
fn traced_grid_in_process(
    shape: &GridConfig,
    failure: Option<FailurePlan>,
    seed: u64,
    tracer: &Tracer,
) -> Result<GridReport, String> {
    let cluster = Cluster::new(ClusterConfig::deterministic(shape.workers, seed));
    let program = {
        let _span = tracer.span("lang.compile");
        mojave_lang::compile_source(&worker_source(shape)).map_err(text)?
    };
    if let Some(plan) = failure {
        cluster.schedule_failure(plan.victim, plan.after_checkpoints as u64);
    }
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let mut threads: Vec<_> = (0..shape.workers)
        .map(|worker| {
            spawn_traced_worker(
                &cluster,
                Start::Fresh(program.clone()),
                worker,
                tracer,
                tx.clone(),
            )
        })
        .collect();

    let mut checksums = vec![f64::NAN; shape.workers];
    let mut totals = Totals::default();
    let mut finished = 0;
    let mut recovered = false;
    let mut error = None;
    while finished < shape.workers {
        let Ok(result) = rx.recv_timeout(Duration::from_secs(120)) else {
            error = Some("traced workers did not report within the deadline".to_owned());
            break;
        };
        totals.rollbacks += result.stats.rollbacks;
        totals.checkpoints += result.stats.checkpoints;
        totals.delta_checkpoints += result.stats.delta_checkpoints;
        totals.speculations += result.stats.speculations;
        totals.pause_ns += result.stats.checkpoint_pause_ns;
        totals.encode_ns += result.stats.checkpoint_encode_ns;
        match result.outcome {
            Ok(RunOutcome::Exit(code)) => {
                checksums[result.worker] = code as f64 / 100.0;
                finished += 1;
            }
            Ok(other) => {
                error = Some(format!("worker {} ended as {other:?}", result.worker));
                break;
            }
            Err(e) => {
                let injected = failure.map(|p| p.victim) == Some(result.worker)
                    && cluster.is_failed(result.worker);
                if !injected {
                    error = Some(format!("worker {} failed: {e}", result.worker));
                    break;
                }
                // What the failure costs the coordinator: find, load and
                // resolve the newest checkpoint, revive the node, respawn.
                let resurrect = tracer.span("grid.resurrect");
                let Some(name) = latest_checkpoint(&cluster, result.worker) else {
                    error = Some(format!("worker {} has no checkpoint", result.worker));
                    break;
                };
                let loaded = {
                    let _span = tracer.span("core.store_load");
                    cluster.store().load(&name)
                };
                let image = match loaded {
                    Ok(image) => image,
                    Err(e) => {
                        error = Some(format!("checkpoint `{name}` does not load: {e}"));
                        break;
                    }
                };
                cluster.revive_node(result.worker);
                threads.push(spawn_traced_worker(
                    &cluster,
                    Start::Resurrected(image, Some(resurrect.id())),
                    result.worker,
                    tracer,
                    tx.clone(),
                ));
                recovered = true;
            }
        }
    }
    if let Some(message) = error {
        // Unblock any worker still waiting for a peer before giving up.
        (0..shape.workers).for_each(|w| cluster.fail_node(w));
        join_all(threads)?;
        return Err(message);
    }
    join_all(threads)?;
    Ok(totals.report(shape, &cluster, checksums, recovered, start, tracer))
}

fn join_all<T>(threads: Vec<thread::JoinHandle<T>>) -> Result<Vec<T>, String> {
    threads
        .into_iter()
        .map(|t| {
            t.join()
                .map_err(|_| "a traced worker thread panicked".to_owned())
        })
        .collect()
}

/// One served grid node on a thread: the steps of `mcc node`, with spans.
fn traced_node(addr: &str, node: u32, tracer: &Tracer) -> Result<(), String> {
    let codecs = CodecSet::all();
    let (control, sink_conn, job) = {
        let _span = tracer.span("cluster.connect");
        // Two connections, as `mcc node` opens them: checkpoint deliveries
        // must not queue behind a blocking receive on the control link.
        let control = RemoteCluster::connect(addr, node, codecs).map_err(text)?;
        let (job, _resume) = control.fetch_job().map_err(text)?;
        let sink_conn = RemoteCluster::connect(addr, node, codecs).map_err(text)?;
        (control, sink_conn, job)
    };
    let welcome = control.welcome().clone();
    let config = ProcessConfig {
        machine: Machine::new(welcome.arch.clone()),
        step_budget: job.step_budget,
        delta_checkpoints: job.delta_checkpoints,
        heap_codec: job.heap_codec.and_then(CodecId::from_u8),
        async_checkpoints: job.async_checkpoints,
        ..ProcessConfig::default()
    };
    let program = {
        let _span = tracer.span("lang.compile");
        mojave_lang::compile_source(&job.source).map_err(text)?
    };
    let process = {
        let _span = tracer.span("core.process_new");
        Process::new(program, config).map_err(text)?
    };
    let mut process = process
        .with_externals(Box::new(Spanned::new(
            RemoteExternals::new(control.clone()),
            tracer,
            "cluster.ext_call",
        )))
        .with_sink(Box::new(Spanned::new(
            RemoteSink::new(sink_conn.clone()),
            tracer,
            "cluster.deliver",
        )));
    let outcome = {
        let _span = tracer.span("core.run");
        process.run()
    };
    let stats = process.stats();
    let link = control.link_stats();
    let mut report = NodeStats {
        node,
        rollbacks: stats.rollbacks,
        checkpoints: stats.checkpoints,
        delta_checkpoints: stats.delta_checkpoints,
        speculations: stats.speculations,
        checkpoint_pause_ns: stats.checkpoint_pause_ns,
        checkpoint_encode_ns: stats.checkpoint_encode_ns,
        frames_sent: link.frames_sent(),
        frames_received: link.frames_received(),
        bytes_sent: link.bytes_sent(),
        bytes_received: link.bytes_received(),
        ..NodeStats::default()
    };
    match outcome {
        Ok(RunOutcome::Exit(code)) => report.exit_code = Some(code),
        Ok(other) => report.error = Some(format!("unexpected outcome: {other:?}")),
        Err(e) => report.error = Some(e.to_string()),
    }
    drop(process);
    let _span = tracer.span("cluster.report");
    control.report_stats(&report).map_err(text)?;
    sink_conn.bye();
    control.bye();
    Ok(())
}

/// The traced twin of `run_grid_served`: the same hub, job and RPC
/// externals/sink, with the node processes replaced by threads so the
/// benchmark can wrap what they call.
fn traced_grid_served(
    shape: &GridConfig,
    seed: u64,
    tracer: &Tracer,
) -> Result<GridReport, String> {
    let server = bind_hub(shape.workers, seed)?;
    let cluster = server.cluster();
    server.set_job(JobSpec {
        source: worker_source(shape),
        step_budget: Some(WORKER_STEP_BUDGET),
        delta_checkpoints: true,
        heap_codec: None,
        async_checkpoints: false,
        obs_level: Level::Off as u8,
    });
    let start = Instant::now();
    let addr = server.local_addr().to_string();
    let parent = Tracer::current();
    let threads: Vec<_> = (0..shape.workers as u32)
        .map(|node| {
            let (addr, tracer) = (addr.clone(), tracer.clone());
            thread::spawn(move || {
                Tracer::adopt(parent);
                traced_node(&addr, node, &tracer)
            })
        })
        .collect();
    let mut checksums = vec![f64::NAN; shape.workers];
    let mut totals = Totals::default();
    let mut error = None;
    for _ in 0..shape.workers {
        let Some(stats) = server.next_stats(Duration::from_secs(120)) else {
            error = Some("traced nodes did not report within the deadline".to_owned());
            break;
        };
        totals.rollbacks += stats.rollbacks;
        totals.checkpoints += stats.checkpoints;
        totals.delta_checkpoints += stats.delta_checkpoints;
        totals.speculations += stats.speculations;
        totals.pause_ns += stats.checkpoint_pause_ns;
        totals.encode_ns += stats.checkpoint_encode_ns;
        match stats.exit_code {
            Some(code) => checksums[stats.node as usize] = code as f64 / 100.0,
            None => {
                error = Some(format!(
                    "node {} failed: {}",
                    stats.node,
                    stats.error.unwrap_or_default()
                ));
                break;
            }
        }
    }
    if error.is_some() {
        (0..shape.workers).for_each(|w| cluster.fail_node(w));
    }
    let node_results = join_all(threads)?;
    if let Some(message) = error {
        return Err(message);
    }
    node_results.into_iter().collect::<Result<Vec<()>, _>>()?;
    Ok(totals.report(shape, &cluster, checksums, false, start, tracer))
}

// ---------------------------------------------------------------------------
// migrate_cold
// ---------------------------------------------------------------------------

/// `migrate_cold`: FIR-protocol cold migration of a process carrying a
/// 1 MiB mixed-entropy heap — pack, serialise, parse, verify + recompile +
/// rebuild the heap at the destination.  The VM executes nothing.
#[derive(Debug)]
pub struct MigrateCold {
    source: Process,
    roots: Vec<Word>,
    source_digest: u64,
    seen: HeapStats,
}

/// A migrated process and the bytes that carried it.
#[derive(Debug)]
pub struct Migrated {
    bytes: Vec<u8>,
    migrate_env: PtrIdx,
    destination: Process,
}

/// The process every migration experiment ships: the grid worker's code
/// plus `heap_bytes` of mixed-entropy live data.
pub fn process_with_mixed_heap(heap_bytes: usize, seed: u64) -> (Process, Vec<PtrIdx>) {
    let program = mojave_lang::compile_source(&worker_source(&GRID_COMPUTE))
        .expect("the grid worker compiles");
    let mut process = Process::new(program, ProcessConfig::default()).expect("program verifies");
    let blocks = populate_heap_mixed(process.heap_mut(), heap_bytes, seed);
    (process, blocks)
}

impl MigrateCold {
    /// Build the source process from `seed`.
    pub fn new(seed: u64) -> Result<MigrateCold, String> {
        let (source, blocks) = process_with_mixed_heap(MIGRATE_HEAP_BYTES, seed);
        let source_digest = heap_digest(source.heap(), &blocks)?;
        let seen = source.heap().stats();
        Ok(MigrateCold {
            source,
            roots: blocks.into_iter().map(Word::Ptr).collect(),
            source_digest,
            seen,
        })
    }
}

impl Workload for MigrateCold {
    type Raw = Migrated;

    fn op(&mut self, _index: u64, mode: Mode<'_>) -> Result<Migrated, String> {
        let image = {
            let _span = mode.span("core.pack");
            self.source
                .pack(0, Word::Fun(0), &self.roots)
                .map_err(text)?
        };
        let bytes = {
            let _span = mode.span("core.to_bytes");
            image.to_bytes()
        };
        let received = {
            let _span = mode.span("core.from_bytes");
            MigrationImage::from_bytes(&bytes).map_err(text)?
        };
        let migrate_env = received.migrate_env;
        let destination = {
            let _span = mode.span("core.from_image");
            Process::from_image(received, ProcessConfig::default()).map_err(text)?
        };
        Ok(Migrated {
            bytes,
            migrate_env,
            destination,
        })
    }

    fn judge(&mut self, migrated: Migrated) -> Result<Outcome, String> {
        // The destination's roots are whatever its migrate_env block holds.
        let heap = migrated.destination.heap();
        let env_len = heap.block_len(migrated.migrate_env).map_err(text)?;
        let roots: Vec<PtrIdx> = (0..env_len)
            .map(|i| {
                heap.load(migrated.migrate_env, i as i64)
                    .map_err(text)?
                    .as_ptr()
                    .ok_or_else(|| format!("migrate_env slot {i} is not a pointer"))
            })
            .collect::<Result<_, String>>()?;
        let digest = heap_digest(heap, &roots)?;
        if digest != self.source_digest {
            return Err(format!(
                "destination heap digest {digest:016x} differs from the source's {:016x}",
                self.source_digest
            ));
        }
        let reencoded = MigrationImage::from_bytes(&migrated.bytes)
            .map_err(text)?
            .to_bytes();
        if reencoded != migrated.bytes {
            return Err("from_bytes(to_bytes(image)) is not byte-stable".to_owned());
        }
        let now = self.source.heap().stats();
        let counts = vec![
            (
                "heap.gc_per_op",
                (now.total_collections() - self.seen.total_collections()) as f64,
            ),
            (
                "heap.cow_clones_per_op",
                (now.cow_clones - self.seen.cow_clones) as f64,
            ),
        ];
        self.seen = now;
        Ok(Outcome {
            wire_bytes: migrated.bytes.len() as u64,
            fingerprint: format!(
                "image={:016x} heap={digest:016x}",
                mojave_wire::fingerprint(&migrated.bytes)
            ),
            counts,
        })
    }
}

// ---------------------------------------------------------------------------
// ckpt_stream
// ---------------------------------------------------------------------------

/// `ckpt_stream`: resume a suspended process with 1 MiB of live heap and let
/// it take 32 asynchronous full checkpoints while it keeps writing — the
/// mutator pays freeze + first-write-after-freeze copies, the pipeline
/// thread encodes beside it.  Decode never runs (except to resume).
#[derive(Debug)]
pub struct CkptStream {
    suspended: Vec<u8>,
    expected_exit: i64,
}

/// What one `ckpt_stream` op leaves behind.
#[derive(Debug)]
pub struct Streamed {
    outcome: RunOutcome,
    store: CheckpointStore,
    stats: ProcessStats,
    heap: HeapStats,
    pipeline: Option<PipelineStats>,
}

impl CkptStream {
    /// Compile the program, run it to its `suspend`, and compute the exit
    /// value the resumed run must produce on the reference interpreter.
    pub fn new(seed: u64) -> Result<CkptStream, String> {
        let program = mojave_lang::compile_source(&ckpt_stream_source(seed)).map_err(text)?;
        let store = CheckpointStore::new();
        let mut process = Process::new(program, ProcessConfig::default())
            .map_err(text)?
            .with_sink(Box::new(InMemorySink::with_store(store.clone())));
        match process.run().map_err(text)? {
            RunOutcome::Suspended { .. } => {}
            other => return Err(format!("set-up run ended as {other:?}, not suspended")),
        }
        let suspended = store
            .get(CKPT_SUSPEND_NAME)
            .ok_or("the suspend image is not in the store")?;
        // The oracle's expected value: the same image resumed on the FIR
        // interpreter with the default synchronous sink.
        let image = MigrationImage::from_bytes(&suspended).map_err(text)?;
        let reference = ProcessConfig {
            backend: BackendKind::Interp,
            ..ProcessConfig::default()
        };
        let expected_exit = match Process::from_image(image, reference)
            .map_err(text)?
            .run()
            .map_err(text)?
        {
            RunOutcome::Exit(value) => value,
            other => return Err(format!("reference run ended as {other:?}")),
        };
        Ok(CkptStream {
            suspended,
            expected_exit,
        })
    }
}

impl Workload for CkptStream {
    type Raw = Streamed;

    fn op(&mut self, _index: u64, mode: Mode<'_>) -> Result<Streamed, String> {
        let image = {
            let _span = mode.span("core.from_bytes");
            MigrationImage::from_bytes(&self.suspended).map_err(text)?
        };
        let config = ProcessConfig {
            async_checkpoints: true,
            delta_checkpoints: false,
            ..ProcessConfig::default()
        };
        let process = {
            let _span = mode.span("core.from_image");
            Process::from_image(image, config).map_err(text)?
        };
        let store = CheckpointStore::new();
        let mut pipeline_stats = None;
        let mut process = match mode {
            Mode::Plain => process.with_sink(Box::new(AsyncSink::new(
                Box::new(InMemorySink::with_store(store.clone())),
                PipelineConfig::default(),
            ))),
            Mode::Metrics => {
                let recorder = Recorder::new(0, Level::Metrics);
                let sink = AsyncSink::new(
                    Box::new(InMemorySink::with_store(store.clone())),
                    PipelineConfig::default(),
                );
                sink.set_recorder(recorder.clone());
                process.with_sink(Box::new(sink)).with_recorder(recorder)
            }
            Mode::Traced(tracer) => {
                let causes = Causes::default();
                let inner = Spanned::new(
                    InMemorySink::with_store(store.clone()),
                    tracer,
                    "core.deliver",
                )
                .caused_by(&causes);
                let pipeline = AsyncSink::new(Box::new(inner), PipelineConfig::default());
                let outer =
                    Spanned::new(pipeline, tracer, "runtime.deliver").submitting_to(&causes);
                pipeline_stats = Some(outer.pipeline_stats_slot());
                process.with_sink(Box::new(outer))
            }
        };
        let outcome = {
            let _span = mode.span("core.run");
            process.run().map_err(text)?
        };
        // `Process::run` asked the sink for its counters after the final
        // flush; the wrapper kept what it answered.
        let pipeline = pipeline_stats.and_then(|slot| *slot.lock().expect("stats slot lock"));
        Ok(Streamed {
            outcome,
            store,
            stats: process.stats(),
            heap: process.heap().stats(),
            pipeline,
        })
    }

    fn judge(&mut self, streamed: Streamed) -> Result<Outcome, String> {
        if streamed.outcome != RunOutcome::Exit(self.expected_exit) {
            return Err(format!(
                "run ended as {:?}; the interpreter exits with {}",
                streamed.outcome, self.expected_exit
            ));
        }
        let names = streamed.store.names();
        if names.len() != CKPT_ROUNDS {
            return Err(format!(
                "{} checkpoints in the store, expected {CKPT_ROUNDS}",
                names.len()
            ));
        }
        for name in &names {
            streamed
                .store
                .load(name)
                .map_err(|e| format!("checkpoint `{name}` does not load: {e}"))?;
        }
        let stored = streamed.store.stats().stored_bytes;
        let mut counts = vec![
            ("core.vm_steps_per_op", streamed.stats.steps as f64),
            ("heap.cow_clones_per_op", streamed.heap.cow_clones as f64),
            ("heap.gc_per_op", streamed.heap.total_collections() as f64),
        ];
        if let Some(p) = streamed.pipeline {
            counts.push((
                "runtime.encode_ms_per_ckpt",
                p.encode_ns as f64 / 1e6 / p.completed.max(1) as f64,
            ));
            counts.push(("runtime.queue_depth_max", p.queue_depth_max as f64));
        }
        Ok(Outcome {
            wire_bytes: stored,
            fingerprint: format!(
                "exit={} images={} stored={stored}",
                self.expected_exit,
                names.len()
            ),
            counts,
        })
    }
}
