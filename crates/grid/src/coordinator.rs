//! The coordinator: launches the workers on the cluster, injects failures,
//! resurrects failed workers from their checkpoints and verifies the result.

use crate::reference::reference_checksums;
use crate::source::worker_source;
use crate::worker::run_worker;
use crate::GridConfig;
use mojave_cluster::{
    Cluster, ClusterConfig, ClusterServer, JobSpec, LocalNode, NodeStats, Resume,
};
use mojave_obs::{Level, NodeObs};
use mojave_wire::CodecId;
use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::process::Child;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// When and whom to kill during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailurePlan {
    /// The worker (cluster node) to kill.
    pub victim: usize,
    /// Kill the victim once this many of its checkpoints exist in the store
    /// (so there is something to resurrect from).
    pub after_checkpoints: usize,
}

/// Outcome of a grid run.
#[derive(Debug, Clone, Default)]
pub struct GridReport {
    /// Checksum each worker reported (scaled by 100 in the exit code).
    pub worker_checksums: Vec<f64>,
    /// Checksums of the sequential reference solution.
    pub reference_checksums: Vec<f64>,
    /// Whether a failure was injected and the computation recovered.
    pub recovered_from_failure: bool,
    /// Total rollbacks observed across workers (including the resurrected
    /// run of the victim).
    pub rollbacks: u64,
    /// Total checkpoints written.
    pub checkpoints: u64,
    /// Of those, how many were incremental (delta) images rather than full
    /// heap encodings.
    pub delta_checkpoints: u64,
    /// Total speculation entries.
    pub speculations: u64,
    /// Wall-clock duration of the distributed phase.
    pub wall_time: Duration,
    /// Bytes moved over the simulated network.
    pub network_bytes: u64,
    /// Point-to-point messages sent over the simulated network (border
    /// exchanges, checkpoint-store writes, and any re-sends after
    /// rollbacks or resurrection).
    pub network_messages: u64,
    /// Checkpoint-store bytes with every compressed slab frame expanded
    /// to its raw length (see `CheckpointStore::stats`).
    pub checkpoint_raw_bytes: u64,
    /// Checkpoint-store bytes actually stored — with slab compression
    /// on, strictly below [`GridReport::checkpoint_raw_bytes`].
    pub checkpoint_stored_bytes: u64,
    /// Nanoseconds workers' mutators were blocked by checkpointing,
    /// summed across workers (resurrected runs included).  With the
    /// asynchronous pipeline this is the freeze + submission cost only;
    /// synchronously it includes the whole encode.
    pub checkpoint_pause_ns: u64,
    /// Nanoseconds spent encoding checkpoint images, summed across
    /// workers — on mutator threads for synchronous checkpoints, on
    /// pipeline workers for asynchronous ones.
    pub checkpoint_encode_ns: u64,
    /// Per-worker observability reports (flight-recorder events +
    /// metrics), present when the run was started with
    /// [`GridOptions::obs`] above [`Level::Off`].  Sorted by node id; a
    /// resurrected victim contributes two reports (pre-failure run
    /// first).  Deliberately excluded from [`GridReport::replay_digest`].
    pub node_obs: Vec<NodeObs>,
}

impl GridReport {
    /// Whether every worker's checksum matches the reference within the
    /// rounding of the integer exit encoding.
    pub fn is_correct(&self) -> bool {
        self.worker_checksums.len() == self.reference_checksums.len()
            && self
                .worker_checksums
                .iter()
                .zip(&self.reference_checksums)
                .all(|(got, want)| (got - want).abs() < 0.05)
    }

    /// Largest absolute checksum error.
    pub fn max_error(&self) -> f64 {
        self.worker_checksums
            .iter()
            .zip(&self.reference_checksums)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max)
    }

    /// A stable digest of every **replay-deterministic** field of the
    /// report: checksum bit patterns, rollback/checkpoint/speculation
    /// counters, recovery flag and message count.  Two seeded
    /// ([`GridOptions::seed`]) runs with the same configuration, failure
    /// plan and seed produce bit-identical digests.  Deliberately
    /// excluded: `wall_time` (it measures the host, not the run) and the
    /// byte counters (`network_bytes`, checkpoint sizes) — those depend on
    /// the negotiated slab-compression codec, and the digest asserts
    /// *logical* replay identity, so a run with compressed checkpoints
    /// digests identically to the same run with `CodecId::Raw`.  Byte
    /// determinism for a fixed codec is asserted separately
    /// (`deterministic_runs_replay_bit_identically`).
    pub fn replay_digest(&self) -> String {
        let mut out = String::new();
        for c in &self.worker_checksums {
            let _ = write!(out, "{:016x},", c.to_bits());
        }
        let _ = write!(
            out,
            "recovered={} rollbacks={} checkpoints={} deltas={} specs={} msgs={}",
            self.recovered_from_failure,
            self.rollbacks,
            self.checkpoints,
            self.delta_checkpoints,
            self.speculations,
            self.network_messages,
        );
        out
    }

    /// A human-readable multi-line summary of the run: correctness,
    /// recovery, the speculation/checkpoint counters, network traffic,
    /// and the checkpoint byte + time accounting (stored-vs-raw bytes,
    /// mutator pause vs encode time).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "grid run: {} workers, correct={}, recovered_from_failure={}",
            self.worker_checksums.len(),
            self.is_correct(),
            self.recovered_from_failure,
        );
        let _ = writeln!(
            out,
            "  speculation: {} entered, {} rollbacks",
            self.speculations, self.rollbacks,
        );
        let _ = writeln!(
            out,
            "  checkpoints: {} ({} deltas), stored {} B of {} B raw ({:.1}% on the wire)",
            self.checkpoints,
            self.delta_checkpoints,
            self.checkpoint_stored_bytes,
            self.checkpoint_raw_bytes,
            if self.checkpoint_raw_bytes == 0 {
                100.0
            } else {
                self.checkpoint_stored_bytes as f64 * 100.0 / self.checkpoint_raw_bytes as f64
            },
        );
        let _ = writeln!(
            out,
            "  checkpoint time: mutator pause {:.3} ms, encode {:.3} ms",
            self.checkpoint_pause_ns as f64 / 1e6,
            self.checkpoint_encode_ns as f64 / 1e6,
        );
        let _ = writeln!(
            out,
            "  network: {} messages, {} B; wall time {:?}",
            self.network_messages, self.network_bytes, self.wall_time,
        );
        if !self.node_obs.is_empty() {
            let events: usize = self.node_obs.iter().map(|o| o.events.len()).sum();
            let _ = writeln!(
                out,
                "  observability: {} reports, {} recorded events",
                self.node_obs.len(),
                events,
            );
        }
        out
    }
}

/// Errors from a grid run.
#[derive(Debug)]
pub enum GridError {
    /// A worker failed for a reason other than injected failure: its source
    /// did not compile, a runtime error, or an unexpected outcome
    /// (migrated/suspended).
    Worker {
        /// Which worker.
        worker: usize,
        /// The worker's own description of what went wrong.
        error: String,
    },
    /// The victim failed but no checkpoint was available to resurrect from.
    NoCheckpoint {
        /// The victim worker.
        worker: usize,
    },
    /// The harness failed outside any one worker: the workers stopped
    /// reporting, a node process could not be spawned, or the hub's cluster
    /// does not fit the grid.
    Transport(String),
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Worker { worker, error } => write!(f, "worker {worker} failed: {error}"),
            GridError::NoCheckpoint { worker } => {
                write!(f, "worker {worker} failed before writing any checkpoint")
            }
            GridError::Transport(message) => write!(f, "transport harness failed: {message}"),
        }
    }
}

impl std::error::Error for GridError {}

/// Per-run knobs orthogonal to the grid shape: the simulation seed,
/// checkpoint codec, and the asynchronous checkpoint pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridOptions {
    /// The seed of the cluster simulation ([`ClusterConfig::deterministic`]):
    /// seeded virtual time, no wall-clock receive timeouts, and failure
    /// injection fired synchronously inside the victim's
    /// `after_checkpoints`-th checkpoint delivery, so the whole run replays
    /// bit-identically from the seed.  `None` is seed 0.
    pub seed: Option<u64>,
    /// Slab-compression codec for worker checkpoints: `None` auto-chooses
    /// per slab, `Some(CodecId::Raw)` disables compression.  The codec only
    /// changes checkpoint *bytes*, never control flow.
    pub heap_codec: Option<CodecId>,
    /// Route worker checkpoints through the asynchronous pipeline
    /// (`mojave-runtime`).  The pipeline runs with drain barriers, so the
    /// replay digest is identical to the synchronous run's: the encode
    /// moves off the mutator thread, the mutator still waits for it.
    pub async_checkpoints: bool,
    /// Observability level workers run their flight recorders at.
    /// [`Level::Off`] (the default) compiles down to one relaxed atomic
    /// load per would-be event; [`Level::Trace`] additionally fills
    /// [`GridReport::node_obs`].  Never affects
    /// [`GridReport::replay_digest`].
    pub obs: Level,
}

/// The job every worker of a run executes — the one place worker settings
/// are decided, for threads and node processes alike.
fn job_spec(config: &GridConfig, options: GridOptions) -> JobSpec {
    JobSpec {
        source: worker_source(config),
        step_budget: Some(500_000_000),
        // Periodic checkpoints of a stencil worker are the delta
        // pipeline's home turf: between checkpoints only the field rows
        // and loop state mutate, so deltas stay small.
        delta_checkpoints: true,
        heap_codec: options.heap_codec.map(|c| c as u8),
        async_checkpoints: options.async_checkpoints,
        obs_level: options.obs as u8,
    }
}

/// Latest checkpoint name and step for a worker, if any.
fn latest_checkpoint(cluster: &Cluster, worker: usize) -> Option<(String, u64)> {
    let prefix = format!("grid-{worker}-");
    cluster
        .store()
        .names()
        .into_iter()
        .filter_map(|name| {
            name.strip_prefix(&prefix)
                .and_then(|s| s.parse::<u64>().ok())
                .map(|step| (name.clone(), step))
        })
        .max_by_key(|(_, step)| *step)
}

/// How long [`drive`] waits for the next worker report before giving up.
const REPORT_DEADLINE: Duration = Duration::from_secs(120);

/// The one collect loop, over workers that are threads of this process or
/// node processes behind a hub: launch them, inject the planned failure,
/// fold reports until every worker has exited — resurrecting the victim
/// from its latest checkpoint — and verify against the sequential
/// reference.
///
/// `launch(worker, resume)` starts a worker from `main`, or (resurrection)
/// from a checkpoint; `reports(deadline)` yields the next finished worker's
/// report, `None` after `deadline`, or an error when a worker is known to
/// be gone without one.  The caller fills in [`GridReport::node_obs`].
fn drive(
    cluster: &Cluster,
    config: &GridConfig,
    failure: Option<FailurePlan>,
    deadline: Duration,
    mut launch: impl FnMut(usize, Option<Resume>) -> Result<(), GridError>,
    mut reports: impl FnMut(Duration) -> Result<Option<NodeStats>, GridError>,
) -> Result<GridReport, GridError> {
    // Arm the failure *before* any worker runs: the victim is then marked
    // failed inside its own k-th checkpoint delivery, independent of
    // scheduling.
    if let Some(plan) = failure {
        cluster.schedule_failure(plan.victim, plan.after_checkpoints as u64);
    }
    let start = Instant::now();
    for worker in 0..config.workers {
        launch(worker, None)?;
    }

    let mut report = GridReport {
        worker_checksums: vec![f64::NAN; config.workers],
        reference_checksums: reference_checksums(config),
        ..GridReport::default()
    };
    let mut finished = 0;
    while finished < config.workers {
        let stats = reports(deadline)?.ok_or_else(|| {
            GridError::Transport(format!("workers did not report within {deadline:?}"))
        })?;
        let worker = stats.node as usize;
        report.rollbacks += stats.rollbacks;
        report.checkpoints += stats.checkpoints;
        report.delta_checkpoints += stats.delta_checkpoints;
        report.speculations += stats.speculations;
        report.checkpoint_pause_ns += stats.checkpoint_pause_ns;
        report.checkpoint_encode_ns += stats.checkpoint_encode_ns;
        if let Some(code) = stats.exit_code {
            report.worker_checksums[worker] = code as f64 / 100.0;
            finished += 1;
        } else if failure.map(|p| p.victim) == Some(worker) && cluster.is_failed(worker) {
            // The paper's resurrection daemon: restart the failed
            // computation from its last checkpoint on a replacement machine
            // for the same node slot (the node identity is what the
            // neighbours address their messages to).
            let (name, step) =
                latest_checkpoint(cluster, worker).ok_or(GridError::NoCheckpoint { worker })?;
            let image = cluster.store().load(&name).map_err(|e| GridError::Worker {
                worker,
                error: e.to_string(),
            })?;
            cluster.revive_node(worker);
            let image = image.to_bytes();
            launch(worker, Some(Resume { step, image }))?;
            report.recovered_from_failure = true;
        } else {
            return Err(GridError::Worker {
                worker,
                error: stats.error.unwrap_or_else(|| "no error reported".into()),
            });
        }
    }

    let store_stats = cluster.store().stats();
    report.wall_time = start.elapsed();
    report.network_bytes = cluster.bytes_transferred();
    report.network_messages = cluster.messages_sent();
    report.checkpoint_raw_bytes = store_stats.raw_bytes;
    report.checkpoint_stored_bytes = store_stats.stored_bytes;
    Ok(report)
}

/// Run the grid computation on a simulated cluster inside this process —
/// one thread per worker, each on its [`LocalNode`] — optionally injecting
/// a node failure, and verify against the sequential reference.
pub fn run_grid_with(
    config: &GridConfig,
    failure: Option<FailurePlan>,
    options: GridOptions,
) -> Result<GridReport, GridError> {
    let cluster = Cluster::new(ClusterConfig::deterministic(
        config.workers,
        options.seed.unwrap_or(0),
    ));
    run_grid_on(&cluster, config, failure, options)
}

/// [`run_grid_with`] on `cluster`, whose store the caller can then read.
fn run_grid_on(
    cluster: &Cluster,
    config: &GridConfig,
    failure: Option<FailurePlan>,
    options: GridOptions,
) -> Result<GridReport, GridError> {
    let job = Arc::new(job_spec(config, options));
    let (tx, rx) = mpsc::channel();
    let mut node_obs = Vec::new();
    let launch = |worker, resume| {
        let node = LocalNode::new(cluster.clone(), worker);
        let (job, tx) = (Arc::clone(&job), tx.clone());
        thread::spawn(move || {
            let _ = tx.send(run_worker(&job, resume, node));
        });
        Ok(())
    };
    let reports = |deadline| {
        Ok(rx.recv_timeout(deadline).ok().map(|(stats, obs)| {
            node_obs.extend(obs);
            stats
        }))
    };
    let mut report = drive(cluster, config, failure, REPORT_DEADLINE, launch, reports)?;
    // Arrival order across nodes depends on thread scheduling; a stable
    // sort by node id makes the report deterministic (a resurrected
    // victim's pre-failure report necessarily arrived before its
    // post-resurrection one, and stability preserves that).
    node_obs.sort_by_key(|o| o.node);
    report.node_obs = node_obs;
    Ok(report)
}

/// Run the grid computation across **real node processes** over the
/// socket transport: the caller binds a [`ClusterServer`] (owning the
/// seeded cluster) and supplies a closure that spawns one OS process per
/// worker — normally `mcc node <addr> <id>`.
///
/// The server hands every node the same job [`run_grid_with`]'s threads
/// run, and the same loop collects the reports, resurrects a failed victim
/// (here by arming its latest checkpoint as a resume image and respawning
/// it) and assembles the [`GridReport`] from the same hub-side state — so
/// the [`GridReport::replay_digest`] matches the in-process run's at the
/// same seed.  That is the transport's correctness oracle.
///
/// While it waits for reports it watches the node processes: one that
/// exits with a failure status before reporting (`mcc node` does when it
/// cannot join) fails the run at once.  No node process outlives the call:
/// on success every node has exited, and on an error the ones still
/// running are killed and reaped.
pub fn run_grid_served(
    server: &ClusterServer,
    config: &GridConfig,
    failure: Option<FailurePlan>,
    options: GridOptions,
    mut spawn: impl FnMut(usize) -> std::io::Result<std::process::Child>,
) -> Result<GridReport, GridError> {
    let cluster = server.cluster();
    if cluster.num_nodes() != config.workers {
        return Err(GridError::Transport(format!(
            "cluster has {} nodes but the grid wants {} workers",
            cluster.num_nodes(),
            config.workers
        )));
    }
    server.set_job(job_spec(config, options));
    let nodes = RefCell::new(NodeProcesses(Vec::new()));
    let launch = |worker, resume| {
        // The resurrection daemon, process edition: arm the checkpoint as
        // the node's resume image, then respawn it.
        if let Some(resume) = resume {
            server.set_resume(worker as u32, resume);
        }
        let child = spawn(worker)
            .map_err(|e| GridError::Transport(format!("cannot spawn node {worker}: {e}")))?;
        nodes.borrow_mut().0.push((worker, child));
        Ok(())
    };
    let reports = |deadline: Duration| {
        let start = Instant::now();
        loop {
            let slice = deadline.saturating_sub(start.elapsed()).min(WATCH_SLICE);
            if let Some(stats) = server.next_stats(slice) {
                return Ok(Some(stats));
            }
            // A node reports before it exits, and exits successfully once
            // it has reported.
            for (worker, child) in &mut nodes.borrow_mut().0 {
                if let Ok(Some(status)) = child.try_wait() {
                    if !status.success() {
                        return Err(GridError::Transport(format!(
                            "node {worker} exited before the run completed ({status})"
                        )));
                    }
                }
            }
            if start.elapsed() >= deadline {
                return Ok(None);
            }
        }
    };
    let mut report = drive(&cluster, config, failure, REPORT_DEADLINE, launch, reports)?;
    for (_, child) in &mut nodes.borrow_mut().0 {
        let _ = child.wait();
    }
    report.node_obs = server.obs_reports();
    Ok(report)
}

/// How long a served run waits for a report before it looks at its node
/// processes again.
const WATCH_SLICE: Duration = Duration::from_millis(50);

/// The node processes of a served run, by worker.  Dropping it kills and
/// reaps every one still running.
struct NodeProcesses(Vec<(usize, Child)>);

impl Drop for NodeProcesses {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mojave_obs::EventKind;

    /// Deterministic simulation mode from `seed`, everything else default.
    fn seeded(seed: u64) -> GridOptions {
        GridOptions {
            seed: Some(seed),
            ..GridOptions::default()
        }
    }

    #[test]
    fn fault_free_run_matches_reference() {
        let config = GridConfig {
            workers: 3,
            rows_per_worker: 4,
            cols: 8,
            timesteps: 12,
            checkpoint_interval: 4,
        };
        let report =
            run_grid_with(&config, None, GridOptions::default()).expect("grid run succeeds");
        assert!(
            report.is_correct(),
            "checksums {:?} vs reference {:?}",
            report.worker_checksums,
            report.reference_checksums
        );
        assert!(!report.recovered_from_failure);
        // Every worker checkpoints timesteps / interval times.
        assert_eq!(report.checkpoints, (3 * 12 / 4) as u64);
        // Each worker's first checkpoint is full; the rest ride the delta
        // pipeline against it.
        assert_eq!(report.delta_checkpoints, report.checkpoints - 3);
        assert!(report.speculations >= report.checkpoints);
        assert!(report.network_bytes > 0);
        // Slab compression is observable in the store accounting, not
        // inferred: checkpoints ship fewer bytes than their raw frames.
        assert!(
            report.checkpoint_stored_bytes < report.checkpoint_raw_bytes,
            "stored {} vs raw {}",
            report.checkpoint_stored_bytes,
            report.checkpoint_raw_bytes
        );
    }

    #[test]
    fn deterministic_runs_replay_bit_identically() {
        let config = GridConfig {
            workers: 4,
            rows_per_worker: 3,
            cols: 6,
            timesteps: 8,
            checkpoint_interval: 2,
        };
        let failure = Some(FailurePlan {
            victim: 2,
            after_checkpoints: 1,
        });
        let a = run_grid_with(&config, failure, seeded(0xD5EED)).expect("first run");
        assert!(a.is_correct(), "max error {}", a.max_error());
        assert!(a.recovered_from_failure);
        let b = run_grid_with(&config, failure, seeded(0xD5EED)).expect("replay");
        assert_eq!(a.replay_digest(), b.replay_digest());
        // The digest is wire-size-independent by design; byte determinism
        // for a fixed codec is asserted separately here.
        assert_eq!(a.network_bytes, b.network_bytes);
        assert_eq!(a.checkpoint_stored_bytes, b.checkpoint_stored_bytes);
        // Surviving neighbours of the victim roll back exactly once each in
        // deterministic mode — no scheduling-dependent MSG_ROLL spinning.
        assert_eq!(a.rollbacks, 2);
    }

    /// `grid_recover`'s shape: a checkpoint every step, and worker 1 dies
    /// inside its 100th checkpoint delivery.  Every full checkpoint names
    /// the one worker program, which the store keeps once, and recovery
    /// reads it back from there.
    #[test]
    fn a_recovering_run_stores_its_one_program_once() {
        let config = GridConfig {
            workers: 2,
            rows_per_worker: 4,
            cols: 8,
            timesteps: 200,
            checkpoint_interval: 1,
        };
        let failure = Some(FailurePlan {
            victim: 1,
            after_checkpoints: 100,
        });
        let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, 12));
        let report = run_grid_on(&cluster, &config, failure, seeded(12)).expect("grid run");
        assert!(report.is_correct(), "max error {}", report.max_error());
        assert!(report.recovered_from_failure);
        let store = cluster.store();
        let stats = store.stats();
        assert_eq!(stats.code_sections, 1);
        assert_eq!(stats.stored_bytes, report.checkpoint_stored_bytes);
        // What the entries do not hold is the program, framed, once.  Each
        // full image keeps a 13-byte reference in its place; a delta
        // keeps the reference it always carried.
        let names = store.names();
        let entries: u64 = names.iter().map(|n| store.image_sizes(n).unwrap().1).sum();
        let code = stats.stored_bytes - entries;
        let mut full = 0;
        for name in &names {
            let inline = store.get(name).unwrap().len() as u64;
            let kept = store.image_sizes(name).unwrap().1;
            if store.load_raw(name).unwrap().heap_image.is_delta() {
                assert_eq!(inline, kept, "{name}");
            } else {
                assert_eq!(inline - kept, code - 13, "{name}");
                full += 1;
            }
        }
        assert_eq!(full, report.checkpoints - report.delta_checkpoints);
        // The digest this run had before the store shared code: where code
        // is stored changes no step of the run.
        assert_eq!(
            report.replay_digest(),
            "4072f07ae147ae14,4092bc1eb851eb85,recovered=true rollbacks=1 \
             checkpoints=400 deltas=353 specs=403 msgs=801"
        );
    }

    #[test]
    fn compressed_checkpoints_replay_identically_to_raw() {
        // The slab codec changes checkpoint bytes, never control flow: a
        // deterministic run with compressed checkpoints reproduces the
        // digest of the same run with compression off.
        let config = GridConfig {
            workers: 4,
            rows_per_worker: 3,
            cols: 6,
            timesteps: 8,
            checkpoint_interval: 2,
        };
        let failure = Some(FailurePlan {
            victim: 1,
            after_checkpoints: 1,
        });
        let with_codec = |heap_codec| GridOptions {
            heap_codec,
            ..seeded(0xC0DEC)
        };
        let compressed = run_grid_with(&config, failure, with_codec(None)).expect("compressed");
        let raw = run_grid_with(&config, failure, with_codec(Some(CodecId::Raw))).expect("raw");
        assert!(compressed.is_correct() && raw.is_correct());
        assert_eq!(compressed.replay_digest(), raw.replay_digest());
        // And the codec demonstrably did something: same logical run,
        // fewer stored bytes.
        assert!(compressed.checkpoint_stored_bytes < raw.checkpoint_stored_bytes);
    }

    #[test]
    fn async_checkpoints_replay_identically_to_sync() {
        // The asynchronous pipeline changes *when* checkpoint work
        // happens, never what the run computes: with the deterministic
        // drain barrier, the replay digest matches the synchronous run's
        // exactly — failure injection and recovery included.
        let config = GridConfig {
            workers: 4,
            rows_per_worker: 3,
            cols: 6,
            timesteps: 8,
            checkpoint_interval: 2,
        };
        let failure = Some(FailurePlan {
            victim: 2,
            after_checkpoints: 1,
        });
        let sync = run_grid_with(&config, failure, seeded(0xBEEF)).expect("sync run");
        let asynchronous = run_grid_with(
            &config,
            failure,
            GridOptions {
                seed: Some(0xBEEF),
                async_checkpoints: true,
                ..GridOptions::default()
            },
        )
        .expect("async run");
        assert!(sync.is_correct() && asynchronous.is_correct());
        assert!(asynchronous.recovered_from_failure);
        assert_eq!(sync.replay_digest(), asynchronous.replay_digest());
        // Image *bytes* are allowed to differ: the zero-pause pack skips
        // the pre-pack GC, so async images may carry garbage blocks the
        // synchronous pack would have collected — never fewer bytes, and
        // still compressed.
        assert!(asynchronous.checkpoint_stored_bytes >= sync.checkpoint_stored_bytes);
        assert!(asynchronous.checkpoint_stored_bytes < asynchronous.checkpoint_raw_bytes);
        // And the async run replays against itself byte-identically.
        let replay = run_grid_with(
            &config,
            failure,
            GridOptions {
                seed: Some(0xBEEF),
                async_checkpoints: true,
                ..GridOptions::default()
            },
        )
        .expect("async replay");
        assert_eq!(asynchronous.replay_digest(), replay.replay_digest());
        assert_eq!(
            asynchronous.checkpoint_stored_bytes,
            replay.checkpoint_stored_bytes
        );
    }

    #[test]
    fn wall_clock_async_run_is_correct_and_accounts_time() {
        let config = GridConfig {
            workers: 3,
            rows_per_worker: 4,
            cols: 8,
            timesteps: 12,
            checkpoint_interval: 4,
        };
        let report = run_grid_with(
            &config,
            None,
            GridOptions {
                async_checkpoints: true,
                ..GridOptions::default()
            },
        )
        .expect("grid run succeeds");
        assert!(report.is_correct(), "max error {}", report.max_error());
        assert_eq!(report.checkpoints, (3 * 12 / 4) as u64);
        // Pause/encode accounting flows into the report and its summary.
        assert!(report.checkpoint_pause_ns > 0);
        assert!(report.checkpoint_encode_ns > 0);
        let summary = report.summary();
        assert!(summary.contains("stored"), "summary: {summary}");
        assert!(summary.contains("mutator pause"), "summary: {summary}");
        assert!(
            summary.contains(&report.checkpoint_stored_bytes.to_string()),
            "summary reports stored-vs-raw bytes: {summary}"
        );
    }

    /// Concatenated wire encoding of every flight-recorder event in a
    /// report, in the report's (node-sorted, stable) order.
    fn event_stream_bytes(report: &GridReport) -> Vec<u8> {
        let mut bytes = Vec::new();
        for obs in &report.node_obs {
            for event in &obs.events {
                event.encode(&mut bytes);
            }
        }
        bytes
    }

    #[test]
    fn traced_deterministic_runs_emit_identical_event_streams() {
        // Two contracts at once: (1) tracing never perturbs the replay
        // digest — a traced run digests identically to an untraced one;
        // (2) the trace itself is deterministic — two traced runs emit
        // byte-identical event streams (timestamps included, because they
        // come from the seeded virtual clock).
        let config = GridConfig {
            workers: 4,
            rows_per_worker: 3,
            cols: 6,
            timesteps: 8,
            checkpoint_interval: 2,
        };
        let failure = Some(FailurePlan {
            victim: 2,
            after_checkpoints: 1,
        });
        // Through the asynchronous pipeline: the traced run then covers
        // the zero-pause freeze (`Freeze`) and the pipeline worker's
        // `Encode`/`Deliver` events, whose ring order the deterministic
        // drain barrier pins.
        let with_obs = |obs| GridOptions {
            seed: Some(0x0B5E_57EA),
            async_checkpoints: true,
            obs,
            ..GridOptions::default()
        };
        let untraced = run_grid_with(&config, failure, with_obs(Level::Off)).expect("untraced");
        let a = run_grid_with(&config, failure, with_obs(Level::Trace)).expect("first traced");
        let b = run_grid_with(&config, failure, with_obs(Level::Trace)).expect("second traced");

        assert!(untraced.node_obs.is_empty());
        assert_eq!(untraced.replay_digest(), a.replay_digest());
        assert_eq!(a.replay_digest(), b.replay_digest());

        // Five reports: four workers plus the victim's resurrected run.
        assert_eq!(a.node_obs.len(), 5);
        assert!(a.recovered_from_failure);
        let stream = event_stream_bytes(&a);
        assert!(!stream.is_empty());
        assert_eq!(stream, event_stream_bytes(&b), "event streams diverged");

        // The stream tells the run's story: checkpoints, speculation,
        // messaging, the injected failure and the resurrection.
        let kinds: std::collections::BTreeSet<EventKind> = a
            .node_obs
            .iter()
            .flat_map(|o| o.events.iter().map(|e| e.kind))
            .collect();
        for kind in [
            EventKind::CheckpointBegin,
            EventKind::CheckpointEnd,
            EventKind::Freeze,
            EventKind::SpecEnter,
            EventKind::Send,
            EventKind::Recv,
            EventKind::Failure,
            EventKind::Resurrect,
        ] {
            assert!(kinds.contains(&kind), "no {kind:?} event recorded");
        }
    }

    #[test]
    fn no_sleep_polling_in_the_join_path() {
        // The coordinator blocks on worker reports; the 5 ms sleep-poll
        // loop must never come back.
        let source = include_str!("coordinator.rs");
        let needle: String = ["thread::", "sleep"].concat();
        assert!(
            !source.contains(&needle),
            "coordinator.rs re-introduced sleep-polling"
        );
    }

    #[test]
    fn single_worker_needs_no_messages() {
        let config = GridConfig {
            workers: 1,
            rows_per_worker: 6,
            cols: 6,
            timesteps: 8,
            checkpoint_interval: 3,
        };
        let report =
            run_grid_with(&config, None, GridOptions::default()).expect("grid run succeeds");
        assert!(report.is_correct(), "max error {}", report.max_error());
        assert_eq!(report.rollbacks, 0);
    }

    #[test]
    fn silent_workers_are_an_error_not_a_panic() {
        // The collect loop's deadline, with workers that launch fine and
        // then never report: the loop gives up with an error — on the
        // thread path too, where it used to panic.
        let config = GridConfig::default();
        let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, 1));
        let deadline = Duration::from_millis(5);
        let (_silent, reports) = mpsc::channel::<NodeStats>();
        let mut launched = 0;
        let err = drive(
            &cluster,
            &config,
            None,
            deadline,
            |_, _| {
                launched += 1;
                Ok(())
            },
            |wait| Ok(reports.recv_timeout(wait).ok()),
        )
        .expect_err("nobody reports");
        assert_eq!(launched, config.workers);
        assert!(
            matches!(&err, GridError::Transport(m) if m.contains("did not report within 5ms")),
            "got {err}"
        );
    }

    #[test]
    fn a_worker_whose_source_does_not_compile_fails_the_run_precisely() {
        let cluster = Cluster::new(ClusterConfig::deterministic(1, 1));
        let job = JobSpec {
            source: "int main( {".into(),
            ..job_spec(&GridConfig::default(), GridOptions::default())
        };
        let node = LocalNode::new(cluster, 0);
        let (stats, obs) = run_worker(&job, None, node);
        assert_eq!(stats.exit_code, None);
        assert!(obs.is_none());
        let message = stats.error.expect("reported");
        assert!(message.contains("failed to compile"), "got {message}");
    }
}
