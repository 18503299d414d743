//! The one worker bootstrap: a [`JobSpec`] and a [`ClusterOps`] in, a
//! finished run's [`NodeStats`] (and observability report) out.
//!
//! The coordinator's worker threads call it with a [`LocalNode`], `mcc
//! node` calls it with its two hub connections — so a thread and a process
//! cannot disagree on how a worker is configured, wired or reported.
//!
//! [`LocalNode`]: mojave_cluster::LocalNode

use mojave_cluster::{ClusterOps, JobSpec, NodeExternals, NodeSink, NodeStats, Resume};
use mojave_core::{Machine, MigrationImage, MigrationSink, Process, ProcessConfig, RunOutcome};
use mojave_obs::{EventKind, Level, NodeObs, Recorder};
use mojave_runtime::{AsyncSink, PipelineConfig};
use mojave_wire::CodecId;

/// Run one worker of `job` to completion on the node `ops` speaks for:
/// from `main` of the job's source — each node compiles for itself, the
/// paper's model — or, with a `resume` checkpoint (the resurrection path),
/// from there; the image carries its own code.
///
/// `sink_ops` carries checkpoint deliveries.  Over a transport it must be a
/// second connection: deliveries (which may run on a pipeline worker
/// thread) must not queue behind a blocking `msg_recv` on `ops`.
///
/// The returned [`NodeStats`] leave the link counters zero (a transport's
/// caller fills them in); the [`NodeObs`] is present when the job's
/// observability level is above [`Level::Off`].
pub fn run_worker<C: ClusterOps>(
    job: &JobSpec,
    resume: Option<Resume>,
    ops: C,
    sink_ops: C,
) -> (NodeStats, Option<NodeObs>) {
    let level = Level::from_u8(job.obs_level);
    // The node's identity, the job's level, and the node's clock — in
    // in-process runs the cluster's seeded virtual clock, so event
    // timestamps replay exactly.
    let recorder = Recorder::with_clock(ops.node() as u32, level, ops.clock_source());
    ops.attach_recorder(&recorder);
    sink_ops.attach_recorder(&recorder);
    let config = ProcessConfig {
        machine: Machine::new(ops.welcome().arch.clone()),
        step_budget: job.step_budget,
        delta_checkpoints: job.delta_checkpoints,
        heap_codec: job.heap_codec.and_then(CodecId::from_u8),
        async_checkpoints: job.async_checkpoints,
        ..ProcessConfig::default()
    };
    let built = match resume {
        None => mojave_lang::compile_source(&job.source)
            .map_err(|e| format!("job source failed to compile: {e}"))
            .and_then(|program| Process::new(program, config).map_err(|e| e.to_string())),
        Some(resume) => {
            recorder.record(EventKind::Resurrect, resume.step, 0);
            MigrationImage::from_bytes(&resume.image)
                .map_err(|e| format!("bad resume image: {e}"))
                .and_then(|image| Process::from_image(image, config).map_err(|e| e.to_string()))
        }
    };
    let mut report = NodeStats {
        node: ops.node() as u32,
        ..NodeStats::default()
    };
    let process = match built {
        Ok(process) => process,
        Err(message) => {
            report.error = Some(message);
            return (report, None);
        }
    };
    let sink = NodeSink(sink_ops);
    let sink: Box<dyn MigrationSink> = if job.async_checkpoints {
        // The pipeline runs with the **drain barrier**: every checkpoint's
        // side effects (store write, network accounting, scheduled failure
        // injection) land at exactly the point in the worker's execution
        // the synchronous path would produce them, which is what makes
        // replay digests identical with the pipeline on or off.
        let pipeline = AsyncSink::new(
            Box::new(sink),
            PipelineConfig {
                drain_after_submit: true,
                ..PipelineConfig::default()
            },
        );
        pipeline.set_recorder(recorder.clone());
        Box::new(pipeline)
    } else {
        Box::new(sink)
    };
    let mut process = process
        .with_externals(Box::new(NodeExternals::over(ops, recorder.clone())))
        .with_sink(sink)
        .with_recorder(recorder.clone());
    // `Process::run` flushes the sink, so every accepted checkpoint is
    // delivered before the report below is made.
    match process.run() {
        Ok(RunOutcome::Exit(code)) => report.exit_code = Some(code),
        Ok(other) => report.error = Some(format!("unexpected outcome: {other:?}")),
        Err(e) => report.error = Some(e.to_string()),
    }
    process.export_metrics();
    let stats = process.stats();
    report.rollbacks = stats.rollbacks;
    report.checkpoints = stats.checkpoints;
    report.delta_checkpoints = stats.delta_checkpoints;
    report.speculations = stats.speculations;
    report.checkpoint_pause_ns = stats.checkpoint_pause_ns;
    report.checkpoint_encode_ns = stats.checkpoint_encode_ns;
    (report, (level > Level::Off).then(|| recorder.snapshot()))
}
