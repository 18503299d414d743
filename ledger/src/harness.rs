//! The two kinds of run the benchmark makes, and the metrics each reports.
//!
//! * An **untraced** run sets the workload up, warms it, then runs ops
//!   back-to-back for the timed window with all tracing off.  Every
//!   end-to-end metric comes from here and only from here.
//! * A **traced** run first takes the layer probes, then alternates three
//!   flavours of the same op — plain, `Level::Metrics`, and bootstrapped by
//!   the benchmark with spans — checking that all three agree.  Every
//!   per-layer metric comes from here; none of it feeds an end-to-end number.

use crate::json::Json;
use crate::measure::{
    mean, median, median_standard_error, nproc, peak_rss_mib, percentile, process_cpu_ms,
    reference_kernel_ms, thread_cpu_ms, time_ms, REFERENCE_KERNEL_NOMINAL_MS,
};
use crate::probes;
use crate::span::{covered_ns, self_times, write_jsonl, Span, Tracer};
use crate::workloads::{Mode, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: `(name, unit, better, bound)`.  Every workload
/// reports all of them.  `bound` is what `BENCHMARK.json` lists: the share of
/// the baseline's value by which the metric may get worse on its least
/// steady workload; [`bound`] gives the bound of one (metric, workload) pair.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("wire_bytes_per_op", "B", "lower", 0.01),
    ("peak_rss_mib", "MiB", "lower", 0.25),
];

/// The bound `ledger compare` holds one (metric, workload) pair to: the share
/// of the baseline's value by which it may get worse.  Each is twice the
/// widest spread the pair showed over the 10-run sets the README lists,
/// rounded up to the next 0.05, no less than 0.10 and no more than 0.25.
pub fn bound(metric: &str, workload: &str) -> f64 {
    match (metric, workload) {
        ("wire_bytes_per_op", _) => 0.01,
        ("op_p50_ms", "ckpt_stream") => 0.10,
        ("cpu_ms_per_op", "ckpt_stream") => 0.15,
        ("peak_rss_mib", "migrate_cold" | "ckpt_stream") => 0.10,
        ("peak_rss_mib", "grid_served") => 0.15,
        ("peak_rss_mib", "grid_compute") => 0.20,
        _ => 0.25,
    }
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// `<layer>.<what>`; the layer is the crate.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Taken by a layer probe, so it does not depend on the workload the
    /// traced run is for; otherwise read off the workload's spans and counts
    /// (0 where the layer does not run in the workload).
    pub probe: bool,
    /// The end-to-end metric @ workload a change to this number should move
    /// (`-`: none; the README's table says why).
    pub moves: &'static str,
}

impl LayerMetric {
    /// The layer (crate) the metric belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const fn probe(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        probe: true,
        moves,
    }
}

const fn traced(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        probe: false,
        ..probe(name, unit, better, moves)
    }
}

/// Per-layer metrics, in the order `BENCHMARK.json` lists them: one row each,
/// `kind(name, unit, better, moves)`.
#[rustfmt::skip]
pub const PER_LAYER: [LayerMetric; 57] = [
    probe("lang.compile_ms", "ms", "lower", "op_p50_ms@grid_*"),
    probe("lang.lex_ms", "ms", "lower", "op_p50_ms@grid_*"),
    probe("lang.parse_ms", "ms", "lower", "op_p50_ms@grid_*"),
    probe("lang.lower_ms", "ms", "lower", "op_p50_ms@grid_*"),
    probe("lang.fir_size", "count", "lower", "-"),
    probe("fir.typecheck_ms", "ms", "lower", "op_p50_ms@migrate_cold"),
    probe("fir.code_bytes", "B", "lower", "wire_bytes_per_op@grid_recover"),
    probe("core.backend_compile_ms", "ms", "lower", "op_p50_ms@migrate_cold"),
    probe("core.vm_ns_per_step", "ns", "lower", "op_p50_ms,cpu_ms_per_op@grid_compute"),
    probe("core.interp_ns_per_step", "ns", "lower", "-"),
    traced("core.vm_steps_per_op", "count", "lower", "-"),
    traced("core.run_self_share", "ratio", "lower", "-"),
    probe("core.pack_ms", "ms", "lower", "op_p50_ms@migrate_cold"),
    probe("core.to_bytes_ms", "ms", "lower", "op_p50_ms@migrate_cold"),
    probe("core.from_bytes_ms", "ms", "lower", "op_p50_ms@migrate_cold"),
    probe("core.from_image_ms", "ms", "lower", "op_p50_ms@migrate_cold"),
    probe("core.decode_heap_ms", "ms", "lower", "op_p50_ms@migrate_cold"),
    probe("core.store_put_us", "us", "lower", "op_p50_ms@grid_recover"),
    probe("core.store_load_ms", "ms", "lower", "op_p50_ms@grid_recover"),
    probe("heap.alloc_ns", "ns", "lower", "op_p50_ms@grid_compute"),
    probe("heap.load_ns", "ns", "lower", "op_p50_ms@grid_compute"),
    probe("heap.store_ns", "ns", "lower", "op_p50_ms@grid_compute"),
    probe("heap.freeze_us", "us", "lower", "op_p50_ms@ckpt_stream"),
    probe("heap.store_after_freeze_us", "us", "lower", "op_p50_ms@ckpt_stream"),
    probe("heap.spec_enter_us", "us", "lower", "op_p50_ms@grid_recover"),
    probe("heap.spec_commit_us", "us", "lower", "op_p50_ms@grid_recover"),
    probe("heap.spec_abort_us", "us", "lower", "op_p50_ms@grid_recover"),
    traced("heap.cow_clones_per_op", "count", "lower", "-"),
    traced("heap.gc_per_op", "count", "lower", "-"),
    probe("codec.varint_enc_mib_s", "MiB/s", "higher", "op_p50_ms@migrate_cold,ckpt_stream"),
    probe("codec.varint_dec_mib_s", "MiB/s", "higher", "op_p50_ms@migrate_cold"),
    probe("codec.lz_enc_mib_s", "MiB/s", "higher", "op_p50_ms@migrate_cold,ckpt_stream"),
    probe("codec.lz_dec_mib_s", "MiB/s", "higher", "op_p50_ms@migrate_cold"),
    probe("codec.varintlz_enc_mib_s", "MiB/s", "higher", "op_p50_ms@migrate_cold,ckpt_stream"),
    probe("codec.varintlz_dec_mib_s", "MiB/s", "higher", "op_p50_ms@migrate_cold"),
    probe("codec.ratio", "ratio", "lower", "wire_bytes_per_op@migrate_cold,ckpt_stream"),
    probe("wire.frame_rt_us", "us", "lower", "op_p50_ms@grid_served"),
    traced("runtime.submit_us", "us", "lower", "op_p50_ms@ckpt_stream"),
    traced("runtime.encode_ms_per_ckpt", "ms", "lower", "op_p50_ms,cpu_ms_per_op@ckpt_stream"),
    traced("runtime.hop_us", "us", "lower", "op_p50_ms@ckpt_stream"),
    traced("runtime.queue_depth_max", "count", "lower", "op_p50_ms@ckpt_stream"),
    traced("cluster.ext_call_us", "us", "lower", "op_p50_ms@grid_recover,grid_served"),
    traced("cluster.recv_wait_share", "ratio", "lower", "-"),
    probe("cluster.rpc_rtt_us", "us", "lower", "op_p50_ms@grid_served"),
    traced("cluster.deliver_us", "us", "lower", "op_p50_ms@grid_recover,grid_served"),
    probe("cluster.image_mib_s", "MiB/s", "higher", "-"),
    traced("cluster.msgs_per_op", "count", "lower", "-"),
    probe("grid.reference_ms", "ms", "lower", "-"),
    traced("grid.checkpoints_per_op", "count", "lower", "wire_bytes_per_op@grid_recover"),
    traced("grid.delta_share", "ratio", "higher", "wire_bytes_per_op@grid_recover"),
    traced("grid.recover_ms", "ms", "lower", "op_p50_ms@grid_recover"),
    probe("mcc.node_spawn_ms", "ms", "lower", "op_p50_ms@grid_served"),
    traced("obs.metrics_overhead_share", "ratio", "lower", "-"),
    traced("bench.span_overhead_share", "ratio", "lower", "-"),
    traced("bench.unattributed_share", "ratio", "lower", "-"),
    traced("bench.samples", "count", "higher", "-"),
    traced("bench.ref_kernel_ms", "ms", "lower", "-"),
];

/// `obs.metrics_overhead_share` may not exceed this on `grid_compute`, the
/// workload the observability layer's cost is defined on.
pub const OBS_OVERHEAD_LIMIT: f64 = 0.01;
/// `bench.span_overhead_share` may not exceed this on any workload, or the
/// spans describe a slower program than the one the end-to-end metrics time.
pub const SPAN_OVERHEAD_LIMIT: f64 = 0.05;
/// `bench.unattributed_share` may not exceed this on `migrate_cold`, whose
/// stages are explicit calls.
pub const UNATTRIBUTED_LIMIT: f64 = 0.05;

/// The benchmark's own validity rules, applied to one workload's pair of
/// runs: `timed_ops` is the untraced run's sample count, `per_layer` looks a
/// per-layer reading up and `traced_note` a number in the traced run's
/// diagnostics.  Returns one line per rule broken.  `ledger all` lists them
/// per workload and `ledger compare` counts each as a breach.
///
/// The two overhead shares are medians of some tens of noisy per-round
/// ratios; on a shared host their standard error is of the order of the
/// limit itself.  An overhead breaks its rule only where it is above the
/// limit by more than two standard errors — otherwise the excess is
/// unresolved, not shown.
pub fn violations(
    workload: &str,
    timed_ops: f64,
    per_layer: impl Fn(&str) -> Option<f64>,
    traced_note: impl Fn(&str) -> Option<f64>,
) -> Vec<String> {
    let mut broken = Vec::new();
    if timed_ops < MIN_TIMED_OPS as f64 {
        broken.push(format!(
            "{timed_ops} timed ops, fewer than {MIN_TIMED_OPS}: the window is too short"
        ));
    }
    for (metric, limit, applies, error) in [
        (
            "obs.metrics_overhead_share",
            OBS_OVERHEAD_LIMIT,
            workload == "grid_compute",
            traced_note("metrics_overhead_se"),
        ),
        (
            "bench.span_overhead_share",
            SPAN_OVERHEAD_LIMIT,
            true,
            traced_note("span_overhead_se"),
        ),
        (
            "bench.unattributed_share",
            UNATTRIBUTED_LIMIT,
            workload == "migrate_cold",
            Some(0.0),
        ),
    ] {
        let error = error.unwrap_or(0.0);
        match per_layer(metric) {
            Some(value) if applies && value - 2.0 * error > limit => {
                broken.push(format!(
                    "{metric} is {value:.4} ± {error:.4}, above its limit of {limit}"
                ));
            }
            _ => {}
        }
    }
    broken
}

/// Ops run (and checked) before the timed window; counted in `setup_s`.
pub const WARMUP_OPS: u64 = 10;
/// An untraced run sets the workload up at least this many times …
pub const MIN_SETUPS: usize = 3;
/// … and keeps repeating a quick set-up until this many seconds are spent …
pub const SETUP_BUDGET_S: f64 = 4.0;
/// … or this many set-ups are done; `setup_s` is the median of them all.
pub const MAX_SETUPS: usize = 9;
/// Fewer timed ops than this and the untraced run is invalid.
pub const MIN_TIMED_OPS: usize = 100;
/// `run_seconds` in `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: f64 = 15.0;
/// Traced ops whose spans are written to the trace file.
const TRACE_FILE_OPS: u32 = 3;

/// What one run reports.
#[derive(Debug)]
pub struct RunReport {
    /// Ops attempted in the measured part of the run.
    pub attempted: u64,
    /// Ops that errored, failed their oracle, or disagreed across modes.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth reading: percentiles, sample counts, the
    /// largest unattributed interval, the first failure.
    pub diagnostics: Json,
}

impl RunReport {
    /// The driver-facing result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

/// The untraced run: set-up, warm-up, timed window, end-to-end metrics.
///
/// Every metric is **as measured**: wall time, CPU time, bytes, resident
/// memory.  The reference kernel ([`reference_kernel_ms`]) is timed after
/// each op only so that the diagnostics can say how fast the core was while
/// the window ran (on a shared host that changes by a fifth for tens of
/// seconds at a time) and what `op_p50_ms` would be at the reference speed.
pub fn run_untraced<W: Workload>(
    make: impl Fn() -> Result<W, String>,
    seconds: f64,
) -> Result<RunReport, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    let setting_up = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setting_up.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let mut workload = make()?;
        for index in 0..WARMUP_OPS {
            workload
                .op(index, Mode::Plain)
                .and_then(|raw| workload.judge(raw))
                .map_err(|e| format!("warm-up op {index} failed: {e}"))?;
        }
        setups.push(start.elapsed().as_secs_f64());
        ready = Some(workload);
    }
    let mut workload = ready.expect("MIN_SETUPS is at least one");

    let (mut op_ms, mut at_reference_ms, mut kernels, mut wire) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_error = None;
    // CPU this thread spends between ops (oracle, reference kernel,
    // bookkeeping) is not the op's: it is measured to the nanosecond and
    // taken out of the process total.
    let mut between_ops_cpu_ms = 0.0;
    let mut kernel = reference_kernel_ms();
    let cpu_start = process_cpu_ms();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds || attempted == 0 {
        let index = WARMUP_OPS + attempted;
        attempted += 1;
        let (ms, raw) = time_ms(|| workload.op(index, Mode::Plain));
        let mark = thread_cpu_ms();
        let after = reference_kernel_ms();
        match raw.and_then(|raw| workload.judge(raw)) {
            Ok(outcome) => {
                op_ms.push(ms);
                at_reference_ms.push(ms * REFERENCE_KERNEL_NOMINAL_MS / ((kernel + after) / 2.0));
                wire.push(outcome.wire_bytes as f64);
            }
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(format!("op {index}: {e}"));
            }
        }
        kernels.push(after);
        kernel = after;
        if let (Some(mark), Some(now)) = (mark, thread_cpu_ms()) {
            between_ops_cpu_ms += now - mark;
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let cpu_ms = match (cpu_start, process_cpu_ms()) {
        (Some(start), Some(end)) => (end - start - between_ops_cpu_ms).max(0.0),
        _ => 0.0,
    };
    // The highest percentile with at least ten samples beyond it.
    let tail = (op_ms.len() > 20).then(|| 1.0 - 10.0 / op_ms.len() as f64);
    let diagnostics = Json::obj([
        ("samples", Json::Num(op_ms.len() as f64)),
        ("op_p25_ms", Json::Num(percentile(&op_ms, 0.25))),
        ("op_p90_ms", Json::Num(percentile(&op_ms, 0.9))),
        (
            "op_tail_percentile",
            tail.map_or(Json::Null, |q| Json::Num(q * 100.0)),
        ),
        (
            "op_tail_ms",
            tail.map_or(Json::Null, |q| Json::Num(percentile(&op_ms, q))),
        ),
        ("op_mean_ms", Json::Num(mean(&op_ms))),
        ("ops_per_s", Json::Num(attempted as f64 / window_s)),
        // Cores busy while an op runs.
        (
            "cpu_share",
            Json::Num(cpu_ms / op_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE)),
        ),
        ("ref_kernel_p50_ms", Json::Num(median(&kernels))),
        (
            "ref_kernel_nominal_ms",
            Json::Num(REFERENCE_KERNEL_NOMINAL_MS),
        ),
        (
            "op_p50_at_reference_speed_ms",
            Json::Num(median(&at_reference_ms)),
        ),
        ("fail_share", Json::Num(failed as f64 / attempted as f64)),
        ("setups", Json::Num(setups.len() as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "peak_rss_note",
            Json::str("this process only; `mcc node` children are not included"),
        ),
        ("first_error", first_error.map_or(Json::Null, Json::Str)),
    ]);
    Ok(RunReport {
        attempted,
        failed,
        // In `END_TO_END`'s order.
        metrics: END_TO_END
            .iter()
            .zip([
                median(&setups),
                median(&op_ms),
                cpu_ms / attempted as f64,
                mean(&wire),
                peak_rss_mib().unwrap_or(0.0),
            ])
            .map(|((name, unit, ..), value)| (*name, value, *unit))
            .collect(),
        diagnostics,
    })
}

/// Per-op figures read off the span list.
#[derive(Default)]
struct SpanFigures {
    /// name → durations in ns, over all ops.
    durations: BTreeMap<&'static str, Vec<f64>>,
    /// Per op: Σ self time of `core.run` spans / op wall.
    run_self_share: Vec<f64>,
    /// Per op: 1 − (op wall its direct children cover) / op wall.
    unattributed: Vec<f64>,
    /// Submission → delivery-entry latencies across the pipeline, ns.
    hops: Vec<f64>,
    /// Per resurrection: coordinator side plus `from_image`, ns.
    resurrections: Vec<f64>,
    /// `(ns, after, before, op)` of the largest unattributed interval.
    largest_gap: Option<(u64, &'static str, &'static str, u32)>,
}

fn read_spans(spans: &[Span], workers: usize) -> SpanFigures {
    let mut figures = SpanFigures::default();
    let selfs = self_times(spans);
    let mut run_self: BTreeMap<u32, u64> = BTreeMap::new();
    let mut children: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        figures
            .durations
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64);
        if span.name == "core.run" {
            *run_self.entry(span.op).or_default() += selfs[id];
        }
        if let Some(parent) = span.parent {
            let parent = &spans[parent as usize];
            if parent.name == "bench.op" {
                children.entry(span.op).or_default().push(id);
            }
            if parent.name == "grid.resurrect" && span.name == "core.from_image" {
                figures
                    .resurrections
                    .push((parent.duration_ns() + span.duration_ns()) as f64);
            }
            if parent.name == "runtime.submit" && span.name == "core.deliver" {
                figures
                    .hops
                    .push(span.start_ns.saturating_sub(parent.start_ns) as f64);
            }
        }
    }
    for op in spans.iter().filter(|s| s.name == "bench.op") {
        let wall = op.duration_ns().max(1);
        let run = run_self.get(&op.op).copied().unwrap_or(0);
        figures
            .run_self_share
            .push(run as f64 / wall as f64 / workers as f64);
        let ids = children.remove(&op.op).unwrap_or_default();
        let mut intervals: Vec<(u64, u64)> = ids
            .iter()
            .map(|&id| {
                (
                    spans[id].start_ns.max(op.start_ns),
                    spans[id].end_ns.min(op.end_ns),
                )
            })
            .filter(|(start, end)| start < end)
            .collect();
        let (covered, gap) = covered_ns(&mut intervals, Some((op.start_ns, op.end_ns)));
        figures
            .unattributed
            .push(1.0 - covered as f64 / wall as f64);
        if let Some((from, to)) = gap {
            if figures.largest_gap.is_none_or(|(ns, ..)| to - from > ns) {
                let after = ids
                    .iter()
                    .map(|&id| &spans[id])
                    .filter(|s| s.end_ns <= from)
                    .max_by_key(|s| s.end_ns)
                    .map_or("op start", |s| s.name);
                let before = ids
                    .iter()
                    .map(|&id| &spans[id])
                    .filter(|s| s.start_ns >= to)
                    .min_by_key(|s| s.start_ns)
                    .map_or("op end", |s| s.name);
                figures.largest_gap = Some((to - from, after, before, op.op));
            }
        }
    }
    figures
}

/// The traced run: probes, then plain / metrics / traced rounds of the same
/// op, cross-checked; per-layer metrics.
pub fn run_traced<W: Workload>(
    name: &str,
    make: impl Fn() -> Result<W, String>,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, String> {
    let run_start = Instant::now();
    let mut readings: BTreeMap<&'static str, f64> = probes::run_all(seed)?.into_iter().collect();
    let probes_s = run_start.elapsed().as_secs_f64();

    let mut workload = make()?;
    let tracer = Tracer::new();
    let modes = [Mode::Plain, Mode::Metrics, Mode::Traced(&tracer)];
    // Per mode, in `modes`' order: the times of the ops that passed.
    let mut times: [Vec<f64>; 3] = Default::default();
    // Per round in which all three passed: metrics / plain − 1, traced /
    // plain − 1.  The three ops of a round run back to back, so a change in
    // the host's speed between rounds cancels in the ratio.
    let (mut metrics_over_plain, mut traced_over_plain) = (Vec::new(), Vec::new());
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_error = None;
    let mut round = 0u32;
    let mut kernels = Vec::new();
    // The probes' time comes out of the budget; three rounds at the least.
    while run_start.elapsed().as_secs_f64() < seconds || round < 3 {
        kernels.push(reference_kernel_ms());
        let index = u64::from(round);
        let mut fingerprints = Vec::new();
        let mut round_ms = [None; 3];
        // Each mode takes each place in the round equally often.
        for turn in 0..modes.len() {
            let which = (turn + round as usize) % modes.len();
            let mode = modes[which];
            attempted += 1;
            tracer.set_op(round);
            let (ms, verdict) = {
                let op_span = matches!(mode, Mode::Traced(_)).then(|| tracer.span("bench.op"));
                let (ms, raw) = time_ms(|| workload.op(index, mode));
                drop(op_span);
                (ms, raw.and_then(|raw| workload.judge(raw)))
            };
            match verdict {
                Ok(outcome) => {
                    times[which].push(ms);
                    round_ms[which] = Some(ms);
                    fingerprints.push(outcome.fingerprint);
                    for (key, value) in outcome.counts {
                        counts.entry(key).or_default().push(value);
                    }
                }
                Err(e) => {
                    failed += 1;
                    first_error.get_or_insert(format!("round {round} {mode:?}: {e}"));
                }
            }
        }
        // The traced op must describe the same program as the plain one.
        if fingerprints.windows(2).any(|pair| pair[0] != pair[1]) {
            failed += 1;
            first_error.get_or_insert(format!(
                "round {round}: plain, metrics and traced ops disagree: {fingerprints:?}"
            ));
        }
        if let [Some(plain), Some(metrics), Some(traced)] = round_ms {
            metrics_over_plain.push(metrics / plain - 1.0);
            traced_over_plain.push(traced / plain - 1.0);
        }
        round += 1;
    }
    let [plain_ms, metrics_ms, traced_ms] = times;

    let spans = tracer.spans();
    let figures = read_spans(&spans, workload.workers());
    let mean_us = |names: &[&str]| {
        let all: Vec<f64> = names
            .iter()
            .filter_map(|n| figures.durations.get(n))
            .flatten()
            .map(|ns| ns / 1e3)
            .collect();
        mean(&all)
    };
    let total = |name: &str| figures.durations.get(name).map_or(0.0, |d| d.iter().sum());
    for (key, values) in &counts {
        readings.insert(key, mean(values));
    }
    readings.insert("core.run_self_share", median(&figures.run_self_share));
    readings.insert(
        "cluster.ext_call_us",
        mean_us(&["cluster.ext_call", "cluster.msg_recv"]),
    );
    readings.insert(
        "cluster.recv_wait_share",
        total("cluster.msg_recv") / total("core.run").max(1.0),
    );
    readings.insert("cluster.deliver_us", mean_us(&["cluster.deliver"]));
    readings.insert("runtime.submit_us", mean_us(&["runtime.submit"]));
    // Queueing + hand-off: submission to delivery entry, less the encode
    // that sits between them.
    let encode_us = readings
        .get("runtime.encode_ms_per_ckpt")
        .map_or(0.0, |ms| ms * 1e3);
    readings.insert(
        "runtime.hop_us",
        if figures.hops.is_empty() {
            0.0
        } else {
            (mean(&figures.hops) / 1e3 - encode_us).max(0.0)
        },
    );
    readings.insert("grid.recover_ms", mean(&figures.resurrections) / 1e6);
    readings.insert("obs.metrics_overhead_share", median(&metrics_over_plain));
    readings.insert("bench.span_overhead_share", median(&traced_over_plain));
    readings.insert("bench.unattributed_share", median(&figures.unattributed));
    readings.insert("bench.samples", traced_ms.len() as f64);
    // Per-layer times are as measured; this says how fast the core was.
    readings.insert("bench.ref_kernel_ms", median(&kernels));

    let trace_file = write_trace(name, &spans);
    let diagnostics = Json::obj([
        ("rounds", Json::Num(f64::from(round))),
        ("probes_s", Json::Num(probes_s)),
        (
            "metrics_overhead_se",
            Json::Num(median_standard_error(&metrics_over_plain)),
        ),
        (
            "span_overhead_se",
            Json::Num(median_standard_error(&traced_over_plain)),
        ),
        ("plain_p50_ms", Json::Num(median(&plain_ms))),
        ("metrics_p50_ms", Json::Num(median(&metrics_ms))),
        ("traced_p50_ms", Json::Num(median(&traced_ms))),
        ("spans", Json::Num(spans.len() as f64)),
        (
            "largest_unattributed",
            figures
                .largest_gap
                .map_or(Json::Null, |(ns, after, before, op)| {
                    Json::obj([
                        ("ms", Json::Num(ns as f64 / 1e6)),
                        ("after", Json::str(after)),
                        ("before", Json::str(before)),
                        ("op", Json::Num(f64::from(op))),
                    ])
                }),
        ),
        ("trace_file", trace_file.map_or(Json::Null, Json::Str)),
        ("nproc", Json::Num(nproc() as f64)),
        ("first_error", first_error.map_or(Json::Null, Json::Str)),
    ]);
    Ok(RunReport {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, readings.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
        diagnostics,
    })
}

/// Write the first few ops' spans to `ledger/out/trace-<workload>.jsonl`
/// under the current directory, if this is a checkout (the `ledger`
/// directory exists); returns the path written.
fn write_trace(name: &str, spans: &[Span]) -> Option<String> {
    if !std::path::Path::new("ledger").is_dir() {
        return None;
    }
    std::fs::create_dir_all("ledger/out").ok()?;
    let path = format!("ledger/out/trace-{name}.jsonl");
    // Parent ids index the whole list, so the prefix is cut by op, and ops
    // are recorded in order.
    let kept = spans
        .iter()
        .position(|s| s.op >= TRACE_FILE_OPS)
        .unwrap_or(spans.len());
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).ok()?);
    write_jsonl(&spans[..kept], &mut file).ok()?;
    std::io::Write::flush(&mut file).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_break_only_on_a_resolved_excess() {
        let none = |_: &str| None;
        assert_eq!(violations("grid_compute", 100.0, none, none).len(), 0);
        assert_eq!(violations("grid_compute", 99.0, none, none).len(), 1);
        let overhead = |name: &str| (name == "obs.metrics_overhead_share").then_some(0.03);
        let tight = |name: &str| (name == "metrics_overhead_se").then_some(0.005);
        let loose = |name: &str| (name == "metrics_overhead_se").then_some(0.015);
        assert_eq!(violations("grid_compute", 200.0, overhead, tight).len(), 1);
        assert_eq!(violations("grid_compute", 200.0, overhead, loose).len(), 0);
        // The observability limit is defined on `grid_compute` alone.
        assert_eq!(violations("grid_recover", 200.0, overhead, tight).len(), 0);
        let gap = |name: &str| (name == "bench.unattributed_share").then_some(0.06);
        assert_eq!(violations("migrate_cold", 200.0, gap, none).len(), 1);
        assert_eq!(violations("ckpt_stream", 200.0, gap, none).len(), 0);
    }
}
