//! Five-way differential execution harness.
//!
//! One generated program, five executions of the full stack:
//!
//! * **(a) plain interpret** — the FIR interpreter is the reference
//!   semantics (plus a plain bytecode run to anchor the stats invariants);
//! * **(b) kill-and-resurrect** — rerun under a tape-chosen step budget,
//!   let the budget kill the process mid-flight, then resurrect the
//!   highest checkpoint the recorder saw delivered (delta chains resolve
//!   through the store) and run it to completion; short programs repeat
//!   this at a seeded sample of further budgets across the whole run, so
//!   kills land on tail calls, closure calls and the first instruction
//!   after a call replaced the register file;
//! * **(c) codec migration chains** — force each negotiated codec
//!   (`Raw`, `Varint`, `Lz`, `VarintLz`) and let every `migrate(…)` site
//!   really migrate: serialize the [`MigrationImage`] to bytes, decode it,
//!   resume in a fresh process, repeat until the program exits;
//! * **(d) async pipeline** — `async_checkpoints` + delta checkpoints
//!   behind a [`mojave_runtime::AsyncSink`] with `drain_after_submit` barriers, then
//!   resurrect the last async-written checkpoint as well;
//! * **(e) optimiser** — the same source through the unoptimised lowering
//!   ([`mojave_lang::lower_source`]) and through `compile_source`, which
//!   every other mode runs: both give the same exit value or trap, printed
//!   output, `StatsView` and stored checkpoints (names and heap payload
//!   fingerprints: the optimiser changes code, never data), and the
//!   optimised run takes no more steps.
//!
//! All modes must agree on the exit value — which, thanks to the
//! generator's digest epilogue, *is* the final heap digest — and on the
//! [`ProcessStats`] invariants listed in the private `StatsView` helper.

use crate::gen::generate_program;
use crate::mutate::below;
use mojave_core::rng::SplitMix64;
use mojave_core::{
    BackendKind, CheckpointStore, DeliveryOutcome, InMemorySink, MigrationImage, MigrationSink,
    Process, ProcessConfig, ProcessStats, RunOutcome, RuntimeError,
};
use mojave_fir::{MigrateProtocol, Program};
use mojave_wire::{CodecId, CodecSet};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Generous per-run step budget: a generated program runs for at most a
/// few thousand steps, so hitting this means the generator's termination
/// argument broke — a bug worth failing loudly on.
const SAFETY_BUDGET: u64 = 2_000_000;

/// Upper bound on migrate-resume hops in mode (c); generated programs
/// execute a bounded number of migrate sites, so exceeding this is a bug.
const MAX_SEGMENTS: usize = 64;

/// Mode (b) sweeps extra kill points only for programs at most this long
/// (nearly every generated program is)…
const BUDGET_SWEEP_MAX_STEPS: u64 = 3_000;

/// …and only for one program in this many, chosen by the tape: a kill run
/// costs about as much as a plain run, and the sweep must stay a small
/// share of the tier-1 wall time.
const BUDGET_SWEEP_ONE_IN: u64 = 4;

/// Extra kill points mode (b) samples per swept program.
const BUDGET_SWEEP_SAMPLES: u64 = 32;

/// The stats fields that must be identical across deterministic modes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StatsView {
    speculations: u64,
    commits: u64,
    rollbacks: u64,
    checkpoints: u64,
    migration_attempts: u64,
    migration_failures: u64,
}

impl StatsView {
    fn of(stats: &ProcessStats) -> Self {
        StatsView {
            speculations: stats.speculations,
            commits: stats.commits,
            rollbacks: stats.rollbacks,
            checkpoints: stats.checkpoints,
            migration_attempts: stats.migration_attempts,
            migration_failures: stats.migration_failures,
        }
    }
}

/// Run the differential oracle over a decision tape.  `Ok(())` means every
/// mode agreed; `Err` carries a human-readable mismatch description (the
/// test driver attaches the generated source).
pub fn check_tape(tape: &[u32]) -> Result<(), String> {
    let source = generate_program(tape);
    check_with(&source, tape)
}

/// Like [`check_tape`] but over already-rendered source (the kill point
/// and resume backend of mode (b) fall back to fixed defaults).
pub fn check_source(source: &str) -> Result<(), String> {
    check_with(source, &[])
}

fn check_with(source: &str, tape: &[u32]) -> Result<(), String> {
    let program = mojave_lang::compile_source(source)
        .map_err(|e| format!("generator emitted invalid program: {e}"))?;

    // (a) Reference: plain interpreter, then plain bytecode.
    let reference = run_plain(&program, BackendKind::Interp, true)?;
    let bytecode = run_plain(&program, BackendKind::Bytecode, false)?;
    if bytecode.exit != reference.exit {
        return Err(format!(
            "bytecode exit {} != interpreter exit {}",
            bytecode.exit, reference.exit
        ));
    }
    if bytecode.view != reference.view {
        return Err(format!(
            "bytecode stats {:?} != interpreter stats {:?}",
            bytecode.view, reference.view
        ));
    }
    if bytecode.spec_depth != reference.spec_depth {
        return Err(format!(
            "bytecode final spec depth {} != interpreter {}",
            bytecode.spec_depth, reference.spec_depth
        ));
    }

    // (b) kill-and-resurrect, kill point derived from the tape.
    check_kill_and_resurrect(&program, tape, &bytecode)?;

    // (c) migrate through the wire under every codec.
    for codec in CodecId::ALL {
        check_migration_chain(&program, codec, &reference, &bytecode)?;
    }

    // (d) async checkpoint pipeline with drain barriers.
    check_async_pipeline(&program, &reference, &bytecode)?;

    // (e) the optimiser against the lowering it optimised.
    check_optimiser(source, &program)
}

/// What one bytecode run did, traps included.
#[derive(Debug, PartialEq)]
struct Observed {
    /// The exit value, or the trap as it prints.
    outcome: Result<i64, String>,
    output: Vec<String>,
    view: StatsView,
    /// Every stored checkpoint's name and heap payload fingerprint.
    heaps: Vec<(String, Option<u64>)>,
}

/// Mode (e): `optimised` is `compile_source(source)`; the reference is the
/// lowering before the optimiser ran.
fn check_optimiser(source: &str, optimised: &Program) -> Result<(), String> {
    let lowered = mojave_lang::lower_source(source)
        .map_err(|e| format!("optimiser: the reference lowering failed: {e}"))?;
    let (reference, reference_steps) = run_observed(&lowered)?;
    let (observed, steps) = run_observed(optimised)?;
    if observed != reference {
        return Err(format!(
            "optimised run {observed:?} != unoptimised run {reference:?}"
        ));
    }
    if steps > reference_steps {
        return Err(format!(
            "optimised run took {steps} steps, unoptimised {reference_steps}"
        ));
    }
    Ok(())
}

fn run_observed(program: &Program) -> Result<(Observed, u64), String> {
    let store = CheckpointStore::new();
    let mut p = Process::new(program.clone(), base_config(BackendKind::Bytecode, true))
        .map_err(|e| format!("optimiser: process setup failed: {e}"))?
        .with_sink(Box::new(InMemorySink::with_store(store.clone())));
    let outcome = match p.run() {
        Ok(RunOutcome::Exit(v)) => Ok(v),
        Ok(other) => return Err(format!("optimiser: unexpected outcome {other:?}")),
        Err(e) => Err(e.to_string()),
    };
    let stats = p.stats();
    let observed = Observed {
        outcome,
        output: p.output().to_vec(),
        view: StatsView::of(&stats),
        heaps: store
            .names()
            .into_iter()
            .map(|name| {
                let heap = store.heap_fingerprint(&name);
                (name, heap)
            })
            .collect(),
    };
    Ok((observed, stats.steps))
}

struct ModeResult {
    exit: i64,
    view: StatsView,
    steps: u64,
    spec_depth: usize,
    store: CheckpointStore,
}

fn base_config(backend: BackendKind, verify: bool) -> ProcessConfig {
    ProcessConfig {
        backend,
        verify,
        step_budget: Some(SAFETY_BUDGET),
        ..ProcessConfig::default()
    }
}

fn sanity(label: &str, stats: &ProcessStats, spec_depth: usize) -> Result<(), String> {
    // Level accounting: every `speculate` pushes a level, every commit pops
    // one, and a rollback pops-then-re-enters — but rolling back an *outer*
    // level also discards any still-open inner levels, so the final open
    // depth is bounded by speculations - commits rather than equal to it.
    let ceiling = stats
        .speculations
        .checked_sub(stats.commits)
        .ok_or_else(|| format!("{label}: more commits than speculations: {stats:?}"))?;
    if spec_depth as u64 > ceiling {
        return Err(format!(
            "{label}: final spec depth {spec_depth} > speculations - commits = {ceiling}"
        ));
    }
    if stats.delta_checkpoints > stats.checkpoints {
        return Err(format!(
            "{label}: delta checkpoints {} exceed checkpoints {}",
            stats.delta_checkpoints, stats.checkpoints
        ));
    }
    if stats.steps == 0 {
        return Err(format!("{label}: no steps executed"));
    }
    Ok(())
}

fn run_plain(program: &Program, backend: BackendKind, verify: bool) -> Result<ModeResult, String> {
    let store = CheckpointStore::new();
    let sink = InMemorySink::with_store(store.clone());
    let mut p = Process::new(program.clone(), base_config(backend, verify))
        .map_err(|e| format!("plain {backend:?}: process setup failed: {e}"))?
        .with_sink(Box::new(sink));
    match p.run() {
        Ok(RunOutcome::Exit(v)) => {
            let stats = p.stats();
            let spec_depth = p.heap().spec_depth();
            sanity(&format!("plain {backend:?}"), &stats, spec_depth)?;
            Ok(ModeResult {
                exit: v,
                view: StatsView::of(&stats),
                steps: stats.steps,
                spec_depth,
                store,
            })
        }
        Ok(other) => Err(format!("plain {backend:?}: unexpected outcome {other:?}")),
        Err(e) => Err(format!("plain {backend:?}: runtime error: {e}")),
    }
}

/// A sink that records the names of checkpoints actually delivered, in
/// delivery order, on top of an [`InMemorySink`].
struct RecorderSink {
    inner: InMemorySink,
    delivered: Arc<Mutex<Vec<String>>>,
}

impl MigrationSink for RecorderSink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        let outcome = self.inner.deliver(protocol, target, image);
        if protocol == MigrateProtocol::Checkpoint && matches!(outcome, DeliveryOutcome::Stored) {
            self.delivered
                .lock()
                .expect("recorder lock")
                .push(target.to_owned());
        }
        outcome
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        self.inner.has_base(base, base_fingerprint)
    }

    fn accepted_codecs(&self) -> CodecSet {
        self.inner.accepted_codecs()
    }
}

/// Mode (b): kill the program at a tape-derived step budget — and, for
/// short programs, at a seeded sample of budgets over the whole run —
/// resurrect the last delivered checkpoint each time, and finish.
fn check_kill_and_resurrect(
    program: &Program,
    tape: &[u32],
    bytecode: &ModeResult,
) -> Result<(), String> {
    if bytecode.steps < 10 {
        return Ok(()); // too short for a meaningful mid-flight kill
    }
    // A tape-chosen kill point in the middle half of the run, so the kill
    // lands in generated code rather than in the fixed prologue/epilogue.
    let frac = u64::from(tape.first().copied().unwrap_or(0) % 50 + 25);
    let kill = (bytecode.steps * frac / 100).max(5);
    let resume_backend = if tape.get(1).copied().unwrap_or(0) % 2 == 0 {
        BackendKind::Bytecode
    } else {
        BackendKind::Interp
    };
    let mut resurrected = HashSet::new();
    kill_and_resurrect(
        program,
        kill,
        None,
        resume_backend,
        bytecode,
        &mut resurrected,
    )?;

    // The sample is a function of the tape alone, so a failure reproduces
    // from the tape.  Any budget in 1..steps kills mid-flight.
    let seed = tape.iter().fold(bytecode.steps, |h, w| {
        h.wrapping_mul(0x100_0000_01b3) ^ u64::from(*w)
    });
    if bytecode.steps <= BUDGET_SWEEP_MAX_STEPS && seed % BUDGET_SWEEP_ONE_IN == 0 {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..BUDGET_SWEEP_SAMPLES {
            let kill = 1 + below(&mut rng, bytecode.steps - 1);
            // Raw images: what the sweep varies is the kill point, and
            // trying every codec on every checkpoint would dominate it.
            kill_and_resurrect(
                program,
                kill,
                Some(CodecId::Raw),
                BackendKind::Bytecode,
                bytecode,
                &mut resurrected,
            )?;
        }
    }
    Ok(())
}

/// Run under the step budget `kill` (below the plain run's step count),
/// let the budget kill the process, resurrect the last delivered
/// checkpoint on `resume_backend` and check it reaches the plain exit.
///
/// `resurrected` holds the `(backend, stored bytes)` already resumed to the
/// right exit: a resumed run is a function of the image alone (a delta pins
/// its base by fingerprint), so kills that leave the same last checkpoint
/// share one resurrection.
fn kill_and_resurrect(
    program: &Program,
    kill: u64,
    heap_codec: Option<CodecId>,
    resume_backend: BackendKind,
    bytecode: &ModeResult,
    resurrected: &mut HashSet<(bool, Vec<u8>)>,
) -> Result<(), String> {
    let store = CheckpointStore::new();
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let sink = RecorderSink {
        inner: InMemorySink::with_store(store.clone()),
        delivered: Arc::clone(&delivered),
    };
    let config = ProcessConfig {
        step_budget: Some(kill),
        delta_checkpoints: true,
        heap_codec,
        ..base_config(BackendKind::Bytecode, false)
    };
    let mut p = Process::new(program.clone(), config)
        .map_err(|e| format!("kill run: setup failed: {e}"))?
        .with_sink(Box::new(sink));
    match p.run() {
        Err(RuntimeError::StepBudgetExhausted { .. }) => {}
        Ok(RunOutcome::Exit(v)) => {
            // The budget is below the plain run's step count, so the only
            // way to exit is divergent control flow.
            return Err(format!(
                "kill run exited with {v} under budget {kill} < {} steps",
                bytecode.steps
            ));
        }
        Ok(other) => return Err(format!("kill run: unexpected outcome {other:?}")),
        Err(e) => return Err(format!("kill run at budget {kill}: unexpected error: {e}")),
    }
    if p.stats().steps != kill + 1 {
        return Err(format!(
            "kill run at budget {kill} counted {} steps, expected the overrun step {}",
            p.stats().steps,
            kill + 1
        ));
    }

    let names = delivered.lock().expect("recorder lock").clone();
    let stored = names.last().and_then(|last| store.get(last));
    let key = (
        resume_backend == BackendKind::Interp,
        stored.unwrap_or_default(),
    );
    if !resurrected.insert(key) {
        return Ok(());
    }
    let Some(last) = names.last() else {
        // Killed before the first checkpoint delivery: nothing to
        // resurrect, so rerun from scratch instead (the generator's early
        // checkpoint makes this rare for mid-run kills).
        let rerun = run_plain(program, resume_backend, false)?;
        if rerun.exit != bytecode.exit {
            return Err(format!(
                "fallback rerun exit {} != reference {}",
                rerun.exit, bytecode.exit
            ));
        }
        return Ok(());
    };

    let image = store
        .load(last)
        .map_err(|e| format!("resurrect: store.load({last}) failed: {e}"))?;
    let mut resumed = Process::from_image(image, base_config(resume_backend, false))
        .map_err(|e| format!("resurrect: from_image({last}) failed: {e}"))?
        .with_sink(Box::new(InMemorySink::new()));
    match resumed.run() {
        Ok(RunOutcome::Exit(v)) if v == bytecode.exit => Ok(()),
        Ok(RunOutcome::Exit(v)) => Err(format!(
            "resurrected from {last} (killed at step {kill}) exited {v}, reference {}",
            bytecode.exit
        )),
        Ok(other) => Err(format!("resurrect: unexpected outcome {other:?}")),
        Err(e) => Err(format!(
            "resurrect from {last} (killed at step {kill}): runtime error: {e}"
        )),
    }
}

/// A sink that accepts migrations by capturing the encoded image bytes and
/// stores checkpoints like an [`InMemorySink`].
struct CaptureSink {
    inner: InMemorySink,
    migrated: Arc<Mutex<Option<Vec<u8>>>>,
}

impl MigrationSink for CaptureSink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        match protocol {
            MigrateProtocol::Migrate => {
                *self.migrated.lock().expect("capture lock") = Some(image.to_bytes());
                DeliveryOutcome::Migrated
            }
            _ => self.inner.deliver(protocol, target, image),
        }
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        self.inner.has_base(base, base_fingerprint)
    }

    fn accepted_codecs(&self) -> CodecSet {
        self.inner.accepted_codecs()
    }
}

/// Mode (c): every migrate site really migrates — through bytes — and the
/// chain of resumed processes must reach the reference exit value.
fn check_migration_chain(
    program: &Program,
    codec: CodecId,
    reference: &ModeResult,
    bytecode: &ModeResult,
) -> Result<(), String> {
    let config = ProcessConfig {
        heap_codec: Some(codec),
        ..base_config(BackendKind::Bytecode, false)
    };
    let migrated = Arc::new(Mutex::new(None));
    let mut p = Process::new(program.clone(), config.clone())
        .map_err(|e| format!("codec {codec:?}: setup failed: {e}"))?
        .with_sink(Box::new(CaptureSink {
            inner: InMemorySink::new(),
            migrated: Arc::clone(&migrated),
        }));

    let mut attempts = 0u64;
    for _segment in 0..MAX_SEGMENTS {
        match p.run() {
            Ok(RunOutcome::Exit(v)) => {
                let stats = p.stats();
                attempts += stats.migration_attempts;
                sanity(
                    &format!("codec {codec:?} final segment"),
                    &stats,
                    p.heap().spec_depth(),
                )?;
                if v != reference.exit {
                    return Err(format!(
                        "codec {codec:?}: migrated chain exited {v}, reference {}",
                        reference.exit
                    ));
                }
                // Every migrate site executed exactly once across the
                // chain, matching the plain run where each site failed.
                if attempts != bytecode.view.migration_attempts {
                    return Err(format!(
                        "codec {codec:?}: {attempts} migrate attempts across chain, reference {}",
                        bytecode.view.migration_attempts
                    ));
                }
                return Ok(());
            }
            Ok(RunOutcome::MigratedAway { target }) => {
                let stats = p.stats();
                attempts += stats.migration_attempts;
                let bytes = migrated
                    .lock()
                    .expect("capture lock")
                    .take()
                    .ok_or_else(|| {
                        format!("codec {codec:?}: migrated to {target} but no image captured")
                    })?;
                let image = MigrationImage::from_bytes(&bytes)
                    .map_err(|e| format!("codec {codec:?}: image decode failed: {e}"))?;
                p = Process::from_image(image, config.clone())
                    .map_err(|e| format!("codec {codec:?}: resume failed: {e}"))?
                    .with_sink(Box::new(CaptureSink {
                        inner: InMemorySink::new(),
                        migrated: Arc::clone(&migrated),
                    }));
            }
            Ok(other) => return Err(format!("codec {codec:?}: unexpected outcome {other:?}")),
            Err(e) => return Err(format!("codec {codec:?}: runtime error: {e}")),
        }
    }
    Err(format!(
        "codec {codec:?}: still migrating after {MAX_SEGMENTS} segments"
    ))
}

/// Mode (d): async checkpoints behind drain barriers agree with the plain
/// run, and the last async-written checkpoint resurrects to the same exit.
fn check_async_pipeline(
    program: &Program,
    reference: &ModeResult,
    bytecode: &ModeResult,
) -> Result<(), String> {
    let store = CheckpointStore::new();
    let sink = mojave_runtime::AsyncSink::new(
        Box::new(InMemorySink::with_store(store.clone())),
        mojave_runtime::PipelineConfig {
            drain_after_submit: true,
            ..mojave_runtime::PipelineConfig::default()
        },
    );
    let config = ProcessConfig {
        async_checkpoints: true,
        delta_checkpoints: true,
        ..base_config(BackendKind::Bytecode, false)
    };
    let mut p = Process::new(program.clone(), config)
        .map_err(|e| format!("async: setup failed: {e}"))?
        .with_sink(Box::new(sink));
    let exit = match p.run() {
        Ok(RunOutcome::Exit(v)) => v,
        Ok(other) => return Err(format!("async: unexpected outcome {other:?}")),
        Err(e) => return Err(format!("async: runtime error: {e}")),
    };
    if exit != reference.exit {
        return Err(format!("async exit {exit} != reference {}", reference.exit));
    }
    let stats = p.stats();
    sanity("async", &stats, p.heap().spec_depth())?;
    let view = StatsView::of(&stats);
    if view != bytecode.view {
        return Err(format!(
            "async stats {view:?} != plain bytecode stats {:?}",
            bytecode.view
        ));
    }
    // Drain barriers make the async store byte-for-byte complete: the same
    // checkpoint names the sync run stored, no more, no fewer.
    let mut sync_names = bytecode.store.names();
    sync_names.sort();
    let mut async_names = store.names();
    async_names.sort();
    if sync_names != async_names {
        return Err(format!(
            "async store names {async_names:?} != sync store names {sync_names:?}"
        ));
    }

    // Resurrect the highest-numbered checkpoint (names rotate as ck-<n>).
    let last = async_names
        .iter()
        .max_by_key(|n| n.strip_prefix("ck-").and_then(|s| s.parse::<u64>().ok()))
        .cloned();
    if let Some(name) = last {
        let image = store
            .load(&name)
            .map_err(|e| format!("async: store.load({name}) failed: {e}"))?;
        let mut resumed = Process::from_image(image, base_config(BackendKind::Bytecode, false))
            .map_err(|e| format!("async: from_image({name}) failed: {e}"))?
            .with_sink(Box::new(InMemorySink::new()));
        match resumed.run() {
            Ok(RunOutcome::Exit(v)) if v == reference.exit => {}
            Ok(RunOutcome::Exit(v)) => {
                return Err(format!(
                    "async checkpoint {name} resumed to {v}, reference {}",
                    reference.exit
                ))
            }
            Ok(other) => return Err(format!("async resume: unexpected outcome {other:?}")),
            Err(e) => return Err(format!("async resume from {name}: {e}")),
        }
    }
    Ok(())
}
