//! A running Mojave process: heap + code + speculation state + externals,
//! with both execution back-ends and the migration/speculation control flow.

use crate::backend::{
    compile_program, BackendKind, BytecodeProgram, Const, Executable, Instr, Op, Reg,
};
use crate::error::RuntimeError;
use crate::externals::{DefaultExternals, ExtCall, Externals};
use crate::machine::Machine;
use crate::migrate::{
    CodeSection, DeliveryOutcome, InMemorySink, MigrationImage, MigrationSink, SnapshotPack,
};
use mojave_fir::{
    typecheck, validate, Atom, Binop, Expr, ExternEnv, FunId, MigrateProtocol, Program, Unop, VarId,
};
use mojave_heap::{negotiate_codecs, BlockKind, Heap, HeapConfig, Word};
use mojave_obs::{EventKind, Recorder};
use mojave_wire::CodecId;
use std::collections::HashMap;
use std::mem::take;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What poison mode (`debug_assertions`) fills the registers a call leaves
/// stale with: a pointer no heap hands out.
const STALE: Word = Word::Ptr(mojave_heap::PtrIdx(u32::MAX));

/// Configuration of a [`Process`].
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// Which back-end executes the program.
    pub backend: BackendKind,
    /// Heap configuration.
    pub heap: HeapConfig,
    /// Optional bound on executed instructions; `None` means unbounded.
    /// Used by tests and by the cluster's failure injection.
    pub step_budget: Option<u64>,
    /// The (simulated) machine this process runs on.
    pub machine: Machine,
    /// Run the FIR type checker and validator at construction time.
    pub verify: bool,
    /// Emit incremental (delta) checkpoint images when a base checkpoint is
    /// available on the sink: only the heap blocks dirtied since the last
    /// full checkpoint are shipped.  Off by default; `migrate://` and
    /// `suspend://` images are always full regardless.
    ///
    /// Deltas require **rotating checkpoint names** (like the grid's
    /// `grid-<id>-<step>`): a delta is never written under its own base's
    /// name, because storing it would replace the image it references — a
    /// program that checkpoints to one constant name keeps getting full
    /// images.
    pub delta_checkpoints: bool,
    /// With [`ProcessConfig::delta_checkpoints`], force a full checkpoint
    /// after this many consecutive deltas.  Deltas accumulate every block
    /// dirtied since the last *full* image, so this bounds both delta size
    /// growth and the work a loader does resolving a checkpoint.
    pub max_delta_chain: u32,
    /// Slab-compression codec for packed heap payloads (wire v5).
    ///
    /// `None` (the default) lets the encoder pick per slab — sample the
    /// slab, take the smallest encoding among what the sink advertises
    /// via [`MigrationSink::accepted_codecs`].  `Some(codec)` forces that
    /// codec (benchmarks and fixtures); if the sink does not accept it,
    /// the process falls back to [`CodecId::Raw`], which every sink
    /// accepts.
    pub heap_codec: Option<CodecId>,
    /// Take `checkpoint://` images **asynchronously**: the mutator only
    /// pays a zero-pause heap freeze (O(pointer-table) copy-on-write
    /// capture, [`mojave_heap::Heap::freeze`]) and hands the encode +
    /// delivery to the sink via [`MigrationSink::deliver_deferred`].
    /// With an `AsyncSink` (`mojave-runtime`) the expensive work runs on
    /// a pipeline worker thread concurrently with the mutator; with a
    /// plain sink the default trait method encodes inline, so the flag is
    /// always safe to set.
    ///
    /// Trade-offs: the pre-pack GC is skipped (dead blocks ride along
    /// until the next natural collection), delivery outcomes are
    /// optimistic (`Stored` is reported at submission; failures surface
    /// in [`crate::PipelineStats::failed`]), and `migrate://` /
    /// `suspend://` images remain synchronous (their outcome decides
    /// whether the process keeps running).
    pub async_checkpoints: bool,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            backend: BackendKind::Bytecode,
            heap: HeapConfig::default(),
            step_budget: None,
            machine: Machine::default(),
            verify: true,
            delta_checkpoints: false,
            max_delta_chain: 8,
            heap_codec: None,
            async_checkpoints: false,
        }
    }
}

/// Why a call to [`Process::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program halted with an exit value.
    Exit(i64),
    /// A `migrate://` migration succeeded; the process now runs on the
    /// target machine and the local copy has terminated.
    MigratedAway {
        /// The migration target (node name).
        target: String,
    },
    /// A `suspend://` migration wrote the process image and terminated it.
    Suspended {
        /// The checkpoint name the image was stored under.
        target: String,
    },
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Instructions (interpreter steps or bytecode instructions) executed.
    pub steps: u64,
    /// `speculate` operations performed.
    pub speculations: u64,
    /// `commit` operations performed.
    pub commits: u64,
    /// `rollback` operations performed.
    pub rollbacks: u64,
    /// Checkpoints successfully written.
    pub checkpoints: u64,
    /// Of those, how many were incremental (delta) images.
    pub delta_checkpoints: u64,
    /// Migration attempts (any protocol).
    pub migration_attempts: u64,
    /// Migration attempts that failed and fell back to local execution.
    pub migration_failures: u64,
    /// Nanoseconds the mutator was blocked by checkpointing: the full
    /// pack + deliver time on the synchronous path, or just the heap
    /// freeze + submission on the asynchronous path.
    pub checkpoint_pause_ns: u64,
    /// Nanoseconds spent encoding checkpoint images — on the mutator for
    /// synchronous checkpoints, on pipeline workers (collected at
    /// [`Process::run`] exit) for asynchronous ones.
    pub checkpoint_encode_ns: u64,
}

/// Where control goes after a function body finishes executing.
#[derive(Debug, Clone)]
enum Transfer {
    Call {
        target: Word,
        args: Vec<Word>,
    },
    Halt(i64),
    Speculate {
        fun: Word,
        args: Vec<Word>,
    },
    Commit {
        level: i64,
        fun: Word,
        args: Vec<Word>,
    },
    Rollback {
        level: i64,
        code: i64,
    },
    Migrate {
        label: u32,
        target: String,
        fun: Word,
        args: Vec<Word>,
    },
}

/// A running Mojave process.
pub struct Process {
    /// The FIR program, as the code section every pack ships.  The code is
    /// immutable for the process lifetime, so the section's encoding is
    /// paid once; every later image shares it.
    code: CodeSection,
    /// The compiled code in the form the VM runs it; shared so the VM loop
    /// can hold the code while it mutates the process.
    bytecode: Option<Arc<Executable>>,
    /// The VM's register file and call-argument staging buffer, reused by
    /// every call so the loop allocates for neither.
    vm_regs: Vec<Word>,
    vm_args: Vec<Word>,
    heap: Heap,
    /// The continuation of every open speculation level, oldest first:
    /// entry `l - 1` is what `speculate` captured for heap level `l` (the
    /// function and its arguments less the leading rollback code), so a
    /// rollback to `l` can re-enter it (paper §4.3).  The heap holds the
    /// levels' copy-on-write records; this stack is always as deep.
    spec_conts: Vec<(Word, Vec<Word>)>,
    externals: Box<dyn Externals>,
    sink: Box<dyn MigrationSink>,
    config: ProcessConfig,
    stats: ProcessStats,
    /// The next continuation to run (entry point, or the resume point of an
    /// unpacked image).
    pending: Option<(Word, Vec<Word>)>,
    /// Name and heap-payload fingerprint slot of the last *full*
    /// checkpoint whose delivery answered `Stored` — the base candidate for
    /// delta checkpoints.  [`SnapshotPack::into_image`] fills the slot: at
    /// once for a synchronous checkpoint, whenever its worker encodes for
    /// an asynchronous one.  Until it is filled the process emits full
    /// images — never a delta against an unpinned base.
    checkpoint_base: Option<(String, Arc<OnceLock<u64>>)>,
    /// Consecutive delta checkpoints emitted against `checkpoint_base`.
    deltas_since_full: u32,
    /// Pipeline encode time already folded into
    /// [`ProcessStats::checkpoint_encode_ns`], so repeated flushes add
    /// only the delta.
    encode_ns_reported: u64,
    /// Flight recorder for checkpoint/deliver events (shared with the
    /// heap's recorder when set through [`Process::with_recorder`]).
    recorder: Recorder,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("backend", &self.config.backend)
            .field("machine", &self.config.machine)
            .field("steps", &self.stats.steps)
            .field("spec_depth", &self.heap.spec_depth())
            .finish()
    }
}

/// Elaborate checked FIR for the bytecode back end and lower it to the
/// form the VM runs.  The bytecode satisfies [`BytecodeProgram::verify`] by
/// construction; release builds do not re-check.
fn compile_verified(program: &Program) -> Result<Arc<Executable>, RuntimeError> {
    let bytecode =
        compile_program(program).map_err(|e| RuntimeError::MigrationRejected(e.to_string()))?;
    debug_assert_eq!(bytecode.verify(), Ok(()), "compiler output must verify");
    Ok(Arc::new(Executable::new(bytecode)))
}

impl Process {
    /// Create a process from an FIR program with default configuration,
    /// externals and sink.
    ///
    /// # Panics
    /// Panics if the program fails validation or type checking; use
    /// [`Process::new`] to handle those errors.
    pub fn from_program(program: Program) -> Self {
        Process::new(program, ProcessConfig::default()).expect("program verifies")
    }

    /// Create a process from an FIR program.
    pub fn new(program: Program, config: ProcessConfig) -> Result<Self, RuntimeError> {
        if config.verify {
            validate(&program)?;
            typecheck(&program, &ExternEnv::standard())?;
        }
        let bytecode = match config.backend {
            BackendKind::Bytecode => Some(compile_verified(&program)?),
            BackendKind::Interp => None,
        };
        let entry = Word::Fun(program.entry.0);
        Ok(Process {
            code: program.into(),
            bytecode,
            vm_regs: Vec::new(),
            vm_args: Vec::new(),
            heap: Heap::with_config(config.heap),
            spec_conts: Vec::new(),
            externals: Box::new(DefaultExternals::default()),
            sink: Box::new(InMemorySink::new()),
            config,
            stats: ProcessStats::default(),
            pending: Some((entry, Vec::new())),
            checkpoint_base: None,
            deltas_since_full: 0,
            encode_ns_reported: 0,
            recorder: Recorder::disabled(),
        })
    }

    /// Unpack a migration/checkpoint image into a runnable process
    /// (paper §4.2.2: the FIR is type-checked and recompiled before
    /// execution resumes).
    pub fn from_image(image: MigrationImage, config: ProcessConfig) -> Result<Self, RuntimeError> {
        let code = image.inline_code()?.clone();
        // The safety step: verify before running foreign code.
        validate(&code)?;
        typecheck(&code, &ExternEnv::standard())?;
        let bytecode = match config.backend {
            BackendKind::Bytecode => Some(compile_verified(&code)?),
            BackendKind::Interp => None,
        };
        let heap = image.decode_heap(config.heap)?;
        // Recover the live variables from the migrate environment.
        let env_len = heap.block_len(image.migrate_env)?;
        if heap.block_kind(image.migrate_env)? != BlockKind::MigrateEnv {
            return Err(RuntimeError::MigrationRejected(
                "migrate_env does not point at a MigrateEnv block".into(),
            ));
        }
        let mut args = Vec::with_capacity(env_len);
        for i in 0..env_len {
            args.push(heap.load(image.migrate_env, i as i64)?);
        }
        Ok(Process {
            code,
            bytecode,
            vm_regs: Vec::new(),
            vm_args: Vec::new(),
            heap,
            spec_conts: Vec::new(),
            externals: Box::new(DefaultExternals::default()),
            sink: Box::new(InMemorySink::new()),
            config,
            stats: ProcessStats::default(),
            pending: Some((image.resume_fun, args)),
            checkpoint_base: None,
            deltas_since_full: 0,
            encode_ns_reported: 0,
            recorder: Recorder::disabled(),
        })
    }

    /// Replace the externals implementation (builder style).
    pub fn with_externals(mut self, externals: Box<dyn Externals>) -> Self {
        self.externals = externals;
        self
    }

    /// Replace the migration sink (builder style).
    pub fn with_sink(mut self, sink: Box<dyn MigrationSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Attach a flight recorder (builder style).  The same recorder is
    /// handed to the heap, so checkpoint spans, GC, freeze and
    /// speculation events all land in one stream.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.heap.set_recorder(recorder.clone());
        self.recorder = recorder;
        self
    }

    /// The attached flight recorder (disabled unless set through
    /// [`Process::with_recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Fold the scattered per-layer stats structs ([`ProcessStats`],
    /// heap stats, pipeline stats) into the recorder's metrics registry
    /// under one namespace, so a single snapshot exports everything.
    /// No-op below the `Metrics` level.
    pub fn export_metrics(&self) {
        if !self.recorder.metrics_on() {
            return;
        }
        let registry = self.recorder.registry();
        let s = self.stats;
        registry.counter_set("process.steps", s.steps);
        registry.counter_set("process.speculations", s.speculations);
        registry.counter_set("process.commits", s.commits);
        registry.counter_set("process.rollbacks", s.rollbacks);
        registry.counter_set("process.checkpoints", s.checkpoints);
        registry.counter_set("process.delta_checkpoints", s.delta_checkpoints);
        registry.counter_set("process.migration_attempts", s.migration_attempts);
        registry.counter_set("process.migration_failures", s.migration_failures);
        registry.counter_set("process.checkpoint_pause_ns", s.checkpoint_pause_ns);
        registry.counter_set("process.checkpoint_encode_ns", s.checkpoint_encode_ns);
        let h = self.heap.stats();
        registry.counter_set("heap.blocks_allocated", h.blocks_allocated);
        registry.counter_set("heap.bytes_allocated", h.bytes_allocated);
        registry.counter_set("heap.minor_collections", h.minor_collections);
        registry.counter_set("heap.major_collections", h.major_collections);
        registry.counter_set("heap.cow_clones", h.cow_clones);
        registry.counter_set("heap.snapshots_frozen", h.snapshots_frozen);
        registry.counter_set("heap.column_conversions", h.column_conversions);
        if let Some(p) = self.sink.pipeline_stats() {
            registry.counter_set("pipeline.submitted", p.submitted);
            registry.counter_set("pipeline.completed", p.completed);
            registry.counter_set("pipeline.failed", p.failed);
            registry.counter_set("pipeline.queue_depth_max", p.queue_depth_max as u64);
            registry.counter_set("pipeline.bytes_raw", p.bytes_raw);
            registry.counter_set("pipeline.bytes_stored", p.bytes_stored);
            registry.counter_set("pipeline.bytes_reused", p.bytes_reused);
            registry.counter_set("pipeline.pause_ns", p.pause_ns);
            registry.counter_set("pipeline.encode_ns", p.encode_ns);
        }
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ProcessStats {
        self.stats
    }

    /// The heap (for tests, diagnostics and the bench harness).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access (used by benchmarks that pre-populate state).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The FIR program.
    pub fn program(&self) -> &Program {
        &self.code
    }

    /// The compiled bytecode, if the bytecode backend is in use.
    pub fn bytecode(&self) -> Option<&BytecodeProgram> {
        self.bytecode.as_deref().map(Executable::program)
    }

    /// Lines the program printed so far.
    pub fn output(&self) -> &[String] {
        self.externals.output()
    }

    /// The process configuration.
    pub fn config(&self) -> &ProcessConfig {
        &self.config
    }

    /// The externals (for tests that inspect e.g. the object store).
    pub fn externals(&self) -> &dyn Externals {
        self.externals.as_ref()
    }

    // ------------------------------------------------------------------
    // The run loop
    // ------------------------------------------------------------------

    /// Run the process until it halts, migrates away or suspends.
    ///
    /// Before returning — on success *and* on error — any asynchronous
    /// checkpoint pipeline behind the sink is flushed
    /// ([`MigrationSink::flush`]), so every checkpoint this run reported
    /// as stored is durably resolvable (a resurrection daemon reads them
    /// right after the worker thread exits), and the workers' encode time
    /// is folded into [`ProcessStats::checkpoint_encode_ns`].
    pub fn run(&mut self) -> Result<RunOutcome, RuntimeError> {
        let result = self.run_loop();
        self.sink.flush();
        if let Some(pipeline) = self.sink.pipeline_stats() {
            let delta = pipeline.encode_ns.saturating_sub(self.encode_ns_reported);
            self.stats.checkpoint_encode_ns += delta;
            self.encode_ns_reported = pipeline.encode_ns;
        }
        result
    }

    fn run_loop(&mut self) -> Result<RunOutcome, RuntimeError> {
        let (mut fun, mut args) = self
            .pending
            .take()
            .unwrap_or((Word::Fun(self.code.entry.0), Vec::new()));
        loop {
            let transfer = match self.config.backend {
                BackendKind::Interp => self.interp_call(fun, args)?,
                BackendKind::Bytecode => self.vm_run(fun, args)?,
            };
            match transfer {
                Transfer::Call { target, args: a } => {
                    fun = target;
                    args = a;
                }
                Transfer::Halt(v) => return Ok(RunOutcome::Exit(v)),
                Transfer::Speculate { fun: f, args: a } => {
                    let level = self.heap.spec_enter();
                    self.spec_conts.push((f, a.clone()));
                    debug_assert_eq!(self.spec_conts.len(), self.heap.spec_depth());
                    self.stats.speculations += 1;
                    let mut full = Vec::with_capacity(a.len() + 1);
                    // On entry the code parameter is the (positive) level id,
                    // so programs can use it like Figure 1's `specid`.
                    full.push(Word::Int(level as i64));
                    full.extend(a);
                    fun = f;
                    args = full;
                }
                Transfer::Commit {
                    level,
                    fun: f,
                    args: a,
                } => {
                    let lvl = self.valid_level(level)?;
                    self.heap.spec_commit(lvl)?;
                    // Younger levels renumber down by one, as in the heap.
                    self.spec_conts.remove(lvl - 1);
                    debug_assert_eq!(self.spec_conts.len(), self.heap.spec_depth());
                    self.stats.commits += 1;
                    fun = f;
                    args = a;
                }
                Transfer::Rollback { level, code } => {
                    let lvl = self.valid_level(level)?;
                    self.heap.spec_rollback(lvl)?;
                    self.stats.rollbacks += 1;
                    // Retry semantics: the level is immediately re-entered and
                    // its saved continuation called with the new code.
                    self.heap.spec_enter();
                    self.spec_conts.truncate(lvl);
                    debug_assert_eq!(self.spec_conts.len(), self.heap.spec_depth());
                    let (f, a) = &self.spec_conts[lvl - 1];
                    let mut full = Vec::with_capacity(a.len() + 1);
                    full.push(Word::Int(code));
                    full.extend(a.iter().copied());
                    fun = *f;
                    args = full;
                }
                Transfer::Migrate {
                    label,
                    target,
                    fun: f,
                    args: a,
                } => {
                    self.stats.migration_attempts += 1;
                    let (protocol, dest) = MigrateProtocol::parse_target(&target)
                        .ok_or_else(|| RuntimeError::BadMigrationTarget(target.clone()))?;
                    // Base-image negotiation: a checkpoint becomes a delta
                    // only when deltas are enabled, the chain is not
                    // exhausted, the base's fingerprint is already known
                    // (an asynchronous full checkpoint pins it once its
                    // worker has encoded the image), and the sink still
                    // has the base image.
                    let delta_base = if protocol == MigrateProtocol::Checkpoint
                        && self.config.delta_checkpoints
                        && self.deltas_since_full < self.config.max_delta_chain
                    {
                        // Never delta against the name being written: the
                        // store would replace the base with the delta that
                        // references it.
                        self.checkpoint_base.as_ref().and_then(|(base, slot)| {
                            let fp = *slot.get()?;
                            (base != dest && self.sink.has_base(base, fp))
                                .then(|| (base.clone(), fp))
                        })
                    } else {
                        None
                    };
                    let asynchronous =
                        self.config.async_checkpoints && protocol == MigrateProtocol::Checkpoint;
                    self.recorder.record(
                        EventKind::CheckpointBegin,
                        label as u64,
                        asynchronous as u64,
                    );
                    let pause_start = Instant::now();
                    if !asynchronous {
                        self.collect_for_pack(f, &a);
                    }
                    let mut pack = self.pack_snapshot(
                        label,
                        f,
                        &a,
                        delta_base.as_ref().map(|(b, fp)| (b.as_str(), *fp)),
                    )?;
                    // A full checkpoint taken with deltas on is the next
                    // base candidate: its slot learns the payload's
                    // fingerprint when the image is encoded.
                    let base_slot = (protocol == MigrateProtocol::Checkpoint
                        && delta_base.is_none()
                        && self.config.delta_checkpoints)
                        .then(|| Arc::new(OnceLock::new()));
                    pack.fingerprint_slot = base_slot.clone();
                    let outcome = if asynchronous {
                        self.sink.deliver_deferred(protocol, dest, pack)
                    } else {
                        let image = pack.into_image()?;
                        if protocol == MigrateProtocol::Checkpoint {
                            // On the synchronous path the mutator pays the
                            // encode itself.
                            self.stats.checkpoint_encode_ns +=
                                pause_start.elapsed().as_nanos() as u64;
                        }
                        if self.recorder.tracing() {
                            let (raw, stored) = image.heap_payload_wire_stats();
                            self.recorder.record(EventKind::Encode, raw, stored);
                            self.recorder.record(
                                EventKind::CodecChosen,
                                self.config.heap_codec.map_or(0xFF, |c| c as u64),
                                stored,
                            );
                        }
                        let outcome = self.sink.deliver(protocol, dest, &image);
                        if self.recorder.tracing() {
                            self.recorder.record(
                                EventKind::Deliver,
                                outcome.obs_code(),
                                image.heap_payload_wire_stats().1,
                            );
                        }
                        outcome
                    };
                    if let Some(slot) = base_slot.filter(|_| outcome == DeliveryOutcome::Stored) {
                        // The stored full image is the new base: dirty
                        // tracking restarts (and arms) from the frozen
                        // state — the mutator has not run since the freeze
                        // — and the slot pins the base content future
                        // deltas resolve against.  A delivery that did not
                        // store keeps the previous base, which the store
                        // still holds and the dirty set still covers.
                        self.checkpoint_base = Some((dest.to_owned(), slot));
                        self.deltas_since_full = 0;
                        self.heap.mark_clean();
                    }
                    if protocol == MigrateProtocol::Checkpoint {
                        self.stats.checkpoint_pause_ns += pause_start.elapsed().as_nanos() as u64;
                    }
                    self.recorder.record(
                        EventKind::CheckpointEnd,
                        label as u64,
                        outcome.obs_code(),
                    );
                    match (protocol, outcome) {
                        (MigrateProtocol::Migrate, DeliveryOutcome::Migrated) => {
                            return Ok(RunOutcome::MigratedAway {
                                target: dest.to_owned(),
                            })
                        }
                        (MigrateProtocol::Suspend, DeliveryOutcome::Stored) => {
                            return Ok(RunOutcome::Suspended {
                                target: dest.to_owned(),
                            })
                        }
                        (MigrateProtocol::Checkpoint, DeliveryOutcome::Stored) => {
                            self.stats.checkpoints += 1;
                            if delta_base.is_some() {
                                self.stats.delta_checkpoints += 1;
                                self.deltas_since_full += 1;
                            }
                            fun = f;
                            args = a;
                        }
                        (_, DeliveryOutcome::Failed(_)) => {
                            // The process is indifferent to failed migration:
                            // it continues on the source machine.
                            self.stats.migration_failures += 1;
                            fun = f;
                            args = a;
                        }
                        // A sink answering with the "wrong" success kind
                        // (e.g. Stored for migrate://) still lets the process
                        // continue locally.
                        (_, _) => {
                            fun = f;
                            args = a;
                        }
                    }
                }
            }
        }
    }

    fn valid_level(&self, level: i64) -> Result<usize, RuntimeError> {
        let depth = self.heap.spec_depth();
        if level >= 1 && level as usize <= depth {
            Ok(level as usize)
        } else {
            Err(RuntimeError::BadSpeculationLevel { level, open: depth })
        }
    }

    // ------------------------------------------------------------------
    // Packing (the migration `pack` operation)
    // ------------------------------------------------------------------

    /// Capture the entire process state into a [`MigrationImage`]: the
    /// paper's collection, then [`Process::pack_snapshot`] encoded at once.
    ///
    /// `fun` and `args` are the continuation that execution resumes with;
    /// the args are exactly the live variables across the migration point
    /// and are stored into a fresh `migrate_env` block.
    pub fn pack(
        &mut self,
        label: u32,
        fun: Word,
        args: &[Word],
    ) -> Result<MigrationImage, RuntimeError> {
        self.collect_for_pack(fun, args);
        self.pack_snapshot(label, fun, args, None)?.into_image()
    }

    /// Like [`Process::pack`], but the heap payload is an incremental delta
    /// against the full checkpoint named `base` (whose heap payload hashes
    /// to `base_fingerprint`): only blocks dirtied since the heap was last
    /// [`mojave_heap::Heap::mark_clean`]ed are encoded.
    ///
    /// The caller is responsible for `base` actually being that clean
    /// point; the checkpoint flow in [`Process::run`] maintains this
    /// invariant (and negotiates availability via
    /// [`MigrationSink::has_base`]).
    pub fn pack_delta(
        &mut self,
        label: u32,
        fun: Word,
        args: &[Word],
        base: &str,
        base_fingerprint: u64,
    ) -> Result<MigrationImage, RuntimeError> {
        self.collect_for_pack(fun, args);
        self.pack_snapshot(label, fun, args, Some((base, base_fingerprint)))?
            .into_image()
    }

    /// "The pack operation first performs garbage collection on the heap":
    /// a major collection rooted at the continuation `fun` and its `args`.
    fn collect_for_pack(&mut self, fun: Word, args: &[Word]) {
        let roots = self.gc_roots(args.iter().copied().chain([fun]));
        self.heap.gc_major(&roots);
    }

    /// The root set of a collection: `live` (the mutator's registers, or a
    /// continuation and its arguments), then the speculation roots and the
    /// externals' roots.
    fn gc_roots(&self, live: impl Iterator<Item = Word>) -> Vec<Word> {
        let mut roots: Vec<Word> = live.collect();
        for (fun, args) in &self.spec_conts {
            roots.push(*fun);
            roots.extend(args.iter().copied());
        }
        roots.extend(self.externals.roots());
        roots
    }

    /// Capture the process state as a [`SnapshotPack`] whose heap half is
    /// a **zero-pause** [`mojave_heap::HeapSnapshot`] — an O(pointer-table)
    /// copy-on-write freeze.  The expensive encode is left to
    /// [`SnapshotPack::into_image`]: [`Process::pack`] runs it at once, an
    /// asynchronous checkpoint hands the pack to a pipeline worker that
    /// runs it concurrently with the mutator.
    ///
    /// * **No collection** — the paper's pack garbage-collects first,
    ///   which is O(heap) mutator time; [`Process::pack`] does so before
    ///   calling this, an asynchronous checkpoint does not, and its dead
    ///   blocks ride along in the image until the next natural collection.
    /// * The heap-image codecs are negotiated *now* ([`negotiate_codecs`])
    ///   and recorded in the pack, so the encoder needs no access to the
    ///   process.
    pub fn pack_snapshot(
        &mut self,
        label: u32,
        fun: Word,
        args: &[Word],
        delta_base: Option<(&str, u64)>,
    ) -> Result<SnapshotPack, RuntimeError> {
        if delta_base.is_some() && !self.heap.dirty_tracking_armed() {
            return Err(RuntimeError::MigrationRejected(
                "delta pack requested but no full checkpoint established a clean point".into(),
            ));
        }
        let migrate_env = self.heap.alloc_migrate_env(args.to_vec())?;
        let codecs = negotiate_codecs(self.sink.accepted_codecs(), self.config.heap_codec);
        let code = self.code.clone();
        let freeze_start = Instant::now();
        let heap = self.heap.freeze();
        let freeze_ns = freeze_start.elapsed().as_nanos() as u64;
        Ok(SnapshotPack {
            codecs,
            source_arch: self.config.machine.arch().to_owned(),
            code,
            heap,
            delta_base: delta_base.map(|(base, fp)| (base.to_owned(), fp)),
            migrate_env,
            resume_fun: fun,
            label,
            open_speculations: self.heap.spec_depth() as u32,
            freeze_ns,
            fingerprint_slot: None,
        })
    }

    // ------------------------------------------------------------------
    // Shared evaluation helpers
    // ------------------------------------------------------------------

    fn bump_step(&mut self) -> Result<(), RuntimeError> {
        self.stats.steps += 1;
        if let Some(budget) = self.config.step_budget {
            if self.stats.steps > budget {
                return Err(RuntimeError::StepBudgetExhausted { budget });
            }
        }
        Ok(())
    }

    /// Run the collection that is due, if one is; only then build the root
    /// set: `live` (the mutator's registers), speculation roots, externals'
    /// roots.  Out of line: the VM's dispatch loop keeps only the call.
    /// Every allocation is a collection point, so in poison mode `live`
    /// must hold no stale register, due or not.
    #[inline(never)]
    fn collect_if_due(&mut self, live: &[Word]) {
        Self::no_stale_roots(live);
        if self.heap.gc_due().is_some() {
            let roots = self.gc_roots(live.iter().copied());
            self.heap.maybe_gc(&roots);
        }
    }

    /// Begin staging a call of `target`: `staged` is cleared and, for a
    /// closure, receives the closure itself (the environment argument).
    /// Returns the function index; the caller appends the explicit arguments.
    fn stage_callee(&self, target: Word, staged: &mut Vec<Word>) -> Result<u32, RuntimeError> {
        staged.clear();
        match target {
            Word::Fun(id) => Ok(id),
            Word::Ptr(p) => {
                let block = self.heap.block(p)?;
                if block.header.kind != BlockKind::Closure {
                    return Err(RuntimeError::NotCallable(format!(
                        "block {p} of kind {:?}",
                        block.header.kind
                    )));
                }
                let Some(Word::Fun(id)) = block.as_words().and_then(|w| w.get(0)) else {
                    return Err(RuntimeError::NotCallable(format!(
                        "closure {p} has no function slot"
                    )));
                };
                staged.push(target);
                Ok(id)
            }
            other => Err(RuntimeError::NotCallable(other.kind_name().to_owned())),
        }
    }

    fn check_arity(fun: u32, name: &str, want: usize, got: usize) -> Result<(), RuntimeError> {
        if want != got {
            return Err(RuntimeError::ArityMismatch {
                callee: format!("{name} (f{fun})"),
                expected: want,
                found: got,
            });
        }
        Ok(())
    }

    // The evaluation helpers below run once per instruction, so they follow
    // the trap-free rule ("Execution: verified by construction, run fast" in
    // `docs/ARCHITECTURE.md`): the success path computes a small value, and
    // the `RuntimeError` of a trap is built by a `#[cold]` function from the
    // same operands — never constructed, moved or dropped otherwise.

    #[inline]
    fn eval_unop(&self, op: Unop, w: Word) -> Result<Word, RuntimeError> {
        Ok(match (op, w) {
            (Unop::Neg, Word::Int(v)) => Word::Int(v.wrapping_neg()),
            (Unop::FNeg, Word::Float(v)) => Word::Float(-v),
            (Unop::Not, Word::Bool(v)) => Word::Bool(!v),
            (Unop::BNot, Word::Int(v)) => Word::Int(!v),
            (Unop::FloatOfInt, Word::Int(v)) => Word::Float(v as f64),
            (Unop::IntOfFloat, Word::Float(v)) => Word::Int(v as i64),
            (Unop::IntOfChar, Word::Char(c)) => Word::Int(c as i64),
            (Unop::CharOfInt, Word::Int(v)) => Word::Char(
                u32::try_from(v)
                    .ok()
                    .and_then(char::from_u32)
                    .unwrap_or('\u{FFFD}'),
            ),
            _ => return Err(Self::unop_trap(op, w)),
        })
    }

    #[cold]
    #[inline(never)]
    fn unop_trap(op: Unop, found: Word) -> RuntimeError {
        let expected = match op {
            Unop::Neg | Unop::BNot | Unop::FloatOfInt | Unop::CharOfInt => "int",
            Unop::FNeg | Unop::IntOfFloat => "float",
            Unop::Not => "bool",
            Unop::IntOfChar => "char",
        };
        Self::kind_trap(expected, found, "unary operator")
    }

    #[inline]
    fn eval_binop(&self, op: Binop, a: Word, b: Word) -> Result<Word, RuntimeError> {
        match Self::binop_value(op, a, b) {
            Some(value) => Ok(value),
            None => Err(Self::binop_trap(op, a, b)),
        }
    }

    /// The value of `a op b`, or `None` where the operation traps.  Always
    /// inlined: `Word` is not a scalar pair, so out of line even this
    /// 16-byte result returns through memory, tag and payload stored apart,
    /// and the caller's one 16-byte reload stalls on them.
    #[inline(always)]
    fn binop_value(op: Binop, a: Word, b: Word) -> Option<Word> {
        use Binop::*;
        Some(match (op, a, b) {
            (Add, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_add(y)),
            (Sub, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_sub(y)),
            (Mul, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_mul(y)),
            (Div | Rem, Word::Int(_), Word::Int(0)) => return None,
            (Div, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_div(y)),
            (Rem, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_rem(y)),
            (Add, Word::Float(x), Word::Float(y)) => Word::Float(x + y),
            (Sub, Word::Float(x), Word::Float(y)) => Word::Float(x - y),
            (Mul, Word::Float(x), Word::Float(y)) => Word::Float(x * y),
            (Div, Word::Float(x), Word::Float(y)) => Word::Float(x / y),
            (BAnd, Word::Int(x), Word::Int(y)) => Word::Int(x & y),
            (BOr, Word::Int(x), Word::Int(y)) => Word::Int(x | y),
            (BXor, Word::Int(x), Word::Int(y)) => Word::Int(x ^ y),
            (BAnd, Word::Bool(x), Word::Bool(y)) => Word::Bool(x && y),
            (BOr, Word::Bool(x), Word::Bool(y)) => Word::Bool(x || y),
            (BXor, Word::Bool(x), Word::Bool(y)) => Word::Bool(x ^ y),
            (Shl, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_shl(y as u32)),
            (Shr, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_shr(y as u32)),
            (Eq, x, y) => Word::Bool(x.bitwise_eq(&y)),
            (Ne, x, y) => Word::Bool(!x.bitwise_eq(&y)),
            (Lt, Word::Int(x), Word::Int(y)) => Word::Bool(x < y),
            (Le, Word::Int(x), Word::Int(y)) => Word::Bool(x <= y),
            (Gt, Word::Int(x), Word::Int(y)) => Word::Bool(x > y),
            (Ge, Word::Int(x), Word::Int(y)) => Word::Bool(x >= y),
            (Lt, Word::Float(x), Word::Float(y)) => Word::Bool(x < y),
            (Le, Word::Float(x), Word::Float(y)) => Word::Bool(x <= y),
            (Gt, Word::Float(x), Word::Float(y)) => Word::Bool(x > y),
            (Ge, Word::Float(x), Word::Float(y)) => Word::Bool(x >= y),
            (Lt, Word::Char(x), Word::Char(y)) => Word::Bool(x < y),
            (Le, Word::Char(x), Word::Char(y)) => Word::Bool(x <= y),
            (Gt, Word::Char(x), Word::Char(y)) => Word::Bool(x > y),
            (Ge, Word::Char(x), Word::Char(y)) => Word::Bool(x >= y),
            _ => return None,
        })
    }

    /// Why [`Process::binop_value`] refused: integer division or remainder by
    /// an integer zero, a kind mismatch for everything else.
    #[cold]
    #[inline(never)]
    fn binop_trap(op: Binop, a: Word, b: Word) -> RuntimeError {
        match (op, a, b) {
            (Binop::Div | Binop::Rem, Word::Int(_), Word::Int(0)) => RuntimeError::DivisionByZero,
            _ => RuntimeError::KindMismatch {
                expected: "matching numeric operands",
                found: "mismatched operands",
                context: "binary operator",
            },
        }
    }

    #[cold]
    #[inline(never)]
    fn kind_trap(expected: &'static str, found: Word, context: &'static str) -> RuntimeError {
        RuntimeError::KindMismatch {
            expected,
            found: found.kind_name(),
            context,
        }
    }

    fn call_extern(&mut self, name: &str, args: &[Word]) -> Result<Word, RuntimeError> {
        self.externals.call(ExtCall { name, args }, &mut self.heap)
    }

    #[inline]
    fn word_as_int(w: Word, context: &'static str) -> Result<i64, RuntimeError> {
        match w {
            Word::Int(v) => Ok(v),
            other => Err(Self::kind_trap("int", other, context)),
        }
    }

    #[inline]
    fn word_as_bool(w: Word, context: &'static str) -> Result<bool, RuntimeError> {
        match w {
            Word::Bool(v) => Ok(v),
            other => Err(Self::kind_trap("bool", other, context)),
        }
    }

    #[inline]
    fn word_as_ptr(w: Word, context: &'static str) -> Result<mojave_heap::PtrIdx, RuntimeError> {
        match w {
            Word::Ptr(p) => Ok(p),
            other => Err(Self::kind_trap("ptr", other, context)),
        }
    }

    fn word_as_str(&self, w: Word, context: &'static str) -> Result<String, RuntimeError> {
        let p = Self::word_as_ptr(w, context)?;
        Ok(self.heap.str_value(p)?)
    }

    // ------------------------------------------------------------------
    // The FIR interpreter backend
    // ------------------------------------------------------------------

    fn interp_call(&mut self, target: Word, args: Vec<Word>) -> Result<Transfer, RuntimeError> {
        let mut full_args = Vec::with_capacity(args.len() + 1);
        let fun_id = self.stage_callee(target, &mut full_args)?;
        full_args.extend(args);
        let Some(fun) = self.code.fun(FunId(fun_id)) else {
            return Err(RuntimeError::UnknownFunction(fun_id));
        };
        Self::check_arity(fun_id, "interp call", fun.params.len(), full_args.len())?;
        let mut env: HashMap<VarId, Word> = HashMap::with_capacity(full_args.len() * 2);
        for ((var, _ty), value) in fun.params.iter().zip(full_args) {
            env.insert(*var, value);
        }
        // Clone the body so `self` is free for mutation during execution.
        // Function bodies are shared-immutable in spirit; the clone cost is
        // paid once per call and keeps the interpreter simple and safe.
        let body = fun.body.clone();
        self.interp_expr(body, env)
    }

    fn atom_value(
        &mut self,
        env: &HashMap<VarId, Word>,
        atom: &Atom,
    ) -> Result<Word, RuntimeError> {
        Ok(match atom {
            Atom::Unit => Word::Unit,
            Atom::Int(v) => Word::Int(*v),
            Atom::Float(v) => Word::Float(*v),
            Atom::Bool(v) => Word::Bool(*v),
            Atom::Char(c) => Word::Char(*c),
            Atom::Str(s) => Word::Ptr(self.heap.alloc_str(s)?),
            Atom::Var(v) => match env.get(v) {
                Some(word) => *word,
                None => return Err(RuntimeError::UnboundVar(v.0)),
            },
            Atom::Fun(f) => Word::Fun(f.0),
        })
    }

    fn atom_values(
        &mut self,
        env: &HashMap<VarId, Word>,
        atoms: &[Atom],
    ) -> Result<Vec<Word>, RuntimeError> {
        atoms.iter().map(|a| self.atom_value(env, a)).collect()
    }

    fn interp_expr(
        &mut self,
        mut expr: Expr,
        mut env: HashMap<VarId, Word>,
    ) -> Result<Transfer, RuntimeError> {
        loop {
            self.bump_step()?;
            expr = match expr {
                Expr::LetAtom {
                    dst, atom, body, ..
                } => {
                    let w = self.atom_value(&env, &atom)?;
                    env.insert(dst, w);
                    *body
                }
                Expr::LetUnop { dst, op, arg, body } => {
                    let w = self.atom_value(&env, &arg)?;
                    env.insert(dst, self.eval_unop(op, w)?);
                    *body
                }
                Expr::LetBinop {
                    dst,
                    op,
                    lhs,
                    rhs,
                    body,
                } => {
                    let a = self.atom_value(&env, &lhs)?;
                    let b = self.atom_value(&env, &rhs)?;
                    env.insert(dst, self.eval_binop(op, a, b)?);
                    *body
                }
                Expr::LetAlloc {
                    dst,
                    len,
                    init,
                    body,
                    ..
                } => {
                    let len = Self::word_as_int(self.atom_value(&env, &len)?, "alloc length")?;
                    let init = self.atom_value(&env, &init)?;
                    self.collect_if_needed(&env);
                    let ptr = self.heap.alloc_array(len, init)?;
                    env.insert(dst, Word::Ptr(ptr));
                    *body
                }
                Expr::LetAllocRaw { dst, size, body } => {
                    let size = Self::word_as_int(self.atom_value(&env, &size)?, "raw alloc size")?;
                    self.collect_if_needed(&env);
                    let ptr = self.heap.alloc_raw(size)?;
                    env.insert(dst, Word::Ptr(ptr));
                    *body
                }
                Expr::LetTuple { dst, args, body } => {
                    let words = self.atom_values(&env, &args)?;
                    self.collect_if_needed(&env);
                    let ptr = self.heap.alloc_tuple(words)?;
                    env.insert(dst, Word::Ptr(ptr));
                    *body
                }
                Expr::LetClosure {
                    dst,
                    fun,
                    captured,
                    body,
                    ..
                } => {
                    let words = self.atom_values(&env, &captured)?;
                    self.collect_if_needed(&env);
                    let ptr = self.heap.alloc_closure(fun.0, words)?;
                    env.insert(dst, Word::Ptr(ptr));
                    *body
                }
                Expr::LetLoad {
                    dst,
                    ptr,
                    index,
                    body,
                    ..
                } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "load pointer")?;
                    let i = Self::word_as_int(self.atom_value(&env, &index)?, "load index")?;
                    env.insert(dst, self.heap.load(p, i)?);
                    *body
                }
                Expr::Store {
                    ptr,
                    index,
                    value,
                    body,
                } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "store pointer")?;
                    let i = Self::word_as_int(self.atom_value(&env, &index)?, "store index")?;
                    let v = self.atom_value(&env, &value)?;
                    self.heap.store(p, i, v)?;
                    *body
                }
                Expr::LetLoadRaw {
                    dst,
                    width,
                    ptr,
                    offset,
                    body,
                } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "raw load pointer")?;
                    let o = Self::word_as_int(self.atom_value(&env, &offset)?, "raw load offset")?;
                    env.insert(dst, Word::Int(self.heap.load_raw(p, o, width)?));
                    *body
                }
                Expr::StoreRaw {
                    width,
                    ptr,
                    offset,
                    value,
                    body,
                } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "raw store pointer")?;
                    let o = Self::word_as_int(self.atom_value(&env, &offset)?, "raw store offset")?;
                    let v = Self::word_as_int(self.atom_value(&env, &value)?, "raw store value")?;
                    self.heap.store_raw(p, o, width, v)?;
                    *body
                }
                Expr::LetLen { dst, ptr, body } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "length pointer")?;
                    env.insert(dst, Word::Int(self.heap.block_len(p)? as i64));
                    *body
                }
                Expr::LetExt {
                    dst,
                    name,
                    args,
                    body,
                    ..
                } => {
                    let words = self.atom_values(&env, &args)?;
                    let result = self.call_extern(&name, &words)?;
                    env.insert(dst, result);
                    *body
                }
                Expr::If { cond, then_, else_ } => {
                    let c = Self::word_as_bool(self.atom_value(&env, &cond)?, "if condition")?;
                    if c {
                        *then_
                    } else {
                        *else_
                    }
                }
                Expr::TailCall { target, args } => {
                    let t = self.atom_value(&env, &target)?;
                    let a = self.atom_values(&env, &args)?;
                    return Ok(Transfer::Call { target: t, args: a });
                }
                Expr::Halt { value } => {
                    let v = Self::word_as_int(self.atom_value(&env, &value)?, "halt value")?;
                    return Ok(Transfer::Halt(v));
                }
                Expr::Migrate {
                    label,
                    target,
                    fun,
                    args,
                } => {
                    let t = self.atom_value(&env, &target)?;
                    let target_str = self.word_as_str(t, "migrate target")?;
                    let f = self.atom_value(&env, &fun)?;
                    let a = self.atom_values(&env, &args)?;
                    return Ok(Transfer::Migrate {
                        label: label.0,
                        target: target_str,
                        fun: f,
                        args: a,
                    });
                }
                Expr::Speculate { fun, args } => {
                    let f = self.atom_value(&env, &fun)?;
                    let a = self.atom_values(&env, &args)?;
                    return Ok(Transfer::Speculate { fun: f, args: a });
                }
                Expr::Commit { level, fun, args } => {
                    let l = Self::word_as_int(self.atom_value(&env, &level)?, "commit level")?;
                    let f = self.atom_value(&env, &fun)?;
                    let a = self.atom_values(&env, &args)?;
                    return Ok(Transfer::Commit {
                        level: l,
                        fun: f,
                        args: a,
                    });
                }
                Expr::Rollback { level, code } => {
                    let l = Self::word_as_int(self.atom_value(&env, &level)?, "rollback level")?;
                    let c = Self::word_as_int(self.atom_value(&env, &code)?, "rollback code")?;
                    return Ok(Transfer::Rollback { level: l, code: c });
                }
            };
        }
    }

    fn collect_if_needed(&mut self, env: &HashMap<VarId, Word>) {
        if self.heap.gc_due().is_some() {
            let live: Vec<Word> = env.values().copied().collect();
            self.collect_if_due(&live);
        }
    }

    // ------------------------------------------------------------------
    // The bytecode VM backend
    // ------------------------------------------------------------------

    /// Call `target` and execute bytecode — tail calls included — until an
    /// effect only [`Process::run_loop`] can perform.
    fn vm_run(&mut self, target: Word, args: Vec<Word>) -> Result<Transfer, RuntimeError> {
        let bytecode = Arc::clone(self.bytecode.as_ref().ok_or_else(|| {
            RuntimeError::MigrationRejected(
                "bytecode backend selected but no compiled code present".into(),
            )
        })?);
        let (mut regs, mut staged) = (take(&mut self.vm_regs), take(&mut self.vm_args));
        // Fuel is the number of instructions that may still start, plus one:
        // the instruction that takes it to zero is the budget overrun, and
        // counts as a step like every other.
        let full = self.config.step_budget.map_or(u64::MAX, |budget| {
            budget.saturating_sub(self.stats.steps).saturating_add(1)
        });
        let mut fuel = full;
        let result = self.stage_callee(target, &mut staged).and_then(|fun| {
            staged.extend(args);
            self.vm_loop(&bytecode, fun, &mut regs, &mut staged, &mut fuel)
        });
        (self.vm_regs, self.vm_args) = (regs, staged);
        self.stats.steps += full - fuel;
        result
    }

    /// The VM proper: runs the execution form ([`Executable`]).  Relies on
    /// [`BytecodeProgram::verify`]: register operands and jump targets are in
    /// range and code cannot fall off its end.  What only the running
    /// program decides — the callee behind a word, the arity it is called
    /// with — is checked at each call.
    ///
    /// A fused op stands for two instructions and charges both steps.  When
    /// the budget has fuel for only the first, it runs just that one and
    /// goes on at pc + 1, where the op of the second still sits and is the
    /// overrun — exactly where the two instructions would have stopped.
    fn vm_loop(
        &mut self,
        exe: &Executable,
        mut fun_id: u32,
        regs: &mut Vec<Word>,
        staged: &mut Vec<Word>,
        fuel: &mut u64,
    ) -> Result<Transfer, RuntimeError> {
        let gather = |file: &[Word], rs: &[Reg]| -> Vec<Word> {
            rs.iter().map(|r| file[*r as usize]).collect()
        };
        if regs.len() < exe.file_len() {
            regs.resize(exe.file_len(), Word::Unit);
        }
        'call: loop {
            let Some((fun, exec)) = exe.fun(fun_id) else {
                return Err(RuntimeError::UnknownFunction(fun_id));
            };
            let nparams = fun.nparams as usize;
            Self::check_arity(fun_id, "vm call", nparams, staged.len())?;
            // A call writes the arguments and resets the registers on the
            // function's reset list; the rest stay stale, and nothing reads
            // or scans them before writing them (`exec.rs`).  The file is
            // `regs[..nregs]` (>= the arity, by verification) and is the GC
            // root set.
            let file = &mut regs[..fun.nregs as usize];
            file[..nparams].copy_from_slice(staged);
            Self::enter(file, nparams, &exec.reset);
            let (code, ops, consts) = (fun.code.as_slice(), &*exec.ops, &*exec.consts);
            let mut pc = 0usize;
            // The second half of a fused op: charge its step and move past
            // it, or, when the budget cannot cover it, stop before it.
            macro_rules! second_half {
                () => {
                    if *fuel == 1 {
                        continue;
                    }
                    *fuel -= 1;
                    pc += 1;
                };
            }
            loop {
                *fuel -= 1;
                if *fuel == 0 {
                    let budget = self.config.step_budget.unwrap_or(u64::MAX);
                    return Err(RuntimeError::StepBudgetExhausted { budget });
                }
                let at = pc;
                pc += 1;
                match ops[at] {
                    Op::Const { dst } => file[dst as usize] = consts[at],
                    Op::Move { dst, src } => file[dst as usize] = file[src as usize],
                    Op::Binop { dst, op, lhs, rhs } => {
                        file[dst as usize] =
                            self.eval_binop(op, file[lhs as usize], file[rhs as usize])?
                    }
                    Op::Load { dst, ptr, index } => self.vm_load(file, dst, ptr, index)?,
                    Op::Store { ptr, index, value } => self.vm_store(file, ptr, index, value)?,
                    Op::JumpIfFalse { cond, target } => {
                        if !Self::word_as_bool(file[cond as usize], "branch condition")? {
                            pc = target;
                        }
                    }
                    Op::Jump { target } => pc = target,
                    Op::ConstLoad {
                        konst,
                        dst,
                        ptr,
                        index,
                    } => {
                        file[konst as usize] = consts[at];
                        second_half!();
                        self.vm_load(file, dst, ptr, index)?
                    }
                    Op::ConstStore {
                        konst,
                        ptr,
                        index,
                        value,
                    } => {
                        file[konst as usize] = consts[at];
                        second_half!();
                        self.vm_store(file, ptr, index, value)?
                    }
                    Op::ConstBinop {
                        konst,
                        dst,
                        op,
                        lhs,
                        rhs,
                    } => {
                        file[konst as usize] = consts[at];
                        second_half!();
                        file[dst as usize] =
                            self.eval_binop(op, file[lhs as usize], file[rhs as usize])?
                    }
                    Op::CompareBranch {
                        dst,
                        op,
                        lhs,
                        rhs,
                        target,
                    } => {
                        let cond = self.eval_binop(op, file[lhs as usize], file[rhs as usize])?;
                        file[dst as usize] = cond;
                        second_half!();
                        if !Self::word_as_bool(cond, "branch condition")? {
                            pc = target;
                        }
                    }
                    Op::Recur => {
                        Self::enter(file, nparams, &exec.reset);
                        pc = 0;
                    }
                    Op::Instr => match &code[at] {
                        Instr::Const {
                            dst,
                            value: Const::Str(s),
                        } => {
                            Self::no_stale_roots(file);
                            file[*dst as usize] = Word::Ptr(self.heap.alloc_str(s)?)
                        }
                        Instr::FunRef { dst, fun } => file[*dst as usize] = Word::Fun(*fun),
                        Instr::Unop { dst, op, src } => {
                            file[*dst as usize] = self.eval_unop(*op, file[*src as usize])?
                        }
                        Instr::Alloc { dst, len, init } => {
                            let len = Self::word_as_int(file[*len as usize], "alloc length")?;
                            let init = file[*init as usize];
                            self.collect_if_due(file);
                            file[*dst as usize] = Word::Ptr(self.heap.alloc_array(len, init)?);
                        }
                        Instr::AllocRaw { dst, size } => {
                            let size = Self::word_as_int(file[*size as usize], "raw alloc size")?;
                            self.collect_if_due(file);
                            file[*dst as usize] = Word::Ptr(self.heap.alloc_raw(size)?);
                        }
                        Instr::Tuple { dst, args } => {
                            let words = gather(file, args);
                            self.collect_if_due(file);
                            file[*dst as usize] = Word::Ptr(self.heap.alloc_tuple(words)?);
                        }
                        Instr::Closure { dst, fun, captured } => {
                            let words = gather(file, captured);
                            self.collect_if_due(file);
                            file[*dst as usize] = Word::Ptr(self.heap.alloc_closure(*fun, words)?);
                        }
                        Instr::LoadRaw {
                            dst,
                            width,
                            ptr,
                            offset,
                        } => {
                            let p = Self::word_as_ptr(file[*ptr as usize], "raw load pointer")?;
                            let o = Self::word_as_int(file[*offset as usize], "raw load offset")?;
                            file[*dst as usize] = Word::Int(self.heap.load_raw(p, o, *width)?);
                        }
                        Instr::StoreRaw {
                            width,
                            ptr,
                            offset,
                            value,
                        } => {
                            let p = Self::word_as_ptr(file[*ptr as usize], "raw store pointer")?;
                            let o = Self::word_as_int(file[*offset as usize], "raw store offset")?;
                            let v = Self::word_as_int(file[*value as usize], "raw store value")?;
                            self.heap.store_raw(p, o, *width, v)?;
                        }
                        Instr::Len { dst, ptr } => {
                            let p = Self::word_as_ptr(file[*ptr as usize], "length pointer")?;
                            file[*dst as usize] = Word::Int(self.heap.block_len(p)? as i64);
                        }
                        Instr::Ext { dst, name, args } => {
                            Self::no_stale_roots(file);
                            staged.clear();
                            staged.extend(args.iter().map(|r| file[*r as usize]));
                            file[*dst as usize] = self.call_extern(name, staged)?;
                        }
                        // Arguments are staged from the old registers before
                        // the next iteration of `'call` overwrites any of them.
                        Instr::TailCall { target, args } => {
                            fun_id = self.stage_callee(file[*target as usize], staged)?;
                            staged.extend(args.iter().map(|r| file[*r as usize]));
                            continue 'call;
                        }
                        Instr::TailCallDirect { fun, args } => {
                            fun_id = *fun;
                            staged.clear();
                            staged.extend(args.iter().map(|r| file[*r as usize]));
                            continue 'call;
                        }
                        Instr::Halt { value } => {
                            let v = Self::word_as_int(file[*value as usize], "halt value")?;
                            return Ok(Transfer::Halt(v));
                        }
                        Instr::Migrate {
                            label,
                            target,
                            fun,
                            args,
                        } => {
                            Self::no_stale_roots(file);
                            return Ok(Transfer::Migrate {
                                label: *label,
                                target: self
                                    .word_as_str(file[*target as usize], "migrate target")?,
                                fun: file[*fun as usize],
                                args: gather(file, args),
                            });
                        }
                        Instr::Speculate { fun, args } => {
                            Self::no_stale_roots(file);
                            return Ok(Transfer::Speculate {
                                fun: file[*fun as usize],
                                args: gather(file, args),
                            });
                        }
                        Instr::Commit { level, fun, args } => {
                            Self::no_stale_roots(file);
                            return Ok(Transfer::Commit {
                                level: Self::word_as_int(file[*level as usize], "commit level")?,
                                fun: file[*fun as usize],
                                args: gather(file, args),
                            });
                        }
                        Instr::Rollback { level, code } => {
                            Self::no_stale_roots(file);
                            return Ok(Transfer::Rollback {
                                level: Self::word_as_int(file[*level as usize], "rollback level")?,
                                code: Self::word_as_int(file[*code as usize], "rollback code")?,
                            });
                        }
                        Instr::Const { .. }
                        | Instr::Move { .. }
                        | Instr::Binop { .. }
                        | Instr::Load { .. }
                        | Instr::Store { .. }
                        | Instr::JumpIfFalse { .. }
                        | Instr::Jump { .. } => unreachable!("lowered to an op of its own"),
                    },
                }
            }
        }
    }

    /// Enter a function whose arguments are in `file[..nparams]`: `Unit`
    /// into every register on its reset list.  In poison mode
    /// (`debug_assertions`) every other register is first filled with
    /// [`STALE`], which [`Process::no_stale_roots`] and any read would
    /// catch.
    #[inline(always)]
    fn enter(file: &mut [Word], nparams: usize, reset: &[Reg]) {
        if cfg!(debug_assertions) {
            file[nparams..].fill(STALE);
        }
        for &r in reset {
            file[r as usize] = Word::Unit;
        }
    }

    /// At a collection point, where the whole file is the root set: in
    /// poison mode, assert that the reset list left no stale register.
    #[inline(always)]
    fn no_stale_roots(file: &[Word]) {
        debug_assert!(
            !file.contains(&STALE),
            "a stale register reaches a collection point"
        );
    }

    /// A `Load`, plain or the second half of a fused op.
    #[inline(always)]
    fn vm_load(
        &self,
        file: &mut [Word],
        dst: Reg,
        ptr: Reg,
        index: Reg,
    ) -> Result<(), RuntimeError> {
        let p = Self::word_as_ptr(file[ptr as usize], "load pointer")?;
        let i = Self::word_as_int(file[index as usize], "load index")?;
        self.heap.load_into(p, i, &mut file[dst as usize])?;
        Ok(())
    }

    /// A `Store`, plain or the second half of a fused op.
    #[inline(always)]
    fn vm_store(
        &mut self,
        file: &[Word],
        ptr: Reg,
        index: Reg,
        value: Reg,
    ) -> Result<(), RuntimeError> {
        let p = Self::word_as_ptr(file[ptr as usize], "store pointer")?;
        let i = Self::word_as_int(file[index as usize], "store index")?;
        self.heap.store(p, i, file[value as usize])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BcFun;
    use mojave_fir::builder::{term, ProgramBuilder};
    use mojave_fir::Ty;

    /// Run hand-written `code` on the bytecode VM as the resumed
    /// continuation `after(r0 = 123)` — function 0, one register per
    /// instruction besides, its `migrate_env` block at pointer 0 as in an
    /// unpacked image — with `step_budget`: the outcome and the steps taken.
    fn run_as_continuation(
        code: Vec<Instr>,
        step_budget: Option<u64>,
    ) -> (Result<RunOutcome, RuntimeError>, u64) {
        let mut pb = ProgramBuilder::new();
        let (after, params) = pb.declare("after", &[("x", Ty::Int)]);
        pb.define(after, term::halt(params[0]));
        let (main, _) = pb.declare("main", &[]);
        pb.define(main, term::halt(0));
        pb.set_entry(main);
        let config = ProcessConfig {
            step_budget,
            ..ProcessConfig::default()
        };
        let mut p = Process::new(pb.finish(), config).expect("the program verifies");
        let bytecode = BytecodeProgram {
            funs: vec![BcFun {
                name: "after".into(),
                nregs: 1 + code.len() as u32,
                nparams: 1,
                code,
            }],
            entry: 0,
        };
        bytecode.verify().expect("the code verifies");
        p.bytecode = Some(Arc::new(Executable::new(bytecode)));
        let args = vec![Word::Int(123)];
        p.heap.alloc_migrate_env(args.clone()).unwrap();
        p.pending = Some((Word::Fun(0), args));
        let outcome = p.run();
        (outcome, p.stats().steps)
    }

    /// Hand-written code of shapes the compiler never emits, around the
    /// instruction pairs the VM runs fused (a scalar `Const` feeding the next
    /// `Load`, `Store` or `Binop`; a comparison feeding the next
    /// `JumpIfFalse`).  Each runs as the resumed continuation, `r0 = 123`,
    /// and must end with the hand-computed outcome and step count.
    #[test]
    fn hand_written_bytecode_around_fusible_pairs() {
        use mojave_heap::HeapError;
        use Instr::{Alloc, Halt, Jump, JumpIfFalse, Load, Store};

        let int = |dst, v| Instr::Const {
            dst,
            value: Const::Int(v),
        };
        let binop = |dst, op, lhs, rhs| Instr::Binop { dst, op, lhs, rhs };
        let exhausted = |budget| Err(RuntimeError::StepBudgetExhausted { budget });
        let mismatch = RuntimeError::KindMismatch {
            expected: "matching numeric operands",
            found: "mismatched operands",
            context: "binary operator",
        };
        // Three pairs back to back: `Const`-`Add` (124), compare-and-branch
        // (123 < 124, so the branch falls through), `Const`-`Sub` (200 - 124).
        let pairs = || {
            vec![
                int(1, 1),
                binop(2, Binop::Add, 0, 1),
                binop(3, Binop::Lt, 0, 2),
                JumpIfFalse { cond: 3, target: 6 },
                int(4, 200),
                binop(5, Binop::Sub, 4, 2),
                Halt { value: 5 },
            ]
        };
        type Expected = (Result<RunOutcome, RuntimeError>, u64);
        let cases: Vec<(&str, Vec<Instr>, Option<u64>, Expected)> = vec![
            (
                "a jump into the second half of a Const-Binop pair",
                vec![
                    int(2, 5),
                    Jump { target: 3 },
                    int(2, 1000),
                    binop(3, Binop::Add, 0, 2),
                    Halt { value: 3 },
                ],
                None,
                (Ok(RunOutcome::Exit(128)), 4),
            ),
            (
                "a jump into the branch of a compare-and-branch pair",
                vec![
                    int(1, 7),
                    Jump { target: 3 },
                    binop(2, Binop::Lt, 0, 1),
                    JumpIfFalse { cond: 2, target: 0 },
                    Halt { value: 0 },
                ],
                None,
                (
                    Err(RuntimeError::KindMismatch {
                        expected: "bool",
                        found: "unit",
                        context: "branch condition",
                    }),
                    3,
                ),
            ),
            (
                "a fused Const register read again later",
                vec![
                    int(1, 10),
                    binop(2, Binop::Mul, 0, 1),
                    binop(3, Binop::Add, 2, 1),
                    int(4, 0),
                    Store {
                        ptr: 5,
                        index: 4,
                        value: 1,
                    },
                    Halt { value: 3 },
                ],
                None,
                // r5 is still `Unit`: the store traps after both halves ran.
                (
                    Err(RuntimeError::KindMismatch {
                        expected: "ptr",
                        found: "unit",
                        context: "store pointer",
                    }),
                    5,
                ),
            ),
            (
                "a fused Const register read again by the next instruction",
                vec![
                    int(1, 10),
                    binop(2, Binop::Mul, 0, 1),
                    binop(3, Binop::Add, 2, 1),
                    Halt { value: 3 },
                ],
                None,
                (Ok(RunOutcome::Exit(1240)), 4),
            ),
            (
                "Const dst equal to the Binop's dst",
                vec![int(1, 1), binop(1, Binop::Sub, 0, 1), Halt { value: 1 }],
                None,
                (Ok(RunOutcome::Exit(122)), 3),
            ),
            (
                "Const dst equal to the Load's dst, and a Store's index and value",
                vec![
                    int(1, 3),
                    Alloc {
                        dst: 2,
                        len: 1,
                        init: 0,
                    },
                    int(3, 2),
                    Store {
                        ptr: 2,
                        index: 3,
                        value: 3,
                    },
                    int(3, 2),
                    Load {
                        dst: 3,
                        ptr: 2,
                        index: 3,
                    },
                    binop(4, Binop::Add, 3, 1),
                    Halt { value: 4 },
                ],
                None,
                (Ok(RunOutcome::Exit(5)), 8),
            ),
            (
                "a Const-Load pair whose Load traps",
                vec![
                    int(1, 1),
                    Alloc {
                        dst: 2,
                        len: 1,
                        init: 0,
                    },
                    int(3, 1),
                    Load {
                        dst: 4,
                        ptr: 2,
                        index: 3,
                    },
                    Halt { value: 4 },
                ],
                None,
                (
                    Err(RuntimeError::Heap(HeapError::OutOfBounds {
                        ptr: mojave_heap::PtrIdx(1),
                        index: 1,
                        len: 1,
                    })),
                    4,
                ),
            ),
            (
                "a Const-Binop pair whose Binop traps",
                vec![
                    Instr::Const {
                        dst: 1,
                        value: Const::Bool(true),
                    },
                    binop(2, Binop::Lt, 0, 1),
                    JumpIfFalse { cond: 2, target: 3 },
                    Halt { value: 0 },
                ],
                None,
                (Err(mismatch.clone()), 2),
            ),
            (
                "a compare-and-branch pair whose comparison traps",
                vec![
                    Instr::Const {
                        dst: 1,
                        value: Const::Bool(true),
                    },
                    Instr::Move { dst: 2, src: 1 },
                    binop(3, Binop::Lt, 0, 2),
                    JumpIfFalse { cond: 3, target: 4 },
                    Halt { value: 0 },
                ],
                None,
                (Err(mismatch), 3),
            ),
            (
                "the pairs, unbudgeted",
                pairs(),
                None,
                (Ok(RunOutcome::Exit(76)), 7),
            ),
            ("a budget of 1", pairs(), Some(1), (exhausted(1), 2)),
            ("a budget of 2", pairs(), Some(2), (exhausted(2), 3)),
            ("a budget of 3", pairs(), Some(3), (exhausted(3), 4)),
            ("a budget of 4", pairs(), Some(4), (exhausted(4), 5)),
            ("a budget of 5", pairs(), Some(5), (exhausted(5), 6)),
            ("a budget of 6", pairs(), Some(6), (exhausted(6), 7)),
            (
                "a budget of 7",
                pairs(),
                Some(7),
                (Ok(RunOutcome::Exit(76)), 7),
            ),
        ];
        for (name, code, step_budget, expected) in cases {
            assert_eq!(run_as_continuation(code, step_budget), expected, "{name}");
        }
    }

    /// Hand-written code around repeated loads: a load of the same pointer
    /// register and constant index as an earlier one, with and without a
    /// store, allocation, external call, jump target or rewrite of either
    /// register in between.  The VM loads every word it is asked to (repeated
    /// frame loads are removed in the FIR, by `mojave_fir::optimize`), and
    /// these cases pin that nothing in the execution form reuses a stale
    /// word.  Each case runs as the resumed continuation (`r0 = 123`); the
    /// ones where a reused word would be wrong read a different word (or trap)
    /// instead.  The step budget of 1000 turns a wrong copy that loops into a
    /// quick failure.
    #[test]
    fn hand_written_bytecode_around_forwarded_loads() {
        use mojave_heap::{HeapError, PtrIdx};
        use Instr::{Alloc, Halt, Jump, JumpIfFalse, Load, Move, Store};

        let int = |dst, v| Instr::Const {
            dst,
            value: Const::Int(v),
        };
        let binop = |dst, op, lhs, rhs| Instr::Binop { dst, op, lhs, rhs };
        let load = |dst, ptr, index| Load { dst, ptr, index };
        // r2 = a two-word block of 123s.
        let block = || {
            vec![
                int(1, 2),
                Alloc {
                    dst: 2,
                    len: 1,
                    init: 0,
                },
            ]
        };
        // r2 = [123, 1].
        let stored = || {
            let mut code = block();
            code.extend([
                int(3, 1),
                Store {
                    ptr: 2,
                    index: 3,
                    value: 3,
                },
            ]);
            code
        };
        let with = |mut prefix: Vec<Instr>, rest: Vec<Instr>| {
            prefix.extend(rest);
            prefix
        };
        let exit = |v| Ok(RunOutcome::Exit(v));
        type Expected = (Result<RunOutcome, RuntimeError>, u64);
        let cases: Vec<(&str, Vec<Instr>, Expected)> = vec![
            (
                "a forwarded load",
                with(
                    stored(),
                    vec![
                        int(4, 1),
                        load(5, 2, 4),
                        int(6, 1),
                        load(7, 2, 6),
                        binop(8, Binop::Add, 5, 7),
                        binop(9, Binop::Add, 8, 0),
                        Halt { value: 9 },
                    ],
                ),
                (exit(125), 11),
            ),
            (
                "after a Store through another register to the same block",
                with(
                    block(),
                    vec![
                        Move { dst: 3, src: 2 },
                        int(4, 1),
                        load(5, 2, 4),
                        int(6, 7),
                        Store {
                            ptr: 3,
                            index: 4,
                            value: 6,
                        },
                        int(7, 1),
                        load(8, 2, 7),
                        binop(9, Binop::Add, 5, 8),
                        Halt { value: 9 },
                    ],
                ),
                (exit(130), 11),
            ),
            (
                "after an Ext that rewrites the earlier value register",
                with(
                    block(),
                    vec![
                        int(3, 0),
                        load(4, 2, 3),
                        Instr::Ext {
                            dst: 4,
                            name: "node_id".into(),
                            args: vec![],
                        },
                        int(5, 0),
                        load(6, 2, 5),
                        binop(7, Binop::Add, 4, 6),
                        Halt { value: 7 },
                    ],
                ),
                (exit(123), 9),
            ),
            (
                "a lone load at a jump target",
                with(
                    stored(),
                    vec![
                        int(4, 0),
                        load(5, 2, 4),
                        // pc 6: entered again from pc 11 with r4 = 1.
                        load(6, 2, 4),
                        binop(7, Binop::Lt, 6, 0),
                        JumpIfFalse {
                            cond: 7,
                            target: 10,
                        },
                        Halt { value: 6 },
                        int(4, 1),
                        Jump { target: 6 },
                    ],
                ),
                (exit(1), 15),
            ),
            (
                "a jump into the second half of a would-be ConstMove",
                with(
                    block(),
                    vec![
                        int(4, 0),
                        load(5, 2, 4),
                        int(6, 0),
                        // pc 5: entered again from pc 10 with r6 = 2, out of bounds.
                        load(7, 2, 6),
                        binop(8, Binop::Lt, 7, 0),
                        JumpIfFalse { cond: 8, target: 9 },
                        Halt { value: 7 },
                        int(6, 2),
                        Jump { target: 5 },
                    ],
                ),
                (
                    Err(RuntimeError::Heap(HeapError::OutOfBounds {
                        ptr: PtrIdx(1),
                        index: 2,
                        len: 2,
                    })),
                    11,
                ),
            ),
            (
                "after the pointer register is rewritten",
                with(
                    block(),
                    vec![
                        Alloc {
                            dst: 3,
                            len: 1,
                            init: 1,
                        },
                        int(4, 0),
                        load(5, 2, 4),
                        Move { dst: 2, src: 3 },
                        int(6, 0),
                        load(7, 2, 6),
                        Halt { value: 7 },
                    ],
                ),
                (exit(2), 9),
            ),
            (
                "after the earlier value register is rewritten",
                with(
                    block(),
                    vec![
                        int(3, 0),
                        load(4, 2, 3),
                        binop(4, Binop::Add, 4, 1),
                        int(5, 0),
                        load(6, 2, 5),
                        binop(7, Binop::Sub, 4, 6),
                        Halt { value: 7 },
                    ],
                ),
                (exit(2), 9),
            ),
            (
                "after the index register is reloaded with a different Const",
                with(
                    stored(),
                    vec![
                        int(4, 0),
                        load(5, 2, 4),
                        int(4, 1),
                        load(6, 2, 4),
                        Halt { value: 6 },
                    ],
                ),
                (exit(1), 9),
            ),
        ];
        for (name, code, expected) in cases {
            assert_eq!(run_as_continuation(code, Some(1000)), expected, "{name}");
        }

        // Two back-to-back ConstMove pairs after a ConstLoad: every budget
        // stops where the instruction stream would have.
        let pairs = with(
            block(),
            vec![
                int(3, 0),
                load(4, 2, 3),
                int(5, 0),
                load(6, 2, 5),
                int(7, 0),
                load(8, 2, 7),
                binop(9, Binop::Add, 6, 8),
                Halt { value: 9 },
            ],
        );
        assert_eq!(run_as_continuation(pairs.clone(), None), (exit(246), 10));
        for budget in 1..=10 {
            let expected = match budget {
                10 => (exit(246), 10),
                _ => (
                    Err(RuntimeError::StepBudgetExhausted { budget }),
                    budget + 1,
                ),
            };
            let got = run_as_continuation(pairs.clone(), Some(budget));
            assert_eq!(got, expected, "a budget of {budget}");
        }
    }
}
