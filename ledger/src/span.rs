//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing in the program under test is instrumented: a span is opened by
//! the benchmark immediately before it calls a layer's public function and
//! closed when the call returns.  Where the call of interest happens deep
//! inside `Process::run` (an external call, a checkpoint delivery), the
//! benchmark hands the process a [`Spanned`] wrapper around the real
//! externals or sink, which forwards **every** trait method and records a
//! span per call.
//!
//! Spans live in one in-memory `Vec` and are written out after the run.

use mojave_core::{
    DeliveryOutcome, ExtCall, Externals, MigrationImage, MigrationSink, PipelineStats,
    RuntimeError, SnapshotPack,
};
use mojave_fir::MigrateProtocol;
use mojave_heap::{Heap, Word};
use mojave_wire::CodecSet;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the crate the called function lives in.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while the span is open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The op this span belongs to: spans of one op share it.
    pub op: u32,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<Option<SpanId>> = const { Cell::new(None) };
}

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    op: AtomicU32,
}

/// The span recorder.  Clones share one span list.
#[derive(Debug, Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                op: AtomicU32::new(0),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&self, op: u32) {
        self.shared.op.store(op, Ordering::Relaxed);
    }

    /// The innermost span open on the calling thread.
    pub fn current() -> Option<SpanId> {
        CURRENT.with(Cell::get)
    }

    /// Make `parent` the calling thread's innermost span: a freshly spawned
    /// thread calls this with the spawner's [`Tracer::current`], so its spans
    /// name the span that caused them.
    pub fn adopt(parent: Option<SpanId>) {
        CURRENT.with(|c| c.set(parent));
    }

    /// Open a span under the calling thread's innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_under(Tracer::current(), name)
    }

    /// Open a span under an explicit parent (for work a span on another
    /// thread caused).
    pub fn span_under(&self, parent: Option<SpanId>, name: &'static str) -> SpanGuard<'_> {
        let op = self.shared.op.load(Ordering::Relaxed);
        let mut spans = self.shared.spans.lock().expect("span list lock");
        let id = spans.len() as SpanId;
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        drop(spans);
        let previous = CURRENT.with(|c| c.replace(Some(id)));
        SpanGuard {
            tracer: self,
            id,
            previous,
        }
    }

    /// Every span recorded so far (open spans have `end_ns == 0`).
    pub fn spans(&self) -> Vec<Span> {
        self.shared.spans.lock().expect("span list lock").clone()
    }
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    previous: Option<SpanId>,
}

impl SpanGuard<'_> {
    /// This span's id (to parent work it causes on another thread).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.shared.spans.lock() {
            spans[self.id as usize].end_ns = end;
        }
        CURRENT.with(|c| c.set(self.previous));
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// that its child spans cover (children on other threads may overlap each
/// other or outlive the parent; only the covered part of the parent's own
/// interval is subtracted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            span.duration_ns()
                .saturating_sub(covered_ns(intervals, None).0)
        })
        .collect()
}

/// Total length of the union of `intervals`, and — when `within` is given —
/// the largest gap of `within` the union leaves uncovered, as
/// `(gap_start, gap_end)`.
pub fn covered_ns(
    intervals: &mut [(u64, u64)],
    within: Option<(u64, u64)>,
) -> (u64, Option<(u64, u64)>) {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut gap: Option<(u64, u64)> = None;
    let mut note_gap = |from: u64, to: u64| {
        if to > from && gap.is_none_or(|(a, b)| to - from > b - a) {
            gap = Some((from, to));
        }
    };
    let mut cursor = within.map_or(0, |(start, _)| start);
    let mut open: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                open = Some((start, end));
            }
            None => open = Some((start, end)),
        }
        if within.is_some() && start > cursor {
            note_gap(cursor, start);
        }
        cursor = cursor.max(end);
    }
    if let Some((s, e)) = open {
        covered += e - s;
    }
    if let Some((_, end)) = within {
        note_gap(cursor, end);
    }
    (covered, gap)
}

/// Write spans as JSON lines: `{name, start_ns, end_ns, parent, op}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            span.name, span.start_ns, span.end_ns, span.op
        )?;
    }
    Ok(())
}

/// Hand-off of "which span submitted this checkpoint" from the mutator-side
/// sink wrapper to the wrapper around the sink the pipeline thread delivers
/// into, so the delivery names the submission that caused it.  The pipeline
/// is one FIFO worker, so submissions and deliveries pair up in order.
pub type Causes = Arc<Mutex<VecDeque<SpanId>>>;

/// A wrapper that records one span per call into the wrapped externals or
/// sink and forwards every trait method unchanged.
#[derive(Debug)]
pub struct Spanned<T> {
    inner: T,
    tracer: Tracer,
    /// Span name for `Externals::call` / `MigrationSink::deliver`.
    name: &'static str,
    /// Deferred submissions push their span here …
    submits: Option<Causes>,
    /// … and the wrapper on the far side of the pipeline pops them.
    caused_by: Option<Causes>,
    /// The last answer `pipeline_stats` forwarded.
    pipeline: Arc<Mutex<Option<PipelineStats>>>,
}

impl<T> Spanned<T> {
    /// Wrap `inner`; its main call is recorded as `name`.
    pub fn new(inner: T, tracer: &Tracer, name: &'static str) -> Spanned<T> {
        Spanned {
            inner,
            tracer: tracer.clone(),
            name,
            submits: None,
            caused_by: None,
            pipeline: Arc::default(),
        }
    }

    /// Where the wrapper keeps the last pipeline counters it forwarded.
    /// `Process::run` asks its sink for them after the final flush, and the
    /// process owns the sink, so this is how the benchmark reads them.
    pub fn pipeline_stats_slot(&self) -> Arc<Mutex<Option<PipelineStats>>> {
        Arc::clone(&self.pipeline)
    }

    /// The mutator-side wrapper of an asynchronous sink: every deferred
    /// submission's span id is queued on `causes`.
    pub fn submitting_to(mut self, causes: &Causes) -> Spanned<T> {
        self.submits = Some(Arc::clone(causes));
        self
    }

    /// The pipeline-side wrapper: each delivery is parented to the next
    /// queued submission span.
    pub fn caused_by(mut self, causes: &Causes) -> Spanned<T> {
        self.caused_by = Some(Arc::clone(causes));
        self
    }
}

impl<E: Externals> Externals for Spanned<E> {
    fn call(&mut self, call: ExtCall<'_>, heap: &mut Heap) -> Result<Word, RuntimeError> {
        // Receives are named apart: time inside them is waiting for a peer,
        // not work done by the cluster layer.
        let name = if call.name == "msg_recv" {
            "cluster.msg_recv"
        } else {
            self.name
        };
        let _span = self.tracer.span(name);
        self.inner.call(call, heap)
    }

    fn roots(&self) -> Vec<Word> {
        self.inner.roots()
    }

    fn output(&self) -> &[String] {
        self.inner.output()
    }
}

impl<S: MigrationSink> MigrationSink for Spanned<S> {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        let cause = self
            .caused_by
            .as_ref()
            .and_then(|q| q.lock().expect("cause queue lock").pop_front());
        let _span = match cause {
            Some(submit) => self.tracer.span_under(Some(submit), self.name),
            None => self.tracer.span(self.name),
        };
        self.inner.deliver(protocol, target, image)
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        let _span = self.tracer.span("sink.has_base");
        self.inner.has_base(base, base_fingerprint)
    }

    fn accepted_codecs(&self) -> CodecSet {
        self.inner.accepted_codecs()
    }

    fn deliver_deferred(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        pack: SnapshotPack,
    ) -> DeliveryOutcome {
        let span = self.tracer.span("runtime.submit");
        if let Some(queue) = &self.submits {
            queue.lock().expect("cause queue lock").push_back(span.id());
        }
        self.inner.deliver_deferred(protocol, target, pack)
    }

    fn flush(&mut self) {
        let _span = self.tracer.span("runtime.flush");
        self.inner.flush();
    }

    fn pipeline_stats(&self) -> Option<PipelineStats> {
        let stats = self.inner.pipeline_stats();
        *self.pipeline.lock().expect("stats slot lock") = stats;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mojave_core::{CheckpointStore, InMemorySink, Process, ProcessConfig, RunOutcome};

    fn checkpointing_process(sink: Box<dyn MigrationSink>) -> Process {
        let program = mojave_lang::compile_source(
            r#"int main() {
                int[] a = alloc_int(512);
                for (int i = 0; i < 512; i = i + 1) { a[i] = i * 7919; }
                checkpoint("one");
                a[3] = 1;
                checkpoint("two");
                return a[3] + a[5];
            }"#,
        )
        .expect("compiles");
        let config = ProcessConfig {
            delta_checkpoints: true,
            ..ProcessConfig::default()
        };
        Process::new(program, config)
            .expect("verifies")
            .with_sink(sink)
    }

    /// A wrapper that fell back to the trait's default `accepted_codecs`
    /// (raw only) or `has_base` (false) would silently downgrade images to
    /// the batched v4 layout, or turn deltas into full images, and the
    /// traced pass would measure a different program.
    #[test]
    fn wrapped_sink_stores_byte_identical_images() {
        let plain_store = CheckpointStore::new();
        let mut plain =
            checkpointing_process(Box::new(InMemorySink::with_store(plain_store.clone())));
        let wrapped_store = CheckpointStore::new();
        let tracer = Tracer::new();
        let mut wrapped = checkpointing_process(Box::new(Spanned::new(
            InMemorySink::with_store(wrapped_store.clone()),
            &tracer,
            "core.deliver",
        )));
        assert_eq!(plain.run().unwrap(), RunOutcome::Exit(1 + 5 * 7919));
        assert_eq!(wrapped.run().unwrap(), RunOutcome::Exit(1 + 5 * 7919));
        assert_eq!(plain_store.names(), wrapped_store.names());
        for name in plain_store.names() {
            assert_eq!(plain_store.get(&name), wrapped_store.get(&name), "{name}");
        }
        // The second checkpoint really is a delta in both, i.e. `has_base`
        // was forwarded too.
        assert!(wrapped_store.load_raw("two").unwrap().heap_image.is_delta());
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "core.deliver",
                "sink.has_base",
                "core.deliver",
                "runtime.flush"
            ]
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (another thread) and outlives the parent.
            span("b", 30, 120, Some(0)),
            span("c", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), [10, 22, 90, 8]);
        let mut direct = vec![(10, 40), (60, 70)];
        let (covered, gap) = covered_ns(&mut direct, Some((0, 100)));
        assert_eq!(covered, 40);
        assert_eq!(gap, Some((70, 100)));
    }
}
