//! # mojave-obs
//!
//! The observability layer: a **flight recorder** (fixed-capacity ring
//! buffer of typed runtime events), a **metrics registry** (counters and
//! power-of-two-bucket histograms) and **exporters** (human text and
//! Chrome trace-event JSON).
//!
//! The crate is deliberately dependency-free and knows nothing about
//! heaps, processes or clusters — the runtime layers push events and
//! samples *into* it.  Three design rules shape everything here:
//!
//! 1. **The disabled path is one branch.**  A [`Recorder`] is always
//!    present (every `Heap` and `Process` carries one), so recording has
//!    to be free when tracing is off: [`Recorder::record`] loads one
//!    atomic and returns.  No allocation, no clock read, no lock.
//!
//! 2. **Deterministic traces.**  Timestamps come from a pluggable
//!    [`ClockSource`].  Real runs use [`WallClock`]; deterministic
//!    cluster runs plug in the node's seeded virtual clock, so the whole
//!    event stream — timestamps included — is a pure function of the
//!    seed and two runs export byte-identical traces.  Event payload
//!    arguments carry only replay-deterministic values (sizes, counts,
//!    levels, outcome codes), never wall-clock durations.
//!
//! 3. **One export surface.**  The scattered per-layer stats structs
//!    (`HeapStats`, `ProcessStats`, `PipelineStats`, `NodeStats`) all
//!    fold into a [`MetricsRegistry`]; snapshots merge across nodes and
//!    export uniformly ([`MetricsSnapshot::to_text`], and
//!    [`export_chrome_trace`] for spans).
//!
//! ```
//! use mojave_obs::{EventKind, Level, Recorder, export_chrome_trace, validate_chrome_trace};
//!
//! let recorder = Recorder::new(0, Level::Trace);
//! recorder.record(EventKind::CheckpointBegin, 1, 0);
//! recorder.record(EventKind::Freeze, 64, 4096);
//! recorder.record(EventKind::CheckpointEnd, 1, 0);
//! let trace = export_chrome_trace(&recorder.events());
//! let summary = validate_chrome_trace(&trace).unwrap();
//! assert_eq!(summary.begins, summary.ends);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
mod export;
mod metrics;
mod recorder;
mod report;

pub use clock::{ClockSource, FixedClock, WallClock};
pub use event::{Event, EventKind};
pub use export::{export_chrome_trace, export_text, validate_chrome_trace, ChromeTraceSummary};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS};
pub use recorder::{Level, Recorder, DEFAULT_RING_CAPACITY};
pub use report::NodeObs;
