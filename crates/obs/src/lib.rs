//! Zero-dependency observability for the composition flow: structured
//! spans, typed counters/gauges, JSONL tracing, and per-stage summaries.
//!
//! The flow's headline claims are throughput claims (the paper's Table 2
//! reports per-design ILP runtimes; Fig. 5 sweeps window size against
//! solver cost), so every layer of this workspace reports where its time
//! and algorithmic work go:
//!
//! * [`Span`] — RAII-guarded, nested timing regions stamped by an
//!   injectable [`Clock`] (monotonic in binaries, [`MockClock`] in tests,
//!   preserving the hermetic-test story);
//! * [`Counter`] / [`Gauge`] — a closed, typed catalog of the flow's
//!   algorithmic work (simplex pivots, branch-and-bound nodes, incremental
//!   STA scope, legalizer probes, candidate-space sizes);
//! * [`ObsSink`] — where events go. The default is a no-op: with no sink
//!   installed the instrumentation reduces to a thread-local check, so the
//!   hot paths cost the same as before this crate existed;
//! * [`trace`] — a line-oriented JSONL emitter/parser/validator
//!   ([`JsonlSink`], [`parse_trace`], [`validate_trace`]) behind the
//!   `MBR_TRACE=<path>` convention;
//! * [`json`] — the workspace's one JSON parser and string escaper, under
//!   every JSON artifact reader and writer;
//! * [`summary`] / [`table`] — the shared human-readable reporting path
//!   (`--report` on the flow binaries);
//! * [`FlowStage`] / [`StageTimings`] — the span taxonomy of the
//!   composition flow and its per-stage wall-clock breakdown.
//!
//! Instrumented layers accumulate plain local integers in their hot loops
//! and *flush* them once per operation via [`counter`]; nothing dynamic
//! happens per node/pivot/probe.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use mbr_obs::{self as obs, Counter, MockClock, Recorder};
//!
//! let rec = Arc::new(Recorder::default());
//! obs::with_clock(Arc::new(MockClock::new(1_000)), || {
//!     obs::with_sink(rec.clone(), || {
//!         let span = obs::Span::enter("flow.compose");
//!         obs::counter(Counter::SimplexPivots, 42);
//!         drop(span);
//!     })
//! });
//! assert_eq!(rec.events().len(), 2);
//! ```

mod catalog;
mod clock;
mod flight;
pub mod hist;
pub mod json;
mod pass;
pub mod perfdiff;
pub mod profile;
mod sink;
mod span;
mod stage;
pub mod summary;
pub mod table;
mod task;
pub mod trace;

pub use catalog::{Counter, Gauge, Histogram};
pub use clock::{now_ns, with_clock, Clock, MockClock};
pub use flight::{dump_flight_recorder, FlightRecorder};
pub use hist::HistogramData;
pub use pass::{current_pass, with_pass};
pub use sink::{
    counter, flush_installed, gauge, histogram, install, installed, observe, with_sink,
    CounterTotals, ObsSink, Recorder, Tee,
};
pub use span::Span;
pub use stage::{FlowStage, StageTimings};
pub use task::{SpanHandle, TaskObs};
pub use trace::{
    parse_trace, to_jsonl, validate_trace, validate_trace_truncated, JsonlSink, TraceError,
    TraceEvent,
};

use std::sync::Arc;

/// What [`init_cli`] set up for a binary: the optional in-memory recorder
/// backing `--report` output. The JSONL sink (if `MBR_TRACE` was set) is
/// installed globally and reachable via [`flush_installed`].
pub struct CliObs {
    /// Recording sink for post-run summaries, present when requested.
    pub recorder: Option<Arc<Recorder>>,
}

impl CliObs {
    /// Flushes the installed sinks (call before process exit so a JSONL
    /// trace is fully on disk).
    pub fn finish(&self) {
        flush_installed();
    }
}

/// Standard observability setup for the flow binaries: if the `MBR_TRACE`
/// environment variable names a path, a [`JsonlSink`] writing there is
/// installed; if `MBR_FLIGHT_RECORDER=<n>` is set, a [`FlightRecorder`]
/// retaining the last `n` events is installed, registered for
/// [`dump_flight_recorder`], and hooked into the panic handler so a crash
/// dumps the ring; if `report` is true (the `--report` flag), a
/// [`Recorder`] is installed as well (teed with the others) and returned
/// for rendering a [`summary::Summary`] after the run.
///
/// # Panics
///
/// Panics when `MBR_TRACE` is set but the file cannot be created, or when
/// `MBR_FLIGHT_RECORDER` is not a positive integer — a requested trace
/// that silently vanishes is worse than a loud failure.
pub fn init_cli(report: bool) -> CliObs {
    let mut sinks: Vec<Arc<dyn ObsSink>> = Vec::new();
    if let Some(path) = std::env::var_os("MBR_TRACE") {
        let sink = JsonlSink::create(&path)
            .unwrap_or_else(|e| panic!("MBR_TRACE={}: {e}", path.to_string_lossy()));
        sinks.push(Arc::new(sink));
    }
    if let Ok(cap) = std::env::var("MBR_FLIGHT_RECORDER") {
        let cap: usize =
            cap.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                panic!("MBR_FLIGHT_RECORDER={cap}: expected a positive integer")
            });
        let recorder = Arc::new(FlightRecorder::new(cap));
        flight::register(recorder.clone());
        sinks.push(recorder);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            dump_flight_recorder("panic");
        }));
    }
    let recorder = if report {
        let rec = Arc::new(Recorder::default());
        sinks.push(rec.clone());
        Some(rec)
    } else {
        None
    };
    match sinks.len() {
        0 => {}
        1 => {
            install(sinks.pop().expect("one sink"));
        }
        _ => {
            install(Arc::new(Tee::new(sinks)));
        }
    }
    CliObs { recorder }
}
