//! Event sinks and the emit dispatch.
//!
//! Dispatch order: the thread-local sink installed by [`with_sink`] wins
//! (hermetic tests), else the process-global sink installed by [`install`]
//! (binaries), else events are dropped before they are even constructed —
//! the no-op path allocates nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::catalog::{Counter, Gauge, Histogram};
use crate::hist::HistogramData;
use crate::span;
use crate::trace::TraceEvent;

/// A consumer of observability events. Implementations must tolerate
/// concurrent `record` calls (binaries install one sink process-wide).
pub trait ObsSink: Send + Sync {
    /// Consumes one event. Called at span close and counter/gauge flush.
    fn record(&self, event: &TraceEvent);

    /// Persists any buffered state (e.g. a file writer). Default: nothing.
    fn flush(&self) {}
}

/// Fans one event stream out to several sinks (e.g. a JSONL trace file
/// plus an in-memory recorder for `--report`).
pub struct Tee {
    sinks: Vec<Arc<dyn ObsSink>>,
}

impl Tee {
    /// A sink forwarding every event to each of `sinks` in order.
    pub fn new(sinks: Vec<Arc<dyn ObsSink>>) -> Self {
        Tee { sinks }
    }
}

impl ObsSink for Tee {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// An in-memory sink keeping every event in arrival order. Backs tests and
/// the `--report` summary path.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    /// A snapshot of everything recorded so far, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("recorder poisoned").clone()
    }

    /// Drains everything recorded so far, in arrival order (the recorder
    /// stays usable). Backs task-obs capture, which hands the buffer over
    /// instead of copying it.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("recorder poisoned"))
    }
}

impl ObsSink for Recorder {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("recorder poisoned")
            .push(event.clone());
    }
}

/// A sink that keeps only per-counter running totals — the cheap observer
/// the bench substrate uses to attach algorithmic-work numbers to timings.
#[derive(Default)]
pub struct CounterTotals {
    totals: Mutex<BTreeMap<String, u64>>,
}

impl CounterTotals {
    /// The accumulated totals, keyed by counter name, sorted by name.
    pub fn totals(&self) -> BTreeMap<String, u64> {
        self.totals.lock().expect("totals poisoned").clone()
    }
}

impl ObsSink for CounterTotals {
    fn record(&self, event: &TraceEvent) {
        if let TraceEvent::Counter { name, value, .. } = event {
            *self
                .totals
                .lock()
                .expect("totals poisoned")
                .entry(name.clone())
                .or_insert(0) += value;
        }
    }
}

static GLOBAL_SINK: OnceLock<Arc<dyn ObsSink>> = OnceLock::new();

thread_local! {
    static LOCAL_SINK: RefCell<Option<Arc<dyn ObsSink>>> = const { RefCell::new(None) };
}

/// Installs the process-wide sink. Call once from a binary's startup (see
/// [`crate::init_cli`]); later calls are ignored, matching `OnceLock`.
pub fn install(sink: Arc<dyn ObsSink>) {
    let _ = GLOBAL_SINK.set(sink);
}

/// Flushes the process-wide sink, if any. Binaries call this before exit
/// so file-backed traces are fully on disk (`OnceLock` never drops).
pub fn flush_installed() {
    if let Some(sink) = GLOBAL_SINK.get() {
        sink.flush();
    }
}

/// True when some sink — thread-local or global — would receive events.
/// Hot paths may use this to skip building flush-side state entirely.
pub fn installed() -> bool {
    LOCAL_SINK.with(|s| s.borrow().is_some()) || GLOBAL_SINK.get().is_some()
}

/// Runs `f` with `sink` as this thread's sink, restoring the previous one
/// afterwards (also on panic). Span ids restart at 1 inside the scope so a
/// fixed workload traces byte-identically on every run.
pub fn with_sink<R>(sink: Arc<dyn ObsSink>, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev_sink: Option<Arc<dyn ObsSink>>,
        prev_ids: (u64, Vec<u64>),
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.prev_sink.take();
            LOCAL_SINK.with(|s| *s.borrow_mut() = prev);
            span::restore_thread_state(std::mem::take(&mut self.prev_ids));
        }
    }
    let prev_sink = LOCAL_SINK.with(|s| s.borrow_mut().replace(sink));
    let prev_ids = span::reset_thread_state();
    let _restore = Restore {
        prev_sink,
        prev_ids,
    };
    f()
}

/// Routes one event to the active sink, if any. The event is built by the
/// caller only after a cheap "is anyone listening" check — see [`emit`]'s
/// callers ([`counter`], [`gauge`], span close).
pub(crate) fn emit(event: &TraceEvent) {
    let local_hit = LOCAL_SINK.with(|s| {
        if let Some(sink) = &*s.borrow() {
            sink.record(event);
            true
        } else {
            false
        }
    });
    if !local_hit {
        if let Some(sink) = GLOBAL_SINK.get() {
            sink.record(event);
        }
    }
}

/// Flushes an accumulated counter total. Call once per operation with a
/// locally accumulated value, not per unit of work; zero totals are
/// dropped so quiet operations do not pad traces.
pub fn counter(counter: Counter, value: u64) {
    if value == 0 || !installed() {
        return;
    }
    emit(&TraceEvent::Counter {
        name: counter.name().to_string(),
        value,
        span: span::current_span_id(),
        pass: crate::pass::current_pass(),
    });
}

/// Records a point-in-time measured value.
pub fn gauge(gauge: Gauge, value: f64) {
    if !installed() {
        return;
    }
    emit(&TraceEvent::Gauge {
        name: gauge.name().to_string(),
        value,
        span: span::current_span_id(),
        pass: crate::pass::current_pass(),
    });
}

/// Flushes a locally accumulated distribution. Mirrors [`counter`]: build
/// the [`HistogramData`] with plain `record` calls in the hot loop and
/// flush once per operation; empty histograms are dropped so quiet
/// operations do not pad traces.
pub fn histogram(hist: Histogram, data: &HistogramData) {
    if data.is_empty() || !installed() {
        return;
    }
    emit(&TraceEvent::Hist {
        name: hist.name().to_string(),
        data: data.clone(),
        span: span::current_span_id(),
        pass: crate::pass::current_pass(),
    });
}

/// Records a single observation into a histogram — the one-shot form of
/// [`histogram`] for per-operation grains (one solve, one update).
pub fn observe(hist: Histogram, value: u64) {
    if !installed() {
        return;
    }
    let mut data = HistogramData::new();
    data.record(value);
    emit(&TraceEvent::Hist {
        name: hist.name().to_string(),
        data,
        span: span::current_span_id(),
        pass: crate::pass::current_pass(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_sink_counter_is_dropped() {
        // Must not panic or leak anywhere observable.
        counter(Counter::SimplexPivots, 7);
        gauge(Gauge::WnsPs, -1.5);
    }

    #[test]
    fn zero_counter_is_not_recorded() {
        let rec = Arc::new(Recorder::default());
        with_sink(rec.clone(), || {
            counter(Counter::SimplexPivots, 0);
            counter(Counter::SimplexPivots, 3);
        });
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            TraceEvent::Counter { name, value: 3, span: None, .. } if name == "lp.simplex.pivots"
        ));
    }

    #[test]
    fn with_pass_stamps_emitted_events() {
        let rec = Arc::new(Recorder::default());
        with_sink(rec.clone(), || {
            counter(Counter::SimplexPivots, 1);
            crate::with_pass(2, || {
                counter(Counter::SimplexPivots, 1);
                gauge(Gauge::WnsPs, -1.0);
                drop(crate::Span::enter("test.pass"));
            });
        });
        let passes: Vec<Option<u64>> = rec
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Span { pass, .. }
                | TraceEvent::Counter { pass, .. }
                | TraceEvent::Gauge { pass, .. }
                | TraceEvent::Hist { pass, .. } => *pass,
            })
            .collect();
        assert_eq!(passes, [None, Some(2), Some(2), Some(2)]);
    }

    #[test]
    fn histogram_flush_drops_empty_and_records_full() {
        let rec = Arc::new(Recorder::default());
        with_sink(rec.clone(), || {
            histogram(Histogram::SetPartSolveNodes, &HistogramData::new());
            let mut data = HistogramData::new();
            data.record(3);
            data.record(40);
            histogram(Histogram::SetPartSolveNodes, &data);
            observe(Histogram::StaSeedPinsPerUpdate, 0);
        });
        let events = rec.events();
        assert_eq!(events.len(), 2, "empty histogram must be dropped");
        let TraceEvent::Hist {
            name, data, span, ..
        } = &events[0]
        else {
            panic!("expected hist event, got {:?}", events[0]);
        };
        assert_eq!(name, "lp.setpart.solve_nodes");
        assert_eq!((data.count(), data.min(), data.max()), (2, 3, 40));
        assert_eq!(*span, None);
        // observe() records a real zero-valued observation (count 1).
        let TraceEvent::Hist { data, .. } = &events[1] else {
            panic!("expected hist event");
        };
        assert_eq!((data.count(), data.max()), (1, 0));
    }

    #[test]
    fn counter_totals_accumulates() {
        let totals = Arc::new(CounterTotals::default());
        with_sink(totals.clone(), || {
            counter(Counter::SetPartNodesExplored, 5);
            counter(Counter::SetPartNodesExplored, 7);
            counter(Counter::SimplexPivots, 2);
        });
        let t = totals.totals();
        assert_eq!(t.get("lp.setpart.nodes_explored"), Some(&12));
        assert_eq!(t.get("lp.simplex.pivots"), Some(&2));
    }

    #[test]
    fn tee_duplicates_events() {
        let a = Arc::new(Recorder::default());
        let b = Arc::new(Recorder::default());
        let tee: Arc<dyn ObsSink> = Arc::new(Tee::new(vec![a.clone(), b.clone()]));
        with_sink(tee, || counter(Counter::SkewAdjusted, 1));
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
    }

    #[test]
    fn with_sink_is_scoped_and_nested() {
        let outer = Arc::new(Recorder::default());
        let inner = Arc::new(Recorder::default());
        with_sink(outer.clone(), || {
            counter(Counter::SkewAdjusted, 1);
            with_sink(inner.clone(), || counter(Counter::SkewAdjusted, 2));
            counter(Counter::SkewAdjusted, 3);
        });
        let outer_vals: Vec<u64> = outer
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(outer_vals, [1, 3]);
        assert_eq!(inner.events().len(), 1);
    }
}
