//! RAII timing spans with thread-local nesting.
//!
//! A span records its start on entry and emits exactly one event when the
//! guard drops, carrying its id, parent id, name, start and duration. Ids
//! are per-thread and allocated in entry order starting at 1; the id stack
//! tracks nesting so counters flushed inside a span reference it.

use std::cell::RefCell;

use crate::clock;
use crate::sink;
use crate::trace::TraceEvent;

thread_local! {
    /// (next id to hand out, stack of open span ids).
    static SPAN_STATE: RefCell<(u64, Vec<u64>)> = const { RefCell::new((1, Vec::new())) };
}

/// The id of the innermost open span on this thread, if any.
pub(crate) fn current_span_id() -> Option<u64> {
    SPAN_STATE.with(|s| s.borrow().1.last().copied())
}

/// Reserves `count` consecutive span ids on this thread and returns the
/// first. Task replay ([`crate::TaskObs`]) remaps a worker's locally
/// numbered spans into such a block so ids stay unique per trace.
pub(crate) fn allocate_ids(count: u64) -> u64 {
    SPAN_STATE.with(|s| {
        let mut state = s.borrow_mut();
        let base = state.0;
        state.0 += count;
        base
    })
}

/// Resets this thread's span ids for a deterministic scope ([`crate::with_sink`])
/// and returns the previous state for restoration.
pub(crate) fn reset_thread_state() -> (u64, Vec<u64>) {
    SPAN_STATE.with(|s| std::mem::replace(&mut *s.borrow_mut(), (1, Vec::new())))
}

/// Restores span-id state captured by [`reset_thread_state`].
pub(crate) fn restore_thread_state(state: (u64, Vec<u64>)) {
    SPAN_STATE.with(|s| *s.borrow_mut() = state);
}

/// An open timing region. Created by [`Span::enter`]; the event is emitted
/// when the guard drops, so a span's cost is two clock readings plus one
/// sink call — and nearly nothing when no sink is installed.
#[must_use = "a span measures the scope it lives in; dropping it immediately times nothing"]
pub struct Span {
    /// `None` when no sink was installed at entry: the span is inert and
    /// close emits nothing.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Span {
    /// Opens a span named `name`. Names are `'static` dotted paths from the
    /// taxonomy in DESIGN.md §8 (e.g. `"flow.compose.assignment"`); the
    /// catalog is open, unlike counters, because stages come and go with
    /// the flow's shape.
    pub fn enter(name: &'static str) -> Span {
        if !sink::installed() {
            return Span { live: None };
        }
        let (id, parent) = SPAN_STATE.with(|s| {
            let mut state = s.borrow_mut();
            let id = state.0;
            state.0 += 1;
            let parent = state.1.last().copied();
            state.1.push(id);
            (id, parent)
        });
        Span {
            live: Some(LiveSpan {
                id,
                parent,
                name,
                start_ns: clock::now_ns(),
            }),
        }
    }

    /// This span's id, when live (a sink was installed at entry).
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let end_ns = clock::now_ns();
        SPAN_STATE.with(|s| {
            let mut state = s.borrow_mut();
            // Pop this span; tolerate out-of-order drops (e.g. a panic
            // unwinding through several guards) by truncating to it.
            if let Some(pos) = state.1.iter().rposition(|&id| id == live.id) {
                state.1.truncate(pos);
            }
        });
        sink::emit(&TraceEvent::Span {
            id: live.id,
            parent: live.parent,
            name: live.name.to_string(),
            start_ns: live.start_ns,
            dur_ns: end_ns.saturating_sub(live.start_ns),
            task: None,
            pass: crate::pass::current_pass(),
        });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::clock::{with_clock, MockClock};
    use crate::sink::{with_sink, Recorder};

    fn span_events(rec: &Recorder) -> Vec<(u64, Option<u64>, String, u64, u64)> {
        rec.events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Span {
                    id,
                    parent,
                    name,
                    start_ns,
                    dur_ns,
                    ..
                } => Some((id, parent, name, start_ns, dur_ns)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn span_without_sink_is_inert() {
        let span = Span::enter("test.inert");
        assert_eq!(span.id(), None);
    }

    #[test]
    fn nested_spans_record_parent_and_close_inner_first() {
        let rec = Arc::new(Recorder::default());
        with_clock(Arc::new(MockClock::new(100)), || {
            with_sink(rec.clone(), || {
                let outer = Span::enter("test.outer");
                let inner = Span::enter("test.inner");
                drop(inner);
                drop(outer);
            })
        });
        let spans = span_events(&rec);
        assert_eq!(spans.len(), 2);
        // Inner closes (and is emitted) first.
        assert_eq!(spans[0].0, 2);
        assert_eq!(spans[0].1, Some(1));
        assert_eq!(spans[0].2, "test.inner");
        assert_eq!(spans[1].0, 1);
        assert_eq!(spans[1].1, None);
        assert_eq!(spans[1].2, "test.outer");
        // Mock clock: outer start 0, inner start 100, inner end 200,
        // outer end 300.
        assert_eq!(spans[0].3, 100);
        assert_eq!(spans[0].4, 100);
        assert_eq!(spans[1].3, 0);
        assert_eq!(spans[1].4, 300);
    }

    #[test]
    fn sibling_spans_share_parent() {
        let rec = Arc::new(Recorder::default());
        with_sink(rec.clone(), || {
            let outer = Span::enter("test.outer");
            drop(Span::enter("test.a"));
            drop(Span::enter("test.b"));
            drop(outer);
        });
        let spans = span_events(&rec);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].1, Some(1));
        assert_eq!(spans[1].1, Some(1));
        assert_eq!(spans[1].0, 3);
    }

    #[test]
    fn span_ids_reset_per_with_sink_scope() {
        let first = Arc::new(Recorder::default());
        let second = Arc::new(Recorder::default());
        with_sink(first.clone(), || drop(Span::enter("test.run")));
        with_sink(second.clone(), || drop(Span::enter("test.run")));
        assert_eq!(span_events(&first)[0].0, 1);
        assert_eq!(span_events(&second)[0].0, 1);
    }
}
