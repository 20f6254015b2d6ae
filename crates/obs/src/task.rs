//! Cross-thread observability: capture a worker task's events, replay them
//! on the caller.
//!
//! Spans, counters and gauges dispatch through *thread-local* state (the
//! sink installed by [`crate::with_sink`], the span stack, the clock
//! override), none of which a scoped worker thread inherits. Worse, span
//! ids are allocated per thread starting at 1, so two workers emitting
//! directly into a process-global sink would collide — and the interleaving
//! would differ run to run, destroying trace determinism.
//!
//! The [`SpanHandle`]/[`TaskObs`] pair solves both problems with
//! buffer-and-replay:
//!
//! 1. On the orchestrating thread, take a [`SpanHandle`] from the span the
//!    tasks should nest under (or [`SpanHandle::current`]). The handle
//!    freezes three thread-local facts: the parent span id, whether any
//!    sink is listening, and the clock override (so a `MockClock` governs
//!    workers too).
//! 2. In each worker, run the task under [`TaskObs::capture`]. When no
//!    sink was active the closure runs bare — the no-observability case
//!    stays free. Otherwise the task's events land in a private buffer,
//!    with span ids numbered locally from 1 (deterministic per task).
//! 3. Back on the orchestrating thread, call [`TaskObs::replay`] on each
//!    buffer **in task order**. Replay allocates a fresh id block from the
//!    replaying thread, remaps the task's local ids into it, re-parents
//!    the task's root spans onto the handle's span, tags every span with a
//!    task group id, and re-emits.
//!
//! Because the replay order is the task order — not the completion order —
//! the final event stream is identical at every thread count. Under a mock
//! clock only span timestamps can still differ: concurrent workers sharing
//! it take their readings in scheduling order.

use std::sync::Arc;

use crate::clock::{self, Clock};
use crate::sink::{self, Recorder};
use crate::span::{self, Span};
use crate::trace::TraceEvent;

/// A frozen reference to the observability context of the thread that
/// created it: attachment point for worker-task events. Cheap to create
/// and to share (`&SpanHandle` is `Send + Sync`).
#[derive(Clone)]
pub struct SpanHandle {
    /// Span the task's root spans re-parent onto at replay.
    parent: Option<u64>,
    /// Whether any sink was listening when the handle was taken; when
    /// false, capture runs the task bare and replay is a no-op.
    active: bool,
    /// The creating thread's clock override, handed to workers so mock
    /// time governs the whole parallel section.
    clock: Option<Arc<dyn Clock>>,
}

impl SpanHandle {
    /// A handle attaching tasks under the innermost open span of the
    /// calling thread (or at top level when none is open).
    pub fn current() -> SpanHandle {
        SpanHandle {
            parent: span::current_span_id(),
            active: sink::installed(),
            clock: clock::current(),
        }
    }

    /// Opens a span on the current (worker) thread that will nest under
    /// this handle's parent span once its task buffer is replayed. Inside
    /// a [`TaskObs::capture`] scope this is just [`Span::enter`] — the
    /// re-parenting happens at replay — but going through the handle keeps
    /// the attachment explicit at the call site.
    pub fn attach(&self, name: &'static str) -> Span {
        Span::enter(name)
    }
}

impl std::fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanHandle")
            .field("parent", &self.parent)
            .field("active", &self.active)
            .field("has_clock", &self.clock.is_some())
            .finish()
    }
}

/// The buffered observability events of one worker task, produced by
/// [`TaskObs::capture`] and consumed by [`TaskObs::replay`].
#[derive(Debug, Default)]
#[must_use = "captured events are lost unless replayed on the orchestrating thread"]
pub struct TaskObs {
    events: Vec<TraceEvent>,
}

impl TaskObs {
    /// Runs `f` — typically on a worker thread — capturing every event it
    /// emits into the returned buffer. Span ids inside the buffer restart
    /// at 1, so a given task always buffers identically regardless of
    /// which worker ran it. The handle's clock override, if any, is
    /// installed for the duration.
    ///
    /// When the handle is inactive (no sink was listening), `f` runs with
    /// this thread's observability state untouched and the buffer stays
    /// empty.
    pub fn capture<R>(handle: &SpanHandle, f: impl FnOnce() -> R) -> (R, TaskObs) {
        if !handle.active {
            return (f(), TaskObs::default());
        }
        let recorder = Arc::new(Recorder::default());
        let run = || sink::with_sink(recorder.clone(), f);
        let result = match &handle.clock {
            Some(c) => clock::with_clock(c.clone(), run),
            None => run(),
        };
        (
            result,
            TaskObs {
                events: recorder.take(),
            },
        )
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Re-emits the buffered events on the calling thread — the events
    /// reach whatever sink is active *here*, in buffer order.
    ///
    /// Remapping: a block of `max_local_id + 1` span ids is reserved from
    /// this thread's allocator; local span id `i` becomes `base + i`, the
    /// task's root spans (and span-less counters/gauges) re-parent onto
    /// `handle`'s span, and spans are tagged with a task group id (`base`
    /// for the task's own thread; nested tasks replayed inside it keep
    /// their relative group ids, shifted into the block). Call in task
    /// order to keep the merged trace deterministic.
    pub fn replay(self, handle: &SpanHandle) {
        if self.events.is_empty() || !sink::installed() {
            return;
        }
        let max_local = self
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { id, .. } => Some(*id),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let base = span::allocate_ids(max_local + 1);
        let remap = |id: u64| base + id;
        let remap_parent = |p: Option<u64>| match p {
            Some(p) => Some(remap(p)),
            None => handle.parent,
        };
        // Workers do not inherit the orchestrating thread's pass scope, so
        // untagged captured events are stamped with the pass in effect on
        // the replaying thread; an explicit tag (a nested replay done
        // inside a worker's own pass scope) wins.
        let stamp = |pass: Option<u64>| pass.or_else(crate::pass::current_pass);
        for event in self.events {
            let remapped = match event {
                TraceEvent::Span {
                    id,
                    parent,
                    name,
                    start_ns,
                    dur_ns,
                    task,
                    pass,
                } => TraceEvent::Span {
                    id: remap(id),
                    parent: remap_parent(parent),
                    name,
                    start_ns,
                    dur_ns,
                    task: Some(match task {
                        Some(t) => remap(t),
                        None => base,
                    }),
                    pass: stamp(pass),
                },
                TraceEvent::Counter {
                    name,
                    value,
                    span,
                    pass,
                } => TraceEvent::Counter {
                    name,
                    value,
                    span: remap_parent(span),
                    pass: stamp(pass),
                },
                TraceEvent::Gauge {
                    name,
                    value,
                    span,
                    pass,
                } => TraceEvent::Gauge {
                    name,
                    value,
                    span: remap_parent(span),
                    pass: stamp(pass),
                },
                TraceEvent::Hist {
                    name,
                    data,
                    span,
                    pass,
                } => TraceEvent::Hist {
                    name,
                    data,
                    span: remap_parent(span),
                    pass: stamp(pass),
                },
            };
            sink::emit(&remapped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Counter, Gauge};
    use crate::clock::MockClock;
    use crate::trace::validate_trace;
    use crate::{counter, gauge, with_clock, with_sink};

    #[test]
    fn inactive_handle_captures_nothing() {
        // No sink installed on this thread: the closure must run bare.
        let handle = SpanHandle::current();
        let (value, obs) = TaskObs::capture(&handle, || 41 + 1);
        assert_eq!(value, 42);
        assert!(obs.is_empty());
        obs.replay(&handle); // must be a no-op, not a panic
    }

    #[test]
    fn worker_spans_nest_under_the_handles_span() {
        let rec = Arc::new(Recorder::default());
        with_clock(Arc::new(MockClock::new(10)), || {
            with_sink(rec.clone(), || {
                let outer = Span::enter("test.outer");
                let handle = SpanHandle::current();
                let buffers: Vec<TaskObs> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..2)
                        .map(|i| {
                            let handle = &handle;
                            s.spawn(move || {
                                let ((), obs) = TaskObs::capture(handle, || {
                                    let span = handle.attach("test.task");
                                    counter(Counter::SimplexPivots, i + 1);
                                    drop(span);
                                });
                                obs
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for b in buffers {
                    b.replay(&handle);
                }
                drop(outer);
            })
        });
        let events = rec.events();
        validate_trace(&events).expect("replayed trace validates");
        // Expect: task-1 span + counter, task-2 span + counter, outer span.
        let spans: Vec<(u64, Option<u64>, Option<u64>)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span {
                    id, parent, task, ..
                } => Some((*id, *parent, *task)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 3);
        let outer_id = spans[2].0;
        assert_eq!(spans[2].1, None);
        assert_eq!(spans[2].2, None, "directly emitted spans are untagged");
        for &(id, parent, task) in &spans[..2] {
            assert_eq!(parent, Some(outer_id), "task roots re-parent");
            assert!(task.is_some(), "replayed spans carry a task group");
            assert_ne!(Some(id), task.map(|_| outer_id));
        }
        // Ids are unique and the two tasks got distinct groups.
        assert_ne!(spans[0].0, spans[1].0);
        assert_ne!(spans[0].2, spans[1].2);
    }

    #[test]
    fn replay_is_deterministic_in_task_order() {
        // Whatever order tasks *complete* in, replaying buffers in task
        // order produces one fixed event stream. The workers share one mock
        // clock, so span timestamps follow thread scheduling; everything
        // else must match byte for byte.
        let run = || {
            let rec = Arc::new(Recorder::default());
            with_clock(Arc::new(MockClock::new(7)), || {
                with_sink(rec.clone(), || {
                    let root = Span::enter("test.root");
                    let handle = SpanHandle::current();
                    let mut buffers: Vec<Option<TaskObs>> = (0..4).map(|_| None).collect();
                    std::thread::scope(|s| {
                        let mut js = Vec::new();
                        for i in 0..4u64 {
                            let handle = &handle;
                            js.push(s.spawn(move || {
                                TaskObs::capture(handle, || {
                                    let span = handle.attach("test.work");
                                    counter(Counter::SetPartNodesExplored, i + 1);
                                    gauge(Gauge::WnsPs, i as f64);
                                    drop(span);
                                })
                                .1
                            }));
                        }
                        for (i, j) in js.into_iter().enumerate() {
                            buffers[i] = Some(j.join().unwrap());
                        }
                    });
                    for b in buffers.into_iter().flatten() {
                        b.replay(&handle);
                    }
                    drop(root);
                })
            });
            rec.events()
        };
        let without_timestamps = |events: &[TraceEvent]| {
            let mut events = events.to_vec();
            for event in &mut events {
                if let TraceEvent::Span {
                    start_ns, dur_ns, ..
                } = event
                {
                    (*start_ns, *dur_ns) = (0, 0);
                }
            }
            crate::to_jsonl(&events)
        };
        let a = run();
        let b = run();
        assert_eq!(
            without_timestamps(&a),
            without_timestamps(&b),
            "replayed traces must match byte for byte up to span timestamps"
        );
        validate_trace(&crate::parse_trace(&crate::to_jsonl(&a)).expect("parse")).expect("valid");
    }

    #[test]
    fn nested_capture_replays_through_two_levels() {
        // A task that itself fans out: the inner buffers are replayed
        // inside the outer capture, then the outer buffer on the caller.
        let rec = Arc::new(Recorder::default());
        with_clock(Arc::new(MockClock::new(3)), || {
            with_sink(rec.clone(), || {
                let root = Span::enter("test.root");
                let outer_handle = SpanHandle::current();
                let ((), outer) = TaskObs::capture(&outer_handle, || {
                    let arm = outer_handle.attach("test.arm");
                    let inner_handle = SpanHandle::current();
                    let inner: Vec<TaskObs> = std::thread::scope(|s| {
                        let ih = &inner_handle;
                        let js: Vec<_> = (0..2)
                            .map(|_| {
                                s.spawn(move || {
                                    TaskObs::capture(ih, || {
                                        drop(ih.attach("test.leaf"));
                                    })
                                    .1
                                })
                            })
                            .collect();
                        js.into_iter().map(|j| j.join().unwrap()).collect()
                    });
                    for b in inner {
                        b.replay(&inner_handle);
                    }
                    drop(arm);
                });
                outer.replay(&outer_handle);
                drop(root);
            })
        });
        let events = rec.events();
        validate_trace(&events).expect("two-level replay validates");
        let leaves: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span { name, .. } if name == "test.leaf"))
            .collect();
        assert_eq!(leaves.len(), 2);
        // Both leaves are parented on the arm span (transitively remapped).
        let arm_id = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Span { id, name, .. } if name == "test.arm" => Some(*id),
                _ => None,
            })
            .expect("arm span present");
        for leaf in leaves {
            let TraceEvent::Span { parent, task, .. } = leaf else {
                unreachable!()
            };
            assert_eq!(*parent, Some(arm_id));
            assert!(task.is_some());
        }
    }

    #[test]
    fn replay_stamps_worker_events_with_the_replaying_pass() {
        // Workers don't inherit the orchestrator's pass scope, so the tag
        // is applied at replay time.
        let rec = Arc::new(Recorder::default());
        with_sink(rec.clone(), || {
            crate::with_pass(5, || {
                let handle = SpanHandle::current();
                let obs = std::thread::scope(|s| {
                    let h = &handle;
                    s.spawn(move || {
                        TaskObs::capture(h, || {
                            let span = h.attach("test.task");
                            counter(Counter::SimplexPivots, 1);
                            drop(span);
                        })
                        .1
                    })
                    .join()
                    .unwrap()
                });
                obs.replay(&handle);
            });
        });
        let events = rec.events();
        assert_eq!(events.len(), 2);
        for e in &events {
            let (TraceEvent::Span { pass, .. }
            | TraceEvent::Counter { pass, .. }
            | TraceEvent::Gauge { pass, .. }
            | TraceEvent::Hist { pass, .. }) = e;
            assert_eq!(*pass, Some(5));
        }
    }

    #[test]
    fn replay_remaps_histogram_span_references() {
        use crate::catalog::Histogram;
        let rec = Arc::new(Recorder::default());
        with_clock(Arc::new(MockClock::new(2)), || {
            with_sink(rec.clone(), || {
                let root = Span::enter("test.root");
                let handle = SpanHandle::current();
                let obs = std::thread::scope(|s| {
                    let h = &handle;
                    s.spawn(move || {
                        TaskObs::capture(h, || {
                            let span = h.attach("test.task");
                            crate::observe(Histogram::SetPartSolveNodes, 12);
                            drop(span);
                            // Span-less observation: re-parents onto root.
                            crate::observe(Histogram::StaSeedPinsPerUpdate, 3);
                        })
                        .1
                    })
                    .join()
                    .unwrap()
                });
                obs.replay(&handle);
                drop(root);
            })
        });
        let events = rec.events();
        validate_trace(&events).expect("replayed hist trace validates");
        let task_span_id = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Span { id, name, .. } if name == "test.task" => Some(*id),
                _ => None,
            })
            .expect("task span");
        let root_id = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Span { id, name, .. } if name == "test.root" => Some(*id),
                _ => None,
            })
            .expect("root span");
        let hist_spans: Vec<Option<u64>> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Hist { span, .. } => Some(*span),
                _ => None,
            })
            .collect();
        assert_eq!(hist_spans, [Some(task_span_id), Some(root_id)]);
    }

    #[test]
    fn mock_clock_round_trips_into_workers() {
        // The handle carries the clock override: worker readings come from
        // the same shared mock, so child windows sit inside the parent's.
        let rec = Arc::new(Recorder::default());
        with_clock(Arc::new(MockClock::new(5)), || {
            with_sink(rec.clone(), || {
                let root = Span::enter("test.root");
                let handle = SpanHandle::current();
                let obs = std::thread::scope(|s| {
                    let h = &handle;
                    s.spawn(move || TaskObs::capture(h, || drop(h.attach("test.timed"))).1)
                        .join()
                        .unwrap()
                });
                obs.replay(&handle);
                drop(root);
            })
        });
        let events = rec.events();
        validate_trace(&events).expect("valid");
        let (child_start, child_end) = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Span {
                    name,
                    start_ns,
                    dur_ns,
                    ..
                } if name == "test.timed" => Some((*start_ns, *start_ns + *dur_ns)),
                _ => None,
            })
            .expect("worker span recorded");
        let (root_start, root_end) = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Span {
                    name,
                    start_ns,
                    dur_ns,
                    ..
                } if name == "test.root" => Some((*start_ns, *start_ns + *dur_ns)),
                _ => None,
            })
            .expect("root span recorded");
        assert!(root_start <= child_start && child_end <= root_end);
        // Mock readings: root start 0; worker start/end 5/10; root end 15.
        assert_eq!(
            (root_start, child_start, child_end, root_end),
            (0, 5, 10, 15)
        );
    }
}
