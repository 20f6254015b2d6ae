//! The flight recorder: a bounded ring-buffer [`ObsSink`] for post-mortem
//! forensics (DESIGN.md §13).
//!
//! Paper-scale runs default to no observability — when one fails after
//! minutes of work there is nothing to debug with. Setting
//! `MBR_FLIGHT_RECORDER=<n>` makes [`crate::init_cli`] install a
//! [`FlightRecorder`] retaining the last `n` events at near-no-op cost
//! (one mutex push per event, no I/O). On panic, on a check-error
//! diagnostic, or on any nonzero exit, the binary dumps the ring as a
//! truncated JSONL trace that `trace-validate --truncated` accepts.
//!
//! The dump goes to `MBR_FLIGHT_RECORDER_OUT` when set, else
//! `target/flight-recorder.jsonl`.

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sink::ObsSink;
use crate::trace::{to_jsonl, TraceEvent};

/// A bounded in-memory event ring: the newest `capacity` events survive,
/// older ones are evicted in arrival order.
pub struct FlightRecorder {
    capacity: usize,
    state: Mutex<Ring>,
}

struct Ring {
    events: VecDeque<TraceEvent>,
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (at least one).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            state: Mutex::new(Ring {
                events: VecDeque::new(),
                evicted: 0,
            }),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match self.state.lock() {
            Ok(ring) => ring.events.iter().cloned().collect(),
            Err(_) => Vec::new(),
        }
    }

    /// How many events have been evicted from the head of the ring.
    pub fn evicted(&self) -> u64 {
        match self.state.lock() {
            Ok(ring) => ring.evicted,
            Err(_) => 0,
        }
    }

    /// Writes the retained events as a (possibly truncated) JSONL trace.
    pub fn dump(&self, path: &Path) -> std::io::Result<(usize, u64)> {
        let (text, len, evicted) = match self.state.lock() {
            Ok(ring) => {
                let events: Vec<TraceEvent> = ring.events.iter().cloned().collect();
                (to_jsonl(&events), events.len(), ring.evicted)
            }
            Err(_) => (String::new(), 0, 0),
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        Ok((len, evicted))
    }
}

impl ObsSink for FlightRecorder {
    fn record(&self, event: &TraceEvent) {
        // A poisoned ring (a panic inside a clone) forfeits the event
        // rather than propagating the panic into instrumented hot paths.
        let Ok(mut ring) = self.state.lock() else {
            return;
        };
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.evicted += 1;
        }
        ring.events.push_back(event.clone());
    }
}

static FLIGHT: OnceLock<Arc<FlightRecorder>> = OnceLock::new();

/// Registers the process-wide flight recorder (done by [`crate::init_cli`]
/// when `MBR_FLIGHT_RECORDER` is set); later calls are ignored.
pub(crate) fn register(recorder: Arc<FlightRecorder>) {
    let _ = FLIGHT.set(recorder);
}

/// Dumps the process-wide flight recorder, if installed, to
/// `MBR_FLIGHT_RECORDER_OUT` (default `target/flight-recorder.jsonl`) and
/// reports the dump on stderr. Binaries call this on failure exits; the
/// panic hook installed by [`crate::init_cli`] calls it on panic. Returns
/// the dump path when a dump was written.
pub fn dump_flight_recorder(reason: &str) -> Option<PathBuf> {
    let recorder = FLIGHT.get()?;
    let path = std::env::var_os("MBR_FLIGHT_RECORDER_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/flight-recorder.jsonl"));
    match recorder.dump(&path) {
        Ok((kept, evicted)) => {
            eprintln!(
                "flight recorder: dumped {kept} events ({evicted} evicted) to {} ({reason})",
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!("flight recorder: failed to dump to {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Counter;
    use crate::trace::validate_trace_truncated;
    use crate::{counter, with_sink, MockClock, Span};

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mbr-flight-{}-{name}", std::process::id()))
    }

    #[test]
    fn ring_retains_the_newest_events_and_counts_evictions() {
        let rec = Arc::new(FlightRecorder::new(3));
        with_sink(rec.clone(), || {
            for i in 1..=5 {
                counter(Counter::SimplexPivots, i);
            }
        });
        assert_eq!(rec.evicted(), 2);
        let values: Vec<u64> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(values, [3, 4, 5]);
    }

    #[test]
    fn truncated_dump_validates_in_truncated_mode() {
        // A ring too small for the whole run: the root span's close event
        // survives but early children are evicted, and with a mid-run
        // dump, open spans dangle. Both shapes must validate as truncated.
        let rec = Arc::new(FlightRecorder::new(4));
        crate::with_clock(Arc::new(MockClock::new(5)), || {
            with_sink(rec.clone(), || {
                let root = Span::enter("test.flight");
                for i in 1..=6 {
                    let inner = Span::enter("test.flight.step");
                    counter(Counter::SetPartNodesExplored, i);
                    drop(inner);
                }
                drop(root);
            })
        });
        assert!(rec.evicted() > 0);
        let events = rec.events();
        // Retained children reference the root whose close event is the
        // newest entry, so it survives; the counters' span refs point at
        // retained spans too — but earlier siblings are gone, making the
        // trace invalid under strict validation (close-order gaps are
        // fine, missing references are what truncation produces). Verify
        // via the dump-file round trip.
        let path = temp_path("ring.jsonl");
        rec.dump(&path).expect("dump");
        let text = std::fs::read_to_string(&path).expect("read dump");
        let parsed = crate::parse_trace(&text).expect("parse dump");
        assert_eq!(parsed, events);
        validate_trace_truncated(&parsed).expect("truncated dump validates");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dump_with_dangling_open_spans_is_truncated_valid() {
        // Simulate a panic-time dump: the enclosing span never closes, so
        // its children reference a span absent from the dump.
        let rec = Arc::new(FlightRecorder::new(16));
        crate::with_clock(Arc::new(MockClock::new(3)), || {
            with_sink(rec.clone(), || {
                let outer = Span::enter("test.open");
                drop(Span::enter("test.open.child"));
                counter(Counter::SimplexPivots, 2);
                // Dump before `outer` closes.
                let path = temp_path("open.jsonl");
                rec.dump(&path).expect("dump");
                let parsed = crate::parse_trace(&std::fs::read_to_string(&path).expect("read"))
                    .expect("parse");
                assert!(
                    crate::validate_trace(&parsed).is_err(),
                    "strict mode must reject the dangling parent"
                );
                validate_trace_truncated(&parsed).expect("truncated accepts");
                std::fs::remove_file(&path).ok();
                drop(outer);
            })
        });
    }
}
