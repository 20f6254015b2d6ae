//! The JSONL trace format: emit, parse, validate.
//!
//! A trace is a sequence of newline-terminated JSON objects, one per
//! event, in emission order. Field order is fixed so a deterministic run
//! produces a byte-identical file. Four event shapes exist:
//!
//! ```text
//! {"type":"span","id":3,"parent":1,"name":"flow.compose.timing","start_ns":120,"dur_ns":480}
//! {"type":"counter","name":"lp.simplex.pivots","value":42,"span":3}
//! {"type":"gauge","name":"sta.wns_ps","value":-12.5,"span":null}
//! {"type":"hist","name":"lp.setpart.solve_nodes","count":3,"sum":10,"min":1,"max":7,"buckets":[[1,1],[4,2]],"span":3}
//! ```
//!
//! * `span` — emitted when the span **closes**; `parent` is the id of the
//!   enclosing span or `null`. Ids are unique per trace, allocated in
//!   entry order starting at 1, so emission order is close order. Spans
//!   replayed from a worker task additionally carry a `task` group id
//!   (`{"type":"span",...,"dur_ns":480,"task":17}`): close order is
//!   guaranteed only *within* one task group (and within the untagged
//!   main-thread group), because independent tasks overlap in time. The
//!   field is omitted — not `null` — when absent, so single-threaded
//!   traces are byte-identical to the pre-parallel format.
//! * `counter` — an accumulated total flushed by one operation; `span` is
//!   the innermost open span at flush time or `null`. `name` must be in
//!   the [`Counter`] catalog.
//! * `gauge` — a point-in-time value; same `span` rule, `name` from the
//!   [`Gauge`] catalog. `value` is finite and rendered with a decimal
//!   point (`17` serialises as `17.0`) so the shapes stay distinguishable.
//! * `hist` — a flushed [`HistogramData`] distribution; same `span` rule,
//!   `name` from the [`Histogram`] catalog. `buckets` is the sparse
//!   `[index, count]` list in ascending index order (DESIGN.md §13);
//!   empty histograms are dropped at the flush site, so `count` is
//!   positive in any valid trace.
//!
//! Validation has two modes: [`validate_trace`] enforces the full schema,
//! while [`validate_trace_truncated`] additionally accepts the dumps a
//! bounded flight recorder produces — the trace may begin mid-run, so
//! references to spans evicted from the ring buffer (or still open at the
//! time of the dump) are allowed to dangle.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::catalog::{Counter, Gauge, Histogram};
use crate::hist::HistogramData;
use crate::json::{self, Value};
use crate::sink::ObsSink;

/// One trace event. The enum mirrors the wire shapes above.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A closed timing span.
    Span {
        /// Unique per-trace id, allocated in entry order from 1.
        id: u64,
        /// Id of the enclosing span, if the span was nested.
        parent: Option<u64>,
        /// Dotted taxonomy name (DESIGN.md §8).
        name: String,
        /// Clock reading at entry, nanoseconds.
        start_ns: u64,
        /// Entry-to-close duration, nanoseconds.
        dur_ns: u64,
        /// Task group for spans replayed from a worker task ([`crate::TaskObs`]);
        /// `None` for spans emitted directly on the recording thread.
        task: Option<u64>,
        /// Composition pass the span belongs to ([`crate::with_pass`]);
        /// `None` outside any pass scope.
        pass: Option<u64>,
    },
    /// A flushed counter total.
    Counter {
        /// Catalog name ([`Counter::name`]).
        name: String,
        /// The flushed (positive) total.
        value: u64,
        /// Innermost open span at flush time, if any.
        span: Option<u64>,
        /// Composition pass the flush belongs to ([`crate::with_pass`]).
        pass: Option<u64>,
    },
    /// A measured point-in-time value.
    Gauge {
        /// Catalog name ([`Gauge::name`]).
        name: String,
        /// The measured value (finite).
        value: f64,
        /// Innermost open span at flush time, if any.
        span: Option<u64>,
        /// Composition pass the measurement belongs to ([`crate::with_pass`]).
        pass: Option<u64>,
    },
    /// A flushed distribution of per-operation observations.
    Hist {
        /// Catalog name ([`Histogram::name`]).
        name: String,
        /// The bucketed distribution (nonempty in any valid trace).
        data: HistogramData,
        /// Innermost open span at flush time, if any.
        span: Option<u64>,
        /// Composition pass the flush belongs to ([`crate::with_pass`]).
        pass: Option<u64>,
    },
}

fn write_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => out.push_str(&v.to_string()),
        None => out.push_str("null"),
    }
}

fn write_f64(out: &mut String, v: f64) {
    // Keep the shape float-like so parsers can't confuse gauge and counter
    // values; non-finite values should have been rejected upstream.
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        out.push_str(&format!("{v:.1}"));
    } else {
        out.push_str(&format!("{v}"));
    }
}

impl TraceEvent {
    /// The event as one JSON line (no trailing newline), with the fixed
    /// field order documented in the module header.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            TraceEvent::Span {
                id,
                parent,
                name,
                start_ns,
                dur_ns,
                task,
                pass,
            } => {
                out.push_str("{\"type\":\"span\",\"id\":");
                out.push_str(&id.to_string());
                out.push_str(",\"parent\":");
                write_opt_u64(&mut out, *parent);
                out.push_str(",\"name\":");
                json::write_str(&mut out, name);
                out.push_str(",\"start_ns\":");
                out.push_str(&start_ns.to_string());
                out.push_str(",\"dur_ns\":");
                out.push_str(&dur_ns.to_string());
                if let Some(task) = task {
                    out.push_str(",\"task\":");
                    out.push_str(&task.to_string());
                }
                if let Some(pass) = pass {
                    out.push_str(",\"pass\":");
                    out.push_str(&pass.to_string());
                }
                out.push('}');
            }
            TraceEvent::Counter {
                name,
                value,
                span,
                pass,
            } => {
                out.push_str("{\"type\":\"counter\",\"name\":");
                json::write_str(&mut out, name);
                out.push_str(",\"value\":");
                out.push_str(&value.to_string());
                out.push_str(",\"span\":");
                write_opt_u64(&mut out, *span);
                if let Some(pass) = pass {
                    out.push_str(",\"pass\":");
                    out.push_str(&pass.to_string());
                }
                out.push('}');
            }
            TraceEvent::Gauge {
                name,
                value,
                span,
                pass,
            } => {
                out.push_str("{\"type\":\"gauge\",\"name\":");
                json::write_str(&mut out, name);
                out.push_str(",\"value\":");
                write_f64(&mut out, *value);
                out.push_str(",\"span\":");
                write_opt_u64(&mut out, *span);
                if let Some(pass) = pass {
                    out.push_str(",\"pass\":");
                    out.push_str(&pass.to_string());
                }
                out.push('}');
            }
            TraceEvent::Hist {
                name,
                data,
                span,
                pass,
            } => {
                out.push_str("{\"type\":\"hist\",\"name\":");
                json::write_str(&mut out, name);
                out.push_str(",\"count\":");
                out.push_str(&data.count().to_string());
                out.push_str(",\"sum\":");
                out.push_str(&data.sum().to_string());
                out.push_str(",\"min\":");
                out.push_str(&data.min().to_string());
                out.push_str(",\"max\":");
                out.push_str(&data.max().to_string());
                out.push_str(",\"buckets\":[");
                for (i, (bucket, n)) in data.buckets().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{bucket},{n}]"));
                }
                out.push_str("],\"span\":");
                write_opt_u64(&mut out, *span);
                if let Some(pass) = pass {
                    out.push_str(",\"pass\":");
                    out.push_str(&pass.to_string());
                }
                out.push('}');
            }
        }
        out
    }
}

/// Serialises events to JSONL text (one line per event, trailing newline).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

/// Why a trace failed to parse or validate. `line` is 1-based.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceError {
    /// 1-based line number of the offending event (0 for whole-trace
    /// problems discovered after the last line).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError {
        line,
        message: message.into(),
    })
}

struct Fields {
    fields: Vec<(String, Value)>,
    line: usize,
}

impl Fields {
    fn take(&mut self, key: &str) -> Result<Value, TraceError> {
        match self.fields.iter().position(|(k, _)| k == key) {
            Some(i) => Ok(self.fields.remove(i).1),
            None => err(self.line, format!("missing field '{key}'")),
        }
    }

    fn take_str(&mut self, key: &str) -> Result<String, TraceError> {
        match self.take(key)? {
            Value::Str(s) => Ok(s),
            _ => err(self.line, format!("field '{key}' must be a string")),
        }
    }

    fn take_u64(&mut self, key: &str) -> Result<u64, TraceError> {
        match self.take(key)? {
            Value::UInt(v) => Ok(v),
            _ => err(
                self.line,
                format!("field '{key}' must be an unsigned integer"),
            ),
        }
    }

    fn take_opt_u64(&mut self, key: &str) -> Result<Option<u64>, TraceError> {
        match self.take(key)? {
            Value::UInt(v) => Ok(Some(v)),
            Value::Null => Ok(None),
            _ => err(
                self.line,
                format!("field '{key}' must be an unsigned integer or null"),
            ),
        }
    }

    /// Like [`Fields::take_opt_u64`], but a missing key is also `None` —
    /// for fields that are omitted rather than written as `null`.
    fn take_absent_u64(&mut self, key: &str) -> Result<Option<u64>, TraceError> {
        if self.fields.iter().any(|(k, _)| k == key) {
            self.take_opt_u64(key)
        } else {
            Ok(None)
        }
    }

    /// Takes a `[[bucket, count], ...]` array (the `hist` bucket list).
    fn take_buckets(&mut self, key: &str) -> Result<Vec<(u32, u64)>, TraceError> {
        let Value::Arr(items) = self.take(key)? else {
            return err(self.line, format!("field '{key}' must be an array"));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let Value::Arr(pair) = item else {
                return err(
                    self.line,
                    format!("field '{key}' must hold [bucket, count] pairs"),
                );
            };
            match pair.as_slice() {
                [Value::UInt(bucket), Value::UInt(n)] if *bucket <= u32::MAX as u64 => {
                    out.push((*bucket as u32, *n));
                }
                _ => {
                    return err(
                        self.line,
                        format!("field '{key}' must hold [bucket, count] pairs"),
                    )
                }
            }
        }
        Ok(out)
    }

    fn take_f64(&mut self, key: &str) -> Result<f64, TraceError> {
        match self.take(key)? {
            Value::Float(v) => Ok(v),
            Value::UInt(v) => Ok(v as f64),
            _ => err(self.line, format!("field '{key}' must be a number")),
        }
    }

    fn finish(self) -> Result<(), TraceError> {
        if let Some((key, _)) = self.fields.first() {
            return err(self.line, format!("unknown field '{key}'"));
        }
        Ok(())
    }
}

/// Parses JSONL trace text into events. Blank lines are rejected — every
/// line must be one event object.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let fields = match json::parse(line) {
            Ok(Value::Obj(fields)) => fields,
            Ok(_) => return err(lineno, "event is not a JSON object"),
            Err(e) => return err(lineno, e.to_string()),
        };
        let mut fields = Fields {
            fields,
            line: lineno,
        };
        let kind = fields.take_str("type")?;
        let event = match kind.as_str() {
            "span" => TraceEvent::Span {
                id: fields.take_u64("id")?,
                parent: fields.take_opt_u64("parent")?,
                name: fields.take_str("name")?,
                start_ns: fields.take_u64("start_ns")?,
                dur_ns: fields.take_u64("dur_ns")?,
                task: fields.take_absent_u64("task")?,
                pass: fields.take_absent_u64("pass")?,
            },
            "counter" => TraceEvent::Counter {
                name: fields.take_str("name")?,
                value: fields.take_u64("value")?,
                span: fields.take_opt_u64("span")?,
                pass: fields.take_absent_u64("pass")?,
            },
            "gauge" => TraceEvent::Gauge {
                name: fields.take_str("name")?,
                value: fields.take_f64("value")?,
                span: fields.take_opt_u64("span")?,
                pass: fields.take_absent_u64("pass")?,
            },
            "hist" => {
                let name = fields.take_str("name")?;
                let count = fields.take_u64("count")?;
                let sum = fields.take_u64("sum")?;
                let min = fields.take_u64("min")?;
                let max = fields.take_u64("max")?;
                let buckets = fields.take_buckets("buckets")?;
                let data =
                    HistogramData::from_parts(buckets, count, sum, min, max).map_err(|e| {
                        TraceError {
                            line: lineno,
                            message: format!("histogram '{name}': {e}"),
                        }
                    })?;
                TraceEvent::Hist {
                    name,
                    data,
                    span: fields.take_opt_u64("span")?,
                    pass: fields.take_absent_u64("pass")?,
                }
            }
            other => return err(lineno, format!("unknown event type '{other}'")),
        };
        fields.finish()?;
        events.push(event);
    }
    Ok(events)
}

/// Validates the schema invariants a well-formed trace must satisfy:
///
/// 1. span ids are unique and positive;
/// 2. every `parent` and counter/gauge/hist `span` reference resolves to a
///    span present in the trace;
/// 3. counter, gauge and histogram names are in the typed catalogs,
///    counter values are positive, gauge values finite, histograms
///    nonempty and internally consistent;
/// 4. spans nest: a child's `[start, start+dur]` lies within its parent's
///    — also across task groups, which is how a worker task's spans are
///    checked against the main-thread span they were attached to — and a
///    parent closes (is emitted) after each of its children;
/// 5. span end times are non-decreasing in emission order *within each
///    task group* (untagged spans form one group). Independent tasks run
///    concurrently, so no close order holds across groups.
pub fn validate_trace(events: &[TraceEvent]) -> Result<(), TraceError> {
    validate_trace_mode(events, false)
}

/// Like [`validate_trace`], but accepts the truncated traces a bounded
/// flight recorder dumps: the ring buffer keeps only the newest events, so
/// a `parent` or `span` reference may point at a span that was evicted at
/// the buffer's head — or that was still open (never closed, hence never
/// emitted) when the dump was taken. Such dangling references are allowed;
/// every invariant among the *retained* events is still enforced.
pub fn validate_trace_truncated(events: &[TraceEvent]) -> Result<(), TraceError> {
    validate_trace_mode(events, true)
}

fn validate_trace_mode(events: &[TraceEvent], truncated: bool) -> Result<(), TraceError> {
    // Pass 1: collect spans.
    let mut span_info: Vec<(u64, Option<u64>, u64, u64, usize)> = Vec::new();
    let mut ids = BTreeSet::new();
    for (idx, event) in events.iter().enumerate() {
        let lineno = idx + 1;
        if let TraceEvent::Span {
            id,
            parent,
            start_ns,
            dur_ns,
            ..
        } = event
        {
            if *id == 0 {
                return err(lineno, "span id 0 is reserved");
            }
            if !ids.insert(*id) {
                return err(lineno, format!("duplicate span id {id}"));
            }
            span_info.push((*id, *parent, *start_ns, *dur_ns, lineno));
        }
    }
    let lookup = |id: u64| span_info.iter().find(|s| s.0 == id);

    // Pass 2: per-event checks.
    let mut last_end: BTreeMap<Option<u64>, u64> = BTreeMap::new();
    for (idx, event) in events.iter().enumerate() {
        let lineno = idx + 1;
        match event {
            TraceEvent::Span {
                id,
                parent,
                name,
                start_ns,
                dur_ns,
                task,
                ..
            } => {
                if name.is_empty() {
                    return err(lineno, "span name must not be empty");
                }
                if let Some(pid) = parent {
                    if *pid == *id {
                        return err(lineno, format!("span {id} is its own parent"));
                    }
                    // In truncated mode a missing parent is legal: it
                    // closed after the dump (still open) or was evicted at
                    // the ring-buffer head, so there is nothing to check
                    // the child against.
                    if let Some(&(_, _, p_start, p_dur, p_line)) = lookup(*pid) {
                        let end = start_ns + dur_ns;
                        if *start_ns < p_start || end > p_start + p_dur {
                            return err(
                                lineno,
                                format!("span {id} [{start_ns}, {end}] escapes parent {pid}"),
                            );
                        }
                        // Close order: a parent is open while its children
                        // run, so its close event must come later — this
                        // holds even across threads, where a replayed
                        // task's spans land before the enclosing
                        // main-thread span closes.
                        if p_line <= lineno {
                            return err(
                                lineno,
                                format!("span {id} is emitted after its parent {pid} closed"),
                            );
                        }
                    } else if !truncated {
                        return err(lineno, format!("span {id} parent {pid} not in trace"));
                    }
                }
                let end = start_ns + dur_ns;
                if let Some(&prev) = last_end.get(task) {
                    if end < prev {
                        return err(
                            lineno,
                            format!(
                                "span {id} closes at {end}, before prior close {prev} \
                                 in the same task group"
                            ),
                        );
                    }
                }
                last_end.insert(*task, end);
            }
            TraceEvent::Counter {
                name, value, span, ..
            } => {
                if Counter::from_name(name).is_none() {
                    return err(lineno, format!("counter '{name}' not in catalog"));
                }
                if *value == 0 {
                    return err(lineno, format!("counter '{name}' flushed a zero total"));
                }
                if let Some(sid) = span {
                    if lookup(*sid).is_none() && !truncated {
                        return err(lineno, format!("counter references missing span {sid}"));
                    }
                }
            }
            TraceEvent::Gauge {
                name, value, span, ..
            } => {
                if Gauge::from_name(name).is_none() {
                    return err(lineno, format!("gauge '{name}' not in catalog"));
                }
                if !value.is_finite() {
                    return err(lineno, format!("gauge '{name}' is not finite"));
                }
                if let Some(sid) = span {
                    if lookup(*sid).is_none() && !truncated {
                        return err(lineno, format!("gauge references missing span {sid}"));
                    }
                }
            }
            TraceEvent::Hist {
                name, data, span, ..
            } => {
                if Histogram::from_name(name).is_none() {
                    return err(lineno, format!("histogram '{name}' not in catalog"));
                }
                if data.is_empty() {
                    return err(lineno, format!("histogram '{name}' flushed empty"));
                }
                if let Some(sid) = span {
                    if lookup(*sid).is_none() && !truncated {
                        return err(lineno, format!("histogram references missing span {sid}"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// An [`ObsSink`] appending one JSON line per event to a buffered file.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) `path` and returns a sink writing there.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl ObsSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let mut line = event.to_json();
        line.push('\n');
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        // A failing trace write is reported once at flush; dropping events
        // mid-run beats panicking inside instrumented hot paths.
        let _ = writer.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        if let Err(e) = writer.flush() {
            eprintln!("warning: failed to flush MBR_TRACE output: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Span {
                id: 2,
                parent: Some(1),
                name: "flow.compose.timing".to_string(),
                start_ns: 100,
                dur_ns: 200,
                task: None,
                pass: None,
            },
            TraceEvent::Counter {
                name: "lp.simplex.pivots".to_string(),
                value: 42,
                span: Some(1),
                pass: None,
            },
            TraceEvent::Gauge {
                name: "sta.wns_ps".to_string(),
                value: -12.5,
                span: None,
                pass: None,
            },
            TraceEvent::Span {
                id: 1,
                parent: None,
                name: "flow.compose".to_string(),
                start_ns: 0,
                dur_ns: 400,
                task: None,
                pass: None,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let parsed = parse_trace(&text).expect("parse");
        assert_eq!(parsed, events);
        // And the re-serialisation is byte-identical.
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn emitted_lines_match_documented_shapes() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"flow.compose.timing\",\"start_ns\":100,\"dur_ns\":200}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"counter\",\"name\":\"lp.simplex.pivots\",\"value\":42,\"span\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"gauge\",\"name\":\"sta.wns_ps\",\"value\":-12.5,\"span\":null}"
        );
        let quoted = TraceEvent::Span {
            id: 3,
            parent: None,
            name: "a \"q\" \\ b\tc\u{1f}".to_string(),
            start_ns: 0,
            dur_ns: 1,
            task: None,
            pass: None,
        };
        assert_eq!(
            quoted.to_json(),
            r#"{"type":"span","id":3,"parent":null,"name":"a \"q\" \\ b\tc\u001f","start_ns":0,"dur_ns":1}"#
        );
    }

    #[test]
    fn integral_gauges_keep_a_decimal_point() {
        let text = TraceEvent::Gauge {
            name: "sta.tns_ps".to_string(),
            value: 17.0,
            span: None,
            pass: None,
        }
        .to_json();
        assert!(text.contains("\"value\":17.0"), "{text}");
    }

    #[test]
    fn valid_trace_validates() {
        validate_trace(&sample_events()).expect("valid");
    }

    #[test]
    fn validation_rejects_unknown_counter() {
        let events = vec![TraceEvent::Counter {
            name: "lp.simplex.pivotz".to_string(),
            value: 1,
            span: None,
            pass: None,
        }];
        let e = validate_trace(&events).expect_err("must fail");
        assert!(e.message.contains("not in catalog"), "{e}");
    }

    #[test]
    fn validation_rejects_duplicate_ids() {
        let mut events = sample_events();
        events.push(TraceEvent::Span {
            id: 1,
            parent: None,
            name: "flow.compose".to_string(),
            start_ns: 400,
            dur_ns: 1,
            task: None,
            pass: None,
        });
        assert!(validate_trace(&events).is_err());
    }

    #[test]
    fn validation_rejects_child_escaping_parent() {
        let events = vec![
            TraceEvent::Span {
                id: 2,
                parent: Some(1),
                name: "b".to_string(),
                start_ns: 50,
                dur_ns: 100, // ends at 150, parent ends at 120
                task: None,
                pass: None,
            },
            TraceEvent::Span {
                id: 1,
                parent: None,
                name: "a".to_string(),
                start_ns: 0,
                dur_ns: 120,
                task: None,
                pass: None,
            },
        ];
        let e = validate_trace(&events).expect_err("must fail");
        assert!(e.message.contains("escapes parent"), "{e}");
    }

    #[test]
    fn validation_rejects_missing_parent() {
        let events = vec![TraceEvent::Span {
            id: 2,
            parent: Some(9),
            name: "b".to_string(),
            start_ns: 0,
            dur_ns: 1,
            task: None,
            pass: None,
        }];
        assert!(validate_trace(&events).is_err());
    }

    #[test]
    fn validation_rejects_out_of_order_closes() {
        let events = vec![
            TraceEvent::Span {
                id: 1,
                parent: None,
                name: "a".to_string(),
                start_ns: 0,
                dur_ns: 500,
                task: None,
                pass: None,
            },
            TraceEvent::Span {
                id: 2,
                parent: None,
                name: "b".to_string(),
                start_ns: 10,
                dur_ns: 20,
                task: None,
                pass: None,
            },
        ];
        let e = validate_trace(&events).expect_err("must fail");
        assert!(e.message.contains("before prior close"), "{e}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace("not json\n").is_err());
        assert!(parse_trace("{\"type\":\"span\"}\n").is_err());
        assert!(parse_trace("{\"type\":\"warp\",\"x\":1}\n").is_err());
        assert!(
            parse_trace("{\"type\":\"counter\",\"name\":\"lp.simplex.pivots\",\"value\":1,\"span\":null,\"extra\":2}\n")
                .is_err()
        );
    }

    fn span(
        id: u64,
        parent: Option<u64>,
        start_ns: u64,
        dur_ns: u64,
        task: Option<u64>,
    ) -> TraceEvent {
        TraceEvent::Span {
            id,
            parent,
            name: format!("test.s{id}"),
            start_ns,
            dur_ns,
            task,
            pass: None,
        }
    }

    #[test]
    fn task_field_round_trips_and_is_omitted_when_absent() {
        let tagged = span(2, Some(1), 10, 5, Some(17));
        let text = tagged.to_json();
        assert!(text.ends_with(",\"dur_ns\":5,\"task\":17}"), "{text}");
        let events = vec![tagged, span(1, None, 0, 100, None)];
        let jsonl = to_jsonl(&events);
        assert_eq!(parse_trace(&jsonl).expect("parse"), events);
        // Untagged spans serialize without the field entirely.
        assert!(!events[1].to_json().contains("task"));
    }

    #[test]
    fn pass_field_round_trips_and_is_omitted_when_absent() {
        let tagged = TraceEvent::Span {
            id: 2,
            parent: Some(1),
            name: "test.s2".to_string(),
            start_ns: 10,
            dur_ns: 5,
            task: Some(17),
            pass: Some(3),
        };
        let text = tagged.to_json();
        assert!(text.ends_with(",\"task\":17,\"pass\":3}"), "{text}");
        let counter = TraceEvent::Counter {
            name: "lp.simplex.pivots".to_string(),
            value: 1,
            span: None,
            pass: Some(0),
        };
        assert!(counter.to_json().ends_with(",\"span\":null,\"pass\":0}"));
        let events = vec![tagged, counter, span(1, None, 0, 100, None)];
        let jsonl = to_jsonl(&events);
        assert_eq!(parse_trace(&jsonl).expect("parse"), events);
        // Untagged events serialize without the field entirely.
        assert!(!events[2].to_json().contains("pass"));
    }

    #[test]
    fn concurrent_task_groups_may_close_out_of_order() {
        // Two worker tasks attached to span 1: task 10 closes at 110, task
        // 11 at 50 — globally decreasing, but each group is internally
        // ordered, so the trace is valid.
        let events = vec![
            span(2, Some(1), 10, 100, Some(10)),
            span(3, Some(1), 20, 30, Some(11)),
            span(1, None, 0, 400, None),
        ];
        validate_trace(&events).expect("valid multi-thread trace");
    }

    #[test]
    fn same_task_group_must_still_close_in_order() {
        let events = vec![
            span(2, Some(1), 10, 100, Some(10)),
            span(3, Some(1), 20, 30, Some(10)),
            span(1, None, 0, 400, None),
        ];
        let e = validate_trace(&events).expect_err("must fail");
        assert!(e.message.contains("same task group"), "{e}");
    }

    #[test]
    fn parent_closing_before_child_is_rejected() {
        let events = vec![span(1, None, 0, 400, None), span(2, Some(1), 10, 20, None)];
        let e = validate_trace(&events).expect_err("must fail");
        assert!(e.message.contains("after its parent"), "{e}");
    }

    fn sample_hist(span: Option<u64>) -> TraceEvent {
        let mut data = HistogramData::new();
        for v in [1, 1, 7] {
            data.record(v);
        }
        TraceEvent::Hist {
            name: "lp.setpart.solve_nodes".to_string(),
            data,
            span,
            pass: None,
        }
    }

    #[test]
    fn hist_events_round_trip_with_documented_shape() {
        let events = vec![sample_hist(Some(1)), span(1, None, 0, 100, None)];
        let text = to_jsonl(&events);
        assert_eq!(
            text.lines().next().expect("line"),
            "{\"type\":\"hist\",\"name\":\"lp.setpart.solve_nodes\",\"count\":3,\"sum\":9,\
             \"min\":1,\"max\":7,\"buckets\":[[1,2],[6,1]],\"span\":1}"
        );
        let parsed = parse_trace(&text).expect("parse");
        assert_eq!(parsed, events);
        assert_eq!(to_jsonl(&parsed), text);
        validate_trace(&events).expect("valid");
    }

    #[test]
    fn hist_validation_rejects_unknown_name_and_dangling_span() {
        let mut events = vec![sample_hist(None)];
        if let TraceEvent::Hist { name, .. } = &mut events[0] {
            *name = "lp.setpart.solve_nodez".to_string();
        }
        let e = validate_trace(&events).expect_err("unknown name");
        assert!(e.message.contains("not in catalog"), "{e}");

        let dangling = vec![sample_hist(Some(9))];
        let e = validate_trace(&dangling).expect_err("dangling span");
        assert!(e.message.contains("missing span"), "{e}");
        validate_trace_truncated(&dangling).expect("tolerated when truncated");
    }

    #[test]
    fn hist_parse_rejects_inconsistent_parts() {
        // count disagrees with the bucket sum.
        let line = "{\"type\":\"hist\",\"name\":\"lp.setpart.solve_nodes\",\"count\":4,\
                    \"sum\":9,\"min\":1,\"max\":7,\"buckets\":[[1,2],[6,1]],\"span\":null}\n";
        let e = parse_trace(line).expect_err("must fail");
        assert!(e.message.contains("sum to 3"), "{e}");
        // Buckets must be [index, count] pairs.
        let line = "{\"type\":\"hist\",\"name\":\"lp.setpart.solve_nodes\",\"count\":1,\
                    \"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[1]],\"span\":null}\n";
        assert!(parse_trace(line).is_err());
    }

    #[test]
    fn truncated_mode_accepts_ring_buffer_suffixes() {
        // A valid trace whose head was evicted: keep only the tail. Span 2
        // references parent 1 whose close event is gone, and the counter
        // references span 3 which was still open at dump time.
        let events = vec![
            span(2, Some(1), 10, 20, None),
            TraceEvent::Counter {
                name: "lp.simplex.pivots".to_string(),
                value: 4,
                span: Some(3),
                pass: None,
            },
        ];
        let e = validate_trace(&events).expect_err("strict rejects dangling parent");
        assert!(e.message.contains("not in trace"), "{e}");
        validate_trace_truncated(&events).expect("truncated accepts");
    }

    #[test]
    fn truncated_mode_still_rejects_real_violations() {
        // Duplicate ids.
        let dup = vec![span(2, None, 0, 5, None), span(2, None, 5, 5, None)];
        assert!(validate_trace_truncated(&dup).is_err());
        // Unknown counter names.
        let bad_name = vec![TraceEvent::Counter {
            name: "no.such".to_string(),
            value: 1,
            span: None,
            pass: None,
        }];
        assert!(validate_trace_truncated(&bad_name).is_err());
        // Same-group close-order violations among retained events.
        let disorder = vec![span(1, None, 0, 500, None), span(2, None, 10, 20, None)];
        assert!(validate_trace_truncated(&disorder).is_err());
        // A child escaping a *retained* parent is still checked.
        let escape = vec![span(2, Some(1), 50, 100, None), span(1, None, 0, 120, None)];
        assert!(validate_trace_truncated(&escape).is_err());
    }
}
