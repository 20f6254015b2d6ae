//! Perf diffing: compare two traces or two `BENCH_*.json` files, and gate
//! counters against a committed `PERF_baseline.json` (DESIGN.md §13).
//!
//! The tolerance policy follows the determinism contract:
//!
//! * **counters** and **non-timing histograms** are algorithmic quantities
//!   — thread-count-invariant and identical between same-seed runs — so
//!   any difference is a *failure*;
//! * **timing histograms** have deterministic observation *counts* (one
//!   per solve) but wall-clock values, so counts must match exactly while
//!   quantile shifts beyond the relative tolerance are *advisory flags*;
//! * **span timings** are advisory: shifts beyond tolerance are flagged,
//!   never failed, because wall-clock noise between CI hosts would make a
//!   hard gate flaky. Structural span-count differences are flagged too.
//!
//! The baseline gate ratchets counters in the direction each one improves
//! (`Counter::better`): a work counter above its committed baseline, or a
//! reuse counter below it, fails the build; improvements and new counters
//! are reported with a hint to refresh via `mbr-perfdiff --write-baseline`.

use std::collections::{BTreeMap, BTreeSet};

use crate::catalog::{Better, Counter, Histogram};
use crate::hist::HistogramData;
use crate::json::{self, Value};
use crate::summary::Summary;

/// The outcome of one diff: human-readable lines plus severity tallies.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Report lines, in emission order.
    pub lines: Vec<String>,
    /// Hard failures: exact-class mismatches or baseline regressions.
    pub failures: usize,
    /// Advisory flags: timing shifts beyond tolerance, structure drift.
    pub flags: usize,
}

impl DiffReport {
    fn fail(&mut self, line: String) {
        self.failures += 1;
        self.lines.push(format!("FAIL  {line}"));
    }

    fn flag(&mut self, line: String) {
        self.flags += 1;
        self.lines.push(format!("note  {line}"));
    }

    /// Whether the diff found no hard failures.
    pub fn is_clean(&self) -> bool {
        self.failures == 0
    }

    /// The report text: every line plus a one-line verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "perfdiff: {} failure(s), {} advisory flag(s)\n",
            self.failures, self.flags
        ));
        out
    }
}

/// Relative difference in percent, against the larger magnitude.
fn rel_pct(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        100.0 * (a - b).abs() / denom
    }
}

fn diff_counter_maps(
    what: &str,
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
    report: &mut DiffReport,
) {
    let names: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for name in names {
        match (a.get(name), b.get(name)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) => report.fail(format!("{what} {name}: {x} != {y}")),
            (Some(x), None) => report.fail(format!("{what} {name}: only in A (value {x})")),
            (None, Some(y)) => report.fail(format!("{what} {name}: only in B (value {y})")),
            (None, None) => unreachable!("name from union"),
        }
    }
}

/// Appends a bucket-by-bucket shift description for two histograms.
fn hist_shift_lines(name: &str, a: &HistogramData, b: &HistogramData, report: &mut DiffReport) {
    let buckets_a: BTreeMap<u32, u64> = a.buckets().collect();
    let buckets_b: BTreeMap<u32, u64> = b.buckets().collect();
    let indices: BTreeSet<u32> = buckets_a.keys().chain(buckets_b.keys()).copied().collect();
    for index in indices {
        let x = buckets_a.get(&index).copied().unwrap_or(0);
        let y = buckets_b.get(&index).copied().unwrap_or(0);
        if x != y {
            report
                .lines
                .push(format!("      {name} bucket {index}: {x} -> {y}"));
        }
    }
}

/// Diffs two trace summaries (see the module docs for the severity of
/// each section). `tolerance_pct` governs the advisory timing checks.
pub fn diff_traces(a: &Summary, b: &Summary, tolerance_pct: f64) -> DiffReport {
    let mut report = DiffReport::default();
    diff_counter_maps("counter", &a.counters, &b.counters, &mut report);

    let hist_names: BTreeSet<&String> = a.hists.keys().chain(b.hists.keys()).collect();
    for name in hist_names {
        let timing = Histogram::from_name(name).is_some_and(Histogram::is_timing);
        match (a.hists.get(name), b.hists.get(name)) {
            (Some(x), Some(y)) if !timing => {
                if x != y {
                    report.fail(format!(
                        "histogram {name}: distributions differ (count {} vs {})",
                        x.count(),
                        y.count()
                    ));
                    hist_shift_lines(name, x, y, &mut report);
                }
            }
            (Some(x), Some(y)) => {
                // Timing histogram: the observation count is algorithmic,
                // the values are wall-clock.
                if x.count() != y.count() {
                    report.fail(format!(
                        "timing histogram {name}: observation count {} != {}",
                        x.count(),
                        y.count()
                    ));
                }
                for (q, label) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                    let (qx, qy) = (x.quantile(q), y.quantile(q));
                    let shift = rel_pct(qx as f64, qy as f64);
                    if shift > tolerance_pct {
                        report.flag(format!(
                            "timing histogram {name} {label}: {qx}ns -> {qy}ns ({shift:.1}% shift)"
                        ));
                    }
                }
            }
            (Some(_), None) => report.fail(format!("histogram {name}: only in A")),
            (None, Some(_)) => report.fail(format!("histogram {name}: only in B")),
            (None, None) => unreachable!("name from union"),
        }
    }

    let span_names: BTreeSet<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    for name in span_names {
        let (ca, ta) = a.spans.get(name).copied().unwrap_or((0, 0));
        let (cb, tb) = b.spans.get(name).copied().unwrap_or((0, 0));
        if ca != cb {
            report.flag(format!("span {name}: entered {ca} vs {cb} times"));
        }
        let shift = rel_pct(ta as f64, tb as f64);
        if ca == cb && shift > tolerance_pct {
            report.flag(format!(
                "span {name}: total {ta}ns -> {tb}ns ({shift:.1}% shift)"
            ));
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Bench files.
// ---------------------------------------------------------------------------

/// One measurement from a `BENCH_*.json` file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Benchmark case name.
    pub name: String,
    /// Median wall-clock per iteration, nanoseconds.
    pub median_ns: u64,
    /// Counter totals observed during one measured pass.
    pub counters: BTreeMap<String, u64>,
}

/// A parsed `BENCH_*.json` file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    /// Suite name.
    pub suite: String,
    /// Results, in file order.
    pub results: Vec<BenchResult>,
}

/// Parses the bench JSON the testkit suite writer emits.
pub fn parse_bench(text: &str) -> Result<BenchFile, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let suite = doc
        .get("suite")
        .and_then(Value::as_str)
        .ok_or("missing 'suite'")?
        .to_string();
    let Some(Value::Arr(results)) = doc.get("results") else {
        return Err("missing 'results' array".to_string());
    };
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        let name = r
            .get("name")
            .and_then(Value::as_str)
            .ok_or("result missing 'name'")?
            .to_string();
        let median_ns = r
            .get("median_ns")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result '{name}' missing 'median_ns'"))?;
        let mut counters = BTreeMap::new();
        match r.get("counters") {
            // The suite writer omits an empty counter map.
            None => {}
            Some(Value::Obj(fields)) => {
                for (k, v) in fields {
                    let v = v
                        .as_u64()
                        .ok_or_else(|| format!("counter '{k}' is not an unsigned integer"))?;
                    counters.insert(k.clone(), v);
                }
            }
            Some(_) => return Err(format!("result '{name}': 'counters' is not an object")),
        }
        out.push(BenchResult {
            name,
            median_ns,
            counters,
        });
    }
    Ok(BenchFile {
        suite,
        results: out,
    })
}

/// Diffs two bench files: counters exactly, medians with tolerance.
pub fn diff_bench(a: &BenchFile, b: &BenchFile, tolerance_pct: f64) -> DiffReport {
    let mut report = DiffReport::default();
    if a.suite != b.suite {
        report.flag(format!("suite name: '{}' vs '{}'", a.suite, b.suite));
    }
    let index = |f: &BenchFile| -> BTreeMap<String, BenchResult> {
        f.results
            .iter()
            .map(|r| (r.name.clone(), r.clone()))
            .collect()
    };
    let (ia, ib) = (index(a), index(b));
    let names: BTreeSet<&String> = ia.keys().chain(ib.keys()).collect();
    for name in names {
        match (ia.get(name), ib.get(name)) {
            (Some(x), Some(y)) => {
                diff_counter_maps(
                    &format!("bench {name}:"),
                    &x.counters,
                    &y.counters,
                    &mut report,
                );
                let shift = rel_pct(x.median_ns as f64, y.median_ns as f64);
                if shift > tolerance_pct {
                    report.flag(format!(
                        "bench {name}: median {}ns -> {}ns ({shift:.1}% shift)",
                        x.median_ns, y.median_ns
                    ));
                }
            }
            (Some(_), None) => report.fail(format!("bench {name}: only in A")),
            (None, Some(_)) => report.fail(format!("bench {name}: only in B")),
            (None, None) => unreachable!("name from union"),
        }
    }
    report
}

// ---------------------------------------------------------------------------
// The committed baseline.
// ---------------------------------------------------------------------------

/// The committed `PERF_baseline.json`: the counter totals of a reference
/// deterministic run (the tier-1 `check -- d1` trace).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline {
    /// Where the baseline numbers came from (free-form provenance note).
    pub source: String,
    /// Counter name → committed total.
    pub counters: BTreeMap<String, u64>,
}

/// Parses a `PERF_baseline.json` document.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_u64)
        .ok_or("missing 'schema'")?;
    if schema != 1 {
        return Err(format!("unsupported baseline schema {schema}"));
    }
    let source = doc
        .get("source")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let Some(Value::Obj(fields)) = doc.get("counters") else {
        return Err("missing 'counters' object".to_string());
    };
    let mut counters = BTreeMap::new();
    for (k, v) in fields {
        let v = v
            .as_u64()
            .ok_or_else(|| format!("counter '{k}' is not an unsigned integer"))?;
        counters.insert(k.clone(), v);
    }
    Ok(Baseline { source, counters })
}

/// Serialises a baseline deterministically (sorted counters, fixed
/// layout, trailing newline) so regeneration produces minimal diffs.
pub fn render_baseline(baseline: &Baseline) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"source\": ");
    json::write_str(&mut out, &baseline.source);
    out.push_str(",\n  \"counters\": {");
    for (i, (name, value)) in baseline.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        json::write_str(&mut out, name);
        out.push_str(&format!(": {value}"));
    }
    if baseline.counters.is_empty() {
        out.push_str("}\n}\n");
    } else {
        out.push_str("\n  }\n}\n");
    }
    out
}

/// Gates current counter totals against the committed baseline: a counter
/// that moved against its `Counter::better` direction (a work counter up,
/// a reuse counter down; names outside the catalog count as work) is a
/// failure (the build gate); improvements, new counters and vanished
/// counters are reported with a refresh hint — vanished ones as failures,
/// since losing a counter means losing regression coverage.
pub fn diff_against_baseline(baseline: &Baseline, current: &BTreeMap<String, u64>) -> DiffReport {
    let mut report = DiffReport::default();
    let names: BTreeSet<&String> = baseline.counters.keys().chain(current.keys()).collect();
    for name in names {
        match (baseline.counters.get(name), current.get(name)) {
            (Some(base), Some(now)) if now != base => {
                let better = Counter::from_name(name).map_or(Better::Lower, Counter::better);
                let sign = if now > base { '+' } else { '-' };
                let pct = rel_pct(*base as f64, *now as f64);
                if (now > base) == (better == Better::Lower) {
                    report.fail(format!(
                        "counter {name} regressed: baseline {base} -> {now} ({sign}{pct:.1}%)"
                    ));
                } else {
                    report.flag(format!(
                        "counter {name} improved: baseline {base} -> {now}; refresh with --write-baseline"
                    ));
                }
            }
            (Some(_), Some(_)) => {}
            (Some(base), None) => {
                report.fail(format!(
                    "counter {name} vanished (baseline {base}); refresh with --write-baseline if intended"
                ));
            }
            (None, Some(now)) => {
                report.flag(format!(
                    "new counter {name} (value {now}) not in baseline; add with --write-baseline"
                ));
            }
            (None, None) => unreachable!("name from union"),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn counter_event(name: &str, value: u64) -> TraceEvent {
        TraceEvent::Counter {
            name: name.to_string(),
            value,
            span: None,
            pass: None,
        }
    }

    fn hist_event(name: &str, values: &[u64]) -> TraceEvent {
        let mut data = HistogramData::new();
        for &v in values {
            data.record(v);
        }
        TraceEvent::Hist {
            name: name.to_string(),
            data,
            span: None,
            pass: None,
        }
    }

    #[test]
    fn identical_traces_diff_clean() {
        let events = vec![
            counter_event("lp.simplex.pivots", 5),
            hist_event("lp.setpart.solve_nodes", &[1, 9, 40]),
            hist_event("lp.setpart.solve_ns", &[100, 220]),
        ];
        let s = Summary::from_events(&events);
        let report = diff_traces(&s, &s, 10.0);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.flags, 0, "{}", report.render());
    }

    #[test]
    fn counter_and_histogram_differences_fail() {
        let a = Summary::from_events(&[
            counter_event("lp.simplex.pivots", 5),
            hist_event("lp.setpart.solve_nodes", &[1, 9]),
        ]);
        let b = Summary::from_events(&[
            counter_event("lp.simplex.pivots", 6),
            hist_event("lp.setpart.solve_nodes", &[1, 12]),
        ]);
        let report = diff_traces(&a, &b, 10.0);
        assert_eq!(report.failures, 2, "{}", report.render());
        let text = report.render();
        assert!(text.contains("counter lp.simplex.pivots: 5 != 6"), "{text}");
        assert!(text.contains("distributions differ"), "{text}");
        assert!(text.contains("bucket"), "shift report expected: {text}");
    }

    #[test]
    fn timing_histograms_shift_advisory_but_count_exact() {
        // Same observation counts, very different values: advisory only.
        let a = Summary::from_events(&[hist_event("lp.setpart.solve_ns", &[100, 200])]);
        let b = Summary::from_events(&[hist_event("lp.setpart.solve_ns", &[1_000, 2_000])]);
        let report = diff_traces(&a, &b, 10.0);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.flags > 0, "{}", report.render());
        // Different observation counts: the algorithmic part regressed.
        let c = Summary::from_events(&[hist_event("lp.setpart.solve_ns", &[100, 200, 300])]);
        let report = diff_traces(&a, &c, 10.0);
        assert_eq!(report.failures, 1, "{}", report.render());
    }

    #[test]
    fn span_drift_is_advisory() {
        let mk = |dur: u64| {
            Summary::from_events(&[TraceEvent::Span {
                id: 1,
                parent: None,
                name: "flow.compose".to_string(),
                start_ns: 0,
                dur_ns: dur,
                task: None,
                pass: None,
            }])
        };
        let report = diff_traces(&mk(100), &mk(300), 10.0);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.flags, 1, "{}", report.render());
    }

    const BENCH_A: &str = r#"{
      "suite": "par",
      "unit": "ns",
      "results": [
        {"name": "d1", "samples": 5, "median_ns": 1000, "mean_ns": 1100,
         "min_ns": 900, "max_ns": 1300,
         "counters": {"lp.simplex.pivots": 42}}
      ]
    }"#;

    #[test]
    fn bench_files_parse_and_diff() {
        let a = parse_bench(BENCH_A).expect("parse");
        assert_eq!(a.suite, "par");
        assert_eq!(a.results.len(), 1);
        assert_eq!(a.results[0].median_ns, 1000);
        assert_eq!(a.results[0].counters.get("lp.simplex.pivots"), Some(&42));
        // Identical: clean.
        assert!(diff_bench(&a, &a, 10.0).is_clean());
        // Counter drift: failure. Median drift: advisory.
        let b_text = BENCH_A.replace("42", "43").replace("1000", "2000");
        let b = parse_bench(&b_text).expect("parse");
        let report = diff_bench(&a, &b, 10.0);
        assert_eq!(report.failures, 1, "{}", report.render());
        assert!(report.flags >= 1, "{}", report.render());
    }

    #[test]
    fn baseline_round_trips_and_gates() {
        let baseline = Baseline {
            source: "check -- d1".to_string(),
            counters: BTreeMap::from([
                ("lp.simplex.pivots".to_string(), 100),
                ("lp.setpart.solves".to_string(), 7),
            ]),
        };
        let text = render_baseline(&baseline);
        assert_eq!(parse_baseline(&text).expect("parse"), baseline);
        // Regression fails; improvement and new counters advise.
        let current = BTreeMap::from([
            ("lp.simplex.pivots".to_string(), 120),
            ("lp.setpart.solves".to_string(), 6),
            ("sta.full_analyses".to_string(), 1),
        ]);
        let report = diff_against_baseline(&baseline, &current);
        assert_eq!(report.failures, 1, "{}", report.render());
        assert_eq!(report.flags, 2, "{}", report.render());
        assert!(report.render().contains("regressed"), "{}", report.render());
        // A vanished counter is a failure (lost coverage).
        let report = diff_against_baseline(&baseline, &BTreeMap::new());
        assert_eq!(report.failures, 2, "{}", report.render());
        // Matching totals gate clean.
        let report = diff_against_baseline(&baseline, &baseline.counters);
        assert!(
            report.is_clean() && report.flags == 0,
            "{}",
            report.render()
        );
    }

    /// The counters that count work a session avoided.
    const REUSE: [&str; 1] = ["core.session.partitions_reused"];

    /// `(failures, flags, text)` of gating `name` at `now` against a
    /// baseline of 100.
    fn gate(name: &str, now: u64) -> (usize, usize, String) {
        let baseline = Baseline {
            source: "check -- d1".to_string(),
            counters: BTreeMap::from([(name.to_string(), 100)]),
        };
        let report = diff_against_baseline(&baseline, &BTreeMap::from([(name.to_string(), now)]));
        (report.failures, report.flags, report.render())
    }

    #[test]
    fn work_counters_fail_on_a_rise_and_advise_on_a_drop() {
        // Every other catalog counter counts work, and so does a name the
        // catalog does not know.
        let work = Counter::ALL
            .into_iter()
            .filter(|c| !REUSE.contains(&c.name()))
            .inspect(|c| assert_eq!(c.better(), Better::Lower, "{c}"))
            .map(Counter::name)
            .chain(["not.in.the.catalog"]);
        for name in work {
            let (failures, flags, text) = gate(name, 101);
            assert_eq!((failures, flags), (1, 0), "{text}");
            assert!(
                text.contains("regressed: baseline 100 -> 101 (+1.0%)"),
                "{text}"
            );
            let (failures, flags, text) = gate(name, 99);
            assert_eq!((failures, flags), (0, 1), "{text}");
            assert!(text.contains("improved"), "{text}");
        }
    }

    #[test]
    fn reuse_counters_fail_on_a_drop_and_advise_on_a_rise() {
        for name in REUSE {
            assert_eq!(
                Counter::from_name(name).map(Counter::better),
                Some(Better::Higher),
                "{name}"
            );
            let (failures, flags, text) = gate(name, 40);
            assert_eq!((failures, flags), (1, 0), "{text}");
            assert!(
                text.contains("regressed: baseline 100 -> 40 (-60.0%)"),
                "{text}"
            );
            let (failures, flags, text) = gate(name, 130);
            assert_eq!((failures, flags), (0, 1), "{text}");
            assert!(text.contains("improved"), "{text}");
        }
    }

    #[test]
    fn committed_baselines_re_render_byte_identically() {
        for text in [
            include_str!("../../../PERF_baseline.json"),
            include_str!("../../../PERF_baseline_incr.json"),
            include_str!("../../../PERF_baseline_presets.json"),
        ] {
            let baseline = parse_baseline(text).expect("committed baseline parses");
            assert_eq!(render_baseline(&baseline), text);
        }
    }

    #[test]
    fn baseline_escapes_control_characters() {
        let baseline = Baseline {
            source: "a\tb\rc\u{1}d \"q\" \\".to_string(),
            counters: BTreeMap::from([
                ("lp.simplex.pivots".to_string(), 3),
                ("odd\"name\t".to_string(), 1),
            ]),
        };
        let text = render_baseline(&baseline);
        assert!(!text.chars().any(|c| c < ' ' && c != '\n'), "{text:?}");
        assert_eq!(parse_baseline(&text).expect("parse"), baseline);
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        assert!(parse_baseline("{").is_err());
        assert!(parse_baseline("{\"schema\": 2, \"counters\": {}}").is_err());
        assert!(parse_baseline("{\"schema\": 1}").is_err());
        assert!(parse_bench("{\"suite\": \"x\"}").is_err());
    }

    #[test]
    fn bench_counters_must_be_an_object_when_present() {
        // Omitted counters are an empty map (the suite writer drops them).
        let bare = BENCH_A.replace(r#""counters""#, r#""unrelated""#);
        let parsed = parse_bench(&bare).expect("parse");
        assert!(parsed.results[0].counters.is_empty());
        for bad in ["[42]", "42", "null", "\"x\""] {
            let text = BENCH_A.replace(r#"{"lp.simplex.pivots": 42}"#, bad);
            let err = parse_bench(&text).expect_err(bad);
            assert!(err.contains("'counters' is not an object"), "{bad}: {err}");
            assert!(err.contains("result '"), "{bad}: {err}");
        }
    }
}
