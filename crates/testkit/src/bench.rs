//! A micro-bench harness: warmup, timed iterations, median/min/mean
//! reporting, machine-readable JSON output.
//!
//! Each bench target builds a [`Suite`], registers closures with
//! [`Suite::bench`], and calls [`Suite::finish`], which prints a summary
//! table and writes `BENCH_<suite>.json` (an object with a `results` array;
//! all times in nanoseconds).
//!
//! Environment controls:
//!
//! * `MBR_BENCH_ITERS` — fixed sample count per benchmark (default: as many
//!   as fit the time budget, between 5 and 200),
//! * `MBR_BENCH_WARMUP_MS` / `MBR_BENCH_MEASURE_MS` — time budgets
//!   (defaults 300 / 1500),
//! * `MBR_BENCH_QUICK` — set to run one warmup and three samples, for CI
//!   smoke runs,
//! * `MBR_BENCH_OUT` — directory for the JSON files (default: current
//!   directory).

use std::hint::black_box as std_black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mbr_obs::{json, with_sink, CounterTotals};

/// Re-export of [`std::hint::black_box`] so benches have an optimization
/// barrier without naming `std::hint` everywhere.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// One benchmark's aggregate timings, all in nanoseconds.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name (unique within the suite).
    pub name: String,
    /// Number of timed samples.
    pub samples: u64,
    /// Minimum sample.
    pub min_ns: u128,
    /// Maximum sample.
    pub max_ns: u128,
    /// Arithmetic mean.
    pub mean_ns: u128,
    /// Median (the headline number: robust to scheduler noise).
    pub median_ns: u128,
    /// Counter totals from one extra *observed* pass of the closure under a
    /// counting sink (the timed samples run uninstrumented). Empty when the
    /// code under test emits no counters. Sorted by counter name.
    pub counters: Vec<(String, u64)>,
}

/// A named collection of benchmarks that reports together.
pub struct Suite {
    name: String,
    results: Vec<Measurement>,
    warmup: Duration,
    measure: Duration,
    fixed_samples: Option<u64>,
    out_dir: PathBuf,
}

impl Suite {
    /// Creates a suite named `name` (controls the JSON file name).
    pub fn new(name: &str) -> Suite {
        let quick = std::env::var("MBR_BENCH_QUICK").is_ok_and(|v| v != "0");
        let env_ms = |key: &str, default: u64| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Suite {
            name: name.to_string(),
            results: Vec::new(),
            warmup: Duration::from_millis(if quick {
                0
            } else {
                env_ms("MBR_BENCH_WARMUP_MS", 300)
            }),
            measure: Duration::from_millis(env_ms("MBR_BENCH_MEASURE_MS", 1_500)),
            fixed_samples: if quick {
                Some(3)
            } else {
                std::env::var("MBR_BENCH_ITERS")
                    .ok()
                    .and_then(|v| v.parse().ok())
            },
            out_dir: std::env::var_os("MBR_BENCH_OUT")
                .map_or_else(|| PathBuf::from("."), PathBuf::from),
        }
    }

    /// Times `f`, recording one sample per call. The closure's return value
    /// passes through [`black_box`] so the computation is not optimized
    /// away.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        // Warmup: at least one call, then until the budget elapses.
        let warm_start = Instant::now();
        let mut warm_calls = 0u64;
        let mut warm_total = Duration::ZERO;
        loop {
            let t = Instant::now();
            black_box(f());
            warm_total += t.elapsed();
            warm_calls += 1;
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }
        let per_call = warm_total / warm_calls.max(1) as u32;

        let samples = self.fixed_samples.unwrap_or_else(|| {
            if per_call.is_zero() {
                200
            } else {
                (self.measure.as_nanos() / per_call.as_nanos().max(1)).clamp(5, 200) as u64
            }
        });

        let mut times: Vec<u128> = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let t = Instant::now();
            black_box(f());
            times.push(t.elapsed().as_nanos());
        }
        times.sort_unstable();
        let min_ns = *times.first().expect("at least one sample");
        let max_ns = *times.last().expect("at least one sample");
        let mean_ns = times.iter().sum::<u128>() / times.len() as u128;
        let median_ns = if times.len() % 2 == 1 {
            times[times.len() / 2]
        } else {
            (times[times.len() / 2 - 1] + times[times.len() / 2]) / 2
        };
        // One extra observed pass: totals of every counter the closure's
        // code emits, attached to the measurement (and the JSON output) so
        // a timing regression can be traced to an algorithmic-work change.
        let totals = Arc::new(CounterTotals::default());
        with_sink(totals.clone(), || {
            black_box(f());
        });
        let counters: Vec<(String, u64)> = totals.totals().into_iter().collect();

        let m = Measurement {
            name: name.to_string(),
            samples,
            min_ns,
            max_ns,
            mean_ns,
            median_ns,
            counters,
        };
        println!(
            "bench {:<40} median {:>12}  mean {:>12}  min {:>12}  ({} samples)",
            format!("{}/{}", self.name, m.name),
            fmt_ns(m.median_ns),
            fmt_ns(m.mean_ns),
            fmt_ns(m.min_ns),
            m.samples,
        );
        self.results.push(m);
    }

    /// Prints the summary and writes `BENCH_<suite>.json`.
    ///
    /// # Panics
    ///
    /// Panics if the JSON file cannot be written — a bench run whose
    /// results vanish silently is worse than a loud failure.
    pub fn finish(self) {
        std::fs::create_dir_all(&self.out_dir).unwrap_or_else(|e| {
            panic!("creating bench output dir {}: {e}", self.out_dir.display())
        });
        let path = self.out_dir.join(format!("BENCH_{}.json", self.name));
        let json = self.to_json();
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("writing bench results to {}: {e}", path.display()));
        println!(
            "suite {}: {} benchmarks -> {}",
            self.name,
            self.results.len(),
            path.display()
        );
    }

    /// The JSON document `finish` writes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"suite\": ");
        json::write_str(&mut out, &self.name);
        out.push_str(",\n  \"unit\": \"ns\",\n  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            out.push_str("    {\"name\": ");
            json::write_str(&mut out, &m.name);
            out.push_str(&format!(
                ", \"samples\": {}, \"median_ns\": {}, \
                 \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}",
                m.samples, m.median_ns, m.mean_ns, m.min_ns, m.max_ns,
            ));
            if !m.counters.is_empty() {
                out.push_str(", \"counters\": {");
                for (j, (name, value)) in m.counters.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    json::write_str(&mut out, name);
                    out.push_str(&format!(": {value}"));
                }
                out.push('}');
            }
            out.push_str(&format!(
                "}}{}\n",
                if i + 1 == self.results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_suite(name: &str) -> Suite {
        let mut s = Suite::new(name);
        s.warmup = Duration::ZERO;
        s.fixed_samples = Some(5);
        s
    }

    #[test]
    fn measurements_are_ordered_and_counted() {
        let mut suite = quick_suite("unit");
        suite.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        let m = &suite.results[0];
        assert_eq!(m.samples, 5);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.median_ns <= m.max_ns);
        assert!(m.min_ns <= m.mean_ns && m.mean_ns <= m.max_ns);
    }

    #[test]
    fn counters_from_observed_pass_reach_json() {
        use mbr_obs::{counter, Counter};
        let mut suite = quick_suite("counters");
        suite.bench("emitting", || {
            counter(Counter::SimplexPivots, 7);
            1u32
        });
        let m = &suite.results[0];
        assert_eq!(m.counters, vec![(String::from("lp.simplex.pivots"), 7)]);
        let json = suite.to_json();
        assert!(json.contains("\"counters\": {\"lp.simplex.pivots\": 7}"));
    }

    #[test]
    fn json_bytes_are_pinned() {
        let mut suite = quick_suite("pin \"suite\"");
        let measurement = |name: &str, counters: Vec<(String, u64)>| Measurement {
            name: name.to_string(),
            samples: 3,
            min_ns: 10,
            max_ns: 30,
            mean_ns: 20,
            median_ns: 19,
            counters,
        };
        suite.results = vec![
            measurement(
                "with\tcounters",
                vec![
                    ("lp.simplex.pivots".to_string(), 7),
                    ("sta.full_analyses".to_string(), 1),
                ],
            ),
            measurement("plain", Vec::new()),
        ];
        assert_eq!(
            suite.to_json(),
            r#"{
  "suite": "pin \"suite\"",
  "unit": "ns",
  "results": [
    {"name": "with\tcounters", "samples": 3, "median_ns": 19, "mean_ns": 20, "min_ns": 10, "max_ns": 30, "counters": {"lp.simplex.pivots": 7, "sta.full_analyses": 1}},
    {"name": "plain", "samples": 3, "median_ns": 19, "mean_ns": 20, "min_ns": 10, "max_ns": 30}
  ]
}
"#
        );
    }

    #[test]
    fn json_is_well_formed() {
        let mut suite = quick_suite("json \"quoted\"");
        suite.bench("noop", || 1u32);
        suite.bench("noop2", || 2u32);
        let json = suite.to_json();
        assert!(json.contains("\"suite\": \"json \\\"quoted\\\"\""));
        assert!(json.contains("\"median_ns\""));
        assert_eq!(json.matches("\"name\"").count(), 2);
        // Exactly one comma between the two result objects.
        assert_eq!(json.matches("},\n").count(), 1);
    }
}
