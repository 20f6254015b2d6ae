//! Sample statistics, the benchmark's own layer spans, and the tally of
//! attempted and failed operations.

use std::collections::BTreeMap;
use std::time::Instant;

/// The samples of one measured quantity, in the order they were taken.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        assert!(!self.0.is_empty(), "statistic of an empty sample");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle values for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least a share `q`
    /// of all samples at or below it. At `q = 0.9` over 100 samples this is
    /// the 90th value, with 10 samples beyond it.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds as milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Busy time per layer within one request (one replayed compose or one
/// ECO): every call into a layer's entry point is a span of that layer,
/// a child of the request. Spans are summed as they close.
#[derive(Debug, Default)]
pub struct LayerSpans {
    busy_ms: BTreeMap<&'static str, f64>,
}

impl LayerSpans {
    /// Runs `f` as one span of `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        *self.busy_ms.entry(layer).or_default() += ms_since(start);
        result
    }

    /// Total busy time of `layer` (0 when it never ran).
    pub fn busy_ms(&self, layer: &str) -> f64 {
        self.busy_ms.get(layer).copied().unwrap_or(0.0)
    }

    /// Busy time of all layers together.
    pub fn total_ms(&self) -> f64 {
        self.busy_ms.values().sum()
    }
}

/// Operations attempted and failed in one run. Every failure is also
/// reported on standard error.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `Err` counts it as failed.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED: {why}");
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_and_nearest_rank_quantile() {
        assert_eq!(samples(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(samples(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        let hundred = samples(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(hundred.quantile(0.9), 90.0);
        assert_eq!(hundred.quantile(0.5), 50.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert!(t.record(Ok(())));
        assert!(!t.record(Err("boom".into())));
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
