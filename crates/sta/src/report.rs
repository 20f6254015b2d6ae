//! Timing results: per-pin slack, endpoint statistics, register slack
//! summaries and useful-skew windows.

use std::sync::OnceLock;

use mbr_netlist::{Design, InstId, PinId};
use mbr_obs::{self as obs, Counter};

/// The feasible useful-skew window of a register (Fishburn bounds).
///
/// Adding `δ` to the register's clock offset raises its D-side slack by `δ`
/// and lowers its Q-side (downstream) slack by `δ`, so without creating new
/// violations `δ ∈ [-slack_D, +slack_Q]`. A register with negative D slack
/// *wants* a positive offset; one with negative Q slack wants a negative
/// offset — exactly the "opposite forces" the Section 2 timing-compatibility
/// rule avoids mixing inside one MBR.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewWindow {
    /// Lower bound on the additional offset (`-slack_D`).
    pub lo: f64,
    /// Upper bound on the additional offset (`+slack_Q`).
    pub hi: f64,
}

impl SkewWindow {
    /// Whether some offset in the window exists (`lo <= hi`).
    pub fn is_feasible(&self) -> bool {
        self.lo <= self.hi
    }

    /// The midpoint offset — the balanced choice used by skew assignment.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Intersection with another window.
    pub fn intersect(&self, other: &SkewWindow) -> SkewWindow {
        SkewWindow {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }
}

/// Results of a timing analysis. Produced by [`crate::Sta`]; indexes are pin
/// ids of the analyzed design.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Latest arrival per pin (`-∞` where unreachable).
    pub(crate) arrival: Vec<f64>,
    /// Earliest required per pin (`+∞` where unconstrained).
    pub(crate) required: Vec<f64>,
    /// Endpoint pins (register D pins and output ports).
    pub(crate) endpoints: Vec<PinId>,
    /// WNS, TNS and the failing count, folded on the first read after the
    /// analysis or update that last changed the timing.
    summary: OnceLock<Summary>,
}

/// The endpoint summary of one timing state.
#[derive(Clone, Copy, Debug)]
struct Summary {
    wns: f64,
    tns: f64,
    failing_endpoints: usize,
}

impl TimingReport {
    pub(crate) fn empty(num_pins: usize) -> Self {
        TimingReport {
            arrival: vec![f64::NEG_INFINITY; num_pins],
            required: vec![f64::INFINITY; num_pins],
            endpoints: Vec::new(),
            summary: OnceLock::new(),
        }
    }

    /// Collects the endpoint list from a full build.
    pub(crate) fn refresh_endpoints(&mut self, endpoint_required: &[Option<f64>]) {
        self.endpoints = endpoint_required
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|_| PinId::from_index(i)))
            .collect();
        self.invalidate_summary();
    }

    /// Drops the folded summary after arrivals or required times changed;
    /// the next read folds it again.
    pub(crate) fn invalidate_summary(&mut self) {
        self.summary.take();
    }

    /// Worst negative slack over endpoints (positive = all met), ps.
    pub fn wns(&self) -> f64 {
        self.summary().wns
    }

    /// Total negative slack (sum over violating endpoints, ≤ 0), ps.
    pub fn tns(&self) -> f64 {
        self.summary().tns
    }

    /// Number of endpoints with negative slack.
    pub fn failing_endpoints(&self) -> usize {
        self.summary().failing_endpoints
    }

    /// Folds WNS, TNS and the failing count over the endpoint list, in list
    /// order, on the first read. Full builds and incremental updates fold
    /// the same list, so the sums are bit-identical whenever the slacks
    /// are.
    fn summary(&self) -> &Summary {
        self.summary.get_or_init(|| {
            obs::counter(Counter::StaSummaryFolds, 1);
            let mut sum = Summary {
                wns: f64::INFINITY,
                tns: 0.0,
                failing_endpoints: 0,
            };
            for &p in &self.endpoints {
                if let Some(s) = self.slack(p) {
                    sum.wns = sum.wns.min(s);
                    if s < 0.0 {
                        sum.tns += s;
                        sum.failing_endpoints += 1;
                    }
                }
            }
            if self.endpoints.is_empty() {
                sum.wns = 0.0;
            }
            sum
        })
    }

    /// Arrival time at a pin, if reachable from any source.
    pub fn arrival(&self, pin: PinId) -> Option<f64> {
        let a = self.arrival[pin.index()];
        (a > f64::NEG_INFINITY).then_some(a)
    }

    /// Required time at a pin, if constrained by any endpoint.
    pub fn required(&self, pin: PinId) -> Option<f64> {
        let r = self.required[pin.index()];
        (r < f64::INFINITY).then_some(r)
    }

    /// Slack at a pin (`required − arrival`); `None` when either side is
    /// undefined (unconstrained or unreachable pins).
    pub fn slack(&self, pin: PinId) -> Option<f64> {
        match (self.arrival(pin), self.required(pin)) {
            (Some(a), Some(r)) => Some(r - a),
            _ => None,
        }
    }

    /// Timing endpoints (register D pins and constrained output ports).
    pub fn endpoints(&self) -> &[PinId] {
        &self.endpoints
    }

    /// Worst D-pin slack of a register over its connected bits.
    ///
    /// Unconstrained bits (e.g. D fed straight from an unconstrained source)
    /// are skipped; a register with no constrained D pin reports `None`.
    pub fn register_d_slack(&self, design: &Design, inst: InstId) -> Option<f64> {
        design
            .register_bit_pins(inst)
            .iter()
            .filter_map(|b| self.slack(b.d))
            .min_by(|a, b| a.partial_cmp(b).expect("slacks are finite"))
    }

    /// Worst Q-pin slack of a register over its connected bits.
    pub fn register_q_slack(&self, design: &Design, inst: InstId) -> Option<f64> {
        design
            .register_bit_pins(inst)
            .iter()
            .filter_map(|b| self.slack(b.q))
            .min_by(|a, b| a.partial_cmp(b).expect("slacks are finite"))
    }

    /// Histogram of endpoint slacks over `bins` equal-width buckets between
    /// the worst and best endpoint slack (plus the bounds). Used to
    /// calibrate clock periods and to sanity-check workload generators.
    ///
    /// Returns `(lo, hi, counts)`; empty designs yield `(0, 0, [])`.
    pub fn slack_histogram(&self, bins: usize) -> (f64, f64, Vec<usize>) {
        let slacks: Vec<f64> = self
            .endpoints
            .iter()
            .filter_map(|&p| self.slack(p))
            .collect();
        mbr_obs::hist::linear_bins(&slacks, bins)
    }

    /// The feasible additional-skew window of a register:
    /// `[-slack_D, +slack_Q]`, treating missing sides as unbounded in the
    /// harmless direction (an unconstrained D pin never limits negative
    /// skew, an unloaded Q never limits positive skew).
    pub fn skew_window(&self, design: &Design, inst: InstId) -> SkewWindow {
        let d = self.register_d_slack(design, inst);
        let q = self.register_q_slack(design, inst);
        SkewWindow {
            lo: d.map_or(f64::NEG_INFINITY, |s| -s),
            hi: q.map_or(f64::INFINITY, |s| s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_window_math() {
        let w = SkewWindow {
            lo: -10.0,
            hi: 30.0,
        };
        assert!(w.is_feasible());
        assert_eq!(w.midpoint(), 10.0);
        let i = w.intersect(&SkewWindow { lo: 0.0, hi: 50.0 });
        assert_eq!(i, SkewWindow { lo: 0.0, hi: 30.0 });
        assert!(!SkewWindow { lo: 5.0, hi: -5.0 }.is_feasible());
    }
}
