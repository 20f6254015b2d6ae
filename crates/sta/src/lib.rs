#![warn(missing_docs)]
//! Graph-based static timing analysis over the MBR netlist substrate.
//!
//! The composition flow is *timing-driven*: register compatibility (Section
//! 2) is decided from per-pin slacks, the feasible placement region of a
//! register is derived from slack-to-distance conversion, and useful-skew
//! windows bound the clock offsets assignable after composition. This crate
//! computes all of that:
//!
//! * [`DelayModel`] — the linear delay model (cell: intrinsic + drive
//!   resistance × load; wire: RC from Manhattan length), matching the
//!   "drive resistance" abstraction of Section 4.1,
//! * [`Sta`] — builds a levelized timing graph over pins, propagates
//!   arrivals forward and required times backward, honouring per-register
//!   useful-skew clock offsets,
//! * [`TimingReport`] — per-pin slack, WNS/TNS, failing endpoint counts,
//!   per-register D/Q slacks and Fishburn skew windows,
//! * [`Sta::update_after_change`] — incremental re-analysis after placement
//!   moves or skew changes: only the affected cones are recomputed (full
//!   analysis is the test oracle).
//!
//! Clocks are ideal (pre-CTS timing): the arrival at a register's clock pin
//! is exactly its [`mbr_netlist::RegisterAttrs::clock_offset`].
//!
//! # Examples
//!
//! ```
//! use mbr_geom::{Point, Rect};
//! use mbr_liberty::standard_library;
//! use mbr_netlist::{Design, PinKind, RegisterAttrs};
//! use mbr_sta::{DelayModel, Sta};
//!
//! let lib = standard_library();
//! let mut d = Design::new("t", Rect::new(Point::new(0, 0), Point::new(99_000, 99_000)));
//! let clk = d.add_net("clk");
//! let cell = lib.cell_by_name("DFF_1X1").expect("flop");
//! let r0 = d.add_register("r0", &lib, cell, Point::new(1_000, 600), RegisterAttrs::clocked(clk));
//! let r1 = d.add_register("r1", &lib, cell, Point::new(20_000, 600), RegisterAttrs::clocked(clk));
//! let n = d.add_net("n");
//! d.connect(d.find_pin(r0, PinKind::Q(0)).unwrap(), n);
//! d.connect(d.find_pin(r1, PinKind::D(0)).unwrap(), n);
//! let sta = Sta::new(&d, &lib, DelayModel::default())?;
//! assert_eq!(sta.report().failing_endpoints(), 0);
//! assert!(sta.report().wns() > 0.0);
//! # Ok::<(), mbr_sta::StaError>(())
//! ```

mod engine;
mod report;

pub use engine::{Sta, StaError, TimingPath};
pub use report::{SkewWindow, TimingReport};

/// Linear delay model parameters. Units: ps, fF, kΩ, DBU (kΩ · fF = ps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayModel {
    /// Clock period, ps.
    pub clock_period: f64,
    /// Wire resistance per DBU, kΩ (default ≈ 5 Ω/µm).
    pub wire_res_per_dbu: f64,
    /// Wire capacitance per DBU, fF (default ≈ 0.2 fF/µm).
    pub wire_cap_per_dbu: f64,
    /// Arrival time at primary inputs, ps.
    pub input_arrival: f64,
    /// Margin subtracted from the period at primary outputs, ps.
    pub output_margin: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            clock_period: 1000.0, // 1 GHz
            wire_res_per_dbu: 5e-6,
            wire_cap_per_dbu: 2e-4,
            input_arrival: 0.0,
            output_margin: 0.0,
        }
    }
}

impl DelayModel {
    /// Wire delay from a driver to a sink at Manhattan distance `dist` DBU,
    /// with `sink_cap` fF at the far end: a lumped RC estimate
    /// `R_wire · (C_wire/2 + C_sink)`.
    pub fn wire_delay(&self, dist: i64, sink_cap: f64) -> f64 {
        let r = self.wire_res_per_dbu * dist as f64;
        let c = self.wire_cap_per_dbu * dist as f64;
        r * (c / 2.0 + sink_cap)
    }

    /// Converts a positive timing slack into the Manhattan distance a pin
    /// may move without creating a violation, by inverting the (dominant,
    /// linear) wire-delay term `slack ≈ R_drv·ΔC + R_wire·C_sink`.
    ///
    /// This is the slack-to-distance transformation used to build timing
    /// feasible placement regions (Section 2, placement compatibility). The
    /// inversion is conservative: it uses a unit driver resistance of 3 kΩ
    /// plus the wire RC at the given distance, and returns 0 for
    /// non-positive slack.
    pub fn slack_to_distance(&self, slack: f64) -> i64 {
        if slack <= 0.0 {
            return 0;
        }
        // Solve slack = r_drv·cw·L + rw·L·(cw·L/2 + c_pin) for L via the
        // quadratic formula; coefficients per DBU.
        let r_drv = 3.0; // kΩ, representative mid-drive
        let c_pin = 0.7; // fF, representative sink
        let a = self.wire_res_per_dbu * self.wire_cap_per_dbu / 2.0;
        let b = r_drv * self.wire_cap_per_dbu + self.wire_res_per_dbu * c_pin;
        let disc = b * b + 4.0 * a * slack;
        let l = (-b + disc.sqrt()) / (2.0 * a);
        l.max(0.0) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_delay_grows_superlinearly() {
        let m = DelayModel::default();
        let d1 = m.wire_delay(10_000, 1.0);
        let d2 = m.wire_delay(20_000, 1.0);
        assert!(d2 > 2.0 * d1, "RC delay is quadratic in length");
        assert_eq!(m.wire_delay(0, 1.0), 0.0);
    }

    #[test]
    fn slack_to_distance_is_monotone_and_zero_for_violations() {
        let m = DelayModel::default();
        assert_eq!(m.slack_to_distance(-5.0), 0);
        assert_eq!(m.slack_to_distance(0.0), 0);
        let near = m.slack_to_distance(10.0);
        let far = m.slack_to_distance(100.0);
        assert!(near > 0);
        assert!(far > near);
    }

    #[test]
    fn slack_to_distance_round_trips_conservatively() {
        // Moving by the returned distance must cost at most the slack under
        // the same coefficients.
        let m = DelayModel::default();
        for slack in [5.0, 50.0, 500.0] {
            let l = m.slack_to_distance(slack);
            let cost = 3.0 * m.wire_cap_per_dbu * l as f64 + m.wire_delay(l, 0.7);
            assert!(cost <= slack * 1.01, "cost {cost} exceeds slack {slack}");
        }
    }
}
