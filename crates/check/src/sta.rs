//! Checker 6: STA consistency.
//!
//! The flow maintains timing incrementally through useful skew and sizing
//! ([`mbr_sta::Sta::update_after_change`]); this checker rebuilds the
//! analysis from scratch and compares the endpoint arrival and required
//! times and the WNS/TNS/failing-count summary. Any drift beyond epsilon
//! means the incremental engine silently diverged — every timing-driven
//! decision downstream of it is then suspect.

use mbr_liberty::Library;
use mbr_netlist::Design;
use mbr_sta::Sta;

use crate::{Diagnostic, StaQuantity};

/// Default comparison tolerance, ps. The incremental engine compares
/// exactly and lands bit for bit on the state a full analysis computes, so
/// a correct update drifts by nothing; genuine staleness shows up orders of
/// magnitude above this.
pub const STA_EPSILON: f64 = 1e-6;

/// Compares `sta`'s incrementally maintained report against a fresh full
/// analysis of `design`: endpoint times and WNS/TNS within `epsilon` ps,
/// the failing-endpoint count exactly.
pub fn check_sta(design: &Design, lib: &Library, sta: &Sta, epsilon: f64) -> Vec<Diagnostic> {
    let fresh = match Sta::new(design, lib, *sta.model()) {
        Ok(s) => s,
        Err(e) => {
            return vec![Diagnostic::StaBroken {
                message: e.to_string(),
            }]
        }
    };
    let inc = sta.report();
    let full = fresh.report();

    if inc.endpoints() != full.endpoints() {
        return vec![Diagnostic::StaStale {
            incremental: inc.endpoints().len(),
            full: full.endpoints().len(),
        }];
    }

    let mut out = Vec::new();
    for &ep in full.endpoints() {
        for (quantity, a, b) in [
            (StaQuantity::Arrival, inc.arrival(ep), full.arrival(ep)),
            (StaQuantity::Required, inc.required(ep), full.required(ep)),
        ] {
            let drifted = match (a, b) {
                (Some(x), Some(y)) => (x - y).abs() > epsilon,
                (None, None) => false,
                _ => true, // one side constrained, the other not
            };
            if drifted {
                out.push(Diagnostic::StaDrift {
                    pin: ep,
                    quantity,
                    incremental: a.unwrap_or(f64::NAN),
                    full: b.unwrap_or(f64::NAN),
                });
            }
        }
    }
    let summary = |r: &mbr_sta::TimingReport| (r.wns(), r.tns(), r.failing_endpoints());
    let (incremental, full) = (summary(inc), summary(full));
    if (incremental.0 - full.0).abs() > epsilon
        || (incremental.1 - full.1).abs() > epsilon
        || incremental.2 != full.2
    {
        out.push(Diagnostic::StaSummaryDrift { incremental, full });
    }
    out
}
