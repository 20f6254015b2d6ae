//! Stage 1 of a session pass: static timing analysis, refreshed.
//!
//! Batch passes (and stage 7 of every pass) analyze from scratch with
//! [`Sta::new`]. Session passes refresh the persistent [`Sta`] with
//! [`Sta::update_after_change`] — proven bitwise-identical to a from-scratch
//! analysis by the incremental oracle test in `mbr-sta` — and translate the
//! reported [`mbr_sta::StaDelta`] into the instance-level [`Dirty`] set the
//! compatibility and candidate stages reuse against.

use std::collections::BTreeSet;

use mbr_liberty::Library;
use mbr_netlist::{Design, InstId};
use mbr_sta::{DelayModel, Sta, StaError};

use super::{Dirty, EcoDirty};

/// Session refresh: update the persistent analyzer to match `design` and
/// derive the dirty instance set for the downstream caches.
///
/// Structural dirt (or a session that has never analyzed) rebuilds from
/// scratch; otherwise the ECO-touched instances seed an incremental update
/// and the dirty set is those instances plus the owner of every pin whose
/// arrival or required time moved.
pub(crate) fn refresh(
    sta: &mut Option<Sta>,
    design: &Design,
    lib: &Library,
    model: DelayModel,
    eco: &EcoDirty,
) -> Result<Dirty, StaError> {
    if eco.structural || sta.is_none() {
        *sta = Some(Sta::new(design, lib, model)?);
        return Ok(Dirty {
            insts: BTreeSet::new(),
            structural: true,
        });
    }
    let analyzer = sta.as_mut().expect("checked above");
    let delta = analyzer.update_after_change(design, lib, &eco.touched);
    let mut insts: BTreeSet<InstId> = eco.touched.iter().copied().collect();
    for pin in &delta.changed_pins {
        insts.insert(design.pin(*pin).inst);
    }
    Ok(Dirty {
        insts,
        structural: false,
    })
}
