//! Stage 1 of a session pass: static timing analysis, refreshed.
//!
//! Batch passes (and stage 7 of every pass) analyze from scratch with
//! [`Sta::new`]. Session passes refresh the persistent [`Sta`] with
//! [`Sta::update_after_change`], proven bitwise-identical to a from-scratch
//! analysis by the incremental oracle test in `mbr-sta`.

use mbr_liberty::Library;
use mbr_netlist::Design;
use mbr_sta::{DelayModel, Sta, StaError};

use super::EcoDirty;

/// Session refresh: updates the persistent analyzer to match `design` and
/// returns it.
///
/// Structural dirt (or a session that has never analyzed) rebuilds from
/// scratch; otherwise the ECO-touched instances seed an incremental update.
pub(crate) fn refresh<'s>(
    sta: &'s mut Option<Sta>,
    design: &Design,
    lib: &Library,
    model: DelayModel,
    eco: &EcoDirty,
) -> Result<&'s Sta, StaError> {
    let analyzer = match sta.take() {
        Some(mut analyzer) if !eco.structural => {
            analyzer.update_after_change(design, lib, &eco.touched);
            analyzer
        }
        _ => Sta::new(design, lib, model)?,
    };
    Ok(sta.insert(analyzer))
}
