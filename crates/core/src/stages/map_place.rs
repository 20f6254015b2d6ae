//! Stage 6a: mapping and placement of the selected candidates
//! (Sections 4.1/4.2).
//!
//! Mapping was pre-resolved per candidate during enumeration; this stage
//! places each MBR at the closed-form optimum of the §4.2 HPWL objective
//! over the members' common feasible region ([`optimal_corner_lp`]) and
//! performs the merges. Batch and session passes run the same code: a
//! placement costs a selection over its pins, so nothing is cached.

use std::collections::BTreeMap;

use mbr_geom::Rect;
use mbr_liberty::Library;
use mbr_netlist::{Design, InstId};

use crate::candidates::CandidateMbr;
use crate::flow::ComposeOutcome;
use crate::placement::{common_region, optimal_corner_lp, pin_boxes};

/// Places and merges the selected candidates; returns the new MBR
/// instances. Individual merge rejections are counted, not fatal.
pub(crate) fn run(
    design: &mut Design,
    lib: &Library,
    picked: &[CandidateMbr],
    regions: &BTreeMap<InstId, Rect>,
    outcome: &mut ComposeOutcome,
) -> Vec<InstId> {
    let mut new_mbrs = Vec::new();
    for cand in picked {
        let cell = lib.cell(cand.cell);
        let member_regions: Vec<Rect> = cand
            .members
            .iter()
            .map(|m| {
                regions
                    .get(m)
                    .copied()
                    .unwrap_or_else(|| design.inst(*m).rect())
            })
            .collect();
        let region = common_region(&member_regions, cell, design.die());
        let corner = optimal_corner_lp(&pin_boxes(design, &cand.members, cell), region);
        match design.merge_registers(&cand.members, lib, cand.cell, corner) {
            Ok(mbr) => {
                new_mbrs.push(mbr);
                outcome.merges += 1;
                outcome.merged_registers += cand.members.len();
                if cand.incomplete {
                    outcome.incomplete_mbrs += 1;
                }
            }
            Err(_) => {
                outcome.skipped_merges += 1;
            }
        }
    }
    new_mbrs
}
