//! The batch flow replayed layer by layer through public entry points.
//!
//! The replay runs the stage sequence of `Composer::compose` at one thread
//! by calling each layer's public entry point directly, so every call can be
//! timed as a span of its layer. The invariant checkpoints `compose` runs
//! between stages only read the design and are left out. The caller asserts
//! that the replayed design is byte-identical to `compose`'s, so the
//! per-layer split describes the same work the timed runs measure.
//!
//! The replay sticks to entry points the flow's own contract defines: it
//! never sets solver threads or branch ordering (both default to the
//! serial reference search a one-thread compose runs).

use std::collections::BTreeMap;

use mbr_core::candidates::enumerate_candidates;
use mbr_core::placement::{common_region, optimal_corner_lp, pin_boxes};
use mbr_core::sizing::downsize_mbrs;
use mbr_core::{infer_grid, CompatGraph, ComposerOptions};
use mbr_geom::Rect;
use mbr_liberty::Library;
use mbr_lp::SetPartition;
use mbr_netlist::{Design, InstId};
use mbr_sta::{DelayModel, Sta};

use crate::stats::LayerSpans;

/// What one replay produced besides its spans.
pub struct Replayed {
    /// The composed design.
    pub design: Design,
    /// Branch-and-bound nodes over all partitions.
    pub ilp_nodes: u64,
    /// Candidates enumerated over all partitions.
    pub candidates: usize,
    /// Merges performed.
    pub merges: usize,
    /// MBRs downsized.
    pub resized: usize,
}

/// Replays the batch flow on a copy of `design`, timing each layer call
/// into `spans`. `options.threads` must be 1.
pub fn replay(
    design: &Design,
    lib: &Library,
    options: &ComposerOptions,
    model: DelayModel,
    spans: &mut LayerSpans,
) -> Result<Replayed, String> {
    assert_eq!(options.threads, 1, "the replay is the one-thread flow");
    let mut design = design.clone();

    // Stages 1-2: timing analysis, then the compatibility graph.
    let sta = spans
        .time("sta", || Sta::new(&design, lib, model))
        .map_err(|e| format!("replay: pre-merge timing: {e}"))?;
    let compat = spans.time("compat", || CompatGraph::build(&design, lib, &sta, options));
    let regions: BTreeMap<InstId, Rect> = compat.regs.iter().map(|r| (r.inst, r.region)).collect();

    // Stages 3-4: candidate enumeration with weights.
    let sets = spans.time("candidates", || {
        enumerate_candidates(&design, lib, &compat, options)
    });
    let candidates = sets.iter().map(|s| s.candidates.len()).sum();

    // Stage 5: one set-partitioning ILP per partition.
    let mut ilp_nodes = 0;
    let mut picked = Vec::new();
    for set in &sets {
        let solution = spans
            .time("lp", || {
                let mut sp = SetPartition::new(set.elements.len());
                sp.set_lp_bound(options.lp_bound);
                for (idx, cand) in set.member_idx.iter().zip(&set.candidates) {
                    sp.add_candidate(idx, cand.weight);
                }
                sp.solve_bounded(options.node_budget)
            })
            .map_err(|e| format!("replay: assignment: {e}"))?;
        ilp_nodes += solution.nodes_explored;
        picked.extend(
            solution
                .selected
                .iter()
                .map(|&ci| &set.candidates[ci])
                .filter(|c| !c.is_singleton())
                .cloned(),
        );
    }

    // Stage 6: placement LP per MBR, the merge, then legalization.
    let mut new_mbrs = Vec::new();
    for cand in &picked {
        let corner = spans.time("place_lp", || {
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
            optimal_corner_lp(&pin_boxes(&design, &cand.members, cell), region)
        });
        let merged = spans.time("merge", || {
            design.merge_registers(&cand.members, lib, cand.cell, corner)
        });
        if let Ok(mbr) = merged {
            new_mbrs.push(mbr);
        }
    }
    spans
        .time("legalize", || {
            let grid = infer_grid(&design, lib);
            mbr_place::legalize(&mut design, &grid, &new_mbrs)
        })
        .map_err(|e| format!("replay: legalization: {e}"))?;

    // Stage 7: post-merge timing, useful skew, sizing.
    let mut post = spans
        .time("sta", || Sta::new(&design, lib, model))
        .map_err(|e| format!("replay: post-merge timing: {e}"))?;
    if options.apply_useful_skew && !new_mbrs.is_empty() {
        spans.time("skew", || {
            mbr_cts::assign_useful_skew(&mut design, lib, &mut post, &new_mbrs, &options.skew)
        });
    }
    let resized = if options.apply_sizing {
        spans.time("sizing", || {
            downsize_mbrs(
                &mut design,
                lib,
                &mut post,
                &new_mbrs,
                options.sizing_margin,
            )
        })
    } else {
        0
    };

    Ok(Replayed {
        design,
        ilp_nodes,
        candidates,
        merges: new_mbrs.len(),
        resized,
    })
}
