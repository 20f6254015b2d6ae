//! The closed-form §4.2 placement against the paper's literal LP on every
//! placement the batch flow makes on d1–d5.
//!
//! The flow is driven through the public entry points of each layer, as a
//! replay of stages 1–6 (timing, compatibility, candidates, assignment,
//! placement and merge): each pick is placed with [`optimal_corner_lp`]
//! and merged there, so later picks see the same design the flow gives
//! them. At every pick the closed form must cost exactly what
//! [`optimal_corner_simplex`] costs. Budgets are the trimmed ones of
//! `tests/soa_golden.rs`, which keeps a debug run cheap.

use std::collections::BTreeMap;

use mbr::core::candidates::enumerate_candidates;
use mbr::core::placement::{
    common_region, optimal_corner_lp, optimal_corner_simplex, pin_boxes, placement_cost,
};
use mbr::core::{CompatGraph, ComposerOptions};
use mbr::geom::Rect;
use mbr::liberty::standard_library;
use mbr::lp::SetPartition;
use mbr::netlist::InstId;
use mbr::sta::Sta;
use mbr::workloads::all_presets;

#[test]
fn every_flow_placement_costs_what_the_simplex_costs() {
    let options = ComposerOptions {
        max_candidates_per_partition: 1_000,
        subclique_visit_multiplier: 8,
        node_budget: 10_000,
        ..ComposerOptions::default()
    };
    let lib = standard_library();
    for spec in all_presets() {
        let mut design = spec.generate(&lib);
        let sta = Sta::new(&design, &lib, spec.delay_model()).expect("timing analyzes");
        let compat = CompatGraph::build(&design, &lib, &sta, &options);
        let regions: BTreeMap<InstId, Rect> =
            compat.regs.iter().map(|r| (r.inst, r.region)).collect();

        let mut picked = Vec::new();
        for set in enumerate_candidates(&design, &lib, &compat, &options) {
            let mut sp = SetPartition::new(set.elements.len());
            sp.set_lp_bound(options.lp_bound);
            for (idx, cand) in set.member_idx.iter().zip(&set.candidates) {
                sp.add_candidate(idx, cand.weight);
            }
            let solution = sp.solve_bounded(options.node_budget).expect("assignment");
            picked.extend(
                solution
                    .selected
                    .iter()
                    .map(|&ci| set.candidates[ci].clone())
                    .filter(|c| !c.is_singleton()),
            );
        }
        assert!(!picked.is_empty(), "{}: nothing to place", spec.name);

        for (i, cand) in picked.iter().enumerate() {
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
            let boxes = pin_boxes(&design, &cand.members, cell);
            let corner = optimal_corner_lp(&boxes, region);
            let simplex = optimal_corner_simplex(&boxes, region);
            assert_eq!(
                placement_cost(&boxes, corner),
                placement_cost(&boxes, simplex),
                "{} pick {i}: closed form at {corner}, simplex at {simplex}",
                spec.name
            );
            // A rejected merge leaves the design as it was, as in the flow.
            let _ = design.merge_registers(&cand.members, &lib, cand.cell, corner);
        }
    }
}
