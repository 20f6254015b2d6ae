//! The Fig. 6 comparison baseline.
//!
//! The paper benchmarks its ILP against "a heuristic-algorithm-based
//! approach, similar to that performed in \\[8\\] and \\[12\\]": maximal clique
//! identification plus greedy MBR mapping. The implementation lives in
//! [`crate::Composer::compose_heuristic`] and shares every other stage with
//! the ILP flow (same compatibility rules, same candidate enumeration and
//! weights, same mapping, same placement, same legalization/skew/sizing),
//! so Fig. 6 isolates exactly the selection policy:
//!
//! * **ILP**: globally minimizes `Σ wᵢ xᵢ` over each partition, and may use
//!   incomplete MBRs (both are this paper's contributions);
//! * **heuristic**: commits to locally-best candidates one at a time,
//!   stranding registers wherever its early picks overlap better later
//!   ones, and never uses incomplete MBRs.
//!
//! On the synthetic D1–D5 designs the ILP wins on every design (see
//! `EXPERIMENTS.md`), reproducing the paper's ~12 % average advantage in
//! normalized register count.
//!
//! # Examples
//!
//! ```no_run
//! use mbr_core::{Composer, ComposerOptions};
//! use mbr_liberty::standard_library;
//! use mbr_sta::DelayModel;
//!
//! # fn load(_: &mbr_liberty::Library) -> mbr_netlist::Design { unimplemented!() }
//! let lib = standard_library();
//! let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
//!
//! let mut ilp_design = load(&lib);
//! let ilp = composer.compose(&mut ilp_design, &lib)?;
//!
//! let mut heur_design = load(&lib);
//! let heuristic = composer.compose_heuristic(&mut heur_design, &lib)?;
//!
//! // Fig. 6: normalized register count, ILP vs heuristic.
//! let norm = ilp.registers_after as f64 / heuristic.registers_after as f64;
//! assert!(norm <= 1.0 + 1e-9);
//! # Ok::<(), mbr_core::ComposeError>(())
//! ```

// The implementation is `Composer::compose_heuristic` in `flow.rs`; this
// module exists to document the baseline and anchor its tests.

#[cfg(test)]
mod tests {
    use crate::{Composer, ComposerOptions};
    use mbr_geom::{Point, Rect};
    use mbr_liberty::standard_library;
    use mbr_netlist::{Design, RegisterAttrs};
    use mbr_sta::DelayModel;

    /// On a cluster of free-floating flops both strategies should collapse
    /// everything into maximal MBRs (no blockers, no timing pressure).
    #[test]
    fn strategies_agree_on_trivial_clusters() {
        let lib = standard_library();
        let build = || {
            let die = Rect::new(Point::new(0, 0), Point::new(90_000, 90_000));
            let mut d = Design::new("t", die);
            let clk = d.add_net("clk");
            let cell = lib.cell_by_name("DFF_1X1").unwrap();
            for i in 0..8i64 {
                d.add_register(
                    format!("r{i}"),
                    &lib,
                    cell,
                    Point::new(1_000 + 1_500 * i, 600),
                    RegisterAttrs::clocked(clk),
                );
            }
            d
        };
        let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
        let mut a = build();
        let ilp = composer.compose(&mut a, &lib).unwrap();
        let mut b = build();
        let heur = composer.compose_heuristic(&mut b, &lib).unwrap();
        assert_eq!(
            ilp.registers_after, 1,
            "eight 1-bit flops fold into one 8-bit MBR"
        );
        assert_eq!(heur.registers_after, 1);
    }
}
