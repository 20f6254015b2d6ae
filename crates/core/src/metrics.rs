//! Design metrics: everything Table 1 and Fig. 5 report.

use std::collections::BTreeMap;

use mbr_cts::{synthesize_clock_tree, CtsConfig};
use mbr_liberty::Library;
use mbr_netlist::Design;
use mbr_place::{congestion, CongestionConfig};
use mbr_sta::{DelayModel, Sta, StaError};

use crate::compat::CompatGraph;
use crate::ComposerOptions;

/// Fig. 5: how many registers of each bit width the design contains.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitWidthHistogram {
    /// width → register count (BTreeMap so iteration is width-ordered).
    pub counts: BTreeMap<u8, usize>,
}

impl BitWidthHistogram {
    /// Measures the histogram of a design's live registers.
    pub fn measure(design: &Design) -> Self {
        let mut counts = BTreeMap::new();
        for (id, _) in design.registers() {
            mbr_obs::hist::tally(&mut counts, design.register_width(id));
        }
        BitWidthHistogram { counts }
    }

    /// Registers of exactly `width` bits.
    pub fn count(&self, width: u8) -> usize {
        self.counts.get(&width).copied().unwrap_or(0)
    }

    /// Total registers.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Total bits.
    pub fn total_bits(&self) -> usize {
        self.counts.iter().map(|(&w, &n)| usize::from(w) * n).sum()
    }
}

/// One row of Table 1 (either a "Base" or an "Ours" row).
#[derive(Clone, Debug, PartialEq)]
pub struct DesignMetrics {
    /// Total instance area, µm².
    pub area_um2: f64,
    /// Live cell count (registers + gates; ports excluded).
    pub cells: usize,
    /// Total registers (each MBR counts one).
    pub total_regs: usize,
    /// Composable registers under the paper's Section 2 rules.
    pub comp_regs: usize,
    /// Clock-tree buffers (estimated CTS).
    pub clk_bufs: usize,
    /// Clock-tree capacitance, pF.
    pub clk_cap_pf: f64,
    /// Total negative slack, ns (≤ 0).
    pub tns_ns: f64,
    /// Worst slack, ps.
    pub wns_ps: f64,
    /// Endpoints with negative slack.
    pub failing_endpoints: usize,
    /// All timing endpoints.
    pub total_endpoints: usize,
    /// Congestion overflow edges.
    pub ovfl_edges: usize,
    /// Clock wirelength, mm (pre-CTS clock nets measured as HPWL, plus the
    /// estimated tree routing).
    pub wl_clk_mm: f64,
    /// Signal wirelength, mm.
    pub wl_other_mm: f64,
    /// Dynamic clock-tree power at the model's clock period, µW (the
    /// quantity the paper ultimately optimizes; capacitance is its handle).
    pub clk_power_uw: f64,
    /// Register leakage, nW.
    pub leakage_nw: f64,
    /// Fig. 5 histogram.
    pub histogram: BitWidthHistogram,
}

impl DesignMetrics {
    /// Measures a placed design: STA, estimated CTS, congestion, wirelength
    /// and register statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the timing analysis.
    pub fn measure(
        design: &Design,
        lib: &Library,
        model: DelayModel,
        cts: &CtsConfig,
        cong: &CongestionConfig,
    ) -> Result<DesignMetrics, StaError> {
        let sta = Sta::new(design, lib, model)?;
        let options = ComposerOptions::default();
        let compat = CompatGraph::build(design, lib, &sta, &options);
        let tree = synthesize_clock_tree(design, cts);
        let power = mbr_cts::PowerModel {
            freq_ghz: 1000.0 / model.clock_period,
            ..mbr_cts::PowerModel::default()
        };
        let cong_report = congestion(design, cong);
        let (wl_clk, wl_other) = design.wirelength();
        let cells = design
            .live_insts()
            .filter(|(_, inst)| !matches!(inst.kind, mbr_netlist::InstKind::Port { .. }))
            .count();
        Ok(DesignMetrics {
            area_um2: design.total_area(lib),
            cells,
            total_regs: design.live_register_count(),
            comp_regs: compat.regs.len(),
            clk_bufs: tree.buffers,
            clk_cap_pf: tree.total_cap_ff / 1000.0,
            tns_ns: sta.report().tns() / 1000.0,
            wns_ps: sta.report().wns(),
            failing_endpoints: sta.report().failing_endpoints(),
            total_endpoints: sta.report().endpoints().len(),
            ovfl_edges: cong_report.overflow_edges,
            // DBU = nm → mm, plus the CTS tree's own routing.
            wl_clk_mm: (wl_clk + tree.wirelength_dbu) as f64 / 1e6,
            wl_other_mm: wl_other as f64 / 1e6,
            clk_power_uw: tree.clock_power_uw(&power),
            leakage_nw: design.total_register_leakage(lib),
            histogram: BitWidthHistogram::measure(design),
        })
    }

    /// Percentage saving of `self` (after) relative to `base` (before) for a
    /// metric extractor — positive = reduced, matching Table 1's "Save"
    /// rows.
    pub fn saving(
        base: &DesignMetrics,
        ours: &DesignMetrics,
        metric: fn(&DesignMetrics) -> f64,
    ) -> f64 {
        let b = metric(base);
        if b == 0.0 {
            return 0.0;
        }
        100.0 * (b - metric(ours)) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_geom::{Point, Rect};
    use mbr_liberty::standard_library;
    use mbr_netlist::RegisterAttrs;

    #[test]
    fn histogram_counts_by_connected_width() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(90_000, 90_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let c1 = lib.cell_by_name("DFF_1X1").unwrap();
        let c4 = lib.cell_by_name("DFF_4X1").unwrap();
        for i in 0..3i64 {
            d.add_register(
                format!("a{i}"),
                &lib,
                c1,
                Point::new(i * 2_000, 0),
                RegisterAttrs::clocked(clk),
            );
        }
        d.add_register(
            "m",
            &lib,
            c4,
            Point::new(10_000, 0),
            RegisterAttrs::clocked(clk),
        );
        let h = BitWidthHistogram::measure(&d);
        assert_eq!(h.count(1), 3);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.count(8), 0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.total_bits(), 7);
    }

    #[test]
    fn metrics_cover_a_small_design() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(90_000, 90_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        for i in 0..10i64 {
            d.add_register(
                format!("r{i}"),
                &lib,
                cell,
                Point::new((i % 5) * 3_000, (i / 5) * 1_200),
                RegisterAttrs::clocked(clk),
            );
        }
        let m = DesignMetrics::measure(
            &d,
            &lib,
            DelayModel::default(),
            &CtsConfig::default(),
            &CongestionConfig::default(),
        )
        .unwrap();
        assert_eq!(m.total_regs, 10);
        assert_eq!(m.comp_regs, 10);
        assert_eq!(m.cells, 10);
        assert!(m.area_um2 > 0.0);
        assert!(m.clk_bufs >= 1);
        assert!(m.clk_cap_pf > 0.0);
        assert_eq!(m.failing_endpoints, 0);
        assert_eq!(m.histogram.count(1), 10);
    }

    #[test]
    fn saving_is_percentage_reduction() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(90_000, 90_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        d.add_register(
            "r",
            &lib,
            cell,
            Point::new(0, 0),
            RegisterAttrs::clocked(clk),
        );
        let m = DesignMetrics::measure(
            &d,
            &lib,
            DelayModel::default(),
            &CtsConfig::default(),
            &CongestionConfig::default(),
        )
        .unwrap();
        let mut half = m.clone();
        half.total_regs = 0;
        // 1 -> 0 registers is a 100 % save.
        assert_eq!(
            DesignMetrics::saving(&m, &half, |x| x.total_regs as f64),
            100.0
        );
        assert_eq!(DesignMetrics::saving(&m, &m, |x| x.total_regs as f64), 0.0);
    }
}
