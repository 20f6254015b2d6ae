//! Section 2: register compatibility and the compatibility graph.
//!
//! A register can join an MBR only if it is *composable* (modifiable by the
//! designer, and its class offers wider cells), and two registers are
//! connected by a compatibility edge only when they are compatible in all
//! four senses the paper defines:
//!
//! * **functional** — same class, same clock net, same clock-gating group,
//!   and identical reset/set/enable/scan-enable nets;
//! * **scan** — same scan partition; registers in ordered scan sections must
//!   share the section (consecutiveness of chain positions is enforced
//!   later, per candidate);
//! * **placement** — their timing-feasible regions overlap. The feasible
//!   region is the footprint inflated by the distance equivalent of the
//!   positive D/Q slack ([`mbr_sta::DelayModel::slack_to_distance`]);
//!   negative slack collapses the region to the footprint, but the register
//!   still participates — others may move *to* it (Section 2);
//! * **timing** — no opposite-force pairing (positive-D/negative-Q with
//!   negative-D/positive-Q), slack magnitudes within a similarity bound,
//!   and overlapping useful-skew windows.

use mbr_geom::{Point, Rect};
use mbr_graph::UnGraph;
use mbr_liberty::{ClassId, Library};
use mbr_netlist::{Design, InstId, InstKind, NetId};
use mbr_obs::{self as obs, Counter};
use mbr_sta::{SkewWindow, Sta};

use crate::ComposerOptions;

/// A composable register with the data compatibility checks need.
#[derive(Clone, Debug)]
pub struct ComposableRegister {
    /// The register instance.
    pub inst: InstId,
    /// Its functional class.
    pub class: ClassId,
    /// Connected bit count.
    pub width: u8,
    /// Widest library cell of the class — an upper bound on the connected
    /// bits of any MBR group this register can join.
    pub max_class_width: u8,
    /// Worst D-pin slack, if any D pin is constrained, ps.
    pub d_slack: Option<f64>,
    /// Worst Q-pin slack, if any Q pin is loaded, ps.
    pub q_slack: Option<f64>,
    /// Feasible useful-skew window.
    pub skew_window: SkewWindow,
    /// Timing-feasible placement region (cell lower-corner positions).
    pub region: Rect,
    /// Clock pin position (drives the geometric partitioning).
    pub clock_pos: Point,
    /// Cell area, µm².
    pub area: f64,
    /// Drive resistance of the current cell, kΩ.
    pub drive_resistance: f64,
}

/// The compatibility graph over composable registers.
#[derive(Clone, Debug)]
pub struct CompatGraph {
    /// Composable registers; node `i` of [`CompatGraph::graph`] is
    /// `regs[i]`.
    pub regs: Vec<ComposableRegister>,
    /// Compatibility edges.
    pub graph: UnGraph,
}

impl CompatGraph {
    /// Builds the compatibility graph for a placed, analyzed design.
    ///
    /// The functional and scan rules are equality tests, so registers are
    /// grouped by the attributes those rules compare, and only same-group
    /// pairs whose regions overlap in x reach the placement and timing
    /// predicates: each group is swept in order of region `lo.x`, and a
    /// register stops scanning at the first later region that starts right
    /// of its own.
    pub fn build(
        design: &Design,
        lib: &Library,
        sta: &Sta,
        options: &ComposerOptions,
    ) -> CompatGraph {
        let regs = collect_composable(design, lib, sta, options);
        let graph = connect(design, &regs, options.prune_compat_edges);
        CompatGraph { regs, graph }
    }

    /// Clock-pin positions, node-indexed (input to the K-partitioning).
    pub fn clock_positions(&self) -> Vec<Point> {
        self.regs.iter().map(|r| r.clock_pos).collect()
    }
}

/// Everything the Section 2 functional and scan rules compare: two
/// registers can be compatible only when their keys are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct GroupKey {
    class: ClassId,
    clock: NetId,
    gate_group: u32,
    reset: Option<NetId>,
    set: Option<NetId>,
    enable: Option<NetId>,
    scan_enable: Option<NetId>,
    /// Scan partition and ordered section; `None` off-chain. On-chain
    /// registers never merge with off-chain ones (that would need chain
    /// surgery), and ordered-section members only within their section
    /// (consecutiveness is a per-candidate check).
    scan: Option<(u16, Option<u32>)>,
}

impl GroupKey {
    fn of(design: &Design, reg: &ComposableRegister) -> GroupKey {
        let attrs = design.inst(reg.inst).register_attrs().expect("register");
        GroupKey {
            class: reg.class,
            clock: attrs.clock,
            gate_group: attrs.gate_group,
            reset: attrs.reset,
            set: attrs.set,
            enable: attrs.enable,
            scan_enable: attrs.scan_enable,
            scan: attrs
                .scan
                .map(|s| (s.partition, s.section.map(|(section, _)| section))),
        }
    }
}

/// The compatibility edges over `regs` by the key-grouped sweep (see
/// [`CompatGraph::build`]); flushes the `core.compat.*` counters.
fn connect(design: &Design, regs: &[ComposableRegister], prune: bool) -> UnGraph {
    let mut graph = UnGraph::new(regs.len());
    let mut order: Vec<(GroupKey, i64, usize)> = regs
        .iter()
        .enumerate()
        .map(|(i, reg)| (GroupKey::of(design, reg), reg.region.lo().x, i))
        .collect();
    order.sort_unstable();
    let mut pairs = 0u64;
    let mut removed = 0u64;
    for group in order.chunk_by(|a, b| a.0 == b.0) {
        for (k, &(_, _, i)) in group.iter().enumerate() {
            let hi_x = regs[i].region.hi().x;
            for &(_, lo_x, j) in &group[k + 1..] {
                if lo_x > hi_x {
                    break;
                }
                pairs += 1;
                let (a, b) = (&regs[i], &regs[j]);
                if placement_compatible(a, b) && timing_compatible(a, b) {
                    if prune && !width_sum_selectable(a, b) {
                        removed += 1;
                    } else {
                        graph.add_edge(i, j);
                    }
                }
            }
        }
    }
    obs::counter(Counter::CompatRegisters, regs.len() as u64);
    obs::counter(Counter::CompatPairsChecked, pairs);
    obs::counter(Counter::CompatEdges, graph.edge_count() as u64);
    obs::counter(Counter::CompatEdgesRemoved, removed);
    graph
}

/// Collects the composable registers of a design (Table 1's "Comp-Regs"):
/// live, not designer-protected, and upgradable within their class.
fn collect_composable(
    design: &Design,
    lib: &Library,
    sta: &Sta,
    options: &ComposerOptions,
) -> Vec<ComposableRegister> {
    design
        .registers()
        .filter_map(|(inst_id, _)| composable_entry(design, lib, sta, options, inst_id))
        .collect()
}

/// Builds one register's [`ComposableRegister`] entry, or `None` when the
/// register is not composable.
fn composable_entry(
    design: &Design,
    lib: &Library,
    sta: &Sta,
    options: &ComposerOptions,
    inst_id: InstId,
) -> Option<ComposableRegister> {
    let inst = design.inst(inst_id);
    let InstKind::Register { cell, attrs, .. } = &inst.kind else {
        return None;
    };
    if attrs.is_untouchable() {
        return None; // (a) specified as non-modifiable
    }
    let c = lib.cell(*cell);
    let width = design.register_width(inst_id);
    if u32::from(width) >= u32::from(lib.max_width(c.class)) {
        return None; // (c) already the largest MBR of its class
    }
    if lib.widths(c.class).is_empty() {
        return None; // (b) no equivalent MBR in the library
    }

    let report = sta.report();
    let d_slack = report.register_d_slack(design, inst_id);
    let q_slack = report.register_q_slack(design, inst_id);
    let skew_window = report.skew_window(design, inst_id);

    // Feasible region: footprint inflated by the distance equivalent of
    // the *worst* positive slack over the register's constrained pins;
    // negative slack pins the region to the footprint.
    let model = sta.model();
    let worst = match (d_slack, q_slack) {
        (Some(d), Some(q)) => d.min(q),
        (Some(s), None) | (None, Some(s)) => s,
        // Unconstrained both ways: free to move a long way.
        (None, None) => model.clock_period / 2.0,
    };
    let margin = model
        .slack_to_distance(worst)
        .min(options.max_region_radius);
    let region = inst
        .rect()
        .inflate(margin)
        .expect("positive margins never invert")
        .intersection(&design.die())
        .unwrap_or_else(|| inst.rect());

    let clock_pos = design.pin_position(design.register_clock_pin(inst_id));
    Some(ComposableRegister {
        inst: inst_id,
        class: c.class,
        width,
        max_class_width: lib.max_width(c.class),
        d_slack,
        q_slack,
        skew_window,
        region,
        clock_pos,
        area: c.area,
        drive_resistance: c.drive_resistance,
    })
}

fn placement_compatible(a: &ComposableRegister, b: &ComposableRegister) -> bool {
    a.region.intersects(&b.region)
}

/// The width-sum edge prune: a pair whose combined connected bits exceed
/// every library cell of the class can never co-inhabit a selectable
/// candidate — a complete MBR needs an exact-width cell and an incomplete
/// one a strictly wider cell, and both are bounded by the class maximum —
/// so keeping the edge only feeds the enumeration dead sub-cliques. On
/// libraries whose composable widths are a doubling chain (the standard
/// library) the rule never fires: two composable registers sum to at most
/// the class maximum. The synthetic-library tests below exercise the
/// firing path; `tests/pruning.rs` pins the vacuity on the presets.
fn width_sum_selectable(a: &ComposableRegister, b: &ComposableRegister) -> bool {
    u32::from(a.width) + u32::from(b.width) <= u32::from(a.max_class_width)
}

/// Maximum difference between two registers' D slacks (and separately Q
/// slacks) for timing compatibility, ps.
const MAX_SLACK_DIFFERENCE: f64 = 300.0;

fn timing_compatible(a: &ComposableRegister, b: &ComposableRegister) -> bool {
    // Opposite-forces rule: (D+, Q−) never merges with (D−, Q+).
    let polarity = |r: &ComposableRegister| match (r.d_slack, r.q_slack) {
        (Some(d), Some(q)) if d >= 0.0 && q < 0.0 => Some(true),
        (Some(d), Some(q)) if d < 0.0 && q >= 0.0 => Some(false),
        _ => None,
    };
    if let (Some(pa), Some(pb)) = (polarity(a), polarity(b)) {
        if pa != pb {
            return false;
        }
    }
    // Similar slack magnitudes on each side (only when both constrained).
    let similar = |x: Option<f64>, y: Option<f64>| match (x, y) {
        (Some(x), Some(y)) => (x - y).abs() <= MAX_SLACK_DIFFERENCE,
        _ => true,
    };
    if !similar(a.d_slack, b.d_slack) || !similar(a.q_slack, b.q_slack) {
        return false;
    }
    // A shared useful-skew value must exist.
    a.skew_window.intersect(&b.skew_window).is_feasible()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_liberty::standard_library;
    use mbr_netlist::{PinKind, RegisterAttrs, ScanInfo};
    use mbr_sta::DelayModel;
    use mbr_test::check::{any_u64, vec_of, Gen};
    use mbr_test::{prop_assert, prop_assert_eq, props};

    fn die() -> Rect {
        Rect::new(Point::new(0, 0), Point::new(400_000, 400_000))
    }

    struct Fixture {
        design: Design,
        lib: mbr_liberty::Library,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                design: Design::new("t", die()),
                lib: standard_library(),
            }
        }

        fn add_flop(&mut self, name: &str, loc: Point, attrs: RegisterAttrs) -> InstId {
            let cell = self.lib.cell_by_name("DFF_1X1").unwrap();
            self.design.add_register(name, &self.lib, cell, loc, attrs)
        }

        fn graph(&self) -> CompatGraph {
            let sta = Sta::new(&self.design, &self.lib, DelayModel::default()).unwrap();
            CompatGraph::build(&self.design, &self.lib, &sta, &ComposerOptions::default())
        }
    }

    #[test]
    fn nearby_same_clock_flops_are_compatible() {
        let mut f = Fixture::new();
        let clk = f.design.add_net("clk");
        let a = f.add_flop("a", Point::new(1_000, 600), RegisterAttrs::clocked(clk));
        let b = f.add_flop("b", Point::new(3_000, 600), RegisterAttrs::clocked(clk));
        let g = f.graph();
        assert_eq!(g.regs.len(), 2);
        let ia = g.regs.iter().position(|r| r.inst == a).unwrap();
        let ib = g.regs.iter().position(|r| r.inst == b).unwrap();
        assert!(g.graph.has_edge(ia, ib));
    }

    #[test]
    fn different_clocks_or_gating_break_compatibility() {
        let mut f = Fixture::new();
        let clk1 = f.design.add_net("clk1");
        let clk2 = f.design.add_net("clk2");
        f.add_flop("a", Point::new(1_000, 600), RegisterAttrs::clocked(clk1));
        f.add_flop("b", Point::new(3_000, 600), RegisterAttrs::clocked(clk2));
        let mut gated = RegisterAttrs::clocked(clk1);
        gated.gate_group = 7;
        f.add_flop("c", Point::new(5_000, 600), gated);
        let g = f.graph();
        assert_eq!(g.graph.edge_count(), 0);
    }

    #[test]
    fn fixed_and_max_width_registers_are_not_composable() {
        let mut f = Fixture::new();
        let clk = f.design.add_net("clk");
        let mut fixed = RegisterAttrs::clocked(clk);
        fixed.fixed = true;
        f.add_flop("a", Point::new(1_000, 600), fixed);
        let mut size_only = RegisterAttrs::clocked(clk);
        size_only.size_only = true;
        f.add_flop("b", Point::new(3_000, 600), size_only);
        // An 8-bit register is already the widest in its class.
        let cell8 = f.lib.cell_by_name("DFF_8X1").unwrap();
        f.design.add_register(
            "c",
            &f.lib,
            cell8,
            Point::new(5_000, 600),
            RegisterAttrs::clocked(clk),
        );
        let g = f.graph();
        assert!(g.regs.is_empty());
    }

    #[test]
    fn scan_partitions_and_sections_partition_the_graph() {
        let mut f = Fixture::new();
        let clk = f.design.add_net("clk");
        let mk = |part: u16, section: Option<(u32, u32)>| {
            let mut a = RegisterAttrs::clocked(clk);
            a.scan = Some(ScanInfo {
                partition: part,
                section,
            });
            a
        };
        let a = f.add_flop("a", Point::new(1_000, 600), mk(0, None));
        let b = f.add_flop("b", Point::new(2_000, 600), mk(0, None));
        let c = f.add_flop("c", Point::new(3_000, 600), mk(1, None));
        let d = f.add_flop("d", Point::new(4_000, 600), mk(0, Some((5, 0))));
        let e = f.add_flop("e", Point::new(5_000, 600), mk(0, Some((5, 1))));
        let x = f.add_flop("x", Point::new(6_000, 600), mk(0, Some((6, 0))));
        let off_chain = f.add_flop("y", Point::new(7_000, 600), RegisterAttrs::clocked(clk));
        let g = f.graph();
        let idx = |inst| g.regs.iter().position(|r| r.inst == inst).unwrap();
        assert!(
            g.graph.has_edge(idx(a), idx(b)),
            "same partition, unordered"
        );
        assert!(!g.graph.has_edge(idx(a), idx(c)), "different partitions");
        assert!(g.graph.has_edge(idx(d), idx(e)), "same ordered section");
        assert!(!g.graph.has_edge(idx(d), idx(x)), "different sections");
        assert!(!g.graph.has_edge(idx(a), idx(d)), "ordered with unordered");
        assert!(
            !g.graph.has_edge(idx(a), idx(off_chain)),
            "chained with unchained"
        );
    }

    #[test]
    fn distance_beyond_feasible_regions_breaks_compatibility() {
        let mut f = Fixture::new();
        let clk = f.design.add_net("clk");
        // Wire the flops into a pipeline so their slacks are finite and the
        // regions bounded.
        let cell = f.lib.cell_by_name("DFF_1X1").unwrap();
        let a = f.design.add_register(
            "a",
            &f.lib,
            cell,
            Point::new(0, 0),
            RegisterAttrs::clocked(clk),
        );
        let b = f.design.add_register(
            "b",
            &f.lib,
            cell,
            Point::new(390_000, 390_000),
            RegisterAttrs::clocked(clk),
        );
        for (name, from, to) in [("n0", a, b), ("n1", b, a)] {
            let net = f.design.add_net(name);
            let q = f.design.find_pin(from, PinKind::Q(0)).unwrap();
            let d = f.design.find_pin(to, PinKind::D(0)).unwrap();
            f.design.connect(q, net);
            f.design.connect(d, net);
        }
        let g = f.graph();
        assert_eq!(g.regs.len(), 2);
        assert_eq!(
            g.graph.edge_count(),
            0,
            "regions {:?} and {:?} must not reach across the die",
            g.regs[0].region,
            g.regs[1].region
        );
    }

    #[test]
    fn opposite_slack_polarities_are_incompatible() {
        // Build artificial registers and drive `timing_compatible` directly.
        let mk = |d: f64, q: f64| ComposableRegister {
            inst: InstId::from_index(0),
            class: ClassId::from_index(0),
            width: 1,
            max_class_width: 8,
            d_slack: Some(d),
            q_slack: Some(q),
            skew_window: SkewWindow { lo: -d, hi: q },
            region: Rect::new(Point::new(0, 0), Point::new(100, 100)),
            clock_pos: Point::ORIGIN,
            area: 2.0,
            drive_resistance: 6.0,
        };
        let pos_d_neg_q = mk(50.0, -20.0);
        let neg_d_pos_q = mk(-20.0, 50.0);
        let both_pos = mk(40.0, 40.0);
        assert!(!timing_compatible(&pos_d_neg_q, &neg_d_pos_q));
        assert!(timing_compatible(&both_pos, &both_pos));
        // Similar magnitudes required.
        let far = mk(40.0 + MAX_SLACK_DIFFERENCE + 1.0, 40.0);
        assert!(!timing_compatible(&both_pos, &far));
        // Disjoint skew windows block merging.
        let mut w1 = mk(100.0, 100.0);
        w1.skew_window = SkewWindow {
            lo: 80.0,
            hi: 100.0,
        };
        let mut w2 = mk(100.0, 100.0);
        w2.skew_window = SkewWindow {
            lo: -100.0,
            hi: -80.0,
        };
        assert!(!timing_compatible(&w1, &w2));
    }

    #[test]
    fn width_sum_beyond_class_max_drops_the_edge() {
        // Two partially connected 8-bit registers whose combined bits (5+4)
        // exceed the widest DFF (8): no library cell can host a group
        // containing both, so the prune removes their edge. Partially
        // connected registers only arise from incomplete MBRs of earlier
        // passes, which is why the rule never fires on the fresh presets.
        let mut f = Fixture::new();
        let clk = f.design.add_net("clk");
        let cell8 = f.lib.cell_by_name("DFF_8X1").unwrap();
        let a = f.design.add_register(
            "a",
            &f.lib,
            cell8,
            Point::new(1_000, 600),
            RegisterAttrs::clocked(clk),
        );
        let b = f.design.add_register(
            "b",
            &f.lib,
            cell8,
            Point::new(3_000, 600),
            RegisterAttrs::clocked(clk),
        );
        for (inst, bits) in [(a, 5u8), (b, 4u8)] {
            if let InstKind::Register { connected_bits, .. } = &mut f.design.inst_mut(inst).kind {
                *connected_bits = bits;
            }
        }
        let sta = Sta::new(&f.design, &f.lib, DelayModel::default()).unwrap();
        let pruned = CompatGraph::build(&f.design, &f.lib, &sta, &ComposerOptions::default());
        assert_eq!(pruned.regs.len(), 2, "width 5 and 4 are both composable");
        assert_eq!(pruned.graph.edge_count(), 0, "5 + 4 > 8: edge pruned");
        let unpruned = CompatGraph::build(
            &f.design,
            &f.lib,
            &sta,
            &ComposerOptions {
                prune_compat_edges: false,
                ..ComposerOptions::default()
            },
        );
        assert_eq!(
            unpruned.graph.edge_count(),
            1,
            "the pair is compatible in all four senses without the prune"
        );
    }

    #[test]
    fn width_sum_rule_is_exact_at_the_class_maximum() {
        let mk = |width: u8| ComposableRegister {
            inst: InstId::from_index(0),
            class: ClassId::from_index(0),
            width,
            max_class_width: 8,
            d_slack: None,
            q_slack: None,
            skew_window: SkewWindow { lo: 0.0, hi: 0.0 },
            region: Rect::new(Point::new(0, 0), Point::new(100, 100)),
            clock_pos: Point::ORIGIN,
            area: 2.0,
            drive_resistance: 6.0,
        };
        assert!(width_sum_selectable(&mk(4), &mk(4)), "sum == max stays");
        assert!(!width_sum_selectable(&mk(5), &mk(4)), "sum > max goes");
        assert!(width_sum_selectable(&mk(1), &mk(7)));
    }

    #[test]
    fn negative_slack_register_still_participates_with_footprint_region() {
        let mut f = Fixture::new();
        let clk = f.design.add_net("clk");
        let cell = f.lib.cell_by_name("DFF_1X1").unwrap();
        // Long path into b makes its D slack very negative under a tight
        // period.
        let a = f.design.add_register(
            "a",
            &f.lib,
            cell,
            Point::new(0, 0),
            RegisterAttrs::clocked(clk),
        );
        let b = f.design.add_register(
            "b",
            &f.lib,
            cell,
            Point::new(300_000, 0),
            RegisterAttrs::clocked(clk),
        );
        let net = f.design.add_net("n");
        f.design
            .connect(f.design.find_pin(a, PinKind::Q(0)).unwrap(), net);
        f.design
            .connect(f.design.find_pin(b, PinKind::D(0)).unwrap(), net);
        let model = DelayModel {
            clock_period: 100.0,
            ..DelayModel::default()
        };
        let sta = Sta::new(&f.design, &f.lib, model).unwrap();
        let g = CompatGraph::build(&f.design, &f.lib, &sta, &ComposerOptions::default());
        let rb = g.regs.iter().find(|r| r.inst == b).expect("b participates");
        assert!(rb.d_slack.unwrap() < 0.0);
        assert_eq!(
            rb.region,
            f.design.inst(b).rect(),
            "region collapses to footprint"
        );
    }

    /// The all-pairs Section 2 predicate: the oracle the key-grouped sweep
    /// must reproduce.
    fn compatible(design: &Design, a: &ComposableRegister, b: &ComposableRegister) -> bool {
        functionally_compatible(design, a, b)
            && scan_compatible(design, a, b)
            && placement_compatible(a, b)
            && timing_compatible(a, b)
    }

    fn functionally_compatible(
        design: &Design,
        a: &ComposableRegister,
        b: &ComposableRegister,
    ) -> bool {
        let aa = design.inst(a.inst).register_attrs().expect("register");
        let bb = design.inst(b.inst).register_attrs().expect("register");
        a.class == b.class
            && aa.clock == bb.clock
            && aa.gate_group == bb.gate_group
            && aa.reset == bb.reset
            && aa.set == bb.set
            && aa.enable == bb.enable
            && aa.scan_enable == bb.scan_enable
    }

    fn scan_compatible(design: &Design, a: &ComposableRegister, b: &ComposableRegister) -> bool {
        let aa = design.inst(a.inst).register_attrs().expect("register").scan;
        let bb = design.inst(b.inst).register_attrs().expect("register").scan;
        match (aa, bb) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.partition == y.partition
                    && match (x.section, y.section) {
                        (None, None) => true,
                        (Some((sx, _)), Some((sy, _))) => sx == sy,
                        _ => false,
                    }
            }
            _ => false,
        }
    }

    /// The oracle's edges (ascending `(i, j)`, `i < j`) and pruned count.
    fn all_pairs(
        design: &Design,
        regs: &[ComposableRegister],
        prune: bool,
    ) -> (Vec<(usize, usize)>, u64) {
        let mut edges = Vec::new();
        let mut removed = 0;
        for i in 0..regs.len() {
            for j in i + 1..regs.len() {
                if compatible(design, &regs[i], &regs[j]) {
                    if prune && !width_sum_selectable(&regs[i], &regs[j]) {
                        removed += 1;
                    } else {
                        edges.push((i, j));
                    }
                }
            }
        }
        (edges, removed)
    }

    fn edges_of(graph: &UnGraph) -> Vec<(usize, usize)> {
        (0..graph.len())
            .flat_map(|i| {
                graph
                    .neighbors(i)
                    .filter(move |&j| j > i)
                    .map(move |j| (i, j))
            })
            .collect()
    }

    /// Runs `f` and returns its result with the `core.compat.*` counter
    /// totals it flushed.
    fn counted<R>(f: impl FnOnce() -> R) -> (R, std::collections::BTreeMap<String, u64>) {
        let totals = std::sync::Arc::new(mbr_obs::CounterTotals::default());
        let out = mbr_obs::with_sink(totals.clone(), f);
        (out, totals.totals())
    }

    /// One random register: lattice position, cell (1-bit, 2-bit, or an
    /// 8-bit register with 1–7 connected bits), control variant, scan
    /// variant and a seed word for its connected bits, fanout and lattice
    /// region.
    type RegSpec = (i64, i64, u32, u32, u32, u64);

    fn arb_population() -> impl Gen<Value = Vec<RegSpec>> {
        vec_of(
            (0i64..12, 0i64..12, 0u32..3, 0u32..8, 0u32..7, any_u64()),
            2usize..40,
        )
    }

    /// A 48 µm die holding the population: clocks, gating and enables drawn
    /// so that registers differing only in gate group or enable net sit
    /// side by side; scan variants cover off-chain, two partitions and one
    /// partition with two ordered sections; and random Q→D nets give the
    /// registers finite, varied slacks.
    fn population_design(lib: &Library, pop: &[RegSpec]) -> Design {
        let die = Rect::new(Point::new(0, 0), Point::new(48_000, 48_000));
        let mut d = Design::new("pop", die);
        let clocks = [d.add_net("clk0"), d.add_net("clk1")];
        let enables = [d.add_net("en0"), d.add_net("en1")];
        let cells = ["DFF_1X1", "DFF_2X1", "DFF_8X1"].map(|n| lib.cell_by_name(n).unwrap());
        let mut regs = Vec::new();
        for (i, &(x, y, cell, ctl, scan, seed)) in pop.iter().enumerate() {
            let mut attrs = RegisterAttrs::clocked(clocks[usize::from(ctl == 4)]);
            attrs.gate_group = u32::from(ctl == 5);
            attrs.enable = match ctl {
                6 => Some(enables[0]),
                7 => Some(enables[1]),
                _ => None,
            };
            let pos = i as u32;
            attrs.scan = match scan {
                3 => Some(ScanInfo {
                    partition: 0,
                    section: None,
                }),
                4 => Some(ScanInfo {
                    partition: 0,
                    section: Some((5, pos)),
                }),
                5 => Some(ScanInfo {
                    partition: 0,
                    section: Some((6, pos)),
                }),
                6 => Some(ScanInfo {
                    partition: 1,
                    section: None,
                }),
                _ => None,
            };
            let c = cells[cell as usize];
            let fw = lib.cell(c).footprint_w;
            let fh = lib.cell(c).footprint_h;
            // Lattice points past the die edge clamp onto it, so border
            // registers get regions clipped at the die.
            let loc = Point::new((x * 4_000).min(48_000 - fw), (y * 4_000).min(48_000 - fh));
            let r = d.add_register(format!("r{i}"), lib, c, loc, attrs);
            if cell == 2 {
                if let InstKind::Register { connected_bits, .. } = &mut d.inst_mut(r).kind {
                    *connected_bits = 1 + (seed % 7) as u8;
                }
            }
            regs.push(r);
        }
        for (i, &(.., seed)) in pop.iter().enumerate() {
            if seed % 3 != 0 {
                continue;
            }
            let to = regs[(seed / 3) as usize % regs.len()];
            let q = d.find_pin(regs[i], PinKind::Q(0)).unwrap();
            let dp = d.find_pin(to, PinKind::D(0)).unwrap();
            if d.pin(dp).net.is_some() {
                continue;
            }
            let net = match d.pin(q).net {
                Some(net) => net,
                None => {
                    let net = d.add_net(format!("n{i}"));
                    d.connect(q, net);
                    net
                }
            };
            d.connect(dp, net);
        }
        d
    }

    props! {
        cases = 64;

        /// The key-grouped sweep finds exactly the all-pairs predicate's
        /// edges and prunes exactly its width-sum pairs, on real regions
        /// (clipped at the die, radius up to beyond the die) and on lattice
        /// regions that touch at edges and corners.
        fn sweep_matches_the_all_pairs_predicate(
            pop in arb_population(),
            radius in 0usize..4,
            period in 0usize..3,
            prune in 0u32..2,
        ) {
            let lib = standard_library();
            let d = population_design(&lib, &pop);
            let model = DelayModel {
                clock_period: [150.0, 400.0, 1_000.0][period],
                ..DelayModel::default()
            };
            let sta = Sta::new(&d, &lib, model).unwrap();
            let options = ComposerOptions {
                max_region_radius: [0, 3_000, 20_000, 10_000_000][radius],
                prune_compat_edges: prune == 1,
                ..ComposerOptions::default()
            };
            let (g, totals) = counted(|| CompatGraph::build(&d, &lib, &sta, &options));
            prop_assert_eq!(g.regs.len(), pop.len());
            let (edges, removed) = all_pairs(&d, &g.regs, prune == 1);
            prop_assert_eq!(edges_of(&g.graph), edges);
            let get = |name: &str| totals.get(name).copied().unwrap_or(0);
            prop_assert_eq!(get("core.compat.edges_removed"), removed);
            prop_assert!(get("core.compat.pairs_checked") <= (pop.len() * (pop.len() - 1) / 2) as u64);

            // Lattice regions of 0–3 units a side on a 1 µm grid: many
            // pairs touch exactly at an edge or a corner.
            let mut regs = g.regs.clone();
            for (reg, &(x, y, .., seed)) in regs.iter_mut().zip(&pop) {
                let lo = Point::new(x * 1_000, y * 1_000);
                let size = Point::new((seed >> 8) as i64 % 4 * 1_000, (seed >> 16) as i64 % 4 * 1_000);
                reg.region = Rect::new(lo, Point::new(lo.x + size.x, lo.y + size.y));
            }
            let (graph, totals) = counted(|| connect(&d, &regs, prune == 1));
            let (edges, removed) = all_pairs(&d, &regs, prune == 1);
            prop_assert_eq!(edges_of(&graph), edges);
            prop_assert_eq!(totals.get("core.compat.edges_removed").copied().unwrap_or(0), removed);
        }
    }
}
