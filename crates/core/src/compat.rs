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

use std::collections::BTreeMap;

use mbr_arena::U64Set;
use mbr_geom::{Point, Rect};
use mbr_graph::UnGraph;
use mbr_liberty::{ClassId, Library};
use mbr_netlist::{Design, InstId, InstKind};
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
    /// Pairwise checks are restricted to registers whose feasible-region
    /// bounding boxes can overlap, via a uniform spatial hash — the full
    /// quadratic check would dominate runtime on real designs.
    pub fn build(
        design: &Design,
        lib: &Library,
        sta: &Sta,
        options: &ComposerOptions,
    ) -> CompatGraph {
        let regs = collect_composable(design, lib, sta, options);
        let n = regs.len();
        let mut graph = UnGraph::new(n);

        // Spatial hash over region bounding boxes.
        let cell_size: i64 = 40_000; // 40 µm buckets
        let mut buckets: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
        let bucket_of = |p: Point| (p.x.div_euclid(cell_size), p.y.div_euclid(cell_size));
        for (i, reg) in regs.iter().enumerate() {
            let lo = bucket_of(reg.region.lo());
            let hi = bucket_of(reg.region.hi());
            for bx in lo.0..=hi.0 {
                for by in lo.1..=hi.1 {
                    buckets.entry((bx, by)).or_default().push(i);
                }
            }
        }

        let mut checked = U64Set::new();
        let mut removed = 0u64;
        for bucket in buckets.values() {
            for (k, &i) in bucket.iter().enumerate() {
                for &j in &bucket[k + 1..] {
                    if !checked.insert(pair_key(i.min(j), i.max(j))) {
                        continue;
                    }
                    if compatible(design, &regs[i], &regs[j]) {
                        if options.prune_compat_edges && !width_sum_selectable(&regs[i], &regs[j]) {
                            removed += 1;
                        } else {
                            graph.add_edge(i, j);
                        }
                    }
                }
            }
        }
        obs::counter(Counter::CompatRegisters, regs.len() as u64);
        obs::counter(Counter::CompatEdges, graph.edge_count() as u64);
        obs::counter(Counter::CompatEdgesRemoved, removed);
        CompatGraph { regs, graph }
    }

    /// Clock-pin positions, node-indexed (input to the K-partitioning).
    pub fn clock_positions(&self) -> Vec<Point> {
        self.regs.iter().map(|r| r.clock_pos).collect()
    }
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

/// A node pair packed into one `u64` set key; callers normalize so
/// `lo <= hi`.
fn pair_key(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi <= u32::MAX as usize);
    ((lo as u64) << 32) | hi as u64
}

/// Full pairwise compatibility predicate (functional + scan + placement +
/// timing).
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
    if a.class != b.class {
        return false;
    }
    let aa = design.inst(a.inst).register_attrs().expect("register");
    let bb = design.inst(b.inst).register_attrs().expect("register");
    aa.clock == bb.clock
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
                    // Ordered-section members may only merge within their
                    // section (consecutiveness is a per-candidate check).
                    (Some((sx, _)), Some((sy, _))) => sx == sy,
                    _ => false,
                }
        }
        // On-chain with off-chain: would need chain surgery; incompatible.
        _ => false,
    }
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
}
