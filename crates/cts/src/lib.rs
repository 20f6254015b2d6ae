#![warn(missing_docs)]
//! Clock-tree synthesis estimation and useful-skew assignment.
//!
//! The headline benefit of MBR composition is a lighter clock tree: fewer
//! sinks mean less clock wire, fewer and smaller buffers, and less switching
//! capacitance (Table 1's "Clk Bufs" and "Clk Cap" columns). This crate
//! provides:
//!
//! * [`synthesize_clock_tree`] — a recursive geometric-clustering clock tree
//!   over every clock net: sinks are grouped bottom-up into buffered
//!   clusters under fanout and load limits, cluster taps are clustered
//!   recursively up to the root, and wire/pin/buffer capacitance is
//!   accounted per level ([`CtsReport`]),
//! * [`assign_useful_skew`] — Fishburn-style per-register clock offsets
//!   within the [`mbr_sta::SkewWindow`]: each register's offset is moved to
//!   balance its D- and Q-side worst slacks, which is exactly the "useful
//!   skew applied to the new MBRs, benefiting from their timing compatible
//!   smaller counterparts" step of the paper's Fig. 4 flow.
//!
//! This is an *estimator*, not a signoff CTS: it preserves the monotone
//! relationships the experiments measure (sink count/placement → tree cap
//! and buffer count) without modifying the netlist.
//!
//! # Examples
//!
//! ```
//! use mbr_geom::{Point, Rect};
//! use mbr_liberty::standard_library;
//! use mbr_netlist::{Design, RegisterAttrs};
//! use mbr_cts::{synthesize_clock_tree, CtsConfig};
//!
//! let lib = standard_library();
//! let mut d = Design::new("t", Rect::new(Point::new(0, 0), Point::new(90_000, 90_000)));
//! let clk = d.add_net("clk");
//! let cell = lib.cell_by_name("DFF_1X1").expect("flop");
//! for i in 0..40i64 {
//!     d.add_register(
//!         format!("r{i}"), &lib, cell,
//!         Point::new((i % 8) * 10_000, (i / 8) * 10_000),
//!         RegisterAttrs::clocked(clk),
//!     );
//! }
//! let report = synthesize_clock_tree(&d, &CtsConfig::default());
//! assert_eq!(report.sinks, 40);
//! assert!(report.buffers >= 2);
//! assert!(report.total_cap_ff > 0.0);
//! ```

use mbr_geom::{Dbu, Point};
use mbr_liberty::Library;
use mbr_netlist::{Design, InstId, PinKind};
use mbr_obs::{self as obs, Counter, Gauge, Histogram, HistogramData};
use mbr_sta::Sta;

/// Clock-tree estimation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CtsConfig {
    /// Maximum sinks a single buffer may drive.
    pub max_fanout: usize,
    /// Maximum capacitive load per buffer, fF.
    pub max_load_ff: f64,
    /// Input capacitance of a clock buffer, fF.
    pub buffer_input_cap: f64,
    /// Clock-wire capacitance per DBU, fF (clock routing is wider/shielded,
    /// so this is higher than signal wire).
    pub wire_cap_per_dbu: f64,
    /// Top-level distribution (trunk/spine) length as a multiple of the die
    /// half-perimeter. The trunk exists regardless of sink count — it is why
    /// the paper's relative clock-cap savings are single-digit percentages
    /// even when leaf sinks drop by a third. Set to 0 to disable.
    pub trunk_factor: f64,
}

impl Default for CtsConfig {
    fn default() -> Self {
        CtsConfig {
            max_fanout: 24,
            max_load_ff: 60.0,
            buffer_input_cap: 1.4,
            wire_cap_per_dbu: 3e-4,
            trunk_factor: 2.0,
        }
    }
}

/// Supply/clocking assumptions for dynamic-power estimates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Supply voltage, V.
    pub vdd: f64,
    /// Clock frequency, GHz (1/period when driven from the delay model).
    pub freq_ghz: f64,
    /// Average clock activity (1.0 for a free-running clock; lower when
    /// gating keeps regions idle).
    pub activity: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            vdd: 0.9,
            freq_ghz: 1.0,
            activity: 1.0,
        }
    }
}

impl CtsReport {
    /// Dynamic power switched by the clock tree, µW: `α·f·C·V²` over the
    /// total tree capacitance. The clock toggles twice per cycle, but the
    /// conventional `f·C·V²` form (not `½·f·C·V²`) already accounts for the
    /// two edges.
    ///
    /// This is the quantity the paper optimizes — "clock power can
    /// contribute 20 % to 40 % of the dynamic power" — with tree
    /// capacitance as its handle.
    pub fn clock_power_uw(&self, power: &PowerModel) -> f64 {
        // GHz × fF × V² = 1e9 × 1e-15 W = µW directly.
        power.activity * power.freq_ghz * self.total_cap_ff * power.vdd * power.vdd
    }
}

/// Clock-tree metrics over all clock nets of a design.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CtsReport {
    /// Clock sinks (register clock pins) served.
    pub sinks: usize,
    /// Buffers inserted.
    pub buffers: usize,
    /// Tree levels of the deepest clock net.
    pub levels: usize,
    /// Total clock wire length, DBU.
    pub wirelength_dbu: Dbu,
    /// Clock wire capacitance, fF.
    pub wire_cap_ff: f64,
    /// Sink (register clock pin) capacitance, fF.
    pub sink_cap_ff: f64,
    /// Buffer input capacitance, fF.
    pub buffer_cap_ff: f64,
    /// Total switched clock capacitance, fF.
    pub total_cap_ff: f64,
}

/// Builds the estimated clock tree for every clock net in `design` and
/// returns the aggregate capacitance/buffer metrics.
///
/// Sinks are the register clock pins of each clock net. Each net with at
/// least one sink contributes at least one (root) buffer. Equivalent to
/// summing [`CtsReport::from_tree`] over [`build_clock_trees`].
pub fn synthesize_clock_tree(design: &Design, config: &CtsConfig) -> CtsReport {
    let mut report = CtsReport::default();
    for tree in build_clock_trees(design, config) {
        report.accumulate(&CtsReport::from_tree(&tree, config));
    }
    report
}

/// What a clock-tree node is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TreeNodeKind {
    /// A register clock pin with its input capacitance, fF.
    Sink {
        /// Pin capacitance, fF.
        cap: f64,
    },
    /// An inserted clock buffer.
    Buffer,
}

/// One node of a built [`ClockTree`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeNode {
    /// Node position, DBU.
    pub pos: Point,
    /// Sink or buffer.
    pub kind: TreeNodeKind,
    /// Parent node index; `None` only for the root buffer.
    pub parent: Option<usize>,
}

/// The explicit topology of one clock net's estimated tree.
#[derive(Clone, Debug, PartialEq)]
pub struct ClockTree {
    /// Name of the clock net this tree distributes.
    pub net_name: String,
    /// All nodes; sinks first, then buffers level by level.
    pub nodes: Vec<TreeNode>,
    /// Index of the root buffer.
    pub root: usize,
    /// Trunk wirelength from the clock source to the root, DBU.
    pub trunk_dbu: Dbu,
}

impl ClockTree {
    /// Tree depth: buffer levels between root and sinks (≥ 1).
    pub fn levels(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, TreeNodeKind::Sink { .. }))
            .map(|n| {
                let mut depth = 0;
                let mut cur = n.parent;
                while let Some(p) = cur {
                    depth += 1;
                    cur = self.nodes[p].parent;
                }
                depth
            })
            .max()
            .unwrap_or(0)
    }

    /// Sink count.
    pub fn sink_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, TreeNodeKind::Sink { .. }))
            .count()
    }

    /// Buffer count.
    pub fn buffer_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == TreeNodeKind::Buffer)
            .count()
    }

    /// Graphviz DOT rendering of the tree (buffers as boxes, sinks as
    /// points), for visual inspection of the clustering.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.net_name);
        for (i, node) in self.nodes.iter().enumerate() {
            match node.kind {
                TreeNodeKind::Buffer => {
                    let _ = writeln!(out, "  n{i} [shape=box, label=\"buf@{}\"];", node.pos);
                }
                TreeNodeKind::Sink { .. } => {
                    let _ = writeln!(out, "  n{i} [shape=point];");
                }
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                let _ = writeln!(out, "  n{p} -> n{i};");
            }
        }
        out.push_str("}\n");
        out
    }
}

impl CtsReport {
    /// Metrics of one tree under a config.
    pub fn from_tree(tree: &ClockTree, config: &CtsConfig) -> CtsReport {
        let mut report = CtsReport {
            sinks: tree.sink_count(),
            buffers: tree.buffer_count(),
            levels: tree.levels(),
            ..CtsReport::default()
        };
        for node in &tree.nodes {
            if let TreeNodeKind::Sink { cap } = node.kind {
                report.sink_cap_ff += cap;
            } else {
                report.buffer_cap_ff += config.buffer_input_cap;
            }
            if let Some(p) = node.parent {
                report.wirelength_dbu += node.pos.manhattan(tree.nodes[p].pos);
            }
        }
        report.wirelength_dbu += tree.trunk_dbu;
        report.wire_cap_ff = config.wire_cap_per_dbu * report.wirelength_dbu as f64;
        report.total_cap_ff = report.wire_cap_ff + report.sink_cap_ff + report.buffer_cap_ff;
        report
    }

    fn accumulate(&mut self, other: &CtsReport) {
        self.sinks += other.sinks;
        self.buffers += other.buffers;
        self.levels = self.levels.max(other.levels);
        self.wirelength_dbu += other.wirelength_dbu;
        self.wire_cap_ff += other.wire_cap_ff;
        self.sink_cap_ff += other.sink_cap_ff;
        self.buffer_cap_ff += other.buffer_cap_ff;
        self.total_cap_ff = self.wire_cap_ff + self.sink_cap_ff + self.buffer_cap_ff;
    }
}

/// Builds the explicit clock-tree topology of every clock net (one
/// [`ClockTree`] per net with sinks).
pub fn build_clock_trees(design: &Design, config: &CtsConfig) -> Vec<ClockTree> {
    let mut trees = Vec::new();
    for (net, net_data) in design.live_nets() {
        if !design.is_clock_net(net) {
            continue;
        }
        let sinks: Vec<(Point, f64)> = net_data
            .pins
            .iter()
            .filter(|&&p| design.pin(p).kind == PinKind::Clock)
            .map(|&p| (design.pin_position(p), design.pin(p).cap))
            .collect();
        if sinks.is_empty() {
            continue;
        }
        let mut nodes: Vec<TreeNode> = sinks
            .iter()
            .map(|&(pos, cap)| TreeNode {
                pos,
                kind: TreeNodeKind::Sink { cap },
                parent: None,
            })
            .collect();

        // Bottom level clusters the sinks; upper levels cluster buffer taps
        // until one root remains.
        let mut level: Vec<usize> = (0..nodes.len()).collect();
        loop {
            let items: Vec<(Point, f64, usize)> = level
                .iter()
                .map(|&i| {
                    let cap = match nodes[i].kind {
                        TreeNodeKind::Sink { cap } => cap,
                        TreeNodeKind::Buffer => config.buffer_input_cap,
                    };
                    (nodes[i].pos, cap, i)
                })
                .collect();
            let next = cluster_level(&items, config, &mut nodes);
            if next.len() <= 1 {
                level = next;
                break;
            }
            level = next;
        }
        let root = level.first().copied().unwrap_or(0);
        let die = design.die();
        let trunk = ((die.width() + die.height()) as f64 * config.trunk_factor) as Dbu;
        trees.push(ClockTree {
            net_name: design.net(net).name.clone(),
            nodes,
            root,
            trunk_dbu: trunk,
        });
    }
    trees
}

/// Splits `items` (position, cap, node index) into clusters satisfying the
/// fanout/load limits via recursive median bisection, appends one buffer
/// node per cluster at its centroid, links the children, and returns the new
/// buffer node indices.
fn cluster_level(
    items: &[(Point, f64, usize)],
    config: &CtsConfig,
    nodes: &mut Vec<TreeNode>,
) -> Vec<usize> {
    let mut taps = Vec::new();
    let mut stack = vec![items.to_vec()];
    while let Some(group) = stack.pop() {
        let cap: f64 = group.iter().map(|&(_, c, _)| c).sum();
        if group.len() > config.max_fanout || (cap > config.max_load_ff && group.len() > 1) {
            // Split along the wider axis at the median.
            let (min_x, max_x) = minmax(group.iter().map(|&(p, _, _)| p.x));
            let (min_y, max_y) = minmax(group.iter().map(|&(p, _, _)| p.y));
            let mut sorted = group;
            if max_x - min_x >= max_y - min_y {
                sorted.sort_by_key(|&(p, _, _)| (p.x, p.y));
            } else {
                sorted.sort_by_key(|&(p, _, _)| (p.y, p.x));
            }
            let mid = sorted.len() / 2;
            let tail = sorted.split_off(mid);
            stack.push(sorted);
            stack.push(tail);
            continue;
        }
        // Buffered cluster at the centroid of its children.
        let centroid = centroid(&group);
        let buffer_idx = nodes.len();
        nodes.push(TreeNode {
            pos: centroid,
            kind: TreeNodeKind::Buffer,
            parent: None,
        });
        for &(_, _, child) in &group {
            nodes[child].parent = Some(buffer_idx);
        }
        taps.push(buffer_idx);
    }
    taps
}

fn centroid(points: &[(Point, f64, usize)]) -> Point {
    debug_assert!(!points.is_empty());
    let n = points.len() as i64;
    let sx: i64 = points.iter().map(|&(p, _, _)| p.x).sum();
    let sy: i64 = points.iter().map(|&(p, _, _)| p.y).sum();
    Point::new(sx / n, sy / n)
}

fn minmax(iter: impl Iterator<Item = i64>) -> (i64, i64) {
    iter.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// Useful-skew assignment parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewConfig {
    /// Largest clock offset magnitude the clock network may realize, ps.
    pub max_abs_skew: f64,
    /// Balance passes (register windows interact through shared paths).
    pub passes: usize,
    /// Offsets below this threshold are not worth a clock-tree detour, ps.
    pub min_useful: f64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            max_abs_skew: 200.0,
            passes: 3,
            min_useful: 1.0,
        }
    }
}

/// Outcome of [`assign_useful_skew`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SkewReport {
    /// Registers whose clock offset changed.
    pub adjusted: usize,
    /// WNS before assignment, ps.
    pub wns_before: f64,
    /// WNS after assignment, ps.
    pub wns_after: f64,
    /// TNS before assignment, ps.
    pub tns_before: f64,
    /// TNS after assignment, ps.
    pub tns_after: f64,
}

/// Assigns per-register useful-skew clock offsets to the given registers,
/// balancing each register's worst D-side and Q-side slacks (the optimal
/// single-register choice: the offset that maximizes `min(slack_D + δ,
/// slack_Q − δ)` is `δ* = (slack_Q − slack_D) / 2`).
///
/// Runs `config.passes` sweeps with incremental timing updates between
/// registers, clamping offsets to `±config.max_abs_skew`, and only moves a
/// register when the change exceeds `config.min_useful`. Never worsens TNS:
/// a pass-level rollback restores the previous offsets if TNS degrades.
pub fn assign_useful_skew(
    design: &mut Design,
    lib: &Library,
    sta: &mut Sta,
    regs: &[InstId],
    config: &SkewConfig,
) -> SkewReport {
    let mut report = SkewReport {
        wns_before: sta.report().wns(),
        tns_before: sta.report().tns(),
        ..SkewReport::default()
    };

    let mut adjusted = std::collections::BTreeSet::new();
    for _ in 0..config.passes {
        let snapshot: Vec<(InstId, f64)> = regs
            .iter()
            .map(|&r| {
                (
                    r,
                    design
                        .inst(r)
                        .register_attrs()
                        .expect("register")
                        .clock_offset,
                )
            })
            .collect();
        let tns_at_pass_start = sta.report().tns();

        let mut pass_changed = false;
        for &r in regs {
            let d_slack = sta.report().register_d_slack(design, r);
            let q_slack = sta.report().register_q_slack(design, r);
            // One-sided registers gain nothing from skew.
            let (Some(sd), Some(sq)) = (d_slack, q_slack) else {
                continue;
            };
            let attrs = design.inst_mut(r).register_attrs_mut().expect("register");
            // Balance point, as an *increment* over the current offset.
            let delta = (sq - sd) / 2.0;
            let new_offset =
                (attrs.clock_offset + delta).clamp(-config.max_abs_skew, config.max_abs_skew);
            if (new_offset - attrs.clock_offset).abs() < config.min_useful {
                continue;
            }
            attrs.clock_offset = new_offset;
            sta.update_after_change(design, lib, &[r]);
            adjusted.insert(r);
            pass_changed = true;
        }

        if sta.report().tns() < tns_at_pass_start - 1e-9 {
            // The pass hurt: roll back its offsets.
            for (r, offset) in snapshot {
                design
                    .inst_mut(r)
                    .register_attrs_mut()
                    .expect("register")
                    .clock_offset = offset;
            }
            let all: Vec<InstId> = regs.to_vec();
            sta.update_after_change(design, lib, &all);
            break;
        }
        if !pass_changed {
            break;
        }
    }

    report.adjusted = adjusted.len();
    report.wns_after = sta.report().wns();
    report.tns_after = sta.report().tns();
    obs::counter(Counter::SkewAdjusted, report.adjusted as u64);
    obs::gauge(Gauge::WnsPs, report.wns_after);
    obs::gauge(Gauge::TnsPs, report.tns_after);
    // Final |offset| magnitudes (rounded to whole ps) of every touched
    // register — after any rollback, so the distribution matches what the
    // clock network must actually realize.
    let mut magnitudes = HistogramData::new();
    for &r in &adjusted {
        if let Some(attrs) = design.inst(r).register_attrs() {
            magnitudes.record(attrs.clock_offset.abs().round() as u64);
        }
    }
    obs::histogram(Histogram::SkewAbsAdjustPs, &magnitudes);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_geom::Rect;
    use mbr_liberty::standard_library;
    use mbr_netlist::RegisterAttrs;
    use mbr_sta::DelayModel;

    fn die() -> Rect {
        Rect::new(Point::new(0, 0), Point::new(400_000, 400_000))
    }

    fn spread_design(n: i64) -> (Design, Vec<InstId>) {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let cols = (n as f64).sqrt().ceil() as i64;
        let regs = (0..n)
            .map(|i| {
                d.add_register(
                    format!("r{i}"),
                    &lib,
                    cell,
                    Point::new((i % cols) * 8_000, (i / cols) * 8_000),
                    RegisterAttrs::clocked(clk),
                )
            })
            .collect();
        (d, regs)
    }

    #[test]
    fn fewer_sinks_means_lighter_tree() {
        let cfg = CtsConfig::default();
        let (d_many, _) = spread_design(200);
        let (d_few, _) = spread_design(60);
        let many = synthesize_clock_tree(&d_many, &cfg);
        let few = synthesize_clock_tree(&d_few, &cfg);
        assert!(few.buffers < many.buffers);
        assert!(few.total_cap_ff < many.total_cap_ff);
        assert!(few.wirelength_dbu < many.wirelength_dbu);
        assert_eq!(many.sinks, 200);
    }

    #[test]
    fn single_sink_gets_one_buffer() {
        let (d, _) = spread_design(1);
        let r = synthesize_clock_tree(&d, &CtsConfig::default());
        assert_eq!(r.sinks, 1);
        assert_eq!(r.buffers, 1);
        assert_eq!(r.levels, 1);
    }

    #[test]
    fn no_clock_nets_no_tree() {
        let d = Design::new("t", die());
        let r = synthesize_clock_tree(&d, &CtsConfig::default());
        assert_eq!(r, CtsReport::default());
    }

    #[test]
    fn fanout_limit_is_respected() {
        let cfg = CtsConfig {
            max_fanout: 8,
            ..CtsConfig::default()
        };
        let (d, _) = spread_design(100);
        let r = synthesize_clock_tree(&d, &cfg);
        // 100 sinks with fanout 8 need at least 13 leaf buffers.
        assert!(r.buffers >= 13, "buffers = {}", r.buffers);
        assert!(r.levels >= 2);
    }

    #[test]
    fn total_cap_is_the_sum_of_parts() {
        let (d, _) = spread_design(50);
        let r = synthesize_clock_tree(&d, &CtsConfig::default());
        assert!((r.total_cap_ff - (r.wire_cap_ff + r.sink_cap_ff + r.buffer_cap_ff)).abs() < 1e-9);
        // MBR library sink caps: 50 flops at 0.9 fF.
        assert!((r.sink_cap_ff - 45.0).abs() < 1e-6);
    }

    #[test]
    fn useful_skew_recovers_an_unbalanced_pipeline() {
        // r0 --long wire--> r1 --short wire--> r2: r1's D side is much
        // tighter than its Q side, so positive skew on r1 helps.
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let r0 = d.add_register(
            "r0",
            &lib,
            cell,
            Point::new(0, 0),
            RegisterAttrs::clocked(clk),
        );
        let r1 = d.add_register(
            "r1",
            &lib,
            cell,
            Point::new(330_000, 0),
            RegisterAttrs::clocked(clk),
        );
        let r2 = d.add_register(
            "r2",
            &lib,
            cell,
            Point::new(340_000, 0),
            RegisterAttrs::clocked(clk),
        );
        for (a, b, n) in [(r0, r1, "n0"), (r1, r2, "n1")] {
            let net = d.add_net(n);
            d.connect(d.find_pin(a, PinKind::Q(0)).unwrap(), net);
            d.connect(d.find_pin(b, PinKind::D(0)).unwrap(), net);
        }
        // Pick a period that makes the long hop fail.
        let model = DelayModel {
            clock_period: 400.0,
            ..DelayModel::default()
        };
        let mut sta = Sta::new(&d, &lib, model).unwrap();
        let before = sta.report().tns();
        assert!(before < 0.0, "fixture must start violated, tns = {before}");

        let report = assign_useful_skew(
            &mut d,
            &lib,
            &mut sta,
            &[r0, r1, r2],
            &SkewConfig::default(),
        );
        assert!(report.adjusted >= 1);
        assert!(
            report.tns_after > report.tns_before,
            "skew must recover slack: {} -> {}",
            report.tns_before,
            report.tns_after
        );
        // r1 got a positive offset (capture later).
        let off = d.inst(r1).register_attrs().unwrap().clock_offset;
        assert!(off > 0.0, "expected positive skew, got {off}");
        // Oracle: full re-analysis agrees with the incremental state.
        let full = Sta::new(&d, &lib, model).unwrap();
        assert_eq!(full.report().tns().to_bits(), sta.report().tns().to_bits());
    }

    #[test]
    fn useful_skew_leaves_met_designs_mostly_alone() {
        let lib = standard_library();
        let (mut d, regs) = {
            let mut d = Design::new("t", die());
            let clk = d.add_net("clk");
            let cell = lib.cell_by_name("DFF_1X1").unwrap();
            let r0 = d.add_register(
                "a",
                &lib,
                cell,
                Point::new(0, 0),
                RegisterAttrs::clocked(clk),
            );
            let r1 = d.add_register(
                "b",
                &lib,
                cell,
                Point::new(10_000, 0),
                RegisterAttrs::clocked(clk),
            );
            let net = d.add_net("n");
            d.connect(d.find_pin(r0, PinKind::Q(0)).unwrap(), net);
            d.connect(d.find_pin(r1, PinKind::D(0)).unwrap(), net);
            (d, vec![r0, r1])
        };
        let model = DelayModel::default();
        let mut sta = Sta::new(&d, &lib, model).unwrap();
        assert_eq!(sta.report().failing_endpoints(), 0);
        let report = assign_useful_skew(&mut d, &lib, &mut sta, &regs, &SkewConfig::default());
        assert_eq!(report.tns_after, 0.0);
        assert!(
            sta.report().failing_endpoints() == 0,
            "must not create violations"
        );
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;
    use mbr_geom::Rect;
    use mbr_liberty::standard_library;
    use mbr_netlist::{Design, RegisterAttrs};

    fn spread(n: i64) -> Design {
        let lib = standard_library();
        let mut d = Design::new(
            "t",
            Rect::new(Point::new(0, 0), Point::new(400_000, 400_000)),
        );
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let cols = (n as f64).sqrt().ceil() as i64;
        for i in 0..n {
            d.add_register(
                format!("r{i}"),
                &lib,
                cell,
                Point::new((i % cols) * 8_000, (i / cols) * 8_000),
                RegisterAttrs::clocked(clk),
            );
        }
        d
    }

    #[test]
    fn every_node_reaches_the_root() {
        let d = spread(100);
        let trees = build_clock_trees(&d, &CtsConfig::default());
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.net_name, "clk");
        assert!(tree.nodes[tree.root].parent.is_none());
        for (i, _) in tree.nodes.iter().enumerate() {
            let mut cur = i;
            let mut hops = 0;
            while let Some(p) = tree.nodes[cur].parent {
                cur = p;
                hops += 1;
                assert!(hops <= tree.nodes.len(), "cycle in tree");
            }
            assert_eq!(cur, tree.root, "node {i} must reach the root");
        }
        assert_eq!(tree.sink_count(), 100);
    }

    #[test]
    fn report_derives_exactly_from_the_tree() {
        let d = spread(60);
        let cfg = CtsConfig::default();
        let summed = synthesize_clock_tree(&d, &cfg);
        let trees = build_clock_trees(&d, &cfg);
        let from_tree = CtsReport::from_tree(&trees[0], &cfg);
        assert_eq!(summed, from_tree, "one net: report equals tree metrics");
    }

    #[test]
    fn dot_export_mentions_every_buffer() {
        let d = spread(30);
        let trees = build_clock_trees(&d, &CtsConfig::default());
        let dot = trees[0].to_dot();
        assert!(dot.starts_with("digraph"));
        assert_eq!(dot.matches("shape=box").count(), trees[0].buffer_count());
        assert_eq!(dot.matches("shape=point").count(), trees[0].sink_count());
        // One edge per non-root node.
        assert_eq!(dot.matches(" -> ").count(), trees[0].nodes.len() - 1);
    }

    #[test]
    fn two_clock_domains_build_two_trees() {
        let lib = standard_library();
        let mut d = Design::new(
            "t",
            Rect::new(Point::new(0, 0), Point::new(200_000, 200_000)),
        );
        let clk_a = d.add_net("clk_a");
        let clk_b = d.add_net("clk_b");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        for i in 0..6i64 {
            let clk = if i % 2 == 0 { clk_a } else { clk_b };
            d.add_register(
                format!("r{i}"),
                &lib,
                cell,
                Point::new(i * 5_000, 600),
                RegisterAttrs::clocked(clk),
            );
        }
        let trees = build_clock_trees(&d, &CtsConfig::default());
        assert_eq!(trees.len(), 2);
        let names: Vec<&str> = trees.iter().map(|t| t.net_name.as_str()).collect();
        assert!(names.contains(&"clk_a") && names.contains(&"clk_b"));
        assert!(trees.iter().all(|t| t.sink_count() == 3));
        let report = synthesize_clock_tree(&d, &CtsConfig::default());
        assert_eq!(report.sinks, 6);
        assert!(report.buffers >= 2);
    }
}

#[cfg(test)]
mod power_tests {
    use super::*;

    #[test]
    fn clock_power_scales_with_cap_frequency_and_vdd() {
        let report = CtsReport {
            total_cap_ff: 1000.0, // 1 pF
            ..CtsReport::default()
        };
        let base = PowerModel::default();
        // 1 pF toggling at 1 GHz from 0.9 V: f·C·V² = 1e9 · 1e-12 · 0.81 W
        // = 0.81 mW = 810 µW.
        let p = report.clock_power_uw(&base);
        assert!((p - 810.0).abs() < 1e-9, "1 pF at 1 GHz, 0.9 V: {p} uW");
        // Doubling frequency doubles power; halving activity halves it.
        let fast = PowerModel {
            freq_ghz: 2.0,
            ..base
        };
        assert!((report.clock_power_uw(&fast) - 2.0 * p).abs() < 1e-12);
        let gated = PowerModel {
            activity: 0.5,
            ..base
        };
        assert!((report.clock_power_uw(&gated) - 0.5 * p).abs() < 1e-12);
    }
}
