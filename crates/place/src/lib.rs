#![warn(missing_docs)]
//! Placement substrate: row-based legalization, overlap checking, and
//! routing-congestion estimation.
//!
//! MBR composition replaces groups of registers with one larger cell placed
//! at the LP-optimal point (Section 4.2), which generally overlaps existing
//! cells; the flow then legalizes the new MBRs into rows. The paper's Table 1
//! reports that composition leaves routing congestion ("Ovfl Edges",
//! overflow edges per \\[15\\]) essentially unchanged — this crate provides the
//! machinery to measure exactly that:
//!
//! * [`PlacementGrid`] — die rows and sites,
//! * [`legalize`] — incremental nearest-gap legalization of a movable subset
//!   (everything else is treated as blockage), with displacement statistics,
//! * [`overlaps`] — exhaustive overlap audit used as the test oracle,
//! * [`congestion`] — a RUDY-style routing-demand grid that counts *overflow
//!   edges*: bin-boundary crossings whose expected wire demand exceeds
//!   capacity.
//!
//! # Examples
//!
//! ```
//! use mbr_geom::{Point, Rect};
//! use mbr_liberty::standard_library;
//! use mbr_netlist::{Design, RegisterAttrs};
//! use mbr_place::{legalize, overlaps, PlacementGrid};
//!
//! let lib = standard_library();
//! let die = Rect::new(Point::new(0, 0), Point::new(60_000, 60_000));
//! let mut d = Design::new("t", die);
//! let clk = d.add_net("clk");
//! let cell = lib.cell_by_name("DFF_1X1").expect("flop");
//! // Two registers dropped on the same spot: illegal.
//! let a = d.add_register("a", &lib, cell, Point::new(10_050, 700), RegisterAttrs::clocked(clk));
//! let b = d.add_register("b", &lib, cell, Point::new(10_050, 700), RegisterAttrs::clocked(clk));
//! let grid = PlacementGrid::new(die, 600, 100);
//! let report = legalize(&mut d, &grid, &[a, b])?;
//! assert!(overlaps(&d).is_empty());
//! assert!(report.max_displacement > 0);
//! # Ok::<(), mbr_place::LegalizeError>(())
//! ```

mod svg;

pub use svg::{render_svg, SvgOptions};

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use mbr_geom::{Dbu, Point, Rect};
use mbr_netlist::{Design, InstId, InstKind};
use mbr_obs::{self as obs, Counter, Gauge, Histogram, HistogramData};

/// The row/site structure of the die.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementGrid {
    /// Placeable area.
    pub die: Rect,
    /// Row height, DBU.
    pub row_height: Dbu,
    /// Site width, DBU.
    pub site_width: Dbu,
}

impl PlacementGrid {
    /// Creates a grid over `die` with the given row height and site width.
    ///
    /// # Panics
    ///
    /// Panics if `row_height` or `site_width` is not positive.
    pub fn new(die: Rect, row_height: Dbu, site_width: Dbu) -> Self {
        assert!(
            row_height > 0 && site_width > 0,
            "grid pitch must be positive"
        );
        PlacementGrid {
            die,
            row_height,
            site_width,
        }
    }

    /// Number of complete rows on the die.
    pub fn num_rows(&self) -> usize {
        (self.die.height() / self.row_height) as usize
    }

    /// The y coordinate of row `r`'s bottom edge.
    pub fn row_y(&self, r: usize) -> Dbu {
        self.die.lo().y + self.row_height * r as Dbu
    }

    /// The row whose center is nearest to `y` (clamped to valid rows).
    pub fn nearest_row(&self, y: Dbu) -> usize {
        let rows = self.num_rows().max(1);
        let r = (y - self.die.lo().y).div_euclid(self.row_height);
        r.clamp(0, rows as Dbu - 1) as usize
    }

    /// Snaps `x` to the nearest site boundary within the die.
    pub fn snap_x(&self, x: Dbu) -> Dbu {
        let lo = self.die.lo().x;
        let rel = (x - lo + self.site_width / 2).div_euclid(self.site_width);
        lo + rel * self.site_width
    }
}

/// Why legalization failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LegalizeError {
    /// A movable cell could not be placed anywhere on the die.
    NoRoom {
        /// The instance that did not fit.
        inst: String,
    },
    /// A movable instance was dead or a port.
    NotPlaceable {
        /// The offending instance.
        inst: String,
    },
}

impl fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalizeError::NoRoom { inst } => write!(f, "no legal site found for {inst}"),
            LegalizeError::NotPlaceable { inst } => write!(f, "{inst} is not placeable"),
        }
    }
}

impl Error for LegalizeError {}

/// Displacement statistics returned by [`legalize`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LegalizeReport {
    /// Number of instances legalization moved.
    pub moved: usize,
    /// Sum of Manhattan displacements, DBU.
    pub total_displacement: Dbu,
    /// Largest single displacement, DBU.
    pub max_displacement: Dbu,
}

/// Free-interval bookkeeping for one row: sorted, disjoint occupied spans.
#[derive(Clone, Debug, Default)]
struct RowOccupancy {
    /// Sorted by start; half-open `[start, end)` spans.
    spans: Vec<(Dbu, Dbu)>,
}

impl RowOccupancy {
    fn insert(&mut self, start: Dbu, end: Dbu) {
        let pos = self.spans.partition_point(|&(s, _)| s < start);
        self.spans.insert(pos, (start, end));
    }

    /// Nearest free, *site-aligned* start position for a cell of width `w`
    /// within `[lo, hi - w]`, minimizing `|x - target|`. `None` if no aligned
    /// position fits. Blockage edges may themselves be off-grid (pre-existing
    /// cells are never re-aligned), so each gap is first shrunk to its
    /// site-aligned interior; snapping after the fact could otherwise push
    /// the chosen x back into a neighboring blockage.
    /// `probes` counts gap intervals examined (the legalizer's search
    /// effort, surfaced through the observability layer).
    fn nearest_gap(
        &self,
        grid: &PlacementGrid,
        target: Dbu,
        w: Dbu,
        probes: &mut u64,
    ) -> Option<Dbu> {
        let (lo, hi) = (grid.die.lo().x, grid.die.hi().x);
        let site = grid.site_width;
        let floor_site = |x: Dbu| lo + (x - lo).div_euclid(site) * site;
        let snapped = grid.snap_x(target);
        let mut best: Option<(Dbu, Dbu)> = None; // (cost, x)
        let mut cursor = lo;
        let mut gap_probes = 0u64;
        let consider = |gap_lo: Dbu, gap_hi: Dbu, best: &mut Option<(Dbu, Dbu)>| {
            let x_lo = floor_site(gap_lo + site - 1); // ceil to site
            let x_hi = floor_site(gap_hi - w);
            if x_lo <= x_hi {
                let x = snapped.clamp(x_lo, x_hi);
                let cost = (x - target).abs();
                if best.is_none() || cost < best.expect("checked").0 {
                    *best = Some((cost, x));
                }
            }
        };
        for &(s, e) in &self.spans {
            if s > cursor {
                gap_probes += 1;
                consider(cursor, s.min(hi), &mut best);
            }
            cursor = cursor.max(e);
            if cursor >= hi {
                break;
            }
        }
        if cursor < hi {
            gap_probes += 1;
            consider(cursor, hi, &mut best);
        }
        *probes += gap_probes;
        best.map(|(_, x)| x)
    }
}

/// Legalizes the `movable` instances: each is moved to the nearest free,
/// site-aligned, in-row position, treating every other live placed cell as a
/// blockage. Blockages may sit anywhere — including off the row/site grid —
/// and are honored exactly; only the movable cells are aligned. Movable
/// cells are processed widest-first (larger MBRs get first pick, mirroring
/// their higher placement priority in the paper).
///
/// # Errors
///
/// [`LegalizeError::NotPlaceable`] if a movable id is dead or a port;
/// [`LegalizeError::NoRoom`] if the die has no free span wide enough.
pub fn legalize(
    design: &mut Design,
    grid: &PlacementGrid,
    movable: &[InstId],
) -> Result<LegalizeReport, LegalizeError> {
    let movable_set: BTreeSet<InstId> = movable.iter().copied().collect();

    // Occupancy from all fixed (non-movable) placed instances.
    let mut rows: BTreeMap<usize, RowOccupancy> = BTreeMap::new();
    for (id, inst) in design.live_insts() {
        if movable_set.contains(&id) || matches!(inst.kind, InstKind::Port { .. }) {
            continue;
        }
        let r = inst.rect();
        let row_lo = grid.nearest_row(r.lo().y);
        let row_hi = grid.nearest_row((r.hi().y - 1).max(r.lo().y));
        for row in row_lo..=row_hi {
            rows.entry(row).or_default().insert(r.lo().x, r.hi().x);
        }
    }
    for occ in rows.values_mut() {
        occ.spans.sort_unstable();
    }

    // Widest cells first.
    let mut order: Vec<InstId> = movable.to_vec();
    order.sort_by_key(|&id| std::cmp::Reverse(design.inst(id).width));

    let mut report = LegalizeReport::default();
    let mut probes = 0u64;
    let mut displacements = HistogramData::new();
    let num_rows = grid.num_rows();
    for id in order {
        let inst = design.inst(id);
        if !inst.alive || matches!(inst.kind, InstKind::Port { .. }) {
            return Err(LegalizeError::NotPlaceable {
                inst: inst.name.clone(),
            });
        }
        let w = inst.width;
        let target = inst.loc;
        let home_row = grid.nearest_row(target.y);
        let rows_spanned = ((inst.height + grid.row_height - 1) / grid.row_height).max(1) as usize;

        // Search rows outward from the target row.
        let mut best: Option<(Dbu, usize, Dbu)> = None; // (cost, row, x)
        for dist in 0..num_rows {
            // Cost of just the row offset already exceeds the incumbent:
            // stop expanding.
            if let Some((cost, _, _)) = best {
                if grid.row_height * dist as Dbu > cost {
                    break;
                }
            }
            let candidates = if dist == 0 {
                vec![home_row]
            } else {
                let mut v = Vec::new();
                if home_row >= dist {
                    v.push(home_row - dist);
                }
                if home_row + dist < num_rows {
                    v.push(home_row + dist);
                }
                v
            };
            for row in candidates {
                if row + rows_spanned > num_rows {
                    continue;
                }
                // Multi-row cells must find a gap free in all spanned rows;
                // handled by intersecting searches row by row (cells in this
                // library are single-row, so the common case is trivial).
                let x = if rows_spanned == 1 {
                    rows.entry(row)
                        .or_default()
                        .nearest_gap(grid, target.x, w, &mut probes)
                } else {
                    multi_row_gap(&mut rows, row, rows_spanned, grid, target.x, w, &mut probes)
                };
                if let Some(x) = x {
                    let y = grid.row_y(row);
                    let cost = (x - target.x).abs() + (y - target.y).abs();
                    if best.is_none_or(|(c, _, _)| cost < c) {
                        best = Some((cost, row, x));
                    }
                }
            }
        }
        let Some((cost, row, x)) = best else {
            return Err(LegalizeError::NoRoom {
                inst: design.inst(id).name.clone(),
            });
        };
        let new_loc = Point::new(x, grid.row_y(row));

        if new_loc != target {
            report.moved += 1;
            report.total_displacement += cost;
            report.max_displacement = report.max_displacement.max(cost);
        }
        // Zero-displacement cells are real observations: the distribution
        // distinguishes "mostly in place" from "everything shoved".
        displacements.record(cost.unsigned_abs());
        design.inst_mut(id).loc = new_loc;
        for rr in row..row + rows_spanned {
            let occ = rows.entry(rr).or_default();
            occ.insert(new_loc.x, new_loc.x + w);
        }
    }
    obs::counter(Counter::LegalizeGapProbes, probes);
    obs::counter(Counter::LegalizeCellsMoved, report.moved as u64);
    obs::histogram(Histogram::LegalizeDisplacement, &displacements);
    if report.moved > 0 {
        obs::gauge(
            Gauge::LegalizeMaxDisplacement,
            report.max_displacement as f64,
        );
    }
    Ok(report)
}

/// Finds a start x that is free in all of `rows_spanned` consecutive rows.
fn multi_row_gap(
    rows: &mut BTreeMap<usize, RowOccupancy>,
    row: usize,
    rows_spanned: usize,
    grid: &PlacementGrid,
    target_x: Dbu,
    w: Dbu,
    probes: &mut u64,
) -> Option<Dbu> {
    // Conservative: step through the base row's gaps and verify the others.
    let base = rows.entry(row).or_default().clone();
    let lo = grid.die.lo().x;
    let hi = grid.die.hi().x;
    let candidate = base.nearest_gap(grid, target_x, w, probes)?;
    let fits_all = |x: Dbu, rows: &mut BTreeMap<usize, RowOccupancy>, probes: &mut u64| {
        *probes += 1;
        (row..row + rows_spanned).all(|rr| {
            rows.entry(rr)
                .or_default()
                .spans
                .iter()
                .all(|&(s, e)| x + w <= s || x >= e)
        })
    };
    if fits_all(candidate, rows, probes) {
        return Some(candidate);
    }
    // Linear scan by site as a fallback (rare path); `candidate` is already
    // site-aligned, so stepping whole sites keeps every probe aligned.
    let mut step = grid.site_width;
    while step < hi - lo {
        for x in [candidate - step, candidate + step] {
            if x >= lo && x + w <= hi && fits_all(x, rows, probes) {
                return Some(x);
            }
        }
        step += grid.site_width;
    }
    None
}

/// All pairs of live placed instances whose footprints share interior area.
/// Exhaustive sweep over row buckets — the legalization test oracle.
pub fn overlaps(design: &Design) -> Vec<(InstId, InstId)> {
    let mut cells: Vec<(InstId, Rect)> = design
        .live_insts()
        .filter(|(_, inst)| !matches!(inst.kind, InstKind::Port { .. }))
        .map(|(id, inst)| (id, inst.rect()))
        .collect();
    cells.sort_by_key(|(_, r)| (r.lo().y, r.lo().x));
    let mut out = Vec::new();
    for i in 0..cells.len() {
        for j in (i + 1)..cells.len() {
            if cells[j].1.lo().y >= cells[i].1.hi().y && cells[j].1.lo().y > cells[i].1.lo().y {
                break; // sorted by y: nothing below can overlap i
            }
            if cells[i].1.overlaps_strict(&cells[j].1) {
                out.push((cells[i].0, cells[j].0));
            }
        }
    }
    out
}

/// Congestion estimation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CongestionConfig {
    /// Grid bins along x.
    pub bins_x: usize,
    /// Grid bins along y.
    pub bins_y: usize,
    /// Routing capacity per bin edge, in expected net crossings.
    pub capacity: f64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            bins_x: 32,
            bins_y: 32,
            capacity: 24.0,
        }
    }
}

/// Congestion metrics from [`congestion`].
#[derive(Clone, Debug, PartialEq)]
pub struct CongestionReport {
    /// Bin-boundary edges whose demand exceeds capacity (the paper's "Ovfl
    /// Edges" metric, after \\[15\\]).
    pub overflow_edges: usize,
    /// Total bin-boundary edges measured.
    pub total_edges: usize,
    /// Maximum demand/capacity ratio over edges.
    pub max_utilization: f64,
    /// Mean demand/capacity ratio over edges.
    pub avg_utilization: f64,
}

/// RUDY-style routing-demand estimate.
///
/// Each net's bounding box contributes one expected horizontal crossing to
/// every vertical bin edge its x-span covers (uniformly distributed over the
/// rows it spans), and symmetrically for vertical demand — the standard
/// probabilistic congestion map used for early routability checks.
pub fn congestion(design: &Design, config: &CongestionConfig) -> CongestionReport {
    let die = design.die();
    let (bx, by) = (config.bins_x.max(1), config.bins_y.max(1));
    let bw = (die.width() as f64 / bx as f64).max(1.0);
    let bh = (die.height() as f64 / by as f64).max(1.0);

    // demand_v[i][j]: crossings of the vertical edge between bin (i, j) and
    // (i+1, j). demand_h[i][j]: horizontal edge between (i, j) and (i, j+1).
    let mut demand_v = vec![vec![0.0f64; by]; bx.saturating_sub(1)];
    let mut demand_h = vec![vec![0.0f64; by.saturating_sub(1)]; bx];

    let bin_x = |x: Dbu| (((x - die.lo().x) as f64 / bw) as usize).min(bx - 1);
    let bin_y = |y: Dbu| (((y - die.lo().y) as f64 / bh) as usize).min(by - 1);

    for (net, _) in design.live_nets() {
        let pins: Vec<Point> = design
            .net(net)
            .pins
            .iter()
            .map(|&p| design.pin_position(p))
            .collect();
        if pins.len() < 2 {
            continue;
        }
        let bb: mbr_geom::BoundingBox = pins.iter().copied().collect();
        let r = bb.rect().expect("nonempty");
        let (x0, x1) = (bin_x(r.lo().x), bin_x(r.hi().x));
        let (y0, y1) = (bin_y(r.lo().y), bin_y(r.hi().y));
        let rows = (y1 - y0 + 1) as f64;
        let cols = (x1 - x0 + 1) as f64;
        // Horizontal wires cross vertical edges x0..x1-1 in each row.
        for col in demand_v.iter_mut().take(x1).skip(x0) {
            for cell in col.iter_mut().take(y1 + 1).skip(y0) {
                *cell += 1.0 / rows;
            }
        }
        // Vertical wires cross horizontal edges y0..y1-1 in each column.
        for col in demand_h.iter_mut().take(x1 + 1).skip(x0) {
            for cell in col.iter_mut().take(y1).skip(y0) {
                *cell += 1.0 / cols;
            }
        }
    }

    let mut overflow = 0usize;
    let mut total = 0usize;
    let mut max_util = 0.0f64;
    let mut sum_util = 0.0f64;
    let mut tally = |demand: f64| {
        let util = demand / config.capacity;
        total += 1;
        sum_util += util;
        if util > max_util {
            max_util = util;
        }
        if demand > config.capacity {
            overflow += 1;
        }
    };
    for col in &demand_v {
        for &d in col {
            tally(d);
        }
    }
    for col in &demand_h {
        for &d in col {
            tally(d);
        }
    }
    CongestionReport {
        overflow_edges: overflow,
        total_edges: total,
        max_utilization: max_util,
        avg_utilization: if total > 0 {
            sum_util / total as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_liberty::standard_library;
    use mbr_netlist::{PinKind, RegisterAttrs};

    fn die() -> Rect {
        Rect::new(Point::new(0, 0), Point::new(60_000, 60_000))
    }

    fn grid() -> PlacementGrid {
        PlacementGrid::new(die(), 600, 100)
    }

    #[test]
    fn grid_geometry() {
        let g = grid();
        assert_eq!(g.num_rows(), 100);
        assert_eq!(g.row_y(3), 1800);
        assert_eq!(g.nearest_row(1850), 3);
        assert_eq!(g.nearest_row(-50), 0);
        assert_eq!(g.nearest_row(999_999), 99);
        assert_eq!(g.snap_x(149), 100);
        assert_eq!(g.snap_x(150), 200);
    }

    #[test]
    fn row_occupancy_nearest_gap() {
        let g = PlacementGrid::new(
            Rect::new(Point::new(0, 0), Point::new(10_000, 600)),
            600,
            100,
        );
        let mut occ = RowOccupancy::default();
        occ.insert(1_000, 2_000);
        occ.insert(3_000, 4_000);
        // Gap [2000, 3000) fits width 500; target 2100 is inside.
        let mut probes = 0u64;
        assert_eq!(occ.nearest_gap(&g, 2_100, 500, &mut probes), Some(2_100));
        // Width 1500 doesn't fit between spans; nearest is after 4000.
        assert_eq!(occ.nearest_gap(&g, 2_100, 1_500, &mut probes), Some(4_000));
        // Target left of everything.
        assert_eq!(occ.nearest_gap(&g, -500, 500, &mut probes), Some(0));
        // Three gaps examined per search above.
        assert_eq!(probes, 9);
        // Full row.
        let mut full = RowOccupancy::default();
        full.insert(0, 10_000);
        assert_eq!(full.nearest_gap(&g, 5_000, 100, &mut probes), None);
        assert_eq!(probes, 9, "a fully occupied row exposes no gaps");
    }

    #[test]
    fn nearest_gap_stays_clear_of_off_site_blockages() {
        let g = PlacementGrid::new(
            Rect::new(Point::new(0, 0), Point::new(10_000, 600)),
            600,
            100,
        );
        let mut occ = RowOccupancy::default();
        // Blockage edges off the 100-DBU site lattice on both sides.
        occ.insert(2_050, 3_050);
        // Target just left of the blockage: the naive nearest start for
        // width 700 is 1350, which a post-hoc snap would round to 1400 and
        // into the blockage. The aligned interior ends at 1300.
        let x = occ.nearest_gap(&g, 2_000, 700, &mut 0u64).unwrap();
        assert_eq!(x % 100, 0, "must be site aligned");
        assert!(x + 700 <= 2_050 || x >= 3_050, "must not enter blockage");
        assert_eq!(x, 1_300);
    }

    #[test]
    fn legalize_separates_stacked_registers() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let mut regs = Vec::new();
        for i in 0..5 {
            regs.push(d.add_register(
                format!("r{i}"),
                &lib,
                cell,
                Point::new(10_050, 700), // all stacked
                RegisterAttrs::clocked(clk),
            ));
        }
        let report = legalize(&mut d, &grid(), &regs).unwrap();
        assert!(overlaps(&d).is_empty());
        assert!(report.moved >= 4, "at least four must move");
        // Everything stays near the target.
        for &r in &regs {
            assert!(d.inst(r).loc.manhattan(Point::new(10_050, 700)) < 5_000);
        }
    }

    #[test]
    fn legalize_avoids_fixed_blockages() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_8X1").unwrap();
        // A fixed 8-bit MBR occupies the target spot.
        let blocker = d.add_register(
            "blk",
            &lib,
            cell,
            Point::new(10_000, 600),
            RegisterAttrs::clocked(clk),
        );
        let mover = d.add_register(
            "mv",
            &lib,
            cell,
            Point::new(10_000, 600),
            RegisterAttrs::clocked(clk),
        );
        legalize(&mut d, &grid(), &[mover]).unwrap();
        assert!(overlaps(&d).is_empty());
        assert_ne!(d.inst(mover).rect(), d.inst(blocker).rect());
    }

    #[test]
    fn legalize_avoids_off_grid_blockages() {
        // Pre-existing cells need not sit on the row/site grid; a legalized
        // cell snapped to the lattice must still clear them. Regression for
        // a d1 overlap where the gap-nearest x was snapped into a blockage
        // whose edge was half a site off the lattice.
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let single = lib.cell_by_name("DFF_1X1").unwrap();
        let quad = lib.cell_by_name("DFF_4X1").unwrap();
        // Off-site (x % 100 = 50) and off-row (y % 600 = 150) blockage.
        d.add_register(
            "blk",
            &lib,
            single,
            Point::new(5_450, 150),
            RegisterAttrs::clocked(clk),
        );
        let mover = d.add_register(
            "mv",
            &lib,
            quad,
            Point::new(5_400, 0),
            RegisterAttrs::clocked(clk),
        );
        legalize(&mut d, &grid(), &[mover]).unwrap();
        assert!(overlaps(&d).is_empty());
        let loc = d.inst(mover).loc;
        assert_eq!(loc.x % 100, 0);
        assert_eq!(loc.y % 600, 0);
    }

    #[test]
    fn legalize_snaps_to_rows_and_sites() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let r = d.add_register(
            "r",
            &lib,
            cell,
            Point::new(10_037, 913),
            RegisterAttrs::clocked(clk),
        );
        legalize(&mut d, &grid(), &[r]).unwrap();
        let loc = d.inst(r).loc;
        assert_eq!(loc.x % 100, 0, "site aligned");
        assert_eq!(loc.y % 600, 0, "row aligned");
    }

    #[test]
    fn legalize_rejects_dead_instances() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let a = d.add_register(
            "a",
            &lib,
            cell,
            Point::new(0, 0),
            RegisterAttrs::clocked(clk),
        );
        let b = d.add_register(
            "b",
            &lib,
            cell,
            Point::new(2_000, 0),
            RegisterAttrs::clocked(clk),
        );
        let two = lib.cell_by_name("DFF_2X1").unwrap();
        d.merge_registers(&[a, b], &lib, two, Point::new(0, 0))
            .unwrap();
        let err = legalize(&mut d, &grid(), &[a]).unwrap_err();
        assert!(matches!(err, LegalizeError::NotPlaceable { .. }));
    }

    #[test]
    fn overlap_oracle_finds_known_overlap() {
        let lib = standard_library();
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_4X1").unwrap();
        let a = d.add_register(
            "a",
            &lib,
            cell,
            Point::new(1_000, 600),
            RegisterAttrs::clocked(clk),
        );
        let b = d.add_register(
            "b",
            &lib,
            cell,
            Point::new(1_500, 600),
            RegisterAttrs::clocked(clk),
        );
        let found = overlaps(&d);
        assert_eq!(found.len(), 1);
        let (x, y) = found[0];
        assert_eq!([x.min(y), x.max(y)], [a.min(b), a.max(b)]);
    }

    #[test]
    fn congestion_counts_more_overflow_when_nets_concentrate() {
        let lib = standard_library();
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        let cfg = CongestionConfig {
            bins_x: 8,
            bins_y: 8,
            capacity: 2.0,
        };

        // Spread design: nets in distinct regions.
        let mut spread = Design::new("s", die());
        let clk = spread.add_net("clk");
        for i in 0..16i64 {
            let x = (i % 4) * 14_000;
            let y = (i / 4) * 14_000;
            let a = spread.add_register(
                format!("a{i}"),
                &lib,
                cell,
                Point::new(x, y),
                RegisterAttrs::clocked(clk),
            );
            let b = spread.add_register(
                format!("b{i}"),
                &lib,
                cell,
                Point::new(x + 2_000, y),
                RegisterAttrs::clocked(clk),
            );
            let n = spread.add_net(format!("n{i}"));
            spread.connect(spread.find_pin(a, PinKind::Q(0)).unwrap(), n);
            spread.connect(spread.find_pin(b, PinKind::D(0)).unwrap(), n);
        }

        // Concentrated design: all nets cross the same center channel.
        let mut dense = Design::new("d", die());
        let clk = dense.add_net("clk");
        for i in 0..16i64 {
            let y = i * 700;
            let a = dense.add_register(
                format!("a{i}"),
                &lib,
                cell,
                Point::new(1_000, y),
                RegisterAttrs::clocked(clk),
            );
            let b = dense.add_register(
                format!("b{i}"),
                &lib,
                cell,
                Point::new(55_000, y),
                RegisterAttrs::clocked(clk),
            );
            let n = dense.add_net(format!("n{i}"));
            dense.connect(dense.find_pin(a, PinKind::Q(0)).unwrap(), n);
            dense.connect(dense.find_pin(b, PinKind::D(0)).unwrap(), n);
        }

        let r_spread = congestion(&spread, &cfg);
        let r_dense = congestion(&dense, &cfg);
        assert!(
            r_dense.overflow_edges > r_spread.overflow_edges,
            "dense {} vs spread {}",
            r_dense.overflow_edges,
            r_spread.overflow_edges
        );
        assert!(r_dense.max_utilization > r_spread.max_utilization);
        assert_eq!(r_spread.total_edges, r_dense.total_edges);
    }

    #[test]
    fn congestion_of_empty_design_is_zero() {
        let d = Design::new("e", die());
        let r = congestion(&d, &CongestionConfig::default());
        assert_eq!(r.overflow_edges, 0);
        assert_eq!(r.max_utilization, 0.0);
    }
}
