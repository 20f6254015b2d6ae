//! Section 4.2: MBR placement by half-perimeter wire-length minimization.
//!
//! The new MBR's lower corner `(x, y)` is the only unknown; every pin sits
//! at `(x + dxᵢ, y + dyᵢ)`. For each pin the wire to its external fan-in /
//! fan-out pins is estimated by the half-perimeter of their joint bounding
//! box. The objective is separable and piecewise linear per axis: pin `i`
//! adds `(|v − aᵢ| + |v − bᵢ|) / 2` plus a constant, with breakpoints
//! `aᵢ = bbox.lo − offset` and `bᵢ = bbox.hi − offset`. Each axis is
//! therefore minimized by any median of its 2p breakpoints, and
//! [`optimal_corner_lp`] — the flow's solver — takes the upper median
//! clamped to the region, an integer selection with no LP at all.
//!
//! Two oracles that the flow never calls back it: the paper's literal LP,
//! whose `max`/`min` terms are linearized with helper variables and solved
//! on [`mbr_lp::LpProblem`] ([`optimal_corner_simplex`]), and a
//! breakpoint-scan evaluator ([`optimal_corner_brute`]).

use std::cmp::Reverse;

use mbr_geom::{Dbu, Point, Rect};
use mbr_liberty::MbrCell;
use mbr_lp::{LpProblem, Sense};
use mbr_netlist::{register_data_pin_offset, Design, InstId, NetId};

/// One pin of the future MBR: its in-cell offset and the bounding box of
/// the external pins its net connects to.
#[derive(Clone, Debug, PartialEq)]
pub struct PinBox {
    /// Pin offset inside the cell, DBU.
    pub offset: Point,
    /// Bounding box of the external connection endpoints.
    pub bbox: Rect,
}

/// Collects the [`PinBox`]es of a prospective MBR: bit `k` of the new cell
/// takes over the D/Q nets of the k-th member bit (the same order
/// [`Design::merge_registers`] rewires in). Pins whose nets connect only to
/// the members themselves contribute no box.
pub fn pin_boxes(design: &Design, members: &[InstId], target: &MbrCell) -> Vec<PinBox> {
    let mut boxes = Vec::new();
    let mut k: u8 = 0;
    for &m in members {
        for bit in design.register_bit_pins(m) {
            for (pin, is_d) in [(bit.d, true), (bit.q, false)] {
                if let Some(net) = design.pin(pin).net {
                    if let Some(bbox) = external_bbox(design, net, members) {
                        boxes.push(PinBox {
                            offset: register_data_pin_offset(target, k, is_d),
                            bbox,
                        });
                    }
                }
            }
            k += 1;
        }
    }
    boxes
}

/// Bounding box of a net's pins excluding pins owned by `members`.
fn external_bbox(design: &Design, net: NetId, members: &[InstId]) -> Option<Rect> {
    let mut bb = mbr_geom::BoundingBox::new();
    for &p in &design.net(net).pins {
        if !members.contains(&design.pin(p).inst) {
            bb.add(design.pin_position(p));
        }
    }
    bb.rect()
}

/// Solves the Section 4.2 LP exactly, in closed form: the cell-corner
/// position inside `region` minimizing the summed HPWL of `boxes`.
/// `region` constrains the *corner*; callers should already have shrunk it
/// so the whole cell fits.
///
/// Per axis, the optimum is the interval between the p-th and (p+1)-th
/// smallest of the 2p breakpoints `bbox.lo − offset` and
/// `bbox.hi − offset`; this returns its upper end clamped to `region`,
/// which the convex objective makes the constrained optimum. Of the
/// optimal corners it is the one with the largest coordinates, so ties
/// break the same way on every axis and every call.
///
/// Returns the region center when there are no boxes (nothing to optimize).
pub fn optimal_corner_lp(boxes: &[PinBox], region: Rect) -> Point {
    if boxes.is_empty() {
        return region.center();
    }
    let mut breakpoints = Vec::with_capacity(2 * boxes.len());
    let mut upper_median = |lo: Dbu, hi: Dbu, axis: fn(Point) -> Dbu| -> Dbu {
        breakpoints.clear();
        for pb in boxes {
            let d = axis(pb.offset);
            breakpoints.extend([axis(pb.bbox.lo()) - d, axis(pb.bbox.hi()) - d]);
        }
        let (_, &mut m, _) = breakpoints.select_nth_unstable(boxes.len());
        m.clamp(lo, hi)
    };
    let x = upper_median(region.lo().x, region.hi().x, |p| p.x);
    let y = upper_median(region.lo().y, region.hi().y, |p| p.y);
    Point::new(x, y)
}

/// Test oracle: the Section 4.2 LP exactly as the paper states it, with
/// the `max`/`min` terms linearized by helper variables and solved on
/// [`mbr_lp::LpProblem`]. The flow never calls it; it reaches the same
/// cost as [`optimal_corner_lp`], but where the optimum is an interval it
/// may stop at either end, as its pivoting happens to fall.
///
/// Returns the region center when there are no boxes.
pub fn optimal_corner_simplex(boxes: &[PinBox], region: Rect) -> Point {
    if boxes.is_empty() {
        return region.center();
    }
    let mut lp = LpProblem::new();
    let x = lp.add_var(region.lo().x as f64, region.hi().x as f64, 0.0);
    let y = lp.add_var(region.lo().y as f64, region.hi().y as f64, 0.0);
    for pb in boxes {
        // hx >= xh, hx >= x + dx; lx <= xl, lx <= x + dx; obj += hx - lx.
        let hx = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let lx = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0);
        let hy = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let ly = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0);
        let (dx, dy) = (pb.offset.x as f64, pb.offset.y as f64);
        lp.add_constraint(&[(hx, 1.0)], Sense::Ge, pb.bbox.hi().x as f64);
        lp.add_constraint(&[(hx, 1.0), (x, -1.0)], Sense::Ge, dx);
        lp.add_constraint(&[(lx, 1.0)], Sense::Le, pb.bbox.lo().x as f64);
        lp.add_constraint(&[(lx, 1.0), (x, -1.0)], Sense::Le, dx);
        lp.add_constraint(&[(hy, 1.0)], Sense::Ge, pb.bbox.hi().y as f64);
        lp.add_constraint(&[(hy, 1.0), (y, -1.0)], Sense::Ge, dy);
        lp.add_constraint(&[(ly, 1.0)], Sense::Le, pb.bbox.lo().y as f64);
        lp.add_constraint(&[(ly, 1.0), (y, -1.0)], Sense::Le, dy);
    }
    match lp.solve() {
        Ok(sol) => Point::new(sol.value(x).round() as Dbu, sol.value(y).round() as Dbu),
        // The LP is feasible by construction (helper variables are free);
        // any numerical failure falls back to the region center.
        Err(_) => region.center(),
    }
}

/// Independent oracle: evaluates the separable piecewise-linear objective
/// at every axis breakpoint (plus region corners) and returns the best
/// corner, breaking ties toward the larger coordinate as
/// [`optimal_corner_lp`] does. Exponential in nothing — O(pins²) — but
/// exact.
pub fn optimal_corner_brute(boxes: &[PinBox], region: Rect) -> Point {
    if boxes.is_empty() {
        return region.center();
    }
    let axis = |lo: Dbu, hi: Dbu, get: &dyn Fn(&PinBox) -> (Dbu, Dbu, Dbu)| -> Dbu {
        let mut candidates = vec![lo, hi];
        for pb in boxes {
            let (bl, bh, d) = get(pb);
            candidates.push((bl - d).clamp(lo, hi));
            candidates.push((bh - d).clamp(lo, hi));
        }
        let cost = |v: Dbu| -> i128 {
            boxes
                .iter()
                .map(|pb| {
                    let (bl, bh, d) = get(pb);
                    let p = v + d;
                    (bh.max(p) - bl.min(p)) as i128
                })
                .sum()
        };
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .min_by_key(|&v| (cost(v), Reverse(v)))
            .expect("nonempty candidates")
    };
    let x = axis(region.lo().x, region.hi().x, &|pb| {
        (pb.bbox.lo().x, pb.bbox.hi().x, pb.offset.x)
    });
    let y = axis(region.lo().y, region.hi().y, &|pb| {
        (pb.bbox.lo().y, pb.bbox.hi().y, pb.offset.y)
    });
    Point::new(x, y)
}

/// Total HPWL of the boxes with the cell corner at `corner` (the objective
/// all three solvers minimize).
pub fn placement_cost(boxes: &[PinBox], corner: Point) -> i128 {
    boxes
        .iter()
        .map(|pb| {
            let p = corner + pb.offset;
            let w = (pb.bbox.hi().x.max(p.x) - pb.bbox.lo().x.min(p.x)) as i128;
            let h = (pb.bbox.hi().y.max(p.y) - pb.bbox.lo().y.min(p.y)) as i128;
            w + h
        })
        .sum()
}

/// The common timing-feasible region of a member set, shrunk so the target
/// cell fits entirely inside, as a corner-position constraint.
///
/// Pairwise-overlapping axis-aligned regions always share a common
/// intersection (1-D Helly property per axis), so this is total for cliques;
/// a degenerate outcome still yields a single feasible point.
pub fn common_region(regions: &[Rect], cell: &MbrCell, die: Rect) -> Rect {
    let mut common = regions
        .iter()
        .copied()
        .reduce(|a, b| {
            a.intersection(&b)
                .unwrap_or_else(|| Rect::point(a.center().midpoint(b.center())))
        })
        .unwrap_or(die);
    // Constrain the corner so the footprint stays inside both the common
    // region's extent and the die.
    let hi = Point::new(
        (common.hi().x - cell.footprint_w).max(common.lo().x),
        (common.hi().y - cell.footprint_h).max(common.lo().y),
    );
    common = Rect::new(common.lo(), hi);
    let die_corner = Rect::new(
        die.lo(),
        Point::new(
            (die.hi().x - cell.footprint_w).max(die.lo().x),
            (die.hi().y - cell.footprint_h).max(die.lo().y),
        ),
    );
    common
        .intersection(&die_corner)
        .unwrap_or_else(|| Rect::point(die_corner.clamp_point(common.center())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_liberty::standard_library;

    fn cell4() -> MbrCell {
        let lib = standard_library();
        lib.cell(lib.cell_by_name("DFF_4X1").unwrap()).clone()
    }

    fn region() -> Rect {
        Rect::new(Point::new(0, 0), Point::new(100_000, 100_000))
    }

    #[test]
    fn closed_form_matches_both_oracles_on_simple_instances() {
        let cell = cell4();
        let boxes = vec![
            PinBox {
                offset: register_data_pin_offset(&cell, 0, true),
                bbox: Rect::new(Point::new(10_000, 10_000), Point::new(12_000, 12_000)),
            },
            PinBox {
                offset: register_data_pin_offset(&cell, 0, false),
                bbox: Rect::new(Point::new(40_000, 38_000), Point::new(44_000, 42_000)),
            },
            PinBox {
                offset: register_data_pin_offset(&cell, 1, true),
                bbox: Rect::new(Point::new(20_000, 50_000), Point::new(22_000, 52_000)),
            },
        ];
        let corner = optimal_corner_lp(&boxes, region());
        assert_eq!(corner, optimal_corner_brute(&boxes, region()));
        let simplex = optimal_corner_simplex(&boxes, region());
        assert_eq!(
            placement_cost(&boxes, corner),
            placement_cost(&boxes, simplex),
            "closed form at {corner}, simplex at {simplex}"
        );
    }

    #[test]
    fn ties_break_toward_the_upper_end_of_the_optimal_interval() {
        // Two point pins 10 µm apart on each axis: every corner between
        // them is optimal, and the closed form takes the upper one.
        let boxes = [
            PinBox {
                offset: Point::new(0, 0),
                bbox: Rect::point(Point::new(20_000, 30_000)),
            },
            PinBox {
                offset: Point::new(0, 0),
                bbox: Rect::point(Point::new(30_000, 40_000)),
            },
        ];
        assert_eq!(
            optimal_corner_lp(&boxes, region()),
            Point::new(30_000, 40_000)
        );
    }

    #[test]
    fn single_box_pulls_the_pin_inside_it() {
        let cell = cell4();
        let offset = register_data_pin_offset(&cell, 0, true);
        let bbox = Rect::new(Point::new(30_000, 30_000), Point::new(35_000, 36_000));
        let boxes = vec![PinBox { offset, bbox }];
        let corner = optimal_corner_lp(&boxes, region());
        let pin = corner + offset;
        assert!(bbox.contains(pin), "pin {pin} should land inside {bbox}");
        assert_eq!(
            placement_cost(&boxes, corner),
            bbox.half_perimeter() as i128
        );
    }

    #[test]
    fn region_constraint_binds() {
        let cell = cell4();
        let offset = register_data_pin_offset(&cell, 0, true);
        // Connections far to the right, but region confined to the left.
        let bbox = Rect::new(Point::new(90_000, 90_000), Point::new(95_000, 95_000));
        let tight = Rect::new(Point::new(0, 0), Point::new(10_000, 10_000));
        let corner = optimal_corner_lp(&[PinBox { offset, bbox }], tight);
        assert!(
            tight.contains(corner),
            "corner {corner} must stay in region"
        );
        assert_eq!(
            corner,
            Point::new(10_000, 10_000),
            "pushes to the near edge"
        );
    }

    #[test]
    fn empty_boxes_fall_back_to_region_center() {
        assert_eq!(optimal_corner_lp(&[], region()), region().center());
        assert_eq!(optimal_corner_simplex(&[], region()), region().center());
        assert_eq!(optimal_corner_brute(&[], region()), region().center());
    }

    #[test]
    fn common_region_intersects_and_fits_cell() {
        let cell = cell4();
        let die = region();
        let r1 = Rect::new(Point::new(0, 0), Point::new(50_000, 50_000));
        let r2 = Rect::new(Point::new(40_000, 40_000), Point::new(90_000, 90_000));
        let common = common_region(&[r1, r2], &cell, die);
        assert!(r1.contains(common.lo()));
        // The far corner allows the full footprint.
        assert!(common.hi().x + cell.footprint_w <= 50_000 + cell.footprint_w);
        assert!(die.contains_rect(&Rect::from_origin_size(
            common.hi(),
            cell.footprint_w,
            cell.footprint_h
        )));
    }

    #[test]
    fn disjoint_regions_degrade_gracefully() {
        let cell = cell4();
        let die = region();
        let r1 = Rect::new(Point::new(0, 0), Point::new(10_000, 10_000));
        let r2 = Rect::new(Point::new(80_000, 80_000), Point::new(90_000, 90_000));
        let common = common_region(&[r1, r2], &cell, die);
        assert!(die.contains_rect(&common));
        assert!(common.area() >= 0);
    }
}
