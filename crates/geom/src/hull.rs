use std::fmt;

use crate::{Point, Rect};

/// Computes the convex hull of a point set with Andrew's monotone chain.
///
/// The returned polygon lists its vertices in counter-clockwise order with no
/// three consecutive vertices collinear. Duplicate input points are fine.
/// Degenerate inputs are handled: the hull of one point is that point, the
/// hull of collinear points is the two extreme points.
///
/// This is the "test polygon" constructor from Section 3.2 of the paper: the
/// candidate MBR's polygon is the convex hull of the outer corner points of
/// its constituent registers.
///
/// # Examples
///
/// ```
/// use mbr_geom::{convex_hull, Point};
///
/// let hull = convex_hull(&[Point::new(0, 0), Point::new(4, 0), Point::new(2, 3)]);
/// assert!(hull.contains(Point::new(2, 1)));
/// assert!(!hull.contains(Point::new(4, 3)));
/// ```
pub fn convex_hull(points: &[Point]) -> ConvexPolygon {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_unstable();
    pts.dedup();
    let mut vertices = Vec::with_capacity(pts.len() + 1);
    monotone_chain(&pts, &mut vertices);
    ConvexPolygon { vertices }
}

/// Andrew's monotone chain over `sorted` — points in ascending order with
/// no duplicates — written into `hull`, which is cleared first.
///
/// The vertices come out exactly as [`convex_hull`] returns them
/// (counter-clockwise, no three consecutive collinear, two extremes for a
/// collinear set), without allocating once `hull` has capacity for
/// `sorted.len() + 1` points. Hot loops that build many hulls over subsets
/// of one pre-sorted point set use this instead of [`convex_hull`].
///
/// # Examples
///
/// ```
/// use mbr_geom::{monotone_chain, strictly_inside, Point};
///
/// let mut hull = Vec::new();
/// monotone_chain(&[Point::new(0, 0), Point::new(2, 3), Point::new(4, 0)], &mut hull);
/// assert_eq!(hull, [Point::new(0, 0), Point::new(4, 0), Point::new(2, 3)]);
/// assert!(strictly_inside(&hull, Point::new(2, 1)));
/// ```
pub fn monotone_chain(sorted: &[Point], hull: &mut Vec<Point>) {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] < w[1]),
        "points must be sorted and distinct"
    );
    hull.clear();
    if sorted.len() <= 2 {
        hull.extend_from_slice(sorted);
        return;
    }
    // Lower hull.
    for &p in sorted {
        while hull.len() >= 2 && hull[hull.len() - 2].cross(hull[hull.len() - 1], p) <= 0 {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in sorted.iter().rev().skip(1) {
        while hull.len() >= lower_len && hull[hull.len() - 2].cross(hull[hull.len() - 1], p) <= 0 {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // last point equals the first
    if hull.len() < 3 {
        // All points collinear: keep the two extremes.
        hull.clear();
        hull.extend([sorted[0], sorted[sorted.len() - 1]]);
    }
}

/// Whether `p` lies strictly inside the convex polygon whose
/// counter-clockwise `vertices` [`monotone_chain`] produced (boundary
/// excluded; fewer than three vertices contain nothing strictly).
pub fn strictly_inside(vertices: &[Point], p: Point) -> bool {
    let n = vertices.len();
    if n < 3 {
        return false;
    }
    (0..n).all(|i| vertices[i].cross(vertices[(i + 1) % n], p) > 0)
}

/// A convex polygon produced by [`convex_hull`], with exact containment tests.
///
/// May be degenerate: empty, a single point, or a segment (two vertices). The
/// containment predicates treat these consistently — a segment contains the
/// points on it, strictly contains nothing.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ConvexPolygon {
    vertices: Vec<Point>,
}

impl ConvexPolygon {
    /// Vertices in counter-clockwise order (fewer than 3 when degenerate).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Whether the polygon has zero area (fewer than three vertices).
    pub fn is_degenerate(&self) -> bool {
        self.vertices.len() < 3
    }

    /// Twice the signed area (exact). Zero for degenerate polygons.
    pub fn area2(&self) -> i128 {
        let n = self.vertices.len();
        if n < 3 {
            return 0;
        }
        let mut s = 0i128;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            s += p.x as i128 * q.y as i128 - q.x as i128 * p.y as i128;
        }
        s
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        match self.vertices.len() {
            0 => false,
            1 => self.vertices[0] == p,
            2 => on_segment(self.vertices[0], self.vertices[1], p),
            n => {
                for i in 0..n {
                    let a = self.vertices[i];
                    let b = self.vertices[(i + 1) % n];
                    if a.cross(b, p) < 0 {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Whether `p` lies strictly inside (boundary points excluded).
    ///
    /// This is the blocking-register test of Section 3.2: a register blocks a
    /// candidate MBR when its *center* falls inside the candidate's test
    /// polygon. Using strict containment means a register whose center sits
    /// exactly on the hull edge of a clique it borders is not counted as an
    /// obstacle, matching the paper's "inside the corresponding test polygon"
    /// wording.
    pub fn contains_strict(&self, p: Point) -> bool {
        strictly_inside(&self.vertices, p)
    }

    /// Axis-aligned bounding rectangle, or `None` for an empty polygon.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let first = *self.vertices.first()?;
        let mut r = Rect::point(first);
        for &v in &self.vertices[1..] {
            r = r.union(&Rect::point(v));
        }
        Some(r)
    }
}

impl fmt::Display for ConvexPolygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hull[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Whether `p` lies on the closed segment `a..b`.
fn on_segment(a: Point, b: Point, p: Point) -> bool {
    if a.cross(b, p) != 0 {
        return false;
    }
    let (xmin, xmax) = (a.x.min(b.x), a.x.max(b.x));
    let (ymin, ymax) = (a.y.min(b.y), a.y.max(b.y));
    xmin <= p.x && p.x <= xmax && ymin <= p.y && p.y <= ymax
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hull_of_square_with_interior_points() {
        let hull = convex_hull(&[
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 10),
            Point::new(0, 10),
            Point::new(5, 5),
            Point::new(3, 7),
            Point::new(5, 0), // collinear boundary point: dropped
        ]);
        assert_eq!(hull.vertices().len(), 4);
        assert_eq!(hull.area2(), 200);
    }

    #[test]
    fn hull_of_single_point_and_pair() {
        let one = convex_hull(&[Point::new(3, 3), Point::new(3, 3)]);
        assert_eq!(one.vertices(), &[Point::new(3, 3)]);
        assert!(one.contains(Point::new(3, 3)));
        assert!(!one.contains(Point::new(3, 4)));
        assert!(!one.contains_strict(Point::new(3, 3)));

        let two = convex_hull(&[Point::new(0, 0), Point::new(4, 4)]);
        assert_eq!(two.vertices().len(), 2);
        assert!(two.contains(Point::new(2, 2)));
        assert!(!two.contains(Point::new(2, 3)));
    }

    #[test]
    fn hull_of_collinear_points_is_extreme_segment() {
        let hull = convex_hull(&[
            Point::new(0, 0),
            Point::new(1, 1),
            Point::new(2, 2),
            Point::new(5, 5),
        ]);
        assert_eq!(hull.vertices(), &[Point::new(0, 0), Point::new(5, 5)]);
        assert!(hull.is_degenerate());
        assert_eq!(hull.area2(), 0);
    }

    #[test]
    fn empty_input_yields_empty_hull() {
        let hull = convex_hull(&[]);
        assert!(hull.vertices().is_empty());
        assert!(!hull.contains(Point::ORIGIN));
        assert!(hull.bounding_rect().is_none());
    }

    #[test]
    fn containment_distinguishes_boundary_from_interior() {
        let hull = convex_hull(&[
            Point::new(0, 0),
            Point::new(6, 0),
            Point::new(6, 6),
            Point::new(0, 6),
        ]);
        // interior
        assert!(hull.contains(Point::new(3, 3)));
        assert!(hull.contains_strict(Point::new(3, 3)));
        // boundary
        assert!(hull.contains(Point::new(0, 3)));
        assert!(!hull.contains_strict(Point::new(0, 3)));
        // vertex
        assert!(hull.contains(Point::new(6, 6)));
        assert!(!hull.contains_strict(Point::new(6, 6)));
        // outside
        assert!(!hull.contains(Point::new(7, 3)));
    }

    #[test]
    fn triangle_orientation_is_ccw() {
        let hull = convex_hull(&[Point::new(0, 0), Point::new(4, 0), Point::new(0, 4)]);
        assert!(hull.area2() > 0);
    }

    #[test]
    fn bounding_rect_covers_all_vertices() {
        let pts = [
            Point::new(-3, 2),
            Point::new(5, -1),
            Point::new(0, 7),
            Point::new(2, 2),
        ];
        let hull = convex_hull(&pts);
        let bb = hull.bounding_rect().unwrap();
        for p in pts {
            assert!(bb.contains(p));
        }
    }

    #[test]
    fn display_formats() {
        let hull = convex_hull(&[Point::new(0, 0), Point::new(1, 0)]);
        assert_eq!(hull.to_string(), "hull[(0, 0), (1, 0)]");
    }
}
