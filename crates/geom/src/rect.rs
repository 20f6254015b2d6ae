use std::fmt;

use crate::{Dbu, Point};

/// An axis-aligned rectangle in database units.
///
/// Rectangles are *closed*: both the low and the high edge belong to the
/// rectangle, so a degenerate rectangle with `lo == hi` is a single point.
/// This matches how timing-feasible regions behave in the paper — a register
/// with no positive slack still contributes a feasible region equal to its
/// own footprint (Section 2, "placement compatibility").
///
/// # Examples
///
/// ```
/// use mbr_geom::{Point, Rect};
///
/// let a = Rect::new(Point::new(0, 0), Point::new(10, 10));
/// let b = Rect::new(Point::new(5, 5), Point::new(20, 20));
/// let i = a.intersection(&b).expect("overlapping");
/// assert_eq!(i, Rect::new(Point::new(5, 5), Point::new(10, 10)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalizing the corner
    /// order so that `lo <= hi` component-wise.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from its low corner and a (non-negative) size.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    pub fn from_origin_size(lo: Point, w: Dbu, h: Dbu) -> Self {
        assert!(w >= 0 && h >= 0, "rect size must be non-negative");
        Rect {
            lo,
            hi: Point::new(lo.x + w, lo.y + h),
        }
    }

    /// The degenerate rectangle covering exactly `p`.
    pub fn point(p: Point) -> Self {
        Rect { lo: p, hi: p }
    }

    /// Low (bottom-left) corner.
    pub fn lo(&self) -> Point {
        self.lo
    }

    /// High (top-right) corner.
    pub fn hi(&self) -> Point {
        self.hi
    }

    /// Width along x.
    pub fn width(&self) -> Dbu {
        self.hi.x - self.lo.x
    }

    /// Height along y.
    pub fn height(&self) -> Dbu {
        self.hi.y - self.lo.y
    }

    /// Area in DBU².
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Center point (rounded towards negative infinity).
    pub fn center(&self) -> Point {
        self.lo.midpoint(self.hi)
    }

    /// The four corner points, counter-clockwise from the low corner.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.lo,
            Point::new(self.hi.x, self.lo.y),
            self.hi,
            Point::new(self.lo.x, self.hi.y),
        ]
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// Whether `other` lies entirely inside or on the boundary of `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains(other.lo) && self.contains(other.hi)
    }

    /// Whether the two closed rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// Whether the two rectangles share interior area (touching edges do not
    /// count). Degenerate rectangles never strictly overlap anything.
    pub fn overlaps_strict(&self, other: &Rect) -> bool {
        self.area() > 0
            && other.area() > 0
            && self.lo.x < other.hi.x
            && other.lo.x < self.hi.x
            && self.lo.y < other.hi.y
            && other.lo.y < self.hi.y
    }

    /// Intersection of two closed rectangles, or `None` if they are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: Point::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        })
    }

    /// Smallest rectangle covering both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Expands every side outward by `margin` (inward when negative).
    ///
    /// Returns `None` if a negative margin would invert the rectangle.
    pub fn inflate(&self, margin: Dbu) -> Option<Rect> {
        let lo = Point::new(self.lo.x - margin, self.lo.y - margin);
        let hi = Point::new(self.hi.x + margin, self.hi.y + margin);
        if lo.x > hi.x || lo.y > hi.y {
            None
        } else {
            Some(Rect { lo, hi })
        }
    }

    /// Half-perimeter of the rectangle: `width + height`.
    ///
    /// The HPWL of a net is the half-perimeter of the bounding box of its
    /// pins; exposing it on `Rect` keeps the estimator in one place.
    pub fn half_perimeter(&self) -> Dbu {
        self.width() + self.height()
    }

    /// The nearest point inside the rectangle to `p` (i.e. `p` clamped).
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.lo.x, self.hi.x),
            p.y.clamp(self.lo.y, self.hi.y),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: Dbu, y0: Dbu, x1: Dbu, y1: Dbu) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn normalizes_corner_order() {
        let a = Rect::new(Point::new(10, 10), Point::new(0, 0));
        assert_eq!(a.lo(), Point::new(0, 0));
        assert_eq!(a.hi(), Point::new(10, 10));
    }

    #[test]
    fn intersection_commutes_and_matches_containment() {
        let a = r(0, 0, 10, 10);
        let b = r(5, -5, 20, 5);
        let i1 = a.intersection(&b).unwrap();
        let i2 = b.intersection(&a).unwrap();
        assert_eq!(i1, i2);
        assert_eq!(i1, r(5, 0, 10, 5));
        assert!(a.contains_rect(&i1));
        assert!(b.contains_rect(&i1));
    }

    #[test]
    fn disjoint_rectangles_do_not_intersect() {
        let a = r(0, 0, 10, 10);
        let b = r(11, 0, 20, 10);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn touching_rectangles_intersect_closed_but_not_strict() {
        let a = r(0, 0, 10, 10);
        let b = r(10, 0, 20, 10);
        assert!(a.intersects(&b));
        assert!(!a.overlaps_strict(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.width(), 0);
    }

    #[test]
    fn degenerate_rect_behaves_like_a_point() {
        let p = Rect::point(Point::new(3, 3));
        assert_eq!(p.area(), 0);
        assert!(p.contains(Point::new(3, 3)));
        assert!(!p.overlaps_strict(&r(0, 0, 10, 10)));
        assert!(p.intersects(&r(0, 0, 10, 10)));
    }

    #[test]
    fn union_covers_both() {
        let a = r(0, 0, 1, 1);
        let b = r(5, 7, 6, 9);
        let u = a.union(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b));
        assert_eq!(u, r(0, 0, 6, 9));
    }

    #[test]
    fn inflate_and_deflate() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.inflate(2).unwrap(), r(-2, -2, 12, 12));
        assert_eq!(a.inflate(-5).unwrap(), r(5, 5, 5, 5));
        assert!(a.inflate(-6).is_none());
    }

    #[test]
    fn clamp_point_projects_to_boundary() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.clamp_point(Point::new(-5, 5)), Point::new(0, 5));
        assert_eq!(a.clamp_point(Point::new(20, 20)), Point::new(10, 10));
        assert_eq!(a.clamp_point(Point::new(3, 4)), Point::new(3, 4));
    }

    #[test]
    fn corners_are_counter_clockwise() {
        let a = r(0, 0, 2, 3);
        let c = a.corners();
        // Positive signed area ⇒ CCW.
        let mut area2 = 0i128;
        for i in 0..4 {
            let p = c[i];
            let q = c[(i + 1) % 4];
            area2 += p.x as i128 * q.y as i128 - q.x as i128 * p.y as i128;
        }
        assert_eq!(area2, 2 * a.area());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_size_panics() {
        let _ = Rect::from_origin_size(Point::ORIGIN, -1, 5);
    }
}
