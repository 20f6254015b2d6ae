use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::Dbu;

/// A 2-D point in database units.
///
/// Points are `Copy` and ordered lexicographically (x, then y), which is the
/// order Andrew's monotone-chain convex hull requires.
///
/// # Examples
///
/// ```
/// use mbr_geom::Point;
///
/// let a = Point::new(1, 2);
/// let b = Point::new(4, 6);
/// assert_eq!(a.manhattan(b), 7);
/// assert_eq!(a + b, Point::new(5, 8));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Horizontal coordinate in DBU.
    pub x: Dbu,
    /// Vertical coordinate in DBU.
    pub y: Dbu,
}

impl Point {
    /// Creates a point from its coordinates.
    pub const fn new(x: Dbu, y: Dbu) -> Self {
        Point { x, y }
    }

    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0, 0);

    /// Manhattan (L1) distance to `other`.
    ///
    /// This is the routing-relevant distance for rectilinear wiring.
    pub fn manhattan(self, other: Point) -> Dbu {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// 2-D cross product of `(b - self)` and `(c - self)`.
    ///
    /// Positive when `self → b → c` turns counter-clockwise, negative when
    /// clockwise, zero when collinear. Exact in `i128`, so the hull and
    /// containment predicates never suffer rounding.
    pub fn cross(self, b: Point, c: Point) -> i128 {
        let abx = (b.x - self.x) as i128;
        let aby = (b.y - self.y) as i128;
        let acx = (c.x - self.x) as i128;
        let acy = (c.y - self.y) as i128;
        abx * acy - aby * acx
    }

    /// Component-wise midpoint, rounding towards negative infinity.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new(
            (self.x + other.x).div_euclid(2),
            (self.y + other.y).div_euclid(2),
        )
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        *self = *self + rhs;
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    fn sub_assign(&mut self, rhs: Point) {
        *self = *self - rhs;
    }
}

impl From<(Dbu, Dbu)> for Point {
    fn from((x, y): (Dbu, Dbu)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_is_symmetric_and_zero_on_self() {
        let a = Point::new(3, -7);
        let b = Point::new(-2, 11);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
        assert_eq!(a.manhattan(b), 5 + 18);
    }

    #[test]
    fn cross_sign_encodes_turn_direction() {
        let o = Point::ORIGIN;
        // counter-clockwise turn
        assert!(o.cross(Point::new(1, 0), Point::new(0, 1)) > 0);
        // clockwise turn
        assert!(o.cross(Point::new(0, 1), Point::new(1, 0)) < 0);
        // collinear
        assert_eq!(o.cross(Point::new(2, 2), Point::new(5, 5)), 0);
    }

    #[test]
    fn cross_does_not_overflow_on_extreme_coordinates() {
        let a = Point::new(i64::MAX / 4, i64::MIN / 4);
        let b = Point::new(i64::MIN / 4, i64::MAX / 4);
        let c = Point::new(i64::MAX / 4, i64::MAX / 4);
        // The point is merely that this runs without panicking in debug mode.
        let _ = a.cross(b, c);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Point::new(1, 5);
        let b = Point::new(1, 6);
        assert!(a < b);
        assert!(Point::new(0, 100) < a);
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new(2, 11));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn midpoint_rounds_towards_negative_infinity() {
        assert_eq!(
            Point::new(0, 0).midpoint(Point::new(3, 3)),
            Point::new(1, 1)
        );
        assert_eq!(
            Point::new(-1, -1).midpoint(Point::new(0, 0)),
            Point::new(-1, -1)
        );
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Point::new(-4, 2).to_string(), "(-4, 2)");
    }
}
