//! Property tests of the Section 4.2 placement solver: the closed form the
//! flow runs against the exact breakpoint-scan oracle and the paper's
//! literal LP, on random pin-box instances.

use mbr_core::placement::{
    optimal_corner_brute, optimal_corner_lp, optimal_corner_simplex, placement_cost, PinBox,
};
use mbr_geom::{Point, Rect};
use mbr_test::check::{vec_of, Gen};
use mbr_test::{prop_assert, prop_assert_eq, props};

fn arb_boxes() -> impl Gen<Value = Vec<PinBox>> {
    vec_of(
        (
            0i64..90_000,
            0i64..90_000,
            0i64..8_000,
            0i64..8_000,
            0i64..4_000,
            0i64..1_000,
        ),
        1usize..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y, w, h, dx, dy)| PinBox {
                offset: Point::new(dx, dy),
                bbox: Rect::new(Point::new(x, y), Point::new(x + w, y + h)),
            })
            .collect()
    })
}

/// Pin boxes on a coarse lattice: sizes of zero (a single external pin)
/// and repeated breakpoints are common, and one box (p = 1) is a tenth of
/// the cases.
fn arb_lattice_boxes() -> impl Gen<Value = Vec<PinBox>> {
    const STEP: i64 = 2_500;
    vec_of(
        (0i64..36, 0i64..36, 0i64..3, 0i64..3, 0i64..3, 0i64..3),
        1usize..11,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y, w, h, dx, dy)| PinBox {
                offset: Point::new(dx * STEP, dy * STEP),
                bbox: Rect::new(
                    Point::new(x * STEP, y * STEP),
                    Point::new((x + w) * STEP, (y + h) * STEP),
                ),
            })
            .collect()
    })
}

/// A corner region of one of five kinds: the whole die, a single point, a
/// random sub-rectangle, or a rectangle wholly below or wholly above every
/// breakpoint the box generators can produce (they lie in
/// `[-5_000, 98_000]`).
fn arb_region() -> impl Gen<Value = Rect> {
    (
        0u8..5,
        0i64..100_000,
        0i64..100_000,
        0i64..100_000,
        0i64..100_000,
    )
        .prop_map(|(kind, a, b, c, d)| match kind {
            0 => Rect::new(Point::new(0, 0), Point::new(100_000, 100_000)),
            1 => Rect::point(Point::new(a, b)),
            2 => Rect::new(Point::new(a, b), Point::new(c, d)),
            3 => Rect::new(
                Point::new(-a - 10_000, -b - 10_000),
                Point::new(-10_000, -10_000),
            ),
            _ => Rect::new(
                Point::new(100_000, 100_000),
                Point::new(c + 100_000, d + 100_000),
            ),
        })
}

/// The closed form against both oracles: the same corner as the
/// breakpoint scan (which breaks ties toward the larger coordinate), the
/// same cost as the simplex, and always inside the region.
fn check_against_the_oracles(boxes: &[PinBox], region: Rect) {
    let corner = optimal_corner_lp(boxes, region);
    prop_assert!(
        region.contains(corner),
        "corner {corner} outside {region:?}"
    );
    prop_assert_eq!(corner, optimal_corner_brute(boxes, region));
    let simplex = optimal_corner_simplex(boxes, region);
    prop_assert_eq!(
        placement_cost(boxes, corner),
        placement_cost(boxes, simplex),
        "closed form at {}, simplex at {}",
        corner,
        simplex
    );
}

props! {
    cases = 256;

    /// Random boxes anywhere on the die, in any kind of region.
    fn closed_form_matches_both_oracles(boxes in arb_boxes(), region in arb_region()) {
        check_against_the_oracles(&boxes, region);
    }

    /// Lattice boxes: zero-size boxes, duplicate breakpoints and p = 1.
    fn closed_form_matches_both_oracles_on_ties(
        boxes in arb_lattice_boxes(),
        region in arb_region(),
    ) {
        check_against_the_oracles(&boxes, region);
    }
}

props! {
    cases = 64;

    /// The optimum never loses to a random grid of alternative corners.
    fn oracle_beats_random_corners(boxes in arb_boxes(), probe_x in 0i64..100_000, probe_y in 0i64..100_000) {
        let region = Rect::new(Point::new(0, 0), Point::new(100_000, 100_000));
        let brute = optimal_corner_brute(&boxes, region);
        let probe = Point::new(probe_x, probe_y);
        prop_assert!(placement_cost(&boxes, brute) <= placement_cost(&boxes, probe));
    }

    /// Shrinking the feasible region never improves the objective.
    fn region_restriction_is_monotone(boxes in arb_boxes()) {
        let big = Rect::new(Point::new(0, 0), Point::new(100_000, 100_000));
        let small = Rect::new(Point::new(40_000, 40_000), Point::new(60_000, 60_000));
        let in_big = placement_cost(&boxes, optimal_corner_lp(&boxes, big));
        let in_small = placement_cost(&boxes, optimal_corner_lp(&boxes, small));
        prop_assert!(in_big <= in_small);
    }
}
