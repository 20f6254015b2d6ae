//! Section 3.2: placement-aware candidate weights.
//!
//! Each candidate MBR gets a *test polygon* — the convex hull of the corner
//! points of its constituent registers' footprints. Registers whose center
//! falls strictly inside that polygon but which are not constituents are
//! *blocking registers*; with `b` total bits and `n` blockers the weight is
//!
//! ```text
//!        ⎧ 1/b        n = 0          (clean: bigger is better)
//! wᵢ  =  ⎨ b·2ⁿ       0 < n < b      (blocked: bigger is riskier)
//!        ⎩ ∞          n ≥ b          (hopeless: drop the candidate)
//! ```
//!
//! which reproduces every number in the paper's Fig. 3 (see the tests in
//! `tests/fig3_example.rs`).
//!
//! Enumeration counts blockers through a per-partition [`BlockerIndex`];
//! [`blocking_registers`] is the from-scratch reference it is tested
//! against.

// Queried by exact bucket key only (`centers_in` walks a deterministic
// key range); the map itself is never iterated, so the unordered layout
// cannot reach a result.
use std::collections::HashMap; // mbr-lint: allow(D1, key-addressed spatial hash, never iterated)

use mbr_geom::{convex_hull, monotone_chain, strictly_inside, Point, Rect};
use mbr_netlist::{Design, InstId};

/// Computed weight of a candidate: finite, or `None` for the `w = ∞` case
/// (the candidate must not be offered to the ILP).
pub type Weight = Option<f64>;

/// Spatial index over register centers, used to count blocking registers
/// without scanning the whole design per candidate.
#[derive(Clone, Debug)]
pub struct RegisterIndex {
    /// Bucketed centers: cell -> (inst, center).
    // mbr-lint: allow(D1, key-addressed spatial hash, never iterated)
    buckets: HashMap<(i64, i64), Vec<(InstId, Point)>>,
    cell_size: i64,
}

impl RegisterIndex {
    /// Indexes the centers of all live registers in the design (composable
    /// or not — a fixed register in the middle of a candidate's polygon is
    /// just as much of a routing obstacle).
    pub fn build(design: &Design) -> RegisterIndex {
        let cell_size = 20_000;
        // mbr-lint: allow(D1, key-addressed spatial hash, never iterated)
        let mut buckets: HashMap<(i64, i64), Vec<(InstId, Point)>> = HashMap::new();
        for (id, inst) in design.registers() {
            let c = inst.center();
            buckets
                .entry((c.x.div_euclid(cell_size), c.y.div_euclid(cell_size)))
                .or_default()
                .push((id, c));
        }
        RegisterIndex { buckets, cell_size }
    }

    /// Register centers within the axis-aligned box `[lo, hi]`.
    pub(crate) fn centers_in(
        &self,
        lo: Point,
        hi: Point,
    ) -> impl Iterator<Item = (InstId, Point)> + '_ {
        let bx0 = lo.x.div_euclid(self.cell_size);
        let bx1 = hi.x.div_euclid(self.cell_size);
        let by0 = lo.y.div_euclid(self.cell_size);
        let by1 = hi.y.div_euclid(self.cell_size);
        (bx0..=bx1)
            .flat_map(move |bx| (by0..=by1).map(move |by| (bx, by)))
            .filter_map(move |key| self.buckets.get(&key))
            .flatten()
            .copied()
            .filter(move |&(_, c)| lo.x <= c.x && c.x <= hi.x && lo.y <= c.y && c.y <= hi.y)
    }

    /// Register centers within `[lo, hi]`, sorted by instance id — a
    /// deterministic snapshot of a box's register population, used to key
    /// partition memo entries on their blocking neighborhood.
    pub(crate) fn centers_in_sorted(&self, lo: Point, hi: Point) -> Vec<(InstId, Point)> {
        let mut v: Vec<(InstId, Point)> = self.centers_in(lo, hi).collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }
}

/// Counts the blocking registers of a candidate: live registers whose center
/// lies strictly inside the convex hull of the members' footprint corners
/// and which are not members themselves.
pub fn blocking_registers(design: &Design, index: &RegisterIndex, members: &[InstId]) -> usize {
    let mut corners = Vec::with_capacity(members.len() * 4);
    for &m in members {
        corners.extend(design.inst(m).rect().corners());
    }
    let hull = convex_hull(&corners);
    let Some(bb) = hull.bounding_rect() else {
        return 0;
    };
    index
        .centers_in(bb.lo(), bb.hi())
        .filter(|&(id, c)| !members.contains(&id) && hull.contains_strict(c))
        .count()
}

/// The Section 3.2 weight for a candidate with `bits` total register bits
/// and `blockers` blocking registers. Single-register "keep" candidates
/// weigh exactly 1 (each register counts one toward the objective, matching
/// the `Original: 1.00` rows of Fig. 3).
pub fn candidate_weight(bits: u32, blockers: usize, members: usize) -> Weight {
    debug_assert!(bits > 0 && members > 0);
    if members == 1 {
        return Some(1.0);
    }
    let b = f64::from(bits);
    match blockers {
        0 => Some(1.0 / b),
        n if (n as u32) < bits => {
            let w = b * 2f64.powi(n as i32);
            w.is_finite().then_some(w)
        }
        _ => None,
    }
}

/// A register centered near a partition, with the member masks that rule
/// it out as a blocker of most subsets in five `AND`s (see
/// [`BlockerIndex`]). Bit `i` of each mask stands for local member `i`.
#[derive(Clone, Copy, Debug)]
struct Neighbor {
    center: Point,
    /// The bit of the member this register *is* (0 for a non-member).
    member: u64,
    /// Members whose footprint reaches left of the center (`lo.x < c.x`).
    left: u64,
    /// Members whose footprint reaches right of it (`hi.x > c.x`).
    right: u64,
    /// Members whose footprint reaches below it (`lo.y < c.y`).
    below: u64,
    /// Members whose footprint reaches above it (`hi.y > c.y`).
    above: u64,
}

impl Neighbor {
    /// Whether the center can lie strictly inside the test polygon of
    /// `mask`: it is not a member of `mask`, and it lies strictly inside
    /// the bounding box of the members' footprints — which contains every
    /// strict interior point of their hull.
    fn may_block(&self, mask: u64) -> bool {
        self.member & mask == 0
            && self.left & mask != 0
            && self.right & mask != 0
            && self.below & mask != 0
            && self.above & mask != 0
    }
}

/// Exact §3.2 blocker counts for the subsets of one partition, without
/// allocating per subset.
///
/// Built once per partition from every live register centered in the
/// closed bounding box of the members' footprints; that box contains every
/// subset's test polygon, so no other register can block. A count then
/// costs one pass over those neighbors, each ruled out or kept by
/// [`Neighbor::may_block`], plus one convex hull over the pre-sorted member
/// corners — built only when some neighbor survives that filter.
///
/// Counts stop at `cap`, the partition's widest library cell: a candidate
/// has at most `cap` bits, so `min(n, cap)` still separates `n < b` from
/// `n ≥ b` exactly in [`candidate_weight`].
///
/// Counts are also inherited. For `S ⊆ T`, hull(S) ⊆ hull(T), so every
/// blocker of `S` that is not a member of `T` blocks `T` too. The index
/// keeps the latest counted blocker list of each subset size; a count
/// starts from the largest held list whose subset lies inside the queried
/// one and hull-tests only the neighbors not already on it. Any held
/// subset is a valid start — the lists depend on the mask alone — and in
/// the sub-clique walk's order (`BitGraph::for_each_subclique_controlled`)
/// the held list one size down is usually the visited subset's parent.
#[derive(Clone, Debug)]
pub(crate) struct BlockerIndex {
    neighbors: Vec<Neighbor>,
    /// Member footprint corners sorted by point, each tagged with its
    /// member's bit.
    corners: Vec<(Point, u64)>,
    cap: usize,
    /// Per subset size: the subset whose blocker list is held (0: none).
    held: Vec<u64>,
    /// Per subset size: the held list's length.
    lens: Vec<usize>,
    /// Per subset size, `cap` slots: held lists, ascending neighbor index.
    lists: Vec<u32>,
    /// Scratch: one subset's distinct corners, then its hull.
    points: Vec<Point>,
    hull: Vec<Point>,
    /// Test polygons built so far.
    polygons: u64,
}

impl BlockerIndex {
    /// Indexes the blocking neighborhood of a partition whose local members
    /// are `members` (at most 64), counting up to `cap` blockers.
    pub(crate) fn build(
        design: &Design,
        index: &RegisterIndex,
        members: &[InstId],
        cap: u32,
    ) -> BlockerIndex {
        debug_assert!(members.len() <= 64, "partitions are bitmask-sized");
        let rects: Vec<Rect> = members.iter().map(|&m| design.inst(m).rect()).collect();
        let mut neighbors = Vec::new();
        if let Some(bb) = rects.iter().copied().reduce(|a, b| a.union(&b)) {
            for (id, c) in index.centers_in(bb.lo(), bb.hi()) {
                let mut nb = Neighbor {
                    center: c,
                    member: 0,
                    left: 0,
                    right: 0,
                    below: 0,
                    above: 0,
                };
                for (i, (r, &m)) in rects.iter().zip(members).enumerate() {
                    let bit = 1u64 << i;
                    if m == id {
                        nb.member = bit;
                    }
                    if r.lo().x < c.x {
                        nb.left |= bit;
                    }
                    if r.hi().x > c.x {
                        nb.right |= bit;
                    }
                    if r.lo().y < c.y {
                        nb.below |= bit;
                    }
                    if r.hi().y > c.y {
                        nb.above |= bit;
                    }
                }
                // Unless the other members' footprints reach past the
                // center on all four sides, it blocks no subset.
                if nb.may_block(!nb.member) {
                    neighbors.push(nb);
                }
            }
        }
        let mut corners: Vec<(Point, u64)> = rects
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.corners().map(|p| (p, 1u64 << i)))
            .collect();
        corners.sort_unstable_by_key(|&(p, _)| p);
        let cap = cap as usize;
        let sizes = members.len() + 1;
        BlockerIndex {
            neighbors,
            corners,
            cap,
            held: vec![0; sizes],
            lens: vec![0; sizes],
            lists: vec![0; sizes * cap],
            points: Vec::with_capacity(rects.len() * 4),
            hull: Vec::with_capacity(rects.len() * 4 + 1),
            polygons: 0,
        }
    }

    /// The size of the largest held subset strictly inside `mask`.
    fn ancestor(&self, mask: u64) -> Option<usize> {
        let size = mask.count_ones() as usize;
        (1..size)
            .rev()
            .find(|&k| self.held[k] != 0 && self.held[k] & !mask == 0)
    }

    /// Blockers of `mask` known without building its hull: the held
    /// ancestor list's entries that are not members of `mask`. A lower
    /// bound on [`BlockerIndex::count`].
    pub(crate) fn inherited(&self, mask: u64) -> usize {
        let Some(k) = self.ancestor(mask) else {
            return 0;
        };
        let list = &self.lists[k * self.cap..k * self.cap + self.lens[k]];
        list.iter()
            .filter(|&&i| self.neighbors[i as usize].member & mask == 0)
            .count()
    }

    /// The number of blocking registers of `mask` (local member bits),
    /// exact up to the cap; holds the blocker list for later subsets.
    pub(crate) fn count(&mut self, mask: u64) -> usize {
        let size = mask.count_ones() as usize;
        let from = self.ancestor(mask);
        let cap = self.cap;
        let (below, above) = self.lists.split_at_mut(size * cap);
        let inherited = match from {
            Some(k) => &below[k * cap..k * cap + self.lens[k]],
            None => &[],
        };
        let (n, built) = collect_blockers(
            &self.neighbors,
            &self.corners,
            &mut self.points,
            &mut self.hull,
            mask,
            inherited,
            &mut above[..cap],
        );
        self.polygons += u64::from(built);
        self.held[size] = mask;
        self.lens[size] = n;
        n
    }

    /// Test polygons (hulls) built so far.
    pub(crate) fn polygons(&self) -> u64 {
        self.polygons
    }
}

/// Writes the blockers of `mask` into `out`, ascending by neighbor index,
/// stopping once it is full; `inherited` (ascending) holds blockers of a
/// subset of `mask`. Returns the count and whether a hull was built.
fn collect_blockers(
    neighbors: &[Neighbor],
    corners: &[(Point, u64)],
    points: &mut Vec<Point>,
    hull: &mut Vec<Point>,
    mask: u64,
    inherited: &[u32],
    out: &mut [u32],
) -> (usize, bool) {
    let cap = out.len();
    let kept = |&&i: &&u32| neighbors[i as usize].member & mask == 0;
    if inherited.iter().filter(kept).count() >= cap {
        for (slot, &i) in out.iter_mut().zip(inherited.iter().filter(kept)) {
            *slot = i;
        }
        return (cap, false);
    }
    let mut n = 0;
    let mut next = inherited.iter().peekable();
    let mut built = false;
    for (i, nb) in neighbors.iter().enumerate() {
        if n == cap {
            break;
        }
        let i = i as u32;
        let blocks = if next.next_if_eq(&&i).is_some() {
            nb.member & mask == 0
        } else if nb.may_block(mask) {
            if !built {
                points.clear();
                for &(p, bit) in corners {
                    if bit & mask != 0 && points.last() != Some(&p) {
                        points.push(p);
                    }
                }
                monotone_chain(points, hull);
                built = true;
            }
            strictly_inside(hull, nb.center)
        } else {
            false
        };
        if blocks {
            out[n] = i;
            n += 1;
        }
    }
    (n, built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_geom::Rect;
    use mbr_graph::{BitGraph, UnGraph};
    use mbr_liberty::standard_library;
    use mbr_netlist::RegisterAttrs;
    use mbr_test::check::{any_u64, vec_of, Gen};
    use mbr_test::{prop_assert, prop_assert_eq, props};

    #[test]
    fn weight_formula_matches_the_paper() {
        // Clean candidates prefer more bits.
        assert_eq!(candidate_weight(8, 0, 8), Some(0.125));
        assert_eq!(candidate_weight(4, 0, 4), Some(0.25));
        assert_eq!(candidate_weight(3, 0, 3), Some(1.0 / 3.0));
        // Blocked candidates grow exponentially.
        assert_eq!(candidate_weight(8, 1, 8), Some(16.0));
        assert_eq!(candidate_weight(4, 1, 4), Some(8.0));
        assert_eq!(candidate_weight(2, 1, 2), Some(4.0));
        assert_eq!(candidate_weight(3, 1, 3), Some(6.0));
        // n >= b: infinite, dropped.
        assert_eq!(candidate_weight(2, 2, 2), None);
        assert_eq!(candidate_weight(3, 5, 3), None);
        // Singletons always weigh 1.
        assert_eq!(candidate_weight(4, 0, 1), Some(1.0));
    }

    #[test]
    fn paper_tradeoff_two_fours_beat_one_blocked_eight() {
        // From Section 3.2: {8 bits, 1 blocker} = 16 loses to
        // {4, 0} + {4, 1} = 0.25 + 8 = 8.25.
        let eight = candidate_weight(8, 1, 8).unwrap();
        let split = candidate_weight(4, 0, 4).unwrap() + candidate_weight(4, 1, 4).unwrap();
        assert!(split < eight);
        assert_eq!(split, 8.25);
    }

    #[test]
    fn blocking_detection_uses_strict_hull_containment() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(200_000, 200_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let cell = lib.cell_by_name("DFF_1X1").unwrap();
        // Triangle of members with one register dead center and one far out.
        let m1 = d.add_register(
            "m1",
            &lib,
            cell,
            Point::new(0, 0),
            RegisterAttrs::clocked(clk),
        );
        let m2 = d.add_register(
            "m2",
            &lib,
            cell,
            Point::new(40_000, 0),
            RegisterAttrs::clocked(clk),
        );
        let m3 = d.add_register(
            "m3",
            &lib,
            cell,
            Point::new(20_000, 40_000),
            RegisterAttrs::clocked(clk),
        );
        let _inside = d.add_register(
            "inside",
            &lib,
            cell,
            Point::new(20_000, 15_000),
            RegisterAttrs::clocked(clk),
        );
        let _outside = d.add_register(
            "outside",
            &lib,
            cell,
            Point::new(150_000, 150_000),
            RegisterAttrs::clocked(clk),
        );
        let index = RegisterIndex::build(&d);
        assert_eq!(blocking_registers(&d, &index, &[m1, m2, m3]), 1);
        // Pairs along the bottom edge don't capture the inside register.
        assert_eq!(blocking_registers(&d, &index, &[m1, m2]), 0);
        // Members never count as their own blockers.
        assert_eq!(blocking_registers(&d, &index, &[m1, m2, m3]), 1);
    }

    /// A design with one 1/2/4-bit flop per `(x, y, size)`, placed on a
    /// 500 × 300 DBU grid: half a 1-bit footprint each way, so footprints
    /// touch, rows are collinear, corners are shared, and every center
    /// lands on grid points that other footprints' corners and edges
    /// also occupy.
    fn grid_design(regs: &[(i64, i64, usize)]) -> (Design, Vec<InstId>) {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(100_000, 100_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let names = ["DFF_1X1", "DFF_2X1", "DFF_4X1"];
        let ids = regs
            .iter()
            .enumerate()
            .map(|(i, &(x, y, size))| {
                let cell = lib.cell_by_name(names[size]).unwrap();
                let loc = Point::new(500 * x, 300 * y);
                d.add_register(
                    format!("r{i}"),
                    &lib,
                    cell,
                    loc,
                    RegisterAttrs::clocked(clk),
                )
            })
            .collect();
        (d, ids)
    }

    /// The reference count of `mask` over `members`, capped.
    fn reference(
        d: &Design,
        index: &RegisterIndex,
        members: &[InstId],
        mask: u64,
        cap: u32,
    ) -> usize {
        let chosen: Vec<InstId> = (0..members.len())
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| members[i])
            .collect();
        blocking_registers(d, index, &chosen).min(cap as usize)
    }

    #[test]
    fn blocker_index_is_exact_on_every_subset_of_a_degenerate_layout() {
        // A collinear row of touching 1-bit flops (0..3), a 2-bit flop
        // sharing a corner with its end (4), a flop centered on the row's
        // top edge (5), one centered inside the hull of 0, 4 and 7 (6), a
        // flop above the row (7), and a non-member centered exactly on the
        // 2-bit flop's top-left corner, a vertex of the hull of 3 and 4 (8).
        let (d, regs) = grid_design(&[
            (0, 0, 0),
            (2, 0, 0),
            (4, 0, 0),
            (6, 0, 0),
            (8, 2, 1),
            (3, 1, 0),
            (3, 2, 0),
            (2, 6, 0),
            (7, 3, 0),
        ]);
        let index = RegisterIndex::build(&d);
        let members = &regs[..8];
        let mut seen_blocked = false;
        for cap in [1, 3, 8] {
            for mask in 1u64..(1 << members.len()) {
                let want = reference(&d, &index, members, mask, cap);
                seen_blocked |= want > 0;
                let mut fresh = BlockerIndex::build(&d, &index, members, cap);
                assert_eq!(fresh.count(mask), want, "mask {mask:#b}, cap {cap}");
            }
            // One index over the enumeration's sub-clique walk, counting
            // about three subsets in four as validation would: counts
            // inherit from parents, and skipped parents leave unrelated
            // lists held.
            let mut walked = BlockerIndex::build(&d, &index, members, cap);
            let mut complete = UnGraph::new(members.len());
            for a in 0..members.len() {
                for b in a + 1..members.len() {
                    complete.add_edge(a, b);
                }
            }
            let nodes: Vec<usize> = (0..members.len()).collect();
            let bg = BitGraph::from_subgraph(&complete, &nodes);
            let bits = vec![1; members.len()];
            let all = (1u64 << members.len()) - 1;
            bg.for_each_subclique(all, &bits, members.len() as u32, &mut |mask, _| {
                if mask.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62 != 0 {
                    let want = reference(&d, &index, members, mask, cap);
                    assert!(walked.inherited(mask) <= want);
                    assert_eq!(walked.count(mask), want, "walk, mask {mask:#b}, cap {cap}");
                }
                true
            });
        }
        assert!(seen_blocked, "the layout must block some subsets");
    }

    fn arb_layout() -> impl Gen<Value = Vec<(i64, i64, usize)>> {
        vec_of((0i64..14, 0i64..8, 0usize..3), 3usize..24)
    }

    props! {
        cases = 64;

        /// The per-partition index counts exactly what the from-scratch
        /// reference counts (capped at the same limit), and a count that
        /// inherits along a chain S₁ ⊂ S₂ ⊂ … ⊂ T equals T's count from
        /// scratch.
        fn blocker_index_matches_the_reference(
            layout in arb_layout(),
            picks in any_u64(),
            masks in vec_of(any_u64(), 1usize..8),
            drops in vec_of(any_u64(), 1usize..6),
            cap in 1u32..10,
        ) {
            let (d, regs) = grid_design(&layout);
            let index = RegisterIndex::build(&d);
            // Partition members: a random subset of the registers (at
            // least two); the rest stay in the design as non-members.
            let mut members: Vec<InstId> = regs
                .iter()
                .enumerate()
                .filter(|&(i, _)| picks & (1 << i) != 0)
                .map(|(_, &r)| r)
                .collect();
            if members.len() < 2 {
                members = regs[..2].to_vec();
            }
            let all = (1u64 << members.len()) - 1;
            // Unrelated subsets counted in sequence on one index.
            let mut shared = BlockerIndex::build(&d, &index, &members, cap);
            for &m in masks.iter().filter(|&&m| m & all != 0) {
                let want = reference(&d, &index, &members, m & all, cap);
                prop_assert_eq!(shared.count(m & all), want, "shared mask {:#b}", m & all);
            }
            for &m in &masks {
                let t = m & all;
                if t == 0 {
                    continue;
                }
                let want = reference(&d, &index, &members, t, cap);
                let mut fresh = BlockerIndex::build(&d, &index, &members, cap);
                prop_assert_eq!(fresh.count(t), want, "mask {:#b}", t);

                // A descending chain T ⊃ … ⊃ S₁, each step dropping the
                // bits of a random word, counted upward on one index.
                let mut chain = vec![t];
                for &drop in &drops {
                    let next = chain[chain.len() - 1] & !drop;
                    if next == 0 {
                        break;
                    }
                    chain.push(next);
                }
                let mut inheriting = BlockerIndex::build(&d, &index, &members, cap);
                for &s in chain.iter().rev() {
                    let want = reference(&d, &index, &members, s, cap);
                    prop_assert!(inheriting.inherited(s) <= want);
                    prop_assert_eq!(inheriting.count(s), want, "chain mask {:#b}", s);
                }
            }
        }
    }
}
