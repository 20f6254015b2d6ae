//! Exact weighted set partitioning: the specialized solver behind the
//! Section 3.1 composition ILP.
//!
//! The ILP
//!
//! ```text
//! minimize   Σ wᵢ xᵢ
//! subject to ∀ register j:  Σᵢ aᵢⱼ xᵢ = 1,   xᵢ ∈ {0, 1}
//! ```
//!
//! is a weighted set-partitioning problem: pick a subset of candidates so
//! that every element (register) is covered exactly once at minimum total
//! weight. The solver here is an exact depth-first branch-and-bound:
//!
//! * **dominance reduction**: among candidates covering the same element
//!   set, only the cheapest is kept;
//! * **greedy incumbent**: a best-ratio greedy cover provides the initial
//!   upper bound;
//! * **fractional lower bound**: `Σ_e min_{S∋e} w_S/|S|` over uncovered
//!   elements prunes the search;
//! * **LP-relaxation bound** (opt-in, [`SetPartition::set_lp_bound`]): one
//!   root solve of the LP relaxation recovers per-element dual potentials
//!   `y_e`; any exact cover of an uncovered set `U` costs at least
//!   `Σ_{e∈U} y_e`, which strictly dominates the fractional bound at the
//!   root and usually deep into the tree. When the greedy incumbent already
//!   matches the relaxation value the search is closed without branching.
//!   Because the bound is admissible and the branch order is untouched, the
//!   returned selection is bit-identical to the unpruned search (see
//!   `DESIGN.md` §11 and `tests/differential.rs`);
//! * **element selection**: branch on the uncovered element with the fewest
//!   candidates (fail-first).
//!
//! Element sets are `u64` bitmasks, so an instance holds at most 64
//! elements; a larger one is rejected with
//! [`SetPartitionError::TooManyElements`] before any search work. The
//! composition flow's partitions are bounded by `partition_max_nodes`
//! (paper: 30), far below that.
//!
//! Each solve runs on the calling thread. The composition flow parallelizes
//! across partitions, which are independent instances, never inside one.
//!
//! Instances coming from the composition flow always include singleton
//! candidates, so they are feasible by construction; the solver nevertheless
//! reports infeasibility correctly for arbitrary inputs.

use std::error::Error;
use std::fmt;

use mbr_obs::{self as obs, Counter, Histogram};

/// One column of the partitioning problem: a candidate subset with a weight.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Elements covered by this candidate (deduplicated, any order).
    pub elements: Vec<usize>,
    /// Selection cost `wᵢ` (must be finite and non-negative; the `w = ∞`
    /// candidates of the paper are simply not added).
    pub weight: f64,
}

/// Why a set-partitioning instance could not be solved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetPartitionError {
    /// No exact cover exists.
    Infeasible,
    /// A candidate referenced an element `>= num_elements`.
    ElementOutOfRange {
        /// The candidate index.
        candidate: usize,
        /// The offending element.
        element: usize,
    },
    /// A candidate had a negative, NaN, or infinite weight.
    BadWeight {
        /// The candidate index.
        candidate: usize,
    },
    /// The instance has more elements than the `u64` coverage masks of the
    /// search hold (at most 64).
    TooManyElements {
        /// The instance's element count.
        elements: usize,
    },
}

impl fmt::Display for SetPartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetPartitionError::Infeasible => write!(f, "no exact cover exists"),
            SetPartitionError::ElementOutOfRange { candidate, element } => {
                write!(
                    f,
                    "candidate {candidate} references element {element} out of range"
                )
            }
            SetPartitionError::BadWeight { candidate } => {
                write!(
                    f,
                    "candidate {candidate} has a non-finite or negative weight"
                )
            }
            SetPartitionError::TooManyElements { elements } => {
                write!(
                    f,
                    "{elements} elements exceed the solver's bound of {MAX_ELEMENTS}"
                )
            }
        }
    }
}

impl Error for SetPartitionError {}

/// An optimal (or budget-limited best-found) exact cover.
#[derive(Clone, Debug, PartialEq)]
pub struct SetPartitionSolution {
    /// Indices (into the original candidate list) of the selected columns.
    pub selected: Vec<usize>,
    /// Total weight of the selection.
    pub cost: f64,
    /// Branch-and-bound nodes explored (for diagnostics and the runtime
    /// experiments).
    pub nodes_explored: u64,
    /// Nodes cut because a lower bound met the incumbent: at node entry, or
    /// (with the LP bound) by the look-ahead before a child is entered.
    pub nodes_pruned: u64,
    /// Times the search replaced the incumbent with a cheaper cover (the
    /// initial greedy incumbent is not counted).
    pub incumbent_improvements: u64,
    /// Prunes attributable to the LP-relaxation dual bound: nodes the
    /// fractional bound alone would not have cut, plus root solves closed
    /// outright because the greedy incumbent met the relaxation value.
    pub lp_bound_cuts: u64,
    /// Whether the search proved optimality: the DFS drained its tree (even
    /// if the last node landed exactly on the budget) or the LP bound closed
    /// the root. `false` only when a [`SetPartition::solve_bounded`] budget
    /// actually truncated the search; the returned cover is then the best
    /// incumbent, not proven optimal.
    pub proven_optimal: bool,
}

/// A weighted set-partitioning instance (see the module-level docs).
///
/// # Examples
///
/// ```
/// use mbr_lp::SetPartition;
///
/// let mut sp = SetPartition::new(3);
/// sp.add_candidate(&[0], 1.0);
/// sp.add_candidate(&[1], 1.0);
/// sp.add_candidate(&[2], 1.0);
/// sp.add_candidate(&[0, 1], 0.5);
/// sp.add_candidate(&[1, 2], 0.5);
/// let sol = sp.solve()?;
/// assert!((sol.cost - 1.5).abs() < 1e-9); // {0,1} + {2}
/// # Ok::<(), mbr_lp::SetPartitionError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SetPartition {
    num_elements: usize,
    candidates: Vec<Candidate>,
    use_lp_bound: bool,
}

/// Most elements an instance may have: one bit of a `u64` coverage mask
/// each.
const MAX_ELEMENTS: usize = u64::BITS as usize;

/// Below this many surviving candidates the search tree is small enough
/// that a root LP solve costs more than it saves; the relaxation machinery
/// stays off regardless of the flags.
const LP_BOUND_MIN_CANDIDATES: usize = 16;

impl SetPartition {
    /// Creates an instance over elements `0..num_elements`. The LP bound
    /// starts off, so a plain `solve()` is the reference search.
    pub fn new(num_elements: usize) -> Self {
        SetPartition {
            num_elements,
            candidates: Vec::new(),
            use_lp_bound: false,
        }
    }

    /// Enables the LP-relaxation dual bound. Admissible and applied with an
    /// unchanged branch order, so the selected cover is identical to the
    /// reference search — only `nodes_explored` shrinks.
    pub fn set_lp_bound(&mut self, on: bool) -> &mut Self {
        self.use_lp_bound = on;
        self
    }

    /// Adds a candidate column; returns its index. Duplicate elements within
    /// one candidate are deduplicated.
    pub fn add_candidate(&mut self, elements: &[usize], weight: f64) -> usize {
        let mut elements = elements.to_vec();
        elements.sort_unstable();
        elements.dedup();
        self.candidates.push(Candidate { elements, weight });
        self.candidates.len() - 1
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of candidate columns.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Solves the instance exactly.
    ///
    /// # Errors
    ///
    /// [`SetPartitionError::Infeasible`] when no exact cover exists,
    /// [`SetPartitionError::TooManyElements`] above 64 elements, or a
    /// validation error for malformed candidates.
    pub fn solve(&self) -> Result<SetPartitionSolution, SetPartitionError> {
        self.solve_bounded(u64::MAX)
    }

    /// Like [`SetPartition::solve`], but stops branching after exploring
    /// `max_nodes` search nodes and returns the best cover found so far
    /// (always a valid exact cover thanks to the greedy incumbent).
    /// [`SetPartitionSolution::proven_optimal`] reports whether the budget
    /// was hit. The composition flow uses this to bound worst-case runtime
    /// on degenerate dense partitions.
    ///
    /// # Errors
    ///
    /// Same as [`SetPartition::solve`].
    pub fn solve_bounded(&self, max_nodes: u64) -> Result<SetPartitionSolution, SetPartitionError> {
        // Clock reads only when a sink is listening: per-solve latency and
        // node-count distributions feed the `--report`/perfdiff histograms.
        let start = if obs::installed() {
            Some(obs::now_ns())
        } else {
            None
        };
        let result = self.solve_impl(max_nodes);
        if let Some(start) = start {
            obs::observe(
                Histogram::SetPartSolveNs,
                obs::now_ns().saturating_sub(start),
            );
        }
        if let Ok(sol) = &result {
            obs::counter(Counter::SetPartSolves, 1);
            obs::counter(Counter::SetPartNodesExplored, sol.nodes_explored);
            obs::counter(Counter::SetPartNodesPruned, sol.nodes_pruned);
            obs::counter(
                Counter::SetPartIncumbentImprovements,
                sol.incumbent_improvements,
            );
            obs::counter(Counter::SetPartLpBoundCuts, sol.lp_bound_cuts);
            obs::observe(Histogram::SetPartSolveNodes, sol.nodes_explored);
        }
        result
    }

    fn solve_impl(&self, max_nodes: u64) -> Result<SetPartitionSolution, SetPartitionError> {
        // ---- validation ----
        for (i, cand) in self.candidates.iter().enumerate() {
            if !cand.weight.is_finite() || cand.weight < 0.0 {
                return Err(SetPartitionError::BadWeight { candidate: i });
            }
            if let Some(&e) = cand.elements.iter().find(|&&e| e >= self.num_elements) {
                return Err(SetPartitionError::ElementOutOfRange {
                    candidate: i,
                    element: e,
                });
            }
        }
        if self.num_elements > MAX_ELEMENTS {
            return Err(SetPartitionError::TooManyElements {
                elements: self.num_elements,
            });
        }
        if self.num_elements == 0 {
            return Ok(SetPartitionSolution {
                selected: Vec::new(),
                cost: 0.0,
                nodes_explored: 0,
                nodes_pruned: 0,
                incumbent_improvements: 0,
                lp_bound_cuts: 0,
                proven_optimal: true,
            });
        }

        // ---- dominance reduction: cheapest candidate per element set ----
        // `active[i]` = candidate survives into the search.
        let mut order: Vec<usize> = (0..self.candidates.len())
            .filter(|&i| !self.candidates[i].elements.is_empty())
            .collect();
        order.sort_by(|&a, &b| {
            let ca = &self.candidates[a];
            let cb = &self.candidates[b];
            ca.elements
                .cmp(&cb.elements)
                .then(ca.weight.partial_cmp(&cb.weight).expect("finite weights"))
        });
        let mut active: Vec<usize> = Vec::with_capacity(order.len());
        for &i in &order {
            if let Some(&prev) = active.last() {
                if self.candidates[prev].elements == self.candidates[i].elements {
                    continue; // dominated: same set, weight >= prev
                }
            }
            active.push(i);
        }

        // Candidates covering each element.
        let mut covers: Vec<Vec<usize>> = vec![Vec::new(); self.num_elements];
        for &i in &active {
            for &e in &self.candidates[i].elements {
                covers[e].push(i);
            }
        }
        if covers.iter().any(|c| c.is_empty()) {
            return Err(SetPartitionError::Infeasible);
        }

        // One root LP-relaxation solve for the bound. Skipped on small
        // instances where the search tree is cheaper than the simplex.
        let potentials = if self.use_lp_bound && active.len() >= LP_BOUND_MIN_CANDIDATES {
            lp_potentials(&self.candidates, &active, self.num_elements)
        } else {
            None
        };

        MaskSearcher::build(
            &self.candidates,
            &covers,
            self.num_elements,
            max_nodes,
            self.use_lp_bound,
            potentials.as_ref(),
        )
        .run()
        .ok_or(SetPartitionError::Infeasible)
    }
}

/// Dual certificate of the root LP relaxation: per-element potentials plus
/// the certified bound `Σ y_e` they prove.
struct LpPotentials {
    /// Per-element potential `y_e`. Dual-feasible by construction: every
    /// surviving candidate satisfies `Σ_{e∈S} y_e ≤ w_S`, so `Σ_{e∈U} y_e`
    /// lower-bounds every exact cover of any element set `U`.
    y: Vec<f64>,
    /// The certified root bound (`Σ_e y_e`).
    bound: f64,
}

/// Solves the LP relaxation `min w·x, Ax = 1, x ≥ 0` over the surviving
/// candidates and certifies the recovered duals. Any numerical doubt —
/// simplex failure, a singular basis, or a dual-feasibility violation
/// beyond tolerance — voids the certificate (`None`), and the search falls
/// back to the fractional bound; correctness never rests on LP numerics.
fn lp_potentials(
    candidates: &[Candidate],
    active: &[usize],
    num_elements: usize,
) -> Option<LpPotentials> {
    let mut a = vec![vec![0.0f64; active.len()]; num_elements];
    let mut c = vec![0.0f64; active.len()];
    for (col, &i) in active.iter().enumerate() {
        c[col] = candidates[i].weight;
        for &e in &candidates[i].elements {
            a[e][col] = 1.0;
        }
    }
    let b = vec![1.0f64; num_elements];
    let (outcome, duals) = crate::simplex::solve_standard_form_with_duals(&a, &b, &c);
    if !matches!(outcome, crate::simplex::SimplexOutcome::Optimal { .. }) {
        return None;
    }
    let raw = duals?;
    if raw.iter().any(|v| !v.is_finite()) {
        return None;
    }
    // Audit dual feasibility and repair small violations by shifting every
    // potential down by the worst one: with y'_e = y_e - v and |S| ≥ 1,
    // Σ_{e∈S} y'_e ≤ Σ_{e∈S} y_e - v ≤ w_S. Large violations mean the
    // basis solve went numerically wrong; discard the certificate.
    let mut violation = 0.0f64;
    for &i in active {
        let ya: f64 = candidates[i].elements.iter().map(|&e| raw[e]).sum();
        violation = violation.max(ya - candidates[i].weight);
    }
    if !violation.is_finite() || violation > 1e-6 {
        return None;
    }
    let y: Vec<f64> = raw.iter().map(|v| v - violation).collect();
    let bound = y.iter().sum();
    Some(LpPotentials { y, bound })
}

/// The branch-and-bound over instances of at most [`MAX_ELEMENTS`]
/// elements. Element sets are `u64` masks, the admissible lower bound and
/// the pivot order are precomputed, and each element's candidate list is
/// pre-sorted by weight, so per-node work is O(elements + |covers(pivot)|)
/// with single-AND conflict checks.
struct MaskSearcher {
    /// Candidate masks, parallel to `weights` (original indices retained).
    masks: Vec<u64>,
    weights: Vec<f64>,
    original: Vec<usize>,
    /// Per element: indices into `masks`, ascending weight.
    covers: Vec<Vec<u32>>,
    /// Static admissible share per element: min over covering candidates of
    /// weight/|set| (ignores conflicts, hence a valid lower bound).
    share: Vec<f64>,
    /// LP-dual potential per element (zeros when no certificate); only
    /// consulted when `use_lp_bound` is set.
    y: Vec<f64>,
    /// Certified root LP bound, when a certificate exists.
    lp_root: Option<f64>,
    use_lp_bound: bool,
    full: u64,
    num_elements: usize,
    max_nodes: u64,
}

impl MaskSearcher {
    fn build(
        candidates: &[Candidate],
        covers: &[Vec<usize>],
        num_elements: usize,
        max_nodes: u64,
        use_lp_bound: bool,
        potentials: Option<&LpPotentials>,
    ) -> MaskSearcher {
        // Active candidates are exactly those present in the covers lists.
        let mut active: Vec<usize> = covers.iter().flatten().copied().collect();
        active.sort_unstable();
        active.dedup();
        let mut remap = vec![u32::MAX; candidates.len()];
        let mut masks = Vec::with_capacity(active.len());
        let mut weights = Vec::with_capacity(active.len());
        let mut original = Vec::with_capacity(active.len());
        for (slot, &i) in active.iter().enumerate() {
            remap[i] = slot as u32;
            let mut mask = 0u64;
            for &e in &candidates[i].elements {
                mask |= 1 << e;
            }
            masks.push(mask);
            weights.push(candidates[i].weight);
            original.push(i);
        }
        let mut share = vec![f64::INFINITY; num_elements];
        let mut local_covers: Vec<Vec<u32>> = vec![Vec::new(); num_elements];
        for (e, list) in covers.iter().enumerate() {
            for &i in list {
                let slot = remap[i];
                local_covers[e].push(slot);
                let s = weights[slot as usize] / candidates[i].elements.len() as f64;
                if s < share[e] {
                    share[e] = s;
                }
            }
            local_covers[e].sort_by(|&a, &b| {
                weights[a as usize]
                    .partial_cmp(&weights[b as usize])
                    .expect("finite weights")
            });
        }
        let full = if num_elements == 64 {
            u64::MAX
        } else {
            (1u64 << num_elements) - 1
        };
        MaskSearcher {
            masks,
            weights,
            original,
            covers: local_covers,
            share,
            y: potentials.map_or_else(|| vec![0.0; num_elements], |p| p.y.clone()),
            lp_root: potentials.map(|p| p.bound),
            use_lp_bound,
            full,
            num_elements,
            max_nodes,
        }
    }

    fn run(&self) -> Option<SetPartitionSolution> {
        // Greedy incumbent (best ratio of weight per newly covered element).
        let mut best: Option<(Vec<u32>, f64)> = self.greedy();
        let mut stats = SearchStats::default();
        // Root cut: when the greedy incumbent already meets the certified
        // relaxation bound, no cover is strictly cheaper, so the reference
        // search would keep the greedy selection anyway — skip it entirely.
        let skip_dfs = match (self.use_lp_bound, self.lp_root, &best) {
            (true, Some(root), Some((_, cost))) => *cost <= root + 1e-9,
            _ => false,
        };
        if skip_dfs {
            stats.lp_cuts += 1;
        } else {
            self.dfs(0, 0.0, &mut Vec::new(), &mut best, &mut stats);
        }
        // Proven unless the budget actually truncated the tree: a search
        // that drains on exactly its last allowed node is still exact.
        let proven_optimal = !stats.budget_hit;
        best.map(|(sel, cost)| SetPartitionSolution {
            selected: sel.iter().map(|&s| self.original[s as usize]).collect(),
            cost,
            nodes_explored: stats.nodes,
            nodes_pruned: stats.pruned,
            incumbent_improvements: stats.improved,
            lp_bound_cuts: stats.lp_cuts,
            proven_optimal,
        })
    }

    fn greedy(&self) -> Option<(Vec<u32>, f64)> {
        let mut covered = 0u64;
        let mut sel = Vec::new();
        let mut cost = 0.0;
        while covered != self.full {
            let mut best: Option<(u32, f64)> = None;
            for slot in 0..self.masks.len() {
                let mask = self.masks[slot];
                if mask & covered != 0 {
                    continue;
                }
                let ratio = self.weights[slot] / mask.count_ones() as f64;
                if best.is_none_or(|(_, r)| ratio < r) {
                    best = Some((slot as u32, ratio));
                }
            }
            let (slot, _) = best?;
            covered |= self.masks[slot as usize];
            cost += self.weights[slot as usize];
            sel.push(slot);
        }
        Some((sel, cost))
    }

    /// Admissible bounds over the uncovered elements: the static fractional
    /// share sum and (when a certificate exists) the LP-dual potential sum.
    /// Both lower-bound any exact cover of the remainder, so their max does.
    fn bounds(&self, covered: u64) -> (f64, f64) {
        let mut share_lb = 0.0;
        let mut dual_lb = 0.0;
        let mut uncovered = self.full & !covered;
        while uncovered != 0 {
            let e = uncovered.trailing_zeros() as usize;
            uncovered &= uncovered - 1;
            share_lb += self.share[e];
            dual_lb += self.y[e];
        }
        (share_lb, dual_lb)
    }

    fn dfs(
        &self,
        covered: u64,
        cost: f64,
        chosen: &mut Vec<u32>,
        best: &mut Option<(Vec<u32>, f64)>,
        stats: &mut SearchStats,
    ) {
        if stats.nodes >= self.max_nodes {
            stats.budget_hit = true;
            return;
        }
        stats.nodes += 1;
        if covered == self.full {
            if best.as_ref().is_none_or(|&(_, b)| cost < b - 1e-12) {
                *best = Some((chosen.clone(), cost));
                stats.improved += 1;
            }
            return;
        }
        if let Some((_, b)) = best {
            let (share_lb, dual_lb) = self.bounds(covered);
            let lb = if self.use_lp_bound && dual_lb > share_lb {
                dual_lb
            } else {
                share_lb
            };
            if cost + lb >= *b - 1e-12 {
                if cost + share_lb < *b - 1e-12 {
                    stats.lp_cuts += 1;
                }
                stats.pruned += 1;
                return;
            }
        }
        // Pivot: uncovered element with the fewest static covers (cheap,
        // near fail-first).
        let mut pivot = usize::MAX;
        let mut pivot_count = usize::MAX;
        let mut uncovered = self.full & !covered;
        while uncovered != 0 {
            let e = uncovered.trailing_zeros() as usize;
            uncovered &= uncovered - 1;
            let count = self.covers[e].len();
            if count < pivot_count {
                pivot_count = count;
                pivot = e;
            }
        }
        debug_assert!(pivot < self.num_elements);
        for &slot in &self.covers[pivot] {
            let mask = self.masks[slot as usize];
            if mask & covered != 0 {
                continue;
            }
            // Look-ahead (LP-bound feature): run the child's entry test at
            // generation time, so a child that would only prune (or, for a
            // completed cover, fail to improve) is cut without ever being
            // counted as an explored node. Bound and threshold are
            // byte-for-byte the child's own and the incumbent cannot change
            // between here and the child's entry, so the incumbent sequence
            // — and hence the selection — is untouched; only the node
            // accounting (and the recursion) shrinks.
            if self.use_lp_bound {
                if let Some(b) = best.as_ref().map(|&(_, c)| c) {
                    let next_cost = cost + self.weights[slot as usize];
                    let (share_lb, dual_lb) = self.bounds(covered | mask);
                    let lb = if dual_lb > share_lb {
                        dual_lb
                    } else {
                        share_lb
                    };
                    if next_cost + lb >= b - 1e-12 {
                        if next_cost + share_lb < b - 1e-12 {
                            stats.lp_cuts += 1;
                        }
                        stats.pruned += 1;
                        continue;
                    }
                }
            }
            chosen.push(slot);
            self.dfs(
                covered | mask,
                cost + self.weights[slot as usize],
                chosen,
                best,
                stats,
            );
            chosen.pop();
        }
    }
}

/// Search-effort counters of one branch-and-bound run; flushed once per
/// solve through the observability layer.
#[derive(Clone, Copy, Debug, Default)]
struct SearchStats {
    nodes: u64,
    pruned: u64,
    improved: u64,
    lp_cuts: u64,
    /// Set only when the node budget actually refused a node — the one
    /// signal that distinguishes a truncated search from one that drained
    /// its tree on exactly the last allowed node.
    budget_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefers_one_big_clean_candidate_over_singletons() {
        // Mirrors the paper's weighting: a clean 8-bit MBR (w = 1/8) beats
        // two clean 4-bit MBRs (w = 1/4 + 1/4).
        let mut sp = SetPartition::new(8);
        for e in 0..8 {
            sp.add_candidate(&[e], 1.0); // singletons, w = 1/1
        }
        let four_a = sp.add_candidate(&[0, 1, 2, 3], 0.25);
        let four_b = sp.add_candidate(&[4, 5, 6, 7], 0.25);
        let eight = sp.add_candidate(&[0, 1, 2, 3, 4, 5, 6, 7], 0.125);
        let sol = sp.solve().unwrap();
        assert_eq!(sol.selected, vec![eight]);
        assert!((sol.cost - 0.125).abs() < 1e-12);
        let _ = (four_a, four_b);
    }

    #[test]
    fn blocked_large_candidate_loses_to_split() {
        // The paper's Section 3.2 example: an 8-bit MBR with one obstacle
        // (w = 8·2¹ = 16) loses to a clean 4-bit (w = 1/4) plus a 4-bit with
        // one obstacle (w = 4·2¹ = 8): 8.25 < 16.
        // (No singleton columns here: the point is the paper's pairwise
        // comparison — with singletons at w = 1 the ILP would rightly prefer
        // four singles at 4.0 over the blocked 4-bit at 8.0.)
        let mut sp = SetPartition::new(8);
        let _eight = sp.add_candidate(&[0, 1, 2, 3, 4, 5, 6, 7], 16.0);
        let four_clean = sp.add_candidate(&[0, 1, 2, 3], 0.25);
        let four_blocked = sp.add_candidate(&[4, 5, 6, 7], 8.0);
        let sol = sp.solve().unwrap();
        let mut sel = sol.selected.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![four_clean, four_blocked]);
        assert!((sol.cost - 8.25).abs() < 1e-12);
    }

    #[test]
    fn infeasible_when_an_element_is_uncoverable() {
        let mut sp = SetPartition::new(2);
        sp.add_candidate(&[0], 1.0);
        assert_eq!(sp.solve(), Err(SetPartitionError::Infeasible));
    }

    #[test]
    fn infeasible_when_overlaps_force_double_cover() {
        // Elements {0,1,2}: candidates {0,1} and {1,2} only — any pair
        // double-covers 1, single leaves something uncovered.
        let mut sp = SetPartition::new(3);
        sp.add_candidate(&[0, 1], 1.0);
        sp.add_candidate(&[1, 2], 1.0);
        assert_eq!(sp.solve(), Err(SetPartitionError::Infeasible));
    }

    #[test]
    fn dominance_keeps_cheapest_duplicate() {
        let mut sp = SetPartition::new(2);
        sp.add_candidate(&[0, 1], 5.0);
        let cheap = sp.add_candidate(&[0, 1], 2.0);
        let sol = sp.solve().unwrap();
        assert_eq!(sol.selected, vec![cheap]);
        assert_eq!(sol.cost, 2.0);
    }

    #[test]
    fn empty_instance_is_trivially_solved() {
        let sp = SetPartition::new(0);
        let sol = sp.solve().unwrap();
        assert!(sol.selected.is_empty());
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn rejects_bad_weights_and_ranges() {
        let mut sp = SetPartition::new(2);
        sp.add_candidate(&[0, 5], 1.0);
        assert!(matches!(
            sp.solve(),
            Err(SetPartitionError::ElementOutOfRange { element: 5, .. })
        ));
        let mut sp = SetPartition::new(1);
        sp.add_candidate(&[0], f64::INFINITY);
        assert!(matches!(
            sp.solve(),
            Err(SetPartitionError::BadWeight { .. })
        ));
    }

    #[test]
    fn zero_weight_candidates_are_allowed() {
        let mut sp = SetPartition::new(2);
        sp.add_candidate(&[0], 0.0);
        sp.add_candidate(&[1], 0.0);
        sp.add_candidate(&[0, 1], 1.0);
        let sol = sp.solve().unwrap();
        assert_eq!(sol.cost, 0.0);
        assert_eq!(sol.selected.len(), 2);
    }
}

#[cfg(test)]
mod bounded_tests {
    use super::*;

    /// 12 elements, all singletons at 1.0 and all pairs at 0.9: a dense,
    /// overlap-heavy instance whose optimum is six disjoint pairs (5.4).
    fn dense_instance() -> SetPartition {
        let n = 12;
        let mut sp = SetPartition::new(n);
        for e in 0..n {
            sp.add_candidate(&[e], 1.0);
        }
        for a in 0..n {
            for b in (a + 1)..n {
                sp.add_candidate(&[a, b], 0.9);
            }
        }
        sp
    }

    #[test]
    fn exact_budget_exhaustion_is_still_proven_optimal() {
        // Regression: a search that drains its tree on exactly the last
        // allowed node used to be misreported as not proven.
        let sp = dense_instance();
        let full = sp.solve().unwrap();
        assert!(full.proven_optimal);
        let n = full.nodes_explored;
        let exact = sp.solve_bounded(n).unwrap();
        assert!(
            exact.proven_optimal,
            "draining at exactly the budget is still an exhaustive search"
        );
        assert_eq!(exact.nodes_explored, n);
        assert_eq!(exact.selected, full.selected);
        let truncated = sp.solve_bounded(n - 1).unwrap();
        assert!(!truncated.proven_optimal);
    }

    #[test]
    fn bounded_solve_returns_a_valid_cover_under_tiny_budget() {
        // Many overlapping candidates: force an early stop.
        let n = 12;
        let sp = dense_instance();
        let sol = sp.solve_bounded(3).unwrap();
        assert!(sol.nodes_explored <= 3, "budget respected");
        // Still an exact cover.
        let mut covered = vec![false; n];
        for &i in &sol.selected {
            // Reconstruct coverage through the public candidate list order:
            // singletons first (index < n), pairs after.
            let elems: Vec<usize> = if i < n {
                vec![i]
            } else {
                let k = i - n;
                // inverse of the (a, b) enumeration
                let mut idx = 0;
                let mut found = (0, 0);
                'outer: for a in 0..n {
                    for b in (a + 1)..n {
                        if idx == k {
                            found = (a, b);
                            break 'outer;
                        }
                        idx += 1;
                    }
                }
                vec![found.0, found.1]
            };
            for e in elems {
                assert!(!covered[e]);
                covered[e] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));

        // The unbounded solve proves optimality and does at least as well.
        let full = sp.solve().unwrap();
        assert!(full.proven_optimal);
        assert!(full.cost <= sol.cost + 1e-12);
    }
}

#[cfg(test)]
mod lp_bound_tests {
    use super::*;

    /// 12 elements with asymmetric singleton weights (even: 1.0, odd: 0.2),
    /// disjoint pairs {2i, 2i+1} at 0.6 and overlapping chain pairs
    /// {2i+1, 2i+2} at 0.6. The fractional share bound double-counts the
    /// cheap odd singletons (root share 3.0), while the LP relaxation is
    /// tight at the six-pair optimum 3.6 — and the 0.2-ratio singletons
    /// trap the greedy at 7.2, so the search must branch and the dual bound
    /// demonstrably out-prunes the share bound.
    fn asymmetric_chain() -> SetPartition {
        let n = 12;
        let mut sp = SetPartition::new(n);
        for e in 0..n {
            sp.add_candidate(&[e], if e % 2 == 0 { 1.0 } else { 0.2 });
        }
        for i in 0..n / 2 {
            sp.add_candidate(&[2 * i, 2 * i + 1], 0.6);
        }
        for i in 0..n / 2 - 1 {
            sp.add_candidate(&[2 * i + 1, 2 * i + 2], 0.6);
        }
        sp
    }

    #[test]
    fn lp_bound_preserves_the_exact_selection() {
        let off = asymmetric_chain().solve().unwrap();
        let mut on = asymmetric_chain();
        on.set_lp_bound(true);
        let on = on.solve().unwrap();
        assert_eq!(on.selected, off.selected, "admissible bound, same order");
        assert!((on.cost - off.cost).abs() < 1e-12);
        assert!((on.cost - 3.6).abs() < 1e-9);
        assert!(on.proven_optimal);
        assert!(
            on.nodes_explored <= off.nodes_explored,
            "bound can only shrink the tree: {} vs {}",
            on.nodes_explored,
            off.nodes_explored
        );
        assert!(on.lp_bound_cuts > 0, "dual bound fired where share did not");
        assert_eq!(off.lp_bound_cuts, 0, "reference search never counts cuts");
    }

    #[test]
    fn lp_root_cut_closes_greedy_optimal_instances_without_branching() {
        // All pairs disjoint and cheap: greedy finds the optimum and the
        // relaxation certifies it, so no node is ever explored.
        let n = 12;
        let mut sp = SetPartition::new(n);
        for e in 0..n {
            sp.add_candidate(&[e], 1.0);
        }
        for i in 0..n / 2 {
            sp.add_candidate(&[2 * i, 2 * i + 1], 0.9);
        }
        let off = sp.solve().unwrap();
        sp.set_lp_bound(true);
        let on = sp.solve().unwrap();
        assert_eq!(on.selected, off.selected);
        assert_eq!(on.nodes_explored, 0);
        assert!(on.proven_optimal);
        assert_eq!(on.lp_bound_cuts, 1);
    }

    #[test]
    fn tiny_instances_skip_the_relaxation() {
        // Fewer than LP_BOUND_MIN_CANDIDATES columns: the flag is inert.
        let mut sp = SetPartition::new(2);
        sp.add_candidate(&[0], 1.0);
        sp.add_candidate(&[1], 1.0);
        sp.add_candidate(&[0, 1], 0.5);
        sp.set_lp_bound(true);
        let sol = sp.solve().unwrap();
        assert!((sol.cost - 0.5).abs() < 1e-12);
        assert_eq!(sol.lp_bound_cuts, 0);
    }
}

#[cfg(test)]
mod size_bound_tests {
    use super::*;

    /// A 64-element instance (the largest the coverage masks hold) solves
    /// exactly.
    #[test]
    fn boundary_instance_solves_exactly() {
        let n = 64;
        let mut sp = SetPartition::new(n);
        for e in 0..n {
            sp.add_candidate(&[e], 1.0);
        }
        for i in (0..n).step_by(4) {
            sp.add_candidate(&[i, i + 1, i + 2, i + 3], 0.25);
        }
        let sol = sp.solve().expect("feasible");
        assert!((sol.cost - 16.0 * 0.25).abs() < 1e-9);
        assert_eq!(sol.selected.len(), 16);
    }

    /// One element past the bound is rejected, not solved.
    #[test]
    fn sixty_five_elements_are_too_many() {
        let n = 65;
        let mut sp = SetPartition::new(n);
        for e in 0..n {
            sp.add_candidate(&[e], 1.0);
        }
        assert_eq!(
            sp.solve(),
            Err(SetPartitionError::TooManyElements { elements: 65 })
        );
    }
}
