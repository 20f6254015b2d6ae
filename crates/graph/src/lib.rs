#![warn(missing_docs)]
//! Compatibility-graph machinery for MBR composition.
//!
//! Section 3 of the DAC'17 paper represents register compatibility as an
//! undirected graph `G` whose cliques are the candidate MBRs. This crate
//! provides the graph algorithms that pipeline needs:
//!
//! * [`UnGraph`] — a simple undirected graph over `0..n` nodes,
//! * [`UnGraph::connected_components`] — the first decomposition level,
//! * [`partition_geometric`] — recursive median bisection of components by
//!   register clock-pin position with a node bound (the paper's
//!   K-partitioning with a 30-node cap; the bound is a parameter here so the
//!   ablation bench can sweep it),
//! * [`BitGraph`] — a ≤64-node subgraph with bitmask adjacency,
//! * [`BitGraph::maximal_cliques`] — Bron–Kerbosch with Tomita pivoting over
//!   bitmasks,
//! * [`BitGraph::for_each_subclique`] — bounded enumeration of sub-cliques
//!   under a per-node bit budget (how candidate MBR sizes are matched to the
//!   library width set).
//!
//! # Examples
//!
//! ```
//! use mbr_graph::{BitGraph, UnGraph};
//!
//! // The Fig. 1 compatibility graph: A-B-C-D form a 4-clique, E connects to
//! // A and C, F connects to B and C.
//! let mut g = UnGraph::new(6);
//! let (a, b, c, d, e, f) = (0, 1, 2, 3, 4, 5);
//! for &(u, v) in &[(a,b),(a,c),(a,d),(b,c),(b,d),(c,d),(a,e),(c,e),(b,f),(c,f)] {
//!     g.add_edge(u, v);
//! }
//! let bg = BitGraph::from_subgraph(&g, &[0, 1, 2, 3, 4, 5]);
//! let cliques = bg.maximal_cliques();
//! assert_eq!(cliques.len(), 3); // {A,B,C,D}, {A,C,E}, {B,C,F}
//! ```

use std::collections::BTreeSet;

use mbr_geom::Point;

/// A simple undirected graph over nodes `0..n` with set-based adjacency.
///
/// Self-loops are ignored; parallel edges collapse.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnGraph {
    adj: Vec<BTreeSet<usize>>,
}

impl UnGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        UnGraph {
            adj: vec![BTreeSet::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Adds the undirected edge `{a, b}`. Self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(
            a < self.adj.len() && b < self.adj.len(),
            "node out of range"
        );
        if a == b {
            return;
        }
        self.adj[a].insert(b);
        self.adj[b].insert(a);
    }

    /// Whether `{a, b}` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj.get(a).is_some_and(|s| s.contains(&b))
    }

    /// Neighbors of `v`, ascending.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[v].iter().copied()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Connected components, each a sorted node list; isolated nodes form
    /// singleton components.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.adj.len();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            stack.push(start);
            let mut comp = Vec::new();
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &u in &self.adj[v] {
                    if !seen[u] {
                        seen[u] = true;
                        stack.push(u);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }
}

/// Splits each connected component of `g` into pieces of at most `max_nodes`
/// nodes by recursive median bisection on `positions` (register clock-pin
/// locations in the composition flow).
///
/// Bisection always cuts along the axis with the larger coordinate spread,
/// so pieces stay geometrically compact — which is what maximizes the clock
/// power reduction available to each ILP subproblem (Section 3). Edges
/// between pieces are dropped, the QoR cost the paper accepts for
/// tractability (it reports losses below ~20 nodes and no gain above 30).
///
/// # Panics
///
/// Panics if `positions.len() != g.len()` or `max_nodes == 0`.
pub fn partition_geometric(g: &UnGraph, positions: &[Point], max_nodes: usize) -> Vec<Vec<usize>> {
    assert_eq!(positions.len(), g.len(), "one position per node");
    assert!(max_nodes > 0, "max_nodes must be positive");
    let mut out = Vec::new();
    for comp in g.connected_components() {
        bisect(&comp, positions, max_nodes, &mut out);
    }
    out
}

fn bisect(nodes: &[usize], positions: &[Point], max_nodes: usize, out: &mut Vec<Vec<usize>>) {
    if nodes.len() <= max_nodes {
        out.push(nodes.to_vec());
        return;
    }
    let (min_x, max_x) = minmax(nodes.iter().map(|&v| positions[v].x));
    let (min_y, max_y) = minmax(nodes.iter().map(|&v| positions[v].y));
    let mut sorted = nodes.to_vec();
    if max_x - min_x >= max_y - min_y {
        sorted.sort_by_key(|&v| (positions[v].x, positions[v].y, v));
    } else {
        sorted.sort_by_key(|&v| (positions[v].y, positions[v].x, v));
    }
    let mid = sorted.len() / 2;
    bisect(&sorted[..mid], positions, max_nodes, out);
    bisect(&sorted[mid..], positions, max_nodes, out);
}

fn minmax(iter: impl Iterator<Item = i64>) -> (i64, i64) {
    iter.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// A dense subgraph of at most 64 nodes with bitmask adjacency, built from
/// an [`UnGraph`] node subset. Local node `i` of the `BitGraph` corresponds
/// to `nodes()[i]` in the parent graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitGraph {
    nodes: Vec<usize>,
    adj: Vec<u64>,
}

impl BitGraph {
    /// Builds the induced subgraph of `g` on `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` has more than 64 entries or contains duplicates.
    pub fn from_subgraph(g: &UnGraph, nodes: &[usize]) -> Self {
        assert!(nodes.len() <= 64, "BitGraph holds at most 64 nodes");
        let mut adj = vec![0u64; nodes.len()];
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "duplicate node {a}");
                if g.has_edge(a, b) {
                    adj[i] |= 1 << j;
                    adj[j] |= 1 << i;
                }
            }
        }
        BitGraph {
            nodes: nodes.to_vec(),
            adj,
        }
    }

    /// The parent-graph node ids, in local index order.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Number of local nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adjacency mask of local node `i`.
    pub fn adjacency(&self, i: usize) -> u64 {
        self.adj[i]
    }

    /// Translates a local bitmask into parent-graph node ids (ascending
    /// local index order).
    pub fn mask_to_nodes(&self, mask: u64) -> Vec<usize> {
        let mut v = Vec::with_capacity(mask.count_ones() as usize);
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            v.push(self.nodes[i]);
            m &= m - 1;
        }
        v
    }

    /// All maximal cliques as local bitmasks, via Bron–Kerbosch with Tomita
    /// pivoting (runtime `O(3^{n/3})`, which the 30-node partition bound
    /// keeps tractable — exactly the argument of Section 3).
    pub fn maximal_cliques(&self) -> Vec<u64> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let all = if self.nodes.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.nodes.len()) - 1
        };
        self.bron_kerbosch(0, all, 0, &mut out);
        out
    }

    fn bron_kerbosch(&self, r: u64, mut p: u64, mut x: u64, out: &mut Vec<u64>) {
        if p == 0 && x == 0 {
            out.push(r);
            return;
        }
        // Tomita pivot: the vertex of P ∪ X leaving the fewest candidates.
        let mut pivot_nb = 0u64;
        let mut best = u32::MAX;
        let mut px = p | x;
        while px != 0 {
            let v = px.trailing_zeros() as usize;
            px &= px - 1;
            let nb = self.adj[v] & p;
            let missing = (p & !self.adj[v]).count_ones();
            if missing < best {
                best = missing;
                pivot_nb = nb;
            }
        }
        let mut candidates = p & !pivot_nb;
        while candidates != 0 {
            let v = candidates.trailing_zeros() as usize;
            let vbit = 1u64 << v;
            candidates &= candidates - 1;
            self.bron_kerbosch(r | vbit, p & self.adj[v], x & self.adj[v], out);
            p &= !vbit;
            x |= vbit;
        }
    }

    /// Enumerates sub-cliques of the clique `clique` whose per-node "bit"
    /// weights sum to at most `max_bits`, invoking `visit(mask, bits)` for
    /// each (including singletons, excluding the empty set). `bits[i]` is
    /// the weight of local node `i` — register bit widths in the composition
    /// flow. Enumeration stops early when `visit` returns `false`; the
    /// return value says whether enumeration ran to completion.
    ///
    /// Every subset of a clique is a clique, so this is subset DFS with
    /// bit-budget pruning — the practical realization of the paper's
    /// "enumerate all the valid sub-cliques following the possible sizes of
    /// the MBR library cells" with a caller-imposed candidate cap.
    pub fn for_each_subclique(
        &self,
        clique: u64,
        bits: &[u32],
        max_bits: u32,
        visit: &mut dyn FnMut(u64, u32) -> bool,
    ) -> bool {
        self.for_each_subclique_controlled(clique, bits, max_bits, &mut |mask, b, _| {
            if visit(mask, b) {
                SubcliqueStep::Descend
            } else {
                SubcliqueStep::Stop
            }
        })
    }

    /// [`BitGraph::for_each_subclique`] with per-subset control: `visit`
    /// receives `(mask, bits, rest)` — `rest` being the mask of clique
    /// members the DFS can still add below this subset — and steers the
    /// enumeration via [`SubcliqueStep`]. `Prune` skips every superset of
    /// the visited subset (the caller has proven them unnecessary, e.g. a
    /// monotone emptiness test failed) while siblings continue; `Stop`
    /// aborts outright. Returns whether enumeration ran to completion
    /// (`Prune` still counts as completing).
    ///
    /// # Visit order
    ///
    /// The walk is a pre-order DFS that adds clique members in ascending
    /// index order, and callers may rely on it: the *parent* of a visited
    /// subset `S` with `|S| ≥ 2` is `S` minus its highest-index member. The
    /// parent was visited (and answered `Descend`) before `S`, and it is
    /// the most recent earlier visit of size `|S| − 1`. Candidate
    /// enumeration uses this to inherit blocker counts from parent to
    /// child.
    pub fn for_each_subclique_controlled(
        &self,
        clique: u64,
        bits: &[u32],
        max_bits: u32,
        visit: &mut dyn FnMut(u64, u32, u64) -> SubcliqueStep,
    ) -> bool {
        debug_assert_eq!(bits.len(), self.nodes.len());
        let members = mask_indices(clique);
        // suffix[i] = the members still addable once the DFS has consumed
        // members[..i]; one extra slot so leaf frames read an empty rest.
        let mut suffix = vec![0u64; members.len() + 1];
        for i in (0..members.len()).rev() {
            suffix[i] = suffix[i + 1] | (1 << members[i]);
        }
        subset_dfs(&members, &suffix, bits, 0, 0, 0, max_bits, visit)
    }
}

/// One subset's verdict in [`BitGraph::for_each_subclique_controlled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubcliqueStep {
    /// Keep enumerating into this subset's supersets.
    Descend,
    /// Skip every superset of this subset; continue with its siblings.
    Prune,
    /// Abort the whole enumeration.
    Stop,
}

fn mask_indices(mask: u64) -> Vec<usize> {
    let mut v = Vec::with_capacity(mask.count_ones() as usize);
    let mut m = mask;
    while m != 0 {
        v.push(m.trailing_zeros() as usize);
        m &= m - 1;
    }
    v
}

#[allow(clippy::too_many_arguments)]
fn subset_dfs(
    members: &[usize],
    suffix: &[u64],
    bits: &[u32],
    idx: usize,
    current: u64,
    current_bits: u32,
    max_bits: u32,
    visit: &mut dyn FnMut(u64, u32, u64) -> SubcliqueStep,
) -> bool {
    if current != 0 {
        match visit(current, current_bits, suffix[idx]) {
            SubcliqueStep::Descend => {}
            SubcliqueStep::Prune => return true,
            SubcliqueStep::Stop => return false,
        }
    }
    for (offset, &node) in members.iter().enumerate().skip(idx) {
        let nb = current_bits + bits[node];
        if nb <= max_bits
            && !subset_dfs(
                members,
                suffix,
                bits,
                offset + 1,
                current | (1 << node),
                nb,
                max_bits,
                visit,
            )
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1 graph from the paper.
    fn fig1() -> UnGraph {
        let mut g = UnGraph::new(6);
        let (a, b, c, d, e, f) = (0, 1, 2, 3, 4, 5);
        for &(u, v) in &[
            (a, b),
            (a, c),
            (a, d),
            (b, c),
            (b, d),
            (c, d),
            (a, e),
            (c, e),
            (b, f),
            (c, f),
        ] {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn fig1_maximal_cliques_match_the_paper() {
        let g = fig1();
        let bg = BitGraph::from_subgraph(&g, &[0, 1, 2, 3, 4, 5]);
        let mut cliques: Vec<Vec<usize>> = bg
            .maximal_cliques()
            .into_iter()
            .map(|m| bg.mask_to_nodes(m))
            .collect();
        cliques.sort();
        assert_eq!(
            cliques,
            vec![vec![0, 1, 2, 3], vec![0, 2, 4], vec![1, 2, 5]]
        );
    }

    #[test]
    fn cliques_of_complete_and_empty_graphs() {
        let mut complete = UnGraph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                complete.add_edge(i, j);
            }
        }
        let bg = BitGraph::from_subgraph(&complete, &[0, 1, 2, 3, 4]);
        assert_eq!(bg.maximal_cliques(), vec![0b11111]);

        let empty = UnGraph::new(3);
        let bg = BitGraph::from_subgraph(&empty, &[0, 1, 2]);
        let mut singles = bg.maximal_cliques();
        singles.sort_unstable();
        assert_eq!(singles, vec![0b001, 0b010, 0b100]);
    }

    #[test]
    fn connected_components_and_degrees() {
        let mut g = UnGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(4, 5);
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3], vec![4, 5]]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn self_loops_and_duplicate_edges_collapse() {
        let mut g = UnGraph::new(2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn partition_respects_node_bound_and_covers_all() {
        // A 4×4 grid, fully connected (one big component).
        let n = 16;
        let mut g = UnGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        let positions: Vec<Point> = (0..n as i64)
            .map(|i| Point::new((i % 4) * 1000, (i / 4) * 1000))
            .collect();
        let parts = partition_geometric(&g, &positions, 4);
        assert!(parts.iter().all(|p| p.len() <= 4));
        let mut all: Vec<usize> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
        // Geometric compactness: median splits keep each part within half
        // the grid span on some axis.
        for part in &parts {
            let (lo_x, hi_x) = minmax(part.iter().map(|&v| positions[v].x));
            let (lo_y, hi_y) = minmax(part.iter().map(|&v| positions[v].y));
            assert!(
                hi_x - lo_x <= 1000 || hi_y - lo_y <= 1000,
                "part too spread: {part:?}"
            );
        }
    }

    #[test]
    fn partition_keeps_small_components_whole() {
        let mut g = UnGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let positions = vec![Point::ORIGIN; 5];
        let parts = partition_geometric(&g, &positions, 30);
        assert_eq!(parts, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn subclique_enumeration_respects_bit_budget() {
        let g = fig1();
        let bg = BitGraph::from_subgraph(&g, &[0, 1, 2, 3, 4, 5]);
        // Paper widths: A=1, B=2, C=1, D=2, E=4, F=1.
        let bits = [1, 2, 1, 2, 4, 1];
        let clique_abcd = 0b1111u64;
        let mut seen = Vec::new();
        bg.for_each_subclique(clique_abcd, &bits, 4, &mut |mask, b| {
            seen.push((mask, b));
            true
        });
        // Budget 4 admits: A(1) B(2) C(1) D(2) AB(3) AC(2) AD(3) BC(3) BD(4)
        // CD(3) ABC(4) ACD(4) — but not ABD(5), BCD(5), ABCD(6).
        assert_eq!(seen.len(), 12);
        assert!(seen.iter().all(|&(_, b)| b <= 4));
        assert!(!seen.iter().any(|&(m, _)| m == 0b1011), "ABD has 5 bits");
    }

    #[test]
    fn subclique_enumeration_early_stop() {
        let mut g = UnGraph::new(10);
        for i in 0..10 {
            for j in (i + 1)..10 {
                g.add_edge(i, j);
            }
        }
        let bg = BitGraph::from_subgraph(&g, &(0..10).collect::<Vec<_>>());
        let bits = [1u32; 10];
        let mut count = 0;
        let completed = bg.for_each_subclique(0x3FF, &bits, 8, &mut |_, _| {
            count += 1;
            count < 50
        });
        assert!(!completed, "enumeration was cut short");
        assert_eq!(count, 50);
    }

    #[test]
    fn controlled_enumeration_prunes_supersets_only() {
        let mut g = UnGraph::new(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j);
            }
        }
        let bg = BitGraph::from_subgraph(&g, &[0, 1, 2, 3]);
        let bits = [1u32; 4];
        // Prune below {0}: its supersets {0,1}, {0,1,2}, ... vanish, but
        // every 0-free subset and the other singletons survive.
        let mut seen = Vec::new();
        let done = bg.for_each_subclique_controlled(0b1111, &bits, 4, &mut |mask, _, _| {
            seen.push(mask);
            if mask == 0b0001 {
                SubcliqueStep::Prune
            } else {
                SubcliqueStep::Descend
            }
        });
        assert!(done);
        assert!(seen.contains(&0b0001));
        assert!(!seen.iter().any(|&m| m & 0b0001 != 0 && m != 0b0001));
        // 2^3 - 1 subsets of {1,2,3} plus the pruned {0} itself.
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn controlled_enumeration_reports_the_addable_rest() {
        let mut g = UnGraph::new(3);
        for i in 0..3 {
            for j in (i + 1)..3 {
                g.add_edge(i, j);
            }
        }
        let bg = BitGraph::from_subgraph(&g, &[0, 1, 2]);
        let bits = [1u32; 3];
        let mut ok = true;
        bg.for_each_subclique_controlled(0b111, &bits, 3, &mut |mask, _, rest| {
            // The DFS adds members in ascending order, so the addable rest
            // is exactly the clique members above the subset's highest bit.
            let top = 63 - mask.leading_zeros();
            ok &= rest == 0b111 & !((2u64 << top) - 1);
            SubcliqueStep::Descend
        });
        assert!(ok);
    }

    #[test]
    fn controlled_stop_aborts_like_the_boolean_form() {
        let mut g = UnGraph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j);
            }
        }
        let bg = BitGraph::from_subgraph(&g, &(0..5).collect::<Vec<_>>());
        let bits = [1u32; 5];
        let mut count = 0;
        let done = bg.for_each_subclique_controlled(0b11111, &bits, 5, &mut |_, _, _| {
            count += 1;
            if count == 7 {
                SubcliqueStep::Stop
            } else {
                SubcliqueStep::Descend
            }
        });
        assert!(!done);
        assert_eq!(count, 7);
    }

    #[test]
    fn mask_to_nodes_round_trips() {
        let g = fig1();
        let bg = BitGraph::from_subgraph(&g, &[3, 1, 5]);
        assert_eq!(bg.mask_to_nodes(0b101), vec![3, 5]);
        assert_eq!(bg.nodes(), &[3, 1, 5]);
        // Edge B-D (1-3) exists, D-F (3-5) does not.
        assert!(bg.adjacency(0) & 0b010 != 0);
        assert!(bg.adjacency(0) & 0b100 == 0);
    }

    #[test]
    fn sixty_four_node_bitgraph_works_at_the_boundary() {
        let n = 64;
        let mut g = UnGraph::new(n);
        // A ring: maximal cliques are exactly the 64 edges.
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        let bg = BitGraph::from_subgraph(&g, &(0..n).collect::<Vec<_>>());
        let cliques = bg.maximal_cliques();
        assert_eq!(cliques.len(), 64);
        assert!(cliques.iter().all(|c| c.count_ones() == 2));
    }
}
