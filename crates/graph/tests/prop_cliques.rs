//! Property tests for clique enumeration against brute-force oracles.

use mbr_geom::Point;
use mbr_graph::{partition_geometric, BitGraph, SubcliqueStep, UnGraph};
use mbr_test::check::{any_u64, Gen};
use mbr_test::{prop_assert, prop_assert_eq, props};

/// Random graph on up to 12 nodes as an edge-probability matrix seed.
fn arb_graph() -> impl Gen<Value = UnGraph> {
    (2usize..12, any_u64()).prop_map(|(n, seed)| {
        let mut g = UnGraph::new(n);
        let mut state = seed | 1;
        for i in 0..n {
            for j in (i + 1)..n {
                // xorshift
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 100 < 45 {
                    g.add_edge(i, j);
                }
            }
        }
        g
    })
}

fn is_clique(g: &UnGraph, nodes: &[usize]) -> bool {
    nodes
        .iter()
        .enumerate()
        .all(|(k, &a)| nodes[k + 1..].iter().all(|&b| g.has_edge(a, b)))
}

/// Brute force: all maximal cliques by subset enumeration.
fn brute_force_maximal_cliques(g: &UnGraph) -> Vec<Vec<usize>> {
    let n = g.len();
    let mut cliques = Vec::new();
    for mask in 1u32..(1 << n) {
        let nodes: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        if !is_clique(g, &nodes) {
            continue;
        }
        // Maximal iff no extra node extends it.
        let maximal = (0..n)
            .filter(|&v| mask & (1 << v) == 0)
            .all(|v| !nodes.iter().all(|&u| g.has_edge(u, v)));
        if maximal {
            cliques.push(nodes);
        }
    }
    cliques.sort();
    cliques
}

props! {
    /// Bron–Kerbosch output equals the brute-force maximal clique set.
    fn bron_kerbosch_matches_brute_force(g in arb_graph()) {
        let nodes: Vec<usize> = (0..g.len()).collect();
        let bg = BitGraph::from_subgraph(&g, &nodes);
        let mut got: Vec<Vec<usize>> = bg
            .maximal_cliques()
            .into_iter()
            .map(|m| bg.mask_to_nodes(m))
            .collect();
        got.sort();
        prop_assert_eq!(got, brute_force_maximal_cliques(&g));
    }

    /// Every enumerated sub-clique is a clique, within budget, and the count
    /// matches direct subset counting.
    fn subcliques_are_cliques_within_budget(g in arb_graph(), budget in 1u32..6) {
        let nodes: Vec<usize> = (0..g.len()).collect();
        let bg = BitGraph::from_subgraph(&g, &nodes);
        let bits: Vec<u32> = (0..g.len()).map(|i| 1 + (i as u32 % 3)).collect();
        for clique in bg.maximal_cliques() {
            let members = bg.mask_to_nodes(clique);
            let mut seen = 0usize;
            bg.for_each_subclique(clique, &bits, budget, &mut |mask, b| {
                let sub = bg.mask_to_nodes(mask);
                assert!(is_clique(&g, &sub));
                assert!(sub.iter().all(|v| members.contains(v)));
                let real: u32 = sub.iter().map(|&v| bits[v]).sum();
                assert_eq!(real, b);
                assert!(b <= budget);
                seen += 1;
                true
            });
            // Oracle: count subsets of the clique with bit sum <= budget.
            let k = members.len();
            let mut expect = 0usize;
            for mask in 1u32..(1 << k) {
                let total: u32 = (0..k)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| bits[members[i]])
                    .sum();
                if total <= budget {
                    expect += 1;
                }
            }
            prop_assert_eq!(seen, expect);
        }
    }

    /// The documented visit order: a visited subset's parent (the subset
    /// minus its highest-index member) is the most recent earlier visit of
    /// one size less, under any mix of `Descend` and `Prune` verdicts.
    fn subclique_parent_is_the_latest_visit_one_size_down(
        g in arb_graph(),
        budget in 1u32..8,
        prune_seed in any_u64(),
    ) {
        let nodes: Vec<usize> = (0..g.len()).collect();
        let bg = BitGraph::from_subgraph(&g, &nodes);
        let bits: Vec<u32> = (0..g.len()).map(|i| 1 + (i as u32 % 2)).collect();
        for clique in bg.maximal_cliques() {
            // latest[k]: the most recent visit of size k.
            let mut latest = [0u64; 65];
            let mut ok = true;
            bg.for_each_subclique_controlled(clique, &bits, budget, &mut |mask, _, _| {
                let size = mask.count_ones() as usize;
                if size >= 2 {
                    let parent = mask & !(1u64 << (63 - mask.leading_zeros()));
                    ok &= latest[size - 1] == parent;
                }
                latest[size] = mask;
                // Prune a pseudo-random quarter of the subsets.
                if mask.wrapping_mul(prune_seed | 1).rotate_left(17) % 4 == 0 {
                    SubcliqueStep::Prune
                } else {
                    SubcliqueStep::Descend
                }
            });
            prop_assert!(ok, "a visit's parent was not the latest visit one size down");
        }
    }

    /// Partitioning is a partition: bound respected, all nodes covered once.
    fn geometric_partition_is_a_partition(g in arb_graph(), max_nodes in 1usize..8, seed in any_u64()) {
        let mut state = seed | 1;
        let positions: Vec<Point> = (0..g.len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Point::new((state % 10_000) as i64, ((state >> 20) % 10_000) as i64)
            })
            .collect();
        let parts = partition_geometric(&g, &positions, max_nodes);
        prop_assert!(parts.iter().all(|p| p.len() <= max_nodes && !p.is_empty()));
        let mut all: Vec<usize> = parts.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..g.len()).collect::<Vec<_>>());
    }
}
