//! Differential solver tests (ISSUE satellites): the specialized
//! set-partitioning branch-and-bound, the generic simplex-based ILP
//! branch-and-bound, and brute-force subset enumeration must agree on the
//! optimal objective of randomized register-partition instances of up to 14
//! registers — and the solver-level LP bound, toggled, must leave the
//! solve selection-identical against the unpruned reference on the same
//! seeded instance family.

use mbr_lp::{IlpProblem, Sense, SetPartition};
use mbr_test::rng::splitmix64;
use mbr_test::Rng;

/// Brute-force optimum by enumerating every candidate subset.
fn brute_force(num_elements: usize, cands: &[(Vec<usize>, f64)]) -> Option<f64> {
    let n = cands.len();
    assert!(n <= 18, "brute force is exponential");
    let mut best: Option<f64> = None;
    'subsets: for mask in 0u32..(1 << n) {
        let mut covered = vec![false; num_elements];
        let mut cost = 0.0;
        for (i, (elems, w)) in cands.iter().enumerate() {
            if mask & (1 << i) != 0 {
                for &e in elems {
                    if covered[e] {
                        continue 'subsets;
                    }
                    covered[e] = true;
                }
                cost += w;
            }
        }
        if covered.iter().all(|&c| c) && best.is_none_or(|b| cost < b) {
            best = Some(cost);
        }
    }
    best
}

/// One randomized instance shaped like a composition partition: `n`
/// registers, singleton candidates for (most of) them, plus random
/// multi-register merge candidates with width-dependent costs.
fn random_instance(rng: &mut Rng, n: usize) -> Vec<(Vec<usize>, f64)> {
    let mut cands = Vec::new();
    for e in 0..n {
        // Occasionally omit a singleton so some instances are infeasible
        // unless a group covers the register — and some are infeasible
        // outright, exercising the Err path of all three solvers.
        if rng.f64() < 0.9 {
            cands.push((vec![e], 1.0));
        }
    }
    let groups = rng.gen_range(1usize..12);
    for _ in 0..groups {
        if cands.len() >= 18 {
            break; // keep the brute-force oracle tractable (2^18 subsets)
        }
        let size = rng.gen_range(2usize..=4.min(n));
        let mut group: Vec<usize> = Vec::new();
        while group.len() < size {
            let e = rng.gen_range(0..n);
            if !group.contains(&e) {
                group.push(e);
            }
        }
        group.sort_unstable();
        // A merged k-bit register is cheaper than k singles, as in Table 2.
        let cost = size as f64 * rng.gen_range(0.3..0.9);
        cands.push((group, cost));
    }
    cands
}

/// Builds a `SetPartition` over `cands` with the LP bound on or off.
fn build_setpart(n: usize, cands: &[(Vec<usize>, f64)], lp_bound: bool) -> SetPartition {
    let mut sp = SetPartition::new(n);
    sp.set_lp_bound(lp_bound);
    for (elems, w) in cands {
        sp.add_candidate(elems, *w);
    }
    sp
}

/// Asserts `selected` is an exact cover of `0..n` and returns its cost.
fn cover_cost(n: usize, cands: &[(Vec<usize>, f64)], selected: &[usize]) -> f64 {
    let mut covered = vec![false; n];
    let mut cost = 0.0;
    for &i in selected {
        for &e in &cands[i].0 {
            assert!(!covered[e], "double cover of element {e}");
            covered[e] = true;
        }
        cost += cands[i].1;
    }
    assert!(
        covered.iter().all(|&c| c),
        "selection is not an exact cover"
    );
    cost
}

/// Cases per pruning rule. The ISSUE floor is 64; a little headroom costs
/// milliseconds on instances this small.
const CASES_PER_RULE: u64 = 96;

/// One independent per-case seed stream, decorrelated from the base solver
/// agreement test and from the other rules' streams.
fn case_seed(rule: u64, case: u64) -> u64 {
    let mut state = 0xd1f_f3a2u64 ^ (rule << 32) ^ case;
    splitmix64(&mut state)
}

/// Pruning rule 1 (LP-relaxation dual bound): the bound is admissible and
/// applied with an unchanged branch order, so toggling it must preserve the
/// *selection* — not just the weight — on every instance, while never
/// exploring more nodes than the reference search.
#[test]
fn lp_bound_toggle_is_selection_identical() {
    for case in 0..CASES_PER_RULE {
        let mut rng = Rng::seed_from_u64(case_seed(1, case));
        let n = rng.gen_range(2usize..=14);
        let cands = random_instance(&mut rng, n);
        let off = build_setpart(n, &cands, false).solve();
        let on = build_setpart(n, &cands, true).solve();
        match (off, on) {
            (Ok(off), Ok(on)) => {
                assert_eq!(
                    off.selected, on.selected,
                    "case {case}: the admissible LP bound changed the cover"
                );
                assert!(
                    (off.cost - on.cost).abs() < 1e-9,
                    "case {case}: costs diverged: {} vs {}",
                    off.cost,
                    on.cost
                );
                let oracle = brute_force(n, &cands).expect("solver found a cover");
                assert!(
                    (on.cost - oracle).abs() < 1e-9,
                    "case {case}: pruned cost {} vs brute force {oracle}",
                    on.cost
                );
                assert!(
                    on.nodes_explored <= off.nodes_explored,
                    "case {case}: pruned search explored more nodes \
                     ({} vs {})",
                    on.nodes_explored,
                    off.nodes_explored
                );
                assert!(off.proven_optimal && on.proven_optimal);
                assert_eq!(
                    off.lp_bound_cuts, 0,
                    "case {case}: reference search reported LP cuts"
                );
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("case {case}: verdicts diverged: off {a:?}, on {b:?}"),
        }
    }
}

/// The toggle matrix (LP bound off and on) on an independent seed stream:
/// feasibility verdicts and weights agree, and every returned selection is
/// an exact cover at its reported cost.
#[test]
fn toggle_matrix_verdicts_and_weights_agree() {
    for case in 0..CASES_PER_RULE {
        let mut rng = Rng::seed_from_u64(case_seed(3, case));
        let n = rng.gen_range(2usize..=14);
        let cands = random_instance(&mut rng, n);
        let matrix = [
            build_setpart(n, &cands, false).solve(),
            build_setpart(n, &cands, true).solve(),
        ];
        match &matrix[0] {
            Ok(reference) => {
                for (i, result) in matrix.iter().enumerate().skip(1) {
                    let sol = result.as_ref().unwrap_or_else(|e| {
                        panic!(
                            "case {case}: combination {i} infeasible ({e}) on a feasible instance"
                        )
                    });
                    assert!(
                        (sol.cost - reference.cost).abs() < 1e-9,
                        "case {case}: combination {i} cost {} vs reference {}",
                        sol.cost,
                        reference.cost
                    );
                    let cost = cover_cost(n, &cands, &sol.selected);
                    assert!((cost - sol.cost).abs() < 1e-9);
                    assert!(sol.proven_optimal);
                }
            }
            Err(_) => {
                for (i, result) in matrix.iter().enumerate().skip(1) {
                    assert!(
                        result.is_err(),
                        "case {case}: combination {i} found a cover on an \
                         infeasible instance"
                    );
                }
            }
        }
    }
}

/// Pruning under a node budget: a pruned solve must never need *more*
/// budget than the reference to prove optimality (pruning only removes
/// work under an unchanged branch order), and a truncated solve must
/// either return a valid suboptimal cover or honestly report failure —
/// never a "cover" that isn't one or a cost below the proven optimum.
#[test]
fn bounded_solves_stay_valid_and_monotone_under_pruning() {
    for case in 0..CASES_PER_RULE {
        let mut rng = Rng::seed_from_u64(case_seed(4, case));
        let n = rng.gen_range(4usize..=14);
        let cands = random_instance(&mut rng, n);
        let reference = match build_setpart(n, &cands, false).solve() {
            Ok(sol) => sol,
            Err(_) => continue, // infeasibility is covered by the matrix test
        };
        // A pruned solve given exactly the reference's node usage must
        // still finish: pruning only removes work under an unchanged
        // branch order.
        let budget = reference.nodes_explored;
        let pruned = build_setpart(n, &cands, true)
            .solve_bounded(budget)
            .expect("feasible instance");
        assert!(
            pruned.proven_optimal,
            "case {case}: pruned solve exhausted the reference budget \
             ({budget} nodes)"
        );
        assert!((pruned.cost - reference.cost).abs() < 1e-9);
        // A truncated solve either returns a valid (possibly suboptimal)
        // exact cover, or honestly reports no cover found — the greedy
        // incumbent is best-effort and can corner itself on overlaps.
        if budget > 1 {
            if let Ok(truncated) = build_setpart(n, &cands, false).solve_bounded(budget - 1) {
                let cost = cover_cost(n, &cands, &truncated.selected);
                assert!((cost - truncated.cost).abs() < 1e-9);
                assert!(
                    truncated.cost >= reference.cost - 1e-9,
                    "case {case}: truncated solve beat the proven optimum"
                );
            }
        }
    }
}

#[test]
fn all_three_solvers_agree_on_random_partitions() {
    let mut rng = Rng::seed_from_u64(0x5e7_9a27);
    for round in 0..120 {
        let n = rng.gen_range(2usize..=14);
        let cands = random_instance(&mut rng, n);

        let mut sp = SetPartition::new(n);
        let mut ilp = IlpProblem::new();
        let mut vars = Vec::new();
        for (elems, w) in &cands {
            sp.add_candidate(elems, *w);
            vars.push(ilp.add_binary(*w));
        }
        for e in 0..n {
            let terms: Vec<_> = cands
                .iter()
                .enumerate()
                .filter(|(_, (elems, _))| elems.contains(&e))
                .map(|(i, _)| (vars[i], 1.0))
                .collect();
            ilp.add_constraint(&terms, Sense::Eq, 1.0);
        }

        let oracle = brute_force(n, &cands);
        let sp_result = sp.solve();
        let ilp_result = ilp.solve();
        match (&sp_result, &ilp_result, oracle) {
            (Ok(a), Ok(b), Some(best)) => {
                assert!(
                    (a.cost - best).abs() < 1e-9,
                    "round {round}: setpart {} vs brute force {best}",
                    a.cost
                );
                assert!(
                    (b.objective - best).abs() < 1e-6,
                    "round {round}: simplex B&B {} vs brute force {best}",
                    b.objective
                );
                // The selected candidates must be an exact cover at the
                // claimed cost, not just a matching number.
                let mut covered = vec![false; n];
                let mut cost = 0.0;
                for &i in &a.selected {
                    for &e in &cands[i].0 {
                        assert!(!covered[e], "round {round}: double cover of {e}");
                        covered[e] = true;
                    }
                    cost += cands[i].1;
                }
                assert!(covered.iter().all(|&c| c), "round {round}: not a cover");
                assert!((cost - a.cost).abs() < 1e-9);
            }
            (Err(_), Err(_), None) => {}
            (a, b, want) => panic!(
                "round {round}: solver verdicts disagree: setpart {a:?}, \
                 ilp {b:?}, brute force {want:?}"
            ),
        }
    }
}
