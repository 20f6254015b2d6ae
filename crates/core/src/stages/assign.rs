//! Stage 5: the assignment ILP (Section 3.1) and the Fig. 6 greedy
//! baseline.
//!
//! Each partition is an independent set-partitioning instance, solved
//! serially as one worker task; workers buffer their solver
//! counters/spans and the main thread replays them in partition order,
//! keeping traces and counter totals identical to the serial flow.
//! Partitions with at least [`INLINE_SOLVE_MIN_CANDIDATES`] candidates
//! instead solve one at a time on the calling thread (still buffered and
//! replayed in order), so that no two of their dense root LP relaxations
//! are in memory at once. The split is decided by instance shape alone, so
//! counters and results never depend on the thread count. On the session
//! backend, partitions with a memoized solution skip the solver entirely
//! and replay the stored selection (node counts included, so
//! [`ComposeOutcome::ilp_nodes`] still totals exactly what a batch run
//! reports).

use mbr_lp::{SetPartition, SetPartitionError};
use mbr_obs::{SpanHandle, TaskObs};

use super::Strategy;
use crate::candidates::{CandidateMbr, CandidateSet, Enumeration};
use crate::flow::{ComposeError, ComposeOutcome};
use crate::ComposerOptions;

/// The assignment stage's output.
pub(crate) struct Selection {
    /// Selected non-singleton candidates, in partition order.
    pub picked: Vec<CandidateMbr>,
    /// Per set: the raw solution (all selected candidate indices and
    /// branch-and-bound nodes), for the session's partition memo.
    pub solves: Vec<(Vec<usize>, u64)>,
}

/// Candidate count from which a partition's ILP solves on the calling
/// thread, one at a time, instead of as a worker task. The root LP
/// relaxation of such an instance is a dense `elements × candidates`
/// tableau; solving two at once raises the stage's peak memory (DESIGN.md
/// §9 has the measurements).
const INLINE_SOLVE_MIN_CANDIDATES: usize = 256;

/// Solves the assignment problem of every partition.
pub(crate) fn run(
    options: &ComposerOptions,
    strategy: Strategy,
    enumeration: &Enumeration,
    outcome: &mut ComposeOutcome,
) -> Result<Selection, ComposeError> {
    let handle = SpanHandle::current();
    let node_limit = options.node_budget;
    type SolveResult = Result<(Vec<usize>, u64), SetPartitionError>;
    let work: Vec<_> = enumeration
        .sets
        .iter()
        .zip(enumeration.reused.iter())
        .collect();
    let solve_one = |set: &CandidateSet, reused: &Option<(Vec<usize>, u64)>| -> SolveResult {
        if let Some((selected, nodes)) = reused {
            return Ok((selected.clone(), *nodes));
        }
        match strategy {
            Strategy::Ilp => {
                let _solve = handle.attach("flow.compose.assignment.solve");
                let mut sp = SetPartition::new(set.elements.len());
                sp.set_lp_bound(options.lp_bound);
                for idx in &set.member_idx {
                    // weights are finite by construction
                    let w = set.candidates[sp.num_candidates()].weight;
                    sp.add_candidate(idx, w);
                }
                let sol = sp.solve_bounded(node_limit)?;
                Ok((sol.selected, sol.nodes_explored))
            }
            Strategy::Greedy => Ok((greedy_select(set), 0)),
        }
    };

    // Shape-based split (thread-count-independent by construction): big
    // instances solve one at a time below, the rest fan out as tasks.
    let is_big = |set: &CandidateSet| set.candidates.len() >= INLINE_SOLVE_MIN_CANDIDATES;
    let small: Vec<usize> = (0..work.len()).filter(|&i| !is_big(work[i].0)).collect();
    let small_results = mbr_par::par_map(options.threads, &small, |_, &i| {
        let (set, reused) = work[i];
        TaskObs::capture(&handle, || solve_one(set, reused))
    });
    // Merge back into partition order: `small` is ascending and par_map
    // returns results in input order, so one forward pass interleaves the
    // fanned-out results with the inline big solves (still obs-buffered, so
    // the replay below keeps the event stream in partition order).
    let mut small_next = small.iter().zip(small_results).peekable();
    let mut results: Vec<(SolveResult, TaskObs)> = Vec::with_capacity(work.len());
    for (i, &(set, reused)) in work.iter().enumerate() {
        match small_next.peek() {
            Some(&(&j, _)) if j == i => {
                if let Some((_, res)) = small_next.next() {
                    results.push(res);
                }
            }
            _ => results.push(TaskObs::capture(&handle, || solve_one(set, reused))),
        }
    }

    let mut selection = Selection {
        picked: Vec::new(),
        solves: Vec::with_capacity(enumeration.sets.len()),
    };
    let mut first_err: Option<SetPartitionError> = None;
    for (i, (res, task_obs)) in results.into_iter().enumerate() {
        task_obs.replay(&handle);
        match res {
            Ok((selected, nodes)) => {
                outcome.ilp_nodes += nodes;
                let set = &enumeration.sets[i];
                selection.picked.extend(
                    selected
                        .iter()
                        .filter(|&&ci| !set.candidates[ci].is_singleton())
                        .map(|&ci| set.candidates[ci].clone()),
                );
                selection.solves.push((selected, nodes));
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e.into());
    }
    Ok(selection)
}

/// The Fig. 6 baseline: the composition pipeline *without* the ILP.
///
/// [8]/[12]-style flows identify maximal cliques and map them to MBRs
/// greedily; here the baseline consumes the same enumerated candidates (so
/// compatibility, mapping and the congestion-aware profitability rules are
/// identical) but selects them greedily by ascending weight instead of
/// solving the set-partitioning ILP, and — like those heuristics — it never
/// uses incomplete MBRs. Greedy selection strands registers wherever
/// locally-best candidates overlap; the exact ILP packs them, which is
/// precisely the advantage Fig. 6 measures.
fn greedy_select(set: &CandidateSet) -> Vec<usize> {
    let mut order: Vec<usize> = (0..set.candidates.len())
        .filter(|&i| {
            let c = &set.candidates[i];
            // Only profitable complete merges: cheaper than keeping the
            // members as singletons (the same economics the ILP faces).
            !c.is_singleton() && !c.incomplete && c.weight < c.members.len() as f64
        })
        .collect();
    order.sort_by(|&a, &b| {
        let ca = &set.candidates[a];
        let cb = &set.candidates[b];
        ca.weight
            .partial_cmp(&cb.weight)
            .expect("finite weights")
            .then(cb.bits.cmp(&ca.bits))
    });
    let mut used = vec![false; set.elements.len()];
    let mut out = Vec::new();
    for i in order {
        let idx = &set.member_idx[i];
        if idx.iter().any(|&e| used[e]) {
            continue;
        }
        for &e in idx {
            used[e] = true;
        }
        out.push(i);
    }
    out
}
