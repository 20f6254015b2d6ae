//! Stages 3/4: candidate enumeration with placement-aware weights
//! (Section 3).
//!
//! Batch passes enumerate every partition. Session passes memoize per
//! partition: a partition whose exact content (members, timing, geometry,
//! blocking neighborhood) matches a previous pass reuses its candidate set
//! *and* its assignment solution; only changed partitions re-enumerate.

use std::sync::Arc;

use mbr_liberty::Library;
use mbr_netlist::Design;

use crate::candidates::{
    enumerate_candidates, enumerate_incremental, CandidateSet, PartitionCache,
};
use crate::compat::CompatGraph;
use crate::ComposerOptions;

/// The enumeration result the assignment stage consumes: the candidate sets
/// in partition order, plus — on the session backend — which of them carry a
/// memoized assignment solution and which are fresh and should be absorbed
/// into the cache after solving.
pub(crate) struct Enumeration {
    /// Candidate sets, in partition order (cache hits and misses alike);
    /// a hit shares its set with the memo instead of copying it.
    pub sets: Vec<Arc<CandidateSet>>,
    /// Per set: the memoized assignment solution (selected candidate
    /// indices, branch-and-bound nodes) when the partition was reused.
    pub reused: Vec<Option<(Vec<usize>, u64)>>,
    /// Freshly enumerated partitions as `(set index, cache key)`.
    pub fresh: Vec<(usize, Vec<u64>)>,
}

/// Enumerates (or incrementally reuses) the candidate sets of every
/// partition.
pub(crate) fn run(
    design: &Design,
    lib: &Library,
    compat: &CompatGraph,
    options: &ComposerOptions,
    cache: Option<&mut PartitionCache>,
) -> Enumeration {
    match cache {
        Some(cache) => enumerate_incremental(design, lib, compat, options, cache),
        None => {
            let sets: Vec<Arc<CandidateSet>> = enumerate_candidates(design, lib, compat, options)
                .into_iter()
                .map(Arc::new)
                .collect();
            let reused = sets.iter().map(|_| None).collect();
            Enumeration {
                sets,
                reused,
                fresh: Vec::new(),
            }
        }
    }
}
