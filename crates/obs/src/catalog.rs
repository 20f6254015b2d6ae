//! The closed, typed catalog of counters, gauges and histograms the
//! workspace emits.
//!
//! Keeping the catalog in one enum (instead of free-form strings) makes the
//! JSONL schema checkable: [`crate::validate_trace`] rejects any counter,
//! gauge or histogram name not registered here, so a typo in an
//! instrumentation site is a validation failure, not a silently new metric.

use std::fmt;

/// A monotonically accumulated unit of algorithmic work. Instrumented code
/// counts locally in its hot loop and flushes one total per operation via
/// [`crate::counter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Simplex pivot operations (both phases) in `mbr-lp`.
    SimplexPivots,
    /// Set-partitioning solver invocations in `mbr-lp`.
    SetPartSolves,
    /// Set-partitioning branch-and-bound nodes explored.
    SetPartNodesExplored,
    /// Set-partitioning nodes cut by the fractional lower bound (or a dead
    /// end) before branching.
    SetPartNodesPruned,
    /// Set-partitioning incumbent improvements (a better cover found).
    SetPartIncumbentImprovements,
    /// Full from-scratch timing analyses (`Sta::new`) — the incremental
    /// path's fallback.
    StaFullAnalyses,
    /// Incremental timing updates (`Sta::update_after_change`).
    StaIncrementalUpdates,
    /// Nets whose arcs/loads an incremental timing update refreshed.
    StaNetsTouched,
    /// Seed pins an incremental timing update re-propagated from.
    StaSeedPins,
    /// Seed pins a full from-scratch analysis propagated from (every pin).
    StaFullSeedPins,
    /// Row gaps the legalizer probed while searching for free sites.
    LegalizeGapProbes,
    /// Instances the legalizer actually displaced.
    LegalizeCellsMoved,
    /// Composable registers in the compatibility graph.
    CompatRegisters,
    /// Edges of the compatibility graph.
    CompatEdges,
    /// Partitions the compatibility graph decomposed into.
    CandidatePartitions,
    /// Sub-clique subsets visited during candidate enumeration (including
    /// rejected ones — the enumeration's true workload).
    CandidateSubsetsVisited,
    /// Candidates accepted into the assignment ILP (incl. singletons).
    CandidatesEnumerated,
    /// Registers whose clock offset useful-skew assignment changed.
    SkewAdjusted,
    /// Diagnostics emitted by one in-flow invariant checkpoint.
    CheckDiagnostics,
    /// Partitions whose candidates and ILP solution an incremental
    /// recompose reused from the session cache.
    SessionPartitionsReused,
    /// Partitions an incremental recompose enumerated and solved afresh.
    SessionPartitionsRecomputed,
    /// ECOs applied to a composition session.
    SessionEcosApplied,
    /// Candidate subsets the enumeration pre-filters skipped or cut before
    /// validation (duplicate sub-clique visits and empty-region subtrees).
    SetPartCandidatesFiltered,
    /// Compatibility-graph edges dropped because their endpoints can never
    /// co-inhabit a selectable candidate (combined width exceeds every
    /// library cell of the class).
    CompatEdgesRemoved,
    /// Branch-and-bound prunes attributable to the LP-relaxation dual bound
    /// (the static fractional bound alone would not have cut the node),
    /// including root solves closed outright by the relaxation.
    SetPartLpBoundCuts,
    /// Section 3.2 test polygons (convex hulls) candidate enumeration
    /// built to count blocking registers.
    CandidatePolygons,
    /// Register pairs the compatibility builder handed to the placement and
    /// timing predicates (same functional/scan key, regions overlapping in
    /// x).
    CompatPairsChecked,
    /// WNS/TNS/failing-count folds over the endpoint list, run on the first
    /// summary read after an analysis or update.
    StaSummaryFolds,
}

impl Counter {
    /// Every counter, in catalog order (documentation and validation).
    pub const ALL: [Counter; 28] = [
        Counter::SimplexPivots,
        Counter::SetPartSolves,
        Counter::SetPartNodesExplored,
        Counter::SetPartNodesPruned,
        Counter::SetPartIncumbentImprovements,
        Counter::StaFullAnalyses,
        Counter::StaIncrementalUpdates,
        Counter::StaNetsTouched,
        Counter::StaSeedPins,
        Counter::StaFullSeedPins,
        Counter::LegalizeGapProbes,
        Counter::LegalizeCellsMoved,
        Counter::CompatRegisters,
        Counter::CompatEdges,
        Counter::CandidatePartitions,
        Counter::CandidateSubsetsVisited,
        Counter::CandidatesEnumerated,
        Counter::SkewAdjusted,
        Counter::CheckDiagnostics,
        Counter::SessionPartitionsReused,
        Counter::SessionPartitionsRecomputed,
        Counter::SessionEcosApplied,
        Counter::SetPartCandidatesFiltered,
        Counter::CompatEdgesRemoved,
        Counter::SetPartLpBoundCuts,
        Counter::CandidatePolygons,
        Counter::CompatPairsChecked,
        Counter::StaSummaryFolds,
    ];

    /// The stable dotted name used in traces and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SimplexPivots => "lp.simplex.pivots",
            Counter::SetPartSolves => "lp.setpart.solves",
            Counter::SetPartNodesExplored => "lp.setpart.nodes_explored",
            Counter::SetPartNodesPruned => "lp.setpart.nodes_pruned",
            Counter::SetPartIncumbentImprovements => "lp.setpart.incumbent_improvements",
            Counter::StaFullAnalyses => "sta.full_analyses",
            Counter::StaIncrementalUpdates => "sta.incremental_updates",
            Counter::StaNetsTouched => "sta.incremental.nets_touched",
            Counter::StaSeedPins => "sta.incremental.seed_pins",
            Counter::StaFullSeedPins => "sta.full.seed_pins",
            Counter::LegalizeGapProbes => "place.legalize.gap_probes",
            Counter::LegalizeCellsMoved => "place.legalize.cells_moved",
            Counter::CompatRegisters => "core.compat.registers",
            Counter::CompatEdges => "core.compat.edges",
            Counter::CandidatePartitions => "core.candidates.partitions",
            Counter::CandidateSubsetsVisited => "core.candidates.subsets_visited",
            Counter::CandidatesEnumerated => "core.candidates.enumerated",
            Counter::SkewAdjusted => "cts.skew.adjusted",
            Counter::CheckDiagnostics => "check.diagnostics",
            Counter::SessionPartitionsReused => "core.session.partitions_reused",
            Counter::SessionPartitionsRecomputed => "core.session.partitions_recomputed",
            Counter::SessionEcosApplied => "core.session.ecos_applied",
            Counter::SetPartCandidatesFiltered => "core.candidates.filtered",
            Counter::CompatEdgesRemoved => "core.compat.edges_removed",
            Counter::SetPartLpBoundCuts => "lp.setpart.lp_bound_cuts",
            Counter::CandidatePolygons => "core.candidates.polygons",
            Counter::CompatPairsChecked => "core.compat.pairs_checked",
            Counter::StaSummaryFolds => "sta.summary_folds",
        }
    }

    /// The catalog entry for a dotted name, if registered.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Which way the counter moves when the program gets better. Most
    /// counters count work done; the reuse counter counts work a session
    /// avoided, so for it more is better.
    pub(crate) fn better(self) -> Better {
        match self {
            Counter::SessionPartitionsReused => Better::Higher,
            _ => Better::Lower,
        }
    }
}

/// The direction in which a [`Counter`] improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Better {
    /// Work done: fewer is better.
    Lower,
    /// Work avoided: more is better.
    Higher,
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A point-in-time measured value (not accumulated across flushes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Gauge {
    /// Worst negative slack after an operation, ps.
    WnsPs,
    /// Total negative slack after an operation, ps.
    TnsPs,
    /// Largest single displacement a legalization pass caused, DBU.
    LegalizeMaxDisplacement,
    /// Timing arcs in the CSR arena after a from-scratch graph build.
    StaArenaArcs,
}

impl Gauge {
    /// Every gauge, in catalog order.
    pub const ALL: [Gauge; 4] = [
        Gauge::WnsPs,
        Gauge::TnsPs,
        Gauge::LegalizeMaxDisplacement,
        Gauge::StaArenaArcs,
    ];

    /// The stable dotted name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::WnsPs => "sta.wns_ps",
            Gauge::TnsPs => "sta.tns_ps",
            Gauge::LegalizeMaxDisplacement => "place.legalize.max_displacement_dbu",
            Gauge::StaArenaArcs => "sta.arena.arcs",
        }
    }

    /// The catalog entry for a dotted name, if registered.
    pub fn from_name(name: &str) -> Option<Gauge> {
        Gauge::ALL.into_iter().find(|g| g.name() == name)
    }
}

impl fmt::Display for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A distribution of per-operation observations, recorded into the
/// deterministic log-bucketed [`crate::HistogramData`] and flushed via
/// [`crate::histogram`] / [`crate::observe`]. Timing-valued entries
/// ([`Histogram::is_timing`]) carry wall-clock readings and are exempt
/// from the exact-match determinism contract counters obey; all other
/// entries are pure algorithmic quantities and must be byte-identical at
/// any thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Histogram {
    /// Per-partition set-partitioning ILP solve latency, nanoseconds.
    SetPartSolveNs,
    /// Per-partition branch-and-bound nodes explored by one solve.
    SetPartSolveNodes,
    /// Seed pins re-propagated by one incremental timing update.
    StaSeedPinsPerUpdate,
    /// Displacement (Manhattan, DBU) of one instance placed by the
    /// legalizer — including zero for instances legal in place.
    LegalizeDisplacement,
    /// Candidates enumerated for one partition (incl. singletons).
    CandidatesPerPartition,
    /// Absolute useful-skew adjustment applied to one register, ps.
    SkewAbsAdjustPs,
}

impl Histogram {
    /// Every histogram, in catalog order.
    pub const ALL: [Histogram; 6] = [
        Histogram::SetPartSolveNs,
        Histogram::SetPartSolveNodes,
        Histogram::StaSeedPinsPerUpdate,
        Histogram::LegalizeDisplacement,
        Histogram::CandidatesPerPartition,
        Histogram::SkewAbsAdjustPs,
    ];

    /// The stable dotted name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            Histogram::SetPartSolveNs => "lp.setpart.solve_ns",
            Histogram::SetPartSolveNodes => "lp.setpart.solve_nodes",
            Histogram::StaSeedPinsPerUpdate => "sta.incremental.seed_pins_per_update",
            Histogram::LegalizeDisplacement => "place.legalize.displacement_dbu",
            Histogram::CandidatesPerPartition => "core.candidates.per_partition",
            Histogram::SkewAbsAdjustPs => "cts.skew.abs_adjust_ps",
        }
    }

    /// Whether the observations are wall-clock readings. Timing histograms
    /// render with time units and are compared with tolerance by
    /// `mbr-perfdiff`; everything else must match exactly between
    /// same-seed runs.
    pub fn is_timing(self) -> bool {
        matches!(self, Histogram::SetPartSolveNs)
    }

    /// The catalog entry for a dotted name, if registered.
    pub fn from_name(name: &str) -> Option<Histogram> {
        Histogram::ALL.into_iter().find(|h| h.name() == name)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_const_matches_variant_count() {
        // The compiler pins ALL's length; this pins that no two entries
        // collide on the wire name.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for g in Gauge::ALL {
            assert_eq!(Gauge::from_name(g.name()), Some(g));
        }
        for h in Histogram::ALL {
            assert_eq!(Histogram::from_name(h.name()), Some(h));
        }
        assert_eq!(Counter::from_name("no.such.counter"), None);
        assert_eq!(Gauge::from_name("no.such.gauge"), None);
        assert_eq!(Histogram::from_name("no.such.hist"), None);
    }

    #[test]
    fn histogram_names_are_unique_and_disjoint_from_counters() {
        let mut names: Vec<&str> = Histogram::ALL.iter().map(|h| h.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Histogram::ALL.len());
        for h in Histogram::ALL {
            assert_eq!(Counter::from_name(h.name()), None, "{h}");
            assert_eq!(Gauge::from_name(h.name()), None, "{h}");
        }
    }
}
