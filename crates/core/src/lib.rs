#![warn(missing_docs)]
//! Timing-driven incremental multi-bit register composition using a
//! placement-aware ILP — the primary contribution of the DAC'17 paper,
//! reproduced end to end.
//!
//! The flow (paper Fig. 4), exposed through [`Composer`]:
//!
//! 1. **Timing analysis** of the placed design ([`mbr_sta`]).
//! 2. **Compatibility graph** (Section 2): functional, scan, placement
//!    (timing-feasible-region overlap) and timing (slack sign & similarity)
//!    compatibility ([`compat`]).
//! 3. **Candidate enumeration** (Section 3): connected components →
//!    geometric K-partitioning with a node bound → Bron–Kerbosch maximal
//!    cliques → valid sub-cliques matching library widths, with incomplete
//!    MBRs admitted under the area rule ([`candidates`]).
//! 4. **Placement-aware weights** (Section 3.2): convex-hull test polygons
//!    and the `w = 1/b | b·2ⁿ | ∞` blocking heuristic ([`weight`]).
//! 5. **Assignment ILP** (Section 3.1): weighted set partitioning solved
//!    exactly per partition ([`mbr_lp::SetPartition`]).
//! 6. **Mapping & placement** (Section 4): drive-matched cell selection and
//!    the HPWL-minimizing placement over the common feasible region, solved
//!    exactly in closed form ([`placement`]), followed by incremental
//!    legalization ([`mbr_place`]).
//! 7. **Useful skew & sizing**: per-MBR clock offsets and drive downsizing
//!    ([`mbr_cts`], [`sizing`]).
//!
//! The greedy maximal-clique baseline the paper compares against in Fig. 6
//! is [`Composer::compose_heuristic`]; Table 1 / Fig. 5 metrics live in
//! [`metrics`]; the paper's stated future-work extension (decompose
//! pre-existing MBRs and recompose) in
//! [`Composer::compose_with_decomposition`].
//!
//! For *incremental* use — the paper's motivating scenario of repeated
//! ECO-driven re-composition — open a [`CompositionSession`]: it keeps the
//! timing graph and the last pass's partition memo alive between passes,
//! applies [`Eco`]s while recording the instances they touch, and
//! guarantees each [`CompositionSession::recompose`] is byte-identical to a
//! fresh batch [`Composer::compose`] on the mutated design.
//!
//! # Examples
//!
//! ```no_run
//! use mbr_core::{Composer, ComposerOptions};
//! use mbr_liberty::standard_library;
//! use mbr_sta::DelayModel;
//!
//! # fn load_design(_: &mbr_liberty::Library) -> mbr_netlist::Design { unimplemented!() }
//! let lib = standard_library();
//! let mut design = load_design(&lib);
//! let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
//! let outcome = composer.compose(&mut design, &lib)?;
//! println!("registers: {} -> {}", outcome.registers_before, outcome.registers_after);
//! # Ok::<(), mbr_core::ComposeError>(())
//! ```

pub mod candidates;
pub mod compat;
pub mod metrics;
pub mod placement;
pub mod sizing;
pub mod stats;
pub mod weight;

mod flow;
mod session;
mod stages;
mod u64set;

pub use candidates::{CandidateMbr, CandidateSet};
pub use compat::{CompatGraph, ComposableRegister};
pub use flow::{ComposeError, ComposeOutcome, Composer, StageDiagnostic};
pub use metrics::{BitWidthHistogram, DesignMetrics};
pub use session::{
    apply_eco, CompositionSession, Eco, EcoEffect, EcoError, EcoParseError, EcoScript,
};
pub use stages::legalize::infer_grid;
pub use stats::CandidateStats;

// The flow runs [`mbr_check`] checkpoints after each stage; re-export the
// knob and the diagnostic type its outcome carries.
pub use mbr_check::{Diagnostic, Paranoia};

use std::error::Error;
use std::fmt;

use mbr_cts::SkewConfig;

/// Tuning knobs of the composition flow. `Default` matches the paper's
/// reported configuration (30-node partitions, incomplete MBRs at ≤ 5 % area
/// overhead, weights on, useful skew on).
#[derive(Clone, Debug, PartialEq)]
pub struct ComposerOptions {
    /// Partition node bound for the compatibility graph (paper: 30; QoR
    /// degrades below ~20, runtime explodes above without QoR gain).
    ///
    /// Valid range `1..=64` ([`ComposerOptions::validate`]): candidate
    /// enumeration holds a partition in `u64` adjacency masks.
    pub partition_max_nodes: usize,
    /// Admit incomplete MBRs (some D/Q pairs unconnected).
    pub allow_incomplete: bool,
    /// Maximum area overhead of an incomplete MBR relative to the registers
    /// it replaces (paper experiments: 5 %).
    pub incomplete_area_overhead: f64,
    /// Cap on the feasible-region inflation radius, DBU. Slack converts to
    /// distance per the delay model, but incremental composition keeps each
    /// register inside a local placement window regardless of how much slack
    /// it has — large windows would make post-merge legalization and the
    /// slack estimates themselves unreliable. Must not be negative
    /// ([`ComposerOptions::validate`]).
    pub max_region_radius: i64,
    /// Use the placement-aware blocking weights (off = every candidate
    /// weighs `1/b`, the ablation of Section 3.2's heuristic).
    pub use_blocking_weights: bool,
    /// Upper bound on enumerated candidates per partition (defence against
    /// degenerate dense partitions; the paper's 30-node bound keeps typical
    /// counts far below this).
    pub max_candidates_per_partition: usize,
    /// Branch-and-bound node budget per partition ILP; when hit, the best
    /// incumbent (a valid cover) is used instead of the proven optimum.
    /// This is the quality-vs-runtime knob for the paper-scale presets:
    /// d1–d5 prove every partition optimal well inside the default, while
    /// d6–d8 lean on the incumbent guarantee to stay bounded.
    pub node_budget: u64,
    /// Skip candidate subsets the enumeration can prove redundant or
    /// unselectable before validating them (duplicate sub-clique visits,
    /// empty shared feasible regions). Never changes the accepted candidate
    /// set — see the pruning differential tests.
    pub prune_subsets: bool,
    /// Drop compatibility-graph edges whose endpoints can never co-inhabit
    /// a selectable candidate (combined bit-width exceeds every library
    /// cell of the class). Never changes composition results — a group
    /// containing such a pair has no cell to map to.
    pub prune_compat_edges: bool,
    /// Bound the assignment B&B with the LP-relaxation dual certificate in
    /// addition to the static fractional bound. Admissible, applied with
    /// unchanged branch order, so selections are byte-identical; it only
    /// prunes earlier.
    pub lp_bound: bool,
    /// Sub-clique enumeration may *visit* at most
    /// `max_candidates_per_partition × this` subsets per partition — dense
    /// partitions reject almost every subset as blocked (`w = ∞`), so a
    /// budget on accepted candidates alone would not bound runtime.
    pub subclique_visit_multiplier: usize,
    /// Apply useful skew to the composed MBRs (paper Fig. 4).
    pub apply_useful_skew: bool,
    /// Useful-skew parameters.
    pub skew: SkewConfig,
    /// Downsize MBR drive strength where slack allows after skew (paper
    /// Fig. 4 "MBR sizing").
    pub apply_sizing: bool,
    /// Timing-safety margin kept in hand when sizing down, ps.
    pub sizing_margin: f64,
    /// Re-stitch scan chains after composition
    /// ([`mbr_netlist::Design::stitch_scan_chains`]). Off by default: real
    /// flows stitch once at the end of placement optimization, not per pass.
    pub stitch_scan_chains: bool,
    /// How much cross-stage invariant checking ([`mbr_check`]) the flow
    /// performs after each stage. Defaults to [`Paranoia::Full`] in debug
    /// builds (tests always check everything) and [`Paranoia::Cheap`] in
    /// release. Findings land in [`ComposeOutcome::diagnostics`].
    pub paranoia: Paranoia,
    /// Worker threads for the parallel sections: per-partition candidate
    /// enumeration, per-partition assignment ILPs (each partition one
    /// task, solved serially; the largest partitions solve one at a time
    /// to bound peak memory), and the two arms of speculative
    /// decomposition. Results are identical at every value —
    /// the executor collects in input order and worker observability is
    /// buffered and replayed deterministically ([`mbr_obs::TaskObs`]).
    /// Defaults to [`mbr_par::thread_count`] (`MBR_THREADS`, else capped
    /// available parallelism); 1 disables threading entirely.
    pub threads: usize,
}

/// A [`ComposerOptions`] field outside its valid range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptionsError {
    /// [`ComposerOptions::partition_max_nodes`] outside `1..=64`.
    PartitionMaxNodes(usize),
    /// A negative [`ComposerOptions::max_region_radius`].
    MaxRegionRadius(i64),
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::PartitionMaxNodes(n) => write!(
                f,
                "partition node bound {n} is outside 1..={}",
                ComposerOptions::MAX_PARTITION_NODES
            ),
            OptionsError::MaxRegionRadius(r) => {
                write!(f, "region radius {r} is negative")
            }
        }
    }
}

impl Error for OptionsError {}

impl ComposerOptions {
    /// The largest valid [`ComposerOptions::partition_max_nodes`]:
    /// candidate enumeration holds a partition in `u64` adjacency masks.
    const MAX_PARTITION_NODES: usize = 64;

    /// Checks every field with a restricted range. Every composition entry
    /// point runs this before composing and returns
    /// [`ComposeError::Options`] instead.
    ///
    /// # Errors
    ///
    /// The first field found out of range.
    pub fn validate(&self) -> Result<(), OptionsError> {
        if !(1..=Self::MAX_PARTITION_NODES).contains(&self.partition_max_nodes) {
            return Err(OptionsError::PartitionMaxNodes(self.partition_max_nodes));
        }
        if self.max_region_radius < 0 {
            return Err(OptionsError::MaxRegionRadius(self.max_region_radius));
        }
        Ok(())
    }
}

impl Default for ComposerOptions {
    fn default() -> Self {
        ComposerOptions {
            partition_max_nodes: 30,
            allow_incomplete: true,
            incomplete_area_overhead: 0.05,
            max_region_radius: 15_000,
            use_blocking_weights: true,
            max_candidates_per_partition: 20_000,
            node_budget: 100_000,
            prune_subsets: true,
            prune_compat_edges: true,
            lp_bound: true,
            subclique_visit_multiplier: 64,
            apply_useful_skew: true,
            skew: SkewConfig::default(),
            apply_sizing: true,
            sizing_margin: 5.0,
            stitch_scan_chains: false,
            paranoia: Paranoia::build_default(),
            threads: mbr_par::thread_count(),
        }
    }
}
