//! The composition flow as explicit stages over a swappable backend.
//!
//! [`run_flow`] is the single driver behind every [`crate::Composer`] entry
//! point *and* every [`crate::CompositionSession`] pass. Each stage with
//! logic of its own lives in its own module as an input → output function;
//! the rest (from-scratch timing, the compatibility graph, legalization,
//! useful skew, sizing) are single calls into their subsystems. The driver
//! owns the stage order, the per-stage spans and timings, and the
//! [`mbr_check`] checkpoints, so the two backends cannot drift apart
//! structurally:
//!
//! * [`Backend::Batch`] computes everything from scratch — the one-shot
//!   `compose` behavior.
//! * [`Backend::Session`] reuses a [`crate::session::SessionState`]: the
//!   timing stage refreshes the persistent [`Sta`] incrementally, and
//!   candidate enumeration + the assignment ILP reuse the previous pass's
//!   partitions by exact content (the memo holds that one pass). Every
//!   other stage, §4.2 placement included, runs the batch code. A session
//!   pass still produces byte-identical results to a batch run on the same
//!   design by construction — every reuse is either proven bitwise-equal
//!   (incremental STA) or keyed on every input it reads (partition
//!   candidates); only the *work* counters differ.

pub(crate) mod assign;
pub(crate) mod legalize;
pub(crate) mod map_place;
pub(crate) mod stitch;
pub(crate) mod timing;

use std::collections::{BTreeMap, BTreeSet};

use mbr_check::{check_netlist, check_partition, Diagnostic, MergeGroup, Paranoia, PartitionCover};
use mbr_cts::assign_useful_skew;
use mbr_geom::Rect;
use mbr_liberty::Library;
use mbr_netlist::{Design, InstId};
use mbr_obs::{self as obs, Counter, FlowStage, Span, StageTimings};
use mbr_sta::{DelayModel, Sta};

use crate::candidates;
use crate::compat::CompatGraph;
use crate::flow::{ComposeError, ComposeOutcome, StageDiagnostic};
use crate::session::SessionState;
use crate::sizing::downsize_mbrs;
use crate::ComposerOptions;

/// Candidate selection strategy of the assignment stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// The paper's weighted set-partitioning ILP (Section 3.1).
    Ilp,
    /// The Fig. 6 comparison heuristic: greedy selection, no incomplete
    /// MBRs.
    Greedy,
}

/// What a composition pass may reuse.
pub(crate) enum Backend<'s> {
    /// Compute everything from scratch (the one-shot `compose` flow).
    Batch,
    /// Reuse the session's persistent analyses, scoped by the pending ECOs.
    Session {
        /// Incrementally maintained state (STA, partition memo).
        state: &'s mut SessionState,
        /// What the ECOs since the last pass touched.
        eco: &'s EcoDirty,
    },
}

/// The dirt the session accumulated since its last composition pass.
#[derive(Clone, Debug, Default)]
pub(crate) struct EcoDirty {
    /// Instances edited in place (moved, retargeted, re-fixed).
    pub touched: Vec<InstId>,
    /// A structural or global edit happened (register added/removed, clock
    /// period changed): the timing graph is rebuilt from scratch (the
    /// content-keyed partition memo still applies).
    pub structural: bool,
    /// ECOs applied since the last pass (counter fodder).
    pub ecos: u64,
}

impl EcoDirty {
    /// Dirt that forces a full rebuild — the state of a fresh session.
    pub(crate) fn full() -> Self {
        EcoDirty {
            structural: true,
            ..EcoDirty::default()
        }
    }

    /// Whether a recompose pass has anything to react to.
    pub(crate) fn is_dirty(&self) -> bool {
        self.structural || !self.touched.is_empty()
    }
}

/// Runs the composition flow on `design` with the given backend.
///
/// This is the exact stage sequence of paper Fig. 4 — timing →
/// compatibility → candidates → assignment → mapping/placement →
/// legalization → useful skew → sizing (→ scan stitch) — with an
/// invariant checkpoint after each stage per `options.paranoia`.
pub(crate) fn run_flow(
    design: &mut Design,
    lib: &Library,
    options: &ComposerOptions,
    model: DelayModel,
    strategy: Strategy,
    backend: Backend<'_>,
) -> Result<ComposeOutcome, ComposeError> {
    options.validate()?;
    let run_start = obs::now_ns();
    let _flow_span = Span::enter("flow.compose");
    let mut timings = StageTimings::default();
    let mut outcome = ComposeOutcome {
        registers_before: design.live_register_count(),
        ..ComposeOutcome::default()
    };

    let paranoia = options.paranoia;

    // The session state splits into independently-borrowed caches up
    // front, so the stages below can hold each across the others' borrows.
    let (sta_cache, memo) = match backend {
        Backend::Batch => (None, None),
        Backend::Session { state, eco } => (Some((&mut state.sta, eco)), Some(&mut state.parts)),
    };

    // 1. Timing analysis on the incoming placement. The batch backend
    // analyzes from scratch; the session backend refreshes its persistent
    // analyzer incrementally (bitwise-identical results — see the oracle
    // test in mbr-sta).
    let t0 = obs::now_ns();
    let span = Span::enter(FlowStage::Timing.span_name());
    let sta_storage: Sta;
    let sta: &Sta = match sta_cache {
        None => {
            sta_storage = Sta::new(design, lib, model)?;
            &sta_storage
        }
        Some((slot, eco)) => timing::refresh(slot, design, lib, model, eco)?,
    };
    drop(span);
    timings.add(FlowStage::Timing, obs::now_ns() - t0);
    if paranoia >= Paranoia::Cheap {
        checkpoint(&mut outcome, &mut timings, FlowStage::Timing, || {
            check_netlist(design)
        });
    }

    // 2. Compatibility graph (Section 2), built whole under both backends.
    let t0 = obs::now_ns();
    let span = Span::enter(FlowStage::Compat.span_name());
    let compat = CompatGraph::build(design, lib, sta, options);
    outcome.composable = compat.regs.len();
    let regions: BTreeMap<InstId, Rect> = compat.regs.iter().map(|r| (r.inst, r.region)).collect();
    drop(span);
    timings.add(FlowStage::Compat, obs::now_ns() - t0);

    // 3./4. Candidate enumeration with weights (Section 3). A session pass
    // enumerates only the partitions its memo (the previous pass) misses.
    let t0 = obs::now_ns();
    let span = Span::enter(FlowStage::Candidates.span_name());
    let enumeration = candidates::enumerate(design, lib, &compat, options, memo.as_deref());
    drop(span);
    timings.add(FlowStage::Candidates, obs::now_ns() - t0);
    outcome.partitions = enumeration.sets.len();
    outcome.candidates_enumerated = enumeration.sets.iter().map(|s| s.candidates.len()).sum();

    // 5. Assignment per partition (Section 3.1).
    let t0 = obs::now_ns();
    let span = Span::enter(FlowStage::Assignment.span_name());
    let solved = assign::run(options, strategy, &enumeration, &mut outcome);
    drop(span);
    timings.add(FlowStage::Assignment, obs::now_ns() - t0);
    let assign::Selection { picked, solves } = solved?;
    if let Some(memo) = memo {
        memo.absorb(enumeration, solves);
    }

    // Checkpoint: the solution must be an exact cover of the composable
    // registers (merges as selected, the rest as singletons) and every
    // group must satisfy the §2/§3 compatibility rules post-solve.
    if paranoia >= Paranoia::Cheap {
        checkpoint(&mut outcome, &mut timings, FlowStage::Assignment, || {
            let mut groups: Vec<MergeGroup> = picked
                .iter()
                .map(|c| MergeGroup {
                    members: c.members.clone(),
                    cell: c.cell,
                })
                .collect();
            let in_merge: BTreeSet<InstId> = groups
                .iter()
                .flat_map(|g| g.members.iter().copied())
                .collect();
            for r in &compat.regs {
                if !in_merge.contains(&r.inst) {
                    groups.push(MergeGroup {
                        members: vec![r.inst],
                        cell: design.inst(r.inst).register_cell().expect("register"),
                    });
                }
            }
            let cover = PartitionCover {
                elements: compat.regs.iter().map(|r| r.inst).collect(),
                groups,
            };
            check_partition(design, lib, &cover)
        });
    }

    // 6. Mapping is pre-resolved per candidate; place (Section 4.2),
    // merge, then legalize. These stages mutate the design and run the
    // same code under every backend.
    let t0 = obs::now_ns();
    let span = Span::enter(FlowStage::Mapping.span_name());
    let new_mbrs = map_place::run(design, lib, &picked, &regions, &mut outcome);
    drop(span);
    timings.add(FlowStage::Mapping, obs::now_ns() - t0);

    let t0 = obs::now_ns();
    let span = Span::enter(FlowStage::Legalization.span_name());
    let grid = legalize::infer_grid(design, lib);
    outcome.legalize = mbr_place::legalize(design, &grid, &new_mbrs)?;
    drop(span);
    timings.add(FlowStage::Legalization, obs::now_ns() - t0);

    // Checkpoint: merges must leave every register mapped to a real
    // library cell, and the legalized MBRs on-grid and overlap-free.
    if paranoia >= Paranoia::Cheap {
        checkpoint(&mut outcome, &mut timings, FlowStage::Mapping, || {
            mbr_check::check_mapping(design, lib)
        });
    }
    if paranoia >= Paranoia::Full {
        checkpoint(&mut outcome, &mut timings, FlowStage::Legalization, || {
            mbr_check::check_placement(design, &grid, &new_mbrs)
        });
    }

    // 7. Post-composition timing, useful skew, and sizing (Fig. 4). The
    // merges were structural edits on this pass's design, so this analysis
    // is always from scratch — identical under both backends.
    let t0 = obs::now_ns();
    let span = Span::enter(FlowStage::Timing.span_name());
    let mut post_sta = Sta::new(design, lib, model)?;
    drop(span);
    timings.add(FlowStage::Timing, obs::now_ns() - t0);
    if options.apply_useful_skew && !new_mbrs.is_empty() {
        let t0 = obs::now_ns();
        let span = Span::enter(FlowStage::Skew.span_name());
        outcome.skew = Some(assign_useful_skew(
            design,
            lib,
            &mut post_sta,
            &new_mbrs,
            &options.skew,
        ));
        drop(span);
        timings.add(FlowStage::Skew, obs::now_ns() - t0);
    }
    if options.apply_sizing {
        let t0 = obs::now_ns();
        let span = Span::enter(FlowStage::Sizing.span_name());
        outcome.resized =
            downsize_mbrs(design, lib, &mut post_sta, &new_mbrs, options.sizing_margin);
        drop(span);
        timings.add(FlowStage::Sizing, obs::now_ns() - t0);
    }

    // Checkpoint: skew and sizing maintain `post_sta` incrementally; it
    // must still agree with a from-scratch analysis. (Before stitching,
    // which edits structure and would legitimately invalidate it.)
    if paranoia >= Paranoia::Full {
        checkpoint(&mut outcome, &mut timings, FlowStage::Sizing, || {
            mbr_check::check_sta(design, lib, &post_sta, mbr_check::STA_EPSILON)
        });
    }

    if options.stitch_scan_chains {
        stitch::run(design, lib, &mut outcome, &mut timings, paranoia);
    }

    outcome.new_mbrs = new_mbrs;
    outcome.registers_after = design.live_register_count();
    timings.total_ns = obs::now_ns() - run_start;
    outcome.timings = timings;
    Ok(outcome)
}

/// Runs one in-flow invariant checkpoint: times it into the
/// [`StageTimings::checks_ns`] bucket (checkpoints sit *between* stages, so
/// their cost is kept out of the stage buckets they'd otherwise smear), tags
/// every finding with the stage it guards, and counts findings toward
/// [`Counter::CheckDiagnostics`].
pub(crate) fn checkpoint(
    outcome: &mut ComposeOutcome,
    timings: &mut StageTimings,
    stage: FlowStage,
    check: impl FnOnce() -> Vec<Diagnostic>,
) {
    let t0 = obs::now_ns();
    let span = Span::enter("flow.compose.checks");
    let diags = check();
    drop(span);
    timings.checks_ns += obs::now_ns() - t0;
    obs::counter(Counter::CheckDiagnostics, diags.len() as u64);
    outcome
        .diagnostics
        .extend(diags.into_iter().map(|diagnostic| StageDiagnostic {
            checkpoint: stage,
            diagnostic,
        }));
}
