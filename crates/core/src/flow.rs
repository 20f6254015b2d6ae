//! The end-to-end composition flow (paper Fig. 4): timing → compatibility →
//! candidates → assignment → mapping/placement → legalization → useful skew
//! → sizing.
//!
//! The stage bodies live in [`crate::stages`]; this module owns the public
//! surface: the [`Composer`] entry points, the [`ComposeOutcome`]
//! statistics, and the error type. After each stage the flow runs the
//! matching [`mbr_check`] checkpoint (per [`ComposerOptions::paranoia`]);
//! findings accumulate in [`ComposeOutcome::diagnostics`] rather than
//! aborting the run, so a corrupted invariant surfaces loudly in tests and
//! in `cargo run --bin check` without turning a diagnosis into a panic.
//!
//! For repeated composition of one evolving design — apply an ECO, re-run
//! only what it dirtied — see [`crate::CompositionSession`].

use std::error::Error;
use std::fmt;
use std::time::Duration;

use mbr_check::Diagnostic;
use mbr_cts::SkewReport;
use mbr_liberty::Library;
use mbr_lp::SetPartitionError;
use mbr_netlist::{Design, InstId, InstKind};
use mbr_obs::{FlowStage, Span, SpanHandle, StageTimings, TaskObs};
use mbr_place::{legalize, LegalizeError, LegalizeReport};
use mbr_sta::{DelayModel, StaError};

use crate::stages::{self, legalize::infer_grid, Backend, Strategy};
use crate::{ComposerOptions, OptionsError};

/// Why composition failed outright (individual candidate failures are
/// skipped and counted, not fatal).
#[derive(Debug)]
pub enum ComposeError {
    /// Initial or post-merge timing analysis failed.
    Sta(StaError),
    /// Legalization of the new MBRs failed.
    Legalize(LegalizeError),
    /// The assignment ILP was malformed (internal invariant violation).
    Assign(SetPartitionError),
    /// A [`ComposerOptions`] field is out of range; nothing was composed.
    Options(OptionsError),
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::Sta(e) => write!(f, "timing analysis failed: {e}"),
            ComposeError::Legalize(e) => write!(f, "legalization failed: {e}"),
            ComposeError::Assign(e) => write!(f, "assignment ILP failed: {e}"),
            ComposeError::Options(e) => write!(f, "invalid options: {e}"),
        }
    }
}

impl Error for ComposeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ComposeError::Sta(e) => Some(e),
            ComposeError::Legalize(e) => Some(e),
            ComposeError::Assign(e) => Some(e),
            ComposeError::Options(e) => Some(e),
        }
    }
}

impl From<StaError> for ComposeError {
    fn from(e: StaError) -> Self {
        ComposeError::Sta(e)
    }
}

impl From<LegalizeError> for ComposeError {
    fn from(e: LegalizeError) -> Self {
        ComposeError::Legalize(e)
    }
}

impl From<OptionsError> for ComposeError {
    fn from(e: OptionsError) -> Self {
        ComposeError::Options(e)
    }
}

impl From<SetPartitionError> for ComposeError {
    fn from(e: SetPartitionError) -> Self {
        ComposeError::Assign(e)
    }
}

/// One in-flow checkpoint finding, tagged with the stage whose checkpoint
/// raised it — `check_partition` findings carry [`FlowStage::Assignment`],
/// the final `check_netlist` re-audit carries [`FlowStage::Stitch`], and so
/// on. The tag tells a reader *where the flow was* when the invariant broke,
/// which is the first question any triage asks.
#[derive(Clone, Debug)]
pub struct StageDiagnostic {
    /// The stage after which the reporting checkpoint ran.
    pub checkpoint: FlowStage,
    /// The finding itself.
    pub diagnostic: Diagnostic,
}

impl fmt::Display for StageDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[after {}] {}", self.checkpoint, self.diagnostic)
    }
}

/// Statistics of one composition run.
#[derive(Clone, Debug, Default)]
pub struct ComposeOutcome {
    /// Live registers before composition (each MBR counts as one).
    pub registers_before: usize,
    /// Live registers after composition.
    pub registers_after: usize,
    /// Composable registers found (Table 1 "Comp-Regs").
    pub composable: usize,
    /// Multi-register merges performed.
    pub merges: usize,
    /// Registers consumed by those merges.
    pub merged_registers: usize,
    /// Merges producing incomplete MBRs.
    pub incomplete_mbrs: usize,
    /// Selected merges that had to be skipped (e.g. wired scan chains).
    pub skipped_merges: usize,
    /// The newly created MBR instances.
    pub new_mbrs: Vec<InstId>,
    /// Partitions the compatibility graph decomposed into.
    pub partitions: usize,
    /// Candidates enumerated across all partitions (incl. singletons).
    pub candidates_enumerated: usize,
    /// Branch-and-bound nodes the assignment solver explored.
    pub ilp_nodes: u64,
    /// Legalization statistics for the new MBRs.
    pub legalize: LegalizeReport,
    /// Useful-skew statistics (when enabled).
    pub skew: Option<SkewReport>,
    /// MBRs downsized by the sizing step.
    pub resized: usize,
    /// Scan-chain stitching statistics, when enabled.
    pub scan_stitch: Option<mbr_netlist::ScanStitchReport>,
    /// For [`Composer::compose_with_decomposition`]: whether the speculative
    /// decomposition won and was kept (`None` on the other entry points).
    pub decomposition_kept: Option<bool>,
    /// Findings of the in-flow invariant checkpoints, each tagged with the
    /// stage whose checkpoint raised it (empty when
    /// [`ComposerOptions::paranoia`] is [`mbr_check::Paranoia::Off`] — and,
    /// on a healthy flow, at every other level too).
    pub diagnostics: Vec<StageDiagnostic>,
    /// Wall-clock breakdown of the run, per flow stage.
    pub timings: StageTimings,
}

impl ComposeOutcome {
    /// Wall-clock time of the whole run (the total of
    /// [`ComposeOutcome::timings`]).
    pub fn elapsed(&self) -> Duration {
        self.timings.total()
    }
}

/// The composition engine. Construct once, run on any number of designs.
#[derive(Clone, Debug)]
pub struct Composer {
    options: ComposerOptions,
    model: DelayModel,
}

impl Composer {
    /// Creates a composer with the given options and delay model.
    pub fn new(options: ComposerOptions, model: DelayModel) -> Self {
        Composer { options, model }
    }

    /// The configured options.
    pub fn options(&self) -> &ComposerOptions {
        &self.options
    }

    /// The configured delay model.
    pub fn model(&self) -> &DelayModel {
        &self.model
    }

    /// Runs the full ILP-based composition flow on a placed design.
    ///
    /// # Errors
    ///
    /// See [`ComposeError`]. Individual merge rejections are not errors;
    /// they are counted in [`ComposeOutcome::skipped_merges`].
    pub fn compose(
        &self,
        design: &mut Design,
        lib: &Library,
    ) -> Result<ComposeOutcome, ComposeError> {
        stages::run_flow(
            design,
            lib,
            &self.options,
            self.model,
            Strategy::Ilp,
            Backend::Batch,
        )
    }

    /// Runs the Fig. 6 comparison baseline: the paper benchmarks its ILP
    /// against "a heuristic-algorithm-based approach, similar to that
    /// performed in \\[8\\] and \\[12\\]", maximal clique identification plus
    /// greedy MBR mapping.
    ///
    /// The baseline shares every other stage with [`Composer::compose`]
    /// (the same compatibility rules, candidate enumeration and weights,
    /// mapping, placement, legalization, skew and sizing), so Fig. 6
    /// isolates exactly the selection policy:
    ///
    /// * **ILP**: globally minimizes `Σ wᵢ xᵢ` over each partition, and may
    ///   use incomplete MBRs (both are this paper's contributions);
    /// * **heuristic**: selects candidates greedily by ascending weight,
    ///   stranding registers wherever its early picks overlap better later
    ///   ones, and never uses incomplete MBRs.
    ///
    /// On the synthetic D1–D5 designs the ILP wins on every design (see
    /// `EXPERIMENTS.md`), the direction of the paper's ~12 % average
    /// advantage in normalized register count.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use mbr_core::{Composer, ComposerOptions};
    /// use mbr_liberty::standard_library;
    /// use mbr_sta::DelayModel;
    ///
    /// # fn load(_: &mbr_liberty::Library) -> mbr_netlist::Design { unimplemented!() }
    /// let lib = standard_library();
    /// let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
    ///
    /// let mut ilp_design = load(&lib);
    /// let ilp = composer.compose(&mut ilp_design, &lib)?;
    ///
    /// let mut heur_design = load(&lib);
    /// let heuristic = composer.compose_heuristic(&mut heur_design, &lib)?;
    ///
    /// // Fig. 6: normalized register count, ILP vs heuristic.
    /// let norm = ilp.registers_after as f64 / heuristic.registers_after as f64;
    /// assert!(norm <= 1.0 + 1e-9);
    /// # Ok::<(), mbr_core::ComposeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`ComposeError`].
    pub fn compose_heuristic(
        &self,
        design: &mut Design,
        lib: &Library,
    ) -> Result<ComposeOutcome, ComposeError> {
        stages::run_flow(
            design,
            lib,
            &self.options,
            self.model,
            Strategy::Greedy,
            Backend::Batch,
        )
    }

    /// The paper's future-work extension: decompose every modifiable
    /// maximum-width MBR into single-bit registers, then run the ILP flow —
    /// instead of skipping those MBRs entirely.
    ///
    /// Decomposition is *speculative*: scattering thousands of bits into
    /// dense regions can leave them unmergeable (their test polygons are
    /// full of other registers, so the Section 3.2 weights rightly veto
    /// recomposition), which would end worse than not decomposing at all.
    /// The flow therefore runs both variants and keeps the decomposed result
    /// only when it wins on register count (ties broken toward the plain
    /// flow); `EXPERIMENTS.md` discusses when that happens.
    ///
    /// # Errors
    ///
    /// See [`ComposeError`].
    pub fn compose_with_decomposition(
        &self,
        design: &mut Design,
        lib: &Library,
    ) -> Result<ComposeOutcome, ComposeError> {
        // The speculative arm probes thousands of dense single-bit
        // partitions; tighter enumeration budgets keep it affordable
        // without touching the plain flow's QoR.
        let speculative = Composer::new(
            ComposerOptions {
                max_candidates_per_partition: self.options.max_candidates_per_partition.min(2_000),
                subclique_visit_multiplier: self.options.subclique_visit_multiplier.min(16),
                ..self.options.clone()
            },
            self.model,
        );

        // The two arms work on independent clones of the design, so they
        // run concurrently; each arm's observability is captured on its
        // thread and replayed plain-first, so the merged trace is the same
        // at every thread count.
        type ArmResult = Result<(Design, ComposeOutcome), ComposeError>;
        let span = Span::enter("flow.compose.decomposition");
        let handle = SpanHandle::current();
        let base: &Design = design;
        let ((plain_res, plain_obs), (dec_res, dec_obs)) = mbr_par::join(
            self.options.threads,
            || {
                TaskObs::capture(&handle, || -> ArmResult {
                    let _arm = handle.attach("flow.compose.decomposition.plain");
                    let mut plain = base.clone();
                    let outcome = stages::run_flow(
                        &mut plain,
                        lib,
                        &self.options,
                        self.model,
                        Strategy::Ilp,
                        Backend::Batch,
                    )?;
                    Ok((plain, outcome))
                })
            },
            || {
                TaskObs::capture(&handle, || -> ArmResult {
                    let _arm = handle.attach("flow.compose.decomposition.split");
                    // Split max-width MBRs whose class has a 1-bit cell to
                    // return to.
                    let mut dec = base.clone();
                    let targets: Vec<InstId> = dec
                        .registers()
                        .filter(|(id, inst)| {
                            let InstKind::Register { cell, attrs, .. } = &inst.kind else {
                                return false;
                            };
                            if attrs.is_untouchable() {
                                return false;
                            }
                            let c = lib.cell(*cell);
                            dec.register_width(*id) >= lib.max_width(c.class)
                                && dec.register_width(*id) > 1
                                && lib.widths(c.class).first() == Some(&1)
                        })
                        .map(|(id, _)| id)
                        .collect();
                    let mut split_bits: Vec<InstId> = Vec::new();
                    for id in targets {
                        let class = lib
                            .cell(dec.inst(id).register_cell().expect("register"))
                            .class;
                        if let Some(bit_cell) = lib.select_cell(class, 1, None, false) {
                            // Failure to split is not fatal; the MBR is
                            // simply kept.
                            if let Ok(bits) = dec.split_register(id, lib, bit_cell) {
                                split_bits.extend(bits);
                            }
                        }
                    }
                    // The split bits land across the old footprints and may
                    // overlap neighbours; legalize them before composing.
                    if !split_bits.is_empty() {
                        let grid = infer_grid(&dec, lib);
                        legalize(&mut dec, &grid, &split_bits)?;
                    }
                    let outcome = stages::run_flow(
                        &mut dec,
                        lib,
                        speculative.options(),
                        speculative.model,
                        Strategy::Ilp,
                        Backend::Batch,
                    )?;
                    Ok((dec, outcome))
                })
            },
        );
        plain_obs.replay(&handle);
        dec_obs.replay(&handle);
        drop(span);
        let (plain, plain_outcome) = plain_res?;
        let (dec, dec_outcome) = dec_res?;

        // Both arms ran; the kept outcome's timings absorb the loser's so
        // `elapsed()` reports the work actually spent, not just the winner.
        let dec_wins = dec_outcome.registers_after < plain_outcome.registers_after;
        let (mut outcome, loser_timings) = if dec_wins {
            *design = dec;
            let loser = plain_outcome.timings;
            (
                ComposeOutcome {
                    decomposition_kept: Some(true),
                    ..dec_outcome
                },
                loser,
            )
        } else {
            *design = plain;
            let loser = dec_outcome.timings;
            (
                ComposeOutcome {
                    decomposition_kept: Some(false),
                    ..plain_outcome
                },
                loser,
            )
        };
        outcome.timings.merge(&loser_timings);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_geom::{Point, Rect};
    use mbr_liberty::standard_library;
    use mbr_netlist::{RegisterAttrs, ScanInfo};

    /// On a cluster of free-floating flops both strategies should collapse
    /// everything into maximal MBRs (no blockers, no timing pressure).
    #[test]
    fn strategies_agree_on_trivial_clusters() {
        let lib = standard_library();
        let build = || {
            let die = Rect::new(Point::new(0, 0), Point::new(90_000, 90_000));
            let mut d = Design::new("t", die);
            let clk = d.add_net("clk");
            let cell = lib.cell_by_name("DFF_1X1").unwrap();
            for i in 0..8i64 {
                d.add_register(
                    format!("r{i}"),
                    &lib,
                    cell,
                    Point::new(1_000 + 1_500 * i, 600),
                    RegisterAttrs::clocked(clk),
                );
            }
            d
        };
        let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
        let mut a = build();
        let ilp = composer.compose(&mut a, &lib).unwrap();
        let mut b = build();
        let heur = composer.compose_heuristic(&mut b, &lib).unwrap();
        assert_eq!(
            ilp.registers_after, 1,
            "eight 1-bit flops fold into one 8-bit MBR"
        );
        assert_eq!(heur.registers_after, 1);
    }

    #[test]
    fn flow_can_stitch_scan_chains_after_composition() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(120_000, 120_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let rst = d.add_net("rst");
        let se = d.add_net("se");
        for (name, net) in [("CLK", clk), ("RST", rst), ("SE", se)] {
            let port = d.add_input_port(name, Point::new(0, 0), 1.0);
            let pin = d.inst(port).pins[0];
            d.connect(pin, net);
        }
        let cell = lib.cell_by_name("SDFF_R_1X1").unwrap();
        for i in 0..6i64 {
            let mut attrs = RegisterAttrs::clocked(clk);
            attrs.reset = Some(rst);
            attrs.scan_enable = Some(se);
            attrs.scan = Some(ScanInfo {
                partition: 0,
                section: None,
            });
            d.add_register(
                format!("s{i}"),
                &lib,
                cell,
                Point::new(2_000 + 1_500 * i, 600),
                attrs,
            );
        }
        let composer = Composer::new(
            ComposerOptions {
                stitch_scan_chains: true,
                ..ComposerOptions::default()
            },
            DelayModel::default(),
        );
        let outcome = composer.compose(&mut d, &lib).expect("flow");
        let stitch = outcome.scan_stitch.expect("stitching ran");
        assert_eq!(stitch.chains, 1);
        assert_eq!(stitch.registers, d.live_register_count());
        assert!(outcome.merges >= 1, "scan flops merged first");
        assert!(d.validate().is_empty(), "{:?}", d.validate());
    }
}
