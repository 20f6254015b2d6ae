//! Shared harness for regenerating the paper's tables and figures.
//!
//! The `repro` binary (`cargo run -p mbr-bench --bin repro -- <experiment>`)
//! prints each table/figure; the [`suites`] benchmarks (reachable both via
//! `cargo bench -p mbr-bench` and `cargo run -p mbr-bench --bin bench`)
//! measure the same flows on the in-workspace `mbr_test::bench` harness.
//! Both build on the helpers here so every experiment runs the exact same
//! configuration.

pub mod suites;

use mbr_core::{ComposeOutcome, Composer, ComposerOptions, DesignMetrics};
use mbr_cts::CtsConfig;
use mbr_liberty::{standard_library, Library};
use mbr_netlist::Design;
use mbr_place::CongestionConfig;
use mbr_sta::DelayModel;
use mbr_workloads::DesignSpec;

/// Which selection strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's placement-aware ILP.
    Ilp,
    /// The Fig. 6 greedy maximal-clique heuristic.
    Heuristic,
    /// The future-work extension: decompose max-width MBRs, then ILP.
    DecomposeThenIlp,
}

/// Everything one experiment run produces.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Metrics of the incoming ("Base") design.
    pub base: DesignMetrics,
    /// Metrics after composition ("Ours").
    pub ours: DesignMetrics,
    /// Flow statistics.
    pub outcome: ComposeOutcome,
}

/// The standard library shared by every experiment.
pub fn library() -> Library {
    standard_library()
}

/// The delay model a spec asks for.
pub fn model_for(spec: &DesignSpec) -> DelayModel {
    spec.delay_model()
}

/// Generates a spec's design (convenience).
pub fn generate(spec: &DesignSpec, lib: &Library) -> Design {
    spec.generate(lib)
}

/// Runs one full experiment: generate, measure Base, compose with the given
/// strategy/options, measure Ours.
///
/// # Panics
///
/// Panics if the flow fails — experiments are expected to succeed, and a
/// failure should abort the harness loudly.
pub fn run(
    spec: &DesignSpec,
    lib: &Library,
    options: ComposerOptions,
    strategy: Strategy,
) -> RunResult {
    let mut design = generate(spec, lib);
    let model = model_for(spec);
    let cts = CtsConfig::default();
    let cong = CongestionConfig::default();
    let base =
        DesignMetrics::measure(&design, lib, model, &cts, &cong).expect("base design analyzes");
    let composer = Composer::new(options, model);
    let outcome = match strategy {
        Strategy::Ilp => composer.compose(&mut design, lib),
        Strategy::Heuristic => composer.compose_heuristic(&mut design, lib),
        Strategy::DecomposeThenIlp => composer.compose_with_decomposition(&mut design, lib),
    }
    .expect("composition succeeds");
    let ours =
        DesignMetrics::measure(&design, lib, model, &cts, &cong).expect("composed design analyzes");
    RunResult {
        base,
        ours,
        outcome,
    }
}

/// Percentage saving helper, `+` = reduced.
pub fn save_pct(base: f64, ours: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (base - ours) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_workloads::d1;

    #[test]
    fn run_produces_consistent_results() {
        let lib = library();
        let result = run(&d1(), &lib, ComposerOptions::default(), Strategy::Ilp);
        assert_eq!(result.base.total_regs, result.outcome.registers_before);
        assert_eq!(result.ours.total_regs, result.outcome.registers_after);
        assert!(result.ours.total_regs < result.base.total_regs);
    }

    #[test]
    fn save_pct_signs() {
        assert_eq!(save_pct(100.0, 80.0), 20.0);
        assert_eq!(save_pct(100.0, 120.0), -20.0);
        assert_eq!(save_pct(0.0, 5.0), 0.0);
    }
}
