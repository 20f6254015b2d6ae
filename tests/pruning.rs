//! Pruning differential (ISSUE satellite): the flow-level pruning rules —
//! compat-edge removal, duplicate-subtree/empty-region candidate filtering,
//! and the LP-relaxation bound with look-ahead — are pure work-savers.
//! With every rule toggled off versus all on, each scaled preset must
//! compose to a byte-identical design and an identical outcome (modulo
//! wall-clock and the node counter itself), while the work counters show
//! the pruned run doing strictly less search. The per-rule solver-level
//! proofs live in `crates/lp/tests/differential.rs`; this layer proves the
//! composition of all rules end to end.
//!
//! Both arms run with *non-truncating* budgets (`node_budget: u64::MAX`
//! and a visit budget no d1–d5 partition reaches). That is the identity
//! theorem's precondition: a truncated search stops at "the N-th unit of
//! work", and pruning — by design — changes what the N-th unit is. Under
//! truncation pruning still only improves the result (more of the tree
//! seen per unit of budget); byte-identity is the contract for complete
//! searches.

use std::sync::Arc;

use mbr::core::{ComposeOutcome, Composer, ComposerOptions};
use mbr::liberty::standard_library;
use mbr::obs::{with_sink, CounterTotals};
use mbr::workloads::{all_presets, DesignSpec};

/// Default options with all pruning rules set together and every budget
/// lifted out of the way (see the module docs).
fn options(pruning: bool) -> ComposerOptions {
    ComposerOptions {
        prune_subsets: pruning,
        prune_compat_edges: pruning,
        lp_bound: pruning,
        node_budget: u64::MAX,
        subclique_visit_multiplier: 1024,
        ..ComposerOptions::default()
    }
}

/// Outcome text with the fields that legitimately differ between the arms
/// scrubbed: wall-clock, and the explored-node count the pruning exists to
/// shrink.
fn scrubbed(outcome: ComposeOutcome) -> String {
    let scrubbed = ComposeOutcome {
        timings: Default::default(),
        ilp_nodes: 0,
        ..outcome
    };
    format!("{scrubbed:?}")
}

/// One full compose; returns the design text, the scrubbed outcome, and
/// every counter total the flow emitted.
struct Run {
    design_text: String,
    outcome_text: String,
    counters: std::collections::BTreeMap<String, u64>,
}

fn run_with(spec: &DesignSpec, opts: ComposerOptions) -> Run {
    let lib = standard_library();
    let mut design = spec.generate(&lib);
    let composer = Composer::new(opts, spec.delay_model());
    let totals = Arc::new(CounterTotals::default());
    let outcome = with_sink(totals.clone(), || composer.compose(&mut design, &lib))
        .expect("flow succeeds with pruning toggled");
    Run {
        design_text: design.to_design_text(&lib),
        outcome_text: scrubbed(outcome),
        counters: totals.totals(),
    }
}

fn counter(run: &Run, name: &str) -> u64 {
    run.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn pruning_is_byte_identical_and_strictly_cheaper_on_every_preset() {
    let mut visited_off_total = 0u64;
    let mut visited_on_total = 0u64;
    for spec in all_presets() {
        let off = run_with(&spec, options(false));
        let on = run_with(&spec, options(true));

        assert_eq!(
            off.design_text, on.design_text,
            "{}: pruning changed the composed design",
            spec.name
        );
        assert_eq!(
            off.outcome_text, on.outcome_text,
            "{}: pruning changed the compose outcome",
            spec.name
        );

        // The reference arm must emit none of the pruning counters; the
        // pruned arm must never do more work than the reference.
        for name in [
            "core.compat.edges_removed",
            "core.candidates.filtered",
            "lp.setpart.lp_bound_cuts",
        ] {
            assert_eq!(counter(&off, name), 0, "{}: {name} in off arm", spec.name);
        }
        let nodes_off = counter(&off, "lp.setpart.nodes_explored");
        let nodes_on = counter(&on, "lp.setpart.nodes_explored");
        // Strict per preset: every scaled preset has partitions rich
        // enough for the relaxation bound to close nodes the static share
        // bound cannot.
        assert!(
            nodes_on < nodes_off,
            "{}: pruning saved no B&B nodes ({nodes_on} vs {nodes_off})",
            spec.name
        );
        let visited_off = counter(&off, "core.candidates.subsets_visited");
        let visited_on = counter(&on, "core.candidates.subsets_visited");
        assert!(
            visited_on <= visited_off,
            "{}: pruning visited more subsets ({visited_on} vs {visited_off})",
            spec.name
        );

        // The acceptance bar from the ISSUE: at least a 5x reduction in
        // branch-and-bound nodes on d2.
        if spec.name == "d2" {
            assert!(
                nodes_off >= 5 * nodes_on.max(1),
                "d2: expected a >=5x node reduction, got {nodes_off} -> {nodes_on}"
            );
        }
        visited_off_total += visited_off;
        visited_on_total += visited_on;
    }
    // Subset-visit savings must be strict across the suite: the duplicate
    // sub-clique cut demonstrably fires somewhere.
    assert!(
        visited_on_total < visited_off_total,
        "pruning saved no subset visits anywhere ({visited_on_total} vs {visited_off_total})"
    );
}

/// Each flow-level rule also toggles *independently* without changing the
/// composed design — no rule's safety argument leans on another being on.
#[test]
fn each_rule_toggles_independently_without_changing_the_design() {
    let spec = all_presets()
        .into_iter()
        .find(|s| s.name == "d1")
        .expect("d1 preset exists");
    let reference = run_with(&spec, options(false));
    for (name, opts) in [
        (
            "prune_subsets",
            ComposerOptions {
                prune_subsets: true,
                ..options(false)
            },
        ),
        (
            "prune_compat_edges",
            ComposerOptions {
                prune_compat_edges: true,
                ..options(false)
            },
        ),
        (
            "lp_bound",
            ComposerOptions {
                lp_bound: true,
                ..options(false)
            },
        ),
    ] {
        let arm = run_with(&spec, opts);
        assert_eq!(
            reference.design_text, arm.design_text,
            "rule {name} alone changed the composed design"
        );
        assert_eq!(
            reference.outcome_text, arm.outcome_text,
            "rule {name} alone changed the compose outcome"
        );
    }
}
