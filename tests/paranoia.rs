//! Regression gate: the full d1 flow, with scan stitching on and every
//! cross-stage checker enabled, must finish with zero diagnostics. Any
//! invariant a stage silently breaks fails here with a typed report instead
//! of corrupting downstream metrics.

use mbr::core::{Composer, ComposerOptions, Paranoia};
use mbr::liberty::standard_library;
use mbr::workloads::all_presets;

#[test]
fn d1_runs_clean_under_maximum_paranoia() {
    let lib = standard_library();
    let spec = all_presets()
        .into_iter()
        .find(|s| s.name == "d1")
        .expect("d1 preset");
    let mut design = spec.generate(&lib);
    let model = spec.delay_model();
    let options = ComposerOptions {
        paranoia: Paranoia::Full,
        stitch_scan_chains: true,
        ..ComposerOptions::default()
    };
    let composer = Composer::new(options, model);
    let outcome = composer.compose(&mut design, &lib).expect("flow succeeds");
    assert!(outcome.merges > 0, "d1 must compose something");
    assert!(
        outcome.diagnostics.is_empty(),
        "flow broke {} invariants:\n{}",
        outcome.diagnostics.len(),
        outcome
            .diagnostics
            .iter()
            .map(|d| format!("{}: {d}", d.diagnostic.severity()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
