//! Scale tests: a full benchmark design (≈10 k instances) round-trips
//! through `.design` text and the library through `.mbrlib` with every
//! metric intact; and — opt-in, `MBR_SCALE_TESTS=1` plus `--ignored` —
//! the paper-scale d6 preset (≈20 k registers) survives a full bounded
//! compose under maximum paranoia with zero error diagnostics.

use mbr::check::{check_mapping, check_netlist, check_scan, CheckReport, Paranoia};
use mbr::core::{infer_grid, Composer, ComposerOptions};
use mbr::liberty::{standard_library, Library};
use mbr::netlist::Design;
use mbr::workloads::{d1, d6};

#[test]
fn full_benchmark_design_round_trips_through_text() {
    let lib = standard_library();
    let design = d1().generate(&lib);

    // Library round-trip.
    let lib2 = Library::parse(&lib.to_mbrlib()).expect("library parses");
    assert_eq!(lib2.cell_count(), lib.cell_count());

    // Design round-trip (10k instances, ~MB of text).
    let text = design.to_design_text(&lib);
    assert!(
        text.len() > 100_000,
        "non-trivial file: {} bytes",
        text.len()
    );
    let design2 = Design::parse(&text, &lib2).expect("design parses");

    assert_eq!(design2.live_inst_count(), design.live_inst_count());
    assert_eq!(design2.live_register_count(), design.live_register_count());
    assert_eq!(design2.total_register_bits(), design.total_register_bits());
    assert_eq!(design2.wirelength(), design.wirelength());
    assert!(design2.validate().is_empty());

    // Attributes spot-check on every 97th register.
    for (i, (id, inst)) in design.registers().enumerate() {
        if i % 97 != 0 {
            continue;
        }
        let other_id = design2.inst_by_name(&inst.name).expect("name survives");
        let other = design2.inst(other_id);
        assert_eq!(other.loc, inst.loc);
        let a = inst.register_attrs().expect("reg");
        let b = other.register_attrs().expect("reg");
        assert_eq!(a.gate_group, b.gate_group);
        assert_eq!(a.scan, b.scan);
        assert_eq!(a.fixed, b.fixed);
        assert_eq!(design2.register_width(other_id), design.register_width(id));
    }
}

/// Paper-scale smoke: the d6 preset composes end to end at the default
/// node budget, the budget actually binds the worst partitions (no solve
/// explodes), and the full invariant sweep — in-flow checkpoints at
/// maximum paranoia plus a post-flow pass — reports zero errors.
///
/// Ignored by default: a ≈20 k-register compose is minutes of work in
/// debug builds. Opt in with `MBR_SCALE_TESTS=1 cargo test --release
/// --test file_scale -- --ignored`.
#[test]
#[ignore = "paper-scale; set MBR_SCALE_TESTS=1 and run with --ignored"]
fn d6_composes_bounded_with_zero_check_errors() {
    if std::env::var("MBR_SCALE_TESTS")
        .map(|v| v != "1")
        .unwrap_or(true)
    {
        eprintln!("skipping: MBR_SCALE_TESTS=1 not set");
        return;
    }
    let spec = d6();
    let lib = standard_library();
    let mut design = spec.generate(&lib);
    let registers_before = design.live_register_count();
    assert!(
        (17_000..24_000).contains(&registers_before),
        "d6 is the ~20k-register paper-scale preset, got {registers_before}"
    );

    let options = ComposerOptions {
        paranoia: Paranoia::Full,
        stitch_scan_chains: true,
        ..ComposerOptions::default()
    };
    let node_budget = options.node_budget;
    let model = spec.delay_model();
    let outcome = Composer::new(options, model)
        .compose(&mut design, &lib)
        .expect("bounded compose completes at paper scale");

    assert!(outcome.merges > 0, "paper-scale design must find merges");
    assert!(
        outcome.registers_after < registers_before,
        "composition must shrink the register count"
    );
    // The budget knob bounds every partition's solve; the totals across
    // partitions stay within partitions * budget by construction, and a
    // sane scale run never comes close to saturating it.
    assert!(
        outcome.ilp_nodes < outcome.partitions as u64 * node_budget,
        "B&B exhausted the node budget on every partition ({} nodes)",
        outcome.ilp_nodes
    );

    // Zero error diagnostics, in-flow and post-flow (mirrors `check -- d6`).
    let in_flow_errors = outcome
        .diagnostics
        .iter()
        .filter(|d| d.diagnostic.severity() == mbr::check::Severity::Error)
        .count();
    let mut report = CheckReport::new(Vec::new());
    report.extend(check_netlist(&design));
    report.extend(check_mapping(&design, &lib));
    report.extend(check_scan(&design, &lib));
    let grid = infer_grid(&design, &lib);
    report.extend(mbr::check::check_placement(
        &design,
        &grid,
        &outcome.new_mbrs,
    ));
    assert_eq!(
        in_flow_errors + report.error_count(),
        0,
        "d6 check errors: {report}"
    );
}
