//! Cross-crate integration tests: the full composition flow on generated
//! designs, with the invariants the paper promises checked end to end.

use mbr::core::{Composer, ComposerOptions, DesignMetrics};
use mbr::cts::CtsConfig;
use mbr::liberty::standard_library;
use mbr::place::{overlaps, CongestionConfig};
use mbr::sta::{DelayModel, Sta};
use mbr::workloads::DesignSpec;

/// A small, fast design for integration testing.
fn small_spec() -> DesignSpec {
    DesignSpec {
        name: "it_small".into(),
        seed: 77,
        cluster_grid: 2,
        groups_per_cluster: 8,
        regs_per_group: 3..=6,
        width_mix: [0.5, 0.2, 0.2, 0.1],
        fixed_fraction: 0.1,
        scan_fraction: 0.3,
        ordered_scan_fraction: 0.2,
        extra_buffer_depth: 3,
        utilization: 0.4,
        clock_period: 500.0,
        clock_domains: 1,
        wire_scale: 1.0,
    }
}

#[test]
fn composition_reduces_registers_and_preserves_invariants() {
    let lib = standard_library();
    let spec = small_spec();
    let mut design = spec.generate(&lib);
    let m = spec.delay_model();

    let bits_before = design.total_register_bits();
    let regs_before = design.live_register_count();
    let sta_before = Sta::new(&design, &lib, m).expect("acyclic");
    let tns_before = sta_before.report().tns();
    let failing_before = sta_before.report().failing_endpoints();

    let composer = Composer::new(ComposerOptions::default(), m);
    let outcome = composer.compose(&mut design, &lib).expect("flow succeeds");

    // Registers merged, bits conserved.
    assert!(outcome.merges > 0, "something must merge");
    assert!(design.live_register_count() < regs_before);
    assert_eq!(
        design.total_register_bits(),
        bits_before,
        "merging must never create or destroy register bits"
    );
    assert_eq!(design.live_register_count(), outcome.registers_after);

    // Netlist structurally valid; new MBRs legally placed.
    assert!(design.validate().is_empty(), "{:?}", design.validate());
    let bad: Vec<_> = overlaps(&design)
        .into_iter()
        .filter(|(a, b)| outcome.new_mbrs.contains(a) || outcome.new_mbrs.contains(b))
        .collect();
    assert!(bad.is_empty(), "new MBRs must not overlap: {bad:?}");

    // Timing does not degrade (the paper's headline constraint).
    let sta_after = Sta::new(&design, &lib, m).expect("acyclic");
    assert!(
        sta_after.report().tns() >= tns_before - 1e-6,
        "TNS degraded: {} -> {}",
        tns_before,
        sta_after.report().tns()
    );
    assert!(
        sta_after.report().failing_endpoints() <= failing_before,
        "failing endpoints grew: {failing_before} -> {}",
        sta_after.report().failing_endpoints()
    );

    // Every new MBR maps to a real library cell wide enough for its bits.
    for &mbr in &outcome.new_mbrs {
        let cell = lib.cell(design.inst(mbr).register_cell().expect("register"));
        assert!(u32::from(design.register_width(mbr)) <= u32::from(cell.width));
        assert!(design.register_width(mbr) >= 2, "merges have >= 2 bits");
    }
}

#[test]
fn composition_is_deterministic() {
    let lib = standard_library();
    let spec = small_spec();
    let composer = Composer::new(ComposerOptions::default(), spec.delay_model());

    let mut a = spec.generate(&lib);
    let out_a = composer.compose(&mut a, &lib).expect("flow");
    let mut b = spec.generate(&lib);
    let out_b = composer.compose(&mut b, &lib).expect("flow");

    assert_eq!(out_a.registers_after, out_b.registers_after);
    assert_eq!(out_a.merges, out_b.merges);
    assert_eq!(a.wirelength(), b.wirelength());
    // Same placements for the same generated names.
    for (id, inst) in a.registers() {
        let other = b.inst_by_name(&inst.name).expect("same names");
        assert_eq!(
            inst.loc,
            b.inst(other).loc,
            "placement differs for {}",
            inst.name
        );
        let _ = id;
    }
}

#[test]
fn fixed_registers_survive_untouched() {
    let lib = standard_library();
    let spec = small_spec();
    let mut design = spec.generate(&lib);

    let fixed_before: Vec<(String, mbr::geom::Point)> = design
        .registers()
        .filter(|(_, inst)| inst.register_attrs().expect("reg").fixed)
        .map(|(_, inst)| (inst.name.clone(), inst.loc))
        .collect();
    assert!(!fixed_before.is_empty(), "fixture needs fixed registers");

    let composer = Composer::new(ComposerOptions::default(), spec.delay_model());
    composer.compose(&mut design, &lib).expect("flow");

    for (name, loc) in fixed_before {
        let id = design.inst_by_name(&name).expect("still exists");
        assert!(design.inst(id).alive, "fixed register {name} must survive");
        assert_eq!(
            design.inst(id).loc,
            loc,
            "fixed register {name} must not move"
        );
    }
}

#[test]
fn heuristic_and_decomposition_paths_run_clean() {
    let lib = standard_library();
    let spec = small_spec();
    let m = spec.delay_model();
    let composer = Composer::new(ComposerOptions::default(), m);

    let mut h = spec.generate(&lib);
    let bits = h.total_register_bits();
    let heur = composer.compose_heuristic(&mut h, &lib).expect("flow");
    assert!(heur.merges > 0);
    assert_eq!(h.total_register_bits(), bits);
    assert!(h.validate().is_empty());

    let mut d = spec.generate(&lib);
    let dec = composer
        .compose_with_decomposition(&mut d, &lib)
        .expect("flow");
    assert_eq!(
        d.total_register_bits(),
        bits,
        "decomposition conserves bits"
    );
    assert!(d.validate().is_empty());
    // Decomposition unlocks at least as many merges as the plain flow saw
    // composable registers (8-bit MBRs become fair game).
    assert!(dec.composable >= heur.composable);
}

#[test]
fn metrics_pipeline_reports_consistent_numbers() {
    let lib = standard_library();
    let spec = small_spec();
    let mut design = spec.generate(&lib);
    let m = spec.delay_model();
    let cts = CtsConfig::default();
    let cong = CongestionConfig::default();

    let base = DesignMetrics::measure(&design, &lib, m, &cts, &cong).expect("metrics");
    assert_eq!(base.total_regs, design.live_register_count());
    assert_eq!(base.histogram.total(), base.total_regs);
    assert_eq!(base.histogram.total_bits(), design.total_register_bits());

    let composer = Composer::new(ComposerOptions::default(), m);
    let outcome = composer.compose(&mut design, &lib).expect("flow");
    let ours = DesignMetrics::measure(&design, &lib, m, &cts, &cong).expect("metrics");

    assert_eq!(ours.total_regs, outcome.registers_after);
    assert!(ours.clk_cap_pf < base.clk_cap_pf, "clock cap must drop");
    assert!(
        ours.area_um2 <= base.area_um2 * 1.01,
        "area must not blow up"
    );
}

#[test]
fn composition_never_crosses_clock_domains() {
    let lib = standard_library();
    let spec = DesignSpec {
        name: "multiclk".into(),
        clock_domains: 3,
        ..small_spec()
    };
    let mut design = spec.generate(&lib);
    // Record each register's clock net.
    let domain_of: std::collections::HashMap<String, mbr::netlist::NetId> = design
        .registers()
        .map(|(_, inst)| (inst.name.clone(), inst.register_attrs().expect("reg").clock))
        .collect();
    assert!(
        domain_of
            .values()
            .collect::<std::collections::HashSet<_>>()
            .len()
            == 3,
        "three clock domains exist"
    );

    let composer = Composer::new(ComposerOptions::default(), spec.delay_model());
    let outcome = composer.compose(&mut design, &lib).expect("flow");
    assert!(outcome.merges > 0);

    // Every new MBR's bits came from exactly one domain: its D/Q nets'
    // former owners all used the MBR's own clock.
    for &mbr in &outcome.new_mbrs {
        let clock = design.inst(mbr).register_attrs().expect("reg").clock;
        // All clock pins on that clock net belong to registers of the net.
        assert_eq!(design.inst(mbr).register_attrs().expect("reg").clock, clock);
    }
    // Stronger check: per clock net, total connected bits is conserved.
    let mut bits_per_clock: std::collections::HashMap<mbr::netlist::NetId, usize> =
        std::collections::HashMap::new();
    for (id, inst) in design.registers() {
        *bits_per_clock
            .entry(inst.register_attrs().expect("reg").clock)
            .or_insert(0) += usize::from(design.register_width(id));
    }
    let mut expected: std::collections::HashMap<mbr::netlist::NetId, usize> =
        std::collections::HashMap::new();
    let fresh = spec.generate(&lib);
    for (id, inst) in fresh.registers() {
        *expected
            .entry(
                design
                    .net_by_name(&fresh.net(inst.register_attrs().expect("reg").clock).name)
                    .expect("same net names"),
            )
            .or_insert(0) += usize::from(fresh.register_width(id));
    }
    assert_eq!(bits_per_clock, expected, "bits stay in their clock domain");
}

#[test]
fn composition_is_incremental_and_converges() {
    // The paper's "incremental" claim: the flow can run again on its own
    // output (e.g. after another placement phase). A second pass may merge
    // small MBRs into wider ones but must preserve all invariants, and the
    // process converges to a fixpoint quickly.
    let lib = standard_library();
    let spec = small_spec();
    let mut design = spec.generate(&lib);
    let m = spec.delay_model();
    let bits = design.total_register_bits();
    let composer = Composer::new(ComposerOptions::default(), m);

    let mut counts = vec![design.live_register_count()];
    for _pass in 0..4 {
        let outcome = composer.compose(&mut design, &lib).expect("flow");
        counts.push(design.live_register_count());
        assert_eq!(design.total_register_bits(), bits);
        assert!(design.validate().is_empty());
        if outcome.merges == 0 {
            break;
        }
    }
    // Monotone non-increasing register count, strictly decreasing first.
    assert!(counts[1] < counts[0]);
    for pair in counts.windows(2) {
        assert!(pair[1] <= pair[0]);
    }
    // Converged: the last recorded pass merged nothing (or we ran out of
    // passes while still improving, which the window check already covers).
    let sta = Sta::new(&design, &lib, m).expect("acyclic");
    assert!(sta.report().tns() <= 0.0 + 1e-9);
}

#[test]
fn composing_a_design_without_registers_is_a_noop() {
    let lib = standard_library();
    let die = mbr::geom::Rect::new(
        mbr::geom::Point::new(0, 0),
        mbr::geom::Point::new(50_000, 50_000),
    );
    let mut design = mbr::netlist::Design::new("empty", die);
    let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
    let outcome = composer.compose(&mut design, &lib).expect("flow");
    assert_eq!(outcome.merges, 0);
    assert_eq!(outcome.registers_before, 0);
    assert_eq!(outcome.registers_after, 0);
    assert_eq!(outcome.partitions, 0);
}

#[test]
fn incomplete_mbrs_do_not_blow_area_or_leakage() {
    // Paper Section 3: incomplete MBRs are admitted only when they keep the
    // area (≤ 5 % here) — and hence leakage — under control.
    let lib = standard_library();
    let spec = small_spec();
    let mut design = spec.generate(&lib);
    let m = spec.delay_model();
    let base = DesignMetrics::measure(
        &design,
        &lib,
        m,
        &CtsConfig::default(),
        &CongestionConfig::default(),
    )
    .expect("metrics");
    let composer = Composer::new(ComposerOptions::default(), m);
    let outcome = composer.compose(&mut design, &lib).expect("flow");
    let ours = DesignMetrics::measure(
        &design,
        &lib,
        m,
        &CtsConfig::default(),
        &CongestionConfig::default(),
    )
    .expect("metrics");
    assert!(outcome.incomplete_mbrs > 0, "fixture exercises incompletes");
    assert!(ours.area_um2 <= base.area_um2, "area must not grow");
    assert!(
        ours.leakage_nw <= base.leakage_nw * 1.01,
        "leakage stays flat: {} -> {}",
        base.leakage_nw,
        ours.leakage_nw
    );
}
