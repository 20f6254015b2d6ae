//! Property-based tests over randomly parameterized workloads: the flow's
//! invariants must hold for any generated design, not just the presets.

use mbr::core::{Composer, ComposerOptions};
use mbr::liberty::standard_library;
use mbr::sta::Sta;
use mbr::workloads::DesignSpec;
use mbr_test::check::{any_u64, Gen};
use mbr_test::{prop_assert, prop_assert_eq, props};

fn arb_spec() -> impl Gen<Value = DesignSpec> {
    (
        any_u64(),
        2usize..4,
        3usize..7,
        0.0f64..0.3,
        0.0f64..0.5,
        350.0f64..800.0,
    )
        .prop_map(|(seed, grid, groups, fixed, scan, period)| DesignSpec {
            name: format!("prop_{seed:x}"),
            seed,
            cluster_grid: grid,
            groups_per_cluster: groups,
            regs_per_group: 2..=6,
            width_mix: [0.4, 0.25, 0.2, 0.15],
            fixed_fraction: fixed,
            scan_fraction: scan,
            ordered_scan_fraction: 0.3,
            extra_buffer_depth: 3,
            utilization: 0.4,
            clock_period: period,
            clock_domains: 1,
            wire_scale: 1.0,
        })
}

props! {
    /// For any workload: bits are conserved, the netlist stays valid, TNS
    /// and failing endpoints never degrade, and fixed registers survive.
    fn flow_invariants_hold_for_random_workloads(spec in arb_spec()) {
        let lib = standard_library();
        let mut design = spec.generate(&lib);
        prop_assert!(design.validate().is_empty());

        let model = spec.delay_model();
        let bits = design.total_register_bits();
        let regs_before = design.live_register_count();
        let sta = Sta::new(&design, &lib, model).expect("generated designs are acyclic");
        let tns_before = sta.report().tns();
        let failing_before = sta.report().failing_endpoints();
        let fixed: Vec<String> = design
            .registers()
            .filter(|(_, i)| i.register_attrs().expect("reg").fixed)
            .map(|(_, i)| i.name.clone())
            .collect();

        let composer = Composer::new(ComposerOptions::default(), model);
        let outcome = composer.compose(&mut design, &lib).expect("flow succeeds");

        prop_assert_eq!(design.total_register_bits(), bits);
        prop_assert!(design.live_register_count() <= regs_before);
        prop_assert_eq!(design.live_register_count(), outcome.registers_after);
        prop_assert!(design.validate().is_empty(), "{:?}", design.validate());

        let sta = Sta::new(&design, &lib, model).expect("still acyclic");
        prop_assert!(sta.report().tns() >= tns_before - 1e-6,
            "tns {} -> {}", tns_before, sta.report().tns());
        prop_assert!(sta.report().failing_endpoints() <= failing_before);

        for name in fixed {
            let id = design.inst_by_name(&name).expect("fixed register exists");
            prop_assert!(design.inst(id).alive);
        }
        // Every merged register id is dead, every new MBR alive and wide
        // enough for its connected bits.
        for &mbr in &outcome.new_mbrs {
            prop_assert!(design.inst(mbr).alive);
            let cell = lib.cell(design.inst(mbr).register_cell().expect("reg"));
            prop_assert!(u32::from(design.register_width(mbr)) <= u32::from(cell.width));
        }
    }
}
