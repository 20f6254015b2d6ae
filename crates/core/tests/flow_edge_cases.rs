//! Edge cases of the composition flow: graceful degradation when merges are
//! vetoed late (wired scan chains) and when nothing is composable at all,
//! and out-of-range options rejected as errors before anything composes.

use mbr_core::{
    ComposeError, ComposeOutcome, Composer, ComposerOptions, CompositionSession, OptionsError,
};
use mbr_geom::{Point, Rect};
use mbr_liberty::{standard_library, Library};
use mbr_netlist::{Design, PinKind, RegisterAttrs, ScanInfo};
use mbr_sta::DelayModel;

fn die() -> Rect {
    Rect::new(Point::new(0, 0), Point::new(120_000, 120_000))
}

/// Registers on a *wired* internal scan chain that are compatible but not
/// chain-consecutive: candidate selection may pick them, the netlist editor
/// must refuse, and the flow records the skip without failing.
#[test]
fn wired_scan_chain_merges_degrade_gracefully() {
    let lib = standard_library();
    let mut d = Design::new("t", die());
    let clk = d.add_net("clk");
    let rst = d.add_net("rst");
    let se = d.add_net("se");
    for (name, net) in [("CLK", clk), ("RST", rst), ("SE", se)] {
        let p = d.add_input_port(name, Point::new(0, 0), 1.0);
        let pin = d.inst(p).pins[0];
        d.connect(pin, net);
    }
    let cell = lib.cell_by_name("SDFF_R_1X1").unwrap();
    let mut regs = Vec::new();
    for i in 0..6i64 {
        let mut attrs = RegisterAttrs::clocked(clk);
        attrs.reset = Some(rst);
        attrs.scan_enable = Some(se);
        attrs.scan = Some(ScanInfo {
            partition: 0,
            section: None,
        });
        regs.push(d.add_register(
            format!("s{i}"),
            &lib,
            cell,
            Point::new(2_000 + 1_500 * i, 600),
            attrs,
        ));
    }
    // Wire the scan chain in an order hostile to spatial grouping:
    // s0 -> s3 -> s1 -> s4 -> s2 -> s5.
    let order = [0usize, 3, 1, 4, 2, 5];
    let mut prev: Option<mbr_netlist::PinId> = None;
    for (k, &idx) in order.iter().enumerate() {
        let si = d.find_pin(regs[idx], PinKind::ScanIn(0)).unwrap();
        let so = d.find_pin(regs[idx], PinKind::ScanOut(0)).unwrap();
        if let Some(up) = prev {
            let net = d.add_net(format!("chain{k}"));
            d.connect(up, net);
            d.connect(si, net);
        }
        prev = Some(so);
    }

    let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
    let outcome = composer.compose(&mut d, &lib).expect("flow survives");
    // Some merges may succeed (chain-consecutive pairs), the rest are
    // skipped — never a hard failure, and the design stays valid.
    assert!(
        outcome.merges + outcome.skipped_merges > 0,
        "candidates existed: {outcome:?}"
    );
    assert!(d.validate().is_empty(), "{:?}", d.validate());
    // The scan chain stays electrically sane: every wired SI pin has
    // exactly one driver (validate() checked that), and wiring survived on
    // at least some of the chain.
    let wired_si = d
        .registers()
        .filter_map(|(id, _)| d.find_pin(id, PinKind::ScanIn(0)))
        .filter(|&p| d.pin(p).net.is_some())
        .count();
    assert!(wired_si >= 1, "chain wiring survived composition");
}

/// A design whose registers are all designer-fixed: zero composable, zero
/// merges, design untouched.
#[test]
fn fully_fixed_design_is_untouched() {
    let lib = standard_library();
    let mut d = Design::new("t", die());
    let clk = d.add_net("clk");
    let cp = d.add_input_port("CLK", Point::new(0, 0), 0.5);
    d.connect(d.inst(cp).pins[0], clk);
    let cell = lib.cell_by_name("DFF_1X1").unwrap();
    for i in 0..5i64 {
        let mut attrs = RegisterAttrs::clocked(clk);
        attrs.fixed = true;
        d.add_register(
            format!("r{i}"),
            &lib,
            cell,
            Point::new(2_000 * (i + 1), 600),
            attrs,
        );
    }
    let before = d.clone();
    let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
    let outcome = composer.compose(&mut d, &lib).expect("flow");
    assert_eq!(outcome.composable, 0);
    assert_eq!(outcome.merges, 0);
    assert_eq!(outcome.registers_after, 5);
    assert_eq!(d.wirelength(), before.wirelength());
    for (id, inst) in before.registers() {
        let now = d.inst_by_name(&inst.name).unwrap();
        assert_eq!(d.inst(now).loc, inst.loc, "fixed registers never move");
        let _ = id;
    }
}

/// Options ablation sanity: the same design under no-skew/no-sizing options
/// merges identically but leaves clock offsets untouched.
#[test]
fn skew_and_sizing_toggles_only_affect_their_stages() {
    let lib = standard_library();
    let build = || {
        let mut d = Design::new("t", die());
        let clk = d.add_net("clk");
        let cp = d.add_input_port("CLK", Point::new(0, 0), 0.5);
        d.connect(d.inst(cp).pins[0], clk);
        let cell = lib.cell_by_name("DFF_1X2").unwrap(); // X2 leaves room to downsize
        let mut regs = Vec::new();
        for i in 0..8i64 {
            regs.push(d.add_register(
                format!("r{i}"),
                &lib,
                cell,
                Point::new(1_500 * (i + 1), 600),
                RegisterAttrs::clocked(clk),
            ));
        }
        for pair in regs.windows(2) {
            let net = d.add_net(format!("n{}", d.inst(pair[0]).name));
            d.connect(d.find_pin(pair[0], PinKind::Q(0)).unwrap(), net);
            d.connect(d.find_pin(pair[1], PinKind::D(0)).unwrap(), net);
        }
        d
    };

    let on = Composer::new(ComposerOptions::default(), DelayModel::default());
    let off = Composer::new(
        ComposerOptions {
            apply_useful_skew: false,
            apply_sizing: false,
            ..ComposerOptions::default()
        },
        DelayModel::default(),
    );
    let mut d_on = build();
    let out_on = on.compose(&mut d_on, &lib).expect("flow");
    let mut d_off = build();
    let out_off = off.compose(&mut d_off, &lib).expect("flow");

    assert_eq!(out_on.merges, out_off.merges, "selection is identical");
    assert_eq!(out_on.registers_after, out_off.registers_after);
    assert_eq!(out_off.resized, 0);
    assert!(out_off.skew.is_none());
    // Without skew every clock offset stays zero.
    for (_, inst) in d_off.registers() {
        assert_eq!(inst.register_attrs().unwrap().clock_offset, 0.0);
    }
}

/// `n` mutually compatible 1-bit registers packed into one small cluster:
/// at any partition bound above `n` they form a single partition.
fn cluster(n: i64) -> (Design, Library) {
    let lib = standard_library();
    let mut d = Design::new("cluster", die());
    let clk = d.add_net("clk");
    let port = d.add_input_port("CLK", Point::new(0, 0), 1.0);
    d.connect(d.inst(port).pins[0], clk);
    let cell = lib.cell_by_name("DFF_1X1").unwrap();
    for i in 0..n {
        d.add_register(
            format!("r{i}"),
            &lib,
            cell,
            Point::new(10_000 + 1_000 * (i % 10), 6_000 + 600 * (i / 10)),
            RegisterAttrs::clocked(clk),
        );
    }
    (d, lib)
}

/// A batch entry point of [`Composer`].
type Entry = fn(&Composer, &mut Design, &Library) -> Result<ComposeOutcome, ComposeError>;

/// Every entry point rejects `options` with `expected`, leaving the design
/// as it was.
fn assert_rejected(options: ComposerOptions, expected: OptionsError) {
    let (design, lib) = cluster(80);
    let text = design.to_design_text(&lib);
    let composer = Composer::new(options.clone(), DelayModel::default());
    let entry_points: [(&str, Entry); 3] = [
        ("compose", Composer::compose),
        ("compose_heuristic", Composer::compose_heuristic),
        (
            "compose_with_decomposition",
            Composer::compose_with_decomposition,
        ),
    ];
    for (name, entry) in entry_points {
        let mut d = design.clone();
        match entry(&composer, &mut d, &lib) {
            Err(ComposeError::Options(e)) => assert_eq!(e, expected, "{name}"),
            other => panic!("{name}: expected {expected:?}, got {other:?}"),
        }
        assert_eq!(d.to_design_text(&lib), text, "{name} edited the design");
    }
    match CompositionSession::open(design, &lib, options, DelayModel::default()) {
        Err(ComposeError::Options(e)) => assert_eq!(e, expected, "session"),
        Err(other) => panic!("session: expected {expected:?}, got {other:?}"),
        Ok(_) => panic!("session: expected {expected:?}, got a session"),
    }
}

#[test]
fn a_zero_partition_bound_is_an_error() {
    assert_rejected(
        ComposerOptions {
            partition_max_nodes: 0,
            ..ComposerOptions::default()
        },
        OptionsError::PartitionMaxNodes(0),
    );
}

#[test]
fn a_partition_bound_above_64_is_an_error() {
    // 80 compatible registers would form one 80-node partition.
    assert_rejected(
        ComposerOptions {
            partition_max_nodes: 100,
            ..ComposerOptions::default()
        },
        OptionsError::PartitionMaxNodes(100),
    );
}

#[test]
fn a_negative_region_radius_is_an_error() {
    assert_rejected(
        ComposerOptions {
            max_region_radius: -100_000,
            ..ComposerOptions::default()
        },
        OptionsError::MaxRegionRadius(-100_000),
    );
}
