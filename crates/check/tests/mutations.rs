//! Mutation self-tests: build a known-good flow state, corrupt exactly one
//! invariant, and assert the matching checker diagnostic — and only it —
//! fires. Every [`Diagnostic`] variant has one test here; the companion
//! `valid_fixtures_are_clean` test proves the corruptions themselves are the
//! only reason anything fires (no false positives on the valid state).
//!
//! Victims are chosen with the workspace's seeded PRNG so the corruption
//! site varies across fixtures changes but every run is deterministic.

use mbr_check::{
    check_mapping, check_netlist, check_partition, check_placement, check_scan, check_sta,
    Diagnostic, MergeGroup, PartitionCover, StaQuantity, STA_EPSILON,
};
use mbr_geom::{Point, Rect};
use mbr_liberty::{standard_library, CellId, Library};
use mbr_netlist::{
    CombModel, Design, InstId, InstKind, PinKind, RegisterAttrs, ScanInfo, ValidationIssue,
};
use mbr_place::PlacementGrid;
use mbr_sta::{DelayModel, Sta};
use mbr_test::Rng;

fn die() -> Rect {
    Rect::new(Point::new(0, 0), Point::new(60_000, 60_000))
}

fn grid() -> PlacementGrid {
    PlacementGrid::new(die(), 600, 100)
}

/// A small, fully wired, fully legal design: three 1-bit flops, one 4-bit
/// MBR, one reset flop; clock, data and reset nets all driven by ports.
/// Returns the design and its registers (the reset flop last).
fn base_fixture(lib: &Library) -> (Design, Vec<InstId>) {
    let mut d = Design::new("fixture", die());
    let clk = d.add_net("clk");
    let din = d.add_net("din");
    let rst = d.add_net("rst");
    for (name, net) in [("CLK", clk), ("DIN", din), ("RST", rst)] {
        let port = d.add_input_port(name, Point::ORIGIN, 1.0);
        d.connect(d.inst(port).pins[0], net);
    }

    let mut regs = Vec::new();
    let single = lib.cell_by_name("DFF_1X1").expect("1-bit flop");
    for (i, x) in [1_000, 3_000, 5_000].into_iter().enumerate() {
        regs.push(d.add_register(
            format!("r{i}"),
            lib,
            single,
            Point::new(x, 600),
            RegisterAttrs::clocked(clk),
        ));
    }
    let quad = lib.cell_by_name("DFF_4X1").expect("4-bit flop");
    regs.push(d.add_register(
        "m0",
        lib,
        quad,
        Point::new(8_000, 600),
        RegisterAttrs::clocked(clk),
    ));
    let with_reset = lib.cell_by_name("DFF_R_1X1").expect("reset flop");
    let mut attrs = RegisterAttrs::clocked(clk);
    attrs.reset = Some(rst);
    regs.push(d.add_register("rr", lib, with_reset, Point::new(12_000, 600), attrs));

    for &r in &regs {
        for b in 0..design_width(&d, r) {
            let pin = d.find_pin(r, PinKind::D(b)).expect("D pin");
            d.connect(pin, din);
        }
    }
    (d, regs)
}

fn design_width(d: &Design, r: InstId) -> u8 {
    d.register_width(r)
}

/// Five internal-scan reset flops on one stitched chain: the first two in
/// ordered section 0 (positions 0 and 1), the rest free-floating.
fn scan_fixture(lib: &Library) -> (Design, Vec<InstId>) {
    let mut d = Design::new("scan-fixture", die());
    let clk = d.add_net("clk");
    let din = d.add_net("din");
    let rst = d.add_net("rst");
    let se = d.add_net("se");
    for (name, net) in [("CLK", clk), ("DIN", din), ("RST", rst), ("SE", se)] {
        let port = d.add_input_port(name, Point::ORIGIN, 1.0);
        d.connect(d.inst(port).pins[0], net);
    }

    let cell = lib.cell_by_name("SDFF_R_1X1").expect("scan flop");
    let mut regs = Vec::new();
    for i in 0..5u32 {
        let mut attrs = RegisterAttrs::clocked(clk);
        attrs.reset = Some(rst);
        attrs.scan_enable = Some(se);
        attrs.scan = Some(ScanInfo {
            partition: 0,
            section: (i < 2).then_some((0, i)),
        });
        let r = d.add_register(
            format!("s{i}"),
            lib,
            cell,
            Point::new(1_000 + 2_000 * i as i64, 600),
            attrs,
        );
        let pin = d.find_pin(r, PinKind::D(0)).expect("D pin");
        d.connect(pin, din);
        regs.push(r);
    }
    d.stitch_scan_chains(lib);
    (d, regs)
}

/// An exact cover of the base fixture: the three singles merged pairwise
/// where widths allow, everything else singleton.
fn valid_cover(d: &Design, regs: &[InstId], lib: &Library) -> PartitionCover {
    let pair_cell = lib.cell_by_name("DFF_2X1").expect("2-bit flop");
    let singleton = |r: InstId| MergeGroup {
        members: vec![r],
        cell: d.inst(r).register_cell().expect("register"),
    };
    PartitionCover {
        elements: regs.to_vec(),
        groups: vec![
            MergeGroup {
                members: vec![regs[0], regs[1]],
                cell: pair_cell,
            },
            singleton(regs[2]),
            singleton(regs[3]),
            singleton(regs[4]),
        ],
    }
}

fn pick<'a>(rng: &mut Rng, xs: &'a [InstId]) -> &'a InstId {
    &xs[rng.gen_range(0..xs.len())]
}

// ---------------------------------------------------------------------------
// No false positives: every checker is silent on the valid fixtures.
// ---------------------------------------------------------------------------

#[test]
fn valid_fixtures_are_clean() {
    let lib = standard_library();
    let (d, regs) = base_fixture(&lib);
    assert_eq!(check_netlist(&d), vec![]);
    assert_eq!(check_mapping(&d, &lib), vec![]);
    assert_eq!(check_placement(&d, &grid(), &regs), vec![]);
    assert_eq!(
        check_partition(&d, &lib, &valid_cover(&d, &regs, &lib)),
        vec![]
    );
    let sta = Sta::new(&d, &lib, DelayModel::default()).expect("analyzable");
    assert_eq!(check_sta(&d, &lib, &sta, STA_EPSILON), vec![]);

    let (s, scan_regs) = scan_fixture(&lib);
    assert_eq!(check_netlist(&s), vec![]);
    assert_eq!(check_mapping(&s, &lib), vec![]);
    assert_eq!(check_scan(&s, &lib), vec![]);
    assert!(!scan_regs.is_empty());
}

// ---------------------------------------------------------------------------
// Netlist structure
// ---------------------------------------------------------------------------

#[test]
fn mutation_netlist_structure() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    // Drive the (already driven) data net from a register output too.
    let din = d.net_by_name("din").expect("net");
    let q = d.find_pin(regs[0], PinKind::Q(0)).expect("Q pin");
    d.connect(q, din);
    let diags = check_netlist(&d);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(matches!(
        diags[0],
        Diagnostic::NetlistStructure(ValidationIssue::MultipleDrivers { .. })
    ));
}

#[test]
fn mutation_register_width_mismatch() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let mut rng = Rng::seed_from_u64(11);
    let victim = *pick(&mut rng, &regs[..3]); // a 1-bit flop
    let pin = d.find_pin(victim, PinKind::D(0)).expect("D pin");
    d.disconnect(pin);
    let diags = check_netlist(&d);
    assert_eq!(
        diags,
        vec![Diagnostic::RegisterWidthMismatch {
            inst: victim,
            declared: 1,
            wired: 0,
        }]
    );
}

#[test]
fn mutation_clock_disconnected() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let mut rng = Rng::seed_from_u64(12);
    let victim = *pick(&mut rng, &regs);
    let ck = d.register_clock_pin(victim);
    d.disconnect(ck);
    let diags = check_netlist(&d);
    assert_eq!(diags, vec![Diagnostic::ClockDisconnected { inst: victim }]);
}

// ---------------------------------------------------------------------------
// Partition legality
// ---------------------------------------------------------------------------

#[test]
fn mutation_uncovered_element() {
    let lib = standard_library();
    let (d, regs) = base_fixture(&lib);
    let mut cover = valid_cover(&d, &regs, &lib);
    cover.groups.pop(); // drop the reset flop's singleton group
    let diags = check_partition(&d, &lib, &cover);
    assert_eq!(diags, vec![Diagnostic::UncoveredElement { inst: regs[4] }]);
}

#[test]
fn mutation_double_covered_element() {
    let lib = standard_library();
    let (d, regs) = base_fixture(&lib);
    let mut cover = valid_cover(&d, &regs, &lib);
    let extra = MergeGroup {
        members: vec![regs[0]],
        cell: d.inst(regs[0]).register_cell().expect("register"),
    };
    cover.groups.push(extra);
    let diags = check_partition(&d, &lib, &cover);
    assert_eq!(
        diags,
        vec![Diagnostic::DoubleCoveredElement { inst: regs[0] }]
    );
}

#[test]
fn mutation_foreign_group_member() {
    let lib = standard_library();
    let (d, regs) = base_fixture(&lib);
    let mut cover = valid_cover(&d, &regs, &lib);
    let port = d.inst_by_name("CLK").expect("port");
    cover.groups[0].members.push(port);
    let diags = check_partition(&d, &lib, &cover);
    assert_eq!(
        diags,
        vec![Diagnostic::ForeignGroupMember {
            group: 0,
            inst: port,
        }]
    );
}

#[test]
fn mutation_group_width_overflow() {
    let lib = standard_library();
    let (d, regs) = base_fixture(&lib);
    let mut cover = valid_cover(&d, &regs, &lib);
    // Stuff the 4-bit register into the 2-bit pair group: 6 bits into 2.
    cover.groups[0].members.push(regs[3]);
    cover.groups.retain(|g| g.members != vec![regs[3]]);
    let diags = check_partition(&d, &lib, &cover);
    assert_eq!(
        diags,
        vec![Diagnostic::GroupWidthOverflow {
            group: 0,
            bits: 6,
            cell_width: 2,
        }]
    );
}

#[test]
fn mutation_group_mixes_clocks() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let cover = valid_cover(&d, &regs, &lib);
    let clk2 = d.add_net("clk2");
    d.inst_mut(regs[1])
        .register_attrs_mut()
        .expect("register")
        .clock = clk2;
    let diags = check_partition(&d, &lib, &cover);
    assert_eq!(
        diags,
        vec![Diagnostic::GroupMixesClocks {
            group: 0,
            a: regs[0],
            b: regs[1],
        }]
    );
}

#[test]
fn mutation_group_mixes_gate_groups() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let cover = valid_cover(&d, &regs, &lib);
    d.inst_mut(regs[1])
        .register_attrs_mut()
        .expect("register")
        .gate_group = 7;
    let diags = check_partition(&d, &lib, &cover);
    assert_eq!(
        diags,
        vec![Diagnostic::GroupMixesGateGroups {
            group: 0,
            a: regs[0],
            b: regs[1],
        }]
    );
}

#[test]
fn mutation_group_mixes_control_nets() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let cover = valid_cover(&d, &regs, &lib);
    let en = d.add_net("en");
    d.inst_mut(regs[1])
        .register_attrs_mut()
        .expect("register")
        .enable = Some(en);
    let diags = check_partition(&d, &lib, &cover);
    assert_eq!(
        diags,
        vec![Diagnostic::GroupMixesControlNets {
            group: 0,
            a: regs[0],
            b: regs[1],
        }]
    );
}

#[test]
fn mutation_group_mixes_scan_segments() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let cover = valid_cover(&d, &regs, &lib);
    d.inst_mut(regs[1])
        .register_attrs_mut()
        .expect("register")
        .scan = Some(ScanInfo {
        partition: 0,
        section: None,
    });
    let diags = check_partition(&d, &lib, &cover);
    assert_eq!(
        diags,
        vec![Diagnostic::GroupMixesScanSegments {
            group: 0,
            a: regs[0],
            b: regs[1],
        }]
    );
}

// ---------------------------------------------------------------------------
// Mapping legality
// ---------------------------------------------------------------------------

fn set_register_cell(d: &mut Design, r: InstId, new_cell: CellId) {
    match &mut d.inst_mut(r).kind {
        InstKind::Register { cell, .. } => *cell = new_cell,
        other => panic!("expected a register, got {other:?}"),
    }
}

fn set_connected_bits(d: &mut Design, r: InstId, bits: u8) {
    match &mut d.inst_mut(r).kind {
        InstKind::Register { connected_bits, .. } => *connected_bits = bits,
        other => panic!("expected a register, got {other:?}"),
    }
}

#[test]
fn mutation_unknown_cell() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let mut rng = Rng::seed_from_u64(13);
    let victim = *pick(&mut rng, &regs);
    set_register_cell(&mut d, victim, CellId::from_index(10_000));
    let diags = check_mapping(&d, &lib);
    assert_eq!(diags, vec![Diagnostic::UnknownCell { inst: victim }]);
}

#[test]
fn mutation_footprint_mismatch() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let mut rng = Rng::seed_from_u64(14);
    let victim = *pick(&mut rng, &regs);
    d.inst_mut(victim).width += 100;
    let diags = check_mapping(&d, &lib);
    assert_eq!(diags, vec![Diagnostic::FootprintMismatch { inst: victim }]);
}

#[test]
fn mutation_cell_width_exceeded() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let victim = regs[0]; // a 1-bit flop
    set_connected_bits(&mut d, victim, 2);
    let diags = check_mapping(&d, &lib);
    assert_eq!(
        diags,
        vec![Diagnostic::CellWidthExceeded {
            inst: victim,
            connected: 2,
            cell_width: 1,
        }]
    );
}

#[test]
fn mutation_pin_map_mismatch() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let victim = regs[4]; // the reset flop
    let rst_pin = d.find_pin(victim, PinKind::Reset).expect("reset pin");
    let din = d.net_by_name("din").expect("net");
    d.connect(rst_pin, din); // wrong net: attrs still declare `rst`
    let diags = check_mapping(&d, &lib);
    assert_eq!(diags.len(), 1, "{diags:?}");
    match &diags[0] {
        Diagnostic::PinMapMismatch { inst, detail } => {
            assert_eq!(*inst, victim);
            assert!(detail.contains("reset"), "{detail}");
        }
        other => panic!("expected PinMapMismatch, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Placement legality
// ---------------------------------------------------------------------------

#[test]
fn mutation_placement_outside_die() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let victim = regs[0];
    d.inst_mut(victim).loc = Point::new(59_900, 600); // 200 wide: sticks out
    let diags = check_placement(&d, &grid(), &regs);
    assert_eq!(
        diags,
        vec![Diagnostic::PlacementOutsideDie { inst: victim }]
    );
}

#[test]
fn mutation_off_row() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let mut rng = Rng::seed_from_u64(15);
    let victim = *pick(&mut rng, &regs);
    d.inst_mut(victim).loc.y += 150;
    let diags = check_placement(&d, &grid(), &regs);
    assert_eq!(
        diags,
        vec![Diagnostic::OffRow {
            inst: victim,
            y: d.inst(victim).loc.y,
        }]
    );
}

#[test]
fn mutation_off_site() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let mut rng = Rng::seed_from_u64(16);
    let victim = *pick(&mut rng, &regs);
    d.inst_mut(victim).loc.x += 50;
    let diags = check_placement(&d, &grid(), &regs);
    assert_eq!(
        diags,
        vec![Diagnostic::OffSite {
            inst: victim,
            x: d.inst(victim).loc.x,
        }]
    );
}

#[test]
fn mutation_overlap() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    d.inst_mut(regs[1]).loc = d.inst(regs[0]).loc;
    let diags = check_placement(&d, &grid(), &regs);
    assert_eq!(diags.len(), 1, "{diags:?}");
    match diags[0] {
        Diagnostic::Overlap { a, b } => {
            let mut pair = [a, b];
            pair.sort_by_key(|i| i.index());
            assert_eq!(pair, [regs[0], regs[1]]);
        }
        ref other => panic!("expected Overlap, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Scan-chain integrity
// ---------------------------------------------------------------------------

#[test]
fn mutation_scan_chain_broken() {
    let lib = standard_library();
    let (mut d, regs) = scan_fixture(&lib);
    let si = d.find_pin(regs[1], PinKind::ScanIn(0)).expect("SI pin");
    d.disconnect(si); // the hop into s1 now dangles
    let diags = check_scan(&d, &lib);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(matches!(
        diags[0],
        Diagnostic::ScanChainBroken { partition: 0, .. }
    ));
}

#[test]
fn mutation_scan_chain_membership() {
    let lib = standard_library();
    let (mut d, regs) = scan_fixture(&lib);
    // s2 stays wired into the chain but loses its membership record.
    d.inst_mut(regs[2])
        .register_attrs_mut()
        .expect("register")
        .scan = None;
    let diags = check_scan(&d, &lib);
    assert_eq!(
        diags,
        vec![Diagnostic::ScanChainMembership {
            partition: 0,
            missing: vec![],
            duplicated: vec![],
            unexpected: vec![regs[2]],
        }]
    );
}

#[test]
fn mutation_scan_order_violation() {
    let lib = standard_library();
    let (mut d, regs) = scan_fixture(&lib);
    // Swap the two ordered positions after stitching: the wiring now visits
    // section keys out of order.
    for (r, pos) in [(regs[0], 1), (regs[1], 0)] {
        d.inst_mut(r).register_attrs_mut().expect("register").scan = Some(ScanInfo {
            partition: 0,
            section: Some((0, pos)),
        });
    }
    let diags = check_scan(&d, &lib);
    assert_eq!(
        diags,
        vec![Diagnostic::ScanOrderViolation {
            partition: 0,
            first: regs[0],
            second: regs[1],
        }]
    );
}

// ---------------------------------------------------------------------------
// STA consistency
// ---------------------------------------------------------------------------

#[test]
fn mutation_sta_drift() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    let sta = Sta::new(&d, &lib, DelayModel::default()).expect("analyzable");
    // Move a register without telling the incremental analysis: its D-pin
    // wire delay changes, so a fresh analysis disagrees.
    d.inst_mut(regs[0]).loc.x += 20_000;
    let diags = check_sta(&d, &lib, &sta, STA_EPSILON);
    // The move shifts WNS too; `mutation_sta_summary_drift` pins that
    // diagnostic on its own.
    let (summary, endpoint): (Vec<_>, Vec<_>) = diags
        .iter()
        .partition(|x| matches!(x, Diagnostic::StaSummaryDrift { .. }));
    assert_eq!(summary.len(), 1, "{diags:?}");
    assert!(!endpoint.is_empty());
    assert!(
        endpoint.iter().all(|x| matches!(
            x,
            Diagnostic::StaDrift {
                quantity: StaQuantity::Arrival,
                ..
            }
        )),
        "{diags:?}"
    );
}

#[test]
fn mutation_sta_summary_drift() {
    let lib = standard_library();
    let (mut d, regs) = base_fixture(&lib);
    // A period every endpoint fails, so each endpoint's drift adds to TNS.
    let model = DelayModel {
        clock_period: 1.0,
        ..DelayModel::default()
    };
    let sta = Sta::new(&d, &lib, model).expect("analyzable");
    let stale = (
        sta.report().wns(),
        sta.report().tns(),
        sta.report().failing_endpoints(),
    );
    // Planted staleness: a register moves after the analysis and no update
    // runs.
    d.inst_mut(regs[0]).loc.x += 20_000;
    let fresh = Sta::new(&d, &lib, model).expect("analyzable");
    let full = (
        fresh.report().wns(),
        fresh.report().tns(),
        fresh.report().failing_endpoints(),
    );
    // A tolerance above every endpoint's drift but below the TNS drift
    // leaves the summary as the only thing that disagrees.
    let endpoint_drift = fresh
        .report()
        .endpoints()
        .iter()
        .map(|&ep| {
            let (a, b) = (sta.report().arrival(ep), fresh.report().arrival(ep));
            (a.expect("timed") - b.expect("timed")).abs()
        })
        .fold(0.0, f64::max);
    let tns_drift = (stale.1 - full.1).abs();
    assert!(
        tns_drift > endpoint_drift,
        "{tns_drift} vs {endpoint_drift}"
    );
    let epsilon = 0.5 * (endpoint_drift + tns_drift);
    let diags = check_sta(&d, &lib, &sta, epsilon);
    assert_eq!(
        diags,
        vec![Diagnostic::StaSummaryDrift {
            incremental: stale,
            full,
        }]
    );
}

#[test]
fn mutation_sta_stale() {
    let lib = standard_library();
    let (mut d, _) = base_fixture(&lib);
    let sta = Sta::new(&d, &lib, DelayModel::default()).expect("analyzable");
    let endpoints = sta.report().endpoints().len();
    // Structural edit without a rebuild: a new register adds an endpoint.
    let clk = d.net_by_name("clk").expect("net");
    let din = d.net_by_name("din").expect("net");
    let cell = lib.cell_by_name("DFF_1X1").expect("flop");
    let extra = d.add_register(
        "late",
        &lib,
        cell,
        Point::new(20_000, 600),
        RegisterAttrs::clocked(clk),
    );
    d.connect(d.find_pin(extra, PinKind::D(0)).expect("D pin"), din);
    let diags = check_sta(&d, &lib, &sta, STA_EPSILON);
    assert_eq!(
        diags,
        vec![Diagnostic::StaStale {
            incremental: endpoints,
            full: endpoints + 1,
        }]
    );
}

#[test]
fn mutation_sta_broken() {
    let lib = standard_library();
    let (mut d, _) = base_fixture(&lib);
    let sta = Sta::new(&d, &lib, DelayModel::default()).expect("analyzable");
    // A combinational cycle makes the design unanalyzable.
    let buf = d.add_comb_model(CombModel::buffer());
    let b1 = d.add_comb("loop1", buf, Point::new(30_000, 600));
    let b2 = d.add_comb("loop2", buf, Point::new(31_000, 600));
    let n1 = d.add_net("loop_a");
    let n2 = d.add_net("loop_b");
    d.connect(d.find_pin(b1, PinKind::GateOut).expect("out"), n1);
    d.connect(d.find_pin(b2, PinKind::GateIn(0)).expect("in"), n1);
    d.connect(d.find_pin(b2, PinKind::GateOut).expect("out"), n2);
    d.connect(d.find_pin(b1, PinKind::GateIn(0)).expect("in"), n2);
    let diags = check_sta(&d, &lib, &sta, STA_EPSILON);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(matches!(diags[0], Diagnostic::StaBroken { .. }));
}
