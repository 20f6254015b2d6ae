//! Behavioural tests of the timing engine on hand-built designs, plus the
//! incremental-equals-full oracle.

use mbr_geom::{Point, Rect};
use mbr_liberty::{standard_library, Library};
use mbr_netlist::{CombModel, Design, InstId, PinKind, RegisterAttrs};
use mbr_sta::{DelayModel, Sta, StaError};

fn die() -> Rect {
    Rect::new(Point::new(0, 0), Point::new(500_000, 500_000))
}

/// reg → wire → reg pipeline with configurable spacing.
fn pipeline(lib: &Library, spacing: i64, n: usize) -> (Design, Vec<InstId>) {
    let mut d = Design::new("pipe", die());
    let clk = d.add_net("clk");
    let cell = lib.cell_by_name("DFF_1X1").unwrap();
    let mut regs = Vec::new();
    for i in 0..n {
        let r = d.add_register(
            format!("r{i}"),
            lib,
            cell,
            Point::new(1_000 + spacing * i as i64, 600),
            RegisterAttrs::clocked(clk),
        );
        regs.push(r);
    }
    for i in 0..n - 1 {
        let net = d.add_net(format!("n{i}"));
        d.connect(d.find_pin(regs[i], PinKind::Q(0)).unwrap(), net);
        d.connect(d.find_pin(regs[i + 1], PinKind::D(0)).unwrap(), net);
    }
    (d, regs)
}

#[test]
fn short_paths_meet_timing_long_paths_violate() {
    let lib = standard_library();
    let (d, _) = pipeline(&lib, 10_000, 3);
    let sta = Sta::new(&d, &lib, DelayModel::default()).unwrap();
    assert_eq!(sta.report().failing_endpoints(), 0);
    assert!(sta.report().wns() > 0.0);
    assert_eq!(sta.report().tns(), 0.0);

    // A very tight period makes everything fail.
    let tight = DelayModel {
        clock_period: 50.0,
        ..DelayModel::default()
    };
    let sta = Sta::new(&d, &lib, tight).unwrap();
    assert_eq!(sta.report().failing_endpoints(), 2, "both D endpoints fail");
    assert!(sta.report().wns() < 0.0);
    assert!(sta.report().tns() < 0.0);
}

#[test]
fn longer_wires_mean_less_slack() {
    let lib = standard_library();
    let (near, regs_near) = pipeline(&lib, 5_000, 2);
    let (far, regs_far) = pipeline(&lib, 150_000, 2);
    let model = DelayModel::default();
    let sta_near = Sta::new(&near, &lib, model).unwrap();
    let sta_far = Sta::new(&far, &lib, model).unwrap();
    let s_near = sta_near
        .report()
        .register_d_slack(&near, regs_near[1])
        .unwrap();
    let s_far = sta_far
        .report()
        .register_d_slack(&far, regs_far[1])
        .unwrap();
    assert!(
        s_far < s_near,
        "distance must eat slack: {s_far} vs {s_near}"
    );
}

#[test]
fn comb_gates_add_delay_and_ports_constrain() {
    let lib = standard_library();
    let mut d = Design::new("t", die());
    let clk = d.add_net("clk");
    let cell = lib.cell_by_name("DFF_1X1").unwrap();
    let r = d.add_register(
        "r",
        &lib,
        cell,
        Point::new(1_000, 600),
        RegisterAttrs::clocked(clk),
    );
    let m = d.add_comb_model(CombModel::nand2());
    let g1 = d.add_comb("g1", m, Point::new(5_000, 600));
    let g2 = d.add_comb("g2", m, Point::new(9_000, 600));
    let inp = d.add_input_port("IN", Point::new(0, 0), 2.0);
    let out = d.add_output_port("OUT", Point::new(20_000, 600), 1.2);

    let n_in = d.add_net("n_in");
    d.connect(d.inst(inp).pins[0], n_in);
    d.connect(d.find_pin(g1, PinKind::GateIn(0)).unwrap(), n_in);

    let n_q = d.add_net("n_q");
    d.connect(d.find_pin(r, PinKind::Q(0)).unwrap(), n_q);
    d.connect(d.find_pin(g1, PinKind::GateIn(1)).unwrap(), n_q);

    let n_mid = d.add_net("n_mid");
    d.connect(d.find_pin(g1, PinKind::GateOut).unwrap(), n_mid);
    d.connect(d.find_pin(g2, PinKind::GateIn(0)).unwrap(), n_mid);
    d.connect(d.find_pin(g2, PinKind::GateIn(1)).unwrap(), n_mid);

    let n_out = d.add_net("n_out");
    d.connect(d.find_pin(g2, PinKind::GateOut).unwrap(), n_out);
    d.connect(d.inst(out).pins[0], n_out);
    d.connect(d.find_pin(r, PinKind::D(0)).unwrap(), n_out);

    let sta = Sta::new(&d, &lib, DelayModel::default()).unwrap();
    // Two endpoints: the output port and the register D pin.
    assert_eq!(sta.report().endpoints().len(), 2);
    // Arrival at the output is at least two gate intrinsics after launch.
    let out_pin = d.inst(out).pins[0];
    let arr = sta.report().arrival(out_pin).unwrap();
    assert!(arr > 2.0 * CombModel::nand2().intrinsic_delay);
}

#[test]
fn combinational_loop_is_detected() {
    let lib = standard_library();
    let mut d = Design::new("loop", die());
    let m = d.add_comb_model(CombModel::buffer());
    let g1 = d.add_comb("g1", m, Point::new(1_000, 600));
    let g2 = d.add_comb("g2", m, Point::new(2_000, 600));
    let a = d.add_net("a");
    let b = d.add_net("b");
    d.connect(d.find_pin(g1, PinKind::GateOut).unwrap(), a);
    d.connect(d.find_pin(g2, PinKind::GateIn(0)).unwrap(), a);
    d.connect(d.find_pin(g2, PinKind::GateOut).unwrap(), b);
    d.connect(d.find_pin(g1, PinKind::GateIn(0)).unwrap(), b);
    let err = Sta::new(&d, &lib, DelayModel::default()).unwrap_err();
    assert!(matches!(err, StaError::CombinationalLoop { .. }));
}

#[test]
fn useful_skew_shifts_slack_between_d_and_q() {
    let lib = standard_library();
    let (mut d, regs) = pipeline(&lib, 100_000, 3);
    let model = DelayModel::default();
    let sta = Sta::new(&d, &lib, model).unwrap();
    let d_before = sta.report().register_d_slack(&d, regs[1]).unwrap();
    let q_before = sta.report().register_q_slack(&d, regs[1]).unwrap();

    // Give the middle register +100 ps of clock offset.
    d.inst_mut(regs[1])
        .register_attrs_mut()
        .unwrap()
        .clock_offset = 100.0;
    let sta = Sta::new(&d, &lib, model).unwrap();
    let d_after = sta.report().register_d_slack(&d, regs[1]).unwrap();
    let q_after = sta.report().register_q_slack(&d, regs[1]).unwrap();
    assert!(
        (d_after - (d_before + 100.0)).abs() < 1e-6,
        "capture later ⇒ +D slack"
    );
    assert!(
        (q_after - (q_before - 100.0)).abs() < 1e-6,
        "launch later ⇒ -Q slack"
    );
}

#[test]
fn skew_window_brackets_zero_for_met_registers() {
    let lib = standard_library();
    let (d, regs) = pipeline(&lib, 20_000, 3);
    let sta = Sta::new(&d, &lib, DelayModel::default()).unwrap();
    let w = sta.report().skew_window(&d, regs[1]);
    assert!(
        w.lo < 0.0 && w.hi > 0.0,
        "met register can skew both ways: {w:?}"
    );
    // First register has no constrained D pin: lo is unbounded.
    let w0 = sta.report().skew_window(&d, regs[0]);
    assert_eq!(w0.lo, f64::NEG_INFINITY);
    assert!(w0.hi.is_finite());
}

#[test]
fn incremental_update_matches_full_reanalysis_after_move() {
    let lib = standard_library();
    let (mut d, regs) = pipeline(&lib, 30_000, 5);
    let model = DelayModel::default();
    let mut sta = Sta::new(&d, &lib, model).unwrap();

    // Move the middle register far away and nudge another's skew.
    d.inst_mut(regs[2]).loc = Point::new(200_000, 60_000);
    d.inst_mut(regs[3])
        .register_attrs_mut()
        .unwrap()
        .clock_offset = 42.0;
    sta.update_after_change(&d, &lib, &[regs[2], regs[3]]);

    let full = Sta::new(&d, &lib, model).unwrap();
    for (_, inst) in d.live_insts() {
        for &p in &inst.pins {
            let a = sta.report().arrival(p);
            let b = full.report().arrival(p);
            match (a, b) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "arrival mismatch at {p}"),
                (None, None) => {}
                other => panic!("arrival presence mismatch at {p}: {other:?}"),
            }
            let a = sta.report().required(p);
            let b = full.report().required(p);
            match (a, b) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "required mismatch at {p}"),
                (None, None) => {}
                other => panic!("required presence mismatch at {p}: {other:?}"),
            }
        }
    }
    assert_eq!(
        sta.report().failing_endpoints(),
        full.report().failing_endpoints()
    );
    assert_eq!(sta.report().tns().to_bits(), full.report().tns().to_bits());
}

#[test]
fn incremental_update_rejects_structural_edits() {
    let lib = standard_library();
    let (mut d, regs) = pipeline(&lib, 10_000, 2);
    let model = DelayModel::default();
    let mut sta = Sta::new(&d, &lib, model).unwrap();
    // Structural edit: merge the two registers.
    let cell2 = lib.cell_by_name("DFF_2X1").unwrap();
    let mbr = d
        .merge_registers(&regs, &lib, cell2, Point::new(1_000, 600))
        .unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sta.update_after_change(&d, &lib, &[mbr]);
    }));
    assert!(result.is_err(), "structural edits need a rebuild");
    // Rebuild works.
    let sta = Sta::new(&d, &lib, model).unwrap();
    assert_eq!(
        sta.report().endpoints().len(),
        1,
        "one connected D endpoint"
    );
}

#[test]
fn worst_paths_trace_launch_to_capture() {
    let lib = standard_library();
    let (d, regs) = pipeline(&lib, 60_000, 4);
    let sta = Sta::new(&d, &lib, DelayModel::default()).unwrap();
    let paths = sta.worst_paths(3);
    assert_eq!(paths.len(), 3, "three D endpoints exist");
    // Worst first.
    for pair in paths.windows(2) {
        assert!(pair[0].slack <= pair[1].slack);
    }
    for path in &paths {
        // Slack consistent with the report.
        assert_eq!(sta.report().slack(path.endpoint), Some(path.slack));
        assert!((path.required - path.arrival - path.slack).abs() < 1e-9);
        // The path starts at a Q pin (register launch) and ends at a D pin.
        let first = d.pin(path.pins[0]);
        let last = d.pin(*path.pins.last().unwrap());
        assert!(
            matches!(first.kind, mbr_netlist::PinKind::Q(_)),
            "{:?}",
            first.kind
        );
        assert!(matches!(last.kind, mbr_netlist::PinKind::D(_)));
        // Each register-to-register hop in this pipeline has exactly two
        // pins: Q then the next D.
        assert_eq!(path.pins.len(), 2);
        let _ = regs.len();
    }
}

#[test]
fn worst_paths_walk_through_gates() {
    let lib = standard_library();
    let mut d = Design::new("t", die());
    let clk = d.add_net("clk");
    let cell = lib.cell_by_name("DFF_1X1").unwrap();
    let r0 = d.add_register(
        "r0",
        &lib,
        cell,
        Point::new(0, 0),
        RegisterAttrs::clocked(clk),
    );
    let r1 = d.add_register(
        "r1",
        &lib,
        cell,
        Point::new(30_000, 0),
        RegisterAttrs::clocked(clk),
    );
    let m = d.add_comb_model(CombModel::buffer());
    let g = d.add_comb("g", m, Point::new(15_000, 0));
    let a = d.add_net("a");
    let b = d.add_net("b");
    d.connect(d.find_pin(r0, PinKind::Q(0)).unwrap(), a);
    d.connect(d.find_pin(g, PinKind::GateIn(0)).unwrap(), a);
    d.connect(d.find_pin(g, PinKind::GateOut).unwrap(), b);
    d.connect(d.find_pin(r1, PinKind::D(0)).unwrap(), b);
    let sta = Sta::new(&d, &lib, DelayModel::default()).unwrap();
    let paths = sta.worst_paths(1);
    assert_eq!(paths.len(), 1);
    // Q -> gate in -> gate out -> D: four pins.
    assert_eq!(paths[0].pins.len(), 4);
}

#[test]
fn slack_histogram_partitions_all_endpoints() {
    let lib = standard_library();
    let (d, _) = pipeline(&lib, 40_000, 6);
    let sta = Sta::new(&d, &lib, DelayModel::default()).unwrap();
    let (lo, hi, counts) = sta.report().slack_histogram(4);
    assert!(lo <= hi);
    assert_eq!(counts.len(), 4);
    assert_eq!(
        counts.iter().sum::<usize>(),
        sta.report().endpoints().len(),
        "every endpoint lands in a bucket"
    );
    // Degenerate requests.
    let (_, _, empty) = sta.report().slack_histogram(0);
    assert!(empty.is_empty());
}

#[test]
fn moving_a_non_critical_sink_refreshes_the_driving_gates_input_required() {
    // src.Q → buffer → {a.D far away, b.D nearby}: `a` sets the buffer
    // output's required time. Moving `b` off the net's bounding box grows
    // the buffer's load, so its delay and the required time at its input
    // change even though the output's required time does not.
    let lib = standard_library();
    let mut d = Design::new("fanout", die());
    let clk = d.add_net("clk");
    let cell = lib.cell_by_name("DFF_1X1").unwrap();
    let reg = |d: &mut Design, name: &str, x: i64, y: i64| {
        d.add_register(
            name,
            &lib,
            cell,
            Point::new(x, y),
            RegisterAttrs::clocked(clk),
        )
    };
    let src = reg(&mut d, "src", 1_000, 600);
    let a = reg(&mut d, "a", 60_000, 600);
    let b = reg(&mut d, "b", 8_000, 600);
    let buf_model = d.add_comb_model(CombModel::buffer());
    let buf = d.add_comb("buf", buf_model, Point::new(5_000, 600));
    let n_in = d.add_net("n_in");
    d.connect(d.find_pin(src, PinKind::Q(0)).unwrap(), n_in);
    d.connect(d.find_pin(buf, PinKind::GateIn(0)).unwrap(), n_in);
    let n_out = d.add_net("n_out");
    d.connect(d.find_pin(buf, PinKind::GateOut).unwrap(), n_out);
    d.connect(d.find_pin(a, PinKind::D(0)).unwrap(), n_out);
    d.connect(d.find_pin(b, PinKind::D(0)).unwrap(), n_out);
    let model = DelayModel::default();
    let mut sta = Sta::new(&d, &lib, model).unwrap();
    let out = d.find_pin(buf, PinKind::GateOut).unwrap();
    let input = d.find_pin(buf, PinKind::GateIn(0)).unwrap();
    let out_required = sta.report().required(out);
    let in_required = sta.report().required(input);

    d.inst_mut(b).loc = Point::new(8_000, 30_000);
    sta.update_after_change(&d, &lib, &[b]);
    let full = Sta::new(&d, &lib, model).unwrap();
    assert_eq!(
        full.report().required(out),
        out_required,
        "`a` stays critical"
    );
    assert_ne!(
        full.report().required(input),
        in_required,
        "the buffer slowed"
    );
    for (_, inst) in d.live_insts() {
        for &p in &inst.pins {
            assert_eq!(
                sta.report().arrival(p),
                full.report().arrival(p),
                "arrival at {p}"
            );
            assert_eq!(
                sta.report().required(p),
                full.report().required(p),
                "required at {p}"
            );
        }
    }
}
