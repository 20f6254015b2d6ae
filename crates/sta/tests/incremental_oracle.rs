//! Incremental-STA oracle test: random sequences of placement moves,
//! clock-skew edits, register resizes, touched-but-unedited instances and
//! bulk offset updates on the `d1()` workload must leave
//! [`Sta::update_after_change`] in exactly the state a full re-analysis
//! produces — *bitwise* the same arrivals, requireds, slacks, TNS, and
//! failing-endpoint count at every pin. The composition session's
//! batch-equivalence guarantee builds on this exactness, so the comparison
//! is `==`, not an epsilon. The summary is folded on read, so every
//! comparison reads it afresh after the update it follows.

use std::sync::Arc;

use mbr_geom::Point;
use mbr_liberty::{standard_library, CellId, Library};
use mbr_netlist::{Design, InstId};
use mbr_obs::{with_sink, CounterTotals};
use mbr_sta::{DelayModel, Sta, TimingReport};
use mbr_test::Rng;

/// The d1 design, its analyzer and its registers.
fn d1_setup(lib: &Library) -> (Design, DelayModel, Vec<InstId>) {
    let spec = mbr_workloads::d1();
    let design = spec.generate(lib);
    let model = DelayModel {
        clock_period: spec.clock_period,
        ..DelayModel::default()
    };
    let regs = design.registers().map(|(id, _)| id).collect();
    (design, model, regs)
}

/// Another cell `reg` may be resized to (same class and width), if any.
fn resize_target(design: &Design, lib: &Library, reg: InstId, rng: &mut Rng) -> Option<CellId> {
    let current = design.inst(reg).register_cell()?;
    let c = lib.cell(current);
    let options: Vec<CellId> = lib
        .cells_of(c.class, c.width)
        .filter(|&id| id != current)
        .collect();
    (!options.is_empty()).then(|| options[rng.gen_range(0..options.len())])
}

/// Sets a random clock offset on `reg`.
fn skew(design: &mut Design, reg: InstId, rng: &mut Rng) {
    design
        .inst_mut(reg)
        .register_attrs_mut()
        .expect("registers have attrs")
        .clock_offset = rng.gen_range(-50.0..50.0);
}

/// One random edit of `regs`: a move anywhere on the die, a clock offset,
/// a resize, or nothing. Returns the register to list as touched.
fn random_edit(design: &mut Design, lib: &Library, regs: &[InstId], rng: &mut Rng) -> InstId {
    let die = design.die();
    let reg = regs[rng.gen_range(0..regs.len())];
    match rng.gen_range(0..4u32) {
        0 => {
            let x = rng.gen_range(die.lo().x..die.hi().x);
            let y = rng.gen_range(die.lo().y..die.hi().y);
            design.inst_mut(reg).loc = Point::new(x, y);
        }
        1 => skew(design, reg, rng),
        2 => {
            // Resize: pin capacitances and the launch delay change while
            // every pin stays put. Fixed registers refuse.
            if let Some(cell) = resize_target(design, lib, reg, rng) {
                let _ = design.resize_register(reg, lib, cell);
            }
        }
        // Touched but not edited.
        _ => {}
    }
    reg
}

/// `sta.summary_folds` counted while `f` runs.
fn summary_folds(f: impl FnOnce()) -> u64 {
    let totals = Arc::new(CounterTotals::default());
    with_sink(totals.clone(), f);
    totals
        .totals()
        .get("sta.summary_folds")
        .copied()
        .unwrap_or(0)
}

/// Asserts the incremental analyzer equals a from-scratch one, bitwise.
fn assert_matches_full(sta: &Sta, design: &Design, lib: &Library, model: DelayModel, at: &str) {
    assert_report_matches(sta.report(), design, lib, model, at);
}

/// Asserts `report` equals a from-scratch analysis of `design`, bitwise.
fn assert_report_matches(
    report: &TimingReport,
    design: &Design,
    lib: &Library,
    model: DelayModel,
    at: &str,
) {
    let full = Sta::new(design, lib, model).expect("still acyclic");
    for (_, inst) in design.live_insts() {
        for &p in &inst.pins {
            for (what, a, b) in [
                ("arrival", report.arrival(p), full.report().arrival(p)),
                ("required", report.required(p), full.report().required(p)),
                ("slack", report.slack(p), full.report().slack(p)),
            ] {
                match (a, b) {
                    (Some(x), Some(y)) => assert!(
                        x.to_bits() == y.to_bits(),
                        "{at}: {what} mismatch at {p}: incremental {x} vs full {y}"
                    ),
                    (None, None) => {}
                    other => panic!("{at}: {what} presence mismatch at {p}: {other:?}"),
                }
            }
        }
    }
    assert!(
        report.tns().to_bits() == full.report().tns().to_bits(),
        "{at}: tns drifted: incremental {} vs full {}",
        report.tns(),
        full.report().tns()
    );
    assert!(
        report.wns().to_bits() == full.report().wns().to_bits(),
        "{at}: wns drifted"
    );
    assert_eq!(
        report.failing_endpoints(),
        full.report().failing_endpoints(),
        "{at}: failing endpoint count drifted"
    );
    assert_eq!(
        report.endpoints(),
        full.report().endpoints(),
        "{at}: endpoint list drifted"
    );
}

/// One randomized edit session: `rounds` rounds of `edits_per_round` edits,
/// checking the incremental report against a from-scratch analysis after
/// every round.
fn run_session(seed: u64, rounds: usize, edits_per_round: usize) {
    let lib = standard_library();
    let (mut design, model, regs) = d1_setup(&lib);
    let mut sta = Sta::new(&design, &lib, model).expect("d1 is acyclic");
    let mut rng = Rng::seed_from_u64(seed);

    for round in 0..rounds {
        let touched: Vec<InstId> = (0..edits_per_round)
            .map(|_| random_edit(&mut design, &lib, &regs, &mut rng))
            .collect();
        let at = format!("seed {seed:#x} round {round}");
        sta.update_after_change(&design, &lib, &touched);
        assert_matches_full(&sta, &design, &lib, model, &at);

        // The useful-skew rollback: restore many offsets, then one bulk
        // update over the whole register list.
        for &reg in regs.iter().step_by(3) {
            skew(&mut design, reg, &mut rng);
        }
        let at = format!("{at} bulk offsets");
        sta.update_after_change(&design, &lib, &regs);
        assert_matches_full(&sta, &design, &lib, model, &at);
    }
}

#[test]
fn incremental_matches_full_reanalysis_over_random_edit_sequences() {
    // Three independent sessions: sparse edits, bursty edits, long drift.
    run_session(0xD1_0001, 4, 1);
    run_session(0xD1_0002, 3, 8);
    run_session(0xD1_0003, 2, 40);
}

#[test]
fn an_unread_update_sequence_folds_the_summary_once() {
    // The summary is folded on read, not per update: a whole sequence of
    // updates with no read in between folds nothing, and the single fold
    // at the end is bitwise the full analysis's.
    let lib = standard_library();
    let (mut design, model, regs) = d1_setup(&lib);
    let mut sta = Sta::new(&design, &lib, model).expect("d1 is acyclic");
    let mut rng = Rng::seed_from_u64(0xD1_0005);
    let folds = summary_folds(|| {
        for _ in 0..12 {
            let touched: Vec<InstId> = (0..3)
                .map(|_| random_edit(&mut design, &lib, &regs, &mut rng))
                .collect();
            sta.update_after_change(&design, &lib, &touched);
        }
    });
    assert_eq!(folds, 0, "an update folded the summary");
    let folds = summary_folds(|| {
        let _ = (sta.report().wns(), sta.report().tns());
        let _ = sta.report().failing_endpoints();
    });
    assert_eq!(folds, 1, "three reads of one state fold once");
    assert_matches_full(&sta, &design, &lib, model, "after an unread sequence");
}

#[test]
fn a_clone_of_a_stale_report_folds_its_own_state() {
    // A report cloned after an update but before any read carries no
    // summary; reading it folds the clone's own timing, even after the
    // analyzer it came from has moved on.
    let lib = standard_library();
    let (mut design, model, regs) = d1_setup(&lib);
    let mut sta = Sta::new(&design, &lib, model).expect("d1 is acyclic");
    let mut rng = Rng::seed_from_u64(0xD1_0006);
    let _ = sta.report().tns();
    let touched: Vec<InstId> = (0..8)
        .map(|_| random_edit(&mut design, &lib, &regs, &mut rng))
        .collect();
    sta.update_after_change(&design, &lib, &touched);
    let snapshot = sta.report().clone();
    let snapshot_design = design.clone();

    let touched: Vec<InstId> = (0..8)
        .map(|_| random_edit(&mut design, &lib, &regs, &mut rng))
        .collect();
    sta.update_after_change(&design, &lib, &touched);
    assert_report_matches(&snapshot, &snapshot_design, &lib, model, "stale clone");
    assert_matches_full(&sta, &design, &lib, model, "the analyzer it came from");
}

#[test]
fn offset_only_updates_refresh_no_net() {
    // A clock offset moves launch and capture times but no pin, so no net's
    // arcs or load can change: the update must refresh none of them.
    let lib = standard_library();
    let (mut design, model, regs) = d1_setup(&lib);
    let mut sta = Sta::new(&design, &lib, model).expect("d1 is acyclic");
    let mut rng = Rng::seed_from_u64(0xD1_0004);
    let touched: Vec<InstId> = regs.iter().copied().step_by(7).collect();
    for &reg in &touched {
        skew(&mut design, reg, &mut rng);
    }
    let totals = Arc::new(CounterTotals::default());
    with_sink(totals.clone(), || {
        sta.update_after_change(&design, &lib, &touched)
    });
    let counts = totals.totals();
    assert_eq!(counts.get("sta.incremental_updates"), Some(&1));
    assert_eq!(
        counts.get("sta.incremental.nets_touched"),
        None,
        "an offset-only update refreshed nets"
    );
    assert_matches_full(&sta, &design, &lib, model, "offset-only update");

    // A move does refresh nets: the moved register's clock, D and Q nets.
    let reg = touched[0];
    let loc = design.inst(reg).loc;
    design.inst_mut(reg).loc = Point::new(loc.x + 1_000, loc.y);
    let totals = Arc::new(CounterTotals::default());
    with_sink(totals.clone(), || {
        sta.update_after_change(&design, &lib, &[reg])
    });
    assert!(totals
        .totals()
        .get("sta.incremental.nets_touched")
        .is_some_and(|&n| n > 0));
    assert_matches_full(&sta, &design, &lib, model, "move");
}
