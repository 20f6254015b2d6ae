//! The incremental-session equivalence contract: for every preset and a
//! seeded ECO script, `CompositionSession::recompose` must produce a
//! composed design *byte-identical* — and an outcome equal modulo
//! wall-clock — to a fresh batch `compose` of the same mutated design.
//! Plus the session lifecycle invariants: a clean `recompose` is a no-op,
//! a second `recompose` changes nothing, a rejected ECO leaves the session
//! untouched, a long chain of single-ECO passes matches batch after every
//! pass, and the partition memo holds the last pass only.

use std::sync::Arc;

use mbr::check::Paranoia;
use mbr::core::{
    apply_eco, CompatGraph, ComposeOutcome, Composer, ComposerOptions, CompositionSession, Eco,
    EcoError, EcoScript,
};
use mbr::liberty::standard_library;
use mbr::obs::{with_sink, CounterTotals, ObsSink};
use mbr::sta::Sta;
use mbr::workloads::{all_presets, d1, d3, eco_script_for, DesignSpec};

fn options_for(name: &str) -> ComposerOptions {
    // Tight budgets keep the debug-mode matrix affordable; equivalence is a
    // structural property of the reuse logic, so it must hold at any
    // budget. d1 keeps cheap checkpoints so diagnostics are compared too.
    ComposerOptions {
        paranoia: if name == "d1" {
            Paranoia::Cheap
        } else {
            Paranoia::Off
        },
        max_candidates_per_partition: 1_000,
        subclique_visit_multiplier: 8,
        node_budget: 10_000,
        ..ComposerOptions::default()
    }
}

/// The outcome with wall-clock scrubbed — the only field two equivalent
/// runs may legitimately disagree on.
fn scrubbed(outcome: &ComposeOutcome) -> String {
    let o = ComposeOutcome {
        timings: Default::default(),
        ..outcome.clone()
    };
    format!("{o:?}")
}

/// Runs the differential for one preset and script: session arm vs batch
/// arm, asserting byte-identical designs and equal scrubbed outcomes.
fn assert_differential(spec: &DesignSpec, script: &EcoScript) {
    let lib = standard_library();
    let design = spec.generate(&lib);
    let options = options_for(&spec.name);
    let model = spec.delay_model();

    let mut session = CompositionSession::open(design.clone(), &lib, options.clone(), model)
        .expect("session opens");
    session.apply_script(script).expect("ecos apply");
    assert!(session.is_dirty());
    session.recompose().expect("recompose succeeds");
    assert!(!session.is_dirty());
    assert_eq!(session.passes(), 2, "open + one eco pass");

    let mut batch_design = design;
    let mut batch_model = model;
    for eco in &script.ecos {
        apply_eco(&mut batch_design, &mut batch_model, &lib, eco).expect("ecos apply");
    }
    let batch_outcome = Composer::new(options, batch_model)
        .compose(&mut batch_design, &lib)
        .expect("batch flow succeeds");

    assert_eq!(
        session.composed().to_design_text(&lib),
        batch_design.to_design_text(&lib),
        "{}: composed design diverged from batch",
        spec.name
    );
    assert_eq!(
        scrubbed(session.outcome()),
        scrubbed(&batch_outcome),
        "{}: outcome diverged from batch",
        spec.name
    );
}

#[test]
fn recompose_matches_batch_on_every_preset() {
    for spec in all_presets() {
        let lib = standard_library();
        let design = spec.generate(&lib);
        let script = eco_script_for(&spec, &design, &lib, 12);
        assert_differential(&spec, &script);
    }
}

#[test]
fn structural_ecos_match_batch_too() {
    // Remove/add/tighten force the rebuild path (plus the partition memo
    // across a structural pass); they must stay byte-identical as well.
    let spec = d1();
    let lib = standard_library();
    let design = spec.generate(&lib);
    let movable = design
        .registers()
        .filter(|(_, inst)| !inst.register_attrs().expect("register").fixed)
        .map(|(_, inst)| inst.name.clone())
        .take(2)
        .collect::<Vec<_>>();
    let script = EcoScript {
        ecos: vec![
            Eco::Remove {
                name: movable[0].clone(),
            },
            Eco::Add {
                template: movable[1].clone(),
                name: "eco_new_reg".into(),
                x: 600,
                y: 600,
            },
            Eco::TightenClock {
                period_ps: spec.clock_period * 0.98,
            },
        ],
    };
    assert!(script.ecos.iter().all(|e| e.is_structural()));
    assert_differential(&spec, &script);
}

/// What a session reuses, preset by preset. After the same ECO script, an
/// incremental recompose must do exactly batch's compatibility,
/// legalization and useful-skew work (those stages run the batch code every
/// pass), strictly less timing seeding and candidate enumeration, and it
/// must reuse partitions, which batch never does.
#[test]
fn recompose_reuses_only_the_stages_that_pay() {
    for spec in all_presets() {
        let lib = standard_library();
        let design = spec.generate(&lib);
        let options = options_for(&spec.name);
        let model = spec.delay_model();
        let script = eco_script_for(&spec, &design, &lib, 12);

        let mut session = CompositionSession::open(design.clone(), &lib, options.clone(), model)
            .expect("session opens");
        session.apply_script(&script).expect("ecos apply");
        let incr_totals = Arc::new(CounterTotals::default());
        with_sink(incr_totals.clone() as Arc<dyn ObsSink>, || {
            session.recompose()
        })
        .expect("recompose succeeds");

        let mut batch_design = design;
        let mut batch_model = model;
        for eco in &script.ecos {
            apply_eco(&mut batch_design, &mut batch_model, &lib, eco).expect("ecos apply");
        }
        let batch_totals = Arc::new(CounterTotals::default());
        with_sink(batch_totals.clone() as Arc<dyn ObsSink>, || {
            Composer::new(options, batch_model).compose(&mut batch_design, &lib)
        })
        .expect("batch flow succeeds");

        let incr = incr_totals.totals();
        let batch = batch_totals.totals();
        let get = |totals: &std::collections::BTreeMap<String, u64>, key: &str| {
            totals.get(key).copied().unwrap_or(0)
        };

        for key in [
            "core.compat.registers",
            "core.compat.edges",
            "place.legalize.gap_probes",
            "place.legalize.cells_moved",
            "cts.skew.adjusted",
        ] {
            assert_eq!(
                get(&incr, key),
                get(&batch, key),
                "{}: {key} differs from batch",
                spec.name
            );
        }

        let seed_pins =
            |totals| get(totals, "sta.full.seed_pins") + get(totals, "sta.incremental.seed_pins");
        assert!(
            seed_pins(&incr) < seed_pins(&batch),
            "{}: session seeded {} timing pins, batch {}",
            spec.name,
            seed_pins(&incr),
            seed_pins(&batch)
        );
        let visited = "core.candidates.subsets_visited";
        assert!(
            get(&incr, visited) < get(&batch, visited),
            "{}: session visited {} subsets, batch {}",
            spec.name,
            get(&incr, visited),
            get(&batch, visited)
        );

        let key = "core.session.partitions_reused";
        assert!(get(&incr, key) > 0, "{}: session {key} is 0", spec.name);
        assert_eq!(get(&batch, key), 0, "{}: batch {key} is not 0", spec.name);
    }
}

/// The partition memo and the timing graph live across passes, so a long
/// chain of one-ECO passes must match batch after *every* pass, not only
/// after one.
#[test]
fn chains_of_single_eco_passes_match_batch_after_every_pass() {
    for spec in [d1(), d3()] {
        let lib = standard_library();
        let design = spec.generate(&lib);
        let options = options_for(&spec.name);
        let model = spec.delay_model();
        let script = eco_script_for(&spec, &design, &lib, 12);
        let mut session = CompositionSession::open(design.clone(), &lib, options.clone(), model)
            .expect("session opens");
        let mut batch_design = design;
        let mut batch_model = model;
        for (i, eco) in script.ecos.iter().enumerate() {
            let at = format!("{} pass {} ({eco})", spec.name, i + 1);
            session.apply(eco).expect("eco applies");
            session.recompose().expect("recompose succeeds");

            apply_eco(&mut batch_design, &mut batch_model, &lib, eco).expect("eco applies");
            let mut composed = batch_design.clone();
            let batch_outcome = Composer::new(options.clone(), batch_model)
                .compose(&mut composed, &lib)
                .expect("batch flow succeeds");

            assert_eq!(
                session.composed().to_design_text(&lib),
                composed.to_design_text(&lib),
                "{at}: composed design diverged from batch"
            );
            assert_eq!(
                scrubbed(session.outcome()),
                scrubbed(&batch_outcome),
                "{at}: outcome diverged from batch"
            );
        }
        assert_eq!(session.passes(), 13, "open + twelve eco passes");
    }
}

/// The partition memo holds the last pass only. Pass 1 moves a composable
/// register, which changes the keys of the partitions it reaches; pass 2
/// moves it back, onto pass 0's design, and must recompute those partitions
/// rather than find pass 0's entries. Both passes match batch byte for
/// byte.
#[test]
fn a_move_and_its_undo_recompute_what_the_memo_dropped() {
    let spec = d1();
    let lib = standard_library();
    let design = spec.generate(&lib);
    let options = options_for(&spec.name);
    let model = spec.delay_model();
    let sta = Sta::new(&design, &lib, model).expect("timing analyzes");
    let compat = CompatGraph::build(&design, &lib, &sta, &options);
    let reg = design.inst(compat.regs[0].inst);
    let (name, home) = (reg.name.clone(), reg.loc);
    let dx = if home.x + reg.width + 1_000 <= design.die().hi().x {
        1_000
    } else {
        -1_000
    };
    let ecos = [
        Eco::Move {
            name: name.clone(),
            x: home.x + dx,
            y: home.y,
        },
        Eco::Move {
            name,
            x: home.x,
            y: home.y,
        },
    ];

    let mut session = CompositionSession::open(design.clone(), &lib, options.clone(), model)
        .expect("session opens");
    let mut batch_design = design;
    let mut batch_model = model;
    let mut recomputed = Vec::new();
    for (i, eco) in ecos.iter().enumerate() {
        let at = format!("pass {} ({eco})", i + 1);
        session.apply(eco).expect("eco applies");
        let totals = Arc::new(CounterTotals::default());
        with_sink(totals.clone() as Arc<dyn ObsSink>, || session.recompose())
            .expect("recompose succeeds");
        let key = "core.session.partitions_recomputed";
        recomputed.push(totals.totals().get(key).copied().unwrap_or(0));

        apply_eco(&mut batch_design, &mut batch_model, &lib, eco).expect("eco applies");
        let mut composed = batch_design.clone();
        let batch_outcome = Composer::new(options.clone(), batch_model)
            .compose(&mut composed, &lib)
            .expect("batch flow succeeds");
        assert_eq!(
            session.composed().to_design_text(&lib),
            composed.to_design_text(&lib),
            "{at}: composed design diverged from batch"
        );
        assert_eq!(
            scrubbed(session.outcome()),
            scrubbed(&batch_outcome),
            "{at}: outcome diverged from batch"
        );
    }
    assert!(recomputed[0] > 0, "the move must change some partition key");
    assert!(
        recomputed[1] > 0,
        "the undo must recompute the partitions pass 1 displaced"
    );
}

#[test]
fn clean_recompose_is_a_noop_and_recompose_is_idempotent() {
    let spec = d1();
    let lib = standard_library();
    let design = spec.generate(&lib);
    let script = eco_script_for(&spec, &design, &lib, 6);
    let mut session =
        CompositionSession::open(design, &lib, options_for(&spec.name), spec.delay_model())
            .expect("session opens");

    // No pending ECO: recompose runs nothing at all.
    assert!(!session.is_dirty());
    let before = scrubbed(session.outcome());
    let text_before = session.composed().to_design_text(&lib);
    session.recompose().expect("noop recompose");
    assert_eq!(session.passes(), 1, "clean recompose must not run a pass");
    assert_eq!(scrubbed(session.outcome()), before);

    // One dirty pass, then a second recompose with nothing new pending.
    session.apply_script(&script).expect("ecos apply");
    session.recompose().expect("dirty recompose");
    assert_eq!(session.passes(), 2);
    let after = scrubbed(session.outcome());
    let text_after = session.composed().to_design_text(&lib);
    assert_ne!(text_before, text_after, "the ecos moved registers");
    session.recompose().expect("second recompose");
    assert_eq!(session.passes(), 2, "second recompose must be a no-op");
    assert_eq!(scrubbed(session.outcome()), after);
    assert_eq!(session.composed().to_design_text(&lib), text_after);
}

#[test]
fn rejected_ecos_leave_the_session_clean() {
    let spec = d1();
    let lib = standard_library();
    let design = spec.generate(&lib);
    let mut session =
        CompositionSession::open(design, &lib, options_for(&spec.name), spec.delay_model())
            .expect("session opens");
    let err = session
        .apply(&Eco::Move {
            name: "no_such_register".into(),
            x: 0,
            y: 0,
        })
        .unwrap_err();
    assert_eq!(err, EcoError::UnknownInstance("no_such_register".into()));
    assert!(
        !session.is_dirty(),
        "a rejected eco must not dirty anything"
    );
    let err = session
        .apply(&Eco::TightenClock { period_ps: -1.0 })
        .unwrap_err();
    assert_eq!(err, EcoError::BadPeriod(-1.0));
    assert!(!session.is_dirty());
    let err = session
        .apply(&Eco::TightenClock {
            period_ps: f64::INFINITY,
        })
        .unwrap_err();
    assert_eq!(err, EcoError::BadPeriod(f64::INFINITY));
    assert!(!session.is_dirty());

    // A footprint whose far corner overflows i64 is outside the die, for
    // both a moved and an added register.
    let reg = session
        .design()
        .registers()
        .next()
        .map(|(_, inst)| inst.name.clone())
        .expect("d1 has registers");
    let err = session
        .apply(&Eco::Move {
            name: reg.clone(),
            x: i64::MAX,
            y: 0,
        })
        .unwrap_err();
    assert_eq!(err, EcoError::OutsideDie(reg.clone()));
    assert!(!session.is_dirty());
    let err = session
        .apply(&Eco::Add {
            template: reg,
            name: "r_overflow".into(),
            x: i64::MAX,
            y: 0,
        })
        .unwrap_err();
    assert_eq!(err, EcoError::OutsideDie("r_overflow".into()));
    assert!(!session.is_dirty());
}
