//! Parallel == serial: the flow promises bit-identical results at every
//! thread count ([`mbr::core::ComposerOptions::threads`], fed by
//! `MBR_THREADS`). These tests run every workload preset at 1, 2, and 8
//! worker threads and require identical outcomes (metrics, selected
//! merges, diagnostics) and identical observability counter totals — the
//! executor collects in input order and worker events are buffered and
//! replayed deterministically, so nothing may depend on scheduling.

use std::sync::Arc;

use mbr::check::Paranoia;
use mbr::core::{ComposeOutcome, Composer, ComposerOptions};
use mbr::liberty::standard_library;
use mbr::obs::summary::Summary;
use mbr::obs::{
    validate_trace, with_clock, with_sink, CounterTotals, Histogram, MockClock, ObsSink, Recorder,
    Tee, TraceEvent,
};
use mbr::workloads::{all_presets, DesignSpec};

fn options_for(name: &str, threads: usize) -> ComposerOptions {
    // Tight enumeration/solver budgets and checks on one preset only keep
    // the debug-mode matrix (5 presets x 3 thread counts) affordable.
    // Determinism is a structural property of the executor — it must hold
    // at any budget and paranoia level, so the trims lose no coverage;
    // d1 keeps its checkpoints so diagnostic replay is exercised too.
    ComposerOptions {
        threads,
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

/// Everything about a run that must not depend on the thread count:
/// the outcome with its wall-clock timings zeroed (they legitimately
/// vary), plus the totals of every counter the flow emitted.
fn snapshot(outcome: ComposeOutcome, totals: &CounterTotals) -> (String, String) {
    let scrubbed = ComposeOutcome {
        timings: Default::default(),
        ..outcome
    };
    (format!("{scrubbed:?}"), format!("{:?}", totals.totals()))
}

/// The thread-count-invariant view of a run's histograms: non-timing
/// histograms must match bucket-for-bucket (and hence quantile-for-
/// quantile); timing-valued ones carry wall-clock values, so only their
/// observation counts are part of the contract.
fn hist_snapshot(events: &[TraceEvent]) -> String {
    let summary = Summary::from_events(events);
    let mut out = String::new();
    for (name, data) in &summary.hists {
        if Histogram::from_name(name).is_some_and(Histogram::is_timing) {
            out.push_str(&format!("{name} count={}\n", data.count()));
        } else {
            out.push_str(&format!(
                "{name} {data:?} p50={} p90={} p99={}\n",
                data.quantile(0.5),
                data.quantile(0.9),
                data.quantile(0.99)
            ));
        }
    }
    out
}

/// A counter-totals + event-recorder tee for snapshotting a run.
fn tee_sinks() -> (Arc<CounterTotals>, Arc<Recorder>, Arc<Tee>) {
    let totals = Arc::new(CounterTotals::default());
    let rec = Arc::new(Recorder::default());
    let tee = Arc::new(Tee::new(vec![
        totals.clone() as Arc<dyn ObsSink>,
        rec.clone() as Arc<dyn ObsSink>,
    ]));
    (totals, rec, tee)
}

fn run_flow(spec: &DesignSpec, threads: usize) -> (String, String, String) {
    let lib = standard_library();
    let mut design = spec.generate(&lib);
    let composer = Composer::new(options_for(&spec.name, threads), spec.delay_model());
    let (totals, rec, tee) = tee_sinks();
    let outcome = with_sink(tee, || composer.compose(&mut design, &lib)).expect("flow succeeds");
    let (outcome, counters) = snapshot(outcome, &totals);
    (outcome, counters, hist_snapshot(&rec.events()))
}

#[test]
fn flow_is_identical_at_every_thread_count() {
    for spec in all_presets() {
        let serial = run_flow(&spec, 1);
        for threads in [2, 8] {
            let parallel = run_flow(&spec, threads);
            assert_eq!(
                serial.0, parallel.0,
                "{}: outcome differs at {threads} threads",
                spec.name
            );
            assert_eq!(
                serial.1, parallel.1,
                "{}: counter totals differ at {threads} threads",
                spec.name
            );
            assert_eq!(
                serial.2, parallel.2,
                "{}: histograms differ at {threads} threads",
                spec.name
            );
        }
    }
}

#[test]
fn session_recompose_is_identical_at_every_thread_count() {
    // The incremental session layers its reuse (STA refresh, partition
    // memo) on top of the parallel executor; reuse decisions are
    // content-keyed, so outcomes and counter totals must stay bit-identical
    // at every thread count — through the ECO pass as much as the initial
    // full pass.
    use mbr::core::CompositionSession;
    use mbr::workloads::eco_script_for;

    for spec in all_presets() {
        let run = |threads: usize| {
            let lib = standard_library();
            let design = spec.generate(&lib);
            let script = eco_script_for(&spec, &design, &lib, 8);
            let (totals, rec, tee) = tee_sinks();
            let (outcome, text) = with_sink(tee, || {
                let mut session = CompositionSession::open(
                    design,
                    &lib,
                    options_for(&spec.name, threads),
                    spec.delay_model(),
                )
                .expect("session opens");
                session.apply_script(&script).expect("ecos apply");
                session.recompose().expect("recompose succeeds");
                (
                    session.outcome().clone(),
                    session.composed().to_design_text(&lib),
                )
            });
            let (outcome, counters) = snapshot(outcome, &totals);
            (outcome, counters, hist_snapshot(&rec.events()), text)
        };
        let serial = run(1);
        for threads in [2, 8] {
            let parallel = run(threads);
            assert_eq!(
                serial.0, parallel.0,
                "{}: session outcome differs at {threads} threads",
                spec.name
            );
            assert_eq!(
                serial.1, parallel.1,
                "{}: session counter totals differ at {threads} threads",
                spec.name
            );
            assert_eq!(
                serial.2, parallel.2,
                "{}: session histograms differ at {threads} threads",
                spec.name
            );
            assert_eq!(
                serial.3, parallel.3,
                "{}: composed design differs at {threads} threads",
                spec.name
            );
        }
    }
}

#[test]
fn decomposition_flow_is_identical_at_every_thread_count() {
    // The decomposition entry point adds the second parallel layer (the
    // two speculative arms under `join`) on top of the per-partition ones.
    let spec = mbr::workloads::d4();
    let run = |threads: usize| {
        let lib = standard_library();
        let mut design = spec.generate(&lib);
        let composer = Composer::new(options_for(&spec.name, threads), spec.delay_model());
        let (totals, rec, tee) = tee_sinks();
        let outcome = with_sink(tee, || {
            composer.compose_with_decomposition(&mut design, &lib)
        })
        .expect("flow succeeds");
        let (outcome, counters) = snapshot(outcome, &totals);
        (outcome, counters, hist_snapshot(&rec.events()))
    };
    let serial = run(1);
    for threads in [2, 8] {
        assert_eq!(serial, run(threads), "differs at {threads} threads");
    }
}

#[test]
fn parallel_trace_has_the_serial_event_sequence() {
    // Span ids and mock-clock readings may be assigned differently when
    // workers interleave, but the *sequence* of events — which spans open,
    // which counters fire, with which values, in which order — is part of
    // the determinism contract, and the merged trace must still validate.
    let spec = all_presets().into_iter().next().expect("d1 exists");
    let events_at = |threads: usize| {
        let lib = standard_library();
        let mut design = spec.generate(&lib);
        let composer = Composer::new(options_for(&spec.name, threads), spec.delay_model());
        let rec = Arc::new(Recorder::default());
        with_clock(Arc::new(MockClock::new(1)), || {
            with_sink(rec.clone(), || {
                composer.compose(&mut design, &lib).expect("flow succeeds");
            })
        });
        rec.events()
    };
    let shape = |events: &[TraceEvent]| -> Vec<String> {
        events
            .iter()
            .map(|e| match e {
                TraceEvent::Span { name, .. } => format!("span {name}"),
                TraceEvent::Counter { name, value, .. } => format!("counter {name}={value}"),
                TraceEvent::Gauge { name, value, .. } => format!("gauge {name}={value}"),
                // Timing-valued histograms read the (mock) clock, whose
                // readings shift with worker interleaving; their counts
                // and every other histogram are part of the contract.
                TraceEvent::Hist { name, data, .. } => {
                    if Histogram::from_name(name).is_some_and(Histogram::is_timing) {
                        format!("hist {name} count={}", data.count())
                    } else {
                        format!("hist {name} {data:?}")
                    }
                }
            })
            .collect()
    };
    let serial = events_at(1);
    let parallel = events_at(8);
    validate_trace(&serial).expect("serial trace validates");
    validate_trace(&parallel).expect("parallel trace validates");
    assert_eq!(shape(&serial), shape(&parallel));
}
