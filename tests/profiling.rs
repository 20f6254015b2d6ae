//! Acceptance tests for the perf observability suite on a real workload:
//! a serial d1 trace profiles into folded stacks whose exclusive times
//! telescope back to the root span's duration, two same-seed runs perfdiff
//! clean at different thread counts, and a failing `check` run with the
//! flight recorder armed dumps a trace that truncated validation accepts.

use std::sync::Arc;

use mbr::check::Paranoia;
use mbr::core::{Composer, ComposerOptions};
use mbr::liberty::standard_library;
use mbr::obs::perfdiff::diff_traces;
use mbr::obs::profile::{parse_folded, profile_events, to_folded};
use mbr::obs::summary::Summary;
use mbr::obs::{
    parse_trace, validate_trace_truncated, with_clock, with_sink, MockClock, Recorder, TraceEvent,
};
use mbr::workloads::{all_presets, DesignSpec};

/// d1 with the same debug-mode budget trims as tests/determinism.rs.
fn options_for(threads: usize) -> ComposerOptions {
    ComposerOptions {
        threads,
        paranoia: Paranoia::Cheap,
        max_candidates_per_partition: 1_000,
        subclique_visit_multiplier: 8,
        node_budget: 10_000,
        ..ComposerOptions::default()
    }
}

fn d1() -> DesignSpec {
    all_presets().into_iter().next().expect("d1 exists")
}

/// A full d1 compose under a mock clock, returning the recorded trace.
fn traced_run(threads: usize) -> Vec<TraceEvent> {
    let spec = d1();
    let lib = standard_library();
    let mut design = spec.generate(&lib);
    let composer = Composer::new(options_for(threads), spec.delay_model());
    let rec = Arc::new(Recorder::default());
    with_clock(Arc::new(MockClock::new(7)), || {
        with_sink(rec.clone(), || {
            composer.compose(&mut design, &lib).expect("flow succeeds");
        })
    });
    rec.events()
}

#[test]
fn d1_profile_telescopes_and_folded_round_trips() {
    // Serial run: every span closes inside its parent with no sibling
    // overlap, so the sum of exclusive times telescopes to the root
    // duration exactly — the acceptance bar for `mbr-profile`.
    let events = traced_run(1);
    let profile = profile_events(&events);
    assert!(profile.spans > 0, "flow emits spans");
    assert!(profile.root_ns > 0, "root span has nonzero duration");
    assert_eq!(profile.total_exclusive_ns(), profile.root_ns);

    // The collapsed-stack serialisation is lossless for the per-path
    // exclusive values the flamegraph is built from.
    let folded = to_folded(&profile);
    let stacks = parse_folded(&folded).expect("folded output parses");
    assert_eq!(stacks.len(), profile.paths.len());
    for (path, stats) in &profile.paths {
        assert_eq!(stacks.get(path), Some(&stats.exclusive_ns), "{path}");
    }
    assert_eq!(stacks.values().sum::<u64>(), profile.root_ns);
}

#[test]
fn same_seed_runs_perfdiff_clean_across_thread_counts() {
    // Two runs of the same seed must agree on every counter and every
    // non-timing histogram — the invariant the verify.sh zero-diff gate
    // rests on. Mock-clock timings may shift with worker interleaving,
    // which perfdiff reports as advisory flags, never failures.
    let serial = Summary::from_events(&traced_run(1));
    let parallel = Summary::from_events(&traced_run(4));
    let report = diff_traces(&serial, &parallel, 20.0);
    assert!(report.is_clean(), "unexpected diff:\n{}", report.render());
}

#[test]
fn failing_check_run_dumps_a_truncated_valid_flight_recorder_trace() {
    let dump = std::env::temp_dir().join(format!("mbr-flight-e2e-{}.jsonl", std::process::id()));
    std::fs::remove_file(&dump).ok();

    // A ring far smaller than the event stream of a full d1 check run, so
    // the dump is guaranteed to be a truncated window, not a whole trace.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_check"))
        .arg("d1")
        .env("MBR_CHECK_INJECT_FAIL", "1")
        .env("MBR_FLIGHT_RECORDER", "64")
        .env("MBR_FLIGHT_RECORDER_OUT", &dump)
        .env("MBR_THREADS", "1")
        .output()
        .expect("check binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("flight recorder: dumped"), "{stderr}");

    let text = std::fs::read_to_string(&dump).expect("dump written");
    let events = parse_trace(&text).expect("dump parses as JSONL trace");
    assert!(!events.is_empty(), "ring captured events");
    validate_trace_truncated(&events).expect("dump validates in truncated mode");
    std::fs::remove_file(&dump).ok();
}
