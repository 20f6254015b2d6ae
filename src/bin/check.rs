//! Standalone invariant checker: runs the full composition flow on one or
//! more workload presets under maximum paranoia and reports every
//! diagnostic the cross-stage checkers emit.
//!
//! ```text
//! cargo run --bin check -- [--report] [--eco-seed <n>] [d1|d2|d3|d4|d5|all]...
//! ```
//!
//! Defaults to `d1`. Exits nonzero when any error-severity diagnostic
//! fires, so CI can gate on it. Set `MBR_TRACE=<path>` to capture a JSONL
//! trace of the run; pass `--report` for a span/counter summary.
//!
//! With `--eco-seed <n>` the checker instead runs the *incremental
//! differential*: per preset it opens a [`mbr::core::CompositionSession`],
//! applies a deterministic ECO script (seeded from the preset seed and
//! `n`), recomposes incrementally, and asserts the composed design is
//! byte-identical — and the outcome equal modulo wall-clock — to a fresh
//! batch compose of the same mutated design. Any divergence is a bug in
//! the session's reuse logic and fails the run.
//!
//! Adding `--session-only` drops the batch arm and the comparison: the run
//! is just open → ECO script → recompose, so an `MBR_TRACE` capture holds
//! *only* the session's counters — the input `mbr-perfdiff --baseline
//! PERF_baseline_incr.json` gates. It pins the reduced timing and
//! enumeration work (`sta.incremental.seed_pins`,
//! `core.candidates.subsets_visited`) and the reuse
//! (`core.session.partitions_reused`) against regression to full-pass
//! behavior.

use std::fmt::Write as _;
use std::process::ExitCode;

use mbr::check::{check_mapping, check_netlist, check_scan, CheckReport, Paranoia};
use mbr::core::{apply_eco, infer_grid, Composer, ComposerOptions, CompositionSession};
use mbr::liberty::{standard_library, Library};
use mbr::obs::summary::Summary;
use mbr::workloads::{all_presets, eco_script_for, paper_presets, sweep_presets, DesignSpec};

/// ECOs per differential script: enough to exercise both the move and the
/// retarget profile and to touch several partitions.
const ECO_SCRIPT_LEN: usize = 16;

struct Args {
    specs: Vec<DesignSpec>,
    report: bool,
    eco_seed: Option<u64>,
    session_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: check [--report] [--eco-seed <n> [--session-only]] [d1|..|d8|all]...   (default: d1)\n\
         `all` expands to the scaled suite d1..d5; the paper-scale presets\n\
         d6..d8 must be named explicitly."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut report = false;
    let mut eco_seed = None;
    let mut session_only = false;
    let mut names = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => report = true,
            "--session-only" => session_only = true,
            "--eco-seed" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("missing value for --eco-seed");
                    usage()
                });
                eco_seed = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--eco-seed expects an integer, got `{v}`");
                    usage()
                }));
            }
            "--help" | "-h" => usage(),
            other => names.push(other.to_string()),
        }
    }
    let mut specs = Vec::new();
    if names.is_empty() {
        names.push("d1".to_string());
    }
    for name in &names {
        if name == "all" {
            specs.extend(all_presets());
        } else if let Some(spec) = all_presets()
            .into_iter()
            .chain(paper_presets())
            .find(|s| &s.name == name)
        {
            specs.push(spec);
        } else {
            eprintln!("unknown preset: {name}");
            usage();
        }
    }
    if session_only && eco_seed.is_none() {
        eprintln!("--session-only requires --eco-seed");
        usage();
    }
    Args {
        specs,
        report,
        eco_seed,
        session_only,
    }
}

fn options_for_check() -> ComposerOptions {
    ComposerOptions {
        paranoia: Paranoia::Full,
        stitch_scan_chains: true,
        ..ComposerOptions::default()
    }
}

/// Runs one preset end to end, returning its stdout/stderr text and
/// whether it failed. Pure with respect to the process: printing and
/// observability replay happen on the main thread, in preset order.
fn run_spec(spec: &DesignSpec, lib: &Library) -> (String, String, bool) {
    let mut out = String::new();
    let mut failed = false;

    let mut design = spec.generate(lib);
    let composer = Composer::new(options_for_check(), spec.delay_model());
    let outcome = match composer.compose(&mut design, lib) {
        Ok(o) => o,
        Err(e) => {
            return (out, format!("{}: flow failed: {e}\n", spec.name), true);
        }
    };

    // The in-flow checkpoints already audited every stage; sweep the
    // final design once more so post-flow state is covered even if a
    // future stage forgets its checkpoint.
    let mut report = CheckReport::new(Vec::new());
    report.extend(check_netlist(&design));
    report.extend(check_mapping(&design, lib));
    report.extend(check_scan(&design, lib));
    let grid = infer_grid(&design, lib);
    report.extend(mbr::check::check_placement(
        &design,
        &grid,
        &outcome.new_mbrs,
    ));

    let in_flow_errors = outcome
        .diagnostics
        .iter()
        .filter(|d| d.diagnostic.severity() == mbr::check::Severity::Error)
        .count();
    let _ = writeln!(
        out,
        "{}: {} -> {} registers, {} merges, {} diagnostics ({} errors)",
        spec.name,
        outcome.registers_before,
        outcome.registers_after,
        outcome.merges,
        outcome.diagnostics.len() + report.diagnostics.len(),
        in_flow_errors + report.error_count(),
    );
    // In-flow findings carry the checkpoint stage that caught them —
    // the first thing a triage wants to know.
    for d in &outcome.diagnostics {
        let _ = writeln!(out, "  {}: {d}", d.diagnostic.severity());
    }
    if !report.is_clean() {
        let _ = writeln!(out, "{report}");
    }
    if in_flow_errors + report.error_count() > 0 {
        failed = true;
    }
    (out, String::new(), failed)
}

/// Outcome text with wall-clock scrubbed — the only field two equivalent
/// runs may legitimately disagree on.
fn scrubbed(outcome: &mbr::core::ComposeOutcome) -> String {
    let mut o = outcome.clone();
    o.timings = Default::default();
    format!("{o:?}")
}

/// The incremental differential for one preset: session-with-ECOs versus
/// batch-on-mutated-design must agree to the byte. With `session_only` the
/// batch arm and the comparison are skipped — the run exists to put the
/// session's counters (alone) into an `MBR_TRACE` capture.
fn run_eco_spec(
    spec: &DesignSpec,
    lib: &Library,
    eco_seed: u64,
    session_only: bool,
) -> (String, String, bool) {
    let mut out = String::new();
    let design = spec.generate(lib);
    let model = spec.delay_model();
    let options = options_for_check();

    let mut salted = spec.clone();
    salted.seed = spec
        .seed
        .wrapping_add(eco_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let script = eco_script_for(&salted, &design, lib, ECO_SCRIPT_LEN);

    // Session arm: full pass 0, then an incremental recompose of the ECOs.
    let mut session = match CompositionSession::open(design.clone(), lib, options.clone(), model) {
        Ok(s) => s,
        Err(e) => {
            return (
                out,
                format!("{}: session open failed: {e}\n", spec.name),
                true,
            )
        }
    };
    if let Err(e) = session.apply_script(&script) {
        return (out, format!("{}: eco rejected: {e}\n", spec.name), true);
    }
    if let Err(e) = session.recompose() {
        return (out, format!("{}: recompose failed: {e}\n", spec.name), true);
    }
    if session_only {
        let _ = writeln!(
            out,
            "{}: session-only ({} ecos, seed {}): {} -> {} registers, {} merges",
            spec.name,
            script.ecos.len(),
            eco_seed,
            session.outcome().registers_before,
            session.outcome().registers_after,
            session.outcome().merges,
        );
        return (out, String::new(), false);
    }

    // Batch arm: the same ECOs folded into a fresh clone, composed from
    // scratch through the one shared mutation path.
    let mut batch_design = design;
    let mut batch_model = model;
    for eco in &script.ecos {
        if let Err(e) = apply_eco(&mut batch_design, &mut batch_model, lib, eco) {
            return (
                out,
                format!("{}: batch eco rejected: {e}\n", spec.name),
                true,
            );
        }
    }
    let batch_outcome = match Composer::new(options, batch_model).compose(&mut batch_design, lib) {
        Ok(o) => o,
        Err(e) => {
            return (
                out,
                format!("{}: batch flow failed: {e}\n", spec.name),
                true,
            )
        }
    };

    let session_text = session.composed().to_design_text(lib);
    let batch_text = batch_design.to_design_text(lib);
    let design_ok = session_text == batch_text;
    let outcome_ok = scrubbed(session.outcome()) == scrubbed(&batch_outcome);
    let _ = writeln!(
        out,
        "{}: eco differential ({} ecos, seed {}): design {}, outcome {}",
        spec.name,
        script.ecos.len(),
        eco_seed,
        if design_ok { "identical" } else { "DIVERGED" },
        if outcome_ok { "identical" } else { "DIVERGED" },
    );
    if !design_ok {
        let a = session_text.lines();
        let diff = a
            .zip(batch_text.lines())
            .enumerate()
            .find(|(_, (s, b))| s != b);
        if let Some((i, (s, b))) = diff {
            let _ = writeln!(
                out,
                "  first diff at line {}:\n    session: {s}\n    batch:   {b}",
                i + 1
            );
        } else {
            let _ = writeln!(out, "  designs differ in length only");
        }
    }
    (out, String::new(), !(design_ok && outcome_ok))
}

fn main() -> ExitCode {
    let args = parse_args();
    let obs = mbr::obs::init_cli(args.report);
    let lib = standard_library();

    // The presets are independent designs, so they sweep in parallel
    // through the shared driver; it replays each worker's buffered
    // observability in preset order, so output, trace, and exit code are
    // identical at every thread count.
    let results = sweep_presets(&args.specs, |spec| match args.eco_seed {
        Some(seed) => run_eco_spec(spec, &lib, seed, args.session_only),
        None => run_spec(spec, &lib),
    });
    let mut failed = false;
    for (out, err, spec_failed) in results {
        print!("{out}");
        eprint!("{err}");
        failed |= spec_failed;
    }

    if let Some(rec) = &obs.recorder {
        print!("{}", Summary::from_events(&rec.events()).render());
    }
    obs.finish();

    // Fault injection: MBR_CHECK_INJECT_FAIL marks an otherwise-clean run
    // failed so the failure-path plumbing (flight-recorder dump, nonzero
    // exit) can be exercised deterministically without corrupting a design.
    if std::env::var_os("MBR_CHECK_INJECT_FAIL").is_some() {
        eprintln!("check: injected failure (MBR_CHECK_INJECT_FAIL)");
        failed = true;
    }

    if failed {
        // Post-mortem forensics for the failed run (no-op unless
        // MBR_FLIGHT_RECORDER installed a ring).
        mbr::obs::dump_flight_recorder("check errors");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
