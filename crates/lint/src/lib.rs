//! `mbr-lint` — workspace static analysis with no external dependencies.
//!
//! The runtime test suite can only *sample* the invariants the repro rests
//! on: byte-identical results at any thread count, a closed obs counter
//! catalog, a diagnostics enum where every variant has a proving test.
//! This crate checks them at the source level, over every file, on every
//! commit, with a handwritten token scanner (no syn, no external deps — the
//! same hand-rolled style as the `mbr-netlist`/`mbr-liberty` parsers).
//!
//! The rule catalog ([`Rule`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D1` | no unordered `HashMap`/`HashSet` in result-affecting crates |
//! | `D2` | no wall clock outside the `mbr-obs` `Clock` abstraction |
//! | `D3` | no thread creation outside `mbr-par` |
//! | `P1` | `unwrap()`/`expect()` in library code only ratchets down |
//! | `O1` | obs counter/gauge catalog closure (used ⇔ declared) |
//! | `O2` | every `mbr-check` diagnostic constructed + mutation-tested |
//!
//! Findings are suppressed inline with `// mbr-lint: allow(RULE, reason)` —
//! the reason is mandatory, unknown rules are themselves errors, and unused
//! suppressions warn so stale allows cannot accumulate.

pub mod baseline;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod xref;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use report::{Finding, Report, Severity};
pub use rules::Rule;
pub use source::Workspace;

/// Options for one lint run (the CLI flags, resolved).
#[derive(Clone, Debug)]
pub struct Options {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Rules to run.
    pub enabled: BTreeSet<Rule>,
    /// Baseline file path; defaults to `<root>/LINT_baseline.txt`.
    pub baseline_path: Option<PathBuf>,
    /// Rewrite the baseline from the fresh P1 counts instead of ratcheting.
    pub update_baseline: bool,
    /// Where to write `LINT_report.json`; `None` skips the artifact.
    pub json_out: Option<PathBuf>,
}

impl Options {
    /// Options with every rule enabled and defaults resolved against `root`.
    pub fn new(root: &Path) -> Options {
        Options {
            root: root.to_path_buf(),
            enabled: Rule::ALL.into_iter().collect(),
            baseline_path: None,
            update_baseline: false,
            json_out: None,
        }
    }
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The full report (also written to `json_out` if set).
    pub report: Report,
    /// True when `--update-baseline` rewrote the baseline file.
    pub baseline_written: bool,
}

impl Outcome {
    /// Process exit code: 0 clean, 1 when any error finding exists.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.report.errors() > 0)
    }
}

/// Runs the configured rules over the workspace at `opts.root`, applies the
/// P1 baseline ratchet, and writes the JSON artifact.
///
/// # Errors
///
/// Propagates I/O failures (unreadable tree, unwritable report/baseline).
/// Lint findings are *not* errors at this level — they are in the report.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    let ws = Workspace::load(&opts.root)?;
    let mut analysis = engine::analyze(&ws, &opts.enabled);
    let mut baseline_written = false;

    if opts.enabled.contains(&Rule::P1) {
        let path = opts
            .baseline_path
            .clone()
            .unwrap_or_else(|| opts.root.join(baseline::BASELINE_FILE));
        if opts.update_baseline {
            fs::write(&path, baseline::format(&analysis.p1_counts))?;
            baseline_written = true;
        } else {
            match fs::read_to_string(&path) {
                Ok(text) => match baseline::parse(&text) {
                    Ok(base) => {
                        baseline::compare(&base, &analysis.p1_counts, &mut analysis.findings);
                    }
                    Err(msg) => analysis.findings.push(Finding {
                        rule: Some(Rule::P1),
                        severity: Severity::Error,
                        file: path.display().to_string(),
                        line: 0,
                        message: format!("malformed baseline: {msg}"),
                    }),
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // No baseline yet: ratchet against zero everywhere, so
                    // a fresh tree must either be clean or run
                    // `--update-baseline` once to accept the current debt.
                    baseline::compare(
                        &Default::default(),
                        &analysis.p1_counts,
                        &mut analysis.findings,
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }

    let report = Report {
        findings: analysis.findings,
        p1_counts: analysis.p1_counts,
    };
    if let Some(json_path) = &opts.json_out {
        if let Some(dir) = json_path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(json_path, report.to_json())?;
    }
    Ok(Outcome {
        report,
        baseline_written,
    })
}
