//! End-to-end and per-layer benchmark of the composition flow.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow-d3 [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! Run from the repository root. A run prints its host and run metadata, a
//! table of every metric with its unit and sample count, and as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with no
//! observability sink installed; with `--trace 1` they are the per-layer
//! ones, from a separate run that times each layer call and reads the
//! flow's work counters. The exit code is non-zero when any operation or
//! output check failed. See `perfbench/README.md`.

mod flow;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use flow::{Plan, Report, WORKLOADS};

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    quick: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <flow-d3|flow-d1> [--seed N] [--seconds S] [--trace 0|1] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 30.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"not a duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The code under test: the git commit when the checkout is a repository,
/// and always a digest of the workspace sources, which identifies the code
/// in checkouts without git metadata too.
fn code_version() -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    format!("commit={commit} src={}", source_digest())
}

/// FNV-1a over the paths and contents of the workspace's manifests and
/// Rust sources, in sorted path order.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                if let Ok(bytes) = std::fs::read(&path) {
                    out.insert(path.to_string_lossy().into_owned(), bytes);
                }
            }
        }
    }
    let mut files = BTreeMap::new();
    walk(Path::new("crates"), &mut files);
    for root_file in ["Cargo.toml", "Cargo.lock"] {
        if let Ok(bytes) = std::fs::read(root_file) {
            files.insert(root_file.to_string(), bytes);
        }
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (path, bytes) in &files {
        for &b in path.as_bytes().iter().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The last line of output: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or_else(|| (workload.preset)().seed);
    let plan = match (args.quick, args.trace) {
        (true, _) => Plan::quick(),
        (false, false) => Plan::timed(args.seconds),
        (false, true) => Plan::traced(args.seconds),
    };

    let report = match flow::run(workload, seed, &plan, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# perfbench workload={} seed={seed} trace={} seconds={} nproc={} threads={},{} {}",
        workload.name,
        u8::from(args.trace),
        plan.seconds,
        flow::nproc(),
        report.threads[0],
        report.threads[1],
        code_version(),
    );
    for line in &report.shares {
        println!("# {line}");
    }
    println!(
        "# {:<32} {:>14} {:<6} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "# {:<32} {:>14.4} {:<6} {:>7}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", result_json(&report));
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
