//! `mbr-compose` — command-line front end to the composition flow.
//!
//! ```text
//! mbr-compose --lib cells.mbrlib --design in.design --out composed.design \
//!             [--period 1000] [--no-incomplete] [--no-weights] [--no-skew] \
//!             [--heuristic] [--decompose] [--stitch-scan] [--partition-bound 30] \
//!             [--eco script.eco] [--passes 4] [--report]
//! ```
//!
//! Reads a register library (`.mbrlib`) and a placed design (`.design`),
//! runs the DAC'17 composition flow, prints a Table-1-style report, and
//! writes the composed design. Exits non-zero on any parse or flow error.
//! Set `MBR_TRACE=<path>` to capture a JSONL trace of the run; pass
//! `--report` for a per-stage timing table plus a span/counter summary.
//!
//! Numeric options are checked before any file is read, and a value out of
//! range exits with the usage code 2: `--period` must be positive and
//! finite (ps), `--partition-bound` must lie in `1..=64` (a partition is
//! held in `u64` adjacency masks), and `--region-radius` must not be
//! negative (DBU).
//!
//! With `--eco <file>` the run becomes *incremental*: a
//! [`mbr::core::CompositionSession`] composes the design once, then the
//! ECO script (see [`mbr::core::EcoScript`] for the line format) is split
//! across `--passes` (default 1) incremental re-compositions, each reusing
//! the timing graph and partition memo of the passes before it. The written design is the final pass's composed result —
//! byte-identical to what a batch run on the mutated design would produce.

use std::process::ExitCode;

use mbr::core::{
    Composer, ComposerOptions, CompositionSession, DesignMetrics, EcoScript, OptionsError,
};
use mbr::cts::CtsConfig;
use mbr::liberty::Library;
use mbr::netlist::Design;
use mbr::place::CongestionConfig;
use mbr::sta::DelayModel;

struct Args {
    lib: String,
    design: String,
    out: Option<String>,
    period: f64,
    heuristic: bool,
    decompose: bool,
    report: bool,
    eco: Option<String>,
    passes: usize,
    options: ComposerOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: mbr-compose --lib <file.mbrlib> --design <file.design> [--out <file.design>]\n\
         \x20                 [--period <ps>] [--partition-bound <n>] [--region-radius <dbu>]\n\
         \x20                 (period > 0 and finite, partition bound in 1..=64, radius >= 0)\n\
         \x20                 [--no-incomplete] [--no-weights] [--no-skew] [--no-sizing]\n\
         \x20                 [--stitch-scan] [--heuristic] [--decompose]\n\
         \x20                 [--eco <file.eco>] [--passes <n>] [--report]"
    );
    std::process::exit(2);
}

/// Rejects an option value out of its range: prints why, then the usage.
fn reject(flag: &str, text: &str, why: &str) -> ! {
    eprintln!("invalid {flag} `{text}`: {why}");
    usage()
}

fn parse_args() -> Args {
    let mut args = Args {
        lib: String::new(),
        design: String::new(),
        out: None,
        period: 1000.0,
        heuristic: false,
        decompose: false,
        report: false,
        eco: None,
        passes: 1,
        options: ComposerOptions::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--lib" => args.lib = value("--lib"),
            "--design" => args.design = value("--design"),
            "--out" => args.out = Some(value("--out")),
            "--period" => {
                let text = value("--period");
                args.period = text.parse().unwrap_or_else(|_| usage());
                if !(args.period.is_finite() && args.period > 0.0) {
                    reject(
                        "--period",
                        &text,
                        "expected a positive, finite period in ps",
                    );
                }
            }
            "--partition-bound" => {
                args.options.partition_max_nodes = value("--partition-bound")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--region-radius" => {
                args.options.max_region_radius =
                    value("--region-radius").parse().unwrap_or_else(|_| usage());
            }
            "--no-incomplete" => args.options.allow_incomplete = false,
            "--no-weights" => args.options.use_blocking_weights = false,
            "--no-skew" => args.options.apply_useful_skew = false,
            "--no-sizing" => args.options.apply_sizing = false,
            "--stitch-scan" => args.options.stitch_scan_chains = true,
            "--heuristic" => args.heuristic = true,
            "--decompose" => args.decompose = true,
            "--report" => args.report = true,
            "--eco" => args.eco = Some(value("--eco")),
            "--passes" => args.passes = value("--passes").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    if args.lib.is_empty() || args.design.is_empty() {
        usage();
    }
    if args.eco.is_some() && (args.heuristic || args.decompose) {
        eprintln!("--eco drives the incremental session; it excludes --heuristic/--decompose");
        usage();
    }
    if args.passes == 0 {
        eprintln!("--passes must be at least 1");
        usage();
    }
    if let Err(e) = args.options.validate() {
        let (flag, text) = match e {
            OptionsError::PartitionMaxNodes(n) => ("--partition-bound", n.to_string()),
            OptionsError::MaxRegionRadius(r) => ("--region-radius", r.to_string()),
        };
        reject(flag, &text, &e.to_string());
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let obs = mbr::obs::init_cli(args.report);
    let code = match run(&args, &obs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mbr-compose: {e}");
            // No-op unless MBR_FLIGHT_RECORDER installed a ring.
            mbr::obs::dump_flight_recorder("error exit");
            ExitCode::FAILURE
        }
    };
    obs.finish();
    code
}

fn run(args: &Args, obs: &mbr::obs::CliObs) -> Result<(), Box<dyn std::error::Error>> {
    let lib_text = std::fs::read_to_string(&args.lib)?;
    let lib = Library::parse(&lib_text)?;
    let design_text = std::fs::read_to_string(&args.design)?;
    let mut design = Design::parse(&design_text, &lib)?;

    let issues = design.validate();
    if !issues.is_empty() {
        eprintln!(
            "warning: {} validation issues in the input design:",
            issues.len()
        );
        for issue in issues.iter().take(5) {
            eprintln!("  {issue}");
        }
    }

    let model = DelayModel {
        clock_period: args.period,
        ..DelayModel::default()
    };
    let cts = CtsConfig::default();
    let cong = CongestionConfig::default();

    let base = DesignMetrics::measure(&design, &lib, model, &cts, &cong)?;
    println!("design `{}` @ {} ps clock", design.name(), args.period);

    let (design, outcome, final_model) = if let Some(path) = &args.eco {
        let script = EcoScript::parse(&std::fs::read_to_string(path)?)?;
        let mut session = CompositionSession::open(design, &lib, args.options.clone(), model)?;
        let show = |tag: &str, o: &mbr::core::ComposeOutcome| {
            println!(
                "  pass {tag}: {} -> {} registers, {} merges, {:?}",
                o.registers_before,
                o.registers_after,
                o.merges,
                o.elapsed(),
            );
        };
        show("0 (full)", session.outcome());
        let per = script.ecos.len().div_ceil(args.passes).max(1);
        for (i, chunk) in script.ecos.chunks(per).enumerate() {
            for eco in chunk {
                session.apply(eco)?;
            }
            session.recompose()?;
            show(
                &format!("{} ({} ecos)", i + 1, chunk.len()),
                session.outcome(),
            );
        }
        let model = *session.model();
        (session.composed().clone(), session.outcome().clone(), model)
    } else {
        let composer = Composer::new(args.options.clone(), model);
        let outcome = if args.decompose {
            composer.compose_with_decomposition(&mut design, &lib)?
        } else if args.heuristic {
            composer.compose_heuristic(&mut design, &lib)?
        } else {
            composer.compose(&mut design, &lib)?
        };
        (design, outcome, model)
    };
    let ours = DesignMetrics::measure(&design, &lib, final_model, &cts, &cong)?;

    let row = |label: &str, m: &DesignMetrics| {
        println!(
            "  {label:>4}: regs {:>6}  clk cap {:>8.2} pF  clk bufs {:>4}  tns {:>10.2} ns  fail {:>5}  ovfl {:>5}",
            m.total_regs, m.clk_cap_pf, m.clk_bufs, m.tns_ns, m.failing_endpoints, m.ovfl_edges
        );
    };
    row("base", &base);
    row("ours", &ours);
    println!(
        "  flow: {} merges / {} registers consumed / {} incomplete / {} resized / {:?}",
        outcome.merges,
        outcome.merged_registers,
        outcome.incomplete_mbrs,
        outcome.resized,
        outcome.elapsed(),
    );
    if let Some(kept) = outcome.decomposition_kept {
        println!(
            "  decomposition: {}",
            if kept {
                "kept (it won)"
            } else {
                "rejected (plain flow was better)"
            }
        );
    }
    if let Some(stitch) = outcome.scan_stitch {
        println!(
            "  scan: {} chains over {} registers, {} dbu",
            stitch.chains, stitch.registers, stitch.wirelength
        );
    }

    if args.report {
        print!("{}", mbr::obs::summary::stage_table(&outcome.timings));
        if let Some(rec) = &obs.recorder {
            print!(
                "{}",
                mbr::obs::summary::Summary::from_events(&rec.events()).render()
            );
        }
    }

    if let Some(out) = &args.out {
        std::fs::write(out, design.to_design_text(&lib))?;
        println!("  wrote {out}");
    }
    Ok(())
}
