//! Regenerates every table and figure of the DAC'17 paper.
//!
//! ```text
//! cargo run --release -p mbr-bench --bin repro -- all
//! cargo run --release -p mbr-bench --bin repro -- table1
//! cargo run --release -p mbr-bench --bin repro -- fig3
//! cargo run --release -p mbr-bench --bin repro -- fig5
//! cargo run --release -p mbr-bench --bin repro -- fig6
//! cargo run --release -p mbr-bench --bin repro -- ablations
//! cargo run --release -p mbr-bench --bin repro -- decompose
//! cargo run --release -p mbr-bench --bin repro -- stats
//! cargo run --release -p mbr-bench --bin repro -- d1
//! ```
//!
//! A preset name (`d1`..`d5`) runs the flow on that design alone and prints
//! its per-stage wall-clock breakdown. Set `MBR_TRACE=<path>` to capture a
//! JSONL trace; pass `--report` for a span/counter summary of the run.

use mbr_bench::{library, run, save_pct, RunResult, Strategy};
use mbr_core::{BitWidthHistogram, ComposerOptions, DesignMetrics};
use mbr_obs::summary::{stage_table, Summary};
use mbr_workloads::{all_presets, sweep_presets};

fn main() {
    let mut report = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--report" {
                report = true;
                false
            } else {
                true
            }
        })
        .collect();
    let obs = mbr_obs::init_cli(report);
    let arg = args.first().cloned().unwrap_or_else(|| "all".into());
    match arg.as_str() {
        "table1" => table1(),
        "fig3" => fig3(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "ablations" => ablations(),
        "decompose" => decompose(),
        "stats" => stats(),
        "all" => {
            table1();
            fig3();
            fig5();
            fig6();
            ablations();
            decompose();
        }
        preset if all_presets().iter().any(|s| s.name == preset) => single(preset),
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: repro [--report] [table1|fig3|fig5|fig6|ablations|decompose|stats|d1..d5|all]"
            );
            std::process::exit(2);
        }
    }
    if let Some(rec) = &obs.recorder {
        print!("{}", Summary::from_events(&rec.events()).render());
    }
    obs.finish();
}

/// One preset, end to end, with the per-stage wall-clock breakdown — the
/// quick "where does the time go" view (and the trace-producing entry point
/// CI validates).
fn single(name: &str) {
    let lib = library();
    let spec = all_presets()
        .into_iter()
        .find(|s| s.name == name)
        .expect("caller checked the preset name");
    println!("== {} ==", spec.name.to_uppercase());
    let RunResult {
        base,
        ours,
        outcome,
    } = run(&spec, &lib, ComposerOptions::default(), Strategy::Ilp);
    println!(
        "regs {} -> {} ({} merges, {} incomplete, {} resized), tns {:.2} -> {:.2} ns",
        base.total_regs,
        ours.total_regs,
        outcome.merges,
        outcome.incomplete_mbrs,
        outcome.resized,
        base.tns_ns,
        ours.tns_ns,
    );
    print!("{}", stage_table(&outcome.timings));
}

fn row(label: &str, m: &DesignMetrics, elapsed_ms: Option<u128>) {
    println!(
        "{label:>5} {:>10.0} {:>8} {:>8} {:>8} {:>8} {:>9.2} {:>9.2} {:>7} {:>7} {:>8.2} {:>8.2} {:>8}",
        m.area_um2,
        m.cells,
        m.total_regs,
        m.comp_regs,
        m.clk_bufs,
        m.clk_cap_pf,
        m.tns_ns,
        m.failing_endpoints,
        m.ovfl_edges,
        m.wl_clk_mm,
        m.wl_other_mm,
        elapsed_ms.map_or(String::from("-"), |t| format!("{t} ms")),
    );
}

fn save_row(base: &DesignMetrics, ours: &DesignMetrics) {
    println!(
        "{:>5} {:>10.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>9.1} {:>7.1} {:>7.1} {:>8.1} {:>8.1} {:>8}",
        "Save%",
        save_pct(base.area_um2, ours.area_um2),
        save_pct(base.cells as f64, ours.cells as f64),
        save_pct(base.total_regs as f64, ours.total_regs as f64),
        save_pct(base.comp_regs as f64, ours.comp_regs as f64),
        save_pct(base.clk_bufs as f64, ours.clk_bufs as f64),
        save_pct(base.clk_cap_pf, ours.clk_cap_pf),
        save_pct(base.tns_ns.abs(), ours.tns_ns.abs()),
        save_pct(base.failing_endpoints as f64, ours.failing_endpoints as f64),
        save_pct(base.ovfl_edges as f64, ours.ovfl_edges as f64),
        save_pct(base.wl_clk_mm, ours.wl_clk_mm),
        save_pct(base.wl_other_mm, ours.wl_other_mm),
        "",
    );
}

/// One Table 1 row in the markdown form EXPERIMENTS.md holds between its
/// `table1` markers. Wall-clock is left out, so the row is a pure function
/// of the design and `scripts/verify.sh` can diff it against the file.
fn markdown_row(name: &str, base: &DesignMetrics, ours: &DesignMetrics) -> String {
    let ns = |v: f64| format!("{v:.2}").replace('-', "−");
    format!(
        "| {} | {} → {} (**{:.1} %**) | {} | {} → {} | {:.2} → {:.2} ({:.1} %) | {} → {} | {} → {} | {} → {} | {:.1} → {:.1} |",
        name.to_uppercase(),
        base.total_regs,
        ours.total_regs,
        save_pct(base.total_regs as f64, ours.total_regs as f64),
        base.comp_regs,
        base.clk_bufs,
        ours.clk_bufs,
        base.clk_cap_pf,
        ours.clk_cap_pf,
        save_pct(base.clk_cap_pf, ours.clk_cap_pf),
        ns(base.tns_ns),
        ns(ours.tns_ns),
        base.failing_endpoints,
        ours.failing_endpoints,
        base.ovfl_edges,
        ours.ovfl_edges,
        base.wl_clk_mm + base.wl_other_mm,
        ours.wl_clk_mm + ours.wl_other_mm,
    )
}

/// Table 1: Base vs Ours on D1–D5, as a console table and then as the
/// markdown rows of EXPERIMENTS.md.
fn table1() {
    println!("== Table 1: industrial design characteristics before/after MBR composition ==");
    println!(
        "{:>5} {:>10} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8} {:>8}",
        "",
        "Area um2",
        "Cells",
        "Regs",
        "CompR",
        "ClkBuf",
        "ClkCap pF",
        "TNS ns",
        "FailEP",
        "Ovfl",
        "WLclk",
        "WLoth",
        "Time"
    );
    let lib = library();
    let mut reg_saves = Vec::new();
    let mut comp_merged = Vec::new();
    let mut markdown = Vec::new();
    let presets = all_presets();
    let runs = sweep_presets(&presets, |spec| {
        run(spec, &lib, ComposerOptions::default(), Strategy::Ilp)
    });
    for (spec, result) in presets.iter().zip(runs) {
        let RunResult {
            base,
            ours,
            outcome,
        } = result;
        println!("-- {} --", spec.name.to_uppercase());
        row("Base", &base, None);
        row("Ours", &ours, Some(outcome.elapsed().as_millis()));
        save_row(&base, &ours);
        println!(
            "      clock power {:.1} -> {:.1} uW ({:.1} % saved)",
            base.clk_power_uw,
            ours.clk_power_uw,
            save_pct(base.clk_power_uw, ours.clk_power_uw),
        );
        markdown.push(markdown_row(&spec.name, &base, &ours));
        reg_saves.push(save_pct(base.total_regs as f64, ours.total_regs as f64));
        comp_merged.push(100.0 * outcome.merged_registers as f64 / base.comp_regs.max(1) as f64);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "average total-register saving: {:.1} % (paper: 29 %); composable registers consumed by merges: {:.1} % (paper reduction on composable: 48 %)",
        avg(&reg_saves),
        avg(&comp_merged),
    );
    markdown_block(
        "table1",
        "| Design | Regs base→ours (save) | Comp regs | Clk bufs | Clk cap pF (save) | TNS ns | Fail EP | Ovfl edges | WL clk+sig mm |",
        &markdown,
    );
    println!();
}

/// Fig. 3: candidate weights of the worked example (the full assertion suite
/// lives in `crates/core/tests/fig3_example.rs`; here we print the table).
fn fig3() {
    println!("== Fig. 3: candidate MBR weights of the Fig. 1/2 example ==");
    println!("(see crates/core/tests/fig3_example.rs for the asserted reproduction)");
    println!("original registers:        A B C D E F at w = 1.00 each");
    println!("clean 2-bit pairs:         AB AD AC BD CD at w = 0.50");
    println!("blocked 2-bit pair:        BC at w = 2·2¹ = 4.00 (D inside)");
    println!("clean 3-bit candidates:    BF CF ABD BCD ACD at w = 1/3");
    println!("blocked 3-bit candidate:   ABC at w = 3·2¹ = 6.00 (D inside)");
    println!("clean 4-bit clique:        ABCD at w = 0.25");
    println!("blocked 4-bit candidate:   BCF at w = 4·2¹ = 8.00 (D inside)");
    println!("incomplete (→8-bit cell):  AE at w = 1/5 = 0.20, ACE at w = 1/6 ≈ 0.17");
    println!("ILP optimum w/o incomplete: {{B,F}} + {{A,C,D}} + E  (3 registers)");
    println!("ILP optimum w/  incomplete: {{A,E}} + {{B,F}} + {{C,D}} (3 registers)");
    println!("area rule at 5 %: AE rejected (8-bit cell ≫ area(A)+area(E))");
    println!();
}

/// Prints EXPERIMENTS.md's markdown block for one experiment between its
/// `<!-- name:begin -->`/`<!-- name:end -->` markers, so `scripts/verify.sh`
/// can diff it against the file.
fn markdown_block(name: &str, header: &str, rows: &[String]) {
    println!("<!-- {name}:begin -->");
    println!("{header}");
    let columns = header.matches('|').count() - 1;
    println!("|{}", "---|".repeat(columns));
    for row in rows {
        println!("{row}");
    }
    println!("<!-- {name}:end -->");
}

/// Fig. 5: bit-width histograms before/after composition, as a console
/// listing and then as the markdown rows of EXPERIMENTS.md.
fn fig5() {
    println!("== Fig. 5: MBR bit widths before & after composition ==");
    let lib = library();
    let presets = all_presets();
    let runs = sweep_presets(&presets, |spec| {
        run(spec, &lib, ComposerOptions::default(), Strategy::Ilp)
    });
    let mut markdown = Vec::new();
    for (spec, RunResult { base, ours, .. }) in presets.iter().zip(runs) {
        print!("{:>3} before:", spec.name.to_uppercase());
        for w in [1u8, 2, 3, 4, 8] {
            print!(" {w}b:{:>5}", base.histogram.count(w));
        }
        println!("   total {:>5}", base.histogram.total());
        print!("{:>3}  after:", spec.name.to_uppercase());
        for w in [1u8, 2, 3, 4, 8] {
            print!(" {w}b:{:>5}", ours.histogram.count(w));
        }
        println!("   total {:>5}", ours.histogram.total());
        // Incomplete MBRs occupy widths between library sizes (3, 5, 6, 7).
        let odd: usize = ours
            .histogram
            .counts
            .iter()
            .filter(|(w, _)| ![1, 2, 4, 8].contains(*w))
            .map(|(_, n)| n)
            .sum();
        if odd > 0 {
            println!("      (plus {odd} incomplete MBRs at non-library connected widths)");
        }
        let counts = |h: &BitWidthHistogram| [1u8, 2, 4, 8].map(|w| h.count(w));
        let [b1, b2, b4, b8] = counts(&base.histogram);
        let [a1, a2, a4, a8] = counts(&ours.histogram);
        let incomplete = if odd > 0 {
            format!(" (+{odd} incomplete)")
        } else {
            String::new()
        };
        markdown.push(format!(
            "| {} | {b1} / {b2} / {b4} / {b8} | {a1} / {a2} / {a4} / **{a8}**{incomplete} |",
            spec.name.to_uppercase(),
        ));
    }
    markdown_block("fig5", "| Design | before | after |", &markdown);
    println!();
}

/// Fig. 6: ILP vs greedy heuristic, normalized register count, as a console
/// listing and then as the markdown rows of EXPERIMENTS.md.
fn fig6() {
    println!("== Fig. 6: normalized total registers, ILP vs maximal-clique heuristic ==");
    let lib = library();
    let mut gains = Vec::new();
    let mut markdown = Vec::new();
    let presets = all_presets();
    let runs = sweep_presets(&presets, |spec| {
        let ilp = run(spec, &lib, ComposerOptions::default(), Strategy::Ilp);
        let heur = run(spec, &lib, ComposerOptions::default(), Strategy::Heuristic);
        (ilp, heur)
    });
    for (spec, (ilp, heur)) in presets.iter().zip(runs) {
        let base = ilp.base.total_regs as f64;
        let n_ilp = ilp.ours.total_regs as f64 / base;
        let n_heur = heur.ours.total_regs as f64 / base;
        let gain = 100.0 * (n_heur - n_ilp) / n_heur;
        gains.push(gain);
        println!(
            "{:>3}: heuristic {:.3}  ilp {:.3}  (ilp saves {gain:.1} % vs heuristic)",
            spec.name.to_uppercase(),
            n_heur,
            n_ilp,
        );
        markdown.push(format!(
            "| {} | {n_heur:.3} | {n_ilp:.3} | {} % |",
            spec.name.to_uppercase(),
            format!("{gain:+.1}").replace('-', "−"),
        ));
    }
    println!(
        "average ILP advantage: {:.1} % (paper: 12 %)",
        gains.iter().sum::<f64>() / gains.len() as f64
    );
    markdown_block(
        "fig6",
        "| Design | heuristic | ILP | ILP advantage |",
        &markdown,
    );
    println!();
}

/// Ablations on the design choices the paper calls out.
fn ablations() {
    println!("== Ablations (on D2) ==");
    let lib = library();
    let spec = mbr_workloads::d2();

    // Partition bound sweep (paper: QoR loss below ~20 nodes, no gain >30).
    println!("-- partition node bound sweep --");
    for bound in [10usize, 20, 30, 40] {
        let options = ComposerOptions {
            partition_max_nodes: bound,
            ..ComposerOptions::default()
        };
        let r = run(&spec, &lib, options, Strategy::Ilp);
        println!(
            "bound {bound:>2}: regs {} -> {} ({:.1} % saved), {} ms",
            r.base.total_regs,
            r.ours.total_regs,
            save_pct(r.base.total_regs as f64, r.ours.total_regs as f64),
            r.outcome.elapsed().as_millis()
        );
    }

    // Blocking weights on/off (Section 3.2's congestion control).
    println!("-- placement-aware weights --");
    for (label, on) in [("weights on ", true), ("weights off", false)] {
        let options = ComposerOptions {
            use_blocking_weights: on,
            ..ComposerOptions::default()
        };
        let r = run(&spec, &lib, options, Strategy::Ilp);
        println!(
            "{label}: regs {} -> {}, overflow edges {} -> {}, wl {:.2}/{:.2} -> {:.2}/{:.2} mm",
            r.base.total_regs,
            r.ours.total_regs,
            r.base.ovfl_edges,
            r.ours.ovfl_edges,
            r.base.wl_clk_mm,
            r.base.wl_other_mm,
            r.ours.wl_clk_mm,
            r.ours.wl_other_mm,
        );
    }

    // Incomplete MBRs on/off.
    println!("-- incomplete MBRs --");
    for (label, on) in [("incomplete on ", true), ("incomplete off", false)] {
        let options = ComposerOptions {
            allow_incomplete: on,
            ..ComposerOptions::default()
        };
        let r = run(&spec, &lib, options, Strategy::Ilp);
        println!(
            "{label}: regs {} -> {} ({} incomplete MBRs), area {:.0} -> {:.0} um2",
            r.base.total_regs,
            r.ours.total_regs,
            r.outcome.incomplete_mbrs,
            r.base.area_um2,
            r.ours.area_um2,
        );
    }

    // Useful skew on/off.
    println!("-- useful skew --");
    for (label, on) in [("skew on ", true), ("skew off", false)] {
        let options = ComposerOptions {
            apply_useful_skew: on,
            ..ComposerOptions::default()
        };
        let r = run(&spec, &lib, options, Strategy::Ilp);
        println!(
            "{label}: tns {:.2} -> {:.2} ns, failing endpoints {} -> {}, resized {}",
            r.base.tns_ns,
            r.ours.tns_ns,
            r.base.failing_endpoints,
            r.ours.failing_endpoints,
            r.outcome.resized,
        );
    }
    println!();
}

/// The future-work extension: decompose 8-bit MBRs and recompose (helps the
/// 8-bit-rich D4 most).
fn decompose() {
    println!("== Extension: decompose max-width MBRs, then recompose (paper future work) ==");
    let lib = library();
    for spec in [mbr_workloads::d4(), mbr_workloads::d1()] {
        let plain = run(&spec, &lib, ComposerOptions::default(), Strategy::Ilp);
        let decomp = run(
            &spec,
            &lib,
            ComposerOptions::default(),
            Strategy::DecomposeThenIlp,
        );
        let kept = decomp.outcome.decomposition_kept == Some(true);
        println!(
            "{:>3}: plain {} -> {} regs; decompose+recompose {} -> {} regs ({}), clk cap {:.2} -> {:.2} pF",
            spec.name.to_uppercase(),
            plain.base.total_regs,
            plain.ours.total_regs,
            decomp.base.total_regs,
            decomp.ours.total_regs,
            if kept { "decomposition kept" } else { "decomposition rejected: recomposition lost in dense regions" },
            decomp.base.clk_cap_pf,
            decomp.ours.clk_cap_pf,
        );
    }
    println!();
}

/// Candidate-space diagnostics per design (not a paper figure; the tuning
/// view behind `ComposerOptions`).
fn stats() {
    use mbr_core::CandidateStats;
    use mbr_sta::Sta;

    println!("== Candidate-space statistics ==");
    let lib = library();
    let presets = all_presets();
    let stats = sweep_presets(&presets, |spec| {
        let design = mbr_bench::generate(spec, &lib);
        let model = mbr_bench::model_for(spec);
        let sta = Sta::new(&design, &lib, model).expect("acyclic");
        CandidateStats::collect(&design, &lib, &sta, &ComposerOptions::default())
    });
    for (spec, s) in presets.iter().zip(stats) {
        println!(
            "{:>3}: composable {:>5} edges {:>6} | partitions {:>4} (max {:>2}, truncated {}) | singles {:>5} clean {:>6} blocked {:>6} incomplete {:>5} | clean fraction {:.2}",
            spec.name.to_uppercase(),
            s.composable,
            s.edges,
            s.partition_sizes.values().sum::<usize>(),
            s.max_partition(),
            s.truncated_partitions,
            s.singletons,
            s.clean_multi,
            s.blocked_multi,
            s.incomplete,
            s.clean_fraction(),
        );
    }
    println!();
}
