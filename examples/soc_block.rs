//! A Table-1-style run on a synthetic SoC block: generate the D1 benchmark,
//! measure it, compose, measure again, and print the before/after row — the
//! workload the paper's introduction motivates (an MBR-rich post-placement
//! database heading into CTS).
//!
//! ```text
//! cargo run --release --example soc_block
//! ```

use mbr::core::{Composer, ComposerOptions, DesignMetrics};
use mbr::cts::CtsConfig;
use mbr::liberty::standard_library;
use mbr::place::CongestionConfig;
use mbr::workloads::d1;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = standard_library();
    let spec = d1();
    let mut design = spec.generate(&lib);
    let model = spec.delay_model();
    let cts = CtsConfig::default();
    let cong = CongestionConfig::default();

    let base = DesignMetrics::measure(&design, &lib, model, &cts, &cong)?;
    let composer = Composer::new(ComposerOptions::default(), model);
    let outcome = composer.compose(&mut design, &lib)?;
    let ours = DesignMetrics::measure(&design, &lib, model, &cts, &cong)?;

    let print_row = |label: &str, m: &DesignMetrics| {
        println!(
            "{label:>5}: regs {:>5}  comp {:>5}  clk bufs {:>4}  clk cap {:>6.2} pF  tns {:>8.2} ns  fail {:>5}  ovfl {:>5}",
            m.total_regs, m.comp_regs, m.clk_bufs, m.clk_cap_pf, m.tns_ns, m.failing_endpoints,
            m.ovfl_edges,
        );
    };
    println!("design {} ({} cells)", design.name(), base.cells);
    print_row("base", &base);
    print_row("ours", &ours);
    println!(
        "composition: {} merges over {} registers in {:?} ({} partitions, {} candidates, {} B&B nodes)",
        outcome.merges,
        outcome.merged_registers,
        outcome.elapsed(),
        outcome.partitions,
        outcome.candidates_enumerated,
        outcome.ilp_nodes,
    );
    if let Some(skew) = outcome.skew {
        println!(
            "useful skew: adjusted {} MBRs, tns {:.2} -> {:.2} ns",
            skew.adjusted,
            skew.tns_before / 1000.0,
            skew.tns_after / 1000.0
        );
    }

    // The composed database can be written out in the `.design` text format
    // and re-read bit-exactly.
    let path = std::env::temp_dir().join("soc_block_composed.design");
    std::fs::write(&path, design.to_design_text(&lib))?;
    println!("wrote composed netlist to {}", path.display());

    // And rendered: new MBRs in red over the untouched fabric.
    let svg = mbr::place::render_svg(
        &design,
        &outcome.new_mbrs,
        &mbr::place::SvgOptions::default(),
    );
    let svg_path = std::env::temp_dir().join("soc_block_composed.svg");
    std::fs::write(&svg_path, svg)?;
    println!("wrote placement snapshot to {}", svg_path.display());
    Ok(())
}
