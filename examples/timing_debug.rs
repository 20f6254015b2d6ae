//! Timing and clock-tree inspection: trace the worst paths of a composed
//! design and dump its clock tree as Graphviz DOT — the debugging loop an
//! engineer runs when composition results look off.
//!
//! ```text
//! cargo run --release --example timing_debug
//! ```

use mbr::core::{Composer, ComposerOptions};
use mbr::cts::{build_clock_trees, CtsConfig};
use mbr::liberty::standard_library;
use mbr::sta::{DelayModel, Sta};
use mbr::workloads::DesignSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = standard_library();
    let spec = DesignSpec {
        name: "debug".into(),
        seed: 99,
        cluster_grid: 2,
        groups_per_cluster: 10,
        regs_per_group: 3..=6,
        width_mix: [0.5, 0.25, 0.15, 0.10],
        fixed_fraction: 0.1,
        scan_fraction: 0.2,
        ordered_scan_fraction: 0.2,
        extra_buffer_depth: 4,
        utilization: 0.4,
        clock_period: 480.0,
        clock_domains: 1,
        wire_scale: 1.0,
    };
    let mut design = spec.generate(&lib);
    let model = DelayModel {
        clock_period: spec.clock_period,
        ..DelayModel::default()
    };

    let composer = Composer::new(ComposerOptions::default(), model);
    let outcome = composer.compose(&mut design, &lib)?;
    println!(
        "composed {}: {} -> {} registers",
        design.name(),
        outcome.registers_before,
        outcome.registers_after
    );

    // Worst paths after composition: who is still critical, and through how
    // much logic?
    let sta = Sta::new(&design, &lib, model)?;
    println!(
        "\nworst 5 paths (wns {:.1} ps, {} failing endpoints):",
        sta.report().wns(),
        sta.report().failing_endpoints()
    );
    for path in sta.worst_paths(5) {
        let start = design.inst(design.pin(path.pins[0]).inst);
        let end = design.inst(design.pin(path.endpoint).inst);
        println!(
            "  slack {:>8.1} ps  {:>3} pins  {} -> {}",
            path.slack,
            path.pins.len(),
            start.name,
            end.name,
        );
    }

    // Clock-tree topology: buffers per level and a DOT dump.
    let trees = build_clock_trees(&design, &CtsConfig::default());
    for tree in &trees {
        println!(
            "\nclock `{}`: {} sinks, {} buffers, {} levels",
            tree.net_name,
            tree.sink_count(),
            tree.buffer_count(),
            tree.levels()
        );
        let path = std::env::temp_dir().join(format!("clock_{}.dot", tree.net_name));
        std::fs::write(&path, tree.to_dot())?;
        println!("  DOT written to {}", path.display());
    }
    Ok(())
}
