//! Quickstart: build a small placed design by hand, run the DAC'17
//! composition flow, and inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mbr::core::{Composer, ComposerOptions};
use mbr::geom::{Point, Rect};
use mbr::liberty::standard_library;
use mbr::netlist::{Design, PinKind, RegisterAttrs};
use mbr::sta::DelayModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A register library with 1/2/4/8-bit MBR cells at three drive grades.
    let lib = standard_library();

    // A 100 µm × 100 µm die with eight 1-bit flops in two nearby rows,
    // chained into a little shift pipeline.
    let die = Rect::new(Point::new(0, 0), Point::new(100_000, 100_000));
    let mut design = Design::new("quickstart", die);
    let clk = design.add_net("clk");
    let clk_port = design.add_input_port("CLK", Point::new(0, 600), 0.5);
    design.connect(design.inst(clk_port).pins[0], clk);

    let cell = lib.cell_by_name("DFF_1X1").expect("1-bit flop");
    let mut regs = Vec::new();
    for i in 0..8i64 {
        let loc = Point::new(2_000 + (i % 4) * 2_500, 1_200 + (i / 4) * 600);
        let r = design.add_register(
            format!("sr{i}"),
            &lib,
            cell,
            loc,
            RegisterAttrs::clocked(clk),
        );
        regs.push(r);
    }
    for pair in regs.windows(2) {
        let net = design.add_net(format!("n_{}", design.inst(pair[0]).name));
        design.connect(design.find_pin(pair[0], PinKind::Q(0)).expect("Q"), net);
        design.connect(design.find_pin(pair[1], PinKind::D(0)).expect("D"), net);
    }
    let out = design.add_output_port("OUT", Point::new(99_000, 1_200), 1.5);
    let tail = design.add_net("tail");
    design.connect(design.find_pin(regs[7], PinKind::Q(0)).expect("Q"), tail);
    design.connect(design.inst(out).pins[0], tail);

    println!(
        "before: {} registers, {} bits",
        design.live_register_count(),
        design.total_register_bits()
    );

    // Run the flow: compatibility → weighted ILP → mapping → placement →
    // legalization → useful skew → sizing.
    let composer = Composer::new(ComposerOptions::default(), DelayModel::default());
    let outcome = composer.compose(&mut design, &lib)?;

    println!(
        "after:  {} registers, {} bits ({} merges, {} incomplete, {} resized)",
        design.live_register_count(),
        design.total_register_bits(),
        outcome.merges,
        outcome.incomplete_mbrs,
        outcome.resized,
    );
    for &mbr in &outcome.new_mbrs {
        let inst = design.inst(mbr);
        let cell = lib.cell(inst.register_cell().expect("register"));
        println!(
            "  new MBR {} -> {} at {} ({} connected bits)",
            inst.name,
            cell.name,
            inst.loc,
            design.register_width(mbr),
        );
    }
    assert!(design.validate().is_empty(), "netlist stays valid");
    Ok(())
}
