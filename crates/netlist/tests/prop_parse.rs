//! Parser robustness and editing invariants for the design database.

use mbr_geom::{Point, Rect};
use mbr_liberty::standard_library;
use mbr_netlist::{Design, PinKind, RegisterAttrs};
use mbr_test::check::{any_u64, string_any};
use mbr_test::{prop_assert, props};

props! {
    cases = 256;

    /// Arbitrary text never panics the `.design` parser.
    fn parse_never_panics_on_arbitrary_text(src in string_any(0usize..400)) {
        let lib = standard_library();
        let _ = Design::parse(&src, &lib);
    }

    /// Truncated valid input never panics and reports locations.
    fn parse_survives_truncation(cut in 0usize..4000) {
        let lib = standard_library();
        let full = sample_design(&lib).to_design_text(&lib);
        let cut = cut.min(full.len());
        let mut end = cut;
        while !full.is_char_boundary(end) {
            end -= 1;
        }
        if let Err(e) = Design::parse(&full[..end], &lib) {
            prop_assert!(e.line >= 1 && e.col >= 1);
        }
    }

    /// A numeric literal that overflows to ±∞ anywhere in a valid file is
    /// rejected with a located error, never accepted or panicked on.
    fn overflowing_numbers_are_rejected(pick in any_u64(), negative in 0u8..2) {
        let lib = standard_library();
        let full = sample_design(&lib).to_design_text(&lib);
        let spans = numeric_tokens(&full);
        let span = spans[(pick % spans.len() as u64) as usize].clone();
        let huge = if negative == 1 { "-1e999" } else { "1e999" };
        let src = format!("{}{huge}{}", &full[..span.start], &full[span.end..]);
        match Design::parse(&src, &lib) {
            Ok(_) => prop_assert!(false, "accepted {huge} at byte {}", span.start),
            Err(e) => prop_assert!(e.message.contains(huge), "{}", e.message),
        }
    }
}

/// A representative design with registers, gates and ports.
fn sample_design(lib: &mbr_liberty::Library) -> Design {
    let mut d = Design::new(
        "sample",
        Rect::new(Point::new(0, 0), Point::new(200_000, 200_000)),
    );
    let clk = d.add_net("clk");
    let rst = d.add_net("rst");
    let clk_port = d.add_input_port("CLK", Point::new(0, 600), 0.5);
    d.connect(d.inst(clk_port).pins[0], clk);
    let rst_port = d.add_input_port("RST", Point::new(0, 1_200), 1.0);
    d.connect(d.inst(rst_port).pins[0], rst);

    let cell = lib.cell_by_name("DFF_R_2X1").expect("cell");
    for i in 0..4i64 {
        let mut attrs = RegisterAttrs::clocked(clk);
        attrs.reset = Some(rst);
        attrs.clock_offset = 3.5 * i as f64;
        let r = d.add_register(
            format!("r{i}"),
            lib,
            cell,
            Point::new(5_000 * (i + 1), 600),
            attrs,
        );
        for b in 0..2u8 {
            let dn = d.add_net(format!("d{i}_{b}"));
            let qn = d.add_net(format!("q{i}_{b}"));
            d.connect(d.find_pin(r, PinKind::D(b)).expect("D"), dn);
            d.connect(d.find_pin(r, PinKind::Q(b)).expect("Q"), qn);
        }
    }
    d
}

/// Round-trip equivalence on a structured (non-random) design: every
/// attribute the writer emits must be reconstructed by the parser.
#[test]
fn writer_and_parser_agree_on_full_attribute_set() {
    let lib = standard_library();
    let d = sample_design(&lib);
    let text = d.to_design_text(&lib);
    let re = Design::parse(&text, &lib).expect("own output parses");
    assert_eq!(re.live_inst_count(), d.live_inst_count());
    assert_eq!(re.live_register_count(), d.live_register_count());
    assert_eq!(re.wirelength(), d.wirelength());
    for (_, inst) in d.registers() {
        let other = re.inst_by_name(&inst.name).expect("name survives");
        let a = inst.register_attrs().expect("reg");
        let b = re.inst(other).register_attrs().expect("reg");
        assert_eq!(a.clock_offset, b.clock_offset, "{}", inst.name);
        assert_eq!(a.gate_group, b.gate_group);
        assert_eq!(a.fixed, b.fixed);
        assert_eq!(inst.loc, re.inst(other).loc);
    }
}

/// Byte ranges of the numeric tokens of a valid file, outside comments and
/// string literals.
fn numeric_tokens(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                i += 1;
            }
            b if b.is_ascii_whitespace() || b"{}();".contains(&b) => i += 1,
            _ => {
                let start = i;
                while i < bytes.len()
                    && !bytes[i].is_ascii_whitespace()
                    && !b"{}();\"#".contains(&bytes[i])
                {
                    i += 1;
                }
                let token = &text[start..i];
                if token.starts_with(|c: char| c.is_ascii_digit() || "+-.".contains(c))
                    && token.parse::<f64>().is_ok()
                {
                    spans.push(start..i);
                }
            }
        }
    }
    spans
}
