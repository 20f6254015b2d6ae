//! MBR sizing (paper Fig. 4): after useful skew recovers slack, drive
//! strengths of the new MBRs are reduced where timing allows, cutting area
//! and — more importantly for the paper's goal — clock pin capacitance.

use mbr_liberty::Library;
use mbr_netlist::{Design, InstId};
use mbr_sta::Sta;

/// Tries to downsize each of `mbrs` to the weakest same-class/same-width
/// library cell that keeps timing: TNS must not degrade beyond `margin` ps
/// and no new failing endpoints may appear. Returns how many registers were
/// downsized.
///
/// Candidate cells are tried weakest-first (highest drive resistance); each
/// trial is evaluated with an incremental timing update and rolled back on
/// failure, so the design and `sta` are always left consistent.
pub fn downsize_mbrs(
    design: &mut Design,
    lib: &Library,
    sta: &mut Sta,
    mbrs: &[InstId],
    margin: f64,
) -> usize {
    let mut resized = 0;
    for &mbr in mbrs {
        let Some(current) = design.inst(mbr).register_cell() else {
            continue;
        };
        let cur_cell = lib.cell(current);
        let width = cur_cell.width;
        let class = cur_cell.class;

        // Weaker alternatives, weakest first.
        let mut alternatives: Vec<_> = lib
            .cells_of(class, width)
            .filter(|&id| {
                let c = lib.cell(id);
                c.scan_style == cur_cell.scan_style
                    && c.drive_resistance > cur_cell.drive_resistance
            })
            .collect();
        alternatives.sort_by(|&a, &b| {
            lib.cell(b)
                .drive_resistance
                .partial_cmp(&lib.cell(a).drive_resistance)
                .expect("finite resistances")
        });

        let tns_before = sta.report().tns();
        let failing_before = sta.report().failing_endpoints();
        for alt in alternatives {
            if design.resize_register(mbr, lib, alt).is_err() {
                continue;
            }
            sta.update_after_change(design, lib, &[mbr]);
            let ok = sta.report().tns() >= tns_before - margin
                && sta.report().failing_endpoints() <= failing_before;
            if ok {
                resized += 1;
                break;
            }
            // Roll back and try the next (stronger) alternative.
            design
                .resize_register(mbr, lib, current)
                .expect("restoring the original cell always succeeds");
            sta.update_after_change(design, lib, &[mbr]);
        }
    }
    resized
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbr_geom::{Point, Rect};
    use mbr_liberty::standard_library;
    use mbr_netlist::{PinKind, RegisterAttrs};
    use mbr_sta::DelayModel;

    #[test]
    fn downsizing_happens_when_slack_is_abundant() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(90_000, 90_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        // A strong 4-bit MBR driving a short wire: easily downsized.
        let strong = lib.cell_by_name("DFF_4X4").unwrap();
        let a = d.add_register(
            "a",
            &lib,
            strong,
            Point::new(1_000, 600),
            RegisterAttrs::clocked(clk),
        );
        let sink = lib.cell_by_name("DFF_4X1").unwrap();
        let b = d.add_register(
            "b",
            &lib,
            sink,
            Point::new(6_000, 600),
            RegisterAttrs::clocked(clk),
        );
        for bit in 0..4u8 {
            let n = d.add_net(format!("n{bit}"));
            d.connect(d.find_pin(a, PinKind::Q(bit)).unwrap(), n);
            d.connect(d.find_pin(b, PinKind::D(bit)).unwrap(), n);
        }
        let model = DelayModel::default();
        let mut sta = Sta::new(&d, &lib, model).unwrap();
        assert_eq!(sta.report().failing_endpoints(), 0);

        let ck = d.register_clock_pin(a);
        let clock_cap_before = d.pin(ck).cap;
        let n = downsize_mbrs(&mut d, &lib, &mut sta, &[a], 5.0);
        assert_eq!(n, 1);
        let cell = lib.cell(d.inst(a).register_cell().unwrap());
        assert!(cell.drive_resistance > lib.cell(strong).drive_resistance);
        assert!(
            d.pin(ck).cap < clock_cap_before,
            "downsizing cuts clock cap"
        );
        assert_eq!(sta.report().failing_endpoints(), 0, "timing preserved");
        // Incremental state matches a fresh analysis.
        let full = Sta::new(&d, &lib, model).unwrap();
        assert_eq!(full.report().tns().to_bits(), sta.report().tns().to_bits());
    }

    #[test]
    fn downsizing_is_refused_when_it_breaks_timing() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(400_000, 400_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        // A strong flop driving a very long wire near the timing edge.
        let strong = lib.cell_by_name("DFF_1X4").unwrap();
        let a = d.add_register(
            "a",
            &lib,
            strong,
            Point::new(0, 0),
            RegisterAttrs::clocked(clk),
        );
        let sink = lib.cell_by_name("DFF_1X1").unwrap();
        let b = d.add_register(
            "b",
            &lib,
            sink,
            Point::new(320_000, 0),
            RegisterAttrs::clocked(clk),
        );
        let n = d.add_net("n");
        d.connect(d.find_pin(a, PinKind::Q(0)).unwrap(), n);
        d.connect(d.find_pin(b, PinKind::D(0)).unwrap(), n);
        // Choose a period that the X4 barely meets.
        let mut model = DelayModel::default();
        let sta_probe = Sta::new(&d, &lib, model).unwrap();
        let slack = sta_probe.report().register_d_slack(&d, b).unwrap();
        model.clock_period -= slack - 1.0; // leave ~1 ps of margin
        let mut sta = Sta::new(&d, &lib, model).unwrap();
        assert_eq!(sta.report().failing_endpoints(), 0);

        let resized = downsize_mbrs(&mut d, &lib, &mut sta, &[a], 0.5);
        assert_eq!(resized, 0, "no weaker cell can hold this path");
        assert_eq!(d.inst(a).register_cell(), Some(strong), "rolled back");
        assert_eq!(sta.report().failing_endpoints(), 0);
    }
}

#[cfg(test)]
mod size_only_tests {
    use super::*;
    use mbr_geom::{Point, Rect};
    use mbr_liberty::standard_library;
    use mbr_netlist::RegisterAttrs;
    use mbr_sta::DelayModel;

    /// `size_only` registers cannot be merged, but resizing them is exactly
    /// what the designer allowed.
    #[test]
    fn size_only_registers_may_be_downsized() {
        let lib = standard_library();
        let die = Rect::new(Point::new(0, 0), Point::new(90_000, 90_000));
        let mut d = Design::new("t", die);
        let clk = d.add_net("clk");
        let strong = lib.cell_by_name("DFF_1X4").unwrap();
        let mut attrs = RegisterAttrs::clocked(clk);
        attrs.size_only = true;
        let r = d.add_register("r", &lib, strong, Point::new(1_000, 600), attrs);
        let sink = lib.cell_by_name("DFF_1X1").unwrap();
        let s = d.add_register(
            "s",
            &lib,
            sink,
            Point::new(4_000, 600),
            RegisterAttrs::clocked(clk),
        );
        let n = d.add_net("n");
        d.connect(d.find_pin(r, mbr_netlist::PinKind::Q(0)).unwrap(), n);
        d.connect(d.find_pin(s, mbr_netlist::PinKind::D(0)).unwrap(), n);

        let mut sta = Sta::new(&d, &lib, DelayModel::default()).unwrap();
        let resized = downsize_mbrs(&mut d, &lib, &mut sta, &[r], 5.0);
        assert_eq!(resized, 1, "slack is huge; size-only flop downsizes");
        assert!(
            lib.cell(d.inst(r).register_cell().unwrap())
                .drive_resistance
                > lib.cell(strong).drive_resistance
        );
    }
}
