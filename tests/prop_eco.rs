//! ECO robustness: arbitrary ECO script lines, with integers and clock
//! periods at the edges of their types, must never panic the parser or
//! `apply_eco`. An accepted `move`/`add` leaves the register inside the
//! die, an accepted `tighten` leaves a positive finite period, and a
//! rejected ECO leaves the design untouched.

use std::sync::OnceLock;

use mbr::core::{apply_eco, Eco, EcoScript};
use mbr::liberty::{standard_library, Library};
use mbr::netlist::Design;
use mbr::sta::DelayModel;
use mbr::workloads::d1;
use mbr_test::check::{any_u64, vec_of, Gen};
use mbr_test::{prop_assert, prop_assert_eq, props};

/// The library, one generated d1 design, and its register names, built
/// once for every case.
fn base() -> &'static (Library, Design, Vec<String>) {
    static BASE: OnceLock<(Library, Design, Vec<String>)> = OnceLock::new();
    BASE.get_or_init(|| {
        let lib = standard_library();
        let design = d1().generate(&lib);
        let names = design
            .registers()
            .map(|(_, inst)| inst.name.clone())
            .collect();
        (lib, design, names)
    })
}

/// An integer token: the `i64` extremes and their neighbours, one past
/// `i64::MAX` (a parse error), zero, die-scale values, and any `i64`.
fn arb_int() -> impl Gen<Value = String> {
    (0usize..8, any_u64()).prop_map(|(pick, raw)| match pick {
        0 => i64::MIN.to_string(),
        1 => i64::MAX.to_string(),
        2 => (i64::MAX - 1).to_string(),
        3 => "9223372036854775808".to_string(),
        4 => "0".to_string(),
        5 => "-1".to_string(),
        6 => (raw % 400_000).to_string(),
        _ => (raw as i64).to_string(),
    })
}

/// A clock-period token: infinities, NaN, signed zeros, extreme
/// magnitudes, and ordinary periods.
fn arb_period() -> impl Gen<Value = String> {
    (0usize..8, 1u64..2_000).prop_map(|(pick, ps)| match pick {
        0 => "inf".to_string(),
        1 => "-inf".to_string(),
        2 => "NaN".to_string(),
        3 => "0".to_string(),
        4 => "-0".to_string(),
        5 => "1e-300".to_string(),
        6 => "1e308".to_string(),
        _ => ps.to_string(),
    })
}

/// One ECO line over d1's first 60 registers and the standard library's
/// first 8 cells, or an unknown name in their place.
fn arb_line() -> impl Gen<Value = String> {
    (
        0usize..6,
        0usize..64,
        arb_int(),
        arb_int(),
        arb_int(),
        arb_int(),
        arb_period(),
        0usize..9,
    )
        .prop_map(|(verb, reg, a, b, c, d, period, cell)| {
            let (lib, _, names) = base();
            let name = names
                .get(reg)
                .filter(|_| reg < 60)
                .map_or("no_such_register".to_string(), Clone::clone);
            let cell = lib
                .cells()
                .nth(cell)
                .filter(|_| cell < 8)
                .map_or("NO_SUCH_CELL".to_string(), |(_, c)| c.name.clone());
            match verb {
                0 => format!("move {name} {a} {b}"),
                1 => format!("add {name} r_new_{reg} {a} {b}"),
                2 => format!("tighten {period}"),
                3 => format!("retarget {name} {cell}"),
                4 => format!("remove {name}"),
                _ => format!("carve {a} {b} {c} {d}"),
            }
        })
}

/// Whether `name` is a register whose footprint lies inside the die,
/// computed without overflow.
fn inside_die(design: &Design, name: &str) -> bool {
    let Some(id) = design.inst_by_name(name) else {
        return false;
    };
    let inst = design.inst(id);
    let die = design.die();
    let (x, y) = (inst.loc.x as i128, inst.loc.y as i128);
    x >= die.lo().x as i128
        && y >= die.lo().y as i128
        && x + inst.width as i128 <= die.hi().x as i128
        && y + inst.height as i128 <= die.hi().y as i128
}

props! {
    cases = 64;

    /// Parsing and applying arbitrary ECO lines never panics, and every
    /// ECO is either applied soundly or rejected without effect.
    fn eco_scripts_never_panic_on_extreme_values(lines in vec_of(arb_line(), 1usize..4)) {
        let (lib, base_design, _) = base();
        let mut design = base_design.clone();
        let mut model = DelayModel::default();
        // Line by line, so one unparsable line does not void the others.
        let ecos = lines.iter().filter_map(|line| EcoScript::parse(line).ok());
        for eco in ecos.flat_map(|script| script.ecos) {
            let before = design.to_design_text(lib);
            let period = model.clock_period;
            match apply_eco(&mut design, &mut model, lib, &eco) {
                Ok(_) => match &eco {
                    Eco::Move { name, .. } | Eco::Add { name, .. } => {
                        prop_assert!(inside_die(&design, name), "{eco} left the die");
                    }
                    Eco::TightenClock { .. } => {
                        prop_assert!(
                            model.clock_period.is_finite() && model.clock_period > 0.0,
                            "{eco} set period {}",
                            model.clock_period
                        );
                    }
                    _ => {}
                },
                Err(_) => {
                    prop_assert!(
                        design.to_design_text(lib) == before,
                        "rejected {eco} edited the design"
                    );
                    prop_assert_eq!(model.clock_period.to_bits(), period.to_bits());
                }
            }
        }
    }
}
