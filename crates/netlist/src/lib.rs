#![warn(missing_docs)]
//! Placed-design database for multi-bit register composition.
//!
//! The netlist is the substrate every other crate operates on: a flat,
//! placed, gate-level design with first-class register metadata. It models
//! exactly what the DAC'17 composition flow needs:
//!
//! * instances ([`Instance`]) — registers (single- or multi-bit, pointing at
//!   an [`mbr_liberty`] cell), combinational gates (via lightweight
//!   [`CombModel`]s), and ports,
//! * nets and pins with cell-relative pin offsets (used by the Section 4.2
//!   placement LP),
//! * register attributes: clock net and clock-gating group, reset/set/enable
//!   control nets, scan partition / ordered-section / chain position, and
//!   `fixed` / `size_only` designer constraints (Section 2),
//! * netlist editing for composition: [`Design::merge_registers`] rewires a
//!   group of compatible registers into one MBR instance, and
//!   [`Design::split_register`] performs the inverse decomposition (the
//!   paper's stated future-work extension),
//! * wirelength accounting (total and clock HPWL) and design-rule validation,
//! * a handwritten parser/writer for the `.design` text format
//!   ([`Design::parse`], [`Design::to_design_text`]).
//!
//! # Examples
//!
//! Build a two-register design and merge the registers into a 2-bit MBR:
//!
//! ```
//! use mbr_geom::{Point, Rect};
//! use mbr_liberty::standard_library;
//! use mbr_netlist::{Design, RegisterAttrs};
//!
//! let lib = standard_library();
//! let mut design = Design::new("demo", Rect::new(Point::new(0, 0), Point::new(100_000, 100_000)));
//! let clk = design.add_net("clk");
//! let cell1 = lib.cell_by_name("DFF_1X1").expect("1-bit flop");
//! let attrs = RegisterAttrs::clocked(clk);
//! let r0 = design.add_register("r0", &lib, cell1, mbr_geom::Point::new(1_000, 600), attrs.clone());
//! let r1 = design.add_register("r1", &lib, cell1, mbr_geom::Point::new(3_000, 600), attrs);
//! # use mbr_netlist::PinKind;
//! # let d0 = design.add_net("d0"); let q0 = design.add_net("q0");
//! # let d1 = design.add_net("d1"); let q1 = design.add_net("q1");
//! # design.connect(design.find_pin(r0, PinKind::D(0)).unwrap(), d0);
//! # design.connect(design.find_pin(r0, PinKind::Q(0)).unwrap(), q0);
//! # design.connect(design.find_pin(r1, PinKind::D(0)).unwrap(), d1);
//! # design.connect(design.find_pin(r1, PinKind::Q(0)).unwrap(), q1);
//! let cell2 = lib.cell_by_name("DFF_2X1").expect("2-bit flop");
//! let mbr = design.merge_registers(&[r0, r1], &lib, cell2, mbr_geom::Point::new(2_000, 600))?;
//! assert_eq!(design.register_width(mbr), 2);
//! assert_eq!(design.live_register_count(), 1);
//! # Ok::<(), mbr_netlist::EditError>(())
//! ```

mod comb;
mod design;
mod edit;
mod ids;
mod instance;
mod parse;
mod scan;
mod validate;

pub use comb::CombModel;
pub use design::{register_data_pin_offset, Design};
pub use edit::EditError;
pub use ids::{CombModelId, InstId, NetId, PinId};
pub use instance::{
    BitPins, InstKind, Instance, PinDir, PinKind, PortDir, RegisterAttrs, ScanInfo,
};
pub use parse::ParseDesignError;
pub use scan::ScanStitchReport;
pub use validate::ValidationIssue;
