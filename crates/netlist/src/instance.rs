use mbr_geom::{Dbu, Point};
use mbr_liberty::CellId;

use crate::{CombModelId, NetId, PinId};

/// Pin direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PinDir {
    /// Signal flows into the instance.
    Input,
    /// Signal flows out of the instance.
    Output,
}

/// Functional role of a pin.
///
/// Register pins carry their bit index so that D/Q pairs stay associated
/// through rewiring; scan pins carry the bit index for per-bit scan cells
/// (`bit == 0` for shared internal-scan SI/SO).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PinKind {
    /// Register data input, bit `n`.
    D(u8),
    /// Register data output, bit `n`.
    Q(u8),
    /// Register clock pin (shared across bits).
    Clock,
    /// Asynchronous reset.
    Reset,
    /// Asynchronous set.
    Set,
    /// Synchronous load enable.
    Enable,
    /// Scan input, bit `n` (0 for internal-scan cells).
    ScanIn(u8),
    /// Scan output, bit `n` (0 for internal-scan cells).
    ScanOut(u8),
    /// Scan enable (shared).
    ScanEnable,
    /// Combinational gate input `n`.
    GateIn(u8),
    /// Combinational gate output.
    GateOut,
    /// Port connection point.
    Port,
}

/// A pin: owned by an instance, optionally connected to a net.
///
/// `offset` is the pin location relative to the instance's lower-left corner;
/// the Section 4.2 placement LP references all pin coordinates as
/// `cell_corner + offset`.
#[derive(Clone, Debug, PartialEq)]
pub struct Pin {
    /// Owning instance (arena index into [`crate::Design`]).
    pub inst: crate::InstId,
    /// Role of the pin.
    pub kind: PinKind,
    /// Direction.
    pub dir: PinDir,
    /// Offset from the instance lower-left corner, DBU.
    pub offset: Point,
    /// Input capacitance presented by the pin, fF (0 for outputs).
    pub cap: f64,
    /// Connected net, if any.
    pub net: Option<NetId>,
}

/// Direction of a port instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Primary input: drives its net.
    Input,
    /// Primary output: sinks its net.
    Output,
}

/// Scan-chain membership of a register (Section 2, scan compatibility).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScanInfo {
    /// Scan partition: registers may share a chain only within a partition.
    pub partition: u16,
    /// Ordered-section constraints, if the register sits in a section of the
    /// chain whose order must be preserved: `(section, position)`.
    pub section: Option<(u32, u32)>,
}

/// Register-specific attributes attached to a register instance.
#[derive(Clone, Debug, PartialEq)]
pub struct RegisterAttrs {
    /// The clock net driving the CK pin.
    pub clock: NetId,
    /// Clock-gating group: registers are functionally compatible only when
    /// they share the same gating condition. `0` means ungated.
    pub gate_group: u32,
    /// Net driving the reset pin, when the class has one.
    pub reset: Option<NetId>,
    /// Net driving the set pin, when the class has one.
    pub set: Option<NetId>,
    /// Net driving the enable pin, when the class has one.
    pub enable: Option<NetId>,
    /// Net driving the scan-enable pin, when the class has one.
    pub scan_enable: Option<NetId>,
    /// Scan-chain membership, when the register is on a chain.
    pub scan: Option<ScanInfo>,
    /// Designer marked the register untouchable (Section 2: some registers
    /// are specified as fixed).
    pub fixed: bool,
    /// Designer allows resizing but not merging (size-only).
    pub size_only: bool,
    /// Useful-skew clock offset applied to this register's CK arrival, ps.
    pub clock_offset: f64,
}

impl RegisterAttrs {
    /// Minimal attributes: clocked by `clock`, ungated, no control nets, no
    /// scan, modifiable.
    pub fn clocked(clock: NetId) -> Self {
        RegisterAttrs {
            clock,
            gate_group: 0,
            reset: None,
            set: None,
            enable: None,
            scan_enable: None,
            scan: None,
            fixed: false,
            size_only: false,
            clock_offset: 0.0,
        }
    }

    /// Whether the designer forbids merging this register (Section 2 lists
    /// fixed and size-only registers as non-composable).
    pub fn is_untouchable(&self) -> bool {
        self.fixed || self.size_only
    }
}

/// What an instance is.
#[derive(Clone, Debug, PartialEq)]
pub enum InstKind {
    /// A register (width ≥ 1) instantiating a library cell.
    Register {
        /// The library cell implementing the register.
        cell: CellId,
        /// Register attributes (clock, control nets, scan, constraints).
        attrs: RegisterAttrs,
        /// Number of *connected* bits: an incomplete MBR has fewer connected
        /// bits than the cell width (Section 3's incomplete-MBR option).
        connected_bits: u8,
    },
    /// A combinational gate instantiating a [`crate::CombModel`].
    Comb {
        /// The gate model.
        model: CombModelId,
    },
    /// A primary input or output of the design.
    Port {
        /// Input or output.
        dir: PortDir,
        /// For inputs: source drive resistance, kΩ. For outputs: unused.
        drive_resistance: f64,
        /// For outputs: external load, fF. For inputs: unused.
        load: f64,
    },
}

/// An instance in the design: a register, combinational gate, or port.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// Design-unique name.
    pub name: String,
    /// Role and role-specific payload.
    pub kind: InstKind,
    /// Lower-left corner placement, DBU.
    pub loc: Point,
    /// Footprint width, DBU (0 for ports).
    pub width: Dbu,
    /// Footprint height, DBU (0 for ports).
    pub height: Dbu,
    /// Pins owned by this instance.
    pub pins: Vec<PinId>,
    /// Soft-deletion flag: merged-away registers stay in the arena as
    /// tombstones so ids remain stable.
    pub alive: bool,
}

impl Instance {
    /// Whether this is a live register.
    pub fn is_register(&self) -> bool {
        self.alive && matches!(self.kind, InstKind::Register { .. })
    }

    /// Register attributes, if this is a register (dead or alive).
    pub fn register_attrs(&self) -> Option<&RegisterAttrs> {
        match &self.kind {
            InstKind::Register { attrs, .. } => Some(attrs),
            _ => None,
        }
    }

    /// Mutable register attributes, if this is a register.
    pub fn register_attrs_mut(&mut self) -> Option<&mut RegisterAttrs> {
        match &mut self.kind {
            InstKind::Register { attrs, .. } => Some(attrs),
            _ => None,
        }
    }

    /// The library cell, if this is a register.
    pub fn register_cell(&self) -> Option<CellId> {
        match &self.kind {
            InstKind::Register { cell, .. } => Some(*cell),
            _ => None,
        }
    }

    /// Footprint rectangle at the current placement.
    pub fn rect(&self) -> mbr_geom::Rect {
        mbr_geom::Rect::from_origin_size(self.loc, self.width, self.height)
    }

    /// Center of the footprint — the blocking-register test point of
    /// Section 3.2.
    pub fn center(&self) -> Point {
        self.rect().center()
    }
}

/// The D/Q (and optional per-bit scan) pins of one register bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BitPins {
    /// Bit index within the register.
    pub bit: u8,
    /// Data input pin.
    pub d: PinId,
    /// Data output pin.
    pub q: PinId,
}
