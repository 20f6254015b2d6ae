//! Cross-stage flow invariant checker (static analysis over flow state).
//!
//! The composition flow is a pipeline of destructive edits — candidate
//! extraction, ILP partitioning, MBR mapping, placement/legalization,
//! incremental STA, scan re-stitching — and a silent invariant break in any
//! stage corrupts every downstream metric without failing a test. This crate
//! verifies the *hand-off contracts between stages*: each checker takes the
//! flow state (`Design`, `Library`, placement grid, partition solution,
//! `Sta`) and emits typed [`Diagnostic`]s instead of panicking.
//!
//! Checkers, one per invariant family:
//!
//! * [`check_netlist`] — netlist structure, delegating to and extending
//!   [`mbr_netlist::Design::validate`],
//! * [`check_partition`] — the assignment solution is an exact cover and no
//!   group violates the paper's §3 compatibility rules (re-verified
//!   post-solve, not just pre-solve),
//! * [`check_mapping`] — every register instance references a library cell
//!   whose bit-width, footprint and pin map match the instance,
//! * [`check_placement`] — audited instances sit inside the die on the
//!   row/site grid and overlap nothing,
//! * [`check_scan`] — stitched scan chains visit exactly the expected
//!   registers with intact SO→SI connectivity and ordered sections in order,
//! * [`check_sta`] — incrementally maintained arrivals, required times and
//!   the WNS/TNS/failing-count summary match a fresh full analysis.
//!
//! The composition flow runs these as checkpoints after each stage,
//! controlled by a [`Paranoia`] level; `cargo run --bin check` runs a full
//! workload under maximum paranoia.

use std::fmt;

use mbr_geom::Dbu;
use mbr_netlist::{InstId, PinId, ValidationIssue};

mod mapping;
mod netlist;
mod partition;
mod placement;
mod scan;
mod sta;

pub use mapping::check_mapping;
pub use netlist::check_netlist;
pub use partition::{check_partition, MergeGroup, PartitionCover};
pub use placement::check_placement;
pub use scan::check_scan;
pub use sta::{check_sta, STA_EPSILON};

/// How much in-flow checking the composition engine performs.
///
/// The ordering is meaningful: each level includes everything below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Paranoia {
    /// No in-flow checks.
    Off,
    /// The cheap, near-linear subset: netlist structure, partition cover
    /// legality, mapping legality.
    Cheap,
    /// Everything: adds placement legality (including the exhaustive overlap
    /// oracle), scan-chain integrity, and a fresh-vs-incremental STA
    /// comparison. Costs roughly one extra full timing analysis per run.
    Full,
}

impl Paranoia {
    /// The build-appropriate default: [`Paranoia::Full`] in debug builds
    /// (tests always check everything), [`Paranoia::Cheap`] in release
    /// builds (production runs keep the near-linear subset on).
    pub fn build_default() -> Self {
        if cfg!(debug_assertions) {
            Paranoia::Full
        } else {
            Paranoia::Cheap
        }
    }
}

impl Default for Paranoia {
    fn default() -> Self {
        Paranoia::build_default()
    }
}

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily corrupt (e.g. a floating input net).
    Warning,
    /// A broken invariant; downstream results cannot be trusted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The flow stage whose hand-off contract a diagnostic belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Netlist structure (input and after every edit).
    Netlist,
    /// Assignment/partitioning (§3.1 exact cover and compatibility).
    Partition,
    /// MBR mapping (§4.1 cell selection).
    Mapping,
    /// Placement and legalization (§4.2).
    Placement,
    /// Scan-chain stitching.
    Scan,
    /// Static timing analysis.
    Timing,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Netlist => write!(f, "netlist"),
            Stage::Partition => write!(f, "partition"),
            Stage::Mapping => write!(f, "mapping"),
            Stage::Placement => write!(f, "placement"),
            Stage::Scan => write!(f, "scan"),
            Stage::Timing => write!(f, "timing"),
        }
    }
}

/// Which timing quantity drifted in a [`Diagnostic::StaDrift`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaQuantity {
    /// Worst arrival time at a pin.
    Arrival,
    /// Required time at a pin.
    Required,
}

impl fmt::Display for StaQuantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaQuantity::Arrival => write!(f, "arrival"),
            StaQuantity::Required => write!(f, "required"),
        }
    }
}

/// A broken (or suspicious) cross-stage invariant, with the entities
/// involved. Human-readable via [`fmt::Display`]; severity and stage via
/// [`Diagnostic::severity`] / [`Diagnostic::stage`].
#[derive(Clone, Debug, PartialEq)]
pub enum Diagnostic {
    // ---- netlist structure --------------------------------------------
    /// An issue reported by [`mbr_netlist::Design::validate`].
    NetlistStructure(ValidationIssue),
    /// A register's declared connected-bit count disagrees with its wiring.
    RegisterWidthMismatch {
        /// The register.
        inst: InstId,
        /// `connected_bits` as recorded on the instance.
        declared: u8,
        /// Bits that actually have a D or Q connection.
        wired: usize,
    },
    /// A register's clock pin is not connected to its declared clock net.
    ClockDisconnected {
        /// The register.
        inst: InstId,
    },

    // ---- partition legality -------------------------------------------
    /// A composable register is covered by no group of the solution.
    UncoveredElement {
        /// The register.
        inst: InstId,
    },
    /// A composable register is covered by more than one group.
    DoubleCoveredElement {
        /// The register.
        inst: InstId,
    },
    /// A group member is not a composable element of the cover (or not a
    /// register at all).
    ForeignGroupMember {
        /// Index of the group in the solution.
        group: usize,
        /// The offending member.
        inst: InstId,
    },
    /// A group's total bit count exceeds its target cell's width (no
    /// library MBR of the class can hold it).
    GroupWidthOverflow {
        /// Index of the group in the solution.
        group: usize,
        /// Total bits of the members.
        bits: u32,
        /// Width of the target cell (0 when the cell id is invalid).
        cell_width: u8,
    },
    /// A group mixes clock domains (different clock nets).
    GroupMixesClocks {
        /// Index of the group in the solution.
        group: usize,
        /// First member of the clashing pair.
        a: InstId,
        /// Second member of the clashing pair.
        b: InstId,
    },
    /// A group mixes clock-gating groups.
    GroupMixesGateGroups {
        /// Index of the group in the solution.
        group: usize,
        /// First member of the clashing pair.
        a: InstId,
        /// Second member of the clashing pair.
        b: InstId,
    },
    /// A group mixes reset/set/enable/scan-enable control nets.
    GroupMixesControlNets {
        /// Index of the group in the solution.
        group: usize,
        /// First member of the clashing pair.
        a: InstId,
        /// Second member of the clashing pair.
        b: InstId,
    },
    /// A group mixes scan segments: on-chain with off-chain registers,
    /// different scan partitions, or different ordered sections.
    GroupMixesScanSegments {
        /// Index of the group in the solution.
        group: usize,
        /// First member of the clashing pair.
        a: InstId,
        /// Second member of the clashing pair.
        b: InstId,
    },

    // ---- mapping legality ---------------------------------------------
    /// A register references a cell id outside the library.
    UnknownCell {
        /// The register.
        inst: InstId,
    },
    /// A register's footprint disagrees with its library cell.
    FootprintMismatch {
        /// The register.
        inst: InstId,
    },
    /// A register has more connected bits than its cell has storage.
    CellWidthExceeded {
        /// The register.
        inst: InstId,
        /// Connected bits on the instance.
        connected: u8,
        /// The cell's bit width.
        cell_width: u8,
    },
    /// A register's pin set disagrees with its cell (bit pins, control
    /// pins per the class, scan pins per the scan style, or a control pin
    /// wired to the wrong net).
    PinMapMismatch {
        /// The register.
        inst: InstId,
        /// What disagreed.
        detail: String,
    },

    // ---- placement legality -------------------------------------------
    /// An audited instance's footprint leaves the die.
    PlacementOutsideDie {
        /// The instance.
        inst: InstId,
    },
    /// An audited instance's y coordinate is not a legal row origin.
    OffRow {
        /// The instance.
        inst: InstId,
        /// Its y coordinate, DBU.
        y: Dbu,
    },
    /// An audited instance's x coordinate is not site-aligned.
    OffSite {
        /// The instance.
        inst: InstId,
        /// Its x coordinate, DBU.
        x: Dbu,
    },
    /// Two live instances overlap (at least one of them audited).
    Overlap {
        /// First instance.
        a: InstId,
        /// Second instance.
        b: InstId,
    },

    // ---- scan-chain integrity -----------------------------------------
    /// A partition's chain wiring is structurally broken (no unique head
    /// port, a dangling hop, fan-out on a chain net, or a cycle).
    ScanChainBroken {
        /// The scan partition.
        partition: u16,
        /// What broke, for humans.
        detail: String,
    },
    /// A partition's chain does not visit exactly the expected registers.
    ScanChainMembership {
        /// The scan partition.
        partition: u16,
        /// Expected registers the chain never visits.
        missing: Vec<InstId>,
        /// Registers the chain re-enters non-contiguously.
        duplicated: Vec<InstId>,
        /// Visited registers that should not be on this chain.
        unexpected: Vec<InstId>,
    },
    /// Two ordered-section registers appear on the chain out of their
    /// `(section, position)` order.
    ScanOrderViolation {
        /// The scan partition.
        partition: u16,
        /// The earlier-visited register (with the larger section key).
        first: InstId,
        /// The later-visited register (with the smaller section key).
        second: InstId,
    },

    // ---- STA consistency ----------------------------------------------
    /// The incremental analysis covers a different endpoint set than a
    /// fresh one — the design changed structurally without a rebuild.
    StaStale {
        /// Endpoints in the incremental report.
        incremental: usize,
        /// Endpoints in the fresh report.
        full: usize,
    },
    /// An incrementally maintained timing value drifted from a fresh full
    /// analysis beyond epsilon. `NaN` marks a value one side lacks.
    StaDrift {
        /// The pin whose value drifted.
        pin: PinId,
        /// Which quantity drifted.
        quantity: StaQuantity,
        /// The incremental value, ps.
        incremental: f64,
        /// The fresh value, ps.
        full: f64,
    },
    /// The incrementally maintained WNS or TNS drifted from a fresh full
    /// analysis beyond epsilon, or the failing-endpoint count differs.
    StaSummaryDrift {
        /// The incremental `(WNS ps, TNS ps, failing endpoints)`.
        incremental: (f64, f64, usize),
        /// The fresh `(WNS ps, TNS ps, failing endpoints)`.
        full: (f64, f64, usize),
    },
    /// The design no longer admits a timing analysis at all.
    StaBroken {
        /// The analysis error.
        message: String,
    },
}

impl Diagnostic {
    /// The severity of this diagnostic.
    ///
    /// Everything is an [`Severity::Error`] except an undriven net, which
    /// can legitimately model a tied-off or unconstrained input.
    pub fn severity(&self) -> Severity {
        match self {
            Diagnostic::NetlistStructure(ValidationIssue::UndrivenNet { .. }) => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// The flow stage whose contract this diagnostic belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            Diagnostic::NetlistStructure(_)
            | Diagnostic::RegisterWidthMismatch { .. }
            | Diagnostic::ClockDisconnected { .. } => Stage::Netlist,
            Diagnostic::UncoveredElement { .. }
            | Diagnostic::DoubleCoveredElement { .. }
            | Diagnostic::ForeignGroupMember { .. }
            | Diagnostic::GroupWidthOverflow { .. }
            | Diagnostic::GroupMixesClocks { .. }
            | Diagnostic::GroupMixesGateGroups { .. }
            | Diagnostic::GroupMixesControlNets { .. }
            | Diagnostic::GroupMixesScanSegments { .. } => Stage::Partition,
            Diagnostic::UnknownCell { .. }
            | Diagnostic::FootprintMismatch { .. }
            | Diagnostic::CellWidthExceeded { .. }
            | Diagnostic::PinMapMismatch { .. } => Stage::Mapping,
            Diagnostic::PlacementOutsideDie { .. }
            | Diagnostic::OffRow { .. }
            | Diagnostic::OffSite { .. }
            | Diagnostic::Overlap { .. } => Stage::Placement,
            Diagnostic::ScanChainBroken { .. }
            | Diagnostic::ScanChainMembership { .. }
            | Diagnostic::ScanOrderViolation { .. } => Stage::Scan,
            Diagnostic::StaStale { .. }
            | Diagnostic::StaDrift { .. }
            | Diagnostic::StaSummaryDrift { .. }
            | Diagnostic::StaBroken { .. } => Stage::Timing,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnostic::NetlistStructure(issue) => write!(f, "{issue}"),
            Diagnostic::RegisterWidthMismatch {
                inst,
                declared,
                wired,
            } => write!(
                f,
                "{inst} declares {declared} connected bits but {wired} are wired"
            ),
            Diagnostic::ClockDisconnected { inst } => {
                write!(f, "{inst} clock pin is not on its declared clock net")
            }
            Diagnostic::UncoveredElement { inst } => {
                write!(f, "composable register {inst} is covered by no group")
            }
            Diagnostic::DoubleCoveredElement { inst } => {
                write!(f, "composable register {inst} is covered more than once")
            }
            Diagnostic::ForeignGroupMember { group, inst } => {
                write!(f, "group {group} member {inst} is not a composable element")
            }
            Diagnostic::GroupWidthOverflow {
                group,
                bits,
                cell_width,
            } => write!(
                f,
                "group {group} holds {bits} bits but its cell stores {cell_width}"
            ),
            Diagnostic::GroupMixesClocks { group, a, b } => {
                write!(f, "group {group} mixes clock domains ({a} vs {b})")
            }
            Diagnostic::GroupMixesGateGroups { group, a, b } => {
                write!(f, "group {group} mixes clock-gating groups ({a} vs {b})")
            }
            Diagnostic::GroupMixesControlNets { group, a, b } => {
                write!(f, "group {group} mixes control nets ({a} vs {b})")
            }
            Diagnostic::GroupMixesScanSegments { group, a, b } => {
                write!(f, "group {group} mixes scan segments ({a} vs {b})")
            }
            Diagnostic::UnknownCell { inst } => {
                write!(f, "{inst} references a cell outside the library")
            }
            Diagnostic::FootprintMismatch { inst } => {
                write!(f, "{inst} footprint disagrees with its library cell")
            }
            Diagnostic::CellWidthExceeded {
                inst,
                connected,
                cell_width,
            } => write!(
                f,
                "{inst} has {connected} connected bits in a {cell_width}-bit cell"
            ),
            Diagnostic::PinMapMismatch { inst, detail } => {
                write!(f, "{inst} pin map disagrees with its cell: {detail}")
            }
            Diagnostic::PlacementOutsideDie { inst } => {
                write!(f, "{inst} footprint leaves the die")
            }
            Diagnostic::OffRow { inst, y } => {
                write!(f, "{inst} sits off the row grid (y = {y})")
            }
            Diagnostic::OffSite { inst, x } => {
                write!(f, "{inst} is not site-aligned (x = {x})")
            }
            Diagnostic::Overlap { a, b } => write!(f, "{a} overlaps {b}"),
            Diagnostic::ScanChainBroken { partition, detail } => {
                write!(f, "scan chain {partition} is broken: {detail}")
            }
            Diagnostic::ScanChainMembership {
                partition,
                missing,
                duplicated,
                unexpected,
            } => write!(
                f,
                "scan chain {partition} membership: {} missing, {} duplicated, {} unexpected",
                missing.len(),
                duplicated.len(),
                unexpected.len()
            ),
            Diagnostic::ScanOrderViolation {
                partition,
                first,
                second,
            } => write!(
                f,
                "scan chain {partition} visits {first} before {second}, \
                 against their section order"
            ),
            Diagnostic::StaStale { incremental, full } => write!(
                f,
                "incremental STA is structurally stale \
                 ({incremental} endpoints vs {full} in a fresh analysis)"
            ),
            Diagnostic::StaDrift {
                pin,
                quantity,
                incremental,
                full,
            } => write!(
                f,
                "{pin} {quantity} drifted: incremental {incremental:.6} vs full {full:.6} ps"
            ),
            Diagnostic::StaSummaryDrift { incremental, full } => write!(
                f,
                "timing summary drifted: incremental WNS {:.6} ps, TNS {:.6} ps, \
                 {} failing vs full {:.6} ps, {:.6} ps, {} failing",
                incremental.0, incremental.1, incremental.2, full.0, full.1, full.2
            ),
            Diagnostic::StaBroken { message } => {
                write!(f, "design no longer analyzes: {message}")
            }
        }
    }
}

/// A collection of diagnostics from one or more checkers, with convenience
/// accessors and a human-readable [`fmt::Display`] dump.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Every diagnostic, in checker order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// A report over the given diagnostics.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        CheckReport { diagnostics }
    }

    /// True when nothing at all was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Appends another checker's findings.
    pub fn extend(&mut self, diagnostics: Vec<Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "[{}] {}: {d}", d.stage(), d.severity())?;
        }
        write!(
            f,
            "{} diagnostics ({} errors)",
            self.diagnostics.len(),
            self.error_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paranoia_levels_are_ordered() {
        assert!(Paranoia::Off < Paranoia::Cheap);
        assert!(Paranoia::Cheap < Paranoia::Full);
        assert!(Paranoia::build_default() >= Paranoia::Cheap);
    }

    #[test]
    fn report_counts_errors_only() {
        let mut report = CheckReport::default();
        assert!(report.is_clean());
        report.extend(vec![
            Diagnostic::NetlistStructure(ValidationIssue::UndrivenNet {
                net: mbr_netlist::NetId::from_index(0),
            }),
            Diagnostic::UnknownCell {
                inst: InstId::from_index(0),
            },
        ]);
        assert!(!report.is_clean());
        assert_eq!(report.error_count(), 1);
        let text = report.to_string();
        assert!(text.contains("2 diagnostics (1 errors)"), "{text}");
    }
}
