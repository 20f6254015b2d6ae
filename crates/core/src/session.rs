//! Incremental composition sessions: apply ECOs, re-run only what they
//! dirtied.
//!
//! A [`CompositionSession`] owns an evolving *pre-composition* design plus
//! the two persistent analyses of the flow that pay for their upkeep —
//! the timing graph and the partition/ILP memo, which holds the partitions
//! of the last pass only (every memo hit measured on the ECO workloads came
//! from the pass before). Compatibility, §4.2 placement, legalization and
//! useful skew are rebuilt every pass: caches for them measured slower than
//! the rebuild, and a placement is a closed-form selection over its pins.
//! [`CompositionSession::open`] runs the full flow once (pass 0);
//! [`CompositionSession::apply`] records an [`Eco`] and marks the instances
//! it touched; [`CompositionSession::recompose`] re-runs the flow reusing
//! every cached result the ECOs do not reach.
//!
//! **Equivalence contract:** each pass clones the session's pre-compose
//! design and runs the *same* driver ([`crate::stages::run_flow`]) as the
//! batch [`crate::Composer`], with only the backend swapped. Stages that
//! mutate the design always run in full; reuse is confined to stages whose
//! outputs are proven bitwise-equal (incremental STA, oracle-tested in
//! `mbr-sta`) or keyed on every input they read (partition candidates +
//! ILP solutions). A `recompose()` therefore
//! produces a [`ComposeOutcome`] and a composed design byte-identical to a
//! fresh batch `compose` on the same mutated design — the differential
//! test in `tests/session.rs` asserts exactly that, per preset, at several
//! thread counts.

use std::error::Error;
use std::fmt;

use mbr_geom::{Point, Rect};
use mbr_liberty::Library;
use mbr_netlist::{Design, EditError, InstId};
use mbr_obs::{self as obs, Counter};
use mbr_sta::{DelayModel, Sta};

use crate::candidates::PartitionCache;
use crate::flow::{ComposeError, ComposeOutcome};
use crate::stages::{self, Backend, EcoDirty, Strategy};
use crate::ComposerOptions;

/// One engineering change order against the pre-composition design.
#[derive(Clone, Debug, PartialEq)]
pub enum Eco {
    /// Move a register to a new lower-left location.
    Move {
        /// Register instance name.
        name: String,
        /// New lower-left x, DBU.
        x: i64,
        /// New lower-left y, DBU.
        y: i64,
    },
    /// Swap a register's cell for a same-class, same-width variant.
    Retarget {
        /// Register instance name.
        name: String,
        /// Target library cell name.
        cell: String,
    },
    /// Remove a register (downstream logic loses that timing start point).
    Remove {
        /// Register instance name.
        name: String,
    },
    /// Add a register cloned from a template register's cell and control
    /// nets (off any scan chain), at the given location.
    Add {
        /// Existing register whose cell/control nets the new one copies.
        template: String,
        /// Name of the new register.
        name: String,
        /// Lower-left x, DBU.
        x: i64,
        /// Lower-left y, DBU.
        y: i64,
    },
    /// Change the clock period (usually tightening it).
    TightenClock {
        /// New clock period, ps.
        period_ps: f64,
    },
    /// Mark every register intersecting a rectangle as `fixed` (e.g. a
    /// macro or routing blockage was carved out of the area).
    Carve {
        /// Lower-left x, DBU.
        x0: i64,
        /// Lower-left y, DBU.
        y0: i64,
        /// Upper-right x, DBU.
        x1: i64,
        /// Upper-right y, DBU.
        y1: i64,
    },
}

impl Eco {
    /// Whether this ECO invalidates per-instance reuse (registers appear or
    /// disappear, or a global constraint changes) rather than touching a
    /// bounded set of instances.
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            Eco::Remove { .. } | Eco::Add { .. } | Eco::TightenClock { .. }
        )
    }
}

impl fmt::Display for Eco {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Eco::Move { name, x, y } => write!(f, "move {name} {x} {y}"),
            Eco::Retarget { name, cell } => write!(f, "retarget {name} {cell}"),
            Eco::Remove { name } => write!(f, "remove {name}"),
            Eco::Add {
                template,
                name,
                x,
                y,
            } => write!(f, "add {template} {name} {x} {y}"),
            Eco::TightenClock { period_ps } => write!(f, "tighten {period_ps}"),
            Eco::Carve { x0, y0, x1, y1 } => write!(f, "carve {x0} {y0} {x1} {y1}"),
        }
    }
}

/// Why an ECO could not be applied. Application is atomic: a failed ECO
/// leaves the design untouched.
#[derive(Clone, Debug, PartialEq)]
pub enum EcoError {
    /// No instance with this name exists.
    UnknownInstance(String),
    /// The named instance is not a live register.
    NotARegister(String),
    /// No library cell with this name exists.
    UnknownCell(String),
    /// An instance with the new register's name already exists.
    NameTaken(String),
    /// The register's footprint would leave the die at the target location.
    OutsideDie(String),
    /// The clock period must be positive and finite.
    BadPeriod(f64),
    /// `carve` corners must satisfy `x0 <= x1` and `y0 <= y1`.
    BadRegion,
    /// The underlying netlist edit was rejected.
    Edit(EditError),
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::UnknownInstance(n) => write!(f, "no instance named `{n}`"),
            EcoError::NotARegister(n) => write!(f, "`{n}` is not a live register"),
            EcoError::UnknownCell(n) => write!(f, "no library cell named `{n}`"),
            EcoError::NameTaken(n) => write!(f, "an instance named `{n}` already exists"),
            EcoError::OutsideDie(n) => write!(f, "`{n}` would leave the die"),
            EcoError::BadPeriod(p) => {
                write!(f, "clock period must be positive and finite, got {p}")
            }
            EcoError::BadRegion => write!(f, "carve region corners are inverted"),
            EcoError::Edit(e) => write!(f, "netlist edit rejected: {e}"),
        }
    }
}

impl Error for EcoError {}

impl From<EditError> for EcoError {
    fn from(e: EditError) -> Self {
        EcoError::Edit(e)
    }
}

/// What an applied ECO dirtied.
#[derive(Clone, Debug, Default)]
pub struct EcoEffect {
    /// Instances edited in place (empty for structural ECOs, whose effect
    /// is global).
    pub touched: Vec<InstId>,
    /// Whether per-instance reuse is invalidated (see
    /// [`Eco::is_structural`]).
    pub structural: bool,
}

/// Applies one ECO to a pre-composition design (and the delay model, for
/// clock changes). This is the single mutation path for both
/// [`CompositionSession::apply`] and the batch side of differential tests —
/// the two arms diverge only in what they *reuse*, never in what the ECO
/// does.
///
/// # Errors
///
/// See [`EcoError`]. On error the design and model are unchanged.
pub fn apply_eco(
    design: &mut Design,
    model: &mut DelayModel,
    lib: &Library,
    eco: &Eco,
) -> Result<EcoEffect, EcoError> {
    match eco {
        Eco::Move { name, x, y } => {
            let id = live_register(design, name)?;
            let inst = design.inst(id);
            let loc = Point::new(*x, *y);
            check_in_die(design.die(), loc, inst.width, inst.height, name)?;
            design.inst_mut(id).loc = loc;
            Ok(EcoEffect {
                touched: vec![id],
                structural: false,
            })
        }
        Eco::Retarget { name, cell } => {
            let id = live_register(design, name)?;
            let new_cell = lib
                .cell_by_name(cell)
                .ok_or_else(|| EcoError::UnknownCell(cell.clone()))?;
            design.resize_register(id, lib, new_cell)?;
            Ok(EcoEffect {
                touched: vec![id],
                structural: false,
            })
        }
        Eco::Remove { name } => {
            let id = live_register(design, name)?;
            design.remove_register(id)?;
            Ok(EcoEffect {
                touched: Vec::new(),
                structural: true,
            })
        }
        Eco::Add {
            template,
            name,
            x,
            y,
        } => {
            let template_id = live_register(design, template)?;
            if design.inst_by_name(name).is_some() {
                return Err(EcoError::NameTaken(name.clone()));
            }
            let t = design.inst(template_id);
            let cell = t.register_cell().expect("live register");
            let mut attrs = t.register_attrs().expect("live register").clone();
            // The new register is off any scan chain (copying the
            // template's chain position would corrupt section ordering)
            // and starts with no useful-skew offset.
            attrs.scan = None;
            attrs.clock_offset = 0.0;
            let c = lib.cell(cell);
            let loc = Point::new(*x, *y);
            check_in_die(design.die(), loc, c.footprint_w, c.footprint_h, name)?;
            design.add_register(name.clone(), lib, cell, loc, attrs);
            Ok(EcoEffect {
                touched: Vec::new(),
                structural: true,
            })
        }
        Eco::TightenClock { period_ps } => {
            if !period_ps.is_finite() || *period_ps <= 0.0 {
                return Err(EcoError::BadPeriod(*period_ps));
            }
            model.clock_period = *period_ps;
            Ok(EcoEffect {
                touched: Vec::new(),
                structural: true,
            })
        }
        Eco::Carve { x0, y0, x1, y1 } => {
            if x0 > x1 || y0 > y1 {
                return Err(EcoError::BadRegion);
            }
            let region = Rect::new(Point::new(*x0, *y0), Point::new(*x1, *y1));
            let touched: Vec<InstId> = design
                .registers()
                .filter(|(_, inst)| {
                    inst.rect().intersects(&region)
                        && !inst.register_attrs().expect("register").fixed
                })
                .map(|(id, _)| id)
                .collect();
            for &id in &touched {
                design
                    .inst_mut(id)
                    .register_attrs_mut()
                    .expect("register")
                    .fixed = true;
            }
            Ok(EcoEffect {
                touched,
                structural: false,
            })
        }
    }
}

fn live_register(design: &Design, name: &str) -> Result<InstId, EcoError> {
    let id = design
        .inst_by_name(name)
        .ok_or_else(|| EcoError::UnknownInstance(name.to_string()))?;
    if !design.inst(id).is_register() {
        return Err(EcoError::NotARegister(name.to_string()));
    }
    Ok(id)
}

/// A footprint whose far corner overflows `i64` is outside every die.
fn check_in_die(die: Rect, loc: Point, w: i64, h: i64, name: &str) -> Result<(), EcoError> {
    let inside = loc.x >= die.lo().x
        && loc.y >= die.lo().y
        && loc.x.checked_add(w).is_some_and(|x| x <= die.hi().x)
        && loc.y.checked_add(h).is_some_and(|y| y <= die.hi().y);
    if inside {
        Ok(())
    } else {
        Err(EcoError::OutsideDie(name.to_string()))
    }
}

/// A parsed ECO script: one ECO per line.
///
/// ```text
/// # comments and blank lines are skipped
/// move r17 120500 4200
/// retarget r3 DFF_1X1
/// remove r9
/// add r3 r_new 10000 600
/// tighten 750
/// carve 0 0 50000 50000
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EcoScript {
    /// The ECOs, in application order.
    pub ecos: Vec<Eco>,
}

/// A syntax error in an ECO script.
#[derive(Clone, Debug, PartialEq)]
pub struct EcoParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EcoParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eco script line {}: {}", self.line, self.message)
    }
}

impl Error for EcoParseError {}

impl EcoScript {
    /// Parses the text format shown on [`EcoScript`].
    ///
    /// # Errors
    ///
    /// [`EcoParseError`] with the offending 1-based line number.
    pub fn parse(src: &str) -> Result<EcoScript, EcoParseError> {
        let mut ecos = Vec::new();
        for (i, raw) in src.lines().enumerate() {
            let line = i + 1;
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let err = |message: String| EcoParseError { line, message };
            let tokens: Vec<&str> = text.split_whitespace().collect();
            let int = |tok: &str| {
                tok.parse::<i64>()
                    .map_err(|_| err(format!("expected an integer, got `{tok}`")))
            };
            let eco = match tokens.as_slice() {
                ["move", name, x, y] => Eco::Move {
                    name: (*name).to_string(),
                    x: int(x)?,
                    y: int(y)?,
                },
                ["retarget", name, cell] => Eco::Retarget {
                    name: (*name).to_string(),
                    cell: (*cell).to_string(),
                },
                ["remove", name] => Eco::Remove {
                    name: (*name).to_string(),
                },
                ["add", template, name, x, y] => Eco::Add {
                    template: (*template).to_string(),
                    name: (*name).to_string(),
                    x: int(x)?,
                    y: int(y)?,
                },
                ["tighten", period] => Eco::TightenClock {
                    period_ps: period
                        .parse::<f64>()
                        .map_err(|_| err(format!("expected a number, got `{period}`")))?,
                },
                ["carve", x0, y0, x1, y1] => Eco::Carve {
                    x0: int(x0)?,
                    y0: int(y0)?,
                    x1: int(x1)?,
                    y1: int(y1)?,
                },
                [verb, ..] => return Err(err(format!("unknown eco `{verb}`"))),
                [] => unreachable!("blank lines are skipped"),
            };
            ecos.push(eco);
        }
        Ok(EcoScript { ecos })
    }
}

impl fmt::Display for EcoScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for eco in &self.ecos {
            writeln!(f, "{eco}")?;
        }
        Ok(())
    }
}

/// The analyses a session keeps alive between passes.
#[derive(Debug, Default)]
pub(crate) struct SessionState {
    /// Persistent timing graph, refreshed incrementally.
    pub(crate) sta: Option<Sta>,
    /// Content-keyed memo of the last pass's candidate sets and ILP
    /// solutions.
    pub(crate) parts: PartitionCache,
}

/// A reusable composition flow over one evolving design. See the module
/// docs for the equivalence contract.
#[derive(Debug)]
pub struct CompositionSession<'l> {
    lib: &'l Library,
    options: ComposerOptions,
    model: DelayModel,
    /// The pre-composition design, with every applied ECO folded in. Each
    /// pass composes a clone of this, never the composed result — so passes
    /// are independent and byte-comparable to batch runs.
    design: Design,
    state: SessionState,
    pending: EcoDirty,
    pass: u64,
    composed: Design,
    outcome: ComposeOutcome,
}

impl<'l> CompositionSession<'l> {
    /// Opens a session on `design` and runs the initial full composition
    /// (pass 0).
    ///
    /// # Errors
    ///
    /// See [`ComposeError`].
    pub fn open(
        design: Design,
        lib: &'l Library,
        options: ComposerOptions,
        model: DelayModel,
    ) -> Result<CompositionSession<'l>, ComposeError> {
        let mut session = CompositionSession {
            lib,
            options,
            model,
            composed: design.clone(),
            design,
            state: SessionState::default(),
            pending: EcoDirty::full(),
            pass: 0,
            outcome: ComposeOutcome::default(),
        };
        session.run_pass()?;
        Ok(session)
    }

    /// Applies one ECO to the pre-composition design and marks its dirty
    /// region for the next [`CompositionSession::recompose`].
    ///
    /// # Errors
    ///
    /// See [`EcoError`]; a failed ECO leaves the session unchanged.
    pub fn apply(&mut self, eco: &Eco) -> Result<EcoEffect, EcoError> {
        let effect = apply_eco(&mut self.design, &mut self.model, self.lib, eco)?;
        self.pending.touched.extend(effect.touched.iter().copied());
        self.pending.structural |= effect.structural;
        self.pending.ecos += 1;
        Ok(effect)
    }

    /// Applies every ECO of a script, in order; returns how many applied.
    ///
    /// # Errors
    ///
    /// Stops at the first failing ECO (earlier ones stay applied).
    pub fn apply_script(&mut self, script: &EcoScript) -> Result<usize, EcoError> {
        for eco in &script.ecos {
            self.apply(eco)?;
        }
        Ok(script.ecos.len())
    }

    /// Re-runs the flow over the pending dirt. With nothing pending this is
    /// a no-op that returns the previous outcome — no stage runs at all.
    ///
    /// # Errors
    ///
    /// See [`ComposeError`]. After an error the session stays usable; the
    /// next pass rebuilds everything from scratch.
    pub fn recompose(&mut self) -> Result<&ComposeOutcome, ComposeError> {
        if self.pending.is_dirty() {
            self.run_pass()?;
        }
        Ok(&self.outcome)
    }

    fn run_pass(&mut self) -> Result<(), ComposeError> {
        let eco = std::mem::take(&mut self.pending);
        let pass = self.pass;
        self.pass += 1;
        let mut design = self.design.clone();
        let result = obs::with_pass(pass, || {
            if eco.ecos > 0 {
                obs::counter(Counter::SessionEcosApplied, eco.ecos);
            }
            stages::run_flow(
                &mut design,
                self.lib,
                &self.options,
                self.model,
                Strategy::Ilp,
                Backend::Session {
                    state: &mut self.state,
                    eco: &eco,
                },
            )
        });
        match result {
            Ok(outcome) => {
                self.composed = design;
                self.outcome = outcome;
                Ok(())
            }
            Err(e) => {
                // The persistent state may be half-refreshed; poison it so
                // the next pass rebuilds rather than reuses.
                self.pending = EcoDirty::full();
                Err(e)
            }
        }
    }

    /// The current pre-composition design (every applied ECO folded in).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The composed design of the last successful pass.
    pub fn composed(&self) -> &Design {
        &self.composed
    }

    /// The outcome of the last successful pass.
    pub fn outcome(&self) -> &ComposeOutcome {
        &self.outcome
    }

    /// Passes run so far (pass 0 is the initial full composition).
    pub fn passes(&self) -> u64 {
        self.pass
    }

    /// Whether ECOs are pending (the next
    /// [`CompositionSession::recompose`] will actually run).
    pub fn is_dirty(&self) -> bool {
        self.pending.is_dirty()
    }

    /// The configured options.
    pub fn options(&self) -> &ComposerOptions {
        &self.options
    }

    /// The current delay model (clock ECOs update it).
    pub fn model(&self) -> &DelayModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_round_trips_through_display() {
        let text = "\
# seed script
move r17 120500 4200
retarget r3 DFF_1X1
remove r9
add r3 r_new 10000 600
tighten 750
carve 0 0 50000 50000
";
        let script = EcoScript::parse(text).expect("parses");
        assert_eq!(script.ecos.len(), 6);
        let reparsed = EcoScript::parse(&script.to_string()).expect("round-trips");
        assert_eq!(script, reparsed);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = EcoScript::parse("move r1 10 20\nfrobnicate r2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("frobnicate"));
        let err = EcoScript::parse("move r1 ten 20\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn structural_classification_matches_the_reuse_model() {
        assert!(!Eco::Move {
            name: "r".into(),
            x: 0,
            y: 0
        }
        .is_structural());
        assert!(!Eco::Retarget {
            name: "r".into(),
            cell: "c".into()
        }
        .is_structural());
        assert!(!Eco::Carve {
            x0: 0,
            y0: 0,
            x1: 1,
            y1: 1
        }
        .is_structural());
        assert!(Eco::Remove { name: "r".into() }.is_structural());
        assert!(Eco::Add {
            template: "r".into(),
            name: "s".into(),
            x: 0,
            y: 0
        }
        .is_structural());
        assert!(Eco::TightenClock { period_ps: 800.0 }.is_structural());
    }
}
