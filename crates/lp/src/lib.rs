#![warn(missing_docs)]
//! From-scratch linear/integer programming for MBR composition.
//!
//! The DAC'17 paper states two optimization problems:
//!
//! 1. the Section 3.1 **assignment ILP** — minimize the weighted number of
//!    selected MBR candidates subject to "every register is covered exactly
//!    once", which is a *weighted set-partitioning* problem, and
//! 2. the Section 4.2 **placement LP** — minimize the summed half-perimeter
//!    wire-length of the new MBR's pins over its timing-feasible region, with
//!    `max`/`min` linearized through helper variables.
//!
//! The flow solves the first here. The second is separable per axis, so
//! `mbr-core` solves it exactly in closed form; its literal LP is built on
//! [`LpProblem`] only as that closed form's test oracle.
//!
//! No solver bindings are used; everything is implemented here:
//!
//! * [`LpProblem`] — model builder (bounded variables, `≤`/`≥`/`=` rows)
//!   solved by a dense two-phase primal simplex ([`LpProblem::solve`]),
//! * [`IlpProblem`] — branch-and-bound over the LP relaxation for problems
//!   with integer variables ([`IlpProblem::solve`]),
//! * [`SetPartition`] — a dedicated exact branch-and-bound for weighted set
//!   partitioning with dominance reduction, a greedy incumbent, and a
//!   fractional lower bound; this is the production path for the composition
//!   ILP (partition subproblems are ≤ 30 registers, well within exact reach).
//!   Element sets are `u64` masks, so an instance holds at most 64 elements;
//!   a larger one is rejected with [`SetPartitionError::TooManyElements`].
//!
//! # Examples
//!
//! ```
//! use mbr_lp::{LpProblem, Sense};
//!
//! // min -x - 2y  s.t.  x + y <= 4,  y <= 3,  x,y >= 0
//! let mut lp = LpProblem::new();
//! let x = lp.add_var(0.0, f64::INFINITY, -1.0);
//! let y = lp.add_var(0.0, f64::INFINITY, -2.0);
//! lp.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
//! lp.add_constraint(&[(y, 1.0)], Sense::Le, 3.0);
//! let sol = lp.solve()?;
//! assert!((sol.objective - (-7.0)).abs() < 1e-6); // x=1, y=3
//! # Ok::<(), mbr_lp::LpError>(())
//! ```

mod ilp;
mod problem;
mod setpart;
mod simplex;

pub use ilp::{IlpProblem, IlpSolution, VarKind};
pub use problem::{LpError, LpProblem, LpSolution, LpStatus, Sense, VarId};
pub use setpart::{Candidate, SetPartition, SetPartitionError, SetPartitionSolution};
