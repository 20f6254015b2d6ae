//! User-facing LP model: bounded variables and `≤`/`≥`/`=` rows, converted
//! to standard form and handed to the simplex kernel.

use std::error::Error;
use std::fmt;

use crate::simplex::{solve_standard_form, SimplexOutcome};

/// Index of a variable inside an [`LpProblem`] / [`crate::IlpProblem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index (variables are numbered in creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
}

#[derive(Clone, Debug)]
pub(crate) struct Constraint {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) sense: Sense,
    pub(crate) rhs: f64,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Variable {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) obj: f64,
}

/// Why an LP could not be solved to optimality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective decreases without bound over the feasible region.
    Unbounded,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
        }
    }
}

impl Error for LpError {}

/// Solution status (always `Optimal` on the `Ok` path; present for
/// forward-compatibility with time-limited solves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
}

/// An optimal LP solution.
#[derive(Clone, Debug, PartialEq)]
pub struct LpSolution {
    /// Status (currently always [`LpStatus::Optimal`]).
    pub status: LpStatus,
    /// Objective value at the optimum.
    pub objective: f64,
    /// Value per variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
}

impl LpSolution {
    /// Value of one variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }
}

/// A linear program: `min Σ objᵢ·xᵢ` subject to bounds and linear rows.
///
/// See the [crate-level example](crate) for usage. Variables may have any
/// combination of finite/infinite bounds, including free variables.
#[derive(Clone, Debug, Default)]
pub struct LpProblem {
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        LpProblem::default()
    }

    /// Adds a variable with bounds `[lo, hi]` and objective coefficient
    /// `obj`. Use `f64::NEG_INFINITY` / `f64::INFINITY` for free directions.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or a bound is NaN.
    pub fn add_var(&mut self, lo: f64, hi: f64, obj: f64) -> VarId {
        assert!(
            !lo.is_nan() && !hi.is_nan() && !obj.is_nan(),
            "NaN in variable"
        );
        assert!(lo <= hi, "variable bounds inverted: [{lo}, {hi}]");
        let id = VarId(self.vars.len());
        self.vars.push(Variable { lo, hi, obj });
        id
    }

    /// Adds the row `Σ coeffᵢ·xᵢ (sense) rhs`. Duplicate variables in
    /// `terms` are accumulated.
    ///
    /// # Panics
    ///
    /// Panics if a term references an unknown variable or any value is NaN.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], sense: Sense, rhs: f64) {
        assert!(!rhs.is_nan(), "NaN rhs");
        let mut acc: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.vars.len(), "unknown variable {v:?}");
            assert!(!c.is_nan(), "NaN coefficient");
            if let Some(slot) = acc.iter_mut().find(|(i, _)| *i == v.0) {
                slot.1 += c;
            } else {
                acc.push((v.0, c));
            }
        }
        self.constraints.push(Constraint {
            terms: acc,
            sense,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Solves the program with the built-in two-phase primal simplex.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`] when the constraints admit no point,
    /// [`LpError::Unbounded`] when the objective has no finite minimum.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        // --- conversion to standard form ---
        // Each user variable becomes one or two nonnegative columns:
        //   lo finite:            x = lo + u,        u >= 0
        //   lo = -inf, hi finite: x = hi - u,        u >= 0
        //   free:                 x = u - v,         u, v >= 0
        // Finite ranges additionally get a row  u <= hi - lo.
        #[derive(Clone, Copy)]
        enum Map {
            Shift { col: usize, lo: f64 },
            Mirror { col: usize, hi: f64 },
            Split { pos: usize, neg: usize },
        }
        let mut maps = Vec::with_capacity(self.vars.len());
        let mut ncols = 0usize;
        let mut extra_rows: Vec<(usize, f64)> = Vec::new(); // (col, ub)
        for v in &self.vars {
            let lo_f = v.lo.is_finite();
            let hi_f = v.hi.is_finite();
            if lo_f {
                maps.push(Map::Shift {
                    col: ncols,
                    lo: v.lo,
                });
                if hi_f {
                    extra_rows.push((ncols, v.hi - v.lo));
                }
                ncols += 1;
            } else if hi_f {
                maps.push(Map::Mirror {
                    col: ncols,
                    hi: v.hi,
                });
                ncols += 1;
            } else {
                maps.push(Map::Split {
                    pos: ncols,
                    neg: ncols + 1,
                });
                ncols += 2;
            }
        }

        // Count slack columns: one per Le/Ge row and one per bound row.
        let n_slacks = self
            .constraints
            .iter()
            .filter(|c| c.sense != Sense::Eq)
            .count()
            + extra_rows.len();
        let total_cols = ncols + n_slacks;
        let nrows = self.constraints.len() + extra_rows.len();

        let mut a = vec![vec![0.0f64; total_cols]; nrows];
        let mut b = vec![0.0f64; nrows];
        let mut c = vec![0.0f64; total_cols];
        let mut obj_const = 0.0f64;

        for (v, map) in self.vars.iter().zip(&maps) {
            match *map {
                Map::Shift { col, lo } => {
                    c[col] += v.obj;
                    obj_const += v.obj * lo;
                }
                Map::Mirror { col, hi } => {
                    c[col] -= v.obj;
                    obj_const += v.obj * hi;
                }
                Map::Split { pos, neg } => {
                    c[pos] += v.obj;
                    c[neg] -= v.obj;
                }
            }
        }

        let mut slack = ncols;
        for (ri, con) in self.constraints.iter().enumerate() {
            let mut rhs = con.rhs;
            for &(vi, coeff) in &con.terms {
                match maps[vi] {
                    Map::Shift { col, lo } => {
                        a[ri][col] += coeff;
                        rhs -= coeff * lo;
                    }
                    Map::Mirror { col, hi } => {
                        a[ri][col] -= coeff;
                        rhs -= coeff * hi;
                    }
                    Map::Split { pos, neg } => {
                        a[ri][pos] += coeff;
                        a[ri][neg] -= coeff;
                    }
                }
            }
            match con.sense {
                Sense::Le => {
                    a[ri][slack] = 1.0;
                    slack += 1;
                }
                Sense::Ge => {
                    a[ri][slack] = -1.0;
                    slack += 1;
                }
                Sense::Eq => {}
            }
            b[ri] = rhs;
        }
        for (k, &(col, ub)) in extra_rows.iter().enumerate() {
            let ri = self.constraints.len() + k;
            a[ri][col] = 1.0;
            a[ri][slack] = 1.0;
            slack += 1;
            b[ri] = ub;
        }
        debug_assert_eq!(slack, total_cols);

        // Standard form requires b >= 0: flip offending rows.
        for ri in 0..nrows {
            if b[ri] < 0.0 {
                b[ri] = -b[ri];
                for x in a[ri].iter_mut() {
                    *x = -*x;
                }
            }
        }

        match solve_standard_form(&a, &b, &c) {
            SimplexOutcome::Infeasible => Err(LpError::Infeasible),
            SimplexOutcome::Unbounded => Err(LpError::Unbounded),
            SimplexOutcome::Optimal { x, objective } => {
                let mut values = Vec::with_capacity(self.vars.len());
                for map in &maps {
                    values.push(match *map {
                        Map::Shift { col, lo } => lo + x[col],
                        Map::Mirror { col, hi } => hi - x[col],
                        Map::Split { pos, neg } => x[pos] - x[neg],
                    });
                }
                Ok(LpSolution {
                    status: LpStatus::Optimal,
                    objective: objective + obj_const,
                    values,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_variable_optimum_sits_on_bound() {
        // min -x, 0 <= x <= 7 → x = 7.
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 7.0, -1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 7.0).abs() < 1e-7);
        assert!((sol.objective + 7.0).abs() < 1e-7);
    }

    #[test]
    fn free_variable_equality() {
        // min |structure|: x free, y >= 0; x + y = -3; min y - x → x=-3,y=0.
        let mut lp = LpProblem::new();
        let x = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Eq, -3.0);
        // Unbounded? min -x + y with x = -3 - y → obj = 3 + 2y → min at y=0.
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) + 3.0).abs() < 1e-7);
        assert!((sol.value(y)).abs() < 1e-7);
        assert!((sol.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn negative_lower_bounds_shift_correctly() {
        // min x, -5 <= x <= 5, x >= -2 → x = -2.
        let mut lp = LpProblem::new();
        let x = lp.add_var(-5.0, 5.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], Sense::Ge, -2.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) + 2.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_bounds_vs_constraint() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 1.0, 0.0);
        lp.add_constraint(&[(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(lp.solve(), Err(LpError::Infeasible));
    }

    #[test]
    fn unbounded_direction_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 0.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Sense::Le, 3.0);
        assert_eq!(lp.solve(), Err(LpError::Unbounded));
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // x + x <= 4 ⇒ x <= 2 with min -x.
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_constraint(&[(x, 1.0), (x, 1.0)], Sense::Le, 4.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn min_max_linearization_pattern() {
        // The Section 4.2 trick: minimize z with z >= a, z >= b computes
        // max(a, b). With a = 3, b = 8 ⇒ z = 8.
        let mut lp = LpProblem::new();
        let z = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_constraint(&[(z, 1.0)], Sense::Ge, 3.0);
        lp.add_constraint(&[(z, 1.0)], Sense::Ge, 8.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(z) - 8.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(4.0, 4.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Sense::Ge, 6.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-7);
        assert!((sol.value(y) - 2.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_bounds_panic() {
        let mut lp = LpProblem::new();
        lp.add_var(1.0, 0.0, 0.0);
    }
}
