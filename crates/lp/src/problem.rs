//! Linear-program definition shared by the revised and dense solvers.

use std::sync::OnceLock;

use crate::sparse::{CscMatrix, RowMajor, Triplet};

/// Positive infinity shorthand used for absent bounds.
pub const INF: f64 = f64::INFINITY;

/// A linear program in the form
///
/// ```text
/// minimise    c' x
/// subject to  row_lb <= A x <= row_ub
///             col_lb <=  x  <= col_ub
/// ```
///
/// Equality rows set `row_lb == row_ub`; one-sided rows use `±INF`.
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) a: CscMatrix,
    pub(crate) obj: Vec<f64>,
    pub(crate) col_lb: Vec<f64>,
    pub(crate) col_ub: Vec<f64>,
    pub(crate) row_lb: Vec<f64>,
    pub(crate) row_ub: Vec<f64>,
    /// Lazily built row-major mirror of `a` (the dual simplex's pivot-row
    /// access); discarded whenever the matrix itself changes.
    pub(crate) row_major: OnceLock<RowMajor>,
}

impl Problem {
    /// Assembles and validates a problem.
    ///
    /// # Panics
    /// Panics on dimension mismatches or crossed bounds (`lb > ub`).
    pub fn new(
        a: CscMatrix,
        obj: Vec<f64>,
        col_lb: Vec<f64>,
        col_ub: Vec<f64>,
        row_lb: Vec<f64>,
        row_ub: Vec<f64>,
    ) -> Self {
        assert_eq!(obj.len(), a.ncols(), "objective length != ncols");
        assert_eq!(col_lb.len(), a.ncols());
        assert_eq!(col_ub.len(), a.ncols());
        assert_eq!(row_lb.len(), a.nrows());
        assert_eq!(row_ub.len(), a.nrows());
        for j in 0..a.ncols() {
            assert!(
                col_lb[j] <= col_ub[j],
                "column {j} has crossed bounds [{}, {}]",
                col_lb[j],
                col_ub[j]
            );
        }
        for i in 0..a.nrows() {
            assert!(
                row_lb[i] <= row_ub[i],
                "row {i} has crossed bounds [{}, {}]",
                row_lb[i],
                row_ub[i]
            );
        }
        Problem {
            a,
            obj,
            col_lb,
            col_ub,
            row_lb,
            row_ub,
            row_major: OnceLock::new(),
        }
    }

    /// Row-major mirror of the constraint matrix, built on first use and
    /// cached for the problem's lifetime (solves share it; warm B&B
    /// re-solves would otherwise rebuild it per node).
    pub fn row_major(&self) -> &RowMajor {
        self.row_major.get_or_init(|| RowMajor::build(&self.a))
    }

    pub fn ncols(&self) -> usize {
        self.a.ncols()
    }

    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    pub fn matrix(&self) -> &CscMatrix {
        &self.a
    }

    pub fn objective(&self) -> &[f64] {
        &self.obj
    }

    pub fn col_bounds(&self) -> (&[f64], &[f64]) {
        (&self.col_lb, &self.col_ub)
    }

    pub fn row_bounds(&self) -> (&[f64], &[f64]) {
        (&self.row_lb, &self.row_ub)
    }

    /// Evaluates `c' x`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.obj.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Evaluates row activities `A x`.
    pub fn activities(&self, x: &[f64]) -> Vec<f64> {
        self.a.mul_dense(x)
    }

    /// Replaces one column's bounds in place.
    ///
    /// # Panics
    /// Panics on crossed bounds.
    pub fn set_col_bounds(&mut self, j: usize, lb: f64, ub: f64) {
        assert!(lb <= ub, "column {j} crossed bounds [{lb}, {ub}]");
        self.col_lb[j] = lb;
        self.col_ub[j] = ub;
    }

    /// Appends rows to the problem: `bounds` holds one `(lb, ub)` pair per
    /// appended row and `entries` the coefficients, indexed in the *new*
    /// (appended) row range. Existing columns, rows and the objective are
    /// untouched, so a [`crate::BasisState`] captured before the append
    /// stays a valid warm-start hint (appended rows contribute their slack
    /// to the basis on repair).
    pub fn append_rows(&mut self, bounds: &[(f64, f64)], entries: &[Triplet]) {
        let new_nrows = self.nrows() + bounds.len();
        for (k, &(lb, ub)) in bounds.iter().enumerate() {
            assert!(lb <= ub, "appended row {k} crossed bounds [{lb}, {ub}]");
        }
        self.a.append_rows(new_nrows, entries);
        self.row_major.take(); // the mirror no longer matches the matrix
        for &(lb, ub) in bounds {
            self.row_lb.push(lb);
            self.row_ub.push(ub);
        }
    }

    /// Checks primal feasibility of `x` within `tol` (columns and rows). A
    /// coordinate that is not finite is never feasible, nor is a row whose
    /// activity is NaN (every comparison is false on a NaN, so the bound
    /// checks alone would let one through).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.ncols() {
            return false;
        }
        for j in 0..self.ncols() {
            if !x[j].is_finite() || x[j] < self.col_lb[j] - tol || x[j] > self.col_ub[j] + tol {
                return false;
            }
        }
        let act = self.activities(x);
        for i in 0..self.nrows() {
            if act[i].is_nan() || act[i] < self.row_lb[i] - tol || act[i] > self.row_ub[i] + tol {
                return false;
            }
        }
        true
    }
}

/// Incremental builder used by the MILP layer and tests.
#[derive(Debug, Default, Clone)]
pub struct ProblemBuilder {
    obj: Vec<f64>,
    col_lb: Vec<f64>,
    col_ub: Vec<f64>,
    row_lb: Vec<f64>,
    row_ub: Vec<f64>,
    triplets: Vec<Triplet>,
}

impl ProblemBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a column; returns its index.
    pub fn add_col(&mut self, obj: f64, lb: f64, ub: f64) -> usize {
        let j = self.obj.len();
        self.obj.push(obj);
        self.col_lb.push(lb);
        self.col_ub.push(ub);
        j
    }

    /// Adds a row with the given bounds; returns its index. Coefficients are
    /// attached with [`Self::set_coeff`].
    pub fn add_row(&mut self, lb: f64, ub: f64) -> usize {
        let i = self.row_lb.len();
        self.row_lb.push(lb);
        self.row_ub.push(ub);
        i
    }

    pub fn set_coeff(&mut self, row: usize, col: usize, value: f64) {
        if value != 0.0 {
            self.triplets.push(Triplet { row, col, value });
        }
    }

    pub fn ncols(&self) -> usize {
        self.obj.len()
    }

    pub fn nrows(&self) -> usize {
        self.row_lb.len()
    }

    pub fn build(self) -> Problem {
        let a = CscMatrix::from_triplets(self.nrows(), self.ncols(), &self.triplets);
        Problem::new(
            a,
            self.obj,
            self.col_lb,
            self.col_ub,
            self.row_lb,
            self.row_ub,
        )
    }
}

/// Solver termination status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// No feasible point exists (phase I ended with residual infeasibility).
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterationLimit,
}

/// Solution report.
#[derive(Debug, Clone)]
pub struct LpSolution {
    pub status: LpStatus,
    /// `c' x` of the returned point (meaningful for `Optimal`, best-effort
    /// otherwise).
    pub objective: f64,
    /// Structural variable values.
    pub x: Vec<f64>,
    /// Simplex iterations used (total over all phases).
    pub iterations: usize,
    /// Iterations broken down by phase (composite phase-I, primal
    /// phase-II, dual). `pivots.total() == iterations`.
    pub pivots: crate::simplex::PivotCounts,
    /// Final basis snapshot, reusable as a warm-start hint for related
    /// solves via [`crate::solve_from`] / [`crate::solve_with_bounds_from_ws`].
    pub basis: Option<crate::simplex::BasisState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = ProblemBuilder::new();
        let x = b.add_col(1.0, 0.0, 10.0);
        let y = b.add_col(-2.0, 0.0, INF);
        let r = b.add_row(-INF, 5.0);
        b.set_coeff(r, x, 1.0);
        b.set_coeff(r, y, 1.0);
        let p = b.build();
        assert_eq!(p.ncols(), 2);
        assert_eq!(p.nrows(), 1);
        assert_eq!(p.objective_value(&[1.0, 2.0]), -3.0);
        assert_eq!(p.activities(&[1.0, 2.0]), vec![3.0]);
        assert!(p.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!p.is_feasible(&[4.0, 2.0], 1e-9));
    }

    #[test]
    fn points_that_are_not_finite_are_infeasible() {
        let mut b = ProblemBuilder::new();
        let x = b.add_col(1.0, -INF, INF);
        let y = b.add_col(1.0, 0.0, 10.0);
        let free = b.add_row(-INF, INF);
        b.set_coeff(free, x, 1.0);
        let capped = b.add_row(-INF, 5.0);
        b.set_coeff(capped, y, 1e308);
        let p = b.build();
        assert!(p.is_feasible(&[3.0, 0.0], 1e-9));
        for bad in [f64::NAN, INF, -INF] {
            assert!(
                !p.is_feasible(&[bad, 0.0], 1e-9),
                "x = {bad} in a free column"
            );
            assert!(!p.is_feasible(&[0.0, bad], 1e-9), "y = {bad}");
        }
        // A finite point whose activity overflows against a finite bound...
        assert!(!p.is_feasible(&[0.0, 10.0], 1e-9));
        // ...and one whose activity is not a number against no bound at all.
        let mut b = ProblemBuilder::new();
        let (u, v) = (b.add_col(0.0, -INF, INF), b.add_col(0.0, -INF, INF));
        let r = b.add_row(-INF, INF);
        b.set_coeff(r, u, 1e308);
        b.set_coeff(r, v, -1e308);
        let p = b.build();
        assert!(p.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[10.0, 10.0], 1e-9), "inf - inf");
    }

    #[test]
    #[should_panic(expected = "crossed bounds")]
    fn rejects_crossed_bounds() {
        let mut b = ProblemBuilder::new();
        b.add_col(0.0, 1.0, -1.0);
        b.build();
    }
}
