//! Mixed-integer linear programming model API.
//!
//! A thin, allocation-friendly modelling layer over [`sqpr_lp::Problem`]:
//! variables (continuous or integer) with bounds and objective coefficients,
//! ranged linear constraints, and an objective sense. The SQPR planner builds
//! one of these per arriving query.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use sqpr_lp::{Problem, INF};

/// Source of [`Model::structure_version`] and [`Model::bounds_stamp`]
/// values. Process-wide so a stamp names one state of one model lineage:
/// clones share a stamp only while they are still equal in what it covers,
/// and two models that diverged after a clone can never meet at the same
/// value the way per-model counters would.
static MODEL_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    MODEL_STAMP.fetch_add(1, AtomicOrdering::Relaxed)
}

/// A constraint index as the adjacency lists store it.
fn row_index(c: usize) -> u32 {
    assert!(c < u32::MAX as usize, "more than u32::MAX constraints");
    c as u32
}

/// Identifies a variable within one [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Builds a `VarId` from a raw index (bounds are checked at use sites).
    pub(crate) fn from_raw(i: usize) -> Self {
        VarId(i)
    }
}

impl VarId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a constraint within one [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConsId(pub(crate) usize);

impl ConsId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// Variable integrality class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    Continuous,
    /// Integer-valued within its bounds (binaries are integers in `[0, 1]`).
    Integer,
}

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub ty: VarType,
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
}

impl VarDef {
    /// Whether the bounds pin the variable to one value — and so whether a
    /// fresh lowering compresses it out.
    #[inline]
    #[expect(clippy::float_cmp, reason = "both bounds hold the same value")]
    pub(crate) fn is_fixed(&self) -> bool {
        self.lb == self.ub
    }

    /// Whether the variable, bound-fixed, sits on a value a candidate point
    /// reproduces as is: finite and, on an integer variable, whole (rounding
    /// leaves it alone).
    pub(crate) fn fixed_value_is_plain(&self) -> bool {
        match self.ty {
            VarType::Integer => is_whole(self.lb),
            VarType::Continuous => self.lb.is_finite(),
        }
    }

    /// The variable half of [`Model::is_feasible`]: `xv` is finite, within
    /// the bounds and, on an integer variable, integral — each within `tol`.
    /// (Every comparison is false on a NaN, hence the explicit finiteness.)
    pub(crate) fn admits(&self, xv: f64, tol: f64) -> bool {
        xv.is_finite()
            && !(xv < self.lb - tol || xv > self.ub + tol)
            && !(self.ty == VarType::Integer && (xv - xv.round()).abs() > tol)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ConsDef {
    pub terms: Vec<(VarId, f64)>,
    pub lb: f64,
    pub ub: f64,
}

impl ConsDef {
    /// The row's activity at `x`, summed in model order from zero. Every
    /// feasibility check adds the terms up through here, so two of them agree
    /// on a row's activity to the bit.
    pub(crate) fn activity(&self, x: &[f64]) -> f64 {
        self.terms.iter().fold(0.0, |act, &(v, a)| act + a * x[v.0])
    }

    /// The row half of [`Model::is_feasible`]: the activity lies within the
    /// row's bounds, each widened by `tol` relative to its size. A NaN
    /// activity, or an infinite one against a finite bound, does not.
    pub(crate) fn admits(&self, act: f64, tol: f64) -> bool {
        !(act.is_nan()
            || act < self.lb - tol * (1.0 + self.lb.abs())
            || act > self.ub + tol * (1.0 + self.ub.abs()))
    }
}

/// Mapping between a [`Model`] and its compressed LP lowering (an
/// [`crate::cache::LpCacheSlot`]'s): which model variable each LP column
/// stands for, and which model constraint each LP row came from.
#[derive(Debug, Clone)]
pub(crate) struct LpMap {
    /// Model variable index per LP column.
    pub var_of_col: Vec<usize>,
    /// LP column per model variable (`None` for bound-fixed variables).
    pub col_of_var: Vec<Option<usize>>,
    /// Model constraint index per LP row, strictly ascending: a lowering
    /// keeps rows in model order, and rows appended to it later come from
    /// constraints appended to the model later.
    pub cons_of_row: Vec<usize>,
    /// Objective contribution (minimisation space) of the folded fixed
    /// variables; add to LP objectives to recover model-space bounds.
    pub fixed_obj_min: f64,
    /// A constant (all-fixed) row was violated by the fixed values: the
    /// model is infeasible as fixed, regardless of the free variables.
    pub infeasible_fixed_row: bool,
    /// Every model term of a kept variable is a stored entry of its LP
    /// column, so the column lists exactly the kept rows the variable
    /// occurs in. False once a kept row carried a zero coefficient or the
    /// same variable twice (the LP matrix sums duplicates and drops zeros);
    /// presolve then sweeps every row instead of trusting the columns.
    pub adjacency_exact: bool,
}

/// Tracks, while rows are lowered one after another, whether each kept
/// term lands in the LP matrix as its own stored entry (see
/// [`LpMap::adjacency_exact`]).
pub(crate) struct AdjacencyCheck {
    /// Last row each LP column was seen in.
    last_row: Vec<usize>,
}

impl AdjacencyCheck {
    pub(crate) fn new(ncols: usize) -> Self {
        AdjacencyCheck {
            last_row: vec![usize::MAX; ncols],
        }
    }

    /// Whether the kept term `(col, a)` of LP row `row` is its own stored
    /// entry of the LP matrix.
    pub(crate) fn term_is_exact(&mut self, row: usize, col: usize, a: f64) -> bool {
        let exact = a != 0.0 && self.last_row[col] != row;
        self.last_row[col] = row;
        exact
    }
}

/// One constraint folded by [`fold_row`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowFold {
    /// Free (kept) terms met.
    pub kept: usize,
    /// Constant contribution of the folded terms at their fixed values,
    /// summed in model order. With no kept term this is the row's activity
    /// at any point that sits on the fixed values, bit for bit: the same
    /// additions in the same order as [`ConsDef::activity`].
    pub shift: f64,
}

/// Walks one constraint's terms against a fixed-variable layout: free
/// variables keep their LP column and are handed to `kept`, bound-fixed ones
/// fold into the returned shift. The single source of truth for the
/// compression rule — [`Model::lower_reduced`] and every path of
/// the LP cache must stay bit-compatible, so all of them call this.
pub(crate) fn fold_row(
    vars: &[VarDef],
    col_of_var: &[Option<usize>],
    terms: &[(VarId, f64)],
    mut kept: impl FnMut(usize, f64),
) -> RowFold {
    let mut fold = RowFold {
        kept: 0,
        shift: 0.0,
    };
    for &(v, a) in terms {
        match col_of_var[v.0] {
            Some(col) => {
                fold.kept += 1;
                kept(col, a);
            }
            None => fold.shift += a * vars[v.0].lb,
        }
    }
    fold
}

/// Whether a constant (fully folded) row's value violates its bounds —
/// the fixing itself is infeasible then, regardless of the free variables.
pub(crate) fn const_row_violated(shift: f64, lb: f64, ub: f64) -> bool {
    let tol = 1e-6 * (1.0 + shift.abs());
    shift < lb - tol || shift > ub + tol
}

/// A kept row's bounds with the folded constant moved to the other side.
pub(crate) fn shifted_bounds(lb: f64, ub: f64, shift: f64) -> (f64, f64) {
    (
        if lb.is_finite() { lb - shift } else { lb },
        if ub.is_finite() { ub - shift } else { ub },
    )
}

/// Whether `value` is a whole number — `value.round() == value` without the
/// call into libm, which is what the loops over every folded variable would
/// otherwise spend their time in. (Beyond the `i64` range the cast saturates
/// and the answer is a conservative no.)
#[expect(clippy::float_cmp, reason = "an exact round trip is the definition")]
pub(crate) fn is_whole(value: f64) -> bool {
    (value as i64) as f64 == value
}

/// Whether an integer variable fixed at `value` sits off the integers: the
/// fixing is infeasible then, regardless of the rest.
pub(crate) fn fixed_off_integer(value: f64) -> bool {
    !is_whole(value) && (value - value.round()).abs() > 1e-9
}

/// Read-only geometry of one compressed lowering, shared by every slice of
/// a branch & bound search over it: the LP-to-model mapping plus the
/// integer columns. Owned by the lowering (and so by the LP cache across
/// constructions); a suspended search keeps its own clone.
#[derive(Debug, Clone)]
pub(crate) struct SearchGeom {
    /// LP-to-model mapping for the compressed relaxation.
    pub map: LpMap,
    /// Integer columns in *LP* space (branching, integrality, diving).
    pub lp_integers: Vec<usize>,
}

/// Result of one compressed lowering (an [`crate::cache::LpCacheSlot`]'s,
/// or the full pass it answers to): the LP and its search geometry.
#[derive(Debug, Clone)]
pub(crate) struct LoweredLp {
    pub lp: Problem,
    pub geom: SearchGeom,
}

/// A mixed-integer linear program.
#[derive(Debug)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) cons: Vec<ConsDef>,
    /// The constraints each variable occurs in, one entry per term in the
    /// order the terms were added (a variable repeated within one
    /// [`Self::add_range`] call is listed once). Constraints and terms are
    /// append-only, so the lists only ever grow at the tail: what lets the
    /// LP cache find the rows a set of variables touches without reading
    /// the others.
    pub(crate) rows_of_var: Vec<Vec<u32>>,
    /// Names this one model object's history: drawn in [`Self::new`] and
    /// again by `Clone`, so two values with the same lineage are the same
    /// model at two points of its append-only life — the later one has the
    /// earlier one's variables, rows and terms as a prefix of its own.
    pub(crate) lineage: u64,
    /// Renewed (from a process-wide counter) by every mutation that changes
    /// existing columns or terms (new variables, terms appended to existing
    /// rows, objective edits). Bound changes and *appended* rows do not
    /// renew it: appended rows are what a cached LP lowering
    /// ([`crate::cache::LpCacheSlot`]) takes in place, and a bound change
    /// renews [`Self::bounds_stamp`] instead.
    pub(crate) structure_version: u64,
    /// Renewed (from a process-wide counter) whenever a variable or row
    /// bound takes a different value. Equal stamps on the same structure
    /// therefore mean equal bounds, exactly — what lets the LP cache reuse
    /// its lowering and keep a validated start point validated. Rows
    /// appended since do not renew it; they are seen by their count.
    pub(crate) bounds_stamp: u64,
}

impl Clone for Model {
    /// A clone keeps the stamps (it *is* equal in what they cover) and
    /// starts a lineage of its own: from here on it may grow differently.
    fn clone(&self) -> Self {
        Model {
            sense: self.sense,
            vars: self.vars.clone(),
            cons: self.cons.clone(),
            rows_of_var: self.rows_of_var.clone(),
            lineage: next_stamp(),
            structure_version: self.structure_version,
            bounds_stamp: self.bounds_stamp,
        }
    }
}

impl Model {
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            cons: Vec::new(),
            rows_of_var: Vec::new(),
            lineage: next_stamp(),
            structure_version: next_stamp(),
            bounds_stamp: next_stamp(),
        }
    }

    /// Stamp identifying the model's column/term structure; see the field
    /// docs for what does and does not renew it.
    pub fn structure_version(&self) -> u64 {
        self.structure_version
    }

    /// Stamp identifying the model's bounds on top of its structure:
    /// renewed, from a process-wide counter, whenever a variable or row
    /// bound takes a different value. Appending a constraint renews neither
    /// stamp. Two models of one lineage that agree on both stamps and on
    /// [`Self::num_cons`] are the same model.
    pub fn bounds_stamp(&self) -> u64 {
        self.bounds_stamp
    }

    pub fn sense(&self) -> Sense {
        self.sense
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Adds a variable; returns its id.
    ///
    /// # Panics
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn add_var(&mut self, ty: VarType, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(!lb.is_nan() && !ub.is_nan(), "NaN bound");
        assert!(lb <= ub, "crossed bounds [{lb}, {ub}]");
        let id = VarId(self.vars.len());
        self.vars.push(VarDef { ty, lb, ub, obj });
        self.rows_of_var.push(Vec::new());
        self.structure_version = next_stamp();
        id
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, obj: f64) -> VarId {
        self.add_var(VarType::Integer, 0.0, 1.0, obj)
    }

    /// Adds a continuous variable.
    pub fn add_continuous(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var(VarType::Continuous, lb, ub, obj)
    }

    /// Adds the ranged constraint `lb <= sum terms <= ub`; returns its id.
    /// Duplicate variables in `terms` are summed.
    pub fn add_range(&mut self, lb: f64, ub: f64, terms: Vec<(VarId, f64)>) -> ConsId {
        assert!(lb <= ub, "crossed row bounds [{lb}, {ub}]");
        let id = ConsId(self.cons.len());
        let row = row_index(id.0);
        for &(v, _) in &terms {
            assert!(v.0 < self.vars.len(), "unknown variable {v:?}");
            // Rows are numbered upwards, so a repeat within this call is
            // the list's last entry.
            let rows = &mut self.rows_of_var[v.0];
            if rows.last() != Some(&row) {
                rows.push(row);
            }
        }
        self.cons.push(ConsDef { terms, lb, ub });
        id
    }

    /// Adds `sum terms <= rhs`.
    pub fn add_le(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) -> ConsId {
        self.add_range(-INF, rhs, terms)
    }

    /// Adds `sum terms >= rhs`.
    pub fn add_ge(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) -> ConsId {
        self.add_range(rhs, INF, terms)
    }

    /// Adds `sum terms == rhs`.
    pub fn add_eq(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) -> ConsId {
        self.add_range(rhs, rhs, terms)
    }

    /// Fixes a variable to `value` by collapsing its bounds.
    ///
    /// # Panics
    /// Panics if `value` lies outside the current bounds by more than 1e-9.
    pub fn fix_var(&mut self, v: VarId, value: f64) {
        let def = &mut self.vars[v.0];
        assert!(
            value >= def.lb - 1e-9 && value <= def.ub + 1e-9,
            "fixing {v:?} to {value} outside [{}, {}]",
            def.lb,
            def.ub
        );
        let clamped = value.clamp(def.lb, def.ub);
        self.set_bounds(v, clamped, clamped);
    }

    /// Tightens a variable's bounds (no-op directions use `-INF`/`INF`).
    #[expect(clippy::float_cmp, reason = "only a moved bound is a change")]
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        assert!(lb <= ub, "crossed bounds for {v:?}");
        let def = &mut self.vars[v.0];
        if def.lb != lb || def.ub != ub {
            def.lb = lb;
            def.ub = ub;
            self.bounds_stamp = next_stamp();
        }
    }

    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        let d = &self.vars[v.0];
        (d.lb, d.ub)
    }

    pub fn var_type(&self, v: VarId) -> VarType {
        self.vars[v.0].ty
    }

    pub fn objective_coeff(&self, v: VarId) -> f64 {
        self.vars[v.0].obj
    }

    /// Returns constraint `c` as `(terms, lb, ub)`.
    pub fn constraint(&self, c: usize) -> (&[(VarId, f64)], f64, f64) {
        let def = &self.cons[c];
        (&def.terms, def.lb, def.ub)
    }

    /// Replaces a constraint's bounds (used by incremental model editing,
    /// e.g. relaxing a `<= 1` demand row to `= 1` on admission).
    #[expect(clippy::float_cmp, reason = "only a moved bound is a change")]
    pub fn set_row_bounds(&mut self, c: ConsId, lb: f64, ub: f64) {
        assert!(lb <= ub, "crossed row bounds [{lb}, {ub}]");
        let def = &mut self.cons[c.0];
        if def.lb != lb || def.ub != ub {
            def.lb = lb;
            def.ub = ub;
            self.bounds_stamp = next_stamp();
        }
    }

    /// Appends terms to an existing constraint (incremental model growth:
    /// new columns joining shared capacity rows). Duplicate variables are
    /// summed, as in [`Self::add_range`].
    pub fn add_terms(&mut self, c: ConsId, terms: impl IntoIterator<Item = (VarId, f64)>) {
        let n = self.vars.len();
        let def = &mut self.cons[c.0];
        let row = row_index(c.0);
        for (v, a) in terms {
            assert!(v.0 < n, "unknown variable {v:?}");
            def.terms.push((v, a));
            self.rows_of_var[v.0].push(row);
        }
        self.structure_version = next_stamp();
    }

    /// Test-only contract violation: swaps two constraints in place
    /// *without* bumping `structure_version`. No public mutation can do
    /// this — every API that edits existing terms bumps the version — but
    /// the LP cache's same-length-swap detection needs a way to simulate a
    /// future API forgetting the bump (see
    /// [`crate::cache::LpCacheSlot::refresh`]'s debug verification, so
    /// its one caller is a debug-build test).
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn swap_constraints_unversioned_for_test(&mut self, a: usize, b: usize) {
        self.cons.swap(a, b);
    }

    /// Describes the first place where this model and `other` differ in
    /// content — sense, a variable's type, bounds or objective coefficient,
    /// a constraint's terms or bounds — or `None` when they are the same
    /// model. (The revision stamps are not content.)
    pub fn first_difference(&self, other: &Model) -> Option<String> {
        if self.sense != other.sense {
            return Some(format!("sense {:?} vs {:?}", self.sense, other.sense));
        }
        if self.vars.len() != other.vars.len() || self.cons.len() != other.cons.len() {
            return Some(format!(
                "{} variables, {} constraints vs {}, {}",
                self.vars.len(),
                self.cons.len(),
                other.vars.len(),
                other.cons.len()
            ));
        }
        for (j, (a, b)) in self.vars.iter().zip(&other.vars).enumerate() {
            let same = a.ty == b.ty
                && a.lb.to_bits() == b.lb.to_bits()
                && a.ub.to_bits() == b.ub.to_bits()
                && a.obj.to_bits() == b.obj.to_bits();
            if !same {
                return Some(format!("variable {j}: {a:?} vs {b:?}"));
            }
        }
        for (i, (a, b)) in self.cons.iter().zip(&other.cons).enumerate() {
            let same = a.lb.to_bits() == b.lb.to_bits()
                && a.ub.to_bits() == b.ub.to_bits()
                && a.terms.len() == b.terms.len()
                && a.terms
                    .iter()
                    .zip(&b.terms)
                    .all(|(s, t)| s.0 == t.0 && s.1.to_bits() == t.1.to_bits());
            if !same {
                return Some(format!(
                    "constraint {i}: [{}, {}] over {} terms vs [{}, {}] over {}",
                    a.lb,
                    a.ub,
                    a.terms.len(),
                    b.lb,
                    b.ub,
                    b.terms.len()
                ));
            }
        }
        None
    }

    /// Evaluates the objective in the model's own sense.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, xv)| v.obj * xv).sum()
    }

    /// Checks whether `x` satisfies bounds, constraints and integrality.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        self.vars
            .iter()
            .zip(x)
            .all(|(def, &xv)| def.admits(xv, tol))
            && self.rows_feasible(x, tol, 0)
    }

    /// The row half of [`Self::is_feasible`] for constraints `from..`: a
    /// point already validated against the rows before `from` (under the
    /// same bounds) only needs the rows appended since.
    pub(crate) fn rows_feasible(&self, x: &[f64], tol: f64, from: usize) -> bool {
        self.cons[from..]
            .iter()
            .all(|c| c.admits(c.activity(x), tol))
    }

    /// Lowers the model to a *compressed* LP in minimisation form:
    /// bound-fixed variables (`lb == ub`) are folded into the row bounds as
    /// constants and rows left with no free terms are dropped. Models that
    /// fix large portions of their variables (the planner's §IV-A
    /// reduction over a persistent skeleton) produce an LP the size of the
    /// genuinely free subproblem instead of the whole skeleton.
    ///
    /// Returns the problem and the [`SearchGeom`] relating LP columns/rows
    /// back to model variables/constraints. This is the full pass — every
    /// variable, every term of every row: the reference the tests hold
    /// [`crate::cache::LpCacheSlot`]'s adjacency-driven rebuild to, bit for
    /// bit. Solves lower through a slot only, whose refresh is the only
    /// lowering a solve runs; debug builds replay this after every refresh,
    /// the cache's property tests do so in release.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn lower_reduced(&self) -> LoweredLp {
        let flip = self.min_flip();
        let mut b = sqpr_lp::ProblemBuilder::new();
        let mut lp_integers = Vec::new();
        let mut col_of_var = vec![None; self.vars.len()];
        let mut var_of_col = Vec::new();
        let mut fixed_obj_min = 0.0;
        let mut infeasible_fixed_row = false;
        for (j, v) in self.vars.iter().enumerate() {
            if v.is_fixed() {
                if v.ty == VarType::Integer && fixed_off_integer(v.lb) {
                    infeasible_fixed_row = true;
                }
                fixed_obj_min += flip * v.obj * v.lb;
                continue;
            }
            let col = b.add_col(flip * v.obj, v.lb, v.ub);
            col_of_var[j] = Some(col);
            var_of_col.push(j);
            if v.ty == VarType::Integer {
                lp_integers.push(col);
            }
        }
        let mut cons_of_row = Vec::new();
        let mut adjacency = AdjacencyCheck::new(var_of_col.len());
        let mut adjacency_exact = true;
        for (ci, c) in self.cons.iter().enumerate() {
            // The row's number, should it turn out to be kept.
            let r = b.nrows();
            let fold = fold_row(&self.vars, &col_of_var, &c.terms, |col, a| {
                adjacency_exact &= adjacency.term_is_exact(r, col, a);
                b.set_coeff(r, col, a);
            });
            if fold.kept == 0 {
                infeasible_fixed_row |= const_row_violated(fold.shift, c.lb, c.ub);
                continue;
            }
            let (lb, ub) = shifted_bounds(c.lb, c.ub, fold.shift);
            b.add_row(lb, ub);
            cons_of_row.push(ci);
        }
        LoweredLp {
            lp: b.build(),
            geom: SearchGeom {
                map: LpMap {
                    col_of_var,
                    var_of_col,
                    cons_of_row,
                    fixed_obj_min,
                    infeasible_fixed_row,
                    adjacency_exact,
                },
                lp_integers,
            },
        }
    }

    /// `1` for a minimisation, `-1` for a maximisation: what turns the
    /// model's objective into the LP's minimisation form.
    pub(crate) fn min_flip(&self) -> f64 {
        if self.sense == Sense::Maximize {
            -1.0
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_construction_and_feasibility() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary(3.0);
        let y = m.add_continuous(0.0, 2.0, 1.0);
        m.add_le(vec![(x, 1.0), (y, 1.0)], 2.5);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_cons(), 1);
        assert!(m.is_feasible(&[1.0, 1.5], 1e-9));
        assert!(!m.is_feasible(&[0.5, 1.0], 1e-9)); // fractional binary
        assert!(!m.is_feasible(&[1.0, 2.0], 1e-9)); // row violated
        assert_eq!(m.objective_value(&[1.0, 1.5]), 4.5);
    }

    /// Every comparison is false on a NaN: a point with one must not slip
    /// through the bound, integrality and row checks — in a variable, in a
    /// row's activity, or at a position the LP cache folds away.
    #[test]
    fn points_that_are_not_finite_are_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let free = m.add_continuous(-INF, INF, 1.0);
        let int = m.add_var(VarType::Integer, -INF, INF, 1.0);
        let pinned = m.add_continuous(2.0, 2.0, 1.0);
        m.add_range(-INF, INF, vec![(free, 1.0), (int, 1.0)]);
        m.add_le(vec![(free, 1e308), (pinned, 1.0)], 1e9);
        let ok = [0.0, 3.0, 2.0];
        assert!(m.is_feasible(&ok, 1e-6));
        let mut slot = crate::cache::LpCacheSlot::new();
        for position in 0..3 {
            for bad in [f64::NAN, INF, -INF] {
                let mut x = ok;
                x[position] = bad;
                assert!(!m.is_feasible(&x, 1e-6), "{bad} at {position}");
                // The cache's restricted check agrees (position 2 is folded).
                let parts = slot.refresh_solver(&m);
                assert!(parts.lowered.geom.map.col_of_var[2].is_none());
                let start = parts
                    .side
                    .start_objective(&m, &parts.lowered.geom.map, &x, 1e-6);
                assert_eq!(start, None, "{bad} at {position}, through the cache");
            }
        }
        // A finite point, an activity that is not: overflow against a finite
        // bound, and inf - inf against none.
        assert!(!m.is_feasible(&[10.0, 0.0, 2.0], 1e-6));
        let mut m = Model::new(Sense::Maximize);
        let u = m.add_continuous(-INF, INF, 0.0);
        let v = m.add_continuous(-INF, INF, 0.0);
        m.add_range(-INF, INF, vec![(u, 1e308), (v, -1e308)]);
        assert!(m.is_feasible(&[1.0, 1.0], 1e-6));
        assert!(!m.is_feasible(&[10.0, 10.0], 1e-6));
        // A variable pinned at infinity has no finite value to take.
        let mut m = Model::new(Sense::Maximize);
        m.add_continuous(INF, INF, 0.0);
        assert!(!m.is_feasible(&[INF], 1e-6));
        let parts = slot.refresh_solver(&m);
        let start = parts
            .side
            .start_objective(&m, &parts.lowered.geom.map, &[INF], 1e-6);
        assert_eq!(start, None);
    }

    #[test]
    fn fix_var_collapses_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary(1.0);
        m.fix_var(x, 1.0);
        assert_eq!(m.var_bounds(x), (1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn fix_var_rejects_out_of_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary(1.0);
        m.fix_var(x, 2.0);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_eq(vec![(x, 1.0), (x, 2.0)], 6.0);
        // 3x = 6 -> x = 2 feasible
        assert!(m.is_feasible(&[2.0], 1e-9));
        assert!(!m.is_feasible(&[6.0], 1e-9));
    }
}
