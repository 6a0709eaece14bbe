//! Presolve: iterated bound propagation over the linear constraints.
//!
//! Computes tightened column bounds before branch & bound starts — without
//! mutating the model itself, so decoding stays untouched. For every row
//! `lb <= Σ a_j x_j <= ub`, the activity range implied by the current
//! bounds yields residual bounds per variable; integer variables round
//! inward. Big-M models like SQPR's benefit: acyclicity and availability
//! rows fix many binaries once a few others are pinned.
//!
//! Processing a row is a function of the bounds of its own variables, and
//! a row that tightened nothing leaves them as it found them. So a row none
//! of whose variables moved since it was last processed would tighten
//! nothing again, and the later sweeps may skip it — given the rows of each
//! variable, which the compressed lowering's LP columns list for free. The
//! planner's capacity rows carry every skeleton column; without the skip a
//! second sweep re-reads all of them to learn that nothing changed.
//!
//! Nor does a sweep read the whole of a row. Over a lowering it reads the
//! row's live terms, which the LP cache lists beside the lowering
//! ([`crate::cache`], "What a sweep reads"): the free terms, the folded
//! terms with a nonzero value, and per (sign, integrality) the zero-fixed
//! term of smallest `|a|`. A term fixed at zero adds an exact `±0` to both
//! activity sums and tightens nothing; all it can do is find the row's
//! domain empty, when the row is violated by more than `|a|·TOL` but at
//! most `TOL`. That test gets weaker as `|a|` grows, so it fires for a term
//! of a class iff it fires for the class's least `|a|`. The reference
//! propagation reads the model's rows in full, and debug builds assert that
//! both give the same bits.

use sqpr_lp::Problem;

use crate::cache::Side;
use crate::model::{LpMap, Model, VarId, VarType};

/// Result of presolving: tightened bounds, or proven infeasibility.
#[derive(Debug, Clone)]
enum Presolved {
    /// Tightened `(lb, ub)` per column (safe to hand to branch & bound).
    Bounds(Vec<f64>, Vec<f64>),
    /// The bound propagation derived an empty domain.
    Infeasible,
}

const TOL: f64 = 1e-9;

/// The terms a sweep reads of LP row `r`.
type RowTerms<'t> = dyn Fn(usize) -> &'t [(VarId, f64)] + 't;

/// The reference propagation: from the model's own bounds, every one of the
/// `active` rows re-read in full in every sweep.
fn propagate_all_rows(model: &Model, max_rounds: usize, active: &[usize]) -> Presolved {
    let mut mirror = BoundsMirror::of(model);
    let full_rows = |r: usize| model.cons[active[r]].terms.as_slice();
    let mut run = Propagation::over(&mut mirror, &full_rows, active.len());
    match run.propagate(model, max_rounds, active, None) {
        Ok(()) => Presolved::Bounds(mirror.lb, mirror.ub),
        Err(Infeasible) => Presolved::Infeasible,
    }
}

/// Tightened `(lb, ub)` per column of a compressed lowering; `None` when the
/// propagation derived an empty domain.
pub(crate) type LpBounds = Option<(Vec<f64>, Vec<f64>)>;

/// Like `presolve_bounds` over the kept rows of a compressed lowering:
/// `map.cons_of_row` is exactly the set of rows with at least one unfolded
/// variable, so the row-classification scan is skipped, `lp`'s columns
/// give each variable's rows, so sweeps after the first touch only rows
/// with a moved bound, and each row is read through its live terms
/// (`side.live`; see the module docs). Constant-row feasibility is the
/// lowering's responsibility (`infeasible_fixed_row`), not this function's.
///
/// The result is in LP space: a folded variable is bound-fixed, and a fixed
/// variable cannot tighten without emptying its domain, so outside the kept
/// columns the bounds are the model's own.
///
/// `side.mirror` holds the model's current bounds on entry and again on
/// return: the sweeps tighten it in place and what they moved is put back,
/// so no skeleton-sized buffer is filled per call, and every call sweeps
/// from the model's bounds: nothing carries over from one call to the next.
/// `side.rows_read` and `side.terms_read` count what the sweeps read.
pub(crate) fn presolve_bounds_active(
    model: &Model,
    max_rounds: usize,
    map: &LpMap,
    lp: &Problem,
    side: &mut Side,
) -> LpBounds {
    let adjacency = map.adjacency_exact.then_some((map, lp));
    let active = &map.cons_of_row;
    let live = |r: usize| side.live.row(r);
    let mut run = Propagation::over(&mut side.mirror, &live, active.len());
    let verdict = run.propagate(model, max_rounds, active, adjacency);
    side.rows_read += run.rows_read;
    side.terms_read += run.terms_read;
    let moved = std::mem::take(&mut run.tightened);
    let presolved = verdict.ok().map(|()| side.mirror.project(map));
    side.mirror.put_back(model, &moved);
    debug_assert!(
        side.mirror.mirrors(model),
        "presolve left a tightened bound in the mirror"
    );
    debug_assert!(
        lp_bounds_identical(
            &presolved,
            &project(&propagate_all_rows(model, max_rounds, active), model, map)
        ),
        "skipping rows changed the presolve"
    );
    presolved
}

/// A model-space presolve seen from a lowering's columns.
///
/// # Panics
/// Panics if a folded variable's bounds are not the model's own — the
/// premise LP-space root bounds rest on.
fn project(presolved: &Presolved, model: &Model, map: &LpMap) -> LpBounds {
    match presolved {
        Presolved::Infeasible => None,
        Presolved::Bounds(lb, ub) => {
            for (j, col) in map.col_of_var.iter().enumerate() {
                let v = &model.vars[j];
                assert!(
                    col.is_some()
                        || (lb[j].to_bits(), ub[j].to_bits()) == (v.lb.to_bits(), v.ub.to_bits()),
                    "presolve moved the folded variable {j}"
                );
            }
            Some((of_columns(lb, map), of_columns(ub, map)))
        }
    }
}

/// The entries of a per-variable array that belong to a lowering's columns.
fn of_columns(per_var: &[f64], map: &LpMap) -> Vec<f64> {
    map.var_of_col.iter().map(|&j| per_var[j]).collect()
}

/// Same verdict and, bit for bit, the same bounds.
fn lp_bounds_identical(a: &LpBounds, b: &LpBounds) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    match (a, b) {
        (None, None) => true,
        (Some((lb, ub)), Some((olb, oub))) => bits(lb) == bits(olb) && bits(ub) == bits(oub),
        _ => false,
    }
}

/// The model's variable bounds and integrality as flat arrays — what the
/// sweeps read and tighten. Kept by the LP cache, which moves an entry when
/// the model moves the bound ([`Self::sync`]) instead of refilling the
/// arrays per construction; built afresh per call by the reference
/// propagation.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoundsMirror {
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    pub integer: Vec<bool>,
}

impl BoundsMirror {
    pub(crate) fn of(model: &Model) -> Self {
        let mut mirror = BoundsMirror::default();
        for j in 0..model.num_vars() {
            mirror.sync(model, j);
        }
        mirror
    }

    /// Makes entry `j` the model's (appending it when `j` is the next new
    /// variable).
    pub(crate) fn sync(&mut self, model: &Model, j: usize) {
        let v = &model.vars[j];
        if j == self.lb.len() {
            self.lb.push(v.lb);
            self.ub.push(v.ub);
            self.integer.push(v.ty == VarType::Integer);
        } else {
            self.lb[j] = v.lb;
            self.ub[j] = v.ub;
            self.integer[j] = v.ty == VarType::Integer;
        }
    }

    /// The bounds of a lowering's columns.
    fn project(&self, map: &LpMap) -> (Vec<f64>, Vec<f64>) {
        (of_columns(&self.lb, map), of_columns(&self.ub, map))
    }

    /// Undoes a propagation: the entries it moved take the model's values
    /// again.
    fn put_back(&mut self, model: &Model, moved: &[usize]) {
        for &j in moved {
            self.lb[j] = model.vars[j].lb;
            self.ub[j] = model.vars[j].ub;
        }
    }

    /// Whether every entry is the model's, bit for bit.
    pub(crate) fn mirrors(&self, model: &Model) -> bool {
        self.lb.len() == model.num_vars()
            && model.vars.iter().enumerate().all(|(j, v)| {
                self.lb[j].to_bits() == v.lb.to_bits()
                    && self.ub[j].to_bits() == v.ub.to_bits()
                    && self.integer[j] == (v.ty == VarType::Integer)
            })
    }
}

/// One propagation over a [`BoundsMirror`]: the bounds under propagation
/// and, per row, whether a bound of one of its variables moved since the row
/// was last read — by another row or by itself.
struct Propagation<'a> {
    bounds: &'a mut BoundsMirror,
    /// The terms read of each row.
    terms: &'a RowTerms<'a>,
    stale: Vec<bool>,
    /// Every variable moved so far (repeats allowed) — including the one an
    /// empty domain was found on, so that undoing the list restores the
    /// mirror whatever the verdict.
    tightened: Vec<usize>,
    rows_read: usize,
    terms_read: usize,
}

/// Proof of an empty domain.
struct Infeasible;

/// `v.floor()`, bit for bit, without the call into libm for the values an
/// `i64` holds exactly — the sweeps round one bound per integer term.
#[expect(clippy::float_cmp, reason = "an exact round trip means whole")]
fn floor(v: f64) -> f64 {
    let towards_zero = (v as i64) as f64;
    if towards_zero == v {
        v // whole already (and keeps the sign of a zero)
    } else if v.abs() < 9.0e15 {
        if towards_zero > v {
            towards_zero - 1.0
        } else {
            towards_zero
        }
    } else {
        v.floor()
    }
}

/// `v.ceil()`, bit for bit; see [`floor`].
fn ceil(v: f64) -> f64 {
    -floor(-v)
}

impl<'a> Propagation<'a> {
    /// Over the model's own bounds, every one of `rows` rows unread.
    fn over(bounds: &'a mut BoundsMirror, terms: &'a RowTerms<'a>, rows: usize) -> Self {
        Propagation {
            bounds,
            terms,
            stale: vec![true; rows],
            tightened: Vec::new(),
            rows_read: 0,
            terms_read: 0,
        }
    }

    /// The sweeps. `active[r]` is the model constraint behind row `r`; with
    /// an `adjacency` (whose LP rows are `active`, in order) a row is re-read
    /// only after one of its variables moved, without one every row is
    /// re-read in every sweep. Both leave the same bounds, bit for bit.
    fn propagate(
        &mut self,
        model: &Model,
        max_rounds: usize,
        active: &[usize],
        adjacency: Option<(&LpMap, &Problem)>,
    ) -> Result<(), Infeasible> {
        for _ in 0..max_rounds {
            let before = self.tightened.len();
            self.sweep(model, active, adjacency)?;
            if self.tightened.len() == before {
                break;
            }
        }
        Ok(())
    }

    /// One sweep over `active`.
    fn sweep(
        &mut self,
        model: &Model,
        active: &[usize],
        adjacency: Option<(&LpMap, &Problem)>,
    ) -> Result<(), Infeasible> {
        let Propagation {
            bounds,
            terms: row_terms,
            stale,
            tightened,
            rows_read,
            terms_read,
        } = self;
        let BoundsMirror { lb, ub, integer } = &mut **bounds;
        for (r, &c) in active.iter().enumerate() {
            if adjacency.is_some() {
                if !stale[r] {
                    continue;
                }
                stale[r] = false;
            }
            let terms = row_terms(r);
            let (_, row_lb, row_ub) = model.constraint(c);
            *rows_read += 1;
            *terms_read += terms.len();
            let moved_before = tightened.len();
            // Activity range under current bounds.
            let mut min_act = 0.0f64;
            let mut max_act = 0.0f64;
            for &(v, a) in terms {
                let (l, u) = (lb[v.index()], ub[v.index()]);
                if a >= 0.0 {
                    min_act += a * l;
                    max_act += a * u;
                } else {
                    min_act += a * u;
                    max_act += a * l;
                }
            }
            if min_act > row_ub + TOL || max_act < row_lb - TOL {
                return Err(Infeasible);
            }
            if !min_act.is_finite() && !max_act.is_finite() {
                continue; // unbounded in both directions: nothing to learn
            }
            for &(v, a) in terms {
                if a == 0.0 {
                    continue;
                }
                let j = v.index();
                let (l, u) = (lb[j], ub[j]);
                // This variable's own contribution range.
                let (c_min, c_max) = if a >= 0.0 {
                    (a * l, a * u)
                } else {
                    (a * u, a * l)
                };
                // Residual activity of the other variables.
                let rest_min = min_act - c_min;
                let rest_max = max_act - c_max;
                // a*x <= row_ub - rest_min  and  a*x >= row_lb - rest_max.
                if rest_min.is_finite() && row_ub.is_finite() {
                    let hi = row_ub - rest_min;
                    if a > 0.0 {
                        let mut new_ub = hi / a;
                        if integer[j] {
                            new_ub = floor(new_ub + TOL);
                        }
                        if new_ub < ub[j] - TOL {
                            ub[j] = new_ub;
                        }
                    } else {
                        let mut new_lb = hi / a;
                        if integer[j] {
                            new_lb = ceil(new_lb - TOL);
                        }
                        if new_lb > lb[j] + TOL {
                            lb[j] = new_lb;
                        }
                    }
                }
                if rest_max.is_finite() && row_lb.is_finite() {
                    let lo = row_lb - rest_max;
                    if a > 0.0 {
                        let mut new_lb = lo / a;
                        if integer[j] {
                            new_lb = ceil(new_lb - TOL);
                        }
                        if new_lb > lb[j] + TOL {
                            lb[j] = new_lb;
                        }
                    } else {
                        let mut new_ub = lo / a;
                        if integer[j] {
                            new_ub = floor(new_ub + TOL);
                        }
                        if new_ub < ub[j] - TOL {
                            ub[j] = new_ub;
                        }
                    }
                }
                if lb[j] > ub[j] + TOL {
                    tightened.push(j);
                    return Err(Infeasible);
                }
                // Snap crossed-by-rounding integer bounds.
                if lb[j] > ub[j] {
                    let mid = lb[j];
                    ub[j] = mid;
                }
                if (lb[j], ub[j]) != (l, u) {
                    tightened.push(j);
                }
            }
            if let Some((map, lp)) = adjacency {
                // What this row moved makes the rows reading it stale.
                for &j in &tightened[moved_before..] {
                    match map.col_of_var[j] {
                        Some(col) => {
                            for (row, _) in lp.matrix().col_iter(col) {
                                stale[row] = true;
                            }
                        }
                        // A variable outside the LP is bound-fixed, and a
                        // fixed variable cannot tighten without crossing,
                        // so this arm is not expected to run.
                        None => stale.fill(true),
                    }
                }
            }
        }
        Ok(())
    }
}

/// Runs up to `max_rounds` propagation sweeps.
#[cfg(test)]
fn presolve_bounds(model: &Model, max_rounds: usize) -> Presolved {
    // Rows whose variables are all bound-fixed are constants: check them
    // once and exclude them from the propagation sweeps. Skeleton models
    // fix most of their variables per submission, so this turns the sweep
    // cost from O(model) into O(free subproblem).
    let mut active = Vec::with_capacity(model.num_cons());
    for c in 0..model.num_cons() {
        let (terms, row_lb, row_ub) = model.constraint(c);
        let mut any_free = false;
        let mut act = 0.0;
        for &(v, a) in terms {
            let (l, u) = model.var_bounds(v);
            if l < u {
                any_free = true;
                break;
            }
            act += a * l;
        }
        if any_free {
            active.push(c);
        } else if act > row_ub + TOL * (1.0 + act.abs()) || act < row_lb - TOL * (1.0 + act.abs()) {
            return Presolved::Infeasible;
        }
    }
    propagate_all_rows(model, max_rounds, &active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn floor_and_ceil_are_the_std_ones() {
        let mut probes = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for k in 0..64 {
            let p = 2f64.powi(k);
            for d in [-1.5, -1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0, 1.5] {
                probes.extend([p + d, -p + d, (p + d) / 3.0, (p + d) * 1e-9]);
            }
        }
        for v in probes {
            assert_eq!(floor(v).to_bits(), v.floor().to_bits(), "floor({v})");
            assert_eq!(ceil(v).to_bits(), v.ceil().to_bits(), "ceil({v})");
        }
    }

    #[test]
    fn fixes_forced_binaries() {
        // x + y >= 2 with binaries forces both to 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_ge(vec![(x, 1.0), (y, 1.0)], 2.0);
        match presolve_bounds(&m, 4) {
            Presolved::Bounds(lb, ub) => {
                assert_eq!(lb, vec![1.0, 1.0]);
                assert_eq!(ub, vec![1.0, 1.0]);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary(1.0);
        m.add_ge(vec![(x, 1.0)], 2.0); // x >= 2 impossible for a binary
        assert!(matches!(presolve_bounds(&m, 4), Presolved::Infeasible));
    }

    #[test]
    fn integer_rounding_tightens() {
        // 2x <= 5 with x integer: x <= 2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(VarType::Integer, 0.0, 10.0, 1.0);
        m.add_le(vec![(x, 1.0)], 2.5);
        match presolve_bounds(&m, 4) {
            Presolved::Bounds(_, ub) => assert_eq!(ub[0], 2.0),
            _ => panic!(),
        }
    }

    #[test]
    fn propagates_through_chains() {
        // a = 1 forced; a + b <= 1 -> b = 0; b + c >= 1... c = 1? b=0 so c>=1.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary(0.0);
        let b = m.add_binary(0.0);
        let c = m.add_binary(0.0);
        m.add_ge(vec![(a, 1.0)], 1.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        m.add_ge(vec![(b, 1.0), (c, 1.0)], 1.0);
        match presolve_bounds(&m, 8) {
            Presolved::Bounds(lb, ub) => {
                assert_eq!((lb[0], ub[0]), (1.0, 1.0));
                assert_eq!((lb[1], ub[1]), (0.0, 0.0));
                assert_eq!((lb[2], ub[2]), (1.0, 1.0));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn negative_coefficients() {
        // -x <= -1 forces binary x = 1.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary(0.0);
        m.add_le(vec![(x, -1.0)], -1.0);
        match presolve_bounds(&m, 4) {
            Presolved::Bounds(lb, _) => assert_eq!(lb[0], 1.0),
            _ => panic!(),
        }
    }

    #[test]
    fn leaves_loose_models_alone() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_le(vec![(x, 1.0), (y, 1.0)], 2.0); // non-binding
        match presolve_bounds(&m, 4) {
            Presolved::Bounds(lb, ub) => {
                assert_eq!(lb, vec![0.0, 0.0]);
                assert_eq!(ub, vec![1.0, 1.0]);
            }
            _ => panic!(),
        }
    }

    use crate::cache::LpCacheSlot;
    use crate::model::VarId;
    use crate::test_models::{append_random_row, random_model};
    use sqpr_workload::rng::{Rng, StdRng};

    /// The reference, seen from the lowering's columns.
    fn all_rows(m: &Model, rounds: usize, map: &LpMap) -> LpBounds {
        project(&propagate_all_rows(m, rounds, &map.cons_of_row), m, map)
    }

    /// [`presolve_bounds_active`] over the slot's current lowering of `m`,
    /// on the slot's own mirror.
    fn through_slot(slot: &mut LpCacheSlot, m: &Model, rounds: usize) -> LpBounds {
        let parts = slot.refresh_solver(m);
        let (map, lp) = (&parts.lowered.geom.map, &parts.lowered.lp);
        let side = parts.side;
        let got = presolve_bounds_active(m, rounds, map, lp, side);
        assert!(side.mirror.mirrors(m), "presolve left the mirror tightened");
        got
    }

    /// Sweeps that skip rows without a moved bound return, bit for bit,
    /// what sweeping every row returns — verdicts, bounds, and where the
    /// 6-sweep cap cuts propagation short. One cache slot serves all the
    /// models, one after another, so each propagation runs on the arrays
    /// the previous model — of another size — left behind.
    #[test]
    fn skipping_unmoved_rows_matches_sweeping_all_rows() {
        let (mut capped, mut infeasible, mut tightened, mut exact) = (0, 0, 0, 0);
        let mut slot = LpCacheSlot::new();
        for seed in 0..400u64 {
            let m = random_model(seed);
            let lowered = m.lower_reduced();
            let map = &lowered.geom.map;
            exact += usize::from(map.adjacency_exact);
            for rounds in [1, 2, 6] {
                let want = all_rows(&m, rounds, map);
                let skipping = through_slot(&mut slot, &m, rounds);
                assert!(
                    lp_bounds_identical(&skipping, &want),
                    "seed {seed}, {rounds} sweeps: {skipping:?} vs {want:?}"
                );
            }
            let at_cap = all_rows(&m, 6, map);
            match &at_cap {
                None => infeasible += 1,
                Some((lb, _)) => {
                    capped += usize::from(!lp_bounds_identical(&at_cap, &all_rows(&m, 12, map)));
                    tightened += usize::from(lb != lowered.lp.col_bounds().0);
                }
            }
        }
        // The corpus has to exercise what it claims to.
        assert!(capped >= 50, "only {capped} models hit the sweep cap");
        assert!(infeasible >= 50, "only {infeasible} infeasible models");
        assert!(tightened >= 100, "only {tightened} models tightened");
        assert!(exact >= 250, "only {exact} models with an exact adjacency");
    }

    /// A model with a zero coefficient or a repeated variable in a kept
    /// row has no exact adjacency; presolve must notice and sweep all rows.
    #[test]
    fn inexact_adjacency_falls_back_to_all_rows() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        let c = m.add_binary(1.0);
        // b appears twice with cancelling coefficients: the LP column of b
        // does not list this row, yet b's bounds decide what it implies.
        m.add_le(vec![(a, 1.0), (b, 1.0), (b, -1.0), (c, 1.0)], 1.0);
        m.add_ge(vec![(a, 1.0)], 1.0);
        let lowered = m.lower_reduced();
        assert!(!lowered.geom.map.adjacency_exact);
        let got = through_slot(&mut LpCacheSlot::new(), &m, 6);
        assert!(lp_bounds_identical(
            &got,
            &all_rows(&m, 6, &lowered.geom.map)
        ));
        // And a well-formed model keeps it.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(1.0);
        m.add_le(vec![(a, 1.0)], 1.0);
        assert!(m.lower_reduced().geom.map.adjacency_exact);
    }

    /// Presolve over a lowering that rows were appended to — the cut rounds
    /// of one submission: no bound moved — gives, bit for bit, what the
    /// reference gives over the same rows; so does presolve over the
    /// lowering a moved bound or a grown model rebuilds (new columns, on the
    /// same mirror, longer).
    #[test]
    fn presolve_over_appended_rows_matches_all_rows() {
        let (mut appended, mut grown) = (0, 0);
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut m = random_model(seed);
            let mut slot = LpCacheSlot::new();
            for step in 0..6 {
                if step > 0 {
                    match rng.gen_index(8) {
                        0 | 1 => {
                            // A bound moves: the next lowering is a rebuild.
                            let v = VarId::from_raw(rng.gen_index(m.num_vars()));
                            // (Downwards, so the hidden point of `random_model`
                            // moves with it and most models stay feasible.)
                            let (lb, ub) = m.var_bounds(v);
                            m.set_bounds(v, lb, (ub - 1.0).max(lb).floor().max(lb));
                        }
                        2 => {
                            // The model grows: a new binary in a new row and
                            // at the end of an old one.
                            let v = m.add_binary(1.0);
                            let old = crate::model::ConsId(rng.gen_index(m.num_cons()));
                            m.add_terms(old, [(v, 0.0)]);
                            append_random_row(&mut m, &mut rng);
                            grown += 1;
                        }
                        _ => {
                            for _ in 0..(1 + rng.gen_index(3)) {
                                append_random_row(&mut m, &mut rng);
                            }
                        }
                    }
                }
                let before = slot.stats();
                let got = through_slot(&mut slot, &m, 6);
                let refreshed = slot.stats().since(&before);
                appended += usize::from(refreshed.patches == 1 && refreshed.appended_rows > 0);
                let map = &slot.lowered().expect("slot populated by refresh").geom.map;
                assert!(
                    lp_bounds_identical(&got, &all_rows(&m, 6, map)),
                    "seed {seed}, step {step}"
                );
            }
        }
        assert!(
            appended >= 300,
            "only {appended} lowerings with appended rows"
        );
        assert!(grown >= 50, "only {grown} growth steps");
    }

    /// The live rows keep one zero-fixed term per (sign, integrality), the
    /// one of least `|a|`: the only way such a term changes a presolve is
    /// by finding its row's domain empty, when the row is violated by more
    /// than `|a|·TOL` but at most `TOL`. Each row here carries a free
    /// column and three zero-fixed terms of one class with `|a| < 1`, and
    /// is violated, on either side, by `v`: between the least `|a|·TOL` and
    /// `TOL` the row is infeasible through that term alone, and below it the
    /// row is feasible. The live rows give the full rows' verdict and
    /// bounds, bit for bit, every time.
    #[test]
    fn least_zero_fixed_terms_keep_the_verdicts() {
        let mut infeasible = 0;
        for integer in [false, true] {
            for sign in [1.0, -1.0] {
                for upper in [true, false] {
                    for (v, want_infeasible) in [(0.5 * TOL, true), (0.1 * TOL, false)] {
                        for order in 0..3 {
                            let mut m = Model::new(Sense::Maximize);
                            // Free: at 1 it meets the row's bound less `v`.
                            let (ylb, yub) = if upper { (1.0, 10.0) } else { (-10.0, 1.0) };
                            let y = m.add_continuous(ylb, yub, 1.0);
                            let mut terms = vec![(y, 1.0)];
                            let mut sizes = [0.75, 0.5, 0.25];
                            sizes.rotate_left(order);
                            for a in sizes {
                                let ty = if integer {
                                    VarType::Integer
                                } else {
                                    VarType::Continuous
                                };
                                let z = m.add_var(ty, 0.0, 3.0, 0.0);
                                m.fix_var(z, 0.0);
                                terms.push((z, sign * a));
                            }
                            if upper {
                                m.add_le(terms, 1.0 - v);
                            } else {
                                m.add_ge(terms, 1.0 + v);
                            }
                            let mut slot = LpCacheSlot::new();
                            let live = through_slot(&mut slot, &m, 6);
                            let map = &slot.lowered().expect("slot populated").geom.map;
                            let full = all_rows(&m, 6, map);
                            let case = format!(
                                "integer {integer}, sign {sign}, upper {upper}, v {v:e}, order {order}"
                            );
                            assert!(
                                lp_bounds_identical(&live, &full),
                                "{case}: {live:?} vs {full:?}"
                            );
                            assert_eq!(full.is_none(), want_infeasible, "{case}");
                            infeasible += usize::from(full.is_none());
                        }
                    }
                }
            }
        }
        assert_eq!(infeasible, 24);
    }
}
