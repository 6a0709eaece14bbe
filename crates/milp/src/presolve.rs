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

use sqpr_lp::Problem;

use crate::model::{LpMap, Model, VarType};

/// Result of presolving: tightened bounds, or proven infeasibility.
#[derive(Debug, Clone)]
pub enum Presolved {
    /// Tightened `(lb, ub)` per column (safe to hand to branch & bound).
    Bounds(Vec<f64>, Vec<f64>),
    /// The bound propagation derived an empty domain.
    Infeasible,
}

impl Presolved {
    /// Same verdict and, bit for bit, the same bounds.
    fn identical(&self, other: &Presolved) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        match (self, other) {
            (Presolved::Infeasible, Presolved::Infeasible) => true,
            (Presolved::Bounds(lb, ub), Presolved::Bounds(olb, oub)) => {
                bits(lb) == bits(olb) && bits(ub) == bits(oub)
            }
            _ => false,
        }
    }
}

const TOL: f64 = 1e-9;

/// Runs up to `max_rounds` propagation sweeps.
pub fn presolve_bounds(model: &Model, max_rounds: usize) -> Presolved {
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
    propagate(model, max_rounds, &active, None, None)
}

/// Like [`presolve_bounds`] over the kept rows of a compressed lowering:
/// `map.cons_of_row` is exactly the set of rows with at least one unfolded
/// variable, so the row-classification scan is skipped, and `lp`'s columns
/// give each variable's rows, so sweeps after the first touch only rows
/// with a moved bound. Constant-row feasibility is the lowering's
/// responsibility (`infeasible_fixed_row`), not this function's.
///
/// `first_sweep` carries the first sweep from one call to the next over the
/// *same lowering*: while the model's bounds stand ([`Model::bounds_stamp`])
/// and rows were only appended, the first sweep over the rows it covered
/// would compute the same thing again, so it resumes behind them.
pub(crate) fn presolve_bounds_active(
    model: &Model,
    max_rounds: usize,
    map: &LpMap,
    lp: &Problem,
    first_sweep: Option<&mut Option<FirstSweep>>,
) -> Presolved {
    let adjacency = map.adjacency_exact.then_some((map, lp));
    let presolved = propagate(model, max_rounds, &map.cons_of_row, adjacency, first_sweep);
    debug_assert!(
        presolved.identical(&propagate(model, max_rounds, &map.cons_of_row, None, None)),
        "skipping rows or resuming the first sweep changed the presolve"
    );
    presolved
}

/// A propagation as its first sweep left it; see
/// [`presolve_bounds_active`].
#[derive(Debug)]
pub(crate) struct FirstSweep {
    /// The model bounds the sweep started from.
    bounds_stamp: u64,
    /// Rows swept (a prefix of the lowering's kept rows).
    rows: usize,
    /// What the sweep left behind, as a difference to the model's own
    /// bounds (a sweep moves few of them; the memo stays small next to the
    /// model). `None`: it proved infeasibility within those rows.
    left: Option<Tightened>,
}

/// The variables a sweep moved, with their new `(lb, ub)`, and the rows it
/// left stale.
#[derive(Debug)]
struct Tightened {
    bounds: Vec<(usize, f64, f64)>,
    stale: Vec<bool>,
}

/// The bounds under propagation and, per row, whether a bound of one of its
/// variables moved since the row was last read — by another row or by
/// itself.
struct Bounds {
    lb: Vec<f64>,
    ub: Vec<f64>,
    integer: Vec<bool>,
    stale: Vec<bool>,
    /// Every variable moved so far (repeats allowed).
    tightened: Vec<usize>,
}

/// Proof of an empty domain.
struct Infeasible;

/// The sweeps. `active[r]` is the model constraint behind row `r`; with an
/// `adjacency` (whose LP rows are `active`, in order) a row is re-read only
/// after one of its variables moved, without one every row is re-read in
/// every sweep. Both produce the same bounds, bit for bit.
fn propagate(
    model: &Model,
    max_rounds: usize,
    active: &[usize],
    adjacency: Option<(&LpMap, &Problem)>,
    mut first_sweep: Option<&mut Option<FirstSweep>>,
) -> Presolved {
    if max_rounds == 0 {
        let b = Bounds::of(model, 0);
        return Presolved::Bounds(b.lb, b.ub);
    }
    let resumed = first_sweep
        .as_deref_mut()
        .and_then(Option::take)
        .filter(|f| f.bounds_stamp == model.bounds_stamp && f.rows <= active.len());
    // Finish the first sweep: everything, or the rows appended since.
    let mut bounds = Bounds::of(model, active.len());
    let first = match resumed {
        None => bounds.sweep(model, active, 0, adjacency),
        Some(FirstSweep { left: None, .. }) => Err(Infeasible),
        Some(FirstSweep {
            rows,
            left: Some(left),
            ..
        }) => {
            bounds.resume(left);
            bounds.sweep(model, active, rows, adjacency)
        }
    };
    if let Some(slot) = first_sweep {
        *slot = Some(FirstSweep {
            bounds_stamp: model.bounds_stamp,
            rows: active.len(),
            left: first.is_ok().then(|| bounds.tightened()),
        });
    }
    // Anything moved so far was moved by the first sweep.
    let mut changed = first.map(|()| !bounds.tightened.is_empty());
    for _ in 1..max_rounds {
        if !matches!(changed, Ok(true)) {
            break;
        }
        let before = bounds.tightened.len();
        changed = bounds
            .sweep(model, active, 0, adjacency)
            .map(|()| bounds.tightened.len() > before);
    }
    match changed {
        Ok(_) => Presolved::Bounds(bounds.lb, bounds.ub),
        Err(Infeasible) => Presolved::Infeasible,
    }
}

impl Bounds {
    /// The model's own bounds, every one of `rows` rows unread.
    fn of(model: &Model, rows: usize) -> Self {
        let n = model.num_vars();
        let mut lb = Vec::with_capacity(n);
        let mut ub = Vec::with_capacity(n);
        let mut integer = Vec::with_capacity(n);
        for j in 0..n {
            let v = crate::model::VarId::from_raw(j);
            let (l, u) = model.var_bounds(v);
            lb.push(l);
            ub.push(u);
            integer.push(model.var_type(v) == VarType::Integer);
        }
        Bounds {
            lb,
            ub,
            integer,
            stale: vec![true; rows],
            tightened: Vec::new(),
        }
    }

    /// What has been moved so far, for [`Self::resume`].
    fn tightened(&self) -> Tightened {
        let mut moved = self.tightened.clone();
        moved.sort_unstable();
        moved.dedup();
        Tightened {
            bounds: moved
                .into_iter()
                .map(|j| (j, self.lb[j], self.ub[j]))
                .collect(),
            stale: self.stale.clone(),
        }
    }

    /// Puts back what an earlier sweep from the same model bounds left;
    /// rows beyond the ones it knew stay unread.
    fn resume(&mut self, left: Tightened) {
        for &(j, lb, ub) in &left.bounds {
            self.lb[j] = lb;
            self.ub[j] = ub;
            self.tightened.push(j);
        }
        self.stale[..left.stale.len()].copy_from_slice(&left.stale);
    }

    /// One sweep over `active[from..]`.
    fn sweep(
        &mut self,
        model: &Model,
        active: &[usize],
        from: usize,
        adjacency: Option<(&LpMap, &Problem)>,
    ) -> Result<(), Infeasible> {
        let Bounds {
            lb,
            ub,
            integer,
            stale,
            tightened,
        } = self;
        for (r, &c) in active.iter().enumerate().skip(from) {
            if adjacency.is_some() {
                if !stale[r] {
                    continue;
                }
                stale[r] = false;
            }
            let (terms, row_lb, row_ub) = model.constraint(c);
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
                            new_ub = (new_ub + TOL).floor();
                        }
                        if new_ub < ub[j] - TOL {
                            ub[j] = new_ub;
                        }
                    } else {
                        let mut new_lb = hi / a;
                        if integer[j] {
                            new_lb = (new_lb - TOL).ceil();
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
                            new_lb = (new_lb - TOL).ceil();
                        }
                        if new_lb > lb[j] + TOL {
                            lb[j] = new_lb;
                        }
                    } else {
                        let mut new_ub = lo / a;
                        if integer[j] {
                            new_ub = (new_ub + TOL).floor();
                        }
                        if new_ub < ub[j] - TOL {
                            ub[j] = new_ub;
                        }
                    }
                }
                if lb[j] > ub[j] + TOL {
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
                        // Folded variables are bound-fixed and a fixed
                        // variable cannot tighten without crossing, so
                        // this arm is not expected to run.
                        None => stale.fill(true),
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

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
    use sqpr_workload::rng::{Rng, StdRng};

    /// A random model in the planner's mould: mostly binaries, a share of
    /// them bound-fixed, sparse `<=`/`>=`/`=` rows with mixed-sign
    /// coefficients, four in five of them satisfied by one hidden point so
    /// that most models are feasible — plus, on odd seeds, an implication
    /// chain laid out against the sweep order, so that propagation needs
    /// more sweeps than the cap of 6 allows.
    fn random_model(seed: u64) -> Model {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 6 + rng.gen_index(14);
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..n)
            .map(|_| match rng.gen_index(4) {
                0 => m.add_continuous(0.0, rng.gen_range_f64(0.5, 4.0), 1.0),
                1 => m.add_var(VarType::Integer, 0.0, 1.0 + rng.gen_index(4) as f64, 1.0),
                _ => m.add_binary(1.0),
            })
            .collect();
        for &v in &vars {
            if rng.gen_index(3) == 0 {
                let (lb, ub) = m.var_bounds(v);
                let value = if rng.gen_bool() { lb } else { ub.floor() };
                m.fix_var(v, value);
                m.set_fold_exempt(v, rng.gen_index(4) == 0);
            }
        }
        for _ in 0..(3 + rng.gen_index(10)) {
            append_random_row(&mut m, &mut rng);
        }
        if seed % 2 == 1 {
            // c_0 >= 1 and c_{i+1} >= c_i, the rows in descending i: each
            // sweep carries the forced 1 one link further.
            let chain: Vec<VarId> = (0..10).map(|_| m.add_binary(0.0)).collect();
            for i in (0..chain.len() - 1).rev() {
                m.add_ge(vec![(chain[i + 1], 1.0), (chain[i], -1.0)], 0.0);
            }
            m.add_ge(vec![(chain[0], 1.0)], 1.0);
        }
        m
    }

    /// The hidden point of [`random_model`]: every variable at its upper
    /// bound rounded down (a function of the bounds, so rows appended
    /// later agree with the earlier ones).
    fn hidden_point(m: &Model, v: VarId) -> f64 {
        m.var_bounds(v).1.floor()
    }

    fn append_random_row(m: &mut Model, rng: &mut StdRng) {
        let n = m.num_vars();
        let mut terms = Vec::new();
        for _ in 0..(1 + rng.gen_index(5)) {
            // One row in ten may repeat a variable, which costs the
            // lowering its exact adjacency.
            let v = VarId::from_raw(rng.gen_index(n));
            let a = if rng.gen_bool() { 1.0 } else { -1.0 } * (1 + rng.gen_index(3)) as f64;
            if rng.gen_index(10) == 0 || terms.iter().all(|&(seen, _)| seen != v) {
                terms.push((v, a));
            }
        }
        let rhs = if rng.gen_index(5) == 0 {
            rng.gen_range_i64(-2, 6) as f64
        } else {
            terms.iter().map(|&(v, a)| a * hidden_point(m, v)).sum()
        };
        match rng.gen_index(4) {
            0 => m.add_ge(terms, rhs - rng.gen_index(2) as f64),
            1 => m.add_eq(terms, rhs),
            _ => m.add_le(terms, rhs + rng.gen_index(2) as f64),
        };
    }

    /// Sweeps that skip rows without a moved bound return, bit for bit,
    /// what sweeping every row returns — verdicts, bounds, and where the
    /// 6-sweep cap cuts propagation short.
    #[test]
    fn skipping_unmoved_rows_matches_sweeping_all_rows() {
        let (mut capped, mut infeasible, mut tightened, mut exact) = (0, 0, 0, 0);
        for seed in 0..400u64 {
            let m = random_model(seed);
            let lowered = m.lower_reduced();
            let (map, lp) = (&lowered.geom.map, &lowered.lp);
            exact += usize::from(map.adjacency_exact);
            for rounds in [1, 2, 6] {
                let all_rows = propagate(&m, rounds, &map.cons_of_row, None, None);
                let skipping = presolve_bounds_active(&m, rounds, map, lp, None);
                assert!(
                    skipping.identical(&all_rows),
                    "seed {seed}, {rounds} sweeps: {skipping:?} vs {all_rows:?}"
                );
            }
            let at_cap = propagate(&m, 6, &map.cons_of_row, None, None);
            match &at_cap {
                Presolved::Infeasible => infeasible += 1,
                Presolved::Bounds(lb, _) => {
                    capped += usize::from(!at_cap.identical(&propagate(
                        &m,
                        12,
                        &map.cons_of_row,
                        None,
                        None,
                    )));
                    let moved =
                        (0..m.num_vars()).any(|j| lb[j] != m.var_bounds(VarId::from_raw(j)).0);
                    tightened += usize::from(moved);
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
        let got = presolve_bounds_active(&m, 6, &lowered.geom.map, &lowered.lp, None);
        let want = propagate(&m, 6, &lowered.geom.map.cons_of_row, None, None);
        assert!(got.identical(&want));
        // And a well-formed model keeps it.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(1.0);
        m.add_le(vec![(a, 1.0)], 1.0);
        assert!(m.lower_reduced().geom.map.adjacency_exact);
    }

    /// Resuming the first sweep behind the rows it already covered — the
    /// cut rounds of one submission: rows appended, no bound moved — gives
    /// what a presolve from scratch gives; a moved bound starts over.
    #[test]
    fn resumed_first_sweep_matches_a_fresh_presolve() {
        let mut resumed_calls = 0;
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut m = random_model(seed);
            let mut slot = LpCacheSlot::new();
            let mut memo: Option<FirstSweep> = None;
            for step in 0..6 {
                if step > 0 {
                    if rng.gen_index(4) == 0 {
                        // A bound moves: the memo must not be resumed.
                        let v = VarId::from_raw(rng.gen_index(m.num_vars()));
                        // (Downwards, so the hidden point of `random_model`
                        // moves with it and most models stay feasible.)
                        let (lb, ub) = m.var_bounds(v);
                        m.set_bounds(v, lb, (ub - 1.0).max(lb).floor().max(lb));
                    } else {
                        for _ in 0..(1 + rng.gen_index(3)) {
                            append_random_row(&mut m, &mut rng);
                        }
                    }
                }
                let rebuilds = slot.stats().rebuilds;
                slot.refresh(&m);
                if slot.stats().rebuilds != rebuilds {
                    // A new lowering has new rows: its memo starts empty.
                    memo = None;
                }
                let lowered = slot.lowered().expect("slot populated by refresh");
                let (map, lp) = (&lowered.geom.map, &lowered.lp);
                let stamp_known = memo
                    .as_ref()
                    .is_some_and(|f| f.bounds_stamp == m.bounds_stamp);
                resumed_calls += usize::from(stamp_known);
                let got = presolve_bounds_active(&m, 6, map, lp, Some(&mut memo));
                let want = propagate(&m, 6, &map.cons_of_row, None, None);
                assert!(got.identical(&want), "seed {seed}, step {step}");
                assert_eq!(memo.as_ref().map(|f| f.rows), Some(map.cons_of_row.len()));
            }
        }
        assert!(resumed_calls >= 300, "only {resumed_calls} resumed calls");
    }
}
