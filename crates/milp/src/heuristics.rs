//! The primal heuristic of branch & bound: diving.
//!
//! It works on the minimisation-form LP and reports candidate incumbents
//! `(objective, x)`; the caller validates them against the model before
//! accepting.

use sqpr_lp::{
    solve_with_bounds_from_ws, BasisState, FactorState, LpStatus, LpWorkspace, PivotCounts,
    Problem, SimplexOptions,
};

/// Maximum number of fixing rounds in a dive (defensive; a dive fixes at
/// least one variable per round so depth is bounded by the integer count).
const MAX_DIVE_DEPTH: usize = 400;

/// Diving heuristic: repeatedly fix the most fractional integer variable to
/// its nearest integer and re-solve the LP until the point is integral or
/// the dive dead-ends. Each fixing round warm-starts from the previous
/// round's basis (seeded by `basis`, typically the node relaxation's) and
/// factorisation (seeded by `factors`, the node relaxation's final one), so
/// a dive costs a few pivots per fixing instead of a full solve.
#[allow(clippy::too_many_arguments, reason = "one dive's inputs and counters")]
pub fn dive(
    lp: &Problem,
    integers: &[usize],
    lb: &[f64],
    ub: &[f64],
    x0: &[f64],
    basis: Option<&BasisState>,
    lp_opts: &SimplexOptions,
    int_tol: f64,
    lp_iterations: &mut usize,
    lp_pivots: &mut PivotCounts,
    ws: &mut LpWorkspace,
    mut factors: Option<FactorState>,
) -> Option<(f64, Vec<f64>)> {
    let mut lb = lb.to_vec();
    let mut ub = ub.to_vec();
    let mut x = x0.to_vec();
    let mut objective = f64::NAN;
    let mut cur_basis: Option<BasisState> = basis.cloned();

    for _ in 0..MAX_DIVE_DEPTH {
        // Find the most fractional integer variable.
        let mut target: Option<(usize, f64, f64)> = None;
        for &j in integers {
            let frac = x[j] - x[j].floor();
            let dist = frac.min(1.0 - frac);
            if dist > int_tol && target.is_none_or(|(_, _, d)| dist > d) {
                target = Some((j, x[j], dist));
            }
        }
        let Some((j, v, _)) = target else {
            // Integral: snap and report.
            for &j in integers {
                x[j] = x[j].round();
            }
            if objective.is_nan() {
                objective = lp.objective_value(&x);
            }
            return Some((objective, x));
        };
        let (orig_lb, orig_ub) = (lb[j], ub[j]);
        let fixed = v.round().clamp(orig_lb, orig_ub);
        lb[j] = fixed;
        ub[j] = fixed;
        let hint = cur_basis.as_ref();
        let sol = solve_with_bounds_from_ws(lp, &lb, &ub, hint, lp_opts, ws, &mut factors);
        *lp_iterations += sol.iterations;
        lp_pivots.merge(&sol.pivots);
        match sol.status {
            LpStatus::Optimal => {
                x = sol.x;
                objective = sol.objective;
                cur_basis = sol.basis;
            }
            _ => {
                // Try the opposite rounding once before giving up.
                #[expect(clippy::float_cmp, reason = "`fixed` is a rounded whole number")]
                let alt = if fixed == v.floor() {
                    v.ceil()
                } else {
                    v.floor()
                };
                if alt < orig_lb - 1e-9 || alt > orig_ub + 1e-9 {
                    return None;
                }
                lb[j] = alt;
                ub[j] = alt;
                let hint = cur_basis.as_ref();
                let sol = solve_with_bounds_from_ws(lp, &lb, &ub, hint, lp_opts, ws, &mut factors);
                *lp_iterations += sol.iterations;
                lp_pivots.merge(&sol.pivots);
                if sol.status != LpStatus::Optimal {
                    return None;
                }
                x = sol.x;
                objective = sol.objective;
                cur_basis = sol.basis;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpr_lp::{ProblemBuilder, INF};

    /// min -x - y, x,y binary-relaxed, x + y <= 1.5.
    fn toy() -> Problem {
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-1.0, 0.0, 1.0);
        let y = b.add_col(-1.0, 0.0, 1.0);
        let r = b.add_row(-INF, 1.5);
        b.set_coeff(r, x, 1.0);
        b.set_coeff(r, y, 1.0);
        b.build()
    }

    #[test]
    fn dive_reaches_integral_point() {
        let lp = toy();
        let mut iters = 0;
        let mut pivots = PivotCounts::default();
        let got = dive(
            &lp,
            &[0, 1],
            &[0.0, 0.0],
            &[1.0, 1.0],
            &[0.75, 0.75],
            None,
            &SimplexOptions::default(),
            1e-6,
            &mut iters,
            &mut pivots,
            &mut LpWorkspace::new(),
            None,
        );
        let (obj, x) = got.expect("dive should succeed");
        assert!(x.iter().all(|v| (v - v.round()).abs() < 1e-9));
        // Best integral point: one variable at 1, the other at 0 (sum<=1.5).
        assert!(obj <= -1.0 + 1e-9);
    }

    #[test]
    fn dive_respects_infeasible_fixings() {
        // x + y = 1 with both fixed at 0 is infeasible; the dive must try
        // the alternative rounding and still find a point.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(0.0, 0.0, 1.0);
        let y = b.add_col(0.0, 0.0, 1.0);
        let r = b.add_row(1.0, 1.0);
        b.set_coeff(r, x, 1.0);
        b.set_coeff(r, y, 1.0);
        let lp = b.build();
        let mut iters = 0;
        let mut pivots = PivotCounts::default();
        let got = dive(
            &lp,
            &[0, 1],
            &[0.0, 0.0],
            &[1.0, 1.0],
            &[0.5, 0.5],
            None,
            &SimplexOptions::default(),
            1e-6,
            &mut iters,
            &mut pivots,
            &mut LpWorkspace::new(),
            None,
        );
        let (_, x) = got.expect("dive should recover");
        assert!((x[0] + x[1] - 1.0).abs() < 1e-9);
    }
}
