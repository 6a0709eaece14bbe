//! Bound-change-aware dual simplex for warm re-solves.
//!
//! A basis that was optimal for one set of bounds stays **dual feasible**
//! when only bounds move: reduced costs depend on the matrix, objective and
//! basis — not on bound values. That is exactly the re-solve signature of
//! branch & bound children (one variable's bounds tightened) and of the
//! planner's §IV-A reduction re-fixing over a persistent skeleton (many
//! variables' bounds flipped between fixed and free). For those, primal
//! feasibility can be recovered with *dual* pivots — each one kicks a
//! bound-violating basic variable out onto its violated bound — instead of
//! the composite phase-I plus primal-reoptimisation round trip.
//!
//! Entry contract (see `Solver::try_dual_entry`): the solve must have
//! started from a caller-provided basis hint, the repaired vertex must be
//! primal infeasible, and the reduced costs must be dual feasible within a
//! relaxed tolerance. Anything else falls through to the composite
//! phase-I, which remains the correctness backstop: the dual loop also
//! bails out (`FallBack`) on stalls or numerical trouble, so it can cost
//! pivots but never correctness.
//!
//! Row selection uses **devex reference weights** (Forrest–Goldfarb style):
//! rows are scored by `violation^2 / weight`, and the weights are updated
//! from the entering column's FTRAN image — which the basis update needs
//! anyway, so dual devex is essentially free. Reduced costs are maintained
//! incrementally from the pivot row (one BTRAN of the leaving row per
//! iteration, spread over a row-major mirror of the matrix), and recomputed
//! from scratch after each refactorisation.
//!
//! ## The ratio test: bound-flipping long steps, then Harris tolerances
//!
//! The dual ratio test ([`RatioTest::LongStep`], the only one) first walks
//! **past** breakpoints whose column is *boxed* (finite lower and upper
//! bound): passing the breakpoint flips the column to its opposite bound —
//! its reduced cost changes sign there, so dual feasibility is kept — and
//! reduces the dual objective's slope by `|alpha_j| * (ub_j - lb_j)`. The
//! walk continues while the slope stays positive, then pivots once. On the
//! planner's mostly-boxed (binary-relaxation) models this amortises long
//! chains of degenerate dual pivots into a single BTRAN/FTRAN plus a batch
//! of bound flips, applied with **one** aggregated FTRAN
//! ([`PivotCounts::bound_flips`] counts them).
//!
//! Among the candidates left after the walk, the test runs the two-pass
//! Harris scheme: breakpoints are relaxed by the dual tolerance to find the
//! furthest admissible dual step, then the entering column is the
//! **largest pivot** among candidates within that relaxed step — degenerate
//! breakpoint ties stop dictating tiny, numerically poor pivots.
//!
//! [`RatioTest::LongStep`]: crate::simplex::RatioTest::LongStep
//! [`PivotCounts::bound_flips`]: crate::simplex::PivotCounts::bound_flips

use crate::basis::RefactorCause;
use crate::problem::LpStatus;
use crate::simplex::{outside, Solver, VarStatus};
use crate::sparse::IndexedVec;

/// Outcome of one dual-simplex run.
enum DualOutcome {
    /// Primal feasibility reached; the caller continues with primal
    /// phase-II (usually a single pricing pass, since dual feasibility was
    /// maintained throughout).
    PrimalFeasible,
    /// A row certified primal infeasibility (no sign-eligible entering
    /// column exists for a violated basic variable).
    Infeasible,
    /// Stall or numerical trouble (including a breakpoint that is not a
    /// finite number): give up and let composite phase-I take over from
    /// the current (valid) basis.
    FallBack,
    /// The global iteration budget ran out mid-walk.
    IterationLimit,
}

/// The dual ratio-test breakpoint of a candidate column: its (clamped)
/// reduced cost over its pivot-row entry, or `None` when that is not a
/// finite number — a NaN would make every order over the candidates
/// partial.
fn breakpoint(dual: f64, alpha: f64) -> Option<f64> {
    let ratio = dual.abs() / alpha.abs();
    ratio.is_finite().then_some(ratio)
}

/// The candidates' order, ascending breakpoint: a total order, and on the
/// finite, non-negative breakpoints [`breakpoint`] admits exactly the
/// numeric one.
fn by_breakpoint(x: &(usize, f64, f64), y: &(usize, f64, f64)) -> std::cmp::Ordering {
    x.1.total_cmp(&y.1)
}

impl Solver<'_> {
    /// Attempts the dual-simplex warm entry. Returns `Some(status)` when the
    /// dual loop terminally resolved the LP's feasibility question
    /// (infeasible / iteration limit); `None` means "continue with the
    /// primal loop" — either the point is now primal feasible or the dual
    /// path declined and phase-I should run.
    pub(crate) fn try_dual_entry(&mut self, max_iters: usize) -> Option<LpStatus> {
        if self.max_bound_violation() <= self.opts.tol_feas {
            return None; // already primal feasible: phase-I is skipped anyway
        }
        // All dual-loop scratch is hoisted: the buffers live in the
        // LpWorkspace and survive across solves, so a B&B tree's hundreds
        // of dual re-solves allocate nothing here.
        // Only priceable columns' reduced costs are ever read (the
        // candidates and the entering column are priceable), and each of
        // those is written before it is read.
        let mut d = std::mem::take(&mut self.dual_d);
        d.resize(self.n + self.m, 0.0);
        if !self.dual_feasible_reduced_costs(&mut d) {
            self.dual_d = d;
            return None;
        }
        let mut tau = std::mem::take(&mut self.dual_tau);
        tau.clear();
        tau.resize(self.m, 1.0);
        let mut flip_rhs = std::mem::take(&mut self.dual_flip_rhs);
        flip_rhs.reset(self.m);
        let mut cands = std::mem::take(&mut self.dual_cands);
        cands.clear();
        let mut viol = std::mem::take(&mut self.dual_viol);
        let mut in_viol = std::mem::take(&mut self.dual_in_viol);
        let outcome = self.dual_loop(
            &mut d,
            &mut tau,
            &mut flip_rhs,
            &mut cands,
            &mut viol,
            &mut in_viol,
            max_iters,
        );
        self.dual_d = d;
        self.dual_tau = tau;
        self.dual_flip_rhs = flip_rhs;
        self.dual_cands = cands;
        self.dual_viol = viol;
        self.dual_in_viol = in_viol;
        match outcome {
            DualOutcome::Infeasible => Some(LpStatus::Infeasible),
            DualOutcome::IterationLimit => Some(LpStatus::IterationLimit),
            DualOutcome::PrimalFeasible | DualOutcome::FallBack => None,
        }
    }

    /// Computes phase-II reduced costs for every priceable variable into
    /// `d` and reports whether they are dual feasible within a relaxed
    /// tolerance (bound-fixed columns are exempt: they can never enter).
    fn dual_feasible_reduced_costs(&mut self, d: &mut [f64]) -> bool {
        self.compute_duals(false);
        self.duals_valid = false; // y is clobbered by ratio-test BTRANs below
        let tol = self.opts.tol_dual * 10.0;
        for j in self.priceable.iter() {
            let dj = self.reduced_cost(j, false);
            d[j] = dj;
            let ok = match self.status[j] {
                VarStatus::AtLower => dj >= -tol,
                VarStatus::AtUpper => dj <= tol,
                VarStatus::FreeNb => dj.abs() <= tol,
                VarStatus::Basic => true,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Clamps a maintained reduced cost onto its dual-feasible side, so
    /// drift within tolerance cannot produce negative ratios.
    #[inline]
    fn clamped_dual(&self, j: usize, d: &[f64]) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => d[j].max(0.0),
            VarStatus::AtUpper => d[j].min(0.0),
            _ => 0.0,
        }
    }

    /// The dual simplex loop. Maintains dual feasibility (within drift) and
    /// walks the total primal bound violation of basic variables to zero.
    ///
    /// `tau` holds the dual devex reference weights (one per basis
    /// position), `flip_rhs` the aggregated bound-flip right-hand side,
    /// `cands` the ratio-test candidates `(column, breakpoint, alpha)`,
    /// and `viol`/`in_viol` the incrementally maintained candidate list of
    /// bound-violating basis positions — all caller-provided so re-solves
    /// do not allocate.
    ///
    /// The violation list replaces the former all-`m` leaving-row scan:
    /// basic values only move on the pivot column's FTRAN support and on
    /// flip batches, so those positions are (re-)enlisted after each pivot
    /// and everything else stays untouched. Members found feasible at scan
    /// time are pruned; a refactorisation (which recomputes every basic
    /// value) forces a full rebuild.
    #[allow(clippy::too_many_arguments, reason = "re-solves reuse caller buffers")]
    fn dual_loop(
        &mut self,
        d: &mut [f64],
        tau: &mut [f64],
        flip_rhs: &mut IndexedVec,
        cands: &mut Vec<(usize, f64, f64)>,
        viol: &mut Vec<usize>,
        in_viol: &mut Vec<bool>,
        max_iters: usize,
    ) -> DualOutcome {
        let n = self.n;
        let m = self.m;
        // Row-major mirror for pivot rows; cached on the Problem, so only
        // the first dual entry against a given matrix pays the transpose.
        let mirror = self.p.row_major();
        let mut stall = 0usize;
        let mut last_total = f64::INFINITY;
        let mut retries = 0usize;
        let mut rebuild_list = true;
        let tol = self.opts.tol_feas;
        let tol_d = self.opts.tol_dual;
        let piv_tol = self.opts.tol_pivot;

        loop {
            if self.iterations >= max_iters {
                return DualOutcome::IterationLimit;
            }

            // ---- leaving row: worst devex-weighted bound violation ----
            // Scanned over the candidate list only; ties break on the
            // smaller position so the pick is independent of list order
            // (matching the ascending full scan this replaces).
            if rebuild_list {
                rebuild_list = false;
                viol.clear();
                viol.extend(0..m);
                in_viol.clear();
                in_viol.resize(m, true);
            }
            let mut pick: Option<(usize, f64, f64, bool)> = None; // (pos, score, viol, at_upper)
            let mut total_infeas = 0.0;
            let mut i = 0usize;
            while i < viol.len() {
                let pos = viol[i];
                let j = self.basis.basic_at(pos);
                let v = self.x[j];
                let (vv, at_upper) = if v > self.ub[j] + tol {
                    (v - self.ub[j], true)
                } else if v < self.lb[j] - tol {
                    (self.lb[j] - v, false)
                } else {
                    in_viol[pos] = false;
                    viol.swap_remove(i);
                    continue;
                };
                total_infeas += vv;
                let score = vv * vv / tau[pos];
                #[expect(clippy::float_cmp, reason = "an exact score tie breaks on position")]
                let better = pick.is_none_or(|(bp, s, _, _)| score > s || (score == s && pos < bp));
                if better {
                    pick = Some((pos, score, vv, at_upper));
                }
                i += 1;
            }
            let Some((rpos, _, viol_amt, at_upper)) = pick else {
                return DualOutcome::PrimalFeasible;
            };
            if total_infeas < last_total - 1e-10 {
                stall = 0;
            } else {
                stall += 1;
                if stall > self.opts.stall_limit {
                    return DualOutcome::FallBack;
                }
            }
            last_total = total_infeas;

            self.iterations += 1;
            self.pivots.dual += 1;

            // ---- pivot row: alpha_j = (row rpos of B^-1) . a_j ----
            // A unit seed: the hyper-sparse BTRAN visits only its reach,
            // and the scatter below only rho's support.
            self.rho.clear();
            self.rho.set(rpos, 1.0);
            let mut ewma_rho = self.ewma_rho;
            self.basis.btran_sp(&mut self.rho, &mut ewma_rho);
            self.ewma_rho = ewma_rho;
            // Columns reached only through dropped (noise-level) rho
            // entries never make it into the touched list; if that
            // happened, an empty ratio test is NOT a trustworthy
            // infeasibility certificate and must fall back to phase-I.
            let rho_dropped = mirror.scatter_pivot_row(
                &self.rho,
                n,
                1e-12,
                &mut self.alpha,
                &mut self.alpha_touched,
            );

            // ---- gather dual ratio-test candidates ----
            // sigma = +1: the leaving basic sits above its upper bound and
            // must decrease; -1: below its lower bound and must increase.
            let sigma = if at_upper { 1.0 } else { -1.0 };
            let mut saw_tiny = false;
            cands.clear();
            for &j in &self.alpha_touched {
                if !self.is_priceable(j) {
                    continue;
                }
                let a = self.alpha[j];
                let eligible = match self.status[j] {
                    VarStatus::AtLower => sigma * a > 0.0,
                    VarStatus::AtUpper => sigma * a < 0.0,
                    VarStatus::FreeNb => a != 0.0,
                    VarStatus::Basic => false,
                };
                if !eligible {
                    continue;
                }
                if a.abs() <= piv_tol {
                    saw_tiny = true;
                    continue;
                }
                let Some(ratio) = breakpoint(self.clamped_dual(j, d), a) else {
                    // A drifted reduced cost or pivot-row entry: no ratio
                    // test can order it, so leave the walk to phase-I.
                    return DualOutcome::FallBack;
                };
                cands.push((j, ratio, a));
            }
            if cands.is_empty() {
                // No column can reduce this row's violation. With no
                // sign-eligible candidate at all — and the pivot row
                // computed exactly (no candidate skipped for a tiny alpha,
                // no rho entry dropped as noise) — this is a Farkas-style
                // infeasibility certificate; anything less certain stays
                // safe and falls back to composite phase-I.
                return if saw_tiny || rho_dropped {
                    DualOutcome::FallBack
                } else {
                    DualOutcome::Infeasible
                };
            }

            // ---- select the entering column (and the long-step flips) ----
            let mut nflips = 0usize;
            cands.sort_unstable_by(by_breakpoint);
            // Bound-flipping walk: passing a boxed candidate's breakpoint
            // flips it to its opposite bound and lowers the slope (this
            // row's violation) by |alpha| * range; keep walking while the
            // remaining slope stays nonnegative (the dual objective must not
            // start *worsening* — flat is fine, and on the planner's
            // unit-violation rows one flip typically zeroes the slope
            // exactly) and an entering candidate remains.
            let mut slope = viol_amt;
            while nflips + 1 < cands.len() {
                let (j, _, a) = cands[nflips];
                let range = self.ub[j] - self.lb[j];
                if !range.is_finite() {
                    break; // a free/one-sided column must enter
                }
                let gain = a.abs() * range;
                if slope - gain < -1e-9 {
                    break;
                }
                slope -= gain;
                nflips += 1;
            }
            // Harris two-pass over the remaining candidates. The relaxation
            // is a small fraction of the dual tolerance, mirroring the primal
            // test: wide windows admit reduced-cost overruns whose clamping
            // feeds degenerate zero-ratio candidates back into later
            // iterations.
            let relax = tol_d * 0.01;
            let rest = &cands[nflips..];
            let mut t_rel = f64::INFINITY;
            for &(_, ratio, a) in rest {
                t_rel = t_rel.min(ratio + relax / a.abs());
            }
            let mut best: Option<(usize, f64, f64)> = None;
            for &(j, ratio, a) in rest {
                if ratio <= t_rel && best.is_none_or(|(_, _, ba): (_, _, f64)| a.abs() > ba.abs()) {
                    best = Some((j, ratio, a));
                }
            }
            // `rest` is non-empty (the flip walk stops before the last
            // candidate), but selection coming up empty must degrade to the
            // composite phase-I rung, never panic mid-solve.
            let Some((q, ratio_q, aq)) = best else {
                return DualOutcome::FallBack;
            };
            if nflips == 0 && ratio_q > 1e-12 && rest[0].1 <= 1e-12 {
                self.pivots.harris_degenerate_saved += 1;
            }
            // ---- FTRAN the entering column, cross-check the pivot ----
            self.w.clear();
            self.basis.scatter_column_sp(q, &mut self.w);
            let mut ewma_w = self.ewma_w;
            self.basis.ftran_sp(&mut self.w, &mut ewma_w);
            self.ewma_w = ewma_w;
            let piv = self.w[rpos];
            if piv.abs() <= piv_tol || piv * aq < 0.0 {
                // The FTRAN image disagrees with the BTRAN row: numerical
                // drift. Refactorise once and retry; give up on repeats.
                // (No flips have been applied yet, so retrying is clean.)
                retries += 1;
                if retries > 3 {
                    return DualOutcome::FallBack;
                }
                self.refactorize_and_repair(RefactorCause::Drift);
                self.pivots_since_refactor = 0;
                self.refresh_reduced_costs(d);
                last_total = f64::INFINITY;
                rebuild_list = true; // every basic value was recomputed
                continue;
            }
            retries = 0;

            // ---- commit the long-step flips: one aggregated FTRAN ----
            // Every flipped column moves to its opposite bound; the basics
            // absorb the combined movement via x_B -= B^-1 (sum a_f d_f).
            // The dual step below crosses each flipped breakpoint, so the
            // flipped reduced costs change sign exactly as their new bound
            // requires — dual feasibility is preserved.
            if nflips > 0 {
                flip_rhs.clear();
                for &(j, _, _) in &cands[..nflips] {
                    let (to, st) = match self.status[j] {
                        VarStatus::AtLower => (self.ub[j], VarStatus::AtUpper),
                        VarStatus::AtUpper => (self.lb[j], VarStatus::AtLower),
                        _ => continue, // unreachable: walk stops at non-boxed
                    };
                    let delta = to - self.x[j];
                    if j < n {
                        for (r, v) in self.p.matrix().col_iter(j) {
                            flip_rhs.add(r, v * delta);
                        }
                    } else {
                        flip_rhs.add(j - n, -delta);
                    }
                    self.x[j] = to;
                    self.status[j] = st;
                    self.pivots.bound_flips += 1;
                }
                let mut ewma_flip = self.ewma_flip;
                self.basis.ftran_sp(flip_rhs, &mut ewma_flip);
                self.ewma_flip = ewma_flip;
                {
                    let Solver {
                        x,
                        basis,
                        lb,
                        ub,
                        violated,
                        ..
                    } = &mut *self;
                    flip_rhs.for_each_nonzero(|pos, fv| {
                        let bj = basis.basic_at(pos);
                        x[bj] -= fv;
                        violated.assign(pos, outside(x[bj], lb[bj], ub[bj]));
                        if !in_viol[pos] {
                            in_viol[pos] = true;
                            viol.push(pos);
                        }
                    });
                }
                flip_rhs.clear();
                debug_assert!(self.sets_match_scan());
            }

            // ---- primal step: land the leaving variable on its bound ----
            // (If the flips' true effect overshot the slope accounting by a
            // hair, the step comes out slightly negative and the entering
            // variable ends marginally infeasible *as a basic* — which the
            // dual loop keeps repairing; nothing special to do.)
            let lj = self.basis.basic_at(rpos);
            let bound = if at_upper { self.ub[lj] } else { self.lb[lj] };
            let step = (self.x[lj] - bound) / piv;
            if step != 0.0 {
                self.x[q] += step;
                let Solver {
                    x,
                    basis,
                    w,
                    lb,
                    ub,
                    violated,
                    ..
                } = &mut *self;
                w.for_each_nonzero(|pos, wv| {
                    let bj = basis.basic_at(pos);
                    x[bj] -= step * wv;
                    violated.assign(pos, outside(x[bj], lb[bj], ub[bj]));
                    if !in_viol[pos] {
                        in_viol[pos] = true;
                        viol.push(pos);
                    }
                });
            }
            self.x[lj] = bound;
            self.status[lj] = if at_upper {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };

            // ---- dual step: maintain reduced costs incrementally ----
            let theta = self.clamped_dual(q, d) / aq;
            if theta != 0.0 {
                for &j in &self.alpha_touched {
                    if self.status[j] != VarStatus::Basic && j != q {
                        d[j] -= theta * self.alpha[j];
                    }
                }
            }
            d[lj] = -theta;
            d[q] = 0.0;

            // ---- dual devex update from the FTRAN image ----
            let tau_r = tau[rpos];
            let inv = 1.0 / (piv * piv);
            self.w.for_each_nonzero(|pos, wv| {
                if pos != rpos {
                    let cand = wv * wv * inv * tau_r;
                    if cand > tau[pos] {
                        tau[pos] = cand;
                    }
                }
            });
            tau[rpos] = (tau_r * inv).max(1.0);

            // ---- basis update ----
            self.basis.replace(rpos, q, &self.w);
            self.status[q] = VarStatus::Basic;
            self.note_pivot(rpos, q, lj);
            self.duals_valid = false;
            self.pivots_since_refactor += 1;
            // The dual loop keeps the *tight* refactor cadence even under
            // Forrest–Tomlin (the primal loop relaxes it): its reduced
            // costs are maintained incrementally and the refactorisation
            // refresh is what bounds their drift — stretching it trips the
            // pivot cross-check and regresses warm re-solves to phase-I.
            let due = if self.pivots_since_refactor >= self.opts.refactor_interval {
                Some(RefactorCause::PivotCap)
            } else {
                self.basis.refactor_due()
            };
            if let Some(cause) = due {
                self.refactorize_and_repair(cause);
                self.pivots_since_refactor = 0;
                self.refresh_reduced_costs(d);
                last_total = f64::INFINITY;
                rebuild_list = true; // every basic value was recomputed
            }
        }
    }

    /// Recomputes every priceable reduced cost from fresh duals (used
    /// after refactorisation, where incremental updates would compound
    /// drift).
    fn refresh_reduced_costs(&mut self, d: &mut [f64]) {
        self.compute_duals(false);
        self.duals_valid = false;
        for j in self.priceable.iter() {
            d[j] = self.reduced_cost(j, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn breakpoints_that_are_not_numbers_fall_back() {
        assert_eq!(breakpoint(3.0, -2.0), Some(1.5));
        assert_eq!(breakpoint(0.0, 4.0), Some(0.0));
        assert_eq!(breakpoint(f64::NAN, 1.0), None);
        assert_eq!(breakpoint(1.0, f64::NAN), None);
        assert_eq!(breakpoint(f64::INFINITY, 2.0), None);
        assert_eq!(
            breakpoint(1e300, 1e-300),
            None,
            "an overflowed step is no step"
        );
    }

    #[test]
    fn candidate_order_is_total_and_numeric_on_breakpoints() {
        // The comparator this replaces is not transitive once a NaN is in
        // the list: 1 ~ NaN ~ 0.5 but 1 > 0.5.
        let partial = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(Ordering::Equal);
        assert_eq!(partial(1.0, f64::NAN), Ordering::Equal);
        assert_eq!(partial(f64::NAN, 0.5), Ordering::Equal);
        assert_eq!(partial(1.0, 0.5), Ordering::Greater);
        // On what `breakpoint` admits the two orders agree pair by pair, so
        // the unstable sort permutes candidates exactly as before.
        let ratios = [0.0, 0.5, 0.5, 1.0, 3.0, 1e-13, 0.0, 7.25];
        for &a in &ratios {
            for &b in &ratios {
                assert_eq!(by_breakpoint(&(0, a, 1.0), &(1, b, 1.0)), partial(a, b));
            }
        }
        let mut cands: Vec<(usize, f64, f64)> = ratios
            .iter()
            .enumerate()
            .map(|(j, &r)| (j, r, 1.0))
            .collect();
        let mut before = cands.clone();
        cands.sort_unstable_by(by_breakpoint);
        before.sort_unstable_by(|x, y| partial(x.1, y.1));
        assert_eq!(cands, before);
    }
}
