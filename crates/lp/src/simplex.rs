//! Bounded-variable revised primal simplex with a composite phase-I.
//!
//! Internally the problem `row_lb <= A x <= row_ub` is rewritten as
//! `A x - s = 0` with slack bounds `[row_lb, row_ub]`, giving the square
//! system `[A | -I] z = 0` over `n + m` bounded variables. The initial basis
//! is the slack identity; if slack bounds are violated at the start (e.g.
//! equality rows), a phase-I objective that minimises the total bound
//! violation of basic variables drives the point feasible, after which the
//! same loop continues with the true objective.
//!
//! Warm starts: [`solve_from`] / [`solve_with_bounds_from_ws`] accept a
//! [`BasisState`] captured from a previous solve (possibly of a *smaller*
//! problem) and start from that vertex instead of the slack identity. The
//! hint is validated and repaired against the current dimensions — see
//! [`BasisState`] for the exact contract. When the hinted vertex is primal
//! feasible, phase-I is skipped entirely and the solve goes straight to
//! optimising the true objective; when it is primal infeasible but still
//! dual feasible (bounds moved under an optimal basis), the dual simplex
//! in [`crate::dual`] recovers feasibility with dual pivots instead of
//! phase-I.
//!
//! Pricing: devex scores over all columns for small systems; for larger
//! systems a bound-flip-aware *partial* pricing scheme (rotating candidate
//! window + a short-list of recently attractive columns) prices only a
//! fraction of the `n + m` columns per iteration. Bland's rule (full scan) engages
//! after a stall is detected, preserving the anti-cycling guarantee.

use crate::basis::{Basis, BasisScratch, BasisUpdate, FactorState, RefactorCause};
use crate::problem::{LpSolution, LpStatus, Problem};
use crate::sparse::{IndexedVec, PosSet};

/// Simplex iteration counts broken down by phase, plus the ratio-test
/// side-counters that explain *why* the iteration counts are what they are.
///
/// `phase1` counts composite phase-I iterations (feasibility recovery from
/// a cold or badly stale start), `primal` counts phase-II primal
/// iterations, and `dual` counts dual-simplex iterations (warm re-solves
/// whose basis stayed dual feasible under bound changes — see
/// [`crate::dual`]). The sum equals [`LpSolution::iterations`].
///
/// `bound_flips` counts nonbasic variables moved from one finite bound to
/// the other *without* a basis change: primal ratio tests whose entering
/// variable hit its own opposite bound first, and — the big contributor on
/// warm re-solves — boxed nonbasics flipped by the dual simplex's
/// long-step ratio test ([`RatioTest::LongStep`]), where many would-be
/// degenerate dual pivots are amortised into one real pivot.
/// `harris_degenerate_saved` counts iterations where the textbook ratio
/// test would have taken a zero-length (degenerate) step but the Harris
/// two-pass test found a strictly positive one within the feasibility
/// tolerance. Neither side-counter contributes to [`Self::total`].
///
/// The sparsity block mirrors [`crate::basis::SolveStats`]: how many
/// FTRAN/BTRAN solves ran the hyper-sparse kernels vs. the dense
/// fallbacks ([`Self::sparse_hit_rate`]), how dense the solve results were
/// ([`Self::mean_solve_density`]), and how the basis absorbed updates
/// (Forrest–Tomlin vs. product-form etas vs. full refactorisations).
/// Every refactorisation is also counted under exactly one cause — the
/// six `refactor_*` fields sum to [`Self::refactorizations`].
///
/// ```
/// use sqpr_lp::PivotCounts;
///
/// let mut total = PivotCounts::default();
/// let node = PivotCounts { dual: 7, bound_flips: 12, sparse_solves: 30,
///                          dense_solves: 10, ..PivotCounts::default() };
/// total.merge(&node);
/// assert_eq!(total.total(), 7); // side-counters don't count as iterations
/// assert_eq!(total.bound_flips, 12);
/// assert!((total.sparse_hit_rate() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PivotCounts {
    pub phase1: usize,
    pub primal: usize,
    pub dual: usize,
    /// Nonbasic bound-to-bound moves without a basis change (primal ratio
    /// test short-circuits plus dual long-step flips).
    pub bound_flips: usize,
    /// Degenerate pivots avoided by the Harris two-pass ratio test.
    pub harris_degenerate_saved: usize,
    /// FTRAN/BTRAN solves served by the hyper-sparse kernels.
    pub sparse_solves: usize,
    /// FTRAN/BTRAN solves that fell back to the dense kernels.
    pub dense_solves: usize,
    /// Sum of solve-result nonzeros (density numerator).
    pub solve_nnz: usize,
    /// Sum of basis dimensions over solves (density denominator).
    pub solve_dim: usize,
    /// Forrest–Tomlin basis updates applied.
    pub ft_updates: usize,
    /// Product-form etas appended (product-form mode or FT-rejection
    /// fallback).
    pub pfi_updates: usize,
    /// Basis refactorisations performed.
    pub refactorizations: usize,
    /// Refactorisations at a solve's start with no factors handed in: the
    /// caller passed `None`.
    pub refactor_no_cache: usize,
    /// Refactorisations at a solve's start whose handed-in factors were for
    /// a different basic set.
    pub refactor_basis_changed: usize,
    /// Refactorisations forced by the pivot cap between refactorisations.
    pub refactor_pivot_cap: usize,
    /// Refactorisations forced by the update representation's fill or
    /// count cap (Forrest–Tomlin fill growth or update cap, product-form
    /// eta count or fill).
    pub refactor_update_fill: usize,
    /// Refactorisations after a rejected Forrest–Tomlin update fell back
    /// to a product-form eta.
    pub refactor_rejected_update: usize,
    /// Refactorisations after the dual loop's pivot cross-check found
    /// numerical drift.
    pub refactor_drift: usize,
    /// Solves that re-installed the [`crate::basis::FactorState`] handed in
    /// instead of refactorising (its basic set, update mode and dimension
    /// matched the start's).
    pub factor_reattaches: usize,
    /// Numerical-distress ladder, rung 1: solves retried warm from their
    /// own final basis with the failed solve's factors dropped (forced
    /// fresh factorisation) after an iteration-limit exit. See
    /// [`crate::solve_with_bounds_recovering_ws`].
    pub distress_refactors: usize,
    /// Distress ladder, rung 2: retries under escalated pivot/feasibility
    /// tolerances and a raised stall limit.
    pub distress_escalations: usize,
    /// Distress ladder, rung 3: cold restarts from the slack basis with an
    /// enlarged iteration budget — the last resort before surfacing
    /// [`crate::LpStatus::IterationLimit`] to the caller.
    pub distress_cold_restarts: usize,
}

impl PivotCounts {
    /// Total simplex iterations (side-counters excluded).
    pub fn total(&self) -> usize {
        self.phase1 + self.primal + self.dual
    }

    /// Fraction of FTRAN/BTRAN solves that ran hyper-sparse (0 when no
    /// solves were recorded).
    pub fn sparse_hit_rate(&self) -> f64 {
        let total = self.sparse_solves + self.dense_solves;
        if total == 0 {
            0.0
        } else {
            self.sparse_solves as f64 / total as f64
        }
    }

    /// Sum of the six `refactor_*` cause counters — equal to
    /// [`Self::refactorizations`] for every solve and every sum of solves.
    pub fn refactor_causes(&self) -> usize {
        self.refactor_no_cache
            + self.refactor_basis_changed
            + self.refactor_pivot_cap
            + self.refactor_update_fill
            + self.refactor_rejected_update
            + self.refactor_drift
    }

    /// Counts one refactorisation under `cause` (the total itself comes
    /// from the basis).
    fn note_refactor(&mut self, cause: RefactorCause) {
        *match cause {
            RefactorCause::NoCachedFactors => &mut self.refactor_no_cache,
            RefactorCause::BasisChanged => &mut self.refactor_basis_changed,
            RefactorCause::PivotCap => &mut self.refactor_pivot_cap,
            RefactorCause::UpdateFill => &mut self.refactor_update_fill,
            RefactorCause::RejectedUpdate => &mut self.refactor_rejected_update,
            RefactorCause::Drift => &mut self.refactor_drift,
        } += 1;
    }

    /// Mean density of solve results: nonzeros over basis dimension,
    /// averaged across every recorded solve (0 when none).
    pub fn mean_solve_density(&self) -> f64 {
        if self.solve_dim == 0 {
            0.0
        } else {
            self.solve_nnz as f64 / self.solve_dim as f64
        }
    }

    /// Accumulates another counter set into this one. Field-wise addition:
    /// merging per-solve counters in any order yields the same totals.
    /// `pivot_counts_merge_accumulates_every_field` builds its operands as
    /// exhaustive literals: a new counter does not compile there until the
    /// test sets it, and then fails the test until this merge sums it.
    pub fn merge(&mut self, other: &PivotCounts) {
        self.phase1 += other.phase1;
        self.primal += other.primal;
        self.dual += other.dual;
        self.bound_flips += other.bound_flips;
        self.harris_degenerate_saved += other.harris_degenerate_saved;
        self.sparse_solves += other.sparse_solves;
        self.dense_solves += other.dense_solves;
        self.solve_nnz += other.solve_nnz;
        self.solve_dim += other.solve_dim;
        self.ft_updates += other.ft_updates;
        self.pfi_updates += other.pfi_updates;
        self.refactorizations += other.refactorizations;
        self.refactor_no_cache += other.refactor_no_cache;
        self.refactor_basis_changed += other.refactor_basis_changed;
        self.refactor_pivot_cap += other.refactor_pivot_cap;
        self.refactor_update_fill += other.refactor_update_fill;
        self.refactor_rejected_update += other.refactor_rejected_update;
        self.refactor_drift += other.refactor_drift;
        self.factor_reattaches += other.factor_reattaches;
        self.distress_refactors += other.distress_refactors;
        self.distress_escalations += other.distress_escalations;
        self.distress_cold_restarts += other.distress_cold_restarts;
    }
}

/// Public basis-status of one variable (structural or slack) in a
/// [`BasisState`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarBasisStatus {
    /// In the basis; its value is determined by `B x_B = -N x_N`.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable parked at zero.
    Free,
}

/// A snapshot of a simplex basis, detached from any particular solver
/// instance, used to warm-start later solves.
///
/// Variables are indexed globally: structural columns `0..ncols`, then one
/// slack per row at `ncols..ncols + nrows`.
///
/// ## Warm-start / repair contract
///
/// A `BasisState` captured from a solve of an `m x n` problem may be
/// replayed against a problem of *different* dimensions `m' x n'`
/// (the planner appends query columns/rows between submissions):
///
/// - structural columns `j < min(n, n')` keep their status; **appended**
///   columns (`j >= n`) enter nonbasic at their bound nearest zero;
/// - **dropped** structural columns (`j >= n'`) are patched out of the
///   basis — the vacated basis position is filled with the slack of a row
///   not already covered (slack substitution), exactly the repair the
///   factorisation itself performs on singular bases;
/// - slack statuses are remapped from `n + i` to `n' + i`; slacks of
///   **appended** rows (`i >= m`) enter the basis so the basis stays square;
/// - a nonbasic status pointing at an infinite bound (the bounds may have
///   changed between solves) is re-derived from the current bounds.
///
/// After repair the basis is refactorised (with the standard singularity
/// repair) and basic values are recomputed. If the resulting vertex is
/// primal feasible within `tol_feas`, phase-I is skipped.
#[derive(Debug, Clone)]
pub struct BasisState {
    /// Structural column count at capture time.
    pub ncols: usize,
    /// Row count at capture time.
    pub nrows: usize,
    /// Global column index occupying each basis position (`len == nrows`).
    pub basic: Vec<usize>,
    /// Status per global variable (`len == ncols + nrows`).
    pub status: Vec<VarBasisStatus>,
}

/// Which ratio test the primal and dual loops run.
///
/// The planner's assignment-style models are massively degenerate: many
/// basics sit exactly on a bound, so the textbook smallest-ratio test keeps
/// returning zero-length steps and the solver burns iterations shuffling
/// the basis without moving. The one test attacks exactly that:
///
/// - **Harris two-pass** (primal and dual): pass one computes the largest
///   step allowed when every blocking bound is relaxed by the feasibility
///   tolerance; pass two picks, among the blockers within that relaxed
///   step, the one with the **largest pivot magnitude**. Degenerate ties
///   become real (tolerance-sized) steps on a numerically better pivot;
///   the per-variable bound violation this admits is capped by the
///   feasibility tolerance, i.e. by the solver's own optimality contract.
/// - **Bound-flipping long steps** (dual only): when the dual ratio test's
///   cheapest blocker is a *boxed* nonbasic (finite lower and upper
///   bound), the dual step may walk **past** its breakpoint by flipping it
///   to its opposite bound, and keep walking while the dual objective's
///   slope stays positive. Many degenerate dual pivots collapse into one
///   BTRAN/FTRAN plus a batch of bound flips (reported as
///   [`PivotCounts::bound_flips`]).
///
/// Bland's anti-cycling rule, once a primal stall engages it, runs the
/// textbook single-pass test instead (smallest ratio, ties by smallest
/// variable index). One variant; the enum stays only because
/// [`SimplexOptions::ratio_test`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatioTest {
    /// Harris two-pass plus the bound-flipping dual long step.
    LongStep,
}

/// Primal pricing rule.
///
/// Devex maintains approximate steepest-edge reference weights `w_j` and
/// scores candidates by `d_j^2 / w_j`. With the full pivot-row update (one
/// BTRAN of the leaving row per pivot, spread over the row-major mirror
/// shared with the dual simplex) devex is accurate enough to engage from
/// cold starts too. Hinted re-solves keep every weight at 1. One variant;
/// the enum stays only because [`SimplexOptions::pricing`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingRule {
    /// Reference-framework devex with full pivot-row weight updates.
    Devex,
}

/// Options controlling a simplex solve.
///
/// ```
/// use sqpr_lp::{RatioTest, SimplexOptions};
///
/// // The planner's settings: a light cost perturbation on top of the
/// // defaults (Harris + long-step ratio tests, devex pricing).
/// let opts = SimplexOptions { perturb: 1e-7, ..SimplexOptions::default() };
/// assert_eq!(opts.ratio_test, RatioTest::LongStep);
/// ```
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on simplex iterations; 0 means `40 * (n + m) + 2000`.
    pub max_iters: usize,
    /// Primal feasibility tolerance (absolute, on variable bounds; not
    /// negative).
    pub tol_feas: f64,
    /// Dual feasibility / reduced-cost tolerance.
    pub tol_dual: f64,
    /// Smallest pivot magnitude accepted by the ratio test.
    pub tol_pivot: f64,
    /// Refactorise at least every this many pivots.
    pub refactor_interval: usize,
    /// Iterations without objective progress before Bland's rule engages.
    pub stall_limit: usize,
    /// Relative magnitude of the anti-degeneracy cost perturbation
    /// (0 disables). The perturbation is removed before termination, so
    /// reported optima are exact for the true objective.
    pub perturb: f64,
    /// The ratio test (see [`RatioTest`]; one value, no choice).
    pub ratio_test: RatioTest,
    /// The primal pricing rule (see [`PricingRule`]; one value, no choice).
    pub pricing: PricingRule,
    /// Basis update representation (see [`BasisUpdate`]). Under
    /// Forrest–Tomlin the primal loop's `refactor_interval` pivot cap is
    /// relaxed 2x — the fill-growth policy ([`Self::ft_fill_limit`]) is
    /// the primary refactorisation trigger, the cap only bounds numerical
    /// drift. (The dual loop keeps the tight cap: its incrementally
    /// maintained reduced costs rely on the refactorisation refresh.)
    pub basis_update: BasisUpdate,
    /// Fill-growth ratio (current factor entries over freshly-factorised
    /// entries) at which Forrest–Tomlin mode refactorises.
    pub ft_fill_limit: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iters: 0,
            tol_feas: 1e-7,
            tol_dual: 1e-7,
            tol_pivot: 1e-8,
            refactor_interval: 64,
            stall_limit: 256,
            perturb: 0.0,
            ratio_test: RatioTest::LongStep,
            pricing: PricingRule::Devex,
            basis_update: BasisUpdate::ForrestTomlin,
            ft_fill_limit: 3.0,
        }
    }
}

/// Reusable scratch buffers shared across solves.
///
/// A branch & bound tree solves hundreds of closely-related LPs; without a
/// workspace every solver construction re-allocates a dozen
/// `O(n + m)` vectors (and the dual loop two more per entry). Passing the
/// same `LpWorkspace` to the `_ws` entry points
/// ([`solve_with_bounds_from_ws`]) reuses those allocations; the plain
/// entry points create a throwaway workspace internally. The basis's solve
/// scratch lives here too ([`BasisScratch`]), so the detached
/// [`FactorState`] holds factors only. A workspace holds scratch and
/// nothing else: no numeric state crosses from one solve to the next
/// through it, and a solve's factorisation is the caller's, passed in and
/// out as the `factors` argument.
#[derive(Debug, Default)]
pub struct LpWorkspace {
    lb: Vec<f64>,
    ub: Vec<f64>,
    status: Vec<VarStatus>,
    x: Vec<f64>,
    work_obj: Vec<f64>,
    y: IndexedVec,
    w: IndexedVec,
    rho: IndexedVec,
    rhs: Vec<f64>,
    /// All `false` between solves; see [`Solver::banned`].
    banned: Vec<bool>,
    banned_list: Vec<usize>,
    devex: Vec<f64>,
    /// Zero outside `alpha_touched` between solves.
    alpha: Vec<f64>,
    alpha_touched: Vec<usize>,
    candidates: Vec<usize>,
    /// All `false` between solves; see [`Solver::marks`].
    marks: Vec<bool>,
    violated: PosSet,
    costed: PosSet,
    priceable: PosSet,
    basis_scratch: BasisScratch,
    /// Dual-loop buffers (hoisted from per-entry allocations).
    dual_d: Vec<f64>,
    dual_tau: Vec<f64>,
    dual_flip_rhs: IndexedVec,
    dual_cands: Vec<(usize, f64, f64)>,
    dual_viol: Vec<usize>,
    dual_in_viol: Vec<bool>,
}

impl LpWorkspace {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Variable status in the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarStatus {
    Basic,
    AtLower,
    AtUpper,
    /// Nonbasic free variable parked at zero.
    FreeNb,
}

/// Solves `problem` with its built-in column bounds.
pub fn solve(problem: &Problem, opts: &SimplexOptions) -> LpSolution {
    solve_from(problem, None, opts)
}

/// Warm-started solve: like [`solve`], but starts from `basis_hint`
/// (captured from a previous [`LpSolution::basis`]) instead of the slack
/// identity. The hint may come from a differently-sized problem — see the
/// [`BasisState`] repair contract. Passing `None` is identical to [`solve`].
pub fn solve_from(
    problem: &Problem,
    basis_hint: Option<&BasisState>,
    opts: &SimplexOptions,
) -> LpSolution {
    let (lb, ub) = problem.col_bounds();
    let mut ws = LpWorkspace::new();
    solve_with_bounds_from_ws(problem, lb, ub, basis_hint, opts, &mut ws, &mut None)
}

/// Solves `problem` with the column bounds overridden (the matrix, rows and
/// objective are shared), warm-started from `basis_hint` when given, with
/// caller-provided scratch buffers: the entry point for solvers (branch &
/// bound, diving heuristics) that re-solve node LPs from their parent's
/// basis and want to amortise the per-solve allocations away.
///
/// `factors` is the factorisation reuse, in and out: the solve takes it as
/// its seed — re-installed instead of refactorising when its basic set is
/// the start's, as a branch & bound child's parent factors are — and leaves
/// it holding the solve's final factorisation. The caller vouches that a
/// seed was detached over this matrix; `&mut None` starts from a fresh
/// factorisation.
pub fn solve_with_bounds_from_ws(
    problem: &Problem,
    col_lb: &[f64],
    col_ub: &[f64],
    basis_hint: Option<&BasisState>,
    opts: &SimplexOptions,
    ws: &mut LpWorkspace,
    factors: &mut Option<FactorState>,
) -> LpSolution {
    Solver::new(
        problem,
        col_lb,
        col_ub,
        basis_hint,
        opts,
        ws,
        factors.take(),
    )
    .run(ws, factors)
}

/// [`solve_with_bounds_from_ws`] wrapped in the numerical-distress ladder:
/// a solve that exits with [`LpStatus::IterationLimit`] (the umbrella
/// status for stalls, tolerance-starved ratio tests and bases the
/// singularity repair keeps patching) is retried through escalating
/// recovery rungs instead of surfacing the limit to the caller.
///
/// 1. **Refactorise** — drop the failed solve's factors (forcing a
///    fresh factorisation, which discards any accumulated Forrest–Tomlin
///    update drift) and re-solve warm from the failed solve's own final
///    basis ([`PivotCounts::distress_refactors`]).
/// 2. **Tolerance escalation** — same warm restart, but with the pivot
///    tolerance relaxed `100x`, the feasibility/dual tolerances `10x`, and
///    the stall limit `4x`: degenerate vertices that starve the Harris
///    ratio test of acceptable pivots become traversable
///    ([`PivotCounts::distress_escalations`]).
/// 3. **Cold restart** — discard the (possibly poisoned) basis entirely
///    and re-solve from the slack identity under the *original*
///    tolerances with a `4x` iteration budget
///    ([`PivotCounts::distress_cold_restarts`]).
///
/// The returned solution aggregates iterations and [`PivotCounts`] across
/// every attempt, preserving the `pivots.total() == iterations` contract.
/// The ladder is a pure function of its arguments (`factors` seeds rung 0
/// only, exactly as in the plain entry point, and every later rung starts
/// from `None`; it is left holding the last rung's factorisation), so
/// callers that require a replayed solve to be bit-identical to the
/// original — the branch & bound, whose resumed searches must reproduce
/// the uninterrupted tree — can adopt it without weakening that invariant.
pub fn solve_with_bounds_recovering_ws(
    problem: &Problem,
    col_lb: &[f64],
    col_ub: &[f64],
    basis_hint: Option<&BasisState>,
    opts: &SimplexOptions,
    ws: &mut LpWorkspace,
    factors: &mut Option<FactorState>,
) -> LpSolution {
    let mut sol = solve_with_bounds_from_ws(problem, col_lb, col_ub, basis_hint, opts, ws, factors);
    if sol.status != LpStatus::IterationLimit {
        return sol;
    }
    let mut iterations = sol.iterations;
    let mut pivots = sol.pivots;

    // Rung 1: fresh factorisation, warm from the failed solve's last basis.
    *factors = None;
    let basis = sol.basis.clone();
    let mut retry =
        solve_with_bounds_from_ws(problem, col_lb, col_ub, basis.as_ref(), opts, ws, factors);
    iterations += retry.iterations;
    pivots.merge(&retry.pivots);
    pivots.distress_refactors += 1;

    if retry.status == LpStatus::IterationLimit {
        // Rung 2: escalated tolerances, warm from the latest basis.
        *factors = None;
        let escalated = SimplexOptions {
            tol_pivot: opts.tol_pivot * 1e2,
            tol_feas: opts.tol_feas * 10.0,
            tol_dual: opts.tol_dual * 10.0,
            stall_limit: opts.stall_limit.saturating_mul(4),
            ..opts.clone()
        };
        let basis = retry.basis.clone().or(basis);
        retry = solve_with_bounds_from_ws(
            problem,
            col_lb,
            col_ub,
            basis.as_ref(),
            &escalated,
            ws,
            factors,
        );
        iterations += retry.iterations;
        pivots.merge(&retry.pivots);
        pivots.distress_escalations += 1;
    }

    if retry.status == LpStatus::IterationLimit {
        // Rung 3: cold restart from the slack basis, original tolerances,
        // 4x iteration budget.
        *factors = None;
        let base_iters = if opts.max_iters == 0 {
            40 * (problem.ncols() + problem.nrows()) + 2000
        } else {
            opts.max_iters
        };
        let cold = SimplexOptions {
            max_iters: base_iters.saturating_mul(4),
            ..opts.clone()
        };
        retry = solve_with_bounds_from_ws(problem, col_lb, col_ub, None, &cold, ws, factors);
        iterations += retry.iterations;
        pivots.merge(&retry.pivots);
        pivots.distress_cold_restarts += 1;
    }

    sol = retry;
    sol.iterations = iterations;
    sol.pivots = pivots;
    sol
}

pub(crate) struct Solver<'a> {
    pub(crate) p: &'a Problem,
    pub(crate) opts: &'a SimplexOptions,
    /// Working objective (possibly perturbed); trimmed back to the true
    /// costs before final convergence.
    pub(crate) work_obj: Vec<f64>,
    pub(crate) perturbed: bool,
    pub(crate) n: usize,
    pub(crate) m: usize,
    /// Effective bounds over all `n + m` variables (structural then slack).
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) status: Vec<VarStatus>,
    /// Current value of every variable.
    pub(crate) x: Vec<f64>,
    pub(crate) basis: Basis<'a>,
    /// Duals of the active basis/phase (row-indexed after BTRAN); built
    /// sparsely from the basic cost pattern.
    pub(crate) y: IndexedVec,
    /// FTRAN image of the entering column (basis-position indexed, pattern
    /// tracked — the hyper-sparse hot path).
    pub(crate) w: IndexedVec,
    pub(crate) rhs: Vec<f64>,
    /// Columns excluded from pricing this round (failed pivots), listed in
    /// `banned_list` so lifting the bans costs what was banned.
    pub(crate) banned: Vec<bool>,
    pub(crate) banned_list: Vec<usize>,
    pub(crate) iterations: usize,
    /// Per-phase iteration counters (phase-I / primal / dual).
    pub(crate) pivots: PivotCounts,
    /// Effective partial-pricing window (`n + m` disables partial pricing).
    pub(crate) window: usize,
    /// Rotating scan position for partial pricing.
    pub(crate) price_cursor: usize,
    /// Short-list of recently attractive columns, re-priced before any
    /// window scan. Stays valid across bound flips (duals unchanged).
    pub(crate) candidates: Vec<usize>,
    /// Whether `self.y` currently holds the duals of the active basis and
    /// phase (bound flips leave phase-2 duals intact).
    pub(crate) duals_valid: bool,
    /// Devex reference weights per global column, shared by primal pricing
    /// (score `d^2 / weight`) and seeded from 1.0 at (re)entry into a
    /// reference framework. The dual loop keeps its own row-indexed set.
    pub(crate) devex: Vec<f64>,
    /// Whether this solve started from a caller-provided basis hint (the
    /// precondition for attempting a dual-simplex entry).
    pub(crate) hinted: bool,
    /// Pivots applied since the last refactorisation (shared between the
    /// primal and dual loops so the refactor cadence is global).
    pub(crate) pivots_since_refactor: usize,
    /// Effective pivot cap between refactorisations (mode-dependent; see
    /// [`SimplexOptions::basis_update`]).
    pub(crate) refactor_every: usize,
    /// Pivot-row workspaces shared by the full primal devex update and the
    /// dual loop: BTRAN image of the leaving row (`rho`, row-indexed,
    /// pattern tracked), its scatter over all `n + m` columns (`alpha`),
    /// and the columns the scatter touched.
    pub(crate) rho: IndexedVec,
    pub(crate) alpha: Vec<f64>,
    pub(crate) alpha_touched: Vec<usize>,
    /// Per-channel result-density estimates driving the sparse/dense
    /// kernel dispatch (entering-column FTRANs, pivot-row BTRANs, dual
    /// BTRANs and flip-batch FTRANs have very different profiles).
    pub(crate) ewma_w: f64,
    pub(crate) ewma_rho: f64,
    pub(crate) ewma_duals: f64,
    pub(crate) ewma_flip: f64,
    /// Dual-loop scratch hoisted from per-entry allocations (see
    /// [`LpWorkspace`]).
    pub(crate) dual_d: Vec<f64>,
    pub(crate) dual_tau: Vec<f64>,
    pub(crate) dual_flip_rhs: IndexedVec,
    pub(crate) dual_cands: Vec<(usize, f64, f64)>,
    pub(crate) dual_viol: Vec<usize>,
    pub(crate) dual_in_viol: Vec<bool>,
    /// Basis positions whose basic value lies strictly outside its bounds
    /// (`x < lb || x > ub`; a NaN is not). Re-judged at every position a
    /// step moves and at every pivot position, rebuilt whenever every
    /// basic value is recomputed. The primal loop's infeasibility extents
    /// and the phase-I duals walk it instead of all `m` positions: a
    /// position outside it contributes exactly nothing to either.
    pub(crate) violated: PosSet,
    /// Basis positions whose basic variable is a structural with a nonzero
    /// working cost. Re-judged at every pivot position, rebuilt when the
    /// basis is (re)built or repaired and when the perturbation is
    /// stripped. The phase-II duals walk it: it is exactly the support of
    /// the basic-cost vector.
    pub(crate) costed: PosSet,
    /// Columns pricing can pick: nonbasic and not bound-fixed (`lb != ub`).
    /// Updated at every basis change, rebuilt with the statuses. Pricing
    /// and the dual loop's reduced-cost passes walk it instead of all
    /// `n + m` columns; a column outside it never prices as attractive.
    pub(crate) priceable: PosSet,
    /// Scratch membership flags over all `n + m` variables, `false`
    /// between uses (each use resets what it set), so a solve allocates
    /// and clears nothing for them.
    pub(crate) marks: Vec<bool>,
}

/// Whether `v` lies strictly outside `[lb, ub]` — the membership test of
/// [`Solver::violated`].
#[inline]
pub(crate) fn outside(v: f64, lb: f64, ub: f64) -> bool {
    v < lb || v > ub
}

/// Outcome of one pricing step.
enum Pricing {
    Optimal,
    Enter { j: usize, dir: f64 },
}

/// Outcome of one ratio test.
enum Ratio {
    Unbounded,
    BoundFlip {
        t: f64,
    },
    Pivot {
        t: f64,
        pos: usize,
        to_upper: bool,
    },
    /// All candidate pivots were numerically unusable.
    Stuck,
}

impl<'a> Solver<'a> {
    fn new(
        p: &'a Problem,
        col_lb: &[f64],
        col_ub: &[f64],
        hint: Option<&BasisState>,
        opts: &'a SimplexOptions,
        ws: &mut LpWorkspace,
        seed: Option<FactorState>,
    ) -> Self {
        let n = p.ncols();
        let m = p.nrows();
        assert_eq!(col_lb.len(), n);
        assert_eq!(col_ub.len(), n);
        debug_assert!(
            opts.tol_feas >= 0.0 || opts.tol_feas.is_nan(),
            "tol_feas must not be negative"
        );
        let (row_lb, row_ub) = p.row_bounds();
        let mut lb = std::mem::take(&mut ws.lb);
        let mut ub = std::mem::take(&mut ws.ub);
        lb.clear();
        ub.clear();
        lb.extend_from_slice(col_lb);
        ub.extend_from_slice(col_ub);
        lb.extend_from_slice(row_lb);
        ub.extend_from_slice(row_ub);

        // Nonbasic structural variables start at the finite bound closest to
        // zero; free variables park at zero. Slacks form the initial basis —
        // unless a basis hint overrides both.
        let mut status = std::mem::take(&mut ws.status);
        let mut x = std::mem::take(&mut ws.x);
        status.clear();
        x.clear();
        let mut marks = std::mem::take(&mut ws.marks);
        if marks.len() < n + m {
            marks.resize(n + m, false);
        }
        let (basic, seated) = match hint {
            Some(h) => adapt_hint(h, n, m, &lb, &ub, &mut status, &mut x, &mut marks),
            None => {
                for j in 0..n {
                    let (s, v) = initial_nonbasic(lb[j], ub[j]);
                    status.push(s);
                    x.push(v);
                }
                status.resize(n + m, VarStatus::Basic);
                x.resize(n + m, 0.0);
                ((n..n + m).collect(), true)
            }
        };
        let miss_cause = if seed.is_some() {
            RefactorCause::BasisChanged
        } else {
            RefactorCause::NoCachedFactors
        };
        let (basis, factor_hit) = Basis::build(
            p.matrix(),
            basic,
            opts.basis_update,
            opts.ft_fill_limit,
            seed,
            std::mem::take(&mut ws.basis_scratch),
        );
        // Deterministic multiplicative cost perturbation: breaks the massive
        // dual degeneracy of big-M models without changing the optimal basis
        // meaningfully; removed before termination.
        let mut work_obj = std::mem::take(&mut ws.work_obj);
        work_obj.clear();
        work_obj.extend_from_slice(p.objective());
        let mut perturbed = false;
        if opts.perturb > 0.0 {
            let mut seed = 0x9E3779B97F4A7C15u64;
            for (j, c) in work_obj.iter_mut().enumerate() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed = seed.wrapping_add(j as u64);
                let u = (seed >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                *c += opts.perturb * (0.5 + u) * (1.0 + c.abs());
                perturbed = true;
            }
        }
        let mut y = std::mem::take(&mut ws.y);
        y.reset(m);
        let mut w = std::mem::take(&mut ws.w);
        w.reset(m);
        let mut rho = std::mem::take(&mut ws.rho);
        rho.reset(m);
        // Every entry is written by `recompute_basics` before it is read.
        let mut rhs = std::mem::take(&mut ws.rhs);
        rhs.resize(m, 0.0);
        // `banned` and `alpha` come back clean except where their lists
        // say, so sizing them writes only what grew.
        let mut banned = std::mem::take(&mut ws.banned);
        let mut banned_list = std::mem::take(&mut ws.banned_list);
        for &j in &banned_list {
            if let Some(b) = banned.get_mut(j) {
                *b = false;
            }
        }
        banned_list.clear();
        banned.resize(n + m, false);
        let mut devex = std::mem::take(&mut ws.devex);
        devex.clear();
        devex.resize(n + m, 1.0);
        let mut alpha = std::mem::take(&mut ws.alpha);
        let mut alpha_touched = std::mem::take(&mut ws.alpha_touched);
        for &c in &alpha_touched {
            if let Some(a) = alpha.get_mut(c) {
                *a = 0.0;
            }
        }
        alpha_touched.clear();
        alpha.resize(n + m, 0.0);
        let mut candidates = std::mem::take(&mut ws.candidates);
        candidates.clear();
        // The pivot cap between refactorisations: Forrest–Tomlin keys on
        // fill growth, so the cap is relaxed to a drift bound.
        let refactor_every = match opts.basis_update {
            BasisUpdate::ProductForm => opts.refactor_interval,
            BasisUpdate::ForrestTomlin => opts.refactor_interval.saturating_mul(2),
        };
        let carried_updates = basis.updates_since_refactor();
        let mut s = Solver {
            p,
            opts,
            work_obj,
            perturbed,
            n,
            m,
            lb,
            ub,
            status,
            x,
            basis,
            y,
            w,
            rhs,
            banned,
            banned_list,
            iterations: 0,
            pivots: PivotCounts::default(),
            window: effective_window(n + m),
            price_cursor: 0,
            candidates,
            duals_valid: false,
            devex,
            hinted: hint.is_some(),
            pivots_since_refactor: carried_updates,
            refactor_every,
            rho,
            alpha,
            alpha_touched,
            ewma_w: 0.0,
            ewma_rho: 0.0,
            ewma_duals: 0.0,
            ewma_flip: 0.0,
            dual_d: std::mem::take(&mut ws.dual_d),
            dual_tau: std::mem::take(&mut ws.dual_tau),
            dual_flip_rhs: std::mem::take(&mut ws.dual_flip_rhs),
            dual_cands: std::mem::take(&mut ws.dual_cands),
            dual_viol: std::mem::take(&mut ws.dual_viol),
            dual_in_viol: std::mem::take(&mut ws.dual_in_viol),
            violated: std::mem::take(&mut ws.violated),
            costed: std::mem::take(&mut ws.costed),
            priceable: std::mem::take(&mut ws.priceable),
            marks,
        };
        s.pivots.factor_reattaches = factor_hit as usize;
        if !factor_hit {
            s.pivots.note_refactor(miss_cause);
        }
        // A hinted basis may have been repaired during factorisation
        // (slack substitution for singular/dropped columns), and a hint may
        // claim more basics than it seats; reconcile the statuses with what
        // the basis actually holds — unless neither can have happened.
        if hint.is_some() && !(factor_hit && seated) {
            s.reconcile_statuses();
        }
        debug_assert!(s.statuses_match_basis());
        s.rebuild_priceable();
        s.recompute_basics();
        s.rebuild_costed();
        debug_assert!(s.sets_match_scan());
        s
    }

    /// Snapshots the current basis for reuse by a later solve.
    fn capture_basis(&self) -> BasisState {
        BasisState {
            ncols: self.n,
            nrows: self.m,
            basic: self.basis.basic_columns().to_vec(),
            status: self
                .status
                .iter()
                .map(|s| match s {
                    VarStatus::Basic => VarBasisStatus::Basic,
                    VarStatus::AtLower => VarBasisStatus::AtLower,
                    VarStatus::AtUpper => VarBasisStatus::AtUpper,
                    VarStatus::FreeNb => VarBasisStatus::Free,
                })
                .collect(),
        }
    }

    /// Rewrites `self.status`/`self.x` to agree with the basis content:
    /// every variable the basis holds becomes `Basic`; variables the basis
    /// dropped (factorisation repair) are parked at their nearest bound.
    fn reconcile_statuses(&mut self) {
        let Solver {
            basis,
            marks,
            status,
            x,
            lb,
            ub,
            ..
        } = self;
        let basic = basis.basic_columns();
        for &j in basic {
            marks[j] = true;
        }
        for j in 0..status.len() {
            match (marks[j], status[j]) {
                (true, _) => status[j] = VarStatus::Basic,
                (false, VarStatus::Basic) => {
                    let (s, v) = nearest_bound(x[j], lb[j], ub[j]);
                    status[j] = s;
                    x[j] = v;
                }
                _ => {}
            }
        }
        for &j in basic {
            marks[j] = false;
        }
    }

    /// Whether every variable the basis holds has status `Basic` and no
    /// other does — what [`Self::reconcile_statuses`] establishes, and what
    /// every pivot keeps (checked in debug builds).
    fn statuses_match_basis(&self) -> bool {
        let mut seated = vec![false; self.n + self.m];
        for &j in self.basis.basic_columns() {
            seated[j] = true;
        }
        (0..self.n + self.m).all(|j| seated[j] == (self.status[j] == VarStatus::Basic))
    }

    /// Whether column `j` is in [`Self::priceable`]: nonbasic and not
    /// bound-fixed.
    #[inline]
    pub(crate) fn is_priceable(&self, j: usize) -> bool {
        self.status[j] != VarStatus::Basic && !self.is_fixed(j)
    }

    /// Whether column `j` is bound-fixed: no travel range.
    #[inline]
    #[expect(clippy::float_cmp, reason = "both bounds hold the same value")]
    fn is_fixed(&self, j: usize) -> bool {
        self.lb[j] == self.ub[j]
    }

    /// Brings the maintained sets up to date after a pivot put `entering`
    /// at basis position `pos` and made `leaving` nonbasic.
    pub(crate) fn note_pivot(&mut self, pos: usize, entering: usize, leaving: usize) {
        self.violated.assign(pos, self.is_violated(pos));
        self.costed.assign(pos, self.is_costed(pos));
        self.priceable.assign(entering, false);
        self.priceable.assign(leaving, self.is_priceable(leaving));
        debug_assert!(self.sets_match_scan());
    }

    /// Rebuilds [`Self::priceable`] from the statuses and bounds.
    fn rebuild_priceable(&mut self) {
        let mut set = std::mem::take(&mut self.priceable);
        set.rebuild(self.n + self.m, |j| self.is_priceable(j));
        self.priceable = set;
    }

    /// Whether basis position `pos` belongs in [`Self::violated`].
    #[inline]
    fn is_violated(&self, pos: usize) -> bool {
        let j = self.basis.basic_at(pos);
        outside(self.x[j], self.lb[j], self.ub[j])
    }

    /// Whether basis position `pos` belongs in [`Self::costed`].
    #[inline]
    fn is_costed(&self, pos: usize) -> bool {
        let j = self.basis.basic_at(pos);
        j < self.n && self.work_obj[j] != 0.0
    }

    /// Rebuilds [`Self::costed`] from the basis and the working costs.
    fn rebuild_costed(&mut self) {
        let mut set = std::mem::take(&mut self.costed);
        set.rebuild(self.m, |pos| self.is_costed(pos));
        self.costed = set;
    }

    /// Whether the maintained sets equal a full scan, bit for bit
    /// (checked after every update in debug builds).
    pub(crate) fn sets_match_scan(&self) -> bool {
        let mut scan = PosSet::default();
        scan.rebuild(self.m, |pos| self.is_violated(pos));
        let mut same = scan == self.violated;
        scan.rebuild(self.m, |pos| self.is_costed(pos));
        same &= scan == self.costed;
        scan.rebuild(self.n + self.m, |j| self.is_priceable(j));
        same && scan == self.priceable
    }

    /// Recomputes basic variable values from the nonbasic point:
    /// `B x_B = -N x_N`, and rebuilds [`Self::violated`] from them.
    fn recompute_basics(&mut self) {
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        for j in 0..self.n + self.m {
            if self.status[j] != VarStatus::Basic && self.x[j] != 0.0 {
                // rhs -= x_j * col_j
                let xv = self.x[j];
                if j < self.n {
                    for (r, v) in self.p.matrix().col_iter(j) {
                        self.rhs[r] -= v * xv;
                    }
                } else {
                    self.rhs[j - self.n] += xv;
                }
            }
        }
        self.basis.ftran(&mut self.rhs);
        let mut set = std::mem::take(&mut self.violated);
        set.rebuild(self.m, |pos| {
            let j = self.basis.basic_at(pos);
            self.x[j] = self.rhs[pos];
            outside(self.rhs[pos], self.lb[j], self.ub[j])
        });
        self.violated = set;
    }

    /// Total and largest single bound violation over basic variables, in
    /// one scan. The *max* — not the total — is the phase-I trigger: the
    /// solve's feasibility contract is per-variable (`tol_feas` each,
    /// matching [`Problem::is_feasible`] and the phase-I pricing
    /// gradient), and the Harris ratio test deliberately admits
    /// per-variable violations up to the tolerance whose sum may exceed
    /// it while every phase-I gradient entry is zero. The total drives
    /// stall detection. Walks [`Self::violated`]: the violating positions
    /// in ascending order, the terms and order of a scan over all `m`.
    pub(crate) fn infeasibility_extents(&self) -> (f64, f64) {
        let mut total = 0.0;
        let mut worst = 0.0f64;
        for pos in self.violated.iter() {
            let j = self.basis.basic_at(pos);
            let v = self.x[j];
            let viol = if v < self.lb[j] {
                self.lb[j] - v
            } else {
                v - self.ub[j]
            };
            total += viol;
            worst = worst.max(viol);
        }
        (total, worst)
    }

    /// Largest single bound violation (see [`Self::infeasibility_extents`]).
    pub(crate) fn max_bound_violation(&self) -> f64 {
        self.infeasibility_extents().1
    }

    fn objective_now(&self) -> f64 {
        self.work_obj.iter().zip(&self.x).map(|(c, v)| c * v).sum()
    }

    /// Cost of global variable `j` under the active phase.
    #[inline]
    fn phase_cost(&self, j: usize, phase1: bool) -> f64 {
        if phase1 {
            0.0 // nonbasic variables are always within bounds
        } else if j < self.n {
            self.work_obj[j]
        } else {
            0.0
        }
    }

    /// Reduced cost of nonbasic `j`: `c_j - y' a_j`.
    #[inline]
    pub(crate) fn reduced_cost(&self, j: usize, phase1: bool) -> f64 {
        let cy = if j < self.n {
            self.p.matrix().dot_col(j, self.y.as_slice())
        } else {
            -self.y[j - self.n]
        };
        self.phase_cost(j, phase1) - cy
    }

    /// Computes duals for the active phase into `self.y`. The basic-cost
    /// vector is assembled with its pattern tracked — phase-I costs near
    /// feasibility and warm phase-II costs over slack-heavy bases are
    /// sparse, which lets the BTRAN take the hyper-sparse kernels. Its
    /// support is read off the maintained sets — phase-I costs are nonzero
    /// only on [`Self::violated`] (the tolerance is not negative), phase-II
    /// costs exactly on [`Self::costed`] — walked in ascending order, so
    /// the pattern is the one a scan over all `m` positions builds.
    pub(crate) fn compute_duals(&mut self, phase1: bool) {
        let mut y = std::mem::take(&mut self.y);
        y.clear();
        if phase1 {
            let tol = self.opts.tol_feas;
            for pos in self.violated.iter() {
                let j = self.basis.basic_at(pos);
                let v = self.x[j];
                if v < self.lb[j] - tol {
                    y.set(pos, -1.0);
                } else if v > self.ub[j] + tol {
                    y.set(pos, 1.0);
                }
            }
        } else {
            for pos in self.costed.iter() {
                y.set(pos, self.work_obj[self.basis.basic_at(pos)]);
            }
        }
        self.basis.btran_sp(&mut y, &mut self.ewma_duals);
        self.y = y;
    }

    /// Prices one nonbasic column: `Some((dir, score))` when attractive.
    #[inline]
    fn price_one(&self, j: usize, phase1: bool) -> Option<(f64, f64)> {
        if self.banned[j] {
            return None;
        }
        // Fixed columns (lb == ub) have zero travel range: entering them
        // can only produce a degenerate bound flip. Models with many
        // bound-fixed variables (the planner's reduction fixing) would
        // otherwise waste most pricing work on them.
        if self.is_fixed(j) {
            return None;
        }
        let tol = self.opts.tol_dual;
        // Devex reference-weight score: d^2 / w_j approximates the improvement
        // per unit step in the reference framework, demoting columns whose
        // basis image has grown large (the classic degenerate-model failure
        // of pure Dantzig pricing).
        let score = |d: f64| d * d / self.devex[j];
        match self.status[j] {
            VarStatus::Basic => None,
            VarStatus::AtLower => {
                let d = self.reduced_cost(j, phase1);
                (d < -tol).then_some((1.0, score(d)))
            }
            VarStatus::AtUpper => {
                let d = self.reduced_cost(j, phase1);
                (d > tol).then_some((-1.0, score(d)))
            }
            VarStatus::FreeNb => {
                let d = self.reduced_cost(j, phase1);
                if d < -tol {
                    Some((1.0, score(d)))
                } else if d > tol {
                    Some((-1.0, score(d)))
                } else {
                    None
                }
            }
        }
    }

    /// Pricing over nonbasic variables.
    ///
    /// - Bland mode: full scan, first attractive column by index
    ///   (anti-cycling requires it).
    /// - Full (window >= n + m): best devex score over all columns.
    /// - Partial: re-price the candidate short-list first (still valid
    ///   after bound flips — the duals are unchanged), then scan a
    ///   rotating window; only an empty full rotation proves optimality.
    ///
    /// Every scan visits only [`Self::priceable`] — basic and bound-fixed
    /// columns never price as attractive — in the order a scan of all
    /// columns meets them; the window's cursor and count still advance
    /// over every column, so it closes where it always did.
    fn price(&mut self, phase1: bool, bland: bool) -> Pricing {
        let total = self.n + self.m;
        if bland {
            for j in self.priceable.iter() {
                if let Some((dir, _)) = self.price_one(j, phase1) {
                    return Pricing::Enter { j, dir };
                }
            }
            return Pricing::Optimal;
        }

        let mut best: Option<(usize, f64, f64)> = None; // (j, dir, score)
        if self.window >= total {
            for j in self.priceable.iter() {
                if let Some((dir, score)) = self.price_one(j, phase1) {
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((j, dir, score));
                    }
                }
            }
            return match best {
                Some((j, dir, _)) => Pricing::Enter { j, dir },
                None => Pricing::Optimal,
            };
        }

        // Candidate short-list: re-price, drop stale entries, keep the best.
        let mut kept = 0;
        for k in 0..self.candidates.len() {
            let j = self.candidates[k];
            if let Some((dir, score)) = self.price_one(j, phase1) {
                self.candidates[kept] = j;
                kept += 1;
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((j, dir, score));
                }
            }
        }
        self.candidates.truncate(kept);
        if let Some((j, dir, _)) = best {
            return Pricing::Enter { j, dir };
        }

        // Rotating window scan; a full empty rotation proves optimality.
        let mut scanned = 0usize;
        while scanned < total {
            // The columns up to the next priceable one cannot price; the
            // scan passes them unless the window closes or the rotation
            // completes among them.
            let gap = self
                .priceable
                .next_from(self.price_cursor)
                .or_else(|| self.priceable.next_from(0))
                .map_or(total, |j| (j + total - self.price_cursor) % total);
            let room = if best.is_some() {
                self.window.saturating_sub(scanned)
            } else {
                total - scanned
            };
            if gap >= room {
                self.price_cursor = (self.price_cursor + room) % total;
                break;
            }
            self.price_cursor = (self.price_cursor + gap) % total;
            scanned += gap;
            let j = self.price_cursor;
            self.price_cursor = (self.price_cursor + 1) % total;
            scanned += 1;
            if let Some((dir, score)) = self.price_one(j, phase1) {
                if self.candidates.len() < MAX_CANDIDATES {
                    self.candidates.push(j);
                }
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((j, dir, score));
                }
            }
            if best.is_some() && scanned >= self.window {
                break;
            }
        }
        match best {
            Some((j, dir, _)) => Pricing::Enter { j, dir },
            None => Pricing::Optimal,
        }
    }

    /// Step limit that basic position `pos` imposes on an entering move in
    /// direction `dir` (the basic moves at rate `-dir * w[pos]`), or `None`
    /// when it imposes none — pivot below tolerance, unbounded side, or a
    /// phase-I pass-through (a basic already infeasible in the travel
    /// direction, whose worsening the phase-I gradient has priced in).
    /// Returns `(limit, at_upper)`: the nonnegative blocking ratio and the
    /// bound the basic would leave at.
    #[inline]
    fn ratio_limit(&self, pos: usize, dir: f64, phase1: bool) -> Option<(f64, bool)> {
        let wv = self.w[pos];
        if wv.abs() <= self.opts.tol_pivot {
            return None;
        }
        let tol = self.opts.tol_feas;
        let bj = self.basis.basic_at(pos);
        let xv = self.x[bj];
        let delta = dir * wv;
        let (dist, at_upper) = if delta > 0.0 {
            // Basic decreases.
            if phase1 && xv < self.lb[bj] - tol {
                return None;
            } else if phase1 && xv > self.ub[bj] + tol {
                // Infeasible above and improving: stop where it becomes
                // feasible at the upper bound.
                if self.ub[bj].is_finite() {
                    (xv - self.ub[bj], true)
                } else {
                    return None;
                }
            } else if self.lb[bj].is_finite() {
                ((xv - self.lb[bj]).max(0.0), false)
            } else {
                return None;
            }
        } else {
            // Basic increases.
            if phase1 && xv > self.ub[bj] + tol {
                return None;
            } else if phase1 && xv < self.lb[bj] - tol {
                if self.lb[bj].is_finite() {
                    (self.lb[bj] - xv, false)
                } else {
                    return None;
                }
            } else if self.ub[bj].is_finite() {
                (((self.ub[bj] - xv).max(0.0)), true)
            } else {
                return None;
            }
        };
        Some((dist / delta.abs(), at_upper))
    }

    /// Bounded-variable ratio test, phase-aware.
    ///
    /// Moving the entering variable by `t` in direction `dir` changes basic
    /// `pos` by `-t * dir * w[pos]`. Runs the Harris two-pass test, except
    /// that Bland mode runs the classic single pass (the anti-cycling
    /// argument needs the deterministic smallest-ratio choice).
    fn ratio_test(&mut self, j: usize, dir: f64, phase1: bool, bland: bool) -> Ratio {
        if bland {
            self.ratio_test_classic(j, dir, phase1)
        } else {
            self.ratio_test_harris(j, dir, phase1)
        }
    }

    /// Textbook single-pass test under Bland's rule: smallest ratio wins,
    /// ties by smallest variable index. Only positions in the entering
    /// column's FTRAN support can block (zero pivots never pass
    /// [`Self::ratio_limit`]), so a sparse `w` scans its pattern instead of
    /// all `m` rows.
    fn ratio_test_classic(&self, j: usize, dir: f64, phase1: bool) -> Ratio {
        if self.w.is_sparse() {
            self.ratio_test_classic_at(self.w.indices().iter().copied(), j, dir, phase1)
        } else {
            self.ratio_test_classic_at(0..self.m, j, dir, phase1)
        }
    }

    fn ratio_test_classic_at(
        &self,
        positions: impl Iterator<Item = usize>,
        j: usize,
        dir: f64,
        phase1: bool,
    ) -> Ratio {
        // Entering variable's own travel range (bound flip distance).
        let own_range = self.ub[j] - self.lb[j];
        let mut t_best = own_range; // may be +inf
        let mut blocking: Option<(usize, bool)> = None; // (pos, leaves_at_upper)

        for pos in positions {
            let Some((limit, at_upper)) = self.ratio_limit(pos, dir, phase1) else {
                continue;
            };
            let better = limit < t_best - 1e-12
                || (limit <= t_best + 1e-12
                    && blocking.map_or(own_range.is_finite(), |(bp, _)| {
                        self.basis.basic_at(pos) < self.basis.basic_at(bp)
                    })
                    && limit <= t_best);
            if better {
                t_best = limit;
                blocking = Some((pos, at_upper));
            }
        }

        match blocking {
            None => {
                if t_best.is_finite() {
                    Ratio::BoundFlip { t: t_best }
                } else {
                    Ratio::Unbounded
                }
            }
            Some((pos, to_upper)) => {
                if self.w[pos].abs() <= self.opts.tol_pivot * 10.0 && t_best > 0.0 {
                    // Pivot too small to trust for a real step.
                    Ratio::Stuck
                } else {
                    Ratio::Pivot {
                        t: t_best.max(0.0),
                        pos,
                        to_upper,
                    }
                }
            }
        }
    }

    /// Harris two-pass test. Pass one finds the largest step `t_rel`
    /// allowed when every blocking bound is relaxed by `tol_feas`; pass two
    /// picks the blocker with the **largest pivot magnitude** among those
    /// whose strict ratio is within `t_rel`. The chosen step is that
    /// blocker's strict ratio, so any other blocker is overrun by at most
    /// the tolerance — massively degenerate vertices (the planner's
    /// assignment models) stop forcing zero-step pivots on whatever tiny
    /// pivot happens to sort first.
    fn ratio_test_harris(&mut self, j: usize, dir: f64, phase1: bool) -> Ratio {
        // Both passes scan only the entering column's FTRAN support when
        // it is tracked (see `ratio_test_classic`).
        let (ratio, saved) = if self.w.is_sparse() {
            let it = self.w.indices().iter().copied();
            self.ratio_test_harris_at(it, j, dir, phase1)
        } else {
            self.ratio_test_harris_at(0..self.m, j, dir, phase1)
        };
        if saved {
            self.pivots.harris_degenerate_saved += 1;
        }
        ratio
    }

    fn ratio_test_harris_at(
        &self,
        positions: impl Iterator<Item = usize> + Clone,
        j: usize,
        dir: f64,
        phase1: bool,
    ) -> (Ratio, bool) {
        let own_range = self.ub[j] - self.lb[j]; // may be +inf
                                                 // The relaxation is a small *fraction* of the feasibility
                                                 // tolerance: the admitted per-variable violation gets multiplied
                                                 // by λ1-scale objective coefficients in the planner's models, and
                                                 // downstream branch & bound prunes on bound-vs-incumbent ties —
                                                 // relaxing by the full tolerance would turn tie-pruning noise into
                                                 // hundreds of extra nodes. Exact degenerate ties (the dominant
                                                 // case on integer data) are already captured at any positive
                                                 // relaxation.
        let tol = self.opts.tol_feas * HARRIS_RELAX_FRAC;

        // Pass 1: relaxed maximum step.
        let mut t_rel = f64::INFINITY;
        for pos in positions.clone() {
            if let Some((limit, _)) = self.ratio_limit(pos, dir, phase1) {
                let relaxed = limit + tol / (dir * self.w[pos]).abs();
                t_rel = t_rel.min(relaxed);
            }
        }
        if own_range <= t_rel {
            // The entering variable's opposite bound is the cheapest
            // blocker: a bound flip, no basis change.
            return if own_range.is_finite() {
                (Ratio::BoundFlip { t: own_range }, false)
            } else {
                (Ratio::Unbounded, false)
            };
        }

        // Pass 2: largest pivot among blockers within the relaxed step.
        let mut best: Option<(usize, f64, bool)> = None; // (pos, strict, at_upper)
        let mut t_min_strict = f64::INFINITY;
        for pos in positions {
            if let Some((limit, at_upper)) = self.ratio_limit(pos, dir, phase1) {
                t_min_strict = t_min_strict.min(limit);
                if limit <= t_rel
                    && best.is_none_or(|(bp, _, _)| self.w[pos].abs() > self.w[bp].abs())
                {
                    best = Some((pos, limit, at_upper));
                }
            }
        }
        let Some((pos, strict, to_upper)) = best else {
            // t_rel < own_range implies at least one finite limit exists.
            return (Ratio::Stuck, false);
        };
        if self.w[pos].abs() <= self.opts.tol_pivot * 10.0 && strict > 0.0 {
            return (Ratio::Stuck, false);
        }
        let t = strict.max(0.0);
        let saved = t > 1e-12 && t_min_strict <= 1e-12;
        (Ratio::Pivot { t, pos, to_upper }, saved)
    }

    fn run(mut self, ws: &mut LpWorkspace, factors: &mut Option<FactorState>) -> LpSolution {
        let max_iters = if self.opts.max_iters == 0 {
            40 * (self.n + self.m) + 2000
        } else {
            self.opts.max_iters
        };

        // Warm-start entry choice: a hinted basis that is primal infeasible
        // but still dual feasible (the bound-change re-solve signature of
        // B&B children and the planner's reduction re-fixing) is walked
        // back to feasibility by the dual simplex — no phase-I needed. On
        // stall or numerical trouble the dual loop bails out and the
        // composite phase-I below takes over unchanged.
        if self.hinted {
            if let Some(early) = self.try_dual_entry(max_iters) {
                return self.finish(early, ws, factors);
            }
        }

        let mut stall = 0usize;
        let mut bland = false;
        let mut last_infeas = f64::INFINITY;
        let mut last_obj = f64::INFINITY;

        let status = loop {
            if self.iterations >= max_iters {
                break LpStatus::IterationLimit;
            }
            self.iterations += 1;

            let (infeas, worst_viol) = self.infeasibility_extents();
            let phase1 = worst_viol > self.opts.tol_feas;
            if phase1 {
                self.pivots.phase1 += 1;
            } else {
                self.pivots.primal += 1;
            }

            // Stall detection for anti-cycling.
            let progress = if phase1 {
                infeas < last_infeas - 1e-10
            } else {
                let obj = self.objective_now();
                let p = obj < last_obj - 1e-10;
                last_obj = obj;
                p
            };
            if phase1 {
                last_infeas = infeas;
            }
            if progress {
                stall = 0;
                bland = false;
                self.lift_bans();
            } else {
                stall += 1;
                if stall > self.opts.stall_limit {
                    bland = true;
                }
            }

            // Phase-1 duals depend on the basic point (violation signs), so
            // only phase-2 duals survive a bound flip.
            if !self.duals_valid || phase1 {
                self.compute_duals(phase1);
            }
            self.duals_valid = !phase1;
            let (j, dir) = match self.price(phase1, bland) {
                Pricing::Optimal => {
                    if phase1 {
                        break LpStatus::Infeasible;
                    }
                    if self.perturbed {
                        // Optimal for the perturbed costs: strip the
                        // perturbation and keep iterating on the true
                        // objective (usually a handful of pivots).
                        self.perturbed = false;
                        self.work_obj.copy_from_slice(self.p.objective());
                        self.rebuild_costed();
                        last_obj = f64::INFINITY;
                        self.duals_valid = false;
                        continue;
                    }
                    break LpStatus::Optimal;
                }
                Pricing::Enter { j, dir } => (j, dir),
            };

            // FTRAN the entering column (hyper-sparse: the column's few
            // entries seed the solve, only their reach is visited). The
            // pattern is sorted so the ratio tests' tie-breaking scans it
            // in the same ascending order a dense sweep would use.
            self.w.clear();
            self.basis.scatter_column_sp(j, &mut self.w);
            let mut ewma_w = self.ewma_w;
            self.basis.ftran_sp(&mut self.w, &mut ewma_w);
            self.ewma_w = ewma_w;
            self.w.sort_pattern();

            match self.ratio_test(j, dir, phase1, bland) {
                Ratio::Unbounded => {
                    if phase1 {
                        // Cannot happen for a consistent model: infeasibility
                        // is bounded below. Treat as numerical trouble.
                        self.ban(j);
                        continue;
                    }
                    break LpStatus::Unbounded;
                }
                Ratio::Stuck => {
                    self.ban(j);
                    continue;
                }
                Ratio::BoundFlip { t } => {
                    self.pivots.bound_flips += 1;
                    self.apply_step(j, dir, t);
                    debug_assert!(self.sets_match_scan());
                    self.status[j] = match self.status[j] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        s => s,
                    };
                    // Snap exactly onto the bound.
                    self.x[j] = if dir > 0.0 { self.ub[j] } else { self.lb[j] };
                }
                Ratio::Pivot { t, pos, to_upper } => {
                    self.apply_step(j, dir, t);
                    let leaving = self.basis.basic_at(pos);
                    self.x[leaving] = if to_upper {
                        self.ub[leaving]
                    } else {
                        self.lb[leaving]
                    };
                    self.status[leaving] = if to_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.update_devex_primal(j, pos);
                    self.basis.replace(pos, j, &self.w);
                    self.status[j] = VarStatus::Basic;
                    self.note_pivot(pos, j, leaving);
                    self.duals_valid = false;
                    self.pivots_since_refactor += 1;

                    let due = if self.pivots_since_refactor >= self.refactor_every {
                        Some(RefactorCause::PivotCap)
                    } else {
                        self.basis.refactor_due()
                    };
                    if let Some(cause) = due {
                        self.refactorize_and_repair(cause);
                        self.pivots_since_refactor = 0;
                    }
                }
            }
        };

        self.finish(status, ws, factors)
    }

    /// Devex reference-weight update for a primal pivot (entering `j` at
    /// basis position `pos`; `self.w` holds the entering column's FTRAN
    /// image). This is the **full pivot-row** Forrest–Goldfarb update: one
    /// BTRAN of the leaving row per pivot, scattered over the row-major
    /// mirror the dual loop already maintains, so *every* nonbasic column
    /// in the pivot row gets its reference weight refreshed — not just a
    /// candidate short-list. That accuracy is what lets devex engage from
    /// cold starts (the partial update it replaces mispriced ~15% extra
    /// iterations there and had to be gated to warm re-solves).
    fn update_devex_primal(&mut self, j: usize, pos: usize) {
        // Amortisation heuristic: reference weights only start informing
        // pricing after enough pivot-row updates accumulate. Cold solves
        // run hundreds of iterations and gain ~20% from the framework;
        // hinted warm re-solves average a dozen iterations — the framework
        // never pays for itself before the solve ends, so they keep unit
        // weights, making the devex score exactly the Dantzig score.
        if self.hinted {
            return;
        }
        let alpha_q = self.w[pos];
        if alpha_q == 0.0 {
            return;
        }
        let leaving = self.basis.basic_at(pos);
        let wq = self.devex[j];
        let inv = 1.0 / (alpha_q * alpha_q);
        // rho = row `pos` of B^-1 (before the pivot is applied) — a unit
        // seed, the hyper-sparse BTRAN's best case.
        self.rho.clear();
        self.rho.set(pos, 1.0);
        let mut ewma_rho = self.ewma_rho;
        self.basis.btran_sp(&mut self.rho, &mut ewma_rho);
        self.ewma_rho = ewma_rho;
        let mirror = self.p.row_major();
        mirror.scatter_pivot_row(
            &self.rho,
            self.n,
            1e-12,
            &mut self.alpha,
            &mut self.alpha_touched,
        );
        for k in 0..self.alpha_touched.len() {
            let c = self.alpha_touched[k];
            if c == j || self.status[c] == VarStatus::Basic {
                continue;
            }
            let alpha_c = self.alpha[c];
            let cand = alpha_c * alpha_c * inv * wq;
            if cand > self.devex[c] {
                self.devex[c] = cand;
            }
        }
        self.devex[leaving] = (wq * inv).max(1.0);
        // Reference-framework reset: once weights grow past the threshold
        // the updates are dominated by staleness and the scores stop
        // approximating steepest-edge; restart the framework.
        if self.devex[leaving] > DEVEX_RESET {
            self.devex.iter_mut().for_each(|w| *w = 1.0);
        }
    }

    /// Excludes column `j` from pricing until the next progress.
    fn ban(&mut self, j: usize) {
        if !self.banned[j] {
            self.banned[j] = true;
            self.banned_list.push(j);
        }
    }

    /// Lifts every ban (progress was made).
    fn lift_bans(&mut self) {
        for &j in &self.banned_list {
            self.banned[j] = false;
        }
        self.banned_list.clear();
    }

    /// Moves the entering variable by `t` along `dir`, updating basics
    /// (only `w`'s support moves) and re-judging each moved position's
    /// membership of [`Self::violated`].
    fn apply_step(&mut self, j: usize, dir: f64, t: f64) {
        if t > 0.0 {
            self.x[j] += dir * t;
            let Solver {
                w,
                x,
                basis,
                lb,
                ub,
                violated,
                ..
            } = self;
            w.for_each_nonzero(|pos, wv| {
                let bj = basis.basic_at(pos);
                x[bj] -= dir * t * wv;
                violated.assign(pos, outside(x[bj], lb[bj], ub[bj]));
            });
        }
    }

    /// Refactorises for `cause` (counted), then re-derives everything the
    /// factors determine: statuses, basic values and both position sets.
    pub(crate) fn refactorize_and_repair(&mut self, cause: RefactorCause) {
        self.pivots.note_refactor(cause);
        // The repair may kick variables out for slacks; we cannot know
        // which from the return value alone, so statuses are reconciled
        // from the basis content itself. Without a repair the basis, and
        // with it every status, is what it was.
        if !self.basis.refactorize().is_empty() {
            self.reconcile_statuses();
            self.rebuild_priceable();
        }
        debug_assert!(self.statuses_match_basis());
        self.recompute_basics();
        self.rebuild_costed();
        debug_assert!(self.sets_match_scan());
        self.duals_valid = false;
    }

    pub(crate) fn finish(
        mut self,
        status: LpStatus,
        ws: &mut LpWorkspace,
        factors: &mut Option<FactorState>,
    ) -> LpSolution {
        let x: Vec<f64> = self.x[..self.n].to_vec();
        let objective = self.p.objective_value(&x);
        let basis = self.capture_basis();
        // Fold the basis's solve-path counters into the pivot report.
        let bstats = self.basis.stats();
        self.pivots.sparse_solves += bstats.sparse_solves;
        self.pivots.dense_solves += bstats.dense_solves;
        self.pivots.solve_nnz += bstats.solve_nnz;
        self.pivots.solve_dim += bstats.solve_dim;
        self.pivots.ft_updates += bstats.ft_updates;
        self.pivots.pfi_updates += bstats.pfi_updates;
        self.pivots.refactorizations += self.basis.refactor_count();
        debug_assert_eq!(self.pivots.refactor_causes(), self.pivots.refactorizations);
        let solution = LpSolution {
            status,
            objective,
            x,
            iterations: self.iterations,
            pivots: self.pivots,
            basis: Some(basis),
        };
        // Hand the scratch buffers back for the next solve.
        ws.lb = self.lb;
        ws.ub = self.ub;
        ws.status = self.status;
        ws.x = self.x;
        ws.work_obj = self.work_obj;
        ws.y = self.y;
        ws.w = self.w;
        ws.rho = self.rho;
        ws.rhs = self.rhs;
        ws.banned = self.banned;
        ws.banned_list = self.banned_list;
        ws.devex = self.devex;
        ws.alpha = self.alpha;
        ws.alpha_touched = self.alpha_touched;
        ws.candidates = self.candidates;
        ws.dual_d = self.dual_d;
        ws.dual_tau = self.dual_tau;
        ws.dual_flip_rhs = self.dual_flip_rhs;
        ws.dual_cands = self.dual_cands;
        ws.dual_viol = self.dual_viol;
        ws.dual_in_viol = self.dual_in_viol;
        ws.violated = self.violated;
        ws.costed = self.costed;
        ws.priceable = self.priceable;
        ws.marks = self.marks;
        let (state, scratch) = self.basis.into_state();
        ws.basis_scratch = scratch;
        *factors = Some(state);
        solution
    }
}

/// The partial-pricing window for a system of `total` columns: how many
/// columns a pricing round scans before settling on the best candidate
/// seen. Systems with `n + m <= 600` price in full; larger ones scan a
/// window of `max(256, (n + m) / 8)`. Bland's anti-cycling rule always
/// scans fully.
fn effective_window(total: usize) -> usize {
    if total <= 600 {
        total
    } else {
        (total / 8).max(256)
    }
}

/// Maximum length of the pricing candidate short-list.
const MAX_CANDIDATES: usize = 64;

/// Devex weight magnitude at which the reference framework restarts.
const DEVEX_RESET: f64 = 1e4;

/// Fraction of `tol_feas` used as the Harris pass-one relaxation (see
/// [`Solver::ratio_test_harris`] for why it is deliberately much smaller
/// than the feasibility tolerance itself).
const HARRIS_RELAX_FRAC: f64 = 0.01;

/// Adapts a basis hint (possibly captured from a differently-sized
/// problem) to the current `m x n` dimensions, pushing every variable's
/// status and value onto `status`/`x` (both empty on entry) and returning
/// the repaired basic set, and whether it seats every variable the
/// statuses call basic (so only a factorisation repair can leave work for
/// `reconcile_statuses`). `marks` covers `n + m` flags, all `false`, and is
/// returned so. See [`BasisState`] for the contract.
#[allow(clippy::too_many_arguments, reason = "set-up fills caller buffers")]
fn adapt_hint(
    h: &BasisState,
    n: usize,
    m: usize,
    lb: &[f64],
    ub: &[f64],
    status: &mut Vec<VarStatus>,
    x: &mut Vec<f64>,
    marks: &mut [bool],
) -> (Vec<usize>, bool) {
    // Map a capture-time global index to a current one.
    let remap = |g: usize| -> Option<usize> {
        if g < h.ncols {
            (g < n).then_some(g)
        } else {
            let i = g - h.ncols;
            (i < m).then(|| n + i)
        }
    };

    // Statuses: a surviving variable takes its hinted status (re-derived
    // from the current bounds when it refers to an infinite one); appended
    // columns enter nonbasic at their bound nearest zero, slacks of
    // appended rows basic at zero.
    let hinted_cols = n.min(h.ncols).min(h.status.len());
    let hinted_rows = m.min(h.status.len().saturating_sub(h.ncols));
    let mut claimed = 0usize; // variables whose status says basic
    for j in 0..n {
        let (s, v) = if j < hinted_cols {
            hinted_status(h.status[j], lb[j], ub[j])
        } else {
            initial_nonbasic(lb[j], ub[j])
        };
        claimed += usize::from(s == VarStatus::Basic);
        status.push(s);
        x.push(v);
    }
    for i in 0..m {
        let (s, v) = if i < hinted_rows {
            hinted_status(h.status[h.ncols + i], lb[n + i], ub[n + i])
        } else {
            (VarStatus::Basic, 0.0)
        };
        claimed += usize::from(s == VarStatus::Basic);
        status.push(s);
        x.push(v);
    }

    // Basic set: surviving entries keep their order; slacks of appended
    // rows join; dropped columns leave holes filled by unused slacks
    // (slack substitution).
    let mut basic = Vec::with_capacity(m);
    for &g in &h.basic {
        if basic.len() == m {
            break;
        }
        if let Some(j) = remap(g) {
            if !marks[j] {
                marks[j] = true;
                basic.push(j);
            }
        }
    }
    for i in h.nrows..m {
        if basic.len() == m {
            break;
        }
        if !marks[n + i] {
            marks[n + i] = true;
            basic.push(n + i);
        }
    }
    let mut next_slack = 0usize;
    while basic.len() < m {
        while marks[n + next_slack] {
            next_slack += 1;
        }
        marks[n + next_slack] = true;
        basic.push(n + next_slack);
    }

    // The basis owns these variables regardless of what the status map
    // said; anything claiming Basic without a seat is reseated after
    // factorisation by `reconcile_statuses`.
    let mut seated_claims = 0usize;
    for &j in &basic {
        seated_claims += usize::from(status[j] == VarStatus::Basic);
        status[j] = VarStatus::Basic;
        marks[j] = false;
    }
    (basic, seated_claims == claimed)
}

/// The status and value a hinted status gives a variable under its
/// current bounds: a nonbasic status naming an infinite bound is
/// re-derived.
fn hinted_status(s: VarBasisStatus, lb: f64, ub: f64) -> (VarStatus, f64) {
    match s {
        VarBasisStatus::Basic => (VarStatus::Basic, 0.0),
        VarBasisStatus::AtLower if lb.is_finite() => (VarStatus::AtLower, lb),
        VarBasisStatus::AtUpper if ub.is_finite() => (VarStatus::AtUpper, ub),
        VarBasisStatus::Free if !lb.is_finite() && !ub.is_finite() => (VarStatus::FreeNb, 0.0),
        _ => initial_nonbasic(lb, ub),
    }
}

fn initial_nonbasic(lb: f64, ub: f64) -> (VarStatus, f64) {
    match (lb.is_finite(), ub.is_finite()) {
        (true, true) => {
            if lb.abs() <= ub.abs() {
                (VarStatus::AtLower, lb)
            } else {
                (VarStatus::AtUpper, ub)
            }
        }
        (true, false) => (VarStatus::AtLower, lb),
        (false, true) => (VarStatus::AtUpper, ub),
        (false, false) => (VarStatus::FreeNb, 0.0),
    }
}

fn nearest_bound(x: f64, lb: f64, ub: f64) -> (VarStatus, f64) {
    match (lb.is_finite(), ub.is_finite()) {
        (true, true) => {
            if (x - lb).abs() <= (ub - x).abs() {
                (VarStatus::AtLower, lb)
            } else {
                (VarStatus::AtUpper, ub)
            }
        }
        (true, false) => (VarStatus::AtLower, lb),
        (false, true) => (VarStatus::AtUpper, ub),
        (false, false) => (VarStatus::FreeNb, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ProblemBuilder, INF};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn pivot_counts_merge_accumulates_every_field() {
        let a = PivotCounts {
            phase1: 1,
            primal: 2,
            dual: 3,
            bound_flips: 4,
            harris_degenerate_saved: 5,
            sparse_solves: 6,
            dense_solves: 7,
            solve_nnz: 8,
            solve_dim: 9,
            ft_updates: 10,
            pfi_updates: 11,
            refactorizations: 12,
            refactor_no_cache: 1,
            refactor_basis_changed: 2,
            refactor_pivot_cap: 3,
            refactor_update_fill: 4,
            refactor_rejected_update: 1,
            refactor_drift: 1,
            factor_reattaches: 13,
            distress_refactors: 14,
            distress_escalations: 15,
            distress_cold_restarts: 16,
        };
        let b = PivotCounts {
            phase1: 100,
            primal: 200,
            dual: 300,
            bound_flips: 400,
            harris_degenerate_saved: 500,
            sparse_solves: 600,
            dense_solves: 700,
            solve_nnz: 800,
            solve_dim: 900,
            ft_updates: 1000,
            pfi_updates: 1100,
            refactorizations: 1200,
            refactor_no_cache: 100,
            refactor_basis_changed: 200,
            refactor_pivot_cap: 300,
            refactor_update_fill: 400,
            refactor_rejected_update: 100,
            refactor_drift: 100,
            factor_reattaches: 1300,
            distress_refactors: 1400,
            distress_escalations: 1500,
            distress_cold_restarts: 1600,
        };
        // Commutative: counters may be merged in any order.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        let expect = PivotCounts {
            phase1: 101,
            primal: 202,
            dual: 303,
            bound_flips: 404,
            harris_degenerate_saved: 505,
            sparse_solves: 606,
            dense_solves: 707,
            solve_nnz: 808,
            solve_dim: 909,
            ft_updates: 1010,
            pfi_updates: 1111,
            refactorizations: 1212,
            refactor_no_cache: 101,
            refactor_basis_changed: 202,
            refactor_pivot_cap: 303,
            refactor_update_fill: 404,
            refactor_rejected_update: 101,
            refactor_drift: 101,
            factor_reattaches: 1313,
            distress_refactors: 1414,
            distress_escalations: 1515,
            distress_cold_restarts: 1616,
        };
        assert_eq!(ab, expect);
        assert_eq!(ab.total(), 101 + 202 + 303);
        assert_eq!(ab.refactor_causes(), ab.refactorizations);
    }

    /// An 8 x 8 transportation LP: enough pivots to cross every
    /// refactorisation trigger a test can set.
    fn transport() -> Problem {
        let mut b = ProblemBuilder::new();
        let k = 8;
        let cols: Vec<usize> = (0..k * k)
            .map(|c| b.add_col(((c * 7) % 11 + 1) as f64, 0.0, INF))
            .collect();
        for s in 0..k {
            let r = b.add_row(-INF, (3 + s % 4) as f64);
            for t in 0..k {
                b.set_coeff(r, cols[s * k + t], 1.0);
            }
        }
        for t in 0..k {
            let r = b.add_row((2 + t % 3) as f64, INF);
            for s in 0..k {
                b.set_coeff(r, cols[s * k + t], 1.0);
            }
        }
        b.build()
    }

    #[test]
    fn refactor_causes_sum_to_refactorizations() {
        let p = transport();
        let (lb, ub) = p.col_bounds();
        let mut seen = PivotCounts::default();
        let mut check = |s: &LpSolution| {
            assert_eq!(s.status, LpStatus::Optimal);
            assert_eq!(s.pivots.refactor_causes(), s.pivots.refactorizations);
            seen.merge(&s.pivots);
        };
        for opts in [
            SimplexOptions {
                refactor_interval: 1,
                ..SimplexOptions::default()
            },
            SimplexOptions {
                ft_fill_limit: 1.0,
                ..SimplexOptions::default()
            },
            SimplexOptions {
                basis_update: BasisUpdate::ProductForm,
                refactor_interval: 3,
                ..SimplexOptions::default()
            },
        ] {
            let mut ws = LpWorkspace::new();
            let mut factors = None;
            let cold = solve_with_bounds_from_ws(&p, lb, ub, None, &opts, &mut ws, &mut factors);
            check(&cold);
            // Re-attached: the hint's basic set is the factors' own.
            let hint = cold.basis.as_ref();
            let again =
                solve_with_bounds_from_ws(&p, lb, ub, hint, &opts, &mut ws, &mut factors.clone());
            assert_eq!(again.pivots.factor_reattaches, 1);
            check(&again);
            // Factors for another basic set: the slack basis's.
            let slack = BasisState {
                ncols: p.ncols(),
                nrows: p.nrows(),
                basic: (p.ncols()..p.ncols() + p.nrows()).collect(),
                status: vec![VarBasisStatus::AtLower; p.ncols()]
                    .into_iter()
                    .chain(vec![VarBasisStatus::Basic; p.nrows()])
                    .collect(),
            };
            check(&solve_with_bounds_from_ws(
                &p,
                lb,
                ub,
                Some(&slack),
                &opts,
                &mut ws,
                &mut factors,
            ));
        }
        assert!(seen.refactorizations > 0);
        for (cause, n) in [
            ("no cache", seen.refactor_no_cache),
            ("basis changed", seen.refactor_basis_changed),
            ("pivot cap", seen.refactor_pivot_cap),
            ("update fill", seen.refactor_update_fill),
        ] {
            assert!(n > 0, "no refactorisation for cause {cause}: {seen:?}");
        }
    }

    #[test]
    fn factors_seed_a_solve_by_argument() {
        let p = transport();
        let (lb, ub) = p.col_bounds();
        let opts = SimplexOptions::default();
        let mut ws = LpWorkspace::new();
        let mut factors = None;
        let first = solve_with_bounds_from_ws(&p, lb, ub, None, &opts, &mut ws, &mut factors);
        assert_eq!(first.status, LpStatus::Optimal);
        assert_eq!(first.pivots.refactor_no_cache, 1);
        assert!(factors.is_some(), "a solve leaves its final factorisation");
        // Handed back on its own basic set: re-attached, nothing refactorised.
        let hint = first.basis.as_ref();
        let again = solve_with_bounds_from_ws(&p, lb, ub, hint, &opts, &mut ws, &mut factors);
        assert_eq!(again.pivots.factor_reattaches, 1);
        assert_eq!(again.pivots.refactorizations, 0);
        assert!(
            factors.is_some(),
            "a re-attached solve leaves its factors too"
        );
        // No seed: the same start refactorises, though the workspace's last
        // solve ended on exactly this basis.
        let fresh = solve_with_bounds_from_ws(&p, lb, ub, hint, &opts, &mut ws, &mut None);
        assert_eq!(fresh.pivots.factor_reattaches, 0);
        assert_eq!(fresh.pivots.refactor_no_cache, 1);
        assert_eq!(fresh.pivots.refactorizations, 1);
        assert_eq!(fresh.objective.to_bits(), again.objective.to_bits());
    }

    #[test]
    fn distress_ladder_recovers_from_iteration_limit() {
        // Dantzig's example needs a handful of pivots; max_iters = 1 forces
        // an IterationLimit exit, and the ladder's warm retries (1 iteration
        // each) plus the 4x cold restart are enough to reach the optimum.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-3.0, 0.0, INF);
        let y = b.add_col(-5.0, 0.0, INF);
        let r0 = b.add_row(-INF, 4.0);
        b.set_coeff(r0, x, 1.0);
        let r1 = b.add_row(-INF, 12.0);
        b.set_coeff(r1, y, 2.0);
        let r2 = b.add_row(-INF, 18.0);
        b.set_coeff(r2, x, 3.0);
        b.set_coeff(r2, y, 2.0);
        let p = b.build();
        let (lb, ub) = p.col_bounds();
        let opts = SimplexOptions {
            max_iters: 1,
            ..SimplexOptions::default()
        };

        let mut ws = LpWorkspace::new();
        let limited = solve_with_bounds_from_ws(&p, lb, ub, None, &opts, &mut ws, &mut None);
        assert_eq!(limited.status, LpStatus::IterationLimit, "precondition");

        let mut ws = LpWorkspace::new();
        let s = solve_with_bounds_recovering_ws(&p, lb, ub, None, &opts, &mut ws, &mut None);
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, -36.0);
        approx(s.x[0], 2.0);
        approx(s.x[1], 6.0);
        assert!(s.pivots.distress_refactors >= 1, "ladder engaged");
        assert_eq!(s.pivots.total(), s.iterations, "counters aggregated");

        // Determinism: a second run from a fresh workspace is bit-identical.
        let mut ws2 = LpWorkspace::new();
        let s2 = solve_with_bounds_recovering_ws(&p, lb, ub, None, &opts, &mut ws2, &mut None);
        assert_eq!(s2.status, s.status);
        assert_eq!(s2.objective.to_bits(), s.objective.to_bits());
        assert_eq!(s2.iterations, s.iterations);
        assert_eq!(s2.pivots, s.pivots);
    }

    #[test]
    fn distress_ladder_exhausts_and_reports_every_rung() {
        // A longer pivot chain: even the cold restart's 4x budget (4
        // iterations at max_iters = 1) cannot finish, so the ladder runs
        // every rung and surfaces IterationLimit with the counters set.
        let mut b = ProblemBuilder::new();
        let n = 12;
        let cols: Vec<_> = (0..n).map(|_| b.add_col(-1.0, 0.0, INF)).collect();
        for (i, &c) in cols.iter().enumerate() {
            let r = b.add_row(-INF, 1.0 + i as f64);
            b.set_coeff(r, c, 1.0);
        }
        let p = b.build();
        let (lb, ub) = p.col_bounds();
        let opts = SimplexOptions {
            max_iters: 1,
            ..SimplexOptions::default()
        };
        let mut ws = LpWorkspace::new();
        let s = solve_with_bounds_recovering_ws(&p, lb, ub, None, &opts, &mut ws, &mut None);
        assert_eq!(s.status, LpStatus::IterationLimit);
        assert_eq!(s.pivots.distress_refactors, 1);
        assert_eq!(s.pivots.distress_escalations, 1);
        assert_eq!(s.pivots.distress_cold_restarts, 1);
        assert_eq!(s.pivots.total(), s.iterations);
    }

    #[test]
    fn trivially_bounded_no_rows() {
        // min -x  s.t. 0 <= x <= 5  => x = 5.
        let mut b = ProblemBuilder::new();
        b.add_col(-1.0, 0.0, 5.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, -5.0);
        approx(s.x[0], 5.0);
    }

    #[test]
    fn classic_two_var_lp() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
        // (Dantzig's example) => x=2, y=6, obj = 36.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-3.0, 0.0, INF);
        let y = b.add_col(-5.0, 0.0, INF);
        let r0 = b.add_row(-INF, 4.0);
        b.set_coeff(r0, x, 1.0);
        let r1 = b.add_row(-INF, 12.0);
        b.set_coeff(r1, y, 2.0);
        let r2 = b.add_row(-INF, 18.0);
        b.set_coeff(r2, x, 3.0);
        b.set_coeff(r2, y, 2.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, -36.0);
        approx(s.x[0], 2.0);
        approx(s.x[1], 6.0);
    }

    #[test]
    fn equality_rows_need_phase1() {
        // min x + y  s.t. x + y = 10, x - y = 2, x,y >= 0 => x=6, y=4.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(1.0, 0.0, INF);
        let y = b.add_col(1.0, 0.0, INF);
        let r0 = b.add_row(10.0, 10.0);
        b.set_coeff(r0, x, 1.0);
        b.set_coeff(r0, y, 1.0);
        let r1 = b.add_row(2.0, 2.0);
        b.set_coeff(r1, x, 1.0);
        b.set_coeff(r1, y, -1.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.x[0], 6.0);
        approx(s.x[1], 4.0);
        approx(s.objective, 10.0);
    }

    #[test]
    fn detects_infeasibility() {
        // x >= 5 and x <= 3 via rows.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(0.0, 0.0, INF);
        let r0 = b.add_row(5.0, INF);
        b.set_coeff(r0, x, 1.0);
        let r1 = b.add_row(-INF, 3.0);
        b.set_coeff(r1, x, 1.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        // min -x, x >= 0, no upper limit.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-1.0, 0.0, INF);
        let r0 = b.add_row(0.0, INF); // x >= 0, redundant
        b.set_coeff(r0, x, 1.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn handles_upper_bounded_structurals() {
        // min -x - 2y s.t. x + y <= 3, 0 <= x <= 2, 0 <= y <= 2 => (1, 2).
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-1.0, 0.0, 2.0);
        let y = b.add_col(-2.0, 0.0, 2.0);
        let r = b.add_row(-INF, 3.0);
        b.set_coeff(r, x, 1.0);
        b.set_coeff(r, y, 1.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, -5.0);
        approx(s.x[0], 1.0);
        approx(s.x[1], 2.0);
    }

    #[test]
    fn negative_lower_bounds_and_free_vars() {
        // min x + y with y free, x in [-5, 5], x + y >= -2, y <= 4.
        // Any point with x + y = -2 is optimal; check objective/feasibility.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(1.0, -5.0, 5.0);
        let y = b.add_col(1.0, -INF, INF);
        let r0 = b.add_row(-2.0, INF);
        b.set_coeff(r0, x, 1.0);
        b.set_coeff(r0, y, 1.0);
        let r1 = b.add_row(-INF, 4.0);
        b.set_coeff(r1, y, 1.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, -2.0);
        assert!(p.is_feasible(&s.x, 1e-7));
    }

    #[test]
    fn ranged_row() {
        // min x s.t. 2 <= x + y <= 4, y <= 1, x,y >= 0 => x = 1, y = 1.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(1.0, 0.0, INF);
        let y = b.add_col(0.0, 0.0, 1.0);
        let r = b.add_row(2.0, 4.0);
        b.set_coeff(r, x, 1.0);
        b.set_coeff(r, y, 1.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, 1.0);
    }

    #[test]
    fn fixed_variables_via_bounds() {
        // Branch-and-bound style: fix x = 1 by bounds.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-1.0, 0.0, 1.0);
        let y = b.add_col(-1.0, 0.0, 1.0);
        let r = b.add_row(-INF, 1.5);
        b.set_coeff(r, x, 1.0);
        b.set_coeff(r, y, 1.0);
        let p = b.build();
        let s = solve_with_bounds_from_ws(
            &p,
            &[1.0, 0.0],
            &[1.0, 1.0],
            None,
            &SimplexOptions::default(),
            &mut LpWorkspace::new(),
            &mut None,
        );
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.x[0], 1.0);
        approx(s.x[1], 0.5);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-1.0, 0.0, INF);
        let y = b.add_col(-1.0, 0.0, INF);
        for _ in 0..6 {
            let r = b.add_row(-INF, 2.0);
            b.set_coeff(r, x, 1.0);
            b.set_coeff(r, y, 1.0);
        }
        let r = b.add_row(-INF, 2.0);
        b.set_coeff(r, x, 2.0);
        b.set_coeff(r, y, 2.0); // same face scaled
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        // 2x + 2y <= 2 dominates: x + y <= 1 -> obj -1.
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, -1.0);
    }

    #[test]
    fn duals_satisfy_complementary_slackness_basics() {
        // min -x - y s.t. x + 2y <= 4, 3x + y <= 6 => vertex x=1.6, y=1.2.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-1.0, 0.0, INF);
        let y = b.add_col(-1.0, 0.0, INF);
        let r0 = b.add_row(-INF, 4.0);
        b.set_coeff(r0, x, 1.0);
        b.set_coeff(r0, y, 2.0);
        let r1 = b.add_row(-INF, 6.0);
        b.set_coeff(r1, x, 3.0);
        b.set_coeff(r1, y, 1.0);
        let p = b.build();
        let s = solve(&p, &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.x[0], 1.6);
        approx(s.x[1], 1.2);
        // Both rows tight, so both structurals are basic. The duals of the
        // returned basis, B' y = c_B, must reconstruct the objective:
        // y' A = c for basic structurals.
        let basic = s.basis.expect("solves report their basis").basic;
        let mut mat = Basis::new(p.matrix(), basic.clone(), BasisUpdate::ForrestTomlin);
        let mut d: Vec<f64> = basic
            .iter()
            .map(|&j| p.objective().get(j).copied().unwrap_or(0.0))
            .collect();
        mat.btran(&mut d);
        approx(d[0] + 3.0 * d[1], -1.0);
        approx(2.0 * d[0] + d[1], -1.0);
    }
}

#[cfg(test)]
mod warm_start_tests {
    use super::*;
    use crate::problem::{ProblemBuilder, INF};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Dantzig's example: max 3x + 5y, optimum (2, 6), objective -36.
    fn dantzig() -> crate::problem::Problem {
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-3.0, 0.0, INF);
        let y = b.add_col(-5.0, 0.0, INF);
        let r0 = b.add_row(-INF, 4.0);
        b.set_coeff(r0, x, 1.0);
        let r1 = b.add_row(-INF, 12.0);
        b.set_coeff(r1, y, 2.0);
        let r2 = b.add_row(-INF, 18.0);
        b.set_coeff(r2, x, 3.0);
        b.set_coeff(r2, y, 2.0);
        b.build()
    }

    #[test]
    fn resolve_from_own_basis_takes_one_iteration() {
        let p = dantzig();
        let opts = SimplexOptions::default();
        let cold = solve(&p, &opts);
        assert_eq!(cold.status, LpStatus::Optimal);
        let warm = solve_from(&p, cold.basis.as_ref(), &opts);
        assert_eq!(warm.status, LpStatus::Optimal);
        approx(warm.objective, cold.objective);
        // The hinted basis is already optimal: one pricing pass suffices.
        assert!(
            warm.iterations <= 1,
            "warm solve took {} iterations",
            warm.iterations
        );
    }

    #[test]
    fn warm_start_survives_added_column() {
        let p = dantzig();
        let opts = SimplexOptions::default();
        let cold = solve(&p, &opts);

        // Same rows, one extra (attractive) column: z with obj -4.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-3.0, 0.0, INF);
        let y = b.add_col(-5.0, 0.0, INF);
        let z = b.add_col(-4.0, 0.0, 1.0);
        let r0 = b.add_row(-INF, 4.0);
        b.set_coeff(r0, x, 1.0);
        let r1 = b.add_row(-INF, 12.0);
        b.set_coeff(r1, y, 2.0);
        let r2 = b.add_row(-INF, 18.0);
        b.set_coeff(r2, x, 3.0);
        b.set_coeff(r2, y, 2.0);
        b.set_coeff(r2, z, 1.0);
        let p2 = b.build();

        let cold2 = solve(&p2, &opts);
        let warm2 = solve_from(&p2, cold.basis.as_ref(), &opts);
        assert_eq!(warm2.status, LpStatus::Optimal);
        approx(warm2.objective, cold2.objective);
        assert!(p2.is_feasible(&warm2.x, 1e-7));
        assert!(
            warm2.iterations <= cold2.iterations,
            "warm {} > cold {}",
            warm2.iterations,
            cold2.iterations
        );
    }

    /// Hinted re-solves keep unit devex weights (the amortisation
    /// heuristic of `update_devex_primal`), so they price by the plain
    /// reduced-cost score; a cold solve of the same LP moves them.
    #[test]
    fn hinted_solves_leave_devex_weights_at_one() {
        // min -5y - x  s.t.  y + 10x <= 10: `y` enters on the one row, whose
        // pivot row carries `x` at ten times the entering coefficient.
        let lp = |cy: f64, cx: f64| {
            let mut b = ProblemBuilder::new();
            let y = b.add_col(cy, 0.0, INF);
            let x = b.add_col(cx, 0.0, INF);
            let r = b.add_row(-INF, 10.0);
            b.set_coeff(r, y, 1.0);
            b.set_coeff(r, x, 10.0);
            b.build()
        };
        let opts = SimplexOptions::default();
        // The slack basis, as the optimum of a nonnegative objective.
        let hint = solve(&lp(1.0, 1.0), &opts).basis;
        let p = lp(-5.0, -1.0);
        let (lb, ub) = p.col_bounds();
        let [cold, warm] = [None, hint.as_ref()].map(|hint| {
            let mut ws = LpWorkspace::new();
            let s = solve_with_bounds_from_ws(&p, lb, ub, hint, &opts, &mut ws, &mut None);
            assert_eq!(s.status, LpStatus::Optimal);
            assert!((s.objective + 50.0).abs() < 1e-9, "{}", s.objective);
            (s, ws.devex)
        });
        assert!(warm.0.pivots.primal > 0, "the hinted solve must pivot");
        assert_eq!(warm.0.pivots.phase1 + warm.0.pivots.dual, 0);
        assert!(warm.1.iter().all(|&w| w == 1.0), "{:?}", warm.1);
        assert!(cold.1.iter().any(|&w| w != 1.0), "{:?}", cold.1);
    }

    #[test]
    fn warm_start_survives_dropped_column() {
        // Solve the 3-column problem, then warm-start the 2-column one
        // with the stale basis: dropped columns are patched out via slack
        // substitution.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-3.0, 0.0, INF);
        let y = b.add_col(-5.0, 0.0, INF);
        let z = b.add_col(-4.0, 0.0, 1.0);
        let r0 = b.add_row(-INF, 4.0);
        b.set_coeff(r0, x, 1.0);
        let r1 = b.add_row(-INF, 12.0);
        b.set_coeff(r1, y, 2.0);
        let r2 = b.add_row(-INF, 18.0);
        b.set_coeff(r2, x, 3.0);
        b.set_coeff(r2, y, 2.0);
        b.set_coeff(r2, z, 1.0);
        let p3 = b.build();
        let opts = SimplexOptions::default();
        let sol3 = solve(&p3, &opts);
        assert_eq!(sol3.status, LpStatus::Optimal);
        // z is basic at the optimum of p3 (it is attractive and feasible),
        // so dropping it genuinely exercises the repair path.
        let p2 = dantzig();
        let warm = solve_from(&p2, sol3.basis.as_ref(), &opts);
        assert_eq!(warm.status, LpStatus::Optimal);
        approx(warm.objective, -36.0);
        assert!(p2.is_feasible(&warm.x, 1e-7));
    }

    #[test]
    fn warm_start_survives_added_row() {
        let p = dantzig();
        let opts = SimplexOptions::default();
        let cold = solve(&p, &opts);

        // Add a binding row x + y <= 7 (cuts off (2, 6)).
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-3.0, 0.0, INF);
        let y = b.add_col(-5.0, 0.0, INF);
        let r0 = b.add_row(-INF, 4.0);
        b.set_coeff(r0, x, 1.0);
        let r1 = b.add_row(-INF, 12.0);
        b.set_coeff(r1, y, 2.0);
        let r2 = b.add_row(-INF, 18.0);
        b.set_coeff(r2, x, 3.0);
        b.set_coeff(r2, y, 2.0);
        let r3 = b.add_row(-INF, 7.0);
        b.set_coeff(r3, x, 1.0);
        b.set_coeff(r3, y, 1.0);
        let p2 = b.build();

        let cold2 = solve(&p2, &opts);
        let warm2 = solve_from(&p2, cold.basis.as_ref(), &opts);
        assert_eq!(warm2.status, LpStatus::Optimal);
        approx(warm2.objective, cold2.objective);
        assert!(p2.is_feasible(&warm2.x, 1e-7));
    }

    #[test]
    fn warm_start_with_tightened_bounds_mimics_bnb_child() {
        // Parent LP relaxation, then a child with x fixed — the B&B reuse
        // pattern: same matrix, different bounds, parent basis.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-1.0, 0.0, 1.0);
        let y = b.add_col(-1.0, 0.0, 1.0);
        let r = b.add_row(-INF, 1.5);
        b.set_coeff(r, x, 1.0);
        b.set_coeff(r, y, 1.0);
        let p = b.build();
        let opts = SimplexOptions::default();
        let parent = solve(&p, &opts);
        assert_eq!(parent.status, LpStatus::Optimal);
        let child = solve_with_bounds_from_ws(
            &p,
            &[1.0, 0.0],
            &[1.0, 1.0],
            parent.basis.as_ref(),
            &opts,
            &mut LpWorkspace::new(),
            &mut None,
        );
        assert_eq!(child.status, LpStatus::Optimal);
        approx(child.x[0], 1.0);
        approx(child.x[1], 0.5);
    }

    #[test]
    fn garbage_hint_still_reaches_the_optimum() {
        // A wildly wrong hint (every structural claimed basic, absurd
        // capture dims) must be repaired, not trusted.
        let p = dantzig();
        let opts = SimplexOptions::default();
        let hint = BasisState {
            ncols: 7,
            nrows: 5,
            basic: vec![0, 0, 1, 6, 9],
            status: vec![VarBasisStatus::Basic; 12],
        };
        let s = solve_from(&p, Some(&hint), &opts);
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, -36.0);
    }

    #[test]
    fn infeasible_hint_triggers_phase1_not_failure() {
        // min x + y s.t. x + y = 10 — the slack-identity start is
        // infeasible; hint it with a nonsense basis and verify phase-I
        // still runs.
        let mut b = ProblemBuilder::new();
        let x = b.add_col(1.0, 0.0, INF);
        let y = b.add_col(1.0, 0.0, INF);
        let r0 = b.add_row(10.0, 10.0);
        b.set_coeff(r0, x, 1.0);
        b.set_coeff(r0, y, 1.0);
        let p = b.build();
        let opts = SimplexOptions::default();
        let hint = BasisState {
            ncols: 2,
            nrows: 1,
            basic: vec![2],
            status: vec![
                VarBasisStatus::AtLower,
                VarBasisStatus::AtLower,
                VarBasisStatus::Basic,
            ],
        };
        let s = solve_from(&p, Some(&hint), &opts);
        assert_eq!(s.status, LpStatus::Optimal);
        approx(s.objective, 10.0);
    }

    #[test]
    fn partial_pricing_matches_full_pricing() {
        // A 40-column LP, small enough to price in full, and the same LP
        // with 14 costly padding columns after each real one: 600 columns
        // plus 10 rows is past the full-pricing size, so the padded solve
        // scans a rotating window that is mostly padding. Padding only
        // costs and uses capacity, so both LPs share their optimum.
        let build = |pad: usize| {
            let mut b = ProblemBuilder::new();
            let n = 40;
            let mut cols = Vec::new();
            for j in 0..n {
                cols.push((j, b.add_col(-((j % 7 + 1) as f64), 0.0, 2.0)));
                for _ in 0..pad {
                    cols.push((j, b.add_col(1.0, 0.0, 2.0)));
                }
            }
            for i in 0..10 {
                let r = b.add_row(-INF, 5.0 + (i % 3) as f64);
                for &(j, col) in &cols {
                    if (i + j) % 3 != 0 {
                        b.set_coeff(r, col, ((i * j) % 4 + 1) as f64);
                    }
                }
            }
            b.build()
        };
        let (small, padded) = (build(0), build(14));
        let total = padded.ncols() + padded.nrows();
        assert!(effective_window(small.ncols() + small.nrows()) >= 50);
        assert!(
            effective_window(total) < total,
            "the padded LP prices a window"
        );
        let full = solve(&small, &SimplexOptions::default());
        let partial = solve(&padded, &SimplexOptions::default());
        assert_eq!(full.status, LpStatus::Optimal);
        assert_eq!(partial.status, LpStatus::Optimal);
        approx(full.objective, partial.objective);
    }
}

#[cfg(test)]
mod perturbation_tests {
    use super::*;
    use crate::problem::{ProblemBuilder, INF};

    /// Perturbed solves must reach the same optimum as unperturbed ones
    /// (the perturbation is stripped before termination).
    #[test]
    fn perturbation_preserves_optimum() {
        let mut b = ProblemBuilder::new();
        let x = b.add_col(-3.0, 0.0, INF);
        let y = b.add_col(-5.0, 0.0, INF);
        let r0 = b.add_row(-INF, 4.0);
        b.set_coeff(r0, x, 1.0);
        let r1 = b.add_row(-INF, 12.0);
        b.set_coeff(r1, y, 2.0);
        let r2 = b.add_row(-INF, 18.0);
        b.set_coeff(r2, x, 3.0);
        b.set_coeff(r2, y, 2.0);
        let p = b.build();
        let plain = solve(&p, &SimplexOptions::default());
        let opts = SimplexOptions {
            perturb: 1e-6,
            ..SimplexOptions::default()
        };
        let pert = solve(&p, &opts);
        assert_eq!(plain.status, LpStatus::Optimal);
        assert_eq!(pert.status, LpStatus::Optimal);
        assert!(
            (plain.objective - pert.objective).abs() < 1e-6,
            "{} vs {}",
            plain.objective,
            pert.objective
        );
    }

    /// Degenerate problem: perturbation must not change feasibility status.
    #[test]
    fn perturbation_on_degenerate_equalities() {
        let mut b = ProblemBuilder::new();
        let x = b.add_col(1.0, 0.0, 10.0);
        let y = b.add_col(1.0, 0.0, 10.0);
        for _ in 0..4 {
            let r = b.add_row(5.0, 5.0);
            b.set_coeff(r, x, 1.0);
            b.set_coeff(r, y, 1.0);
        }
        let p = b.build();
        let opts = SimplexOptions {
            perturb: 1e-6,
            ..SimplexOptions::default()
        };
        let s = solve(&p, &opts);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 5.0).abs() < 1e-6);
    }
}
