//! # sqpr-lp
//!
//! A self-contained sparse linear-programming solver: bounded-variable
//! revised primal simplex with sparse LU basis factorisation and
//! Forrest–Tomlin updates (or product-form etas, which are also the
//! fallback for a rejected update), plus a dual simplex for warm re-solves.
//!
//! This crate exists because the SQPR reproduction needs a MILP solver (the
//! paper uses CPLEX) and no LP/MILP engine is available in the sanctioned
//! dependency set. It is written for the moderately sized, mostly-binary
//! models produced by the SQPR query planner, but is a general LP solver:
//!
//! ## The basis lifecycle: snapshot → validate/repair → entry choice
//!
//! Every solve reports its final basis as a [`BasisState`] snapshot
//! ([`problem::LpSolution::basis`]). Passing that snapshot to
//! [`solve_from`] / [`solve_with_bounds_from_ws`] starts the simplex from the
//! captured vertex instead of the slack identity. A warm solve then moves
//! through three stages:
//!
//! 1. **Validate & repair.** The hint is *advisory*, never trusted.
//!    Appended columns (the hinted problem was smaller) enter nonbasic at
//!    their bound nearest zero; appended rows contribute their slack so
//!    the basis stays square; dropped columns are patched out by slack
//!    substitution — the same repair the LU factorisation applies to
//!    singular bases; nonbasic statuses referring to a bound that no
//!    longer exists are re-derived from the current bounds. Arbitrarily
//!    malformed hints (wrong dimensions, duplicate basics, statuses
//!    contradicting the bounds) degrade to a cold start — they can cost
//!    pivots, never correctness.
//! 2. **Entry choice.** The repaired vertex is classified:
//!    - *primal feasible* — phase-I is skipped and the primal phase-II
//!      loop optimises directly (a vertex that is also dual feasible
//!      terminates after a single pricing pass);
//!    - *primal infeasible but dual feasible* — the signature of a
//!      re-solve where only bounds moved (branch & bound children, the
//!      planner's §IV-A re-fixing): the **dual simplex** ([`dual`]) walks
//!      primal feasibility back with dual pivots, each one landing a
//!      bound-violating basic variable on its violated bound;
//!    - *neither* — the composite phase-I minimises total bound violation
//!      from wherever the repair left the point, exactly as a cold start
//!      would.
//! 3. **Fallbacks.** The dual loop bails back to composite phase-I on
//!    stalls or numerical trouble, so the warm machinery is strictly an
//!    optimisation layer: every path ends in the same phase-I/phase-II
//!    loop with the same tolerances.
//!
//! Re-solves of systems past 600 columns and rows additionally benefit
//! from bound-flip-aware partial pricing: only a rotating window of
//! `max(256, (n + m) / 8)` columns plus a short-list of recently attractive
//! columns is priced per iteration. Bound-fixed columns are skipped
//! outright at every size.
//!
//! ## One pricing rule and ratio test; two basis updates
//!
//! [`RatioTest`] and [`PricingRule`] have one variant each; the one
//! strategy [`SimplexOptions`] still selects is [`BasisUpdate`].
//!
//! Both loops price with **devex reference weights** (`d^2 / w`): the
//! primal loop runs the full pivot-row Forrest–Goldfarb update over the
//! row-major matrix mirror, the dual loop scores rows by
//! `violation^2 / weight` with weights updated from the entering column's
//! FTRAN image. Hinted re-solves keep the primal weights at 1.
//!
//! The ratio tests use **Harris two-pass tolerances**, and the dual test
//! adds the **bound-flipping long step**: degenerate blocking ties resolve
//! onto the largest available pivot instead of a zero-length step, and the
//! dual test amortises runs of degenerate pivots over boxed columns into
//! one pivot plus a batch of bound flips. Bland's anti-cycling rule, which
//! a primal stall engages, runs the textbook single-pass test.
//!
//! The basis absorbs each pivot as a **Forrest–Tomlin** update of `U`
//! ([`BasisUpdate::ForrestTomlin`], the default; a numerically rejected
//! update appends an exact product-form eta instead and schedules a
//! refactorisation), or as a product-form eta
//! ([`BasisUpdate::ProductForm`]).
//! [`LpSolution::pivots`] reports iterations per phase
//! plus the `bound_flips` / `harris_degenerate_saved` side-counters, which
//! is how callers verify that bound-change re-solves really ran as (few)
//! dual pivots.
//!
//! ```
//! use sqpr_lp::{ProblemBuilder, SimplexOptions, LpStatus, solve, INF};
//!
//! // maximise 3x + 5y  subject to  x <= 4, 2y <= 12, 3x + 2y <= 18
//! let mut b = ProblemBuilder::new();
//! let x = b.add_col(-3.0, 0.0, INF); // minimisation form: negate
//! let y = b.add_col(-5.0, 0.0, INF);
//! let r0 = b.add_row(-INF, 4.0);
//! b.set_coeff(r0, x, 1.0);
//! let r1 = b.add_row(-INF, 12.0);
//! b.set_coeff(r1, y, 2.0);
//! let r2 = b.add_row(-INF, 18.0);
//! b.set_coeff(r2, x, 3.0);
//! b.set_coeff(r2, y, 2.0);
//! let solution = solve(&b.build(), &SimplexOptions::default());
//! assert_eq!(solution.status, LpStatus::Optimal);
//! assert!((solution.objective - -36.0).abs() < 1e-6);
//! ```

// Outside tests, the planner stack surfaces typed errors instead of
// panicking (`assert!` states caller contracts and stays), and an exact
// float comparison says why (ARCHITECTURE.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
// Iterator refactors would obscure the algebra.
#![allow(clippy::needless_range_loop, reason = "kernels index parallel arrays")]

pub mod basis;
pub mod dual;
pub mod eta;
pub mod ft;
pub mod lu;
pub mod problem;
pub mod simplex;
pub mod sparse;

pub use basis::{BasisUpdate, FactorState, SolveStats};
pub use problem::{LpSolution, LpStatus, Problem, ProblemBuilder, INF};
pub use simplex::{
    solve, solve_from, solve_with_bounds_from_ws, solve_with_bounds_recovering_ws, BasisState,
    LpWorkspace, PivotCounts, PricingRule, RatioTest, SimplexOptions, VarBasisStatus,
};
pub use sparse::{CscMatrix, IndexedVec, Triplet};
