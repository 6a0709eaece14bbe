//! # sqpr-milp
//!
//! A mixed-integer linear programming solver: modelling API plus branch &
//! bound over the [`sqpr_lp`] simplex, with a diving primal heuristic and
//! deterministic solve budgets.
//!
//! The SQPR paper hands its planning model (a MILP) to CPLEX with a timeout
//! and deploys the best incumbent found. This crate reproduces that contract
//! without external solvers:
//!
//! ```
//! use sqpr_milp::{Model, Sense, MilpOptions, MilpStatus, solve};
//!
//! // Knapsack: max 10a + 13b + 7c  s.t.  3a + 4b + 2c <= 5.
//! let mut m = Model::new(Sense::Maximize);
//! let a = m.add_binary(10.0);
//! let b = m.add_binary(13.0);
//! let c = m.add_binary(7.0);
//! m.add_le(vec![(a, 3.0), (b, 4.0), (c, 2.0)], 5.0);
//! let r = solve(&m, &MilpOptions::default());
//! assert_eq!(r.status, MilpStatus::Optimal);
//! assert!((r.objective - 17.0).abs() < 1e-6);
//! ```

// Numeric kernels index several parallel arrays at once; iterator
// refactors would obscure the algebra.
#![allow(clippy::needless_range_loop)]

pub mod cache;
pub mod heuristics;
pub mod model;
mod presolve;
pub mod solver;
#[cfg(test)]
pub(crate) mod test_models;

pub use cache::{CacheStats, LpCacheSlot};
pub use model::{ConsId, Model, Sense, VarId, VarType};
pub use solver::{
    solve, solve_preemptible, BasisEntity, IncumbentFilter, MilpOptions, MilpResult, MilpStatus,
    MilpWarmStart, ModelBasis, SearchState, SolveOutcome,
};
pub use sqpr_lp::{BasisState, BasisUpdate, LpWorkspace, PivotCounts, PricingRule, RatioTest};
