//! # sqpr-core
//!
//! The SQPR query planner (Kalyvianaki et al., ICDE 2011): query admission,
//! operator placement and cross-query reuse as a single constrained
//! optimisation problem, solved per arriving query over a reduced plan
//! space with a budgeted branch & bound.
//!
//! - [`model`] builds the MILP of paper §III (constraints III.4–III.7,
//!   objectives O1–O4, re-planning constraint IV.9, §IV-A variable fixing);
//! - [`planner`] implements Algorithm 1 (initial query planning) plus
//!   batched submission and query removal with garbage collection;
//! - [`adaptive`] implements §IV-B (re-planning on rate drift / shortage);
//! - [`recovery`] drives failure-storm re-admission: displaced queries
//!   re-enter admission through the warm solver path under a storm-wide
//!   budget, degrading to greedy placement when the budget runs dry;
//! - [`admission`] bounds admission latency: planning rounds run under a
//!   deterministic node-count deadline, and rounds still open at the
//!   deadline answer anytime — the admitting
//!   incumbent installs, otherwise the suspended search parks in an
//!   [`AdmissionQueue`] for bounded, backed-off retries;
//! - [`config`] exposes the λ-weights (with the paper's defaults), solve
//!   budgets and the ablation knobs (reuse / reduction / relaying / IV.9).

// Outside tests, the planner stack surfaces typed errors instead of
// panicking (`assert!` states caller contracts and stays), and an exact
// float comparison says why (ARCHITECTURE.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod adaptive;
pub mod admission;
pub mod config;
pub mod greedy;
pub mod model;
pub mod planner;
pub mod query;
pub mod recovery;

pub use adaptive::{adapt_to_observed_rates, AdaptReport, DriftMonitor};
pub use admission::{
    AdmissionPath, AdmissionQueue, AdmissionRecord, Admitted, Rejected, RoundVerdict,
};
pub use config::{AcyclicityMode, ObjectiveWeights, PlannerConfig, RelayPolicy, SolveBudget};
pub use greedy::greedy_admit;
pub use model::{DecodedAllocation, ModelInputs, PlanningModel};
pub use planner::{
    garbage_collect, PlannerError, PlanningOutcome, PreemptedRound, SolverStats, SqprPlanner,
};
pub use query::{full_space, register_join_query, PlanSpace, QuerySpec};
pub use recovery::{recover_from_failures, QueryRecovery, RecoveryMode, StormBudget, StormReport};
pub use sqpr_lp::{BasisUpdate, PricingRule, RatioTest};
pub use sqpr_milp::{CacheStats, MilpStatus, PivotCounts};
