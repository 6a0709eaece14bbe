//! Every product symbol the benchmark touches, in one place.
//!
//! The other modules import product items only through this one, so an API
//! consolidation in `sqpr-core` / `sqpr-milp` / `sqpr-lp` / `sqpr-dsps` /
//! `sqpr-workload` finds here (and in the README's symbol table, which
//! mirrors this file plus the methods called on these types) exactly what
//! the benchmark pins.

pub use sqpr_core::{
    greedy_admit, recover_from_failures, register_join_query, AcyclicityMode, ModelInputs,
    PlanSpace, PlannerConfig, PlanningModel, PlanningOutcome, RelayPolicy, SolveBudget,
    SqprPlanner, StormBudget, StormReport,
};
pub use sqpr_dsps::{Catalog, DeploymentState, HostId, OperatorId, QueryId, StreamId};
pub use sqpr_lp::{
    solve as lp_solve, solve_from as lp_solve_from, LpStatus, Problem as LpProblem, ProblemBuilder,
    SimplexOptions,
};
pub use sqpr_milp::{
    solve_preemptible, CacheStats, IncumbentFilter, LpCacheSlot, MilpOptions, MilpWarmStart,
    ModelBasis, PivotCounts, Sense, SolveOutcome, VarType,
};
pub use sqpr_workload::{generate, Workload, WorkloadSpec};

/// `sqpr_core::model::AvailabilityCut` is not re-exported at the crate root.
pub use sqpr_core::model::AvailabilityCut;

/// The planner configuration every workload runs under: the defaults of
/// [`PlannerConfig::new`] with every environment- or clock-dependent knob
/// pinned, so a run's decisions are a function of its inputs alone
/// (`SQPR_LP_THREADS` / `SQPR_NODE_QUANTUM` cannot change them). One LP
/// thread because the reference box has two cores and the committed thread
/// scaling is 0.87–1.04x.
pub fn bench_config(catalog: &Catalog, node_budget: usize, warm: bool) -> PlannerConfig {
    let mut cfg = PlannerConfig::new(catalog);
    cfg.lp_threads = 1;
    cfg.node_quantum = 0;
    cfg.round_deadline = None;
    cfg.budget = SolveBudget::nodes(node_budget);
    cfg.reuse_solver_context = warm;
    cfg
}
