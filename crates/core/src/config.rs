//! Planner configuration: objective weights, solve budgets, ablation knobs.

use sqpr_dsps::Catalog;
use sqpr_lp::{BasisUpdate, PricingRule, RatioTest};

/// Controls whether hosts may relay streams they neither source nor produce
/// (paper §II-C introduces the relay operator `µ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayPolicy {
    /// Any host holding a stream may forward it (the paper's model).
    All,
    /// Streams may only be sent by hosts that generate them (source hosts
    /// for base streams, producing hosts for composites). Ablation.
    ProducersOnly,
}

/// How the acyclicity requirement (paper III.7) is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcyclicityMode {
    /// Potential variables `p` and big-M rows in the MILP — the paper's
    /// formulation, verbatim. Big-M rows weaken the LP relaxation and slow
    /// the solver; kept as the faithful variant and for the ablation.
    Constraints,
    /// Lazy enforcement: the model omits III.7 and integral candidates with
    /// acausal flow cycles are rejected at incumbent time (the availability
    /// fixpoint cannot derive them). Solutions are identical — any causal
    /// allocation admits valid potentials and vice versa — but relaxations
    /// are much tighter. Default.
    Lazy,
}

/// Objective weights `λ1..λ4` of the weighted sum (III.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveWeights {
    /// Weight of O1 (satisfied queries). The paper sets a "sufficiently
    /// large number" so admission dominates.
    pub lambda1: f64,
    /// Weight of O2 (system-wide network usage).
    pub lambda2: f64,
    /// Weight of O3 (system-wide CPU usage).
    pub lambda3: f64,
    /// Weight of O4 (maximum per-host CPU; the load-balancing term).
    pub lambda4: f64,
}

impl ObjectiveWeights {
    /// The paper's §IV-A defaults, with corrected normalisers.
    ///
    /// The paper sets `λ1 = M` ("sufficiently large"), `λ2 = 1/Σβ_h` to
    /// scale network usage into `[0, 1]`, and then states `λ3 = 1/Σκ_hm`
    /// "scales the aggregated usage of CPU" — which it does not (κ is link
    /// bandwidth). We use the normalisers the text clearly intends:
    /// `λ3 = 1/Σζ_h` scales O3 into `[0, 1]` and `λ4 = 1/max_h ζ_h` scales
    /// O4 into `[0, 1]`, preserving the stated goal that O4 "receives the
    /// same weight as the average consumption of CPU". `λ1` is then chosen
    /// so one admission always outweighs every resource penalty combined.
    pub fn paper_defaults(catalog: &Catalog) -> Self {
        let beta_sum = catalog.total_bandwidth_out().max(1e-9);
        let zeta_sum = catalog.total_cpu().max(1e-9);
        let zeta_max = catalog
            .hosts()
            .map(|h| catalog.host(h).cpu_capacity)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let big_m =
            (10.0 * (catalog.num_hosts().max(1) * catalog.num_streams().max(1)) as f64).max(1000.0);
        ObjectiveWeights {
            lambda1: big_m,
            lambda2: 1.0 / beta_sum,
            lambda3: 1.0 / zeta_sum,
            lambda4: 1.0 / zeta_max,
        }
    }

    /// Pure resource-minimisation preset: `(λ3, λ4) = (1, 0)` per §III-B.
    pub fn min_resources(catalog: &Catalog) -> Self {
        let mut w = Self::paper_defaults(catalog);
        w.lambda3 = 1.0;
        w.lambda4 = 0.0;
        w
    }

    /// Pure load-balancing preset: `(λ3, λ4) = (0, 1)` per §III-B
    /// (with λ4 normalised as in [`Self::paper_defaults`]).
    pub fn load_balance(catalog: &Catalog) -> Self {
        let mut w = Self::paper_defaults(catalog);
        w.lambda3 = 0.0;
        w
    }

    /// Interpolates §III-B's `(λ3, λ4)` trade-off: `mix = 0` is pure
    /// resource minimisation, `mix = 1` pure load balancing, `0.5` the
    /// intermediate setting the paper mentions.
    pub fn balance_mix(mut self, mix: f64) -> Self {
        assert!((0.0..=1.0).contains(&mix), "mix in [0, 1]");
        self.lambda3 *= 2.0 * (1.0 - mix);
        self.lambda4 *= 2.0 * mix;
        self
    }
}

/// Solve budget per planning round, mirroring the paper's CPLEX timeout.
///
/// `max_nodes` is the deterministic budget (tests use it exclusively);
/// `wall_clock_ms` optionally adds a real timeout for harnesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveBudget {
    pub max_nodes: usize,
    pub wall_clock_ms: Option<u64>,
}

impl SolveBudget {
    pub fn nodes(max_nodes: usize) -> Self {
        SolveBudget {
            max_nodes,
            wall_clock_ms: None,
        }
    }

    /// Budget roughly equivalent to the paper's 30 s CPLEX timeout at our
    /// default experiment scale, in nodes only: the default planner reads
    /// no clock, so its decisions do not depend on the machine. Harnesses
    /// that want the paper's timeout as well set it themselves
    /// (`sqpr_bench::harness::budget_for_timeout`).
    pub fn default_per_query() -> Self {
        Self::nodes(600)
    }
}

/// Full planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    pub weights: ObjectiveWeights,
    pub budget: SolveBudget,
    pub relay_policy: RelayPolicy,
    pub acyclicity: AcyclicityMode,
    /// §IV-A problem reduction: optimise only over S(q)/O(q). Disabling
    /// re-plans everything every time (ablation; intractable beyond toys).
    pub reduction: bool,
    /// §II-C reuse: share equivalent streams across queries. Disabling
    /// registers private per-query copies (ablation).
    pub reuse: bool,
    /// Re-planning flexibility (IV.9 allows moving already-admitted
    /// queries). Disabling freezes all previously placed variables.
    pub replan: bool,
    /// Warm-start the MILP from the current deployment (and keep existing
    /// queries alive at timeout).
    pub warm_start: bool,
    /// Relative MIP gap at which a planning solve stops early.
    pub gap_tol: f64,
    /// Node budget when an admitting warm start is already in hand (the
    /// solver then only *improves* placement quality; admission itself is
    /// secured). Small values favour throughput, larger values quality.
    pub improve_nodes: usize,
    /// Carry solver state across submissions: the planner keeps one
    /// persistent model skeleton (extended per query instead of rebuilt)
    /// and warm-starts every root LP from the previous submission's basis.
    /// Disabling reverts to a fresh model + cold simplex per submission
    /// (the paper's behaviour, kept as the baseline/ablation). Only active
    /// alongside `replan = true` and `RelayPolicy::All`.
    pub reuse_solver_context: bool,
    /// Skeleton column GC trigger: when more than this fraction of the
    /// cached skeleton's columns belong to queries that are no longer
    /// admitted, the skeleton is compacted (rebuilt from the live plan
    /// spaces, root basis re-mapped). Long-running planners would otherwise
    /// grow the skeleton — and every `extend`/`apply_reduction` sweep —
    /// without bound. Values > 1.0 disable compaction.
    pub skeleton_gc_threshold: f64,
    /// Accepted and ignored in effect: [`sqpr_lp::RatioTest`] has one
    /// value (Harris two-pass plus the dual long step). Kept only because
    /// the benchmark's staged round names it; removed with those lines in
    /// the next `benchmark` PR.
    pub lp_ratio_test: RatioTest,
    /// Accepted and ignored in effect: [`sqpr_lp::PricingRule`] has one
    /// value (full-pivot-row devex). Kept only because the benchmark's
    /// staged round names it; removed with those lines in the next
    /// `benchmark` PR.
    pub lp_pricing: PricingRule,
    /// Basis update representation for every LP the planner solves
    /// ([`sqpr_lp::BasisUpdate`]): Forrest–Tomlin updates of `U` (sparse
    /// factors, fill-growth-keyed refactorisation) by default,
    /// `ProductForm` etas as the alternative (faster on the benchmark's
    /// `saturated_retry` workload; ARCHITECTURE §7).
    pub lp_basis_update: BasisUpdate,
    /// Accepted and ignored — factorisations pass between the solves of
    /// one branch & bound tree only, never between trees (measured on
    /// every e2e workload, none ever did). Removed together
    /// with the benchmark lines that name it in the next `benchmark` PR.
    pub lp_cross_solve_factors: bool,
    /// Accepted and ignored — removed together with the benchmark lines
    /// that name it in the next `benchmark` PR. The default 0 keeps the
    /// benchmark's staged round from calling the (equally inert)
    /// [`PlanningModel::set_fold_exemptions`](crate::PlanningModel::set_fold_exemptions).
    pub lp_keep_rejected_free_window: usize,
    /// Accepted and ignored — removed together with the two benchmark
    /// lines that name it in the next `benchmark` PR.
    pub lp_threads: usize,
    /// Preemption quantum, in branch & bound nodes: every planning solve
    /// runs as a sequence of at-most-this-many-node slices through
    /// [`sqpr_milp::solve_preemptible`], with the search suspended into a
    /// [`sqpr_milp::SearchState`] between slices. `0` (the default)
    /// disables slicing (the classic uninterruptible solve). Slicing is
    /// *transparent*: admission decisions, objectives and node/pivot counts
    /// are bit-identical at every quantum, with or without a
    /// [`round_deadline`](Self::round_deadline) (a slice never runs past
    /// the deadline). It is the hook the sliced-solve tests turn on.
    pub node_quantum: usize,
    /// Deadline per planning round, in branch & bound nodes (deterministic,
    /// unlike a wall clock). When the deadline expires with the search still
    /// open, the round returns an *anytime* verdict instead of burning the
    /// full node budget: the incumbent is installed when it admits
    /// ([`Admitted::IncumbentAtDeadline`](crate::Admitted)), otherwise the
    /// suspended search is handed to the admission queue for bounded
    /// retries ([`Rejected::DeadlineNoCertificate`](crate::Rejected)).
    /// `None` disables the deadline layer entirely.
    ///
    /// The deadline bounds *fresh single-query submissions* only: batch
    /// rounds (whose members cannot be resumed individually) and internal
    /// replans (adaptation, recovery, retries) run deadline-free under
    /// their own budgets, so they never park a round behind the admission
    /// queue's back.
    pub round_deadline: Option<usize>,
}

impl PlannerConfig {
    pub fn new(catalog: &Catalog) -> Self {
        PlannerConfig {
            weights: ObjectiveWeights::paper_defaults(catalog),
            budget: SolveBudget::default_per_query(),
            relay_policy: RelayPolicy::All,
            acyclicity: AcyclicityMode::Lazy,
            reduction: true,
            reuse: true,
            replan: true,
            warm_start: true,
            gap_tol: 0.02,
            improve_nodes: 8,
            reuse_solver_context: true,
            skeleton_gc_threshold: 0.5,
            lp_ratio_test: RatioTest::LongStep,
            lp_pricing: PricingRule::Devex,
            lp_basis_update: BasisUpdate::ForrestTomlin,
            lp_cross_solve_factors: true,
            lp_keep_rejected_free_window: 0,
            lp_threads: 1,
            node_quantum: 0,
            round_deadline: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpr_dsps::{CostModel, HostId, HostSpec};

    fn catalog() -> Catalog {
        let mut c = Catalog::uniform(4, HostSpec::new(8.0, 100.0), 1000.0, CostModel::default());
        c.add_base_stream(HostId(0), 10.0, 1);
        c.add_base_stream(HostId(1), 10.0, 2);
        c
    }

    #[test]
    fn paper_weights_normalise() {
        let c = catalog();
        let w = ObjectiveWeights::paper_defaults(&c);
        assert!(w.lambda1 >= 1000.0, "λ1 must dominate");
        assert!((w.lambda2 - 1.0 / 400.0).abs() < 1e-12);
        // 4 hosts x 8 CPU units.
        assert!((w.lambda3 - 1.0 / 32.0).abs() < 1e-12);
        assert!((w.lambda4 - 1.0 / 8.0).abs() < 1e-12);
        // One admission must outweigh the maximal combined penalty
        // (each normalised term is at most 1).
        assert!(w.lambda1 > 3.0);
    }

    #[test]
    fn presets_toggle_balance_terms() {
        let c = catalog();
        let min_r = ObjectiveWeights::min_resources(&c);
        assert_eq!((min_r.lambda3, min_r.lambda4), (1.0, 0.0));
        let lb = ObjectiveWeights::load_balance(&c);
        assert_eq!(lb.lambda3, 0.0);
        assert!(lb.lambda4 > 0.0);
    }

    #[test]
    fn config_defaults() {
        let c = catalog();
        let cfg = PlannerConfig::new(&c);
        assert!(cfg.reduction && cfg.reuse && cfg.replan && cfg.warm_start);
        assert_eq!(cfg.relay_policy, RelayPolicy::All);
        // Node-only: the default planner's decisions read no clock.
        assert_eq!(cfg.budget, SolveBudget::nodes(600));
        assert!(cfg.budget.wall_clock_ms.is_none());
        // Inert until the benchmark lines that name it go.
        assert_eq!(cfg.lp_keep_rejected_free_window, 0);
    }
}
