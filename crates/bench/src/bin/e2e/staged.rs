//! The staged round: `SqprPlanner::submit` re-enacted from the layers'
//! public functions, with a span around every call.
//!
//! This is the traced run's stand-in for the planner on the submission
//! workloads. It follows `sqpr_core::planner` step for step — register,
//! provider short-circuit, build (cold) or compact + extend + reduce
//! (warm), greedy warm start, preemptible branch & bound behind the
//! compressed-LP cache with the acausal-incumbent filter, up to three
//! lazy-cut rounds, decode and install — for the one configuration the
//! benchmark runs ([`bench_config`](crate::adapter::bench_config): lazy
//! acyclicity, reduction, reuse, re-planning and warm starts on, no
//! deadlines, no slicing). The traced run checks that a staged pass
//! reproduces the real planner's pass exactly (decisions, per-round nodes
//! and LP iterations, final objective bits); when it does not, the layer
//! numbers are reported as stale rather than trusted.

use std::cell::RefCell;
use std::collections::BTreeSet;

use crate::adapter::{
    greedy_admit, register_join_query, solve_preemptible, AcyclicityMode, AvailabilityCut, Catalog,
    DeploymentState, IncumbentFilter, LpCacheSlot, MilpOptions, MilpWarmStart, ModelBasis,
    ModelInputs, OperatorId, PlanSpace, PlannerConfig, PlanningModel, QueryId, RelayPolicy,
    SimplexOptions, SolveOutcome, StreamId,
};
use crate::drive::Round;
use crate::probe::{probe, ProbeTotals, PROBE_EVERY};
use crate::trace::Tracer;

/// Lazy-cut rounds per submission (`AcyclicityMode::Lazy`).
const MAX_CUT_ROUNDS: usize = 3;

/// The persistent model skeleton of the warm path.
struct Skeleton {
    model: PlanningModel,
    space: PlanSpace,
    cuts: Vec<AvailabilityCut>,
    /// Which query contributed which plan space (compaction liveness).
    query_log: Vec<(QueryId, PlanSpace)>,
}

/// What only the staged round can count: plan-space sizes at registration
/// and branch & bound constructions (lazy-cut rounds) per solver round.
#[derive(Debug, Default, Clone, Copy)]
pub struct StagedTally {
    pub registered: usize,
    pub space_streams: usize,
    pub space_operators: usize,
    pub solver_rounds: usize,
    pub cut_rounds: usize,
}

impl StagedTally {
    pub fn add(&mut self, other: &StagedTally) {
        let StagedTally {
            registered,
            space_streams,
            space_operators,
            solver_rounds,
            cut_rounds,
        } = *other;
        self.registered += registered;
        self.space_streams += space_streams;
        self.space_operators += space_operators;
        self.solver_rounds += solver_rounds;
        self.cut_rounds += cut_rounds;
    }
}

pub struct StagedPlanner {
    catalog: Catalog,
    state: DeploymentState,
    config: PlannerConfig,
    next_query: u32,
    skeleton: Option<Skeleton>,
    root_basis: Option<ModelBasis>,
    lp_cache: LpCacheSlot,
    pub tracer: Tracer,
    pub tally: StagedTally,
    /// The model of the latest solver round on the cold path, kept for the
    /// LP probe (the warm path's lives in the skeleton).
    last_cold_model: Option<PlanningModel>,
    /// `Some` turns the LP probe on: every [`PROBE_EVERY`]-th solver round
    /// is probed right after its root span closes.
    pub probe: Option<ProbeTotals>,
    /// Wall time spent probing, to be taken out of the traced pass's time.
    pub probe_wall_ns: u64,
}

impl StagedPlanner {
    /// `None` when `config` is not the configuration this re-enactment
    /// covers.
    pub fn new(catalog: Catalog, config: PlannerConfig) -> Option<Self> {
        let covered = config.reduction
            && config.reuse
            && config.replan
            && config.warm_start
            && config.acyclicity == AcyclicityMode::Lazy
            && config.relay_policy == RelayPolicy::All
            && config.node_quantum == 0
            && config.round_deadline.is_none()
            && config.budget.wall_clock_ms.is_none();
        covered.then(|| StagedPlanner {
            catalog,
            state: DeploymentState::new(),
            config,
            next_query: 0,
            skeleton: None,
            root_basis: None,
            lp_cache: LpCacheSlot::new(),
            tracer: Tracer::new(),
            tally: StagedTally::default(),
            last_cold_model: None,
            probe: None,
            probe_wall_ns: 0,
        })
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn state(&self) -> &DeploymentState {
        &self.state
    }

    /// The reduced model the latest solver round solved.
    pub fn last_model(&self) -> Option<&PlanningModel> {
        match &self.skeleton {
            Some(sk) => Some(&sk.model),
            None => self.last_cold_model.as_ref(),
        }
    }

    /// Mirrors `SqprPlanner::deployment_objective`.
    pub fn deployment_objective(&self) -> f64 {
        deployment_objective(&self.state, &self.catalog, &self.config)
    }

    /// One submission, as a root span with a child span per layer call.
    pub fn submit(&mut self, op: u32, bases: &[StreamId]) -> Round {
        self.tracer.set_op(op);
        let root = self.tracer.enter("core.planner.submit");
        let round = self.submit_inner(bases);
        self.tracer.exit(root);
        if !round.reused && self.tally.solver_rounds.is_multiple_of(PROBE_EVERY) {
            self.run_probe();
        }
        round
    }

    fn run_probe(&mut self) {
        let Some(mut totals) = self.probe else {
            return;
        };
        let started = self.tracer.now_ns();
        if let Some(model) = self.last_model() {
            probe(model, &self.lp_options(), &mut totals);
        }
        self.probe = Some(totals);
        self.probe_wall_ns += self.tracer.now_ns() - started;
    }

    fn submit_inner(&mut self, bases: &[StreamId]) -> Round {
        let q = QueryId(self.next_query);
        self.next_query += 1;
        let span = self.tracer.enter("core.query.register");
        let (spec, space) = register_join_query(&mut self.catalog, q, bases, 0);
        self.tracer.exit(span);
        self.tally.registered += 1;
        self.tally.space_streams += space.streams.len();
        self.tally.space_operators += space.operators.len();

        // Algorithm 1 line 3: the stream may already be provided.
        if self.state.provider_of(spec.result).is_some() {
            self.state.admit_query(q, spec.result);
            return Round {
                admitted: true,
                reused: true,
                nodes: 0,
                lp_iterations: 0,
            };
        }
        let round = self.plan_round(q, spec.result, &space);
        if round.admitted {
            self.state.admit_query(q, spec.result);
        }
        round
    }

    fn inputs<'a>(
        &'a self,
        space: &'a PlanSpace,
        new_streams: &'a [StreamId],
        cuts: &'a [AvailabilityCut],
    ) -> ModelInputs<'a> {
        ModelInputs {
            catalog: &self.catalog,
            state: &self.state,
            space,
            new_streams,
            weights: self.config.weights,
            relay_policy: self.config.relay_policy,
            acyclicity: self.config.acyclicity,
            replan: self.config.replan,
            cuts,
        }
    }

    /// Mirrors `SqprPlanner::maybe_compact_skeleton`.
    fn maybe_compact(&mut self, space: &PlanSpace, new_streams: &[StreamId]) {
        let h = self.catalog.num_hosts();
        let Some(sk) = &self.skeleton else {
            return;
        };
        let (stream_cols, op_cols) = (h * h, h);
        let mut live_streams: BTreeSet<StreamId> = space.streams.iter().copied().collect();
        let mut live_ops: BTreeSet<OperatorId> = space.operators.iter().copied().collect();
        for (lq, ls) in &sk.query_log {
            if self.state.admitted().contains_key(lq) {
                live_streams.extend(ls.streams.iter().copied());
                live_ops.extend(ls.operators.iter().copied());
            }
        }
        let dead_streams = sk
            .space
            .streams
            .iter()
            .filter(|s| !live_streams.contains(s))
            .count();
        let dead_ops = sk
            .space
            .operators
            .iter()
            .filter(|o| !live_ops.contains(o))
            .count();
        let dead_cols = dead_streams * stream_cols + dead_ops * op_cols;
        let total_cols = sk.space.streams.len() * stream_cols + sk.space.operators.len() * op_cols;
        let threshold = self.config.skeleton_gc_threshold;
        if total_cols == 0 || (dead_cols as f64) <= threshold * total_cols as f64 {
            return;
        }
        let mut live_space = space.clone();
        let mut live_log: Vec<(QueryId, PlanSpace)> = Vec::new();
        for (lq, ls) in &sk.query_log {
            if self.state.admitted().contains_key(lq) {
                live_space.merge(ls);
                live_log.push((*lq, ls.clone()));
            }
        }
        let live_cuts: Vec<AvailabilityCut> = sk
            .cuts
            .iter()
            .filter(|c| live_space.contains_stream(c.stream))
            .cloned()
            .collect();
        let model = PlanningModel::build(&self.inputs(&live_space, new_streams, &live_cuts));
        self.root_basis = self
            .root_basis
            .as_ref()
            .map(|b| model.remap_basis_from(&sk.model, b));
        self.skeleton = Some(Skeleton {
            model,
            space: live_space,
            cuts: live_cuts,
            query_log: live_log,
        });
        self.lp_cache.invalidate();
    }

    /// Mirrors `SqprPlanner::plan_streams` for one demanded stream.
    fn plan_round(&mut self, q: QueryId, demanded: StreamId, space: &PlanSpace) -> Round {
        let new_streams = [demanded];
        let incremental = self.config.reuse_solver_context;
        if !incremental {
            self.skeleton = None;
            self.root_basis = None;
            self.lp_cache = LpCacheSlot::new();
        }
        if incremental {
            let span = self.tracer.enter("core.model.extend");
            self.maybe_compact(space, &new_streams);
            self.tracer.exit(span);
        }
        let mut cuts: Vec<AvailabilityCut> = Vec::new();
        let mut warm: Option<Vec<f64>> = None;
        let mut admitting_start = false;
        let mut round = 0;
        loop {
            round += 1;
            let last_round = round >= MAX_CUT_ROUNDS;
            let mut cold_model = None;
            let model: &PlanningModel = if incremental {
                let span = self.tracer.enter("core.model.extend");
                let (mut sk, extended) = match self.skeleton.take() {
                    None => (
                        Skeleton {
                            model: PlanningModel::build(&self.inputs(space, &new_streams, &cuts)),
                            space: space.clone(),
                            cuts: cuts.clone(),
                            query_log: vec![(q, space.clone())],
                        },
                        false,
                    ),
                    Some(mut sk) => {
                        if round == 1 {
                            sk.query_log.push((q, space.clone()));
                        }
                        sk.space.merge(space);
                        for c in cuts.drain(..) {
                            if !sk.cuts.contains(&c) {
                                sk.cuts.push(c);
                            }
                        }
                        let Skeleton {
                            model,
                            space: all,
                            cuts: all_cuts,
                            ..
                        } = &mut sk;
                        model.extend(&self.inputs(all, &new_streams, all_cuts));
                        (sk, true)
                    }
                };
                self.tracer.exit(span);
                let span = self.tracer.enter("core.model.reduce");
                if extended {
                    sk.model.apply_reduction(space, &self.state, &self.catalog);
                }
                let window = self.config.lp_keep_rejected_free_window;
                if window > 0 {
                    let start = sk.query_log.len().saturating_sub(window);
                    let rejected = sk.query_log[start..]
                        .iter()
                        .filter(|(lq, _)| !self.state.admitted().contains_key(lq))
                        .map(|(_, sp)| sp);
                    sk.model.set_fold_exemptions(rejected);
                }
                self.tracer.exit(span);
                self.skeleton = Some(sk);
                match &self.skeleton {
                    Some(sk) => &sk.model,
                    None => unreachable!("assigned on the line above"),
                }
            } else {
                let span = self.tracer.enter("core.model.extend");
                let built = PlanningModel::build(&self.inputs(space, &new_streams, &cuts));
                self.tracer.exit(span);
                cold_model.insert(built)
            };

            // Computed once per submission; cut rounds add rows only.
            if round == 1 {
                let span = self.tracer.enter("core.model.warm_start");
                warm = match greedy_admit(&self.catalog, &self.state, demanded, 0) {
                    Some(cand) => {
                        let w = model.warm_start(&cand, &self.catalog);
                        admitting_start =
                            w.as_ref().is_some_and(|w| model.milp.is_feasible(w, 1e-6));
                        if admitting_start {
                            w
                        } else {
                            model.warm_start(&self.state, &self.catalog)
                        }
                    }
                    None => model.warm_start(&self.state, &self.catalog),
                };
                self.tracer.exit(span);
            }

            let opts = self.milp_options(admitting_start);
            let new_cuts: RefCell<Vec<AvailabilityCut>> = RefCell::new(Vec::new());
            let filter_calls: RefCell<Vec<(u64, u64)>> = RefCell::new(Vec::new());
            let span = self.tracer.enter("milp.solve");
            let solved = {
                let tracer = &self.tracer;
                let (state, catalog) = (&self.state, &self.catalog);
                let filter_fn = |xsol: &[f64]| {
                    let start = tracer.now_ns();
                    let violated = model.find_acausal_cuts(xsol, state, catalog);
                    let ok = violated.is_empty();
                    new_cuts.borrow_mut().extend(violated);
                    filter_calls.borrow_mut().push((start, tracer.now_ns()));
                    ok
                };
                let filter: IncumbentFilter<'_> = &filter_fn;
                let warm_ctx = MilpWarmStart {
                    start: warm.as_deref(),
                    root_basis: if incremental {
                        self.root_basis.as_ref()
                    } else {
                        None
                    },
                };
                let cache = incremental.then_some(&mut self.lp_cache);
                match solve_preemptible(
                    &model.milp,
                    &opts,
                    warm_ctx,
                    Some(filter),
                    cache,
                    usize::MAX,
                ) {
                    SolveOutcome::Done(r) => r,
                    // A `usize::MAX` quantum never suspends; fall back to
                    // the anytime snapshot rather than panic mid-trace.
                    SolveOutcome::Suspended(s) => s.incumbent_result(),
                }
            };
            for (lo, hi) in filter_calls.into_inner() {
                self.tracer.record_child("core.model.filter", span, lo, hi);
            }
            self.tracer.exit(span);

            let mut fresh = new_cuts.into_inner();
            match &self.skeleton {
                Some(sk) if incremental => fresh.retain(|c| !sk.cuts.contains(c)),
                _ => fresh.retain(|c| !cuts.contains(c)),
            }
            if incremental {
                self.root_basis = solved.root_basis.clone();
            }
            if !fresh.is_empty() && !last_round {
                cuts.extend(fresh);
                continue;
            }

            let span = self.tracer.enter("core.model.decode_install");
            let mut admitted = false;
            if let Some(x) = &solved.x {
                if model.admits(x, demanded) {
                    let decoded = model.decode(x, &self.state);
                    let mut candidate = self.state.clone();
                    decoded.install(&mut candidate);
                    if candidate.is_valid(&self.catalog) && serves_admitted(&candidate) {
                        self.state = candidate;
                        admitted = self.state.provider_of(demanded).is_some();
                    }
                }
            }
            self.tracer.exit(span);

            self.tally.solver_rounds += 1;
            self.tally.cut_rounds += round;
            self.last_cold_model = cold_model;
            return Round {
                admitted,
                reused: false,
                nodes: solved.nodes,
                lp_iterations: solved.lp_iterations,
            };
        }
    }

    /// Mirrors the `MilpOptions` literal of `SqprPlanner::plan_streams`.
    fn milp_options(&self, admitting_start: bool) -> MilpOptions {
        let cfg = &self.config;
        MilpOptions {
            max_nodes: if admitting_start {
                cfg.budget.max_nodes.min(cfg.improve_nodes.max(1))
            } else {
                cfg.budget.max_nodes
            },
            time_limit: None,
            gap_tol: cfg.gap_tol,
            int_tol: 1e-6,
            dive_every: if admitting_start { 0 } else { 16 },
            cutoff_margin: if admitting_start {
                0.0
            } else {
                0.5 * cfg.weights.lambda1
            },
            presolve: true,
            reuse_bases: cfg.reuse_solver_context,
            cross_solve_factors: cfg.lp_cross_solve_factors,
            threads: cfg.lp_threads,
            lp: self.lp_options(),
        }
    }

    /// The simplex options every LP of a planning round is solved with.
    pub fn lp_options(&self) -> SimplexOptions {
        SimplexOptions {
            perturb: 1e-7,
            ratio_test: self.config.lp_ratio_test,
            pricing: self.config.lp_pricing,
            basis_update: self.config.lp_basis_update,
            ..SimplexOptions::default()
        }
    }
}

fn serves_admitted(state: &DeploymentState) -> bool {
    state
        .admitted()
        .values()
        .all(|s| state.provider_of(*s).is_some())
}

/// λ-weighted quality of a deployment, summed in the same order as
/// `SqprPlanner::deployment_objective` so equal deployments give equal bits.
pub fn deployment_objective(
    state: &DeploymentState,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> f64 {
    let w = config.weights;
    let network: f64 = state
        .flows()
        .iter()
        .map(|&(_, _, s)| catalog.stream(s).rate)
        .sum();
    let cpu: f64 = state
        .placements()
        .iter()
        .map(|&(_, o)| catalog.operator(o).cpu_cost)
        .sum();
    w.lambda1 * state.num_admitted() as f64 - w.lambda2 * network - w.lambda3 * cpu
}
