//! The SQPR planner: Algorithm 1 (initial query planning).
//!
//! One `submit` call per arriving query: register the query's plan space,
//! short-circuit if its result stream is already provided (line 3 of
//! Algorithm 1), otherwise build the reduced MILP with constraint IV.9,
//! warm-start from the current deployment (which guarantees admitted
//! queries survive any timeout), solve under the configured budget, and
//! install the best incumbent if it admits the query.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use sqpr_dsps::{Catalog, DeploymentState, FailureAudit, HostId, QueryId, StreamId};
use sqpr_milp::{
    solve_preemptible, CacheStats, IncumbentFilter, LpCacheSlot, MilpOptions, MilpResult,
    MilpStatus, MilpWarmStart, Model, ModelBasis, PivotCounts, SearchState, SolveOutcome,
};

use crate::admission::{Admitted, RoundVerdict};
use crate::config::{AcyclicityMode, ObjectiveWeights, PlannerConfig, RelayPolicy};
use crate::greedy::greedy_admit;
use crate::model::{AvailabilityCut, ModelInputs, PlanningModel};
use crate::query::{full_space, register_join_query, PlanSpace, QuerySpec};

/// Typed rejection of a malformed planner request. Submission and
/// re-planning used to panic on these (deep inside query registration);
/// on the re-admission hot path of a failure storm a panic over one bad
/// query would take the whole recovery down, so they are surfaced as
/// values instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// A join query needs at least 2 *distinct* base streams.
    TooFewBases { distinct: usize },
    /// The stream id is not registered in the catalog.
    UnknownStream(StreamId),
    /// The stream exists but is a composite, not a base stream.
    NotABaseStream(StreamId),
    /// The query id was never submitted to this planner.
    UnknownQuery(QueryId),
}

impl fmt::Display for PlannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerError::TooFewBases { distinct } => {
                write!(
                    f,
                    "a join query needs >= 2 distinct base streams (got {distinct})"
                )
            }
            PlannerError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            PlannerError::NotABaseStream(s) => write!(f, "stream {s} is not a base stream"),
            PlannerError::UnknownQuery(q) => write!(f, "unknown query {q}"),
        }
    }
}

impl std::error::Error for PlannerError {}

/// Result of one planning round.
#[derive(Debug, Clone)]
pub struct PlanningOutcome {
    pub query: QueryId,
    pub admitted: bool,
    /// True when the query was satisfied by an existing provision without
    /// solving (Algorithm 1, line 3).
    pub reused_existing: bool,
    /// Branch & bound nodes explored.
    pub nodes: usize,
    /// Total LP simplex iterations.
    pub lp_iterations: usize,
    /// LP iterations broken down by simplex phase (phase-I, primal, dual).
    /// Warm bound-change re-solves should show up as `dual` pivots, not
    /// `phase1` — the bench asserts exactly that.
    pub lp_pivots: PivotCounts,
    /// Model size actually solved (0 when short-circuited).
    pub model_vars: usize,
    pub model_cons: usize,
    /// Final solver status of the round (`Optimal` for short-circuited
    /// submissions). Distinguishes budget-limited rounds (`Feasible` /
    /// `Unknown`) from proven ones — the recovery storm reports it per
    /// re-admitted query.
    pub status: MilpStatus,
    /// The round reused the persistent solver context (extended skeleton
    /// plus root-basis warm start) instead of building from scratch.
    pub incremental: bool,
    /// Compressed-LP cache activity of this round (counter deltas):
    /// `rebuilds` counts the B&B constructions that paid a fresh lowering
    /// (a bound moved or the skeleton grew), `patches` those served by the
    /// cached lowering with the round's cut rows appended; `refix_patches`
    /// reads 0. Zero on cold rounds (no cache) and short-circuited
    /// submissions.
    pub lp_cache: CacheStats,
    /// Anytime admission verdict of the round (see [`crate::admission`]):
    /// whether the admit/reject decision carries an optimality/infeasibility
    /// certificate or stopped on a budget/deadline. A
    /// [`crate::Rejected::DeadlineNoCertificate`] round may have parked a suspended
    /// search for the admission queue to retry
    /// ([`crate::AdmissionQueue`]) — the rejection is provisional.
    pub verdict: RoundVerdict,
}

impl PlanningOutcome {
    /// A round that reached the solver and closed through the install
    /// gate; `at_deadline` says its search was still open when its node
    /// deadline expired.
    fn solved(
        query: QueryId,
        model: &PlanningModel,
        result: &MilpResult,
        admitted: bool,
        at_deadline: bool,
    ) -> Self {
        PlanningOutcome {
            query,
            admitted,
            reused_existing: false,
            nodes: result.nodes,
            lp_iterations: result.lp_iterations,
            lp_pivots: result.lp_pivots,
            model_vars: model.num_vars(),
            model_cons: model.num_cons(),
            status: result.status,
            incremental: false,
            lp_cache: CacheStats::default(),
            verdict: RoundVerdict::of(admitted, result.status, at_deadline),
        }
    }

    /// A round that never reached the solver after `nodes` nodes: the
    /// short-circuit onto an existing provider (Algorithm 1, line 3 — the
    /// one proven verdict without a solve) or a fallback rung.
    /// `status` follows the verdict.
    pub(crate) fn unsolved(query: QueryId, verdict: RoundVerdict, nodes: usize) -> Self {
        let proven = verdict.is_proven();
        PlanningOutcome {
            query,
            admitted: verdict.is_admitted(),
            reused_existing: proven,
            nodes,
            lp_iterations: 0,
            lp_pivots: PivotCounts::default(),
            model_vars: 0,
            model_cons: 0,
            status: if proven {
                MilpStatus::Optimal
            } else {
                MilpStatus::Unknown
            },
            incremental: false,
            lp_cache: CacheStats::default(),
            verdict,
        }
    }
}

/// Sentinel query id batch rounds plan under: never logged, parked or
/// admitted as such ([`SqprPlanner::submit_batch`] admits the members).
const BATCH: QueryId = QueryId(u32::MAX);

/// Config fingerprint the cached skeleton depends on; a mismatch forces a
/// rebuild (weights are baked into objective coefficients, the policies
/// into the row structure, and a cold round's skeleton is not one the
/// incremental path has reduced).
#[derive(Debug, Clone, PartialEq)]
struct CacheSig {
    weights: ObjectiveWeights,
    relay_policy: RelayPolicy,
    acyclicity: AcyclicityMode,
    replan: bool,
    reduction: bool,
    reuse: bool,
    reuse_solver_context: bool,
}

impl CacheSig {
    fn of(config: &PlannerConfig) -> Self {
        CacheSig {
            weights: config.weights,
            relay_policy: config.relay_policy,
            acyclicity: config.acyclicity,
            replan: config.replan,
            reduction: config.reduction,
            reuse: config.reuse,
            reuse_solver_context: config.reuse_solver_context,
        }
    }
}

/// The model skeleton, the one record of what planning rounds have built:
/// on the incremental path it persists and grows by appending columns and
/// rows per submission, so LP bases stay transferable between solves; on
/// the cold path it lives for one submission. Cut rounds only append rows.
struct ModelCache {
    model: PlanningModel,
    sig: CacheSig,
    /// Which query contributed which plan space — the liveness input of
    /// skeleton compaction (a query that is no longer admitted is dead,
    /// and so are skeleton columns only *it* needed).
    query_log: Vec<(QueryId, PlanSpace)>,
}

/// Solver state carried across submissions: the cached skeleton, the
/// previous root-LP basis (the `(basis, incumbent)` pair of warm-started
/// incremental re-planning; the incumbent side is reconstructed from the
/// deployment each round, which survives model growth by construction),
/// and the cached compressed-LP lowering shared by the skeleton's branch &
/// bound constructions (see [`sqpr_milp::LpCacheSlot`]).
#[derive(Default)]
struct SolverContext {
    cache: Option<ModelCache>,
    root_basis: Option<ModelBasis>,
    lp_cache: LpCacheSlot,
}

/// Counters describing how the incremental machinery behaved over the
/// planner's lifetime (never reset by context invalidation). These make
/// silent degradations observable: a `reuse_solver_context = true` planner
/// whose configuration cannot actually be extended incrementally
/// (`replan = false`) shows up as `config_fallback_rounds` instead of
/// quietly building cold models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Planning rounds served by the persistent solver context.
    pub incremental_rounds: usize,
    /// Rounds built cold because `reuse_solver_context` is disabled.
    pub cold_rounds: usize,
    /// Rounds where context reuse was requested but the configuration
    /// forced a cold fresh build (frozen re-planning, `replan = false`;
    /// the `ProducersOnly` relay ablation extends incrementally since its
    /// relay rows joined the keyed row registries).
    pub config_fallback_rounds: usize,
    /// Skeleton compactions (column GC of dead queries' plan spaces).
    pub compactions: usize,
    /// Dead skeleton columns dropped by compactions, cumulative.
    pub compacted_columns: usize,
}

/// A planning round preempted at its node deadline with the search still
/// open: the suspended branch & bound plus everything needed to resume and
/// decode it later. The model is a *clone* of what the round solved — the
/// planner's live skeleton may be extended by other submissions while this
/// round is parked, and the suspended search's `x` vector indexes the
/// model it was built from.
pub struct PreemptedRound {
    pub(crate) query: QueryId,
    pub(crate) streams: Vec<StreamId>,
    pub(crate) model: Box<PlanningModel>,
    pub(crate) state: Box<SearchState>,
}

impl PreemptedRound {
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Branch & bound nodes the parked search has explored so far.
    pub fn nodes_done(&self) -> usize {
        self.state.nodes_done()
    }
}

impl fmt::Debug for PreemptedRound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreemptedRound")
            .field("query", &self.query)
            .field("streams", &self.streams)
            .field("state", &self.state)
            .finish()
    }
}

/// Resolution of one bounded resume attempt on a parked round (an
/// unbounded one, [`SqprPlanner::finish_parked`], always resolves).
// Both arms are transient — consumed immediately by the admission queue —
// so the size skew never sits in a collection.
#[allow(clippy::large_enum_variant, reason = "both arms are transient")]
pub(crate) enum ResumeOutcome {
    /// The round reached a terminal verdict (proven, or the incumbent was
    /// installed at the deadline).
    Resolved(PlanningOutcome),
    /// The deadline expired again with no admitting incumbent; the round is
    /// handed back, still suspended.
    StillOpen(PreemptedRound),
}

/// The slice driver every round runs through, live or resumed: `first`
/// runs the opening slice (a fresh [`solve_preemptible`] or a parked
/// search's resume) given its node allowance, and the search continues over
/// `model` in `quantum`-node slices, suspending strictly between node
/// evaluations.
/// `start` is the node count the search has already done and `target` the
/// absolute count at which it is preempted; a slice never runs past the
/// target, so the deadline is exact at any quantum. A preempted search
/// comes back with its anytime incumbent snapshot. `quantum = 0` means
/// unsliced, and slicing is transparent: bit-identical results at every
/// quantum, with or without a target (the scenario corpus's sliced twins
/// pin this).
fn drive_preemptible(
    model: &Model,
    first: impl FnOnce(usize) -> SolveOutcome,
    filter: Option<IncumbentFilter<'_>>,
    start: usize,
    target: Option<usize>,
    quantum: usize,
) -> (MilpResult, Option<Box<SearchState>>) {
    let quantum = if quantum == 0 { usize::MAX } else { quantum };
    // A target already reached suspends before any evaluation.
    let slice = |done: usize| target.map_or(quantum, |t| quantum.min(t.saturating_sub(done)));
    let mut outcome = first(slice(start));
    loop {
        let state = match outcome {
            SolveOutcome::Done(r) => return (r, None),
            SolveOutcome::Suspended(state) => state,
        };
        let done = state.nodes_done();
        if target.is_some_and(|t| done >= t) {
            return (state.incumbent_result(), Some(state));
        }
        outcome = state.resume(model, filter, slice(done));
    }
}

/// The install gate every solved round closes through: decodes `x`
/// against the model it indexes, installs it when the result is a valid
/// deployment ([`DeploymentState::is_valid`], whose `QueryUnserved` rule
/// covers every admitted query), and admits `q` when it serves all of
/// `streams` (batch rounds admit their members themselves). Returns
/// whether the round admitted.
fn install_plan(
    state: &mut DeploymentState,
    catalog: &Catalog,
    q: QueryId,
    streams: &[StreamId],
    model: &PlanningModel,
    x: Option<&[f64]>,
) -> bool {
    let Some(x) = x.filter(|x| streams.iter().any(|&s| model.admits(x, s))) else {
        return false;
    };
    let mut candidate = state.clone();
    model.decode(x, state).install(&mut candidate);
    if !candidate.is_valid(catalog) {
        return false;
    }
    *state = candidate;
    let admitted = streams.iter().all(|&s| state.provider_of(s).is_some());
    if admitted && q != BATCH {
        for &s in streams {
            state.admit_query(q, s);
        }
    }
    admitted
}

/// The SQPR query planner (paper §IV).
pub struct SqprPlanner {
    catalog: Catalog,
    state: DeploymentState,
    config: PlannerConfig,
    next_query: u32,
    outcomes: Vec<PlanningOutcome>,
    queries: Vec<QuerySpec>,
    ctx: SolverContext,
    stats: SolverStats,
    /// The round most recently preempted at its node deadline, awaiting
    /// collection by the admission queue ([`Self::take_preempted_round`]).
    preempt: Option<PreemptedRound>,
}

impl SqprPlanner {
    pub fn new(catalog: Catalog, config: PlannerConfig) -> Self {
        SqprPlanner {
            catalog,
            state: DeploymentState::new(),
            config,
            next_query: 0,
            outcomes: Vec::new(),
            queries: Vec::new(),
            ctx: SolverContext::default(),
            stats: SolverStats::default(),
            preempt: None,
        }
    }

    /// Takes the round the last submission parked at its node deadline (if
    /// any). The caller — normally [`crate::AdmissionQueue`] — becomes
    /// responsible for eventually resolving it; a round left here is
    /// replaced by the next preemption, so collect it promptly.
    pub fn take_preempted_round(&mut self) -> Option<PreemptedRound> {
        self.preempt.take()
    }

    /// Lifetime counters of the incremental machinery (see [`SolverStats`]).
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Counters of the *current* solver context's compressed-LP cache
    /// (reset whenever the context is invalidated).
    pub fn lp_cache_stats(&self) -> CacheStats {
        self.ctx.lp_cache.stats()
    }

    /// Drops the cached model skeleton and root basis. Called on every
    /// mutation the incremental bookkeeping cannot patch (rate updates
    /// change objective/constraint coefficients; removals shrink the
    /// deployment under the skeleton's feet).
    fn invalidate_solver_context(&mut self) {
        self.ctx = SolverContext::default();
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn state(&self) -> &DeploymentState {
        &self.state
    }

    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    pub fn config_mut(&mut self) -> &mut PlannerConfig {
        &mut self.config
    }

    pub fn outcomes(&self) -> &[PlanningOutcome] {
        &self.outcomes
    }

    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    pub fn num_admitted(&self) -> usize {
        self.state.num_admitted()
    }

    /// λ-weighted quality of the *current deployment*: admissions minus
    /// network and CPU usage, weighted like the model objective but
    /// computed from the installed state — model-independent, so planners
    /// with different free spaces (warm vs. cold, reduced vs. full) are
    /// directly comparable.
    pub fn deployment_objective(&self) -> f64 {
        let w = self.config.weights;
        let network: f64 = self
            .state
            .flows()
            .iter()
            .map(|&(_, _, s)| self.catalog.stream(s).rate)
            .sum();
        let cpu: f64 = self
            .state
            .placements()
            .iter()
            .map(|&(_, o)| self.catalog.operator(o).cpu_cost)
            .sum();
        w.lambda1 * self.state.num_admitted() as f64 - w.lambda2 * network - w.lambda3 * cpu
    }

    fn reuse_tag(&self, q: QueryId) -> u64 {
        if self.config.reuse {
            0
        } else {
            u64::from(q.0) + 1
        }
    }

    /// Validates a submission's base streams before anything is registered
    /// or mutated, so malformed input is a clean [`PlannerError`] instead
    /// of a panic halfway through catalog interning.
    fn validate_bases(&self, bases: &[StreamId]) -> Result<(), PlannerError> {
        let distinct: BTreeSet<StreamId> = bases.iter().copied().collect();
        if distinct.len() < 2 {
            return Err(PlannerError::TooFewBases {
                distinct: distinct.len(),
            });
        }
        for &s in &distinct {
            if s.index() >= self.catalog.num_streams() {
                return Err(PlannerError::UnknownStream(s));
            }
            if self.catalog.source_host(s).is_none() {
                return Err(PlannerError::NotABaseStream(s));
            }
        }
        Ok(())
    }

    /// Submits one k-way join query over the given base streams.
    pub fn submit(&mut self, bases: &[StreamId]) -> Result<PlanningOutcome, PlannerError> {
        self.validate_bases(bases)?;
        let q = QueryId(self.next_query);
        self.next_query += 1;
        let (spec, outcome) = self.register_and_plan(q, bases, true);
        self.queries.push(spec);
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// The step a submission and a re-plan share: register the query's
    /// plan space, short-circuit if its result stream is already provided
    /// (Algorithm 1, line 3), otherwise run a planning round — bounded by
    /// the round deadline only when `deadline_bounded`.
    fn register_and_plan(
        &mut self,
        q: QueryId,
        bases: &[StreamId],
        deadline_bounded: bool,
    ) -> (QuerySpec, PlanningOutcome) {
        let tag = self.reuse_tag(q);
        let (spec, space) = register_join_query(&mut self.catalog, q, bases, tag);
        let outcome = if self.state.provider_of(spec.result).is_some() {
            self.state.admit_query(q, spec.result);
            PlanningOutcome::unsolved(q, RoundVerdict::Admitted(Admitted::Proven), 0)
        } else {
            self.plan_streams(q, &[spec.result], &space, deadline_bounded)
        };
        (spec, outcome)
    }

    /// Submits a batch of queries planned in a single optimisation (paper
    /// Fig. 4(b)): one model whose free space is the union of the batch's
    /// plan spaces, with the budget scaled by the batch size by the caller.
    pub fn submit_batch(
        &mut self,
        batch: &[Vec<StreamId>],
    ) -> Result<Vec<PlanningOutcome>, PlannerError> {
        // Validate the whole batch before registering anything: a rejected
        // batch leaves the planner untouched.
        for bases in batch {
            self.validate_bases(bases)?;
        }
        let mut specs = Vec::new();
        let mut merged = PlanSpace::default();
        let mut new_streams = Vec::new();
        let mut pre_provided = Vec::new();
        for bases in batch {
            let q = QueryId(self.next_query);
            self.next_query += 1;
            let tag = self.reuse_tag(q);
            let (spec, space) = register_join_query(&mut self.catalog, q, bases, tag);
            merged.merge(&space);
            let provided = self.state.provider_of(spec.result).is_some();
            pre_provided.push(provided);
            if !provided {
                new_streams.push(spec.result);
            }
            specs.push(spec);
        }
        new_streams.sort();
        new_streams.dedup();

        let shared = if new_streams.is_empty() {
            None
        } else {
            // Batch rounds are never parked (their members cannot be
            // resumed individually), so they run deadline-free.
            let outcome = self.plan_streams(BATCH, &new_streams, &merged, false);
            // Batch rounds plan under a sentinel id; log the merged space
            // under each member so skeleton compaction sees them as live
            // while they stay admitted.
            if let Some(cache) = &mut self.ctx.cache {
                for spec in &specs {
                    cache.query_log.push((spec.id, merged.clone()));
                }
            }
            Some(outcome)
        };

        let mut outcomes = Vec::new();
        for (spec, was_provided) in specs.into_iter().zip(pre_provided) {
            let admitted = self.state.provider_of(spec.result).is_some();
            if admitted {
                self.state.admit_query(spec.id, spec.result);
            }
            let mut o = shared.clone().unwrap_or_else(|| {
                PlanningOutcome::unsolved(spec.id, RoundVerdict::Admitted(Admitted::Proven), 0)
            });
            o.query = spec.id;
            o.admitted = admitted;
            o.reused_existing = was_provided;
            self.queries.push(spec);
            self.outcomes.push(o.clone());
            outcomes.push(o);
        }
        Ok(outcomes)
    }

    /// Whether submissions may reuse the persistent solver context.
    /// `replan = false` is the one remaining gated-out configuration: it
    /// freezes variables from a state snapshot, which the skeleton cannot
    /// patch. (`ProducersOnly` relays used to be gated too; their relay
    /// rows now live in a keyed registry that later-added producers join,
    /// so the ablation extends incrementally like the default policy.)
    fn incremental_eligible(&self) -> bool {
        self.config.reuse_solver_context && self.config.replan
    }

    /// Skeleton column GC: when more than `skeleton_gc_threshold` of the
    /// cached skeleton's columns belong to queries that are no longer
    /// admitted (rejected or superseded), rebuild the skeleton from the
    /// *live* plan spaces instead of letting it grow forever. The root
    /// basis is carried across the rebuild by re-mapping it through the
    /// `(host, stream/operator)` keys ([`PlanningModel::remap_basis_from`]),
    /// so the next solve still warm-starts.
    fn maybe_compact_skeleton(&mut self, space: &PlanSpace, new_streams: &[StreamId]) {
        let threshold = self.config.skeleton_gc_threshold;
        let h = self.catalog.num_hosts();
        let Some(cache) = &self.ctx.cache else {
            return;
        };
        let (covered_streams, covered_ops) = cache.model.free_space();
        // Column weight per skeleton entity: a stream owns h availability
        // columns plus h(h-1) flow columns (plus potentials in Constraints
        // mode, same order); an operator owns h placement columns.
        let stream_cols = h * h;
        let op_cols = h;
        let mut live_streams: BTreeSet<StreamId> = space.streams.iter().copied().collect();
        let mut live_ops: BTreeSet<sqpr_dsps::OperatorId> =
            space.operators.iter().copied().collect();
        for (lq, ls) in &cache.query_log {
            if self.state.admitted().contains_key(lq) {
                live_streams.extend(ls.streams.iter().copied());
                live_ops.extend(ls.operators.iter().copied());
            }
        }
        let dead_streams = covered_streams.difference(&live_streams).count();
        let dead_ops = covered_ops.difference(&live_ops).count();
        let dead_cols = dead_streams * stream_cols + dead_ops * op_cols;
        let total_cols = covered_streams.len() * stream_cols + covered_ops.len() * op_cols;
        if total_cols == 0 || (dead_cols as f64) <= threshold * total_cols as f64 {
            return;
        }

        // Rebuild from the live spaces only; cuts on dropped streams go
        // too. The current submission's own space is merged but not logged
        // here — the extend path logs it (once) like any other round.
        let mut live_space = space.clone();
        let mut live_log: Vec<(QueryId, PlanSpace)> = Vec::new();
        for (lq, ls) in &cache.query_log {
            if self.state.admitted().contains_key(lq) {
                live_space.merge(ls);
                live_log.push((*lq, ls.clone()));
            }
        }
        let live_cuts: Vec<AvailabilityCut> = cache
            .model
            .cuts()
            .iter()
            .filter(|c| live_space.contains_stream(c.stream))
            .cloned()
            .collect();
        let model = PlanningModel::build(&model_inputs(
            &self.catalog,
            &self.state,
            &self.config,
            &live_space,
            new_streams,
            &live_cuts,
        ));
        let Some(old) = self.ctx.cache.take() else {
            return;
        };
        self.ctx.root_basis = self
            .ctx
            .root_basis
            .as_ref()
            .map(|b| model.remap_basis_from(&old.model, b));
        self.stats.compactions += 1;
        self.stats.compacted_columns += dead_cols;
        self.ctx.cache = Some(ModelCache {
            model,
            sig: old.sig,
            query_log: live_log,
        });
        // The compressed-LP cache indexes the old skeleton's columns.
        self.ctx.lp_cache.invalidate();
    }

    /// Core planning round: build or extend, warm-start, solve, decode,
    /// install.
    fn plan_streams(
        &mut self,
        q: QueryId,
        new_streams: &[StreamId],
        space: &PlanSpace,
        deadline_bounded: bool,
    ) -> PlanningOutcome {
        let full;
        let space = if self.config.reduction {
            space
        } else {
            full = full_space(&self.catalog);
            &full
        };
        let incremental = self.incremental_eligible();
        if incremental {
            self.stats.incremental_rounds += 1;
        } else if self.config.reuse_solver_context {
            // Reuse was requested but the configuration cannot be extended
            // incrementally — make the silent cold fallback observable.
            self.stats.config_fallback_rounds += 1;
        } else {
            self.stats.cold_rounds += 1;
        }
        let sig = CacheSig::of(&self.config);
        if !incremental || self.ctx.cache.as_ref().is_some_and(|c| c.sig != sig) {
            self.ctx = SolverContext::default();
        }
        // Snapshot after the potential context reset: the outcome reports
        // this round's deltas of the (monotone) compressed-LP cache
        // counters. `LpCacheSlot::invalidate` (compaction) keeps them.
        let cache_stats_before = self.ctx.lp_cache.stats();
        if incremental {
            self.maybe_compact_skeleton(space, new_streams);
        }
        // The submission's skeleton: built (the cold path, and the
        // incremental path's first round), or extended and re-reduced.
        let cache = match self.ctx.cache.take() {
            None => ModelCache {
                model: PlanningModel::build(&model_inputs(
                    &self.catalog,
                    &self.state,
                    &self.config,
                    space,
                    new_streams,
                    &[],
                )),
                sig,
                query_log: log_entry(q, space),
            },
            Some(mut cache) => {
                cache.query_log.extend(log_entry(q, space));
                cache.model.extend(&model_inputs(
                    &self.catalog,
                    &self.state,
                    &self.config,
                    space,
                    new_streams,
                    &[],
                ));
                cache
                    .model
                    .apply_reduction(space, &self.state, &self.catalog);
                cache
            }
        };
        // Read before the skeleton stays borrowed for the rest of the
        // round. (In the reuse-off ablation batch submissions use a
        // sentinel query id, so the tag misses the per-query private
        // streams and construction falls back to the non-admitting start:
        // graceful degradation; B&B still searches.)
        let tag = self.reuse_tag(q);
        let lazy = self.config.acyclicity == AcyclicityMode::Lazy;
        let model = &mut self.ctx.cache.insert(cache).model;

        // Warm starts: prefer a constructively *admitting* start (greedy,
        // reuse-aware); otherwise fall back to the current deployment
        // (non-admitting but always feasible thanks to IV.9). Computed
        // once per submission: later cut rounds only append availability
        // cut rows, which any causal start satisfies by construction, so
        // the vector (variable-indexed, and cuts add no variables) stays
        // valid verbatim. On the incremental path the LP cache judges the
        // admitting start on the lowering the first tree runs over, at the
        // cost of its kept rows, and that tree then reuses the verdict. A
        // cold round's solve lowers into a private slot of its own, so its
        // start is checked against the model in full.
        let mut warm: Option<Vec<f64>> = None;
        let mut admitting_start = false;
        if self.config.warm_start {
            let lp_cache = &mut self.ctx.lp_cache;
            let admitting = new_streams
                .iter()
                .try_fold(self.state.clone(), |cand, &s| {
                    greedy_admit(&self.catalog, &cand, s, tag)
                })
                .and_then(|cand| model.warm_start(&cand, &self.catalog))
                .filter(|w| {
                    if incremental {
                        lp_cache.start_is_feasible(&model.milp, w, 1e-6)
                    } else {
                        model.milp.is_feasible(w, 1e-6)
                    }
                });
            admitting_start = admitting.is_some();
            warm = admitting.or_else(|| model.warm_start(&self.state, &self.catalog));
        }
        debug_assert!(
            warm.as_ref()
                .is_none_or(|w| model.milp.is_feasible(w, 1e-6)),
            "warm start must be feasible"
        );

        // Big-M acyclicity rows make the relaxations heavily degenerate;
        // the perturbation cuts simplex iteration counts several-fold
        // (on top of the Harris/long-step ratio tests, which attack the
        // same degeneracy from the ratio-test side).
        let lp_opts = sqpr_lp::SimplexOptions {
            perturb: 1e-7,
            ratio_test: self.config.lp_ratio_test,
            pricing: self.config.lp_pricing,
            basis_update: self.config.lp_basis_update,
            ..sqpr_lp::SimplexOptions::default()
        };
        let opts = MilpOptions {
            // With an admitting incumbent, λ1-dominance means the incumbent
            // is within the MIP gap after a handful of nodes; reserve the
            // full budget for the hard case where construction failed
            // (resource-tight systems — exactly the paper's Fig. 6 regime).
            max_nodes: if admitting_start {
                self.config
                    .budget
                    .max_nodes
                    .min(self.config.improve_nodes.max(1))
            } else {
                self.config.budget.max_nodes
            },
            time_limit: self.config.budget.wall_clock_ms.map(Duration::from_millis),
            gap_tol: self.config.gap_tol,
            int_tol: 1e-6,
            // Dives are expensive (one LP per fixing); with an admitting
            // incumbent in hand they rarely pay off, so admitting rounds
            // run no dive at all, the root's included. A dive candidate the
            // acyclicity filter rejects costs a whole extra cut round.
            dive_every: if admitting_start { 0 } else { 16 },
            // Without an admitting start, the only improvement worth
            // finding is an admission (non-admitting results are
            // discarded below — `install` is gated on `admits_any`),
            // and λ1-dominance prices one admission at λ1 minus a
            // bounded resource swing. Pruning everything within half an
            // admission of the incumbent turns rejection proofs from
            // full budget burns into a handful of nodes; admitting
            // solutions beat the incumbent by more than the margin, so
            // admit/reject decisions are untouched. With an admitting
            // start the solve is a placement-quality improvement pass,
            // where sub-λ1 gains are exactly the point — no margin.
            cutoff_margin: if admitting_start {
                0.0
            } else {
                0.5 * self.config.weights.lambda1
            },
            presolve: true,
            // In-tree parent-basis reuse is model-local and valid for
            // every config, so it follows the ablation flag directly
            // (not `incremental`): configs that merely fall back to
            // fresh builds (replan=false) keep it, while
            // `reuse_solver_context = false` is the full cold-start
            // path (fresh model, every LP from the slack identity).
            reuse_bases: self.config.reuse_solver_context,
            lp: lp_opts,
            // `cross_solve_factors` and `threads` are accepted and ignored.
            ..MilpOptions::default()
        };

        // Cutting-plane rounds: in lazy-acyclicity mode the branch & bound
        // rejects acausal incumbents; the cuts they violate are appended to
        // the skeleton and the model re-solved so the true optimum is not
        // lost to pruning. (They stay valid for every later submission.)
        let max_rounds = if lazy { 3 } else { 1 };
        let mut round = 1;
        // Node deadline accounting across cut rounds: the deadline is per
        // *planning round* (submission), not per construction.
        let mut nodes_spent = 0usize;
        loop {
            let new_cuts: std::cell::RefCell<Vec<AvailabilityCut>> =
                std::cell::RefCell::new(Vec::new());
            let warm_ctx = MilpWarmStart {
                start: warm.as_deref(),
                // The previous submission's root basis: the skeleton only
                // appended columns/rows since, so it adapts in place.
                root_basis: if incremental {
                    self.ctx.root_basis.as_ref()
                } else {
                    None
                },
            };
            // Every construction is driven through the preemptible solver
            // (the classic entry points are wrappers over it): sliced by
            // `node_quantum` and bounded by the round's remaining node
            // deadline.
            let node_budget = if deadline_bounded {
                self.config
                    .round_deadline
                    .map(|d| d.saturating_sub(nodes_spent))
            } else {
                None
            };
            let (result, open) = {
                let filter_fn = |xsol: &[f64]| {
                    let violated = model.find_acausal_cuts(xsol, &self.state, &self.catalog);
                    if violated.is_empty() {
                        true
                    } else {
                        new_cuts.borrow_mut().extend(violated);
                        false
                    }
                };
                let filter: Option<IncumbentFilter<'_>> = lazy.then_some(&filter_fn);
                // The compressed LP is served from the context's cache when
                // incremental: a construction after a bound moved or the
                // skeleton grew rebuilds it, carrying over every row none of
                // whose variables moved, and later cut rounds append their
                // rows in place — no per-construction skeleton scan.
                let cache = if incremental {
                    Some(&mut self.ctx.lp_cache)
                } else {
                    None
                };
                drive_preemptible(
                    &model.milp,
                    |n| solve_preemptible(&model.milp, &opts, warm_ctx, filter, cache, n),
                    filter,
                    0,
                    node_budget,
                    self.config.node_quantum,
                )
            };
            // A preempted search continues with its anytime incumbent
            // snapshot (always causal — the filter gates incumbents); the
            // suspended search is kept so a non-admitting round can park
            // for the admission queue.
            let preempted = open.is_some();
            nodes_spent += result.nodes;
            if incremental {
                if result.root_basis.is_some() {
                    self.ctx.root_basis = result.root_basis.clone();
                } else if !preempted {
                    // A preempted snapshot carries no root basis; keep the
                    // previous one rather than cold-starting the next round.
                    self.ctx.root_basis = None;
                }
            }
            // If acausal candidates were pruned, the claimed optimum may be
            // wrong: append their cuts' rows and re-solve (unless out of
            // rounds). The same skeleton, deployment and demanded streams
            // make this `extend` the pass that only adds cuts.
            let mut fresh = new_cuts.into_inner();
            fresh.retain(|c| !model.has_cut(c));
            if !fresh.is_empty() && round < max_rounds && !preempted {
                round += 1;
                model.extend(&model_inputs(
                    &self.catalog,
                    &self.state,
                    &self.config,
                    space,
                    new_streams,
                    &fresh,
                ));
                continue;
            }

            let x = result.x.as_deref();
            let admitted = install_plan(&mut self.state, &self.catalog, q, new_streams, model, x);
            let mut outcome = PlanningOutcome::solved(q, model, &result, admitted, preempted);
            outcome.incremental = incremental;
            outcome.lp_cache = self.ctx.lp_cache.stats().since(&cache_stats_before);
            // No admitting incumbent at the node deadline: park the search
            // with the model its solution vector indexes — a provisional
            // rejection. (Batch rounds run deadline-free, so never park.)
            if let Some(state) = open.filter(|_| !admitted) {
                self.preempt = Some(PreemptedRound {
                    query: q,
                    streams: new_streams.to_vec(),
                    model: Box::new(model.clone()),
                    state,
                });
            }
            return outcome;
        }
    }

    /// Grants a parked round `budget` further branch & bound nodes, sliced
    /// by `node_quantum`. On completion the result is decoded against the
    /// *parked* model and installed under the same defensive gates as a
    /// live round. At another deadline expiry the admitting incumbent is
    /// installed if there is one; otherwise the round is handed back still
    /// suspended.
    ///
    /// Availability cuts discovered while resuming are *dropped* — the
    /// parked LP cannot take new rows — but the filter still rejects every
    /// acausal incumbent, so admit/reject decisions stay sound; only
    /// placement optimality can degrade (the documented anytime trade).
    pub(crate) fn resume_parked(&mut self, round: PreemptedRound, budget: usize) -> ResumeOutcome {
        let PreemptedRound {
            query,
            streams,
            model,
            state,
        } = round;
        let base = state.nodes_done();
        let (result, open) = {
            let filter_fn = |xsol: &[f64]| {
                model
                    .find_acausal_cuts(xsol, &self.state, &self.catalog)
                    .is_empty()
            };
            let filter: Option<IncumbentFilter<'_>> =
                (self.config.acyclicity == AcyclicityMode::Lazy).then_some(&filter_fn);
            drive_preemptible(
                &model.milp,
                |n| state.resume(&model.milp, filter, n),
                filter,
                base,
                Some(base.saturating_add(budget)),
                self.config.node_quantum,
            )
        };
        let x = result.x.as_deref();
        let admitted = install_plan(&mut self.state, &self.catalog, query, &streams, &model, x);
        match open {
            Some(state) if !admitted => ResumeOutcome::StillOpen(PreemptedRound {
                query,
                streams,
                model,
                state,
            }),
            open => ResumeOutcome::Resolved(PlanningOutcome::solved(
                query,
                &model,
                &result,
                admitted,
                open.is_some(),
            )),
        }
    }

    /// Runs a parked round to completion — the unbounded resume — and
    /// returns its outcome. Each resume grants every node there is, and
    /// the search stops at its own node budget long before, so the first
    /// one resolves.
    pub(crate) fn finish_parked(&mut self, mut round: PreemptedRound) -> PlanningOutcome {
        loop {
            match self.resume_parked(round, usize::MAX) {
                ResumeOutcome::Resolved(outcome) => return outcome,
                ResumeOutcome::StillOpen(open) => round = open,
            }
        }
    }

    /// Updates a base stream's observed rate (propagating to derived
    /// streams and operator costs; see §IV-B). Rates are baked into the
    /// skeleton's coefficients, so the solver context is invalidated.
    pub fn update_base_rate(&mut self, s: StreamId, rate: f64) {
        self.catalog.update_base_rate(s, rate);
        self.invalidate_solver_context();
    }

    /// Removes a query; garbage-collects allocation pieces that no longer
    /// serve anything (used by adaptive re-planning, §IV-B).
    ///
    /// The solver context survives the removal when every model column the
    /// query contributed is currently *bound-fixed* (outside the active
    /// plan space): the next extension's demand-kind lifecycle relaxes the
    /// stream's IV.9 equality, `apply_reduction` re-fixes the vacated
    /// columns at their new (empty) deployment values, and the residual
    /// refresh re-credits the freed capacity — all bound changes the
    /// skeleton takes in place, so the next round lowers through the LP
    /// cache's incremental rebuild and a failure storm's remove/re-admit
    /// churn does not cold-start the context. If any of the
    /// query's columns are still free (it was planned in the latest round
    /// and nothing re-fixed them yet), the context is invalidated as
    /// before.
    pub fn remove_query(&mut self, q: QueryId) -> bool {
        let Some(stream) = self.state.remove_query(q) else {
            return false;
        };
        // Other queries may demand the same stream.
        let still_needed = self.state.admitted().values().any(|&s| s == stream);
        if !still_needed {
            self.state.clear_provided(stream);
            garbage_collect(&mut self.state, &self.catalog);
        }
        if !self.context_survives_removal(q) {
            self.invalidate_solver_context();
        }
        true
    }

    /// Whether the cached skeleton can absorb the removal of `q` with
    /// bound changes alone: every column of each of the query's logged
    /// plan spaces must be bound-fixed. A query with no log entries (it
    /// short-circuited onto an existing provider) contributed no columns
    /// of its own, so the context trivially survives.
    fn context_survives_removal(&self, q: QueryId) -> bool {
        let Some(cache) = &self.ctx.cache else {
            return false;
        };
        cache
            .query_log
            .iter()
            .filter(|(lq, _)| *lq == q)
            .all(|(_, sp)| cache.model.space_is_bound_fixed(sp))
    }

    // ----- fault model & recovery ---------------------------------------

    /// Fails a host: its capacities and every link touching it drop to
    /// zero. The solver context is *kept* — capacities live in row bounds
    /// that every extension refreshes from the catalog, so the next round
    /// re-lowers the skeleton through the LP cache's incremental rebuild
    /// instead of starting cold. Call
    /// [`Self::absorb_failures`] afterwards to audit and shed the
    /// displaced allocations. Returns false if the host was already down
    /// or is not in the catalog.
    pub fn fail_host(&mut self, h: HostId) -> bool {
        self.catalog.fail_host(h)
    }

    /// Restores a previously failed host to its configured capacities.
    pub fn restore_host(&mut self, h: HostId) -> bool {
        self.catalog.restore_host(h)
    }

    /// Degrades the directed link `h -> m` to the given effective capacity
    /// (panics as [`Catalog::degrade_link`] does). Returns false if either
    /// host is not in the catalog.
    pub fn degrade_link(&mut self, h: HostId, m: HostId, capacity: f64) -> bool {
        self.catalog.degrade_link(h, m, capacity)
    }

    /// Restores the directed link `h -> m` to its configured capacity.
    /// Returns false if either host is not in the catalog.
    pub fn restore_link(&mut self, h: HostId, m: HostId) -> bool {
        self.catalog.restore_link(h, m)
    }

    /// Reconnects base streams orphaned by host failures to surviving
    /// ingest hosts ([`Catalog::rehome_orphaned_sources`]). Availability
    /// grants live in row bounds the next extension refreshes, so the
    /// moves keep the solver context like the failures themselves.
    pub fn rehome_orphaned_sources(&mut self) -> Vec<(StreamId, HostId, HostId)> {
        self.catalog.rehome_orphaned_sources()
    }

    /// Audits the deployment against the current fault set, installs the
    /// surviving allocation and garbage-collects orphaned pieces. The
    /// returned audit lists the displaced queries (ascending id) — the
    /// re-admission order of a recovery storm ([`crate::recovery`]).
    ///
    /// Like [`Self::remove_query`] on the bound-fixed path, this keeps the
    /// solver context: the shrink is absorbed by the next extension's
    /// demand/residual/pin refreshes and `apply_reduction`'s re-fixing, so
    /// storm rounds stay on the warm path: one incremental rebuild each,
    /// their cut rounds appended. Queries whose columns are
    /// still free in the skeleton force an invalidation (same rule as
    /// removal).
    pub fn absorb_failures(&mut self) -> FailureAudit {
        let audit = self.state.audit_failures(&self.catalog);
        let survives = audit
            .displaced
            .iter()
            .all(|&q| self.context_survives_removal(q));
        self.state = audit.survivor.clone();
        garbage_collect(&mut self.state, &self.catalog);
        if !survives {
            self.invalidate_solver_context();
        }
        audit
    }

    /// Constructive fallback admission for one already-registered query:
    /// the greedy baseline placement (no solver). Used by the recovery
    /// storm when its budget runs dry — a degraded-but-served placement
    /// beats dropping the query. Returns the outcome, or an error if `q`
    /// was never submitted.
    pub fn admit_greedy(&mut self, q: QueryId) -> Result<bool, PlannerError> {
        let spec = self
            .queries
            .iter()
            .find(|s| s.id == q)
            .ok_or(PlannerError::UnknownQuery(q))?;
        let result = spec.result;
        if self.state.provider_of(result).is_some() {
            self.state.admit_query(q, result);
            return Ok(true);
        }
        let tag = self.reuse_tag(q);
        match greedy_admit(&self.catalog, &self.state, result, tag) {
            Some(next) => {
                self.state = next;
                self.state.admit_query(q, result);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Re-registers and re-plans an existing query (remove + re-add).
    /// Returns the new outcome.
    pub fn replan_query(&mut self, q: QueryId) -> Result<PlanningOutcome, PlannerError> {
        let spec = self
            .queries
            .iter()
            .find(|s| s.id == q)
            .cloned()
            .ok_or(PlannerError::UnknownQuery(q))?;
        self.remove_query(q);
        let bases: Vec<StreamId> = spec.bases.iter().copied().collect();
        // Replans (adaptation, recovery, retries) run deadline-free: the
        // admission SLO covers fresh submissions; internal re-planning has
        // its own budgets (`StormBudget`, drift thresholds) and must never
        // leave a parked round behind the admission queue's back.
        Ok(self.register_and_plan(q, &bases, false).1)
    }
}

/// The inputs of one skeleton construction or extension under `config`.
fn model_inputs<'a>(
    catalog: &'a Catalog,
    state: &'a DeploymentState,
    config: &PlannerConfig,
    space: &'a PlanSpace,
    new_streams: &'a [StreamId],
    cuts: &'a [AvailabilityCut],
) -> ModelInputs<'a> {
    ModelInputs {
        catalog,
        state,
        space,
        new_streams,
        weights: config.weights,
        relay_policy: config.relay_policy,
        acyclicity: config.acyclicity,
        replan: config.replan,
        cuts,
    }
}

/// Query-log entry for the skeleton's liveness bookkeeping; batch rounds
/// use a sentinel id and are logged per member by [`SqprPlanner::submit_batch`].
fn log_entry(q: QueryId, space: &PlanSpace) -> Vec<(QueryId, PlanSpace)> {
    if q == BATCH {
        Vec::new()
    } else {
        vec![(q, space.clone())]
    }
}

/// Drops flows, placements and availability entries that no longer serve a
/// provided stream (conservative backward reachability).
pub fn garbage_collect(state: &mut DeploymentState, catalog: &Catalog) {
    use sqpr_dsps::{HostId, OperatorId};
    let mut needed_streams: BTreeSet<(HostId, StreamId)> = BTreeSet::new();
    let mut needed_ops: BTreeSet<(HostId, OperatorId)> = BTreeSet::new();
    let mut queue: Vec<(HostId, StreamId)> =
        state.provided().iter().map(|(&s, &h)| (h, s)).collect();
    while let Some((h, s)) = queue.pop() {
        if !needed_streams.insert((h, s)) {
            continue;
        }
        // Keep every mechanism currently delivering (h, s).
        for &(g, m, fs) in state.flows() {
            if m == h && fs == s {
                queue.push((g, s));
            }
        }
        for &(ph, o) in state.placements() {
            if ph == h && catalog.operator(o).output == s {
                needed_ops.insert((ph, o));
                for &inp in &catalog.operator(o).inputs {
                    queue.push((h, inp));
                }
            }
        }
    }
    let flows: BTreeSet<_> = state
        .flows()
        .iter()
        .copied()
        .filter(|&(_, m, s)| needed_streams.contains(&(m, s)))
        .collect();
    let placements: BTreeSet<_> = state
        .placements()
        .iter()
        .copied()
        .filter(|k| needed_ops.contains(k))
        .collect();
    let available: BTreeSet<_> = state
        .available()
        .iter()
        .copied()
        .filter(|k| needed_streams.contains(k))
        .collect();
    let provided = state.provided().clone();
    state.replace_allocation(provided, flows, available, placements);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpr_dsps::{CostModel, DeployError, HostSpec};

    /// The install gate's one check is `is_valid`: a solution that admits
    /// the new stream but drops an admitted query's provider decodes to a
    /// deployment whose only violation is `QueryUnserved`, and the gate
    /// refuses it without touching the state.
    #[test]
    fn install_gate_refuses_an_unserved_admitted_query() {
        let mut catalog = Catalog::uniform(
            3,
            HostSpec::new(500.0, 2000.0),
            1000.0,
            CostModel::default(),
        );
        let bases: Vec<StreamId> = (0..3)
            .map(|i| catalog.add_base_stream(HostId(i), 6.0, u64::from(i)))
            .collect();
        let (first, _) = register_join_query(&mut catalog, QueryId(0), &[bases[0], bases[1]], 0);
        let (second, _) = register_join_query(&mut catalog, QueryId(1), &[bases[1], bases[2]], 0);
        let mut state = greedy_admit(&catalog, &DeploymentState::new(), first.result, 0)
            .expect("room for one query");
        state.admit_query(QueryId(0), first.result);
        assert!(state.is_valid(&catalog));

        let model = PlanningModel::build(&ModelInputs {
            catalog: &catalog,
            state: &state,
            space: &full_space(&catalog),
            new_streams: &[second.result],
            weights: ObjectiveWeights::paper_defaults(&catalog),
            relay_policy: RelayPolicy::All,
            acyclicity: AcyclicityMode::Constraints,
            replan: true,
            cuts: &[],
        });
        let x = sqpr_milp::solve(&model.milp, &MilpOptions::default())
            .x
            .expect("both queries fit");
        assert!(model.admits(&x, first.result) && model.admits(&x, second.result));

        // Zero the admitted query's one `d` column that is on.
        let d_on: Vec<usize> = (0..x.len())
            .filter(|&j| {
                let mut probe = x.clone();
                probe[j] = 0.0;
                !model.admits(&probe, first.result)
            })
            .collect();
        assert_eq!(d_on.len(), 1, "III.4b: one provider");
        let mut unserved = x.clone();
        unserved[d_on[0]] = 0.0;
        assert!(model.admits(&unserved, second.result));

        let mut candidate = state.clone();
        model.decode(&unserved, &state).install(&mut candidate);
        assert_eq!(
            candidate.validate(&catalog),
            vec![DeployError::QueryUnserved {
                query: QueryId(0),
                stream: first.result,
            }]
        );

        let revision = state.revision();
        let gate = |state: &mut DeploymentState, x: &[f64]| {
            install_plan(
                state,
                &catalog,
                QueryId(1),
                &[second.result],
                &model,
                Some(x),
            )
        };
        assert!(!gate(&mut state, &unserved));
        assert_eq!(
            state.revision(),
            revision,
            "a refused plan installs nothing"
        );
        assert!(gate(&mut state, &x), "the untouched solution installs");
        assert_ne!(state.revision(), revision);
    }
}
